import numpy as np
import pytest

import evtrack.tracker as tracker_module
from evtrack.backbone import backbone
from evtrack.config import TrackerConfig
from evtrack.events import stack_events, synth_stream
from evtrack.fusion import fuse, generate_dynamic_template
from evtrack.memory import MemoryLibrary, TemplateFeature
from evtrack.model import count_params
from evtrack.tracker import Tracker

from _utils import SMALL_SYNTH, record_installs, small_model


def feats(rng, count, n_z=4, dim=16, start_frame=0):
    return [TemplateFeature(tokens=rng.standard_normal((n_z, dim)).astype(np.float32),
                            frame_index=start_frame + i)
            for i in range(count)]


@pytest.fixture(scope="module")
def setup():
    cfg, model = small_model()
    return cfg, model, model.backbone


def test_single_template_equals_backbone(setup):
    cfg, model, params = setup
    rng = np.random.default_rng(0)
    (z,) = feats(rng, 1)
    out = fuse([z], params)
    np.testing.assert_array_equal(out, backbone(z.tokens, model.backbone))


def test_output_shape_independent_of_member_count(setup):
    cfg, model, params = setup
    rng = np.random.default_rng(1)
    for m in (1, 2, 6, 9):
        out = fuse(feats(rng, m), params)
        assert out.shape == (4, 16)


def test_six_templates_consume_384_concatenated_rows():
    # default geometry: 6 templates of 64 tokens -> 384-token fusion input
    cfg = TrackerConfig()
    n_z = cfg.n_template_tokens
    assert n_z == 64
    assert 6 * n_z == 384


def test_shared_mode_aliases_backbone_parameters(setup, monkeypatch):
    # The Memory Mamba is the backbone itself: every regeneration the
    # tracker runs (init inline, and a worker's fuse after a push) gets
    # model.backbone. The inline fuse also gets the tracker's helper; the
    # worker's runs without one.
    cfg, model, _ = setup
    stream, gt = synth_stream(SMALL_SYNTH)
    frames = stack_events(stream, cfg.window_us)[:11]
    received = []

    def recording(lib, incoming, params, ws=None, helper=None):
        received.append((params, ws, helper))
        return generate_dynamic_template(lib, incoming, params, ws, helper)

    monkeypatch.setattr(tracker_module, "generate_dynamic_template", recording)
    installs = record_installs(monkeypatch)
    tracker = Tracker(cfg, model)
    tracker.init(frames[0], gt[0])
    started = None
    for t, frame in enumerate(frames[1:], start=1):
        worker = tracker._fuse
        tracker.step(frame)
        if tracker._fuse is not None and tracker._fuse is not worker:
            started = t
    # init, and the t = 5 push's fuse: started at t = 6, installed at t = 10
    assert (started, installs) == (6, [0, 10])
    assert len(received) == 2
    assert received[0][1] is tracker.workspace and received[1][1] is tracker.fuse_workspace
    assert received[0][2] is tracker.helper and received[1][2] is None
    assert all(params is model.backbone for params, _, _ in received)


def test_order_sensitivity(setup):
    cfg, model, params = setup
    rng = np.random.default_rng(2)
    templates = feats(rng, 4)
    forward = fuse(templates, params)
    permuted = fuse(templates[::-1], params)
    assert not np.allclose(forward, permuted)


def test_empty_sequence_rejected(setup):
    _, _, params = setup
    with pytest.raises(ValueError):
        fuse([], params)


def test_generate_matches_route_plus_fuse(setup):
    cfg, model, params = setup
    rng = np.random.default_rng(3)
    lib = MemoryLibrary(st_capacity=2, lt_capacity=3)
    lib.init_memory(feats(rng, 1)[0])
    lib.lt = feats(rng, 3, start_frame=10)
    lib.st = type(lib.st)(feats(rng, 2, start_frame=20))
    incoming = feats(rng, 1, start_frame=99)[0]
    expected_lib = lib.route(incoming)
    members = lib.st_members() if expected_lib == "ST" else lib.lt_members()
    np.testing.assert_array_equal(generate_dynamic_template(lib, incoming, params),
                                  fuse(members, params))


def test_fresh_memory_fuses_initial_copies(setup):
    cfg, model, params = setup
    rng = np.random.default_rng(4)
    initial = feats(rng, 1)[0]
    lib = MemoryLibrary(st_capacity=3, lt_capacity=2)
    lib.init_memory(initial)
    out = generate_dynamic_template(lib, initial, params)
    np.testing.assert_array_equal(out, fuse([initial] * 3, params))


def test_lt_fusion_uses_frame_order(setup):
    cfg, model, params = setup
    rng = np.random.default_rng(5)
    lib = MemoryLibrary(st_capacity=2, lt_capacity=3)
    lib.init_memory(feats(rng, 1)[0])
    shuffled = feats(rng, 3, start_frame=10)
    lib.lt = [shuffled[2], shuffled[0], shuffled[1]]
    incoming = shuffled[1]  # exact LT match routes to LT
    out = generate_dynamic_template(lib, incoming, params)
    np.testing.assert_array_equal(out, fuse(sorted(shuffled, key=lambda z: z.frame_index),
                                            params))


def test_shared_mode_adds_no_parameters(setup):
    # Fusion owns no parameters: the model is the patch embedding, the
    # backbone and the head.
    _, model, _ = setup
    assert count_params(model) == (count_params(model.patch_embed)
                                   + count_params(model.backbone)
                                   + count_params(model.head))
