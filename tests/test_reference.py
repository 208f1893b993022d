"""`Tracker` against a naive reference tracking loop, bit for bit.

The reference is the paper's template loop written plainly: lists for the
libraries, `gram_matrix` rebuilt for every admission candidate, the backbone
input built with `np.concatenate`, no Workspace and no thread. It shares with
the tracker only the stages that have their own oracles: `crop_region`,
`patch_embed`, `backbone`, `head_forward`, `decode_bbox`, `pearson` and
`gram_matrix`. Its fuse runs inline on the frame after a push and its result
is installed at the next tick, or on that frame under
`regenerate_every_frame`, so it shows when the tracker's deferred fuse,
token layout, Gram cache and member order must take effect.

A change to the loop's behaviour changes this reference in the same commit.
"""

import dataclasses
import io
import json
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evtrack.tracker as tracker_module
from evtrack.backbone import backbone
from evtrack.events import crop_region, stack_events, synth_stream
from evtrack.head import decode_bbox, head_forward
from evtrack.memory import TemplateFeature, gram_matrix, pearson
from evtrack.model import init_model
from evtrack.tokenizer import patch_embed
from evtrack.tracker import Tracker

from _utils import SMALL_SYNTH, small_config

# Crop geometries: the test default, N_z = N_x (the two positional tables
# then have one shape, so only their values tell them apart), and more tokens.
GEOMETRIES = {"default": {}, "n_z-equals-n_x": dict(search_size=32),
              "patch-8": dict(patch_size=8)}


def reference_track(cfg, model, frames, init_box):
    """Track `frames`; returns (records, steps). `records` is the debug
    stream's records in order; each step is (box, head input rows, head
    output, the dynamic template the step used)."""
    pe, n_z = model.patch_embed, cfg.n_template_tokens
    records = []

    def log(frame, op, accepted=None, replaced=None, before=None, after=None, routed=None):
        records.append(dict(frame=frame, op=op, accepted=accepted, replaced_index=replaced,
                            det_before=before, det_after=after, routed=routed))

    def embed(frame, box, context, size):
        patch = crop_region(frame, box, context, size)
        return patch, patch_embed(patch, pe)

    def admit(z):
        """Offer z to the full LT: the first replacement with the largest
        determinant is kept if it strictly beats the library's own. Returns
        the record's (accepted, replaced index, det before, det after)."""
        before = float(np.linalg.det(gram_matrix(long)))
        best, best_j = -np.inf, None
        for j in range(len(long)):
            det = float(np.linalg.det(gram_matrix(long[:j] + [z] + long[j + 1:])))
            if det > best:
                best, best_j = det, j
        fields = (True, best_j, before, best) if best > before else (False, None, before, before)
        if fields[0]:
            long[best_j] = z
        log(z.frame_index, "lt_admit", *fields)
        return fields

    def fuse(incoming):
        best_st = max(pearson(incoming, z) for z in short)
        best_lt = max(pearson(incoming, z) for z in long)
        routed = "ST" if best_st >= best_lt else "LT"
        log(incoming.frame_index, "route", routed=routed)
        members = short if routed == "ST" else sorted(long, key=lambda z: z.frame_index)
        return backbone(np.concatenate([z.tokens for z in members]), model.backbone)[-n_z:]

    _, tokens = embed(frames[0], init_box, cfg.template_context, cfg.template_size)
    initial = TemplateFeature(tokens=tokens, frame_index=0)
    static = initial.tokens + pe.pos_embed_template
    short, long = [initial] * cfg.st_capacity, [initial] * cfg.lt_capacity
    log(0, "init")
    dynamic, pending, pushed = fuse(initial), None, False
    box, steps = init_box, []
    for t, frame in enumerate(frames[1:], start=1):
        tick = t % cfg.update_interval == 0
        if pushed:
            pending, pushed = fuse(short[-1]), False
        if pending is not None and (tick or cfg.regenerate_every_frame):
            dynamic, pending = pending, None
        patch, search = embed(frame, box, cfg.search_context, cfg.search_size)
        out = backbone(np.concatenate([static, dynamic, search + pe.pos_embed_search]),
                       model.backbone)
        head_input = out[-cfg.n_search_tokens:]
        outputs = head_forward(head_input, model.head)
        box = decode_bbox(outputs, patch, frame.width, frame.height)
        steps.append((box, head_input, outputs, dynamic))
        if tick:
            _, tokens = embed(frame, box, cfg.template_context, cfg.template_size)
            short.append(TemplateFeature(tokens=tokens, frame_index=t))
            admitted = admit(short.pop(0)) if len(short) > cfg.st_capacity else (None,) * 4
            log(t, "st_push", *admitted)
            pushed = True
    return records, steps


def assert_same_bytes(got, want, what, t):
    assert got.dtype == want.dtype and got.shape == want.shape, (what, t)
    assert got.tobytes() == want.tobytes(), (what, t)


@settings(max_examples=30)
@given(depth=st.integers(1, 3), update_interval=st.integers(1, 6),
       st_capacity=st.integers(1, 6), lt_capacity=st.integers(1, 16),
       regenerate_every_frame=st.booleans(), geometry=st.sampled_from(sorted(GEOMETRIES)),
       model_seed=st.integers(0, 3), scene_seed=st.integers(0, 2**16))
@example(depth=1, update_interval=5, st_capacity=2, lt_capacity=2,
         regenerate_every_frame=False, geometry="default", model_seed=1, scene_seed=1)
@example(depth=1, update_interval=5, st_capacity=2, lt_capacity=2,
         regenerate_every_frame=True, geometry="default", model_seed=1, scene_seed=1)
def test_tracker_equals_reference_loop(depth, update_interval, st_capacity, lt_capacity,
                                       regenerate_every_frame, geometry, model_seed,
                                       scene_seed):
    # The examples are the golden run's config in both modes (the golden
    # CSVs pin only the default one): random LT sizes above 2 almost never
    # accept an admission.
    cfg = small_config(depth=depth, update_interval=update_interval,
                       st_capacity=st_capacity, lt_capacity=lt_capacity,
                       regenerate_every_frame=regenerate_every_frame, seed=model_seed,
                       **GEOMETRIES[geometry])
    model = init_model(cfg)
    stream, gt = synth_stream(dataclasses.replace(SMALL_SYNTH, seed=scene_seed))
    frames = stack_events(stream, cfg.window_us)
    records, steps = reference_track(cfg, model, frames, gt[0])

    heads = []

    def recording(search_tokens, params, ws=None):
        out = head_forward(search_tokens, params, ws)
        heads.append((search_tokens.copy(), out))
        return out

    n_z = cfg.n_template_tokens
    log = io.StringIO()
    tracker = Tracker(cfg, model, log)
    with mock.patch.object(tracker_module, "head_forward", recording):
        try:
            tracker.init(frames[0], gt[0])
            for t, (frame, (box, head_input, outputs, dynamic)) in enumerate(
                    zip(frames[1:], steps), start=1):
                assert tracker.step(frame) == box, t
                (got_input, got), = heads
                heads.clear()
                assert_same_bytes(got_input, head_input, "head input", t)
                for name in ("score", "offset", "size"):
                    assert_same_bytes(getattr(got, name), getattr(outputs, name), name, t)
                assert_same_bytes(tracker._tokens[n_z:2 * n_z], dynamic, "template", t)
        finally:
            tracker.close()
    assert [json.loads(line) for line in log.getvalue().splitlines()] == records
