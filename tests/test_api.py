"""The package's public names."""

import evtrack

# Every name in `evtrack.__all__`, so adding or removing one shows here.
PUBLIC = {
    "BBox", "EvalReport", "EventFrame", "EventStream", "HeadOutputs",
    "MemoryLibrary", "ModelParams", "RegionPatch", "SSMParams", "SynthConfig",
    "TemplateFeature", "Tracker", "TrackerConfig", "WeightFileError", "count_params",
    "crop_region", "decode_bbox", "evaluate", "head_forward", "init_model", "iou",
    "iter_event_frames", "load_config", "load_weights", "patch_embed", "pearson",
    "save_weights", "scan_forward_chunked", "stack_events", "synth_stream",
    "track_frames", "track_sequence",
}


def test_every_public_name_resolves_once():
    names = evtrack.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(evtrack, name)]
    assert not missing


def test_public_names_are_pinned():
    assert set(evtrack.__all__) == PUBLIC
