"""Exit codes of `evtrack` subcommands: 0 success, 1 runtime failure, 2 bad arguments."""

import json

import pytest

from evtrack.cli import main
from evtrack.model import count_params, init_model

from _utils import SMALL_SYNTH, small_config


@pytest.fixture
def files(tmp_path):
    """A tiny tracker config, a synthetic sequence and its ground truth."""
    config = tmp_path / "config.json"
    config.write_text(small_config().to_json())
    synth = tmp_path / "synth.json"
    synth.write_text(SMALL_SYNTH.to_json())
    events, gt = tmp_path / "events.csv", tmp_path / "gt.csv"
    assert main(["synth", "--config", str(synth), "--out-events", str(events),
                 "--out-gt", str(gt)]) == 0
    return tmp_path, config, events, gt


def first_box(gt):
    return gt.read_text().splitlines()[0]


def test_synth_track_eval_params_succeed(files, capsys):
    tmp, config, events, gt = files
    pred, report = tmp / "pred.csv", tmp / "report.json"
    assert main(["track", "--config", str(config), "--events", str(events),
                 "--init-bbox", first_box(gt), "--out", str(pred)]) == 0
    assert len(pred.read_text().splitlines()) == len(gt.read_text().splitlines())

    assert main(["eval", "--pred", str(pred), "--gt", str(gt),
                 "--report", str(report)]) == 0
    assert {"SR", "PR", "NPR"} <= set(json.loads(report.read_text()))

    capsys.readouterr()
    assert main(["params", "--config", str(config)]) == 0
    assert capsys.readouterr().out.strip() == str(count_params(init_model(small_config())))


def test_missing_events_file_exits_1(files, capsys):
    tmp, config, _, gt = files
    code = main(["track", "--config", str(config), "--events", str(tmp / "absent.csv"),
                 "--init-bbox", first_box(gt), "--out", str(tmp / "pred.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_event_value_outside_its_column_exits_1(files, capsys):
    tmp, config, _, gt = files
    events = tmp / "wide.csv"
    events.write_text("t,x,y,p\n0,1,2,1\n5,40000,2,1\n", encoding="utf-8")
    code = main(["track", "--config", str(config), "--events", str(events),
                 "--init-bbox", first_box(gt), "--out", str(tmp / "pred.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "40000" in err


def test_corrupt_weights_exit_1(files, capsys):
    tmp, config, events, gt = files
    weights = tmp / "weights.bin"
    weights.write_bytes(b"not a weight file")
    code = main(["track", "--config", str(config), "--weights", str(weights),
                 "--events", str(events), "--init-bbox", first_box(gt),
                 "--out", str(tmp / "pred.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("mode, code", [("shared", 0), ("separate", 1)])
def test_params_reads_legacy_memory_mode(tmp_path, capsys, mode, code):
    # Config files written while the fusion stack was a mode carry
    # "memory_mode": "shared", which still loads; "separate" no longer exists.
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(json.loads(small_config().to_json()), memory_mode=mode)))
    assert main(["params", "--config", str(config)]) == code
    out, err = capsys.readouterr()
    if code == 0:
        assert out.strip() == str(count_params(init_model(small_config())))
    else:
        assert err.startswith("error:") and "'separate' was removed" in err


@pytest.mark.parametrize("bbox", ["1,2,3", "a,b,c,d"])
def test_bad_init_bbox_exits_2(files, bbox):
    tmp, config, events, _ = files
    with pytest.raises(SystemExit) as exc:
        main(["track", "--config", str(config), "--events", str(events),
              "--init-bbox", bbox, "--out", str(tmp / "pred.csv")])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["bench", "selftest"])
def test_unknown_subcommand_exits_2(command):
    # Removed subcommands are invalid choices, not silent no-ops.
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2
