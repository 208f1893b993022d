"""Exit codes of `evtrack` subcommands: 0 success, 1 runtime failure, 2 bad arguments."""

import contextlib
import io
import json
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evtrack.cli import main
from evtrack.events import MAX_SENSOR_SIDE
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


@pytest.mark.parametrize("fields, message", [
    ({"velocity": 3}, "velocity must be a pair of finite real numbers, got 3"),
    ({"start_center": [1, 2, 3]},
     "start_center must be a pair of finite real numbers, got (1, 2, 3)"),
    ({"seed": 1.5}, "seed must be an int, got 1.5"),
    ({"target_width": "wide"}, "target_width must be a finite real number, got 'wide'"),
    ({"speed": 1, "colour": 2}, "unknown synth config keys: colour, speed"),
], ids=["velocity-int", "start_center-triple", "seed-float", "target_width-text", "unknown-keys"])
def test_bad_synth_config_names_the_field(tmp_path, capsys, fields, message):
    config = tmp_path / "synth.json"
    config.write_text(json.dumps(dict(json.loads(SMALL_SYNTH.to_json()), **fields)))
    code = main(["synth", "--config", str(config), "--out-events", str(tmp_path / "e.csv"),
                 "--out-gt", str(tmp_path / "gt.csv")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Malformed input files, as hypothesis properties. Each must give exit 1 and
# one `error:` line on stderr, never an exception out of `main` (which the
# shell would show as a traceback).

def assert_error_exit(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code == 1
    assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
    return err.getvalue()


@pytest.fixture(scope="module")
def cli_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli")
    (path / "config.json").write_text(small_config().to_json())
    return path


def test_event_csv_without_rows_exits_1(cli_dir):
    events, pred = cli_dir / "header-only.csv", cli_dir / "header-only-pred.csv"
    events.write_text("t,x,y,p\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = assert_error_exit(["track", "--config", str(cli_dir / "config.json"),
                                 "--events", str(events), "--init-bbox", "10,10,8,8",
                                 "--out", str(pred)])
    assert "the recording holds no events" in err
    assert not pred.exists()


NOT_AN_INT = st.sampled_from(["", "nan", "inf", "1.5", "1e3", "0x1f", "--1", "a"])
EVENT_FAULTS = ("unsorted", "negative", "off-sensor", "polarity", "non-numeric", "columns")


@settings(max_examples=60)
@given(data=st.data(), n=st.integers(2, 12), fault=st.sampled_from(EVENT_FAULTS))
def test_malformed_event_csv_exits_1(cli_dir, data, n, fault):
    ts = sorted(data.draw(st.lists(st.integers(0, 50_000), min_size=n, max_size=n)))
    coords = st.integers(0, 95)
    rows = [[t, data.draw(coords), data.draw(coords), data.draw(st.sampled_from([-1, 1]))]
            for t in ts]
    i = data.draw(st.integers(1, n - 1))  # the faulty row; row 0 is valid
    if fault == "unsorted":
        rows[i][0] = rows[i - 1][0] - data.draw(st.integers(1, 10**6))
    elif fault == "negative":
        rows[i][data.draw(st.integers(1, 2))] = data.draw(st.integers(-10**6, -1))
    elif fault == "off-sensor":
        rows[i][data.draw(st.integers(1, 2))] = data.draw(st.integers(MAX_SENSOR_SIDE, 10**9))
    elif fault == "polarity":
        rows[i][3] = data.draw(st.integers(-300, 300).filter(lambda p: p not in (-1, 1)))
    elif fault == "non-numeric":
        rows[i][data.draw(st.integers(0, 3))] = data.draw(NOT_AN_INT)
    else:
        rows[i] = (rows[i] + [0, 0])[:data.draw(st.sampled_from([1, 2, 3, 5, 6]))]
    events = cli_dir / "events.csv"
    events.write_text("t,x,y,p\n" + "".join(",".join(map(str, r)) + "\n" for r in rows))
    assert_error_exit(["track", "--config", str(cli_dir / "config.json"),
                       "--events", str(events), "--init-bbox", "10,10,8,8",
                       "--out", str(cli_dir / "pred.csv")])


BOX_FAULTS = ("non-finite", "non-numeric", "columns", "non-positive side")


@settings(max_examples=40)
@given(data=st.data(), n=st.integers(1, 6), fault=st.sampled_from(BOX_FAULTS),
       side=st.sampled_from(["pred", "gt"]))
def test_malformed_box_csv_exits_1(cli_dir, data, n, fault, side):
    finite = st.floats(-1e3, 1e3)
    files = {name: [[data.draw(finite), data.draw(finite), data.draw(st.floats(1, 100)),
                     data.draw(st.floats(1, 100))] for _ in range(n)]
             for name in ("pred", "gt")}
    row = files[side][data.draw(st.integers(0, n - 1))]
    column = data.draw(st.integers(0, 3))
    if fault == "non-finite":
        row[column] = data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity", "1e999"]))
    elif fault == "non-numeric":
        row[column] = data.draw(st.sampled_from(["", "a", "1,5", "0x1f", "--1"]))
    elif fault == "columns":
        row[:] = (row + [1.0, 1.0])[:data.draw(st.sampled_from([1, 2, 3, 5, 6]))]
    else:
        row[data.draw(st.integers(2, 3))] = data.draw(st.floats(-100, 0))
    for name, rows in files.items():
        (cli_dir / f"{name}.csv").write_text("".join(",".join(map(str, r)) + "\n" for r in rows))
    assert_error_exit(["eval", "--pred", str(cli_dir / "pred.csv"),
                       "--gt", str(cli_dir / "gt.csv"), "--report", str(cli_dir / "r.json")])
