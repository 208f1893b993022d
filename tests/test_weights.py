"""Weight files: bit-exact round trips and one error code per fault."""

import numpy as np
import pytest

from evtrack.model import named_arrays
from evtrack.weights import MAGIC, WeightFileError, load_weights, save_weights, write_weight_file

from _utils import small_model


def model_arrays(model):
    return {name: arr for name, arr, _ in named_arrays(model)}


def assert_code(code, fn, *args):
    with pytest.raises(WeightFileError) as exc:
        fn(*args)
    assert exc.value.code == code


def test_round_trip_is_bit_exact(tmp_path):
    _, model = small_model(seed=3)
    _, other = small_model(seed=99)
    path = tmp_path / "w.bin"
    save_weights(path, model)
    load_weights(path, other)
    saved, loaded = model_arrays(model), model_arrays(other)
    assert saved.keys() == loaded.keys()
    for name, arr in saved.items():
        assert arr.tobytes() == loaded[name].tobytes(), name


def test_bad_magic(tmp_path):
    path = tmp_path / "w.bin"
    path.write_bytes(b"MEVTW000" + bytes(8))
    assert_code("bad_magic", load_weights, path, small_model()[1])


def test_truncated_mid_name_and_mid_data(tmp_path):
    _, model = small_model()
    full = tmp_path / "full.bin"
    save_weights(full, model)
    data = full.read_bytes()
    name_len = int.from_bytes(data[len(MAGIC):len(MAGIC) + 4], "little")
    cuts = {"mid-name": len(MAGIC) + 4 + name_len // 2, "mid-data": len(data) - 3}
    for label, cut in cuts.items():
        path = tmp_path / f"{label}.bin"
        path.write_bytes(data[:cut])
        assert_code("truncated", load_weights, path, model)


def test_duplicate_record(tmp_path):
    path = tmp_path / "w.bin"
    write_weight_file(path, {"a": np.ones(3, dtype=np.float32)})
    record = path.read_bytes()[len(MAGIC):]
    with open(path, "ab") as f:
        f.write(record)
    assert_code("duplicate", load_weights, path, small_model()[1])


def test_shape_mismatch(tmp_path):
    _, model = small_model()
    arrays = model_arrays(model)
    name = next(n for n, a in arrays.items() if a.ndim == 2)
    arrays[name] = arrays[name].T.copy()
    path = tmp_path / "w.bin"
    write_weight_file(path, arrays)
    assert_code("shape_mismatch", load_weights, path, model)


def test_missing_parameter(tmp_path):
    _, model = small_model()
    arrays = model_arrays(model)
    arrays.pop(next(iter(arrays)))
    path = tmp_path / "w.bin"
    write_weight_file(path, arrays)
    assert_code("missing_parameter", load_weights, path, model)


def test_unexpected_parameter(tmp_path):
    _, model = small_model()
    arrays = model_arrays(model)
    arrays["extra.weight"] = np.zeros(2, dtype=np.float32)
    path = tmp_path / "w.bin"
    write_weight_file(path, arrays)
    assert_code("unexpected_parameter", load_weights, path, model)


def test_non_float32_rejected_on_write(tmp_path):
    assert_code("dtype", write_weight_file, tmp_path / "w.bin",
                {"a": np.ones(3, dtype=np.float64)})


# -- a failed load leaves the model untouched --------------------------------

def snapshot(model):
    return {name: arr.tobytes() for name, arr, _ in named_arrays(model)}


def other_arrays():
    """Every array of a differently seeded model, so a partial load shows."""
    _, other = small_model(seed=99)
    return model_arrays(other)


def bad_missing(path):
    arrays = other_arrays()
    arrays.pop(next(iter(arrays)))
    write_weight_file(path, arrays)


def bad_last_shape(path):
    arrays = other_arrays()
    last = next(reversed(arrays))
    arrays[last] = np.zeros(arrays[last].size + 1, dtype=np.float32)
    write_weight_file(path, arrays)


def bad_unexpected(path):
    arrays = other_arrays()
    arrays["zz.extra"] = np.zeros(2, dtype=np.float32)
    write_weight_file(path, arrays)


def bad_truncated(path):
    write_weight_file(path, other_arrays())
    data = path.read_bytes()
    path.write_bytes(data[:-3])


def bad_duplicate(path):
    write_weight_file(path, other_arrays())
    data = path.read_bytes()
    name_len = int.from_bytes(data[len(MAGIC):len(MAGIC) + 4], "little")
    # The first record is a 1-D or higher array; its header and data follow.
    rank_at = len(MAGIC) + 4 + name_len
    rank = int.from_bytes(data[rank_at:rank_at + 4], "little")
    dims = [int.from_bytes(data[rank_at + 4 + 4 * i:rank_at + 8 + 4 * i], "little")
            for i in range(rank)]
    end = rank_at + 4 + 4 * rank + 4 * int(np.prod(dims))
    path.write_bytes(data + data[len(MAGIC):end])


@pytest.mark.parametrize("code, make", [
    ("missing_parameter", bad_missing), ("shape_mismatch", bad_last_shape),
    ("unexpected_parameter", bad_unexpected), ("truncated", bad_truncated),
    ("duplicate", bad_duplicate)])
def test_failed_load_leaves_model_untouched(tmp_path, code, make):
    _, model = small_model(seed=3)
    before = snapshot(model)
    path = tmp_path / "w.bin"
    make(path)
    assert_code(code, load_weights, path, model)
    assert snapshot(model) == before


@pytest.mark.parametrize("retype", [
    lambda arr: arr.astype(np.float64),
    lambda arr: np.asfortranarray(arr)], ids=["float64", "fortran"])
def test_non_float32_model_array_rejected_before_any_write(tmp_path, retype):
    _, model = small_model(seed=3)
    path = tmp_path / "w.bin"
    write_weight_file(path, other_arrays())
    block = model.backbone.blocks[-1]
    block.out_proj = retype(block.out_proj)  # after the patch-embed arrays
    before = snapshot(model)
    assert_code("dtype", load_weights, path, model)
    assert snapshot(model) == before
