import io
import json
import os
import subprocess
import sys
from collections import deque

import numpy as np
import pytest

import evtrack
from evtrack.memory import (PSD_FLOOR, AdmissionRecord, MemoryLibrary, TemplateFeature,
                            checked_det, gram_matrix, pearson)


def feat(values, frame_index=0):
    arr = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    return TemplateFeature(tokens=arr, frame_index=frame_index)


def rand_feat(rng, frame_index=0, shape=(6, 2)):
    return TemplateFeature(tokens=rng.standard_normal(shape), frame_index=frame_index)


def hadamard(order):
    h = np.array([[1.0]])
    while h.shape[0] < order:
        h = np.block([[h, h], [h, -h]])
    return h


class TestPearson:
    def test_self_correlation_is_one(self):
        z = feat([1.0, 2.0, 5.0, -3.0])
        assert pearson(z, z) == 1.0

    def test_perfect_anticorrelation(self):
        assert pearson(feat([1, 2, 3]), feat([3, 2, 1])) == -1.0

    def test_reference_value(self):
        r = pearson(feat([1, 2, 3, 4]), feat([1, 2, 3, 5]))
        assert abs(r - 0.9827) < 1e-3

    def test_symmetry_and_sign_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            a, b = rand_feat(rng), rand_feat(rng)
            assert pearson(a, b) == pytest.approx(pearson(b, a), abs=1e-13)
            alpha = float(rng.uniform(0.5, 4.0)) * float(rng.choice([-1.0, 1.0]))
            beta = float(rng.uniform(-3, 3))
            scaled = TemplateFeature(tokens=alpha * a.tokens + beta, frame_index=0)
            assert pearson(scaled, b) == pytest.approx(
                np.sign(alpha) * pearson(a, b), abs=1e-10)

    def test_zero_variance_conventions(self):
        const = feat([2.0, 2.0, 2.0])
        other = feat([1.0, 2.0, 3.0])
        assert pearson(const, const) == 1.0
        assert pearson(const, other) == 0.0
        assert pearson(const, feat([3.0, 3.0, 3.0])) == 0.0


class TestGramDet:
    def test_identical_templates_zero(self):
        z = feat([1.0, 4.0, -2.0, 0.5])
        for n in (2, 3, 5):
            assert abs(checked_det(gram_matrix([z] * n))) < 1e-12

    def test_uncorrelated_templates_identity(self):
        h = hadamard(8)
        templates = [TemplateFeature(tokens=h[i].reshape(4, 2), frame_index=i)
                     for i in (1, 2, 3, 4)]
        g = gram_matrix(templates)
        np.testing.assert_allclose(g, np.eye(4), atol=1e-14)
        assert checked_det(gram_matrix(templates)) == pytest.approx(1.0, abs=1e-12)

    def test_equicorrelated_closed_form(self):
        # pairwise rho = 0.5 exactly: det = 1 - 3 rho^2 + 2 rho^3 = 0.5
        h = hadamard(8)
        templates = [TemplateFeature(tokens=(h[i] + h[4]).reshape(4, 2), frame_index=i)
                     for i in (1, 2, 3)]
        assert checked_det(gram_matrix(templates)) == pytest.approx(0.5, abs=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(1)
        templates = [rand_feat(rng, i) for i in range(5)]
        base = checked_det(gram_matrix(templates))
        for _ in range(5):
            perm = list(rng.permutation(5))
            permuted = gram_matrix([templates[i] for i in perm])
            assert checked_det(permuted) == pytest.approx(base, abs=1e-11)

    def test_range_for_random_sets(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            templates = [rand_feat(rng, i) for i in range(4)]
            det = checked_det(gram_matrix(templates))
            assert -1e-9 <= det <= 1.0 + 1e-9


class TestPSDCheck:
    NOT_PSD = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3 and -1: det -3

    def test_non_psd_matrix_rejected(self):
        with pytest.raises(ValueError, match="below PSD rounding floor"):
            checked_det(self.NOT_PSD)

    def test_one_non_psd_matrix_in_a_stack_rejected(self):
        stack = np.stack([np.eye(2), self.NOT_PSD, np.eye(2)])
        with pytest.raises(ValueError):
            checked_det(stack)

    def test_rounding_floor_and_nan(self):
        eps = np.sqrt(-PSD_FLOOR) / 2  # det = -eps^2, a quarter of the floor
        assert checked_det(np.array([[eps, 0.0], [0.0, -eps]])) == pytest.approx(-eps * eps)
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            checked_det(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_check_survives_optimized_mode(self):
        code = ("import numpy as np\n"
                "from evtrack.memory import checked_det\n"
                "try:\n"
                "    checked_det(np.array([[1.0, 2.0], [2.0, 1.0]]))\n"
                "except ValueError:\n"
                "    raise SystemExit(0)\n"
                "raise SystemExit(1)\n")
        # the child imports the evtrack under test, however pytest found it
        src = os.path.dirname(os.path.dirname(evtrack.__file__))
        done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                              text=True, timeout=60, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 0, done.stderr


class TestFeatureCache:
    def test_centered_and_variance_match_definition(self):
        rng = np.random.default_rng(17)
        z = TemplateFeature(tokens=rng.standard_normal((4, 3)).astype(np.float32),
                            frame_index=0)
        x = z.tokens.reshape(-1).astype(np.float64)
        np.testing.assert_array_equal(z.centered, x - x.mean())
        assert z.variance == float((x - x.mean()) @ (x - x.mean()))
        assert z.centered is z.centered  # computed once

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pearson(feat([1.0, 2.0, 3.0]), feat([1.0, 2.0]))


def fresh_library(rng, st=3, lt=5, seed_features=True):
    lib = MemoryLibrary(st_capacity=st, lt_capacity=lt)
    lib.init_memory(rand_feat(rng, 0))
    if seed_features:
        lib.lt = [rand_feat(rng, i) for i in range(lt)]
    return lib


class TestAdmission:
    def test_forced_acceptance_from_identical_library(self):
        # Only capacity 2 can leave the all-identical state in one step: for
        # n >= 3 a single replacement keeps two identical rows (det stays 0),
        # so the strict admission rule rejects it.
        rng = np.random.default_rng(3)
        lib = MemoryLibrary(st_capacity=2, lt_capacity=2)
        lib.init_memory(rand_feat(rng, 0))
        record = lib.lt_admit(rand_feat(rng, 5))
        assert record.accepted
        assert record.det_before == pytest.approx(0.0, abs=1e-12)
        assert record.det_after > 0

    def test_identical_library_above_capacity_two_stays_fixed(self):
        rng = np.random.default_rng(30)
        lib = MemoryLibrary(st_capacity=2, lt_capacity=4)
        lib.init_memory(rand_feat(rng, 0))
        record = lib.lt_admit(rand_feat(rng, 5))
        assert not record.accepted  # two identical rows remain: det stays 0

    def test_duplicate_rejected(self):
        rng = np.random.default_rng(4)
        lib = fresh_library(rng)
        record = lib.lt_admit(lib.lt[2])
        assert not record.accepted
        assert record.replaced_index is None
        assert record.det_after == record.det_before

    def test_determinant_monotone_over_updates(self):
        rng = np.random.default_rng(6)
        lib = MemoryLibrary(st_capacity=3, lt_capacity=5)
        lib.init_memory(rand_feat(rng, 0))
        det = checked_det(gram_matrix(lib.lt))
        for i in range(300):
            lib.st_push(rand_feat(rng, i + 1))
            new_det = checked_det(gram_matrix(lib.lt))
            assert new_det >= det - 1e-9
            det = new_det

    def test_requires_full_library(self):
        lib = MemoryLibrary(st_capacity=2, lt_capacity=4)
        with pytest.raises(ValueError):
            lib.lt_admit(rand_feat(np.random.default_rng(0)))


def _oracle_gram(features) -> np.ndarray:
    """numpy.corrcoef over the stacked features, with the zero-variance
    convention (1 for identical vectors, 0 otherwise) filled in where
    corrcoef divides by a zero standard deviation."""
    x = np.stack([f.flat().astype(np.float64) for f in features])
    with np.errstate(invalid="ignore", divide="ignore"):
        g = np.atleast_2d(np.corrcoef(x))
    flat = x.std(axis=1) == 0
    for i, j in zip(*np.nonzero(flat[:, None] | flat[None, :])):
        g[i, j] = 1.0 if np.array_equal(x[i], x[j]) else 0.0
    np.fill_diagonal(g, 1.0)
    return g


def _member_pool(rng, size=12, shape=(6, 2)):
    """Random features plus zero-variance ones (two constants, one zero)."""
    pool = [rand_feat(rng, i, shape) for i in range(size)]
    pool += [TemplateFeature(tokens=np.full(shape, c), frame_index=size + k)
             for k, c in enumerate((2.5, -1.0, 0.0))]
    return pool


def _draw(rng, pool, n):
    """n members drawn with replacement, so duplicates are common."""
    return [pool[i] for i in rng.integers(0, len(pool), n)]


TIE = 1e-12


class TestBatchedOracle:
    """Batched admission and cached routing against corrcoef brute force.

    Libraries hold duplicates and zero-variance members. Where the oracle's
    own determinants tie within TIE (duplicate members make exact ties), the
    chosen index only has to be one of the tied best ones; everywhere else
    the decision must be identical.
    """

    def test_admission_matches_corrcoef_oracle(self):
        rng = np.random.default_rng(40)
        pool = _member_pool(rng)
        decisive = 0
        for trial in range(300):
            n = int(rng.integers(1, 7))
            lib = MemoryLibrary(st_capacity=2, lt_capacity=n)
            lib.lt = _draw(rng, pool, n)
            z = rand_feat(rng, 99) if trial % 3 else pool[int(rng.integers(len(pool)))]
            det0 = np.linalg.det(_oracle_gram(lib.lt))
            dets = []
            for j in range(n):
                cand = list(lib.lt)
                cand[j] = z
                dets.append(np.linalg.det(_oracle_gram(cand)))
            dets = np.array(dets)
            best = dets.max()
            record = lib.lt_admit(z)
            assert record.det_before == pytest.approx(det0, abs=TIE)
            if abs(best - det0) > TIE:
                assert record.accepted == (best > det0), trial
            if record.accepted:
                assert dets[record.replaced_index] >= best - TIE, trial
                assert record.det_after == pytest.approx(best, abs=TIE)
            else:
                assert record.replaced_index is None
                assert record.det_after == record.det_before
            if abs(best - det0) > TIE and np.sum(dets >= best - TIE) == 1:
                decisive += 1
                if record.accepted:
                    assert record.replaced_index == int(np.argmax(dets)), trial
        assert decisive >= 100, decisive

    def test_route_matches_corrcoef_oracle(self):
        rng = np.random.default_rng(41)
        pool = _member_pool(rng)
        routed = set()
        for trial in range(300):
            lib = MemoryLibrary(st_capacity=3, lt_capacity=4)
            lib.st = deque(_draw(rng, pool, 3))
            lib.lt = _draw(rng, pool, 4)
            z = pool[int(rng.integers(len(pool)))] if trial % 2 else rand_feat(rng, 99)
            g = _oracle_gram([z] + lib.st_members() + lib.lt)
            best_st, best_lt = g[0, 1:4].max(), g[0, 4:].max()
            expect = "ST" if best_st >= best_lt - TIE else "LT"
            assert lib.route(z) == expect, trial
            routed.add(expect)
        assert routed == {"ST", "LT"}


class TestShortTerm:
    def test_no_eviction_below_capacity(self):
        rng = np.random.default_rng(7)
        lib = MemoryLibrary(st_capacity=4, lt_capacity=2)
        lib.st.append(rand_feat(rng, 0))
        assert lib.st_push(rand_feat(rng, 1)) is None
        assert len(lib.st) == 2

    def test_fifo_eviction_order(self):
        rng = np.random.default_rng(8)
        lib = fresh_library(rng, st=3, lt=4)
        start = [z.frame_index for z in lib.st_members()]
        for i in (10, 11, 12):
            lib.st_push(rand_feat(rng, i))
        assert [z.frame_index for z in lib.st_members()] == [10, 11, 12]
        assert start == [0, 0, 0]

    def test_push_count_drives_admission_offers(self):
        rng = np.random.default_rng(9)
        lib = fresh_library(rng, st=3, lt=4)
        offered = []
        original = lib.lt_admit

        def spy(z):
            offered.append(z.frame_index)
            return original(z)

        lib.lt_admit = spy
        for i in range(6):  # st at capacity: every push evicts the oldest
            lib.st_push(rand_feat(rng, 100 + i))
        assert offered == [0, 0, 0, 100, 101, 102]


class TestRouting:
    def test_exact_match_in_st(self):
        rng = np.random.default_rng(10)
        lib = fresh_library(rng)
        target = lib.st_members()[1]
        assert lib.route(target) == "ST"

    def test_exact_match_in_lt(self):
        rng = np.random.default_rng(11)
        lib = fresh_library(rng)
        lib.st = type(lib.st)(rand_feat(rng, 50 + i) for i in range(3))
        target = lib.lt[2]
        assert lib.route(target) == "LT"

    def test_tie_prefers_st(self):
        rng = np.random.default_rng(13)
        lib = MemoryLibrary(st_capacity=2, lt_capacity=2)
        initial = rand_feat(rng, 0)
        lib.init_memory(initial)
        assert lib.route(initial) == "ST"


class TestInitAndDebug:
    def test_init_fills_both_libraries(self):
        rng = np.random.default_rng(14)
        lib = MemoryLibrary(st_capacity=6, lt_capacity=16)
        lib.init_memory(rand_feat(rng, 0))
        assert len(lib.st) == 6 and len(lib.lt) == 16
        assert checked_det(gram_matrix(lib.lt)) == pytest.approx(0.0, abs=1e-12)

    def test_double_init_rejected(self):
        rng = np.random.default_rng(15)
        lib = MemoryLibrary(st_capacity=2, lt_capacity=2)
        lib.init_memory(rand_feat(rng, 0))
        with pytest.raises(ValueError):
            lib.init_memory(rand_feat(rng, 1))

    def test_debug_stream_records_operations(self):
        rng = np.random.default_rng(16)
        out = io.StringIO()
        lib = MemoryLibrary(st_capacity=2, lt_capacity=2, debug_stream=out)
        lib.init_memory(rand_feat(rng, 0))
        lib.st_push(rand_feat(rng, 1))
        lib.route(rand_feat(rng, 2))
        records = [json.loads(line) for line in out.getvalue().splitlines()]
        assert [r["op"] for r in records] == ["init", "lt_admit", "st_push", "route"]
        assert records[-1]["routed"] in ("ST", "LT")
        assert all(set(r) == {"frame", "op", "accepted", "replaced_index",
                              "det_before", "det_after", "routed"} for r in records)
