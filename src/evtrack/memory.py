"""Long-term / short-term template libraries with Gram-determinant admission.

The short-term store is a FIFO queue sampled at fixed intervals; evicted
templates are offered to the long-term store, which accepts a replacement
only when it strictly increases the determinant of its pairwise Pearson
correlation (Gram) matrix, i.e. only when diversity grows. Lookups route an
incoming template to whichever library holds its most similar member.

Each feature's centered float64 vector and its squared norm are computed
once and cached on the feature, so a correlation costs one dot product. The
library caches no Gram matrix: each LT offer, one per tick, builds the base
matrix from the current members.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields
from functools import cached_property
from typing import IO, Sequence

import numpy as np

# Correlation matrices are positive semi-definite, so their determinants lie
# in [0, 1] up to rounding; anything below this floor indicates a bug.
PSD_FLOOR = -1e-9


@dataclass(frozen=True)
class TemplateFeature:
    """Patch-embedded tokens (N_z x C) of one tracking-result crop.

    The tokens must not be modified after construction: the centered vector
    and variance are cached from them.
    """

    tokens: np.ndarray
    frame_index: int

    def __post_init__(self):
        if self.tokens.ndim != 2:
            raise ValueError("template tokens must be N_z x C")
        if not np.all(np.isfinite(self.tokens)):
            raise ValueError("non-finite template feature")

    def flat(self) -> np.ndarray:
        return self.tokens.reshape(-1)

    @cached_property
    def centered(self) -> np.ndarray:
        """The flattened tokens in float64, minus their mean."""
        x = self.flat().astype(np.float64)
        return x - x.mean()

    @cached_property
    def variance(self) -> float:
        """Sum of squares of `centered` (the unnormalized variance)."""
        return float(self.centered @ self.centered)


def pearson(a: TemplateFeature, b: TemplateFeature) -> float:
    """Pearson linear correlation of the flattened features, in [-1, 1].

    Zero-variance convention: identical vectors correlate at 1, otherwise 0.
    """
    if a.tokens.size != b.tokens.size:
        raise ValueError("feature shapes differ")
    vx, vy = a.variance, b.variance
    if vx == 0.0 or vy == 0.0:
        return 1.0 if np.array_equal(a.flat(), b.flat()) else 0.0
    r = float(a.centered @ b.centered) / math.sqrt(vx * vy)
    return min(1.0, max(-1.0, r))


def gram_matrix(templates: Sequence[TemplateFeature]) -> np.ndarray:
    n = len(templates)
    g = np.ones((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            g[i, j] = g[j, i] = pearson(templates[i], templates[j])
    return g


def checked_det(gram: np.ndarray) -> np.ndarray:
    """Determinant of a Gram matrix, or of each in a stack of them.

    Raises ValueError if any determinant is below PSD_FLOOR (or NaN).
    """
    det = np.linalg.det(gram)
    if not np.all(det >= PSD_FLOOR):
        raise ValueError(f"gram determinant {np.min(det)} below PSD rounding floor {PSD_FLOOR}")
    return det


def gram_det(templates: Sequence[TemplateFeature]) -> float:
    """Determinant of the pairwise-correlation matrix; the diversity measure.

    The value lies in [0, 1] up to rounding; see `checked_det`.
    """
    if not templates:
        raise ValueError("empty template set")
    return float(checked_det(gram_matrix(templates)))


@dataclass(frozen=True)
class AdmissionRecord:
    accepted: bool
    replaced_index: int | None
    det_before: float
    det_after: float


@dataclass
class MemoryLibrary:
    """ST (FIFO) + LT (diversity-curated) template stores.

    Both stores are filled to capacity with the initial template before any
    update. Set debug_stream to a writable file object to get one JSON line per
    operation.
    """

    st_capacity: int = 6
    lt_capacity: int = 16
    debug_stream: IO[str] | None = None
    st: deque = field(default_factory=deque)
    lt: list = field(default_factory=list)

    def __post_init__(self):
        if self.st_capacity < 1 or self.lt_capacity < 1:
            raise ValueError("capacities must be positive")

    def _log(self, frame: int | None, op: str, record: AdmissionRecord | None = None,
             routed: str | None = None) -> None:
        if self.debug_stream is None:
            return
        outcome = asdict(record) if record else dict.fromkeys(f.name for f in fields(AdmissionRecord))
        entry = {"frame": frame, "op": op, **outcome, "routed": routed}
        self.debug_stream.write(json.dumps(entry) + "\n")

    def init_memory(self, initial: TemplateFeature) -> None:
        """Fill both libraries to capacity with copies of the initial template."""
        if self.st or self.lt:
            raise ValueError("memory already initialized")
        self.st.extend(initial for _ in range(self.st_capacity))
        self.lt.extend(initial for _ in range(self.lt_capacity))
        self._log(initial.frame_index, "init")

    def lt_admit(self, z_rem: TemplateFeature) -> AdmissionRecord:
        """Try every single replacement; keep the best only if it strictly
        raises the Gram determinant, otherwise discard z_rem.

        Candidate j is the current Gram matrix with row and column j replaced
        by z_rem's correlations; all candidates are scored in one batched
        determinant, and the first strict maximum wins.
        """
        n = len(self.lt)
        if n != self.lt_capacity:
            raise ValueError("lt_admit requires a full long-term library")
        base = gram_matrix(self.lt)
        det_before = float(checked_det(base))
        row = np.array([pearson(z_rem, z) for z in self.lt])
        candidates = np.repeat(base[None], n, axis=0)
        j = np.arange(n)
        candidates[j, j, :] = row
        candidates[j, :, j] = row
        candidates[j, j, j] = 1.0
        dets = checked_det(candidates)
        best_j = int(np.argmax(dets))
        best_det = float(dets[best_j])
        if best_det > det_before:
            self.lt[best_j] = z_rem
            record = AdmissionRecord(True, best_j, det_before, best_det)
        else:
            record = AdmissionRecord(False, None, det_before, det_before)
        self._log(z_rem.frame_index, "lt_admit", record=record)
        return record

    def st_push(self, z_new: TemplateFeature) -> AdmissionRecord | None:
        """Enqueue into ST; an overflowing oldest member is offered to the LT."""
        self.st.append(z_new)
        record = None
        if len(self.st) > self.st_capacity:
            evicted = self.st.popleft()
            record = self.lt_admit(evicted)
        self._log(z_new.frame_index, "st_push", record=record)
        return record

    def route(self, incoming: TemplateFeature) -> str:
        """Return "ST" or "LT": the library holding the most similar member.

        Ties go to ST (more recent information).
        """
        if not self.st or not self.lt:
            raise ValueError("route requires non-empty libraries")
        best_st = max(pearson(incoming, z) for z in self.st)
        best_lt = max(pearson(incoming, z) for z in self.lt)
        routed = "ST" if best_st >= best_lt else "LT"
        self._log(incoming.frame_index, "route", routed=routed)
        return routed

    def st_members(self) -> list[TemplateFeature]:
        """ST contents in FIFO order (oldest first)."""
        return list(self.st)

    def lt_members(self) -> list[TemplateFeature]:
        """LT contents ordered by ascending frame index."""
        return sorted(self.lt, key=lambda z: z.frame_index)
