"""Output checks, each against a computation made apart from the code under test.

Every function returns a list of problem strings; an empty list means the
output passed.  None of them is timed: the workloads call them between ops.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, Tuple

import numpy as np

from repro.kdtree.brute import brute_ball_query
from repro.kdtree.dynamic_reference import scratch_dynamic_query


# Query rows per brute-force block: keeps the ``(rows, N)`` distance block
# of a check small, so checks never set the workload process's peak memory.
CHUNK = 64

# Central differences: the step, and the tolerance ``ATOL + RTOL * |g|``.
EPS = 1e-7
RTOL = 1e-4
ATOL = 1e-6


def _d2(queries: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Squared distances summed coordinate by coordinate, the same
    ``(dx² + dy²) + dz²`` order as a sum over the last axis."""
    return sum((queries[..., d] - points[..., d]) ** 2 for d in range(3))


def hit_counts(points: np.ndarray, queries: np.ndarray, radius: float) -> np.ndarray:
    """Brute-force number of points within ``radius`` of each query."""
    points = np.asarray(points, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    r2 = radius * radius
    return np.concatenate([
        (_d2(queries[lo : lo + CHUNK, None, :], points[None, :, :]) <= r2).sum(axis=1)
        for lo in range(0, len(queries), CHUNK)
    ])


def brute_counts(points, queries, radius, max_neighbors) -> np.ndarray:
    """``min(hits, K)`` per query from :func:`repro.kdtree.brute.brute_ball_query`,
    run on blocks of query rows (rows are independent)."""
    return np.concatenate([
        brute_ball_query(points, queries[lo : lo + CHUNK], radius, max_neighbors)[1]
        for lo in range(0, len(queries), CHUNK)
    ])


def ball_rows_problems(
    points: np.ndarray,
    queries: np.ndarray,
    radius: float,
    indices: np.ndarray,
    counts: np.ndarray,
    expected: np.ndarray,
    exact: bool,
    label: str = "",
) -> List[str]:
    """Check one ``(indices, counts)`` ball-query answer against brute force.

    ``expected`` is the brute-force ``min(hits, K)`` per row.  Every
    reported neighbor must lie within ``radius`` of its query, and no row
    may report a point twice.  An exact search must report exactly
    ``expected`` neighbors — which, with the two conditions before, makes
    a row with at most ``K`` hits equal to the brute-force hit set.  An
    approximate search may only miss neighbors: no row may report more
    than ``expected``.
    """
    points = np.asarray(points, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    indices = np.asarray(indices)
    counts = np.asarray(counts)
    m = len(queries)
    if indices.ndim != 2 or len(indices) != m or counts.shape != (m,):
        return [f"{label}: result shapes {indices.shape} / {counts.shape}"]
    k = indices.shape[1]
    problems: List[str] = []
    reported = np.arange(k)[None, :] < counts[:, None]
    in_range = (indices >= 0) & (indices < len(points))
    d2 = _d2(queries[:, None, :], points[np.clip(indices, 0, len(points) - 1)])
    outside = reported & ~(in_range & (d2 <= radius * radius))
    rows = np.nonzero(outside.any(axis=1))[0]
    if len(rows):
        problems.append(f"{label}: rows {rows[:5].tolist()} report points outside the radius")
    # Unreported slots get distinct negative fillers, so only a repeated
    # reported index can make two sorted neighbors equal.
    filled = np.sort(np.where(reported, indices, -1 - np.arange(k)[None, :]), axis=1)
    rows = np.nonzero((filled[:, 1:] == filled[:, :-1]).any(axis=1))[0]
    if len(rows):
        problems.append(f"{label}: rows {rows[:5].tolist()} report a point twice")
    wrong = np.nonzero(counts != expected if exact else counts > expected)[0]
    if len(wrong):
        what = "counts differ from" if exact else "more hits than"
        problems.append(f"{label}: rows {wrong[:5].tolist()} report {what} brute force")
    return problems


def frame_problems(
    coords: np.ndarray,
    alive: np.ndarray,
    requests: Sequence[Tuple[np.ndarray, float, int]],
    results: Sequence[Tuple[np.ndarray, np.ndarray]],
    label: str = "",
) -> List[str]:
    """A dynamic frame's answers must be bit-identical to a scratch rebuild."""
    problems: List[str] = []
    for j, ((queries, radius, k), (indices, counts)) in enumerate(zip(requests, results)):
        m = len(queries)
        ref_indices, ref_counts = scratch_dynamic_query(
            coords, alive, queries, np.full(m, radius), np.full(m, k, dtype=np.int64)
        )
        if not (np.array_equal(indices, ref_indices) and np.array_equal(counts, ref_counts)):
            problems.append(f"{label}: request {j} differs from the scratch rebuild")
    return problems


def gradient_problems(
    loss_at: Callable[[], float],
    entries: Sequence[Tuple[np.ndarray, tuple, float]],
    wanted: int = 3,
    label: str = "",
) -> List[str]:
    """Compare analytic gradient entries with central differences.

    ``entries`` holds candidate ``(parameter array, index, analytic
    gradient)`` triples; each array is perturbed in place by ``±EPS``
    around ``index`` and restored exactly, and ``loss_at()`` recomputes
    the scalar loss.  Central differences mean nothing across a kink, and
    ReLUs and max-pools put kinks everywhere: with a kink within ``EPS``
    the one-sided slopes differ by (a share of) its jump, and the central
    difference sits half that gap from either slope.  So an entry whose
    one-sided slopes differ by more than twice the tolerance is skipped —
    no kink small enough to pass this can push the central difference past
    the tolerance.  On a smooth loss the slopes differ by ``EPS`` times the
    curvature, ~1e-7 here, well inside it.  The first ``wanted`` smooth
    entries are compared; finding fewer is itself a problem.
    """
    problems: List[str] = []
    compared = 0
    for data, index, analytic in entries:
        original = data[index]
        at = loss_at()
        data[index] = original + EPS
        up = loss_at()
        data[index] = original - EPS
        down = loss_at()
        data[index] = original
        right, left = (up - at) / EPS, (at - down) / EPS
        numeric = (right + left) / 2
        if abs(right - left) > 2 * (ATOL + RTOL * abs(numeric)):
            continue
        compared += 1
        if abs(numeric - analytic) > ATOL + RTOL * max(abs(numeric), abs(analytic)):
            problems.append(
                f"{label}: gradient at {index} is {analytic:.6g}, central difference {numeric:.6g}"
            )
        if compared == wanted:
            break
    if compared < wanted:
        problems.append(f"{label}: only {compared} of {len(entries)} entries had a smooth loss")
    return problems
