"""Quality metrics and statistical comparison: inverted generational distance
and the two-sided Wilcoxon rank-sum test."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, IgdUndefined

EXACT_ENUMERATION_LIMIT = 12  # pooled size at or below which the exact null is counted


@dataclass(frozen=True)
class IgdResult:
    value: float
    reference_size: int
    solution_size: int


def igd(reference: np.ndarray, solutions: np.ndarray) -> IgdResult:
    """Mean Euclidean distance from each reference point to its nearest solution.

    Lower is better; zero means every reference point coincides with some
    obtained point. An empty solution set maps to the "no feasible solutions"
    convention and raises :class:`IgdUndefined`; a non-finite point raises
    :class:`ContractViolation`.
    """
    reference = np.asarray(reference, dtype=float)
    solutions = np.asarray(solutions, dtype=float)
    if reference.ndim != 2 or reference.shape[0] == 0:
        raise ContractViolation("reference front must be a non-empty 2-d array")
    if solutions.size == 0:
        raise IgdUndefined("IGD undefined: no solutions obtained")
    if solutions.ndim != 2 or solutions.shape[1] != reference.shape[1]:
        raise ContractViolation(
            f"objective counts disagree: reference {reference.shape} vs solutions {solutions.shape}"
        )
    for name, points in (("reference", reference), ("solutions", solutions)):
        if not (finite := np.isfinite(points).all(axis=1)).all():
            raise ContractViolation(f"{name} row {int(finite.argmin())} is not finite")
    # by objectives, so the largest temporary is (R, N); up to m = 7 numpy sums an
    # (R, N, m) block in this order and sqrt is monotone, so that form agrees bitwise
    sq = np.zeros((len(reference), len(solutions)))
    for j in range(reference.shape[1]):
        diff = reference[:, j, None] - solutions[:, j]
        sq += np.multiply(diff, diff, out=diff)
    return IgdResult(
        value=float(np.sqrt(sq.min(axis=1)).mean()),
        reference_size=reference.shape[0],
        solution_size=solutions.shape[0],
    )


@dataclass(frozen=True)
class RankSumResult:
    statistic: float       # rank sum of sample a (midranks for ties)
    p_value: float
    decision: str          # "better" | "worse" | "indifferent", minimization sense
    method: str            # "exact" | "normal"


def _midranks(pooled: np.ndarray) -> np.ndarray:
    order = np.argsort(pooled, kind="stable")
    ranks = np.empty(len(pooled))
    i = 0
    while i < len(pooled):
        j = i
        while j + 1 < len(pooled) and pooled[order[j + 1]] == pooled[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def _normal_sf(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def wilcoxon_rank_sum(a, b, alpha: float = 0.05) -> RankSumResult:
    """Two-sided rank-sum test with midrank tie handling.

    The exact null distribution is counted for pooled sizes up to 12;
    larger samples use the normal approximation with tie and continuity
    corrections. ``decision`` takes the minimization view: "better" means
    sample a is significantly smaller than sample b.
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if len(a) < 3 or len(b) < 3:
        raise ContractViolation("each sample needs at least 3 observations")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ContractViolation("samples must be finite")
    na, nb = len(a), len(b)
    n = na + nb
    pooled = np.concatenate([a, b])
    ranks = _midranks(pooled)
    w = float(ranks[:na].sum())
    mu = na * (n + 1) / 2.0

    if np.all(pooled == pooled[0]):
        return RankSumResult(statistic=w, p_value=1.0, decision="indifferent", method="exact")

    if n <= EXACT_ENUMERATION_LIMIT:
        # doubled midranks are integers even with ties, so every size-na
        # subset is counted by its doubled rank sum; c[k, s] holds the counts
        # of size-k subsets of the members seen so far
        doubled = (2.0 * ranks).astype(int)
        c = np.zeros((na + 1, int(doubled.sum()) + 1), dtype=np.int64)
        c[0, 0] = 1
        for r in doubled:
            c[1:, r:] += c[:-1, :c.shape[1] - r]  # overlap is buffered: old counts are read
        sums, w2 = c[na], round(2.0 * w)
        less, equal, greater = int(sums[:w2].sum()), int(sums[w2]), int(sums[w2 + 1:].sum())
        total = less + equal + greater
        p_low = (less + equal) / total
        p_high = (greater + equal) / total
        p = min(1.0, 2.0 * min(p_low, p_high))
        method = "exact"
    else:
        _, counts = np.unique(pooled, return_counts=True)
        tie_term = float(np.sum(counts ** 3 - counts)) / (n * (n - 1))
        var = na * nb / 12.0 * ((n + 1) - tie_term)
        if var <= 0:
            return RankSumResult(statistic=w, p_value=1.0,
                                 decision="indifferent", method="normal")
        shift = 0.5 * np.sign(w - mu)
        z = (w - mu - shift) / math.sqrt(var)
        p = min(1.0, 2.0 * _normal_sf(abs(z)))
        method = "normal"

    if p < alpha:
        decision = "better" if w < mu else "worse"
    else:
        decision = "indifferent"
    return RankSumResult(statistic=w, p_value=p, decision=decision, method=method)
