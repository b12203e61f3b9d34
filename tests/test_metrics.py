import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from popformer import igd, wilcoxon_rank_sum
from popformer.errors import ContractViolation, IgdUndefined
from popformer.metrics import EXACT_ENUMERATION_LIMIT


def broadcast_igd(reference, solutions):
    """IGD from one (R, N, m) block of differences: the reference formula
    the column-wise ``igd`` must equal bitwise for m <= 7."""
    diffs = reference[:, None, :] - solutions[None, :, :]
    return float(np.sqrt(np.sum(diffs * diffs, axis=2)).min(axis=1).mean())


@st.composite
def igd_inputs(draw):
    """Reference and solution sets of m = 1-5 objectives, R up to 5,000 and N
    up to 60, at scales 1e-5 to 1e5; a coarse grid gives tied coordinates,
    and copied rows give duplicated points within and across the sets."""
    m = draw(st.integers(1, 5), label="m")
    r = draw(st.sampled_from([1, 2, 7, 100, 5000]), label="R")
    n = draw(st.integers(1, 60), label="N")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    scale = 10.0 ** draw(st.integers(-5, 5), label="log10 scale")
    ref, sol = (rng.normal(size=(k, m)) * scale for k in (r, n))
    if draw(st.booleans(), label="tied"):
        ref, sol = np.round(ref / scale * 2) * scale, np.round(sol / scale * 2) * scale
    copies = draw(st.integers(0, min(r, n) - 1), label="copies")
    sol[:copies] = ref[rng.integers(0, r, size=copies)]
    if copies and n > copies:
        sol[-1] = sol[0]
    return ref, sol


class TestIgd:
    @settings(max_examples=150, deadline=None)
    @given(igd_inputs())
    def test_equals_broadcast_formula_bitwise(self, sets):
        ref, sol = sets
        assert igd(ref, sol).value == broadcast_igd(ref, sol)
        assert igd(sol, ref).value == broadcast_igd(sol, ref)

    def test_many_objectives_equal_to_rounding(self):
        # from m = 8 numpy sums the objective axis pairwise, so the broadcast
        # form may group the squares differently and differ in the last bit
        rng = np.random.default_rng(3)
        for m in (8, 9, 10):
            ref, sol = rng.random((200, m)), rng.random((30, m))
            assert igd(ref, sol).value == pytest.approx(broadcast_igd(ref, sol), rel=1e-14)

    @pytest.mark.parametrize("which", ["reference", "solutions"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_names_its_set_and_row(self, which, bad):
        sets = {"reference": np.zeros((4, 2)), "solutions": np.ones((3, 2))}
        sets[which][1, 0] = sets[which][2, 1] = bad
        with pytest.raises(ContractViolation, match=f"{which} row 1 is not finite"):
            igd(sets["reference"], sets["solutions"])

    def test_coincident_sets_zero(self):
        pts = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert igd(pts, pts).value == 0.0

    def test_two_unit_distances(self):
        ref = np.array([[0.0, 1.0], [1.0, 0.0]])
        sol = np.array([[1.0, 1.0]])
        assert igd(ref, sol).value == pytest.approx(1.0, abs=1e-15)

    def test_three_four_five(self):
        assert igd(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]])).value == \
            pytest.approx(5.0, abs=1e-15)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            ref = rng.normal(size=(rng.integers(1, 12), 3))
            sol = rng.normal(size=(rng.integers(1, 9), 3))
            want = np.mean([min(np.linalg.norm(r - s) for s in sol) for r in ref])
            assert igd(ref, sol).value == pytest.approx(want, rel=1e-12)

    def test_translation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            ref = rng.normal(size=(8, 2))
            sol = rng.normal(size=(5, 2))
            shift = rng.normal(size=2)
            a = igd(ref, sol).value
            b = igd(ref + shift, sol + shift).value
            assert abs(a - b) <= 1e-12

    def test_monotone_under_solution_growth(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            ref = rng.normal(size=(10, 2))
            sol = rng.normal(size=(4, 2))
            extra = rng.normal(size=(3, 2))
            assert igd(ref, np.vstack([sol, extra])).value <= igd(ref, sol).value + 1e-15

    def test_empty_solutions_error(self):
        with pytest.raises(IgdUndefined):
            igd(np.array([[0.0, 1.0]]), np.empty((0, 2)))

    def test_mismatched_objectives_error(self):
        with pytest.raises(ContractViolation):
            igd(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_result_metadata(self):
        res = igd(np.zeros((4, 2)), np.ones((3, 2)))
        assert res.reference_size == 4 and res.solution_size == 3


def reference_exact_p(a, b):
    """Two-sided exact p-value from enumerating every size-len(a) subset of
    the pooled midranks."""
    pooled = np.concatenate([a, b])
    na, n = len(a), len(pooled)
    ranks = np.array([np.sum(pooled < v) + (np.sum(pooled == v) + 1) / 2 for v in pooled])
    w = ranks[:na].sum()
    less = equal = greater = 0
    for combo in itertools.combinations(range(n), na):
        s = ranks[list(combo)].sum()
        if s < w - 1e-9:
            less += 1
        elif s > w + 1e-9:
            greater += 1
        else:
            equal += 1
    total = less + equal + greater
    return min(1.0, 2.0 * min((less + equal) / total, (greater + equal) / total))


class TestRankSum:
    def test_counting_matches_enumeration_bitwise(self):
        rng = np.random.default_rng(7)
        for na in range(3, EXACT_ENUMERATION_LIMIT - 2):
            for nb in range(3, EXACT_ENUMERATION_LIMIT - na + 1):
                for levels in (3, 6, 1000):  # many ties, some, almost none
                    a = rng.integers(0, levels, size=na).astype(float)
                    b = rng.integers(0, levels, size=nb).astype(float)
                    if np.all(np.concatenate([a, b]) == a[0]):
                        continue
                    res = wilcoxon_rank_sum(a, b)
                    assert res.method == "exact"
                    assert res.p_value == reference_exact_p(a, b)

    def test_enumeration_fixture(self):
        res = wilcoxon_rank_sum([1, 2, 3], [4, 5, 6])
        assert res.statistic == 6.0
        assert res.p_value == pytest.approx(0.1, abs=1e-15)
        assert res.decision == "indifferent"
        assert res.method == "exact"

    def test_identical_samples_indifferent_p_one(self):
        res = wilcoxon_rank_sum([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert res.p_value == 1.0
        assert res.decision == "indifferent"

    def test_all_equal_degenerate(self):
        res = wilcoxon_rank_sum([5.0] * 4, [5.0] * 4)
        assert res.p_value == 1.0 and res.decision == "indifferent"

    def test_extreme_separation_better(self):
        rng = np.random.default_rng(3)
        a = rng.normal(0.0, 0.1, size=20)
        b = rng.normal(100.0, 0.1, size=20)
        res = wilcoxon_rank_sum(a, b)
        assert res.p_value < 1e-3
        assert res.decision == "better"
        assert wilcoxon_rank_sum(b, a).decision == "worse"

    def test_exact_vs_normal_agreement_at_boundary(self):
        # every achievable statistic for sizes (6,6) and (6,7), no ties
        for na, nb in ((6, 6), (6, 7)):
            n = na + nb
            values = np.arange(1.0, n + 1.0)
            worst = 0.0
            for combo in itertools.combinations(range(n), na):
                a = values[list(combo)]
                b = np.delete(values, list(combo))
                exact = wilcoxon_rank_sum(a, b)
                assert exact.method == ("exact" if n <= EXACT_ENUMERATION_LIMIT else "normal")
                # independent normal approximation with continuity correction
                w = a.sum()
                mu = na * (n + 1) / 2.0
                sigma = math.sqrt(na * nb * (n + 1) / 12.0)
                z = (w - mu - 0.5 * np.sign(w - mu)) / sigma
                p_norm = min(1.0, math.erfc(abs(z) / math.sqrt(2.0)))
                worst = max(worst, abs(exact.p_value - p_norm))
            if n <= EXACT_ENUMERATION_LIMIT:
                assert worst <= 0.02
        assert EXACT_ENUMERATION_LIMIT == 12

    def test_normal_path_is_used_beyond_limit(self):
        rng = np.random.default_rng(4)
        res = wilcoxon_rank_sum(rng.normal(size=7), rng.normal(size=7))
        assert res.method == "normal"

    def test_matches_scipy_exact_no_ties(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(5)
        for _ in range(25):
            a = rng.normal(size=int(rng.integers(3, 7)))
            b = rng.normal(size=int(rng.integers(3, 7)))
            ours = wilcoxon_rank_sum(a, b)
            ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided", method="exact")
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_matches_scipy_asymptotic_with_ties(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.default_rng(6)
        for _ in range(25):
            a = rng.integers(0, 6, size=15).astype(float)
            b = rng.integers(0, 6, size=18).astype(float)
            if np.all(np.concatenate([a, b]) == a[0]):
                continue
            ours = wilcoxon_rank_sum(a, b)
            ref = scipy_stats.mannwhitneyu(a, b, alternative="two-sided",
                                           method="asymptotic", use_continuity=True)
            assert ours.p_value == pytest.approx(ref.pvalue, abs=1e-9)

    def test_small_samples_rejected(self):
        with pytest.raises(ContractViolation):
            wilcoxon_rank_sum([1, 2], [3, 4, 5])
