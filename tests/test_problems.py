import math

import numpy as np
import pytest

from popformer import make_problem
from popformer.errors import ConfigError, UnsupportedFront
from popformer.problems import LsmopProblem, ShiftClusterProblem, ZdtProblem
from popformer.problems.lsmop import N_SUBCOMPONENTS, chaos_fractions, simplex_lattice
from popformer.problems.zdt import ZDT3_FRONT_INTERVALS, ZDT6_F1_MIN


def mutually_nondominated(points: np.ndarray) -> bool:
    le = np.all(points[:, None, :] <= points[None, :, :], axis=2)
    lt = np.any(points[:, None, :] < points[None, :, :], axis=2)
    dom = le & lt
    return not dom.any()


# ---------------------------------------------------------------------------
# ZDT


class TestZdtValues:
    def test_zdt1_origin(self):
        f = ZdtProblem(1, 30).objectives(np.zeros(30))
        assert np.allclose(f, [0.0, 1.0], atol=1e-15)

    def test_zdt1_first_axis(self):
        x = np.zeros(30)
        x[0] = 1.0
        f = ZdtProblem(1, 30).objectives(x)
        assert np.allclose(f, [1.0, 0.0], atol=1e-15)

    def test_zdt1_all_ones_matches_hand_computation(self):
        # g = 1 + 9*29/29 = 10, f2 = 10*(1 - sqrt(1/10))
        f = ZdtProblem(1, 30).objectives(np.ones(30))
        assert f[0] == 1.0
        assert f[1] == pytest.approx(10.0 * (1.0 - math.sqrt(0.1)), abs=1e-12)

    @pytest.mark.parametrize("variant", [1, 2, 3, 4, 6])
    def test_matches_scalar_reference(self, variant):
        # independent transcription of the published formulas, plain Python
        def reference(x):
            d = len(x)
            s = sum(x[1:])
            if variant in (1, 2, 3):
                g = 1 + 9 * s / (d - 1)
            elif variant == 4:
                g = 1 + 10 * (d - 1) + sum(v * v - 10 * math.cos(4 * math.pi * v) for v in x[1:])
            else:
                g = 1 + 9 * (s / (d - 1)) ** 0.25
            f1 = 1 - math.exp(-4 * x[0]) * math.sin(6 * math.pi * x[0]) ** 6 if variant == 6 else x[0]
            if variant in (1, 4):
                f2 = g * (1 - math.sqrt(f1 / g))
            elif variant in (2, 6):
                f2 = g * (1 - (f1 / g) ** 2)
            else:
                f2 = g * (1 - math.sqrt(f1 / g) - (f1 / g) * math.sin(10 * math.pi * f1))
            return np.array([f1, f2])

        prob = ZdtProblem(variant, 12)
        rng = np.random.default_rng(variant)
        for _ in range(25):
            x = rng.uniform(prob.spec.lower, prob.spec.upper)
            assert np.allclose(prob.objectives(x), reference(list(x)), rtol=1e-12)

    def test_bounds_per_variant(self):
        z1 = ZdtProblem(1, 5)
        assert np.all(z1.spec.lower == 0) and np.all(z1.spec.upper == 1)
        z4 = ZdtProblem(4, 5)
        assert z4.spec.lower[0] == 0 and z4.spec.upper[0] == 1
        assert np.all(z4.spec.lower[1:] == -5) and np.all(z4.spec.upper[1:] == 5)

    def test_purity_bitwise(self):
        prob = ZdtProblem(3, 10)
        x = np.random.default_rng(0).uniform(size=10)
        assert np.array_equal(prob.objectives(x), prob.objectives(x))

    def test_analytic_front_points_on_closed_form(self):
        # tail at the minimizer puts (f1, f2) on the closed-form front
        for variant, f2_of in ((1, lambda t: 1 - math.sqrt(t)), (2, lambda t: 1 - t * t)):
            prob = ZdtProblem(variant, 8)
            for t in np.linspace(0, 1, 11):
                x = np.zeros(8)
                x[0] = t
                f = prob.objectives(x)
                assert abs(f[1] - f2_of(f[0])) <= 1e-12
        prob6 = ZdtProblem(6, 8)
        for t in np.linspace(0, 1, 11):
            x = np.zeros(8)
            x[0] = t
            f = prob6.objectives(x)
            assert abs(f[1] - (1 - f[0] ** 2)) <= 1e-12


class TestZdtFronts:
    def test_zdt1_three_point_fixture(self):
        front = ZdtProblem(1, 30).reference_front(3)
        assert np.allclose(front, [[0.0, 1.0], [0.25, 0.5], [1.0, 0.0]], atol=1e-15)

    def test_single_point_front_valid(self):
        front = ZdtProblem(1, 30).reference_front(1)
        assert front.shape == (1, 2)

    @pytest.mark.parametrize("variant", [1, 2, 3, 4, 6])
    @pytest.mark.parametrize("n", [1, 2, 7, 200])
    def test_fronts_mutually_nondominated(self, variant, n):
        front = ZdtProblem(variant, 30).reference_front(n)
        assert front.shape == (n, 2)
        assert mutually_nondominated(front)

    def test_fronts_nondominated_at_thousand_points(self):
        for variant in (1, 2, 3, 4, 6):
            assert mutually_nondominated(ZdtProblem(variant, 30).reference_front(1000))

    def test_zdt3_intervals_match_record_region_oracle(self):
        # non-dominated region = where the envelope is below all earlier values
        t = np.linspace(0, 0.86, 2_000_001)
        h = 1 - np.sqrt(t) - t * np.sin(10 * np.pi * t)
        records = np.minimum.accumulate(h)
        is_record = h <= records + 1e-12
        edges = np.flatnonzero(np.diff(is_record.astype(int)))
        boundaries = t[edges]
        declared = sorted(b for iv in ZDT3_FRONT_INTERVALS for b in iv if b not in (0.0,))
        assert len(boundaries) == len(declared)
        assert np.allclose(boundaries, declared, atol=2e-4)

    def test_zdt6_f1_min_matches_grid_oracle(self):
        x = np.linspace(0, 1, 2_000_001)
        f1 = 1 - np.exp(-4 * x) * np.sin(6 * np.pi * x) ** 6
        assert abs(f1.min() - ZDT6_F1_MIN) <= 1e-9

    def test_zdt5_not_offered(self):
        with pytest.raises(ConfigError):
            make_problem("zdt5")


# ---------------------------------------------------------------------------
# LSMOP


def lsmop_reference(problem: LsmopProblem, x: np.ndarray) -> np.ndarray:
    """Slow, loop-based transcription of the suite construction."""
    d, m = problem.spec.d, problem.spec.m
    nk = N_SUBCOMPONENTS
    xs = np.array(x, dtype=float)
    for j in range(m - 1, d):
        i = j + 1
        factor = 1 + math.cos(0.5 * math.pi * i / d) if problem.nonlinear else 1 + i / d
        xs[j] = factor * xs[j] - 10.0 * x[0]
    g = []
    offset = m - 1
    for gi in range(m):
        eta = problem.eta_odd if gi % 2 == 0 else problem.eta_even
        width = int(problem.sublen[gi])
        total = 0.0
        for j in range(nk):
            chunk = xs[offset:offset + width]
            total += eta(chunk)
            offset += width
        g.append(total / (width * nk))
    g = np.array(g)
    xf = np.array(x[:m - 1])
    if problem.shape == "linear":
        f = np.empty(m)
        for i in range(m):
            val = 1.0
            for j in range(m - 1 - i):
                val *= xf[j]
            if i > 0:
                val *= 1 - xf[m - 1 - i]
            f[i] = (1 + g[i]) * val
        return f
    if problem.shape == "concave":
        f = np.empty(m)
        for i in range(m):
            val = 1.0
            for j in range(m - 1 - i):
                val *= math.cos(0.5 * math.pi * xf[j])
            if i > 0:
                val *= math.sin(0.5 * math.pi * xf[m - 1 - i])
            g_next = g[i + 1] if i + 1 < m else 0.0
            f[i] = (1 + g[i] + g_next) * val
        return f
    g_total = 1 + g.sum()
    f = np.empty(m)
    f[:m - 1] = xf
    f[m - 1] = (1 + g_total) * (
        m - sum(v / (1 + g_total) * (1 + math.sin(3 * math.pi * v)) for v in xf)
    )
    return f


class TestLsmop:
    def test_determinism_bitwise(self):
        prob = LsmopProblem(7, d=60, m=2)
        x = np.random.default_rng(0).uniform(prob.spec.lower, prob.spec.upper)
        assert np.array_equal(prob.objectives(x), prob.objectives(x))

    def test_output_shapes(self):
        assert LsmopProblem(1, d=60, m=2).objectives(
            np.zeros(60)).shape == (2,)
        prob10 = LsmopProblem(8, d=250, m=10)
        x = np.random.default_rng(1).uniform(prob10.spec.lower, prob10.spec.upper)
        assert prob10.objectives(x).shape == (10,)

    @pytest.mark.parametrize("variant", range(1, 10))
    @pytest.mark.parametrize("m", [2, 3])
    def test_matches_loop_reference(self, variant, m):
        prob = LsmopProblem(variant, d=40 if m == 2 else 60, m=m)
        rng = np.random.default_rng(variant * 10 + m)
        for _ in range(10):
            x = rng.uniform(prob.spec.lower, prob.spec.upper)
            assert np.allclose(prob.objectives(x), lsmop_reference(prob, x), rtol=1e-12)

    def test_group_sizes_follow_chaos_rule(self):
        # logistic-map fractions, floor((d-m+1)/nk * fraction)
        prob = LsmopProblem(1, d=100, m=3)
        frac = chaos_fractions(3)
        want = np.floor(frac * (100 - 3 + 1) / N_SUBCOMPONENTS).astype(int)
        assert np.array_equal(prob.sublen, want)
        assert prob.sublen.sum() * N_SUBCOMPONENTS <= 100 - 3 + 1

    def test_chaos_sequence_values(self):
        c0 = 3.8 * 0.1 * 0.9
        c1 = 3.8 * c0 * (1 - c0)
        frac = chaos_fractions(2)
        assert frac[0] == pytest.approx(c0 / (c0 + c1))
        assert frac[1] == pytest.approx(c1 / (c0 + c1))

    def test_too_small_d_rejected(self):
        with pytest.raises(ConfigError):
            LsmopProblem(1, d=12, m=2)

    @pytest.mark.parametrize("variant", [1, 5, 9])
    def test_front_nondominated_against_random_sampling(self, variant):
        prob = LsmopProblem(variant, d=40, m=2)
        front = prob.reference_front(50)
        rng = np.random.default_rng(0)
        xs = rng.uniform(prob.spec.lower, prob.spec.upper, size=(10_000, prob.spec.d))
        objs = np.array([prob.objectives(x) for x in xs])
        # no sampled point may dominate any front point
        le = np.all(objs[:, None, :] <= front[None, :, :], axis=2)
        lt = np.any(objs[:, None, :] < front[None, :, :], axis=2)
        assert not (le & lt).any()

    @pytest.mark.parametrize("variant,m,n", [(1, 3, 91), (5, 3, 200), (9, 2, 100),
                                             (9, 3, 64), (4, 10, 120)])
    def test_fronts_sized_and_nondominated(self, variant, m, n):
        prob = LsmopProblem(variant, d=300, m=m)
        front = prob.reference_front(n)
        assert front.shape == (n, m)
        assert mutually_nondominated(front)

    def test_lsmop9_intervals_match_scalar_record_oracle(self):
        # record maximizers of psi(t) = t*(1+sin(3 pi t)) on [0, 1]
        t = np.linspace(0, 1, 2_000_001)
        psi = t * (1 + np.sin(3 * np.pi * t))
        records = np.maximum.accumulate(psi)
        is_record = psi >= records - 1e-12
        edges = t[np.flatnonzero(np.diff(is_record.astype(int)))]
        from popformer.problems.lsmop import LSMOP9_FRONT_INTERVALS
        declared = [LSMOP9_FRONT_INTERVALS[0][1], LSMOP9_FRONT_INTERVALS[1][0],
                    LSMOP9_FRONT_INTERVALS[1][1]]
        assert np.allclose(edges, declared, atol=2e-4)

    def test_scales_to_5000_variables(self):
        prob = LsmopProblem(7, d=5000, m=2)
        x = np.random.default_rng(0).uniform(prob.spec.lower, prob.spec.upper)
        f = prob.objectives(x)
        assert f.shape == (2,) and np.isfinite(f).all()

    def test_simplex_lattice_exact_size_and_sum(self):
        for n, m in ((10, 2), (91, 3), (57, 5)):
            pts = simplex_lattice(n, m)
            assert pts.shape == (n, m)
            assert np.allclose(pts.sum(axis=1), 1.0)


# ---------------------------------------------------------------------------
# synthetic shift family


class TestShiftFamily:
    def test_target_is_shifted_input(self):
        prob = ShiftClusterProblem(d=5, m=2, shift=0.1)
        rng = np.random.default_rng(0)
        pop = prob.cluster_population(6, rng)
        target = prob.target_population(pop)
        assert np.allclose(target.x, np.clip(pop.x + 0.1, 0, 1))

    def test_cluster_stays_near_base_and_in_box(self):
        prob = ShiftClusterProblem(d=4, shift=0.05, spread=0.02)
        rng = np.random.default_rng(1)
        base = prob.random_base(rng)
        pop = prob.cluster_population(8, rng, base=base)
        xs = pop.x
        assert np.all(np.abs(xs - base) <= 0.02 + 1e-12)
        target = prob.target_population(pop).x
        assert np.all(target >= 0) and np.all(target <= 1)
        # interior base: the shift is applied exactly, no clamping
        assert np.allclose(target, xs + 0.05)

    def test_objectives_deterministic_and_shaped(self):
        prob = ShiftClusterProblem(d=4, m=3)
        x = np.full(4, 0.25)
        f = prob.objectives(x)
        assert f.shape == (3,)
        assert np.array_equal(f, prob.objectives(x))

    def test_registry_names(self):
        assert make_problem("zdt2").spec.name == "zdt2"
        assert make_problem("lsmop7", d=250, m=10).spec.name == "lsmop7"
        assert make_problem("shift", d=6).spec.d == 6

    def test_unsupported_front_error(self):
        with pytest.raises(UnsupportedFront):
            make_problem("shift").reference_front(10)
