import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orliczkit as ok
from orliczkit import kfunc
from orliczkit.measure import cumulative_p_integral


def sample(values, weights=None):
    weights = [1.0] * len(values) if weights is None else weights
    return ok.SampleFunction(ok.DiscreteMeasureSpace(weights), values)


def indicator(measure=1.0):
    return ok.SampleFunction(ok.DiscreteMeasureSpace([measure]), [1.0])


class TestKLpLinf:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_indicator_gives_min_one_t(self, p):
        for t in (0.25, 1.0, 4.0):
            assert ok.k_lp_linf(t, indicator(), p).value == pytest.approx(min(1.0, t), abs=1e-10)

    def test_l1_truncation_example(self):
        x = sample([3, 1, 2])
        assert ok.k_lp_linf(1.5, x, 1).value == pytest.approx(4.0, abs=1e-10)

    def test_large_t_limit_is_p_norm(self):
        x = sample([1, -2, 0.5], [1, 0.5, 2])
        for p in (1, 1.5, 2):
            want = ok.lp_integral(x, p) ** (1.0 / p)
            assert ok.k_lp_linf(1e9, x, p).value == pytest.approx(want, rel=1e-9)

    def test_p1_equals_running_rearrangement_integral(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = sample(rng.uniform(-3, 3, 6), rng.uniform(0.2, 2.0, 6))
            step = ok.rearrangement(x)
            for t in rng.uniform(0.05, x.space.total_measure, 4):
                exact = float(cumulative_p_integral(step, 1.0, t)[0])
                assert ok.k_lp_linf(float(t), x, 1).value == pytest.approx(exact, abs=1e-10)

    def test_sign_invariance_is_exact(self):
        x = sample([1.5, -2.0, 0.3])
        ax = sample([1.5, 2.0, 0.3])
        ts = np.logspace(-2, 2, 9)
        assert np.array_equal(ok.k_lp_linf_grid(ts, x, 2), ok.k_lp_linf_grid(ts, ax, 2))
        assert np.array_equal(ok.l_functional_grid(ts, x, 1, 2),
                              ok.l_functional_grid(ts, ax, 1, 2))
        assert np.array_equal(ok.l_star_grid(ts, x, 1, 2), ok.l_star_grid(ts, ax, 1, 2))

    @given(st.lists(st.floats(min_value=-5, max_value=5, allow_nan=False), min_size=1, max_size=6),
           st.sampled_from([1.0, 1.5, 2.0]))
    @settings(max_examples=40, deadline=None)
    def test_nondecreasing_in_t(self, values, p):
        x = sample(values)
        ts = np.logspace(-3, 3, 25)
        vals = ok.k_lp_linf_grid(ts, x, p)
        assert np.all(np.diff(vals) >= -1e-10 * np.maximum(vals[:-1], 1e-30))

    def test_nondecreasing_in_absolute_value(self):
        rng = np.random.default_rng(38)
        ts = np.logspace(-2, 2, 15)
        for _ in range(10):
            y = sample(rng.uniform(-2, 2, 6))
            x = sample(y.values * rng.uniform(0, 1, 6))
            vx = ok.k_lp_linf_grid(ts, x, 1.5)
            vy = ok.k_lp_linf_grid(ts, y, 1.5)
            assert np.all(vx <= vy * (1 + 1e-10) + 1e-14)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            ok.k_lp_linf(0.0, indicator(), 1)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.7])
    def test_grid_equals_one_call_per_t_bitwise(self, p):
        # each t's golden section stops on its own, so other t's never move it
        rng = np.random.default_rng(41)
        for n in (1, 8, 64):
            x = sample(rng.normal(size=n) * np.exp(rng.normal(0, 3, n)), rng.uniform(0.1, 2, n))
            ts = np.logspace(-5, 5, 33)
            scalar = [ok.k_lp_linf(float(t), x, p).value for t in ts]
            assert ok.k_lp_linf_grid(ts, x, p).tolist() == scalar


class TestTruncationOracle:
    """The truncation reduction against a joint signed decomposition grid.

    The direct objective ||x0||_p + t * max|x - x0| couples atoms only
    through the sup, so a full product grid over x0 is an independent route
    to the same infimum.
    """

    @staticmethod
    def joint_grid_k(t, x, p, n=201):
        per_atom = [np.linspace(-2 * abs(c), 2 * abs(c), n) if c else np.zeros(1)
                    for c in x.values]
        w = x.space.weights
        best = np.inf
        for s0 in per_atom[0]:
            rests = per_atom[1]
            cost_p = (abs(s0) ** p * w[0] + np.abs(rests) ** p * w[1]) ** (1.0 / p)
            cost_inf = np.maximum(abs(x.values[0] - s0), np.abs(x.values[1] - rests))
            best = min(best, float(np.min(cost_p + t * cost_inf)))
        return best

    def test_matches_joint_grid_on_two_atoms(self):
        # the sharp direction is one-sided: if the truncation reduction ever
        # overestimated the infimum, the free grid would dip below it; the
        # two-sided agreement is only linear in the grid spacing because the
        # optimal decomposition aligns |x - x0| across atoms at the sup
        rng = np.random.default_rng(40)
        for _ in range(15):
            x = sample(rng.uniform(0.5, 2.0, 2) * rng.choice([-1, 1], 2),
                       rng.uniform(0.5, 2.0, 2))
            t = float(10 ** rng.uniform(-0.5, 0.5))
            for p in (1.0, 2.0):
                fast = ok.k_lp_linf(t, x, p).value
                oracle = self.joint_grid_k(t, x, p)
                assert oracle >= fast - 1e-9
                assert oracle == pytest.approx(fast, rel=2e-2)


class TestKreeBounds:
    def test_p1_collapse_to_equality(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            x = sample(rng.uniform(-2, 2, 5), rng.uniform(0.3, 2.0, 5))
            for t in (0.2, 1.0, 3.0):
                lower, upper = ok.kree_bounds(t, x, 1)
                assert lower == pytest.approx(upper)
                assert ok.k_lp_linf(t, x, 1).value == pytest.approx(lower, abs=1e-10)

    def test_indicator_p2(self):
        lower, upper = ok.kree_bounds(1.0, indicator(), 2)
        assert lower == pytest.approx(1.0)
        assert upper == pytest.approx(np.sqrt(2.0))
        k = ok.k_lp_linf(1.0, indicator(), 2).value
        assert lower - 1e-12 <= k <= upper + 1e-12

    def test_vanishes_as_t_to_zero(self):
        x = sample([2, 1])
        lower, upper = ok.kree_bounds(1e-12, x, 2)
        assert upper < 1e-5

    def test_sandwich_on_random_inputs(self):
        rng = np.random.default_rng(33)
        for p in (1.5, 2.0, 3.0):
            for _ in range(10):
                x = sample(rng.uniform(-3, 3, 7), rng.uniform(0.2, 1.5, 7))
                for t in np.logspace(-2, 2, 7):
                    lower, upper = ok.kree_bounds(float(t), x, p)
                    k = ok.k_lp_linf(float(t) ** (1.0 / p), x, p).value
                    assert lower * (1 - 1e-9) - 1e-12 <= k <= upper * (1 + 1e-9) + 1e-12


class TestLFunctional:
    def test_single_atom_balanced_split(self):
        assert ok.l_functional(1.0, indicator(), 1, 2).value == pytest.approx(0.75, abs=1e-10)

    def test_large_t_limit(self):
        # the optimal split sits (p c^{p-1} / (q t))^{1/(q-1)} inside the
        # boundary, so the limit is approached at the t^{-1/2} rate here
        x = sample([2, -1], [1, 3])
        value = ok.l_functional(1e12, x, 1.5, 3).value
        assert value <= ok.lp_integral(x, 1.5) + 1e-12
        assert value == pytest.approx(ok.lp_integral(x, 1.5), rel=1e-6)

    def test_small_t_limit(self):
        x = sample([2, -1], [1, 3])
        assert ok.l_functional(1e-14, x, 1.5, 3).value <= 1e-9

    def test_dominated_by_l_star(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            x = sample(rng.uniform(-3, 3, 5))
            t = float(10 ** rng.uniform(-3, 3))
            p, q = sorted(rng.uniform(1.0, 4.0, 2))
            if q - p < 0.1:
                continue
            assert (ok.l_functional(t, x, p, q).value
                    <= ok.l_star_functional(t, x, p, q) * (1 + 1e-12) + 1e-15)

    def test_nondecreasing_in_t_and_x(self):
        rng = np.random.default_rng(35)
        ts = np.logspace(-4, 4, 30)
        for _ in range(10):
            y = sample(rng.uniform(-2, 2, 5))
            x = sample(y.values * rng.uniform(0, 1, 5))
            vy = ok.l_functional_grid(ts, y, 1.5, 3)
            vx = ok.l_functional_grid(ts, x, 1.5, 3)
            assert np.all(np.diff(vy) >= -1e-10 * np.maximum(vy[:-1], 1e-30))
            assert np.all(vx <= vy * (1 + 1e-10) + 1e-15)


class TestPointwiseSplit:
    """The per-atom kernel against a dense grid over a in [0, c]."""

    ATOMS = np.array([0.0, 1e-8, 1.0, 1e8])
    TS = np.array([1e-6, 1.0, 1e6])

    @pytest.mark.parametrize("p,q", [(1, 2), (1, 1.05), (1.01, 5), (1.2, 1.3), (1.5, 3), (2, 4)])
    def test_never_above_dense_grid_minimum(self, p, q):
        # errstate "raise" shows that c = 0 atoms are masked, not computed through
        with np.errstate(all="raise"):
            got = kfunc._pointwise_min_split(self.ATOMS, self.TS, p, q)
        s = np.linspace(0.0, 1.0, 200_001)
        for j, c in enumerate(self.ATOMS):
            a = c * s
            with np.errstate(under="ignore"):
                dense = (a[None, :] ** p + self.TS[:, None] * (c - a)[None, :] ** q).min(axis=1)
            assert np.all(got[:, j] <= dense * (1 + 1e-12))
            assert np.all(got[:, j] >= 0.0)

    @pytest.mark.parametrize("q", [2, 1.05])
    def test_closed_form_at_p1(self, q):
        got = kfunc._pointwise_min_split(self.ATOMS, self.TS, 1, q)
        # interior optimum c - d with d = (tq)^{-1/(q-1)}: value c - d + t d^q = c - d (q-1)/q
        c, t = self.ATOMS[None, :], self.TS[:, None]
        d = (q * t) ** (-1.0 / (q - 1.0))
        want = np.where(d < c, c - d * (q - 1.0) / q, t * c**q)
        np.testing.assert_allclose(got, want, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("p,q", [(1, 2), (1.5, 3)])
    def test_zero_parameter_takes_no_log(self, p, q):
        with np.errstate(all="raise"):
            got = kfunc._pointwise_min_split(self.ATOMS, np.array([0.0, 1.0]), p, q)
        assert np.all(got[0] == 0.0) and np.all(got[1, 1:] > 0.0)


class TestLStar:
    def test_unit_indicator(self):
        for t in (0.3, 1.0, 2.0):
            assert ok.l_star_functional(t, indicator(), 1, 2) == pytest.approx(min(1.0, t))

    def test_switch_point(self):
        x = sample([2.0])
        # |x|^p = t |x|^q at t = |x|^{p-q} = 1/2
        assert ok.l_star_functional(0.25, x, 1, 2) == pytest.approx(1.0)
        assert ok.l_star_functional(0.5, x, 1, 2) == pytest.approx(2.0)
        assert ok.l_star_functional(5.0, x, 1, 2) == pytest.approx(2.0)

    def test_monotone_in_t_and_x(self):
        rng = np.random.default_rng(39)
        ts = np.logspace(-3, 3, 20)
        for _ in range(10):
            y = sample(rng.uniform(-2, 2, 5))
            x = sample(y.values * rng.uniform(0, 1, 5))
            vy = ok.l_star_grid(ts, y, 1.5, 3)
            assert np.all(np.diff(vy) >= 0.0)
            assert np.all(ok.l_star_grid(ts, x, 1.5, 3) <= vy + 1e-15)


class TestBruteForce:
    def test_zero_function(self):
        assert ok.brute_force_k(1.0, sample([0.0, 0.0]), 1, 2, 51) == 0.0

    def test_single_atom_matches_formula(self):
        assert ok.brute_force_k(1.0, indicator(), 1, 2, 201) == pytest.approx(0.75, rel=2e-3)

    def test_upper_bounds_exact_value(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            x = sample(rng.uniform(-2, 2, 2), rng.uniform(0.5, 2.0, 2))
            t = float(10 ** rng.uniform(-0.3, 0.7))
            exact = ok.l_functional(t, x, 1, 2).value
            grid = ok.brute_force_k(t, x, 1, 2, 101)
            assert grid >= exact - 1e-9

    def test_two_atom_agreement(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            x = sample(rng.uniform(0.5, 2.0, 2) * rng.choice([-1, 1], 2),
                       rng.uniform(0.5, 2.0, 2))
            t = float(10 ** rng.uniform(-0.3, 0.7))
            exact = ok.l_functional(t, x, 1.5, 3).value
            grid = ok.brute_force_k(t, x, 1.5, 3, 201)
            assert grid == pytest.approx(exact, rel=2e-3)

    def test_atom_budget(self):
        with pytest.raises(ValueError):
            ok.brute_force_k(1.0, sample([1, 1, 1, 1]), 1, 2, 51)

    def test_grid_budget(self):
        with pytest.raises(ValueError):
            ok.brute_force_k(1.0, indicator(), 1, 2, 999)


class TestBatch:
    """A `SampleBatch` call returns, row by row, exactly what one call per
    member returns."""

    TS = np.logspace(-6, 6, 33)

    @staticmethod
    def members():
        rng = np.random.default_rng(17)
        space = ok.DiscreteMeasureSpace(rng.uniform(0.1, 2.0, 8))
        spike = np.zeros(8)
        spike[3] = -2.5
        rows = [np.zeros(8), spike, rng.normal(size=8) * 1e-8, rng.normal(size=8) * 1e8]
        rows += [rng.normal(size=8) * np.exp(rng.normal(0, 2, 8)) for _ in range(4)]
        return [ok.SampleFunction(space, v) for v in rows]

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.7])
    def test_k_rows_equal_one_call_per_member_bitwise(self, p):
        # the 1e-8 and 1e8 rows need their own golden-section tolerances
        members = self.members()
        got = ok.k_lp_linf_grid(self.TS, ok.SampleBatch.stack(members), p)
        assert got.shape == (len(members), self.TS.size)
        for row, x in zip(got, members):
            assert row.tolist() == ok.k_lp_linf_grid(self.TS, x, p).tolist()
        assert np.all(got[0] == 0.0)

    @pytest.mark.parametrize("p,q", [(1, 2), (1.5, 3), (2, 4), (1.01, 5)])
    def test_l_and_l_star_rows_equal_one_call_per_member_bitwise(self, p, q):
        members = self.members()
        batch = ok.SampleBatch.stack(members)
        for kernel in (ok.l_functional_grid, ok.l_star_grid):
            got = kernel(self.TS, batch, p, q)
            assert got.shape == (len(members), self.TS.size)
            for row, x in zip(got, members):
                assert row.tolist() == kernel(self.TS, x, p, q).tolist()

    @pytest.mark.parametrize("p,q", [(1.5, 3), (2, 4), (1.01, 5)])
    def test_l_value_does_not_depend_on_what_shares_the_call(self, p, q):
        members = self.members()
        x = members[5]
        grid = ok.l_functional_grid(self.TS, x, p, q)
        batch = ok.l_functional_grid(self.TS, ok.SampleBatch.stack(members), p, q)[5]
        one_t = [ok.l_functional_grid(np.array([t]), x, p, q)[0] for t in self.TS]
        assert grid.tolist() == one_t == batch.tolist()

    def test_empty_batch_gives_no_rows(self):
        empty = ok.SampleBatch(ok.uniform_space(4), np.zeros((0, 4)))
        assert ok.k_lp_linf_grid(self.TS, empty, 2.0).shape == (0, self.TS.size)
        assert ok.l_functional_grid(self.TS, empty, 1.5, 3).shape == (0, self.TS.size)
        assert ok.l_star_grid(self.TS, empty, 1.5, 3).shape == (0, self.TS.size)

    def test_k_of_a_member_whose_p_norm_overflows_is_inf(self):
        batch = ok.SampleBatch(ok.uniform_space(2), [[1e200, 1e200], [1.0, 2.0]])
        got = ok.k_lp_linf_grid(self.TS, batch, 2.0)
        assert np.all(np.isinf(got[0]))
        assert got[1].tolist() == ok.k_lp_linf_grid(self.TS, sample([1.0, 2.0]), 2.0).tolist()
