import json
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orliczkit as ok
from orliczkit import kfunc, verify

from oracles import (brute_force_k, cumulative_p_integral, every_kink_pair, k_lp_linf_floor,
                     k_lp_linf_golden, kink_bracket_per_t, kree_bounds, lp_integral,
                     pointwise_min_split_newton, rearrangement, split_step_expressions)


def sample(values, weights=None):
    weights = [1.0] * len(values) if weights is None else weights
    return ok.SampleFunction(ok.DiscreteMeasureSpace(weights), values)


def indicator(measure=1.0):
    return ok.SampleFunction(ok.DiscreteMeasureSpace([measure]), [1.0])


class TestKLpLinf:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_indicator_gives_min_one_t(self, p):
        for t in (0.25, 1.0, 4.0):
            assert ok.k_lp_linf_grid(t, indicator(), p)[0, 0] == pytest.approx(min(1.0, t), abs=1e-10)

    def test_l1_truncation_example(self):
        x = sample([3, 1, 2])
        assert ok.k_lp_linf_grid(1.5, x, 1)[0, 0] == pytest.approx(4.0, abs=1e-10)

    def test_large_t_limit_is_p_norm(self):
        x = sample([1, -2, 0.5], [1, 0.5, 2])
        for p in (1, 1.5, 2):
            want = lp_integral(x, p) ** (1.0 / p)
            assert ok.k_lp_linf_grid(1e9, x, p)[0, 0] == pytest.approx(want, rel=1e-9)

    def test_p1_equals_running_rearrangement_integral(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = sample(rng.uniform(-3, 3, 6), rng.uniform(0.2, 2.0, 6))
            step = rearrangement(x)
            for t in rng.uniform(0.05, x.space.weights.sum(), 4):
                exact = float(cumulative_p_integral(step, 1.0, t)[0])
                assert ok.k_lp_linf_grid(float(t), x, 1)[0, 0] == pytest.approx(exact, abs=1e-10)

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
        vals = ok.k_lp_linf_grid(ts, x, p)[0]
        assert np.all(np.diff(vals) >= -1e-10 * np.maximum(vals[:-1], 1e-30))

    def test_nondecreasing_in_absolute_value(self):
        rng = np.random.default_rng(38)
        ts = np.logspace(-2, 2, 15)
        for _ in range(10):
            y = sample(rng.uniform(-2, 2, 6))
            x = sample(y.values[0] * rng.uniform(0, 1, 6))
            vx = ok.k_lp_linf_grid(ts, x, 1.5)
            vy = ok.k_lp_linf_grid(ts, y, 1.5)
            assert np.all(vx <= vy * (1 + 1e-10) + 1e-14)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.7])
    def test_grid_equals_one_call_per_t_bitwise(self, p):
        # each (member, t) row's kink bracket and interval solve are its own,
        # so other t's never move it
        rng = np.random.default_rng(41)
        for n in (1, 8, 64):
            x = sample(rng.normal(size=n) * np.exp(rng.normal(0, 3, n)), rng.uniform(0.1, 2, n))
            ts = np.logspace(-5, 5, 33)
            scalar = [ok.k_lp_linf_grid(float(t), x, p)[0, 0] for t in ts]
            assert ok.k_lp_linf_grid(ts, x, p)[0].tolist() == scalar


class TestTParameter:
    """Each kernel takes t >= 0 and finite; K, L and L* are 0 at t = 0."""

    KERNELS = [(ok.k_lp_linf_grid, (1.5,)), (ok.k_lp_linf_grid, (2.0,)),
               (ok.l_functional_grid, (1.5, 3)), (ok.l_functional_grid, (1, 2)),
               (ok.l_star_grid, (1.5, 3))]
    X = ok.SampleBatch(ok.uniform_space(3), [[0.5, -2.0, 1.25], [1.0, 1.0, 1.0], [0.0, 0.0, 0.0]])

    @pytest.mark.parametrize("t", [-1.0, -1e-300, np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kernel,args", KERNELS)
    def test_a_negative_or_non_finite_t_is_rejected(self, kernel, args, t):
        with pytest.raises(ValueError, match="finite and >= 0"):
            kernel([1.0, t], self.X, *args)

    @pytest.mark.parametrize("kernel,args", KERNELS)
    def test_zero_t_gives_zero(self, kernel, args):
        with np.errstate(all="raise"):
            got = kernel([0.0, 1.0], self.X, *args)
        assert np.all(got[:, 0] == 0.0) and np.all(got[:2, 1] > 0.0)


class TestTruncationOracle:
    """The truncation reduction against a joint signed decomposition grid.

    The direct objective ||x0||_p + t * max|x - x0| couples atoms only
    through the sup, so a full product grid over x0 is an independent route
    to the same infimum.
    """

    @staticmethod
    def joint_grid_k(t, x, p, n=201):
        c, w = x.values[0], x.space.weights
        per_atom = [np.linspace(-2 * abs(ci), 2 * abs(ci), n) if ci else np.zeros(1) for ci in c]
        best = np.inf
        for s0 in per_atom[0]:
            rests = per_atom[1]
            cost_p = (abs(s0) ** p * w[0] + np.abs(rests) ** p * w[1]) ** (1.0 / p)
            cost_inf = np.maximum(abs(c[0] - s0), np.abs(c[1] - rests))
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
                fast = ok.k_lp_linf_grid(t, x, p)[0, 0]
                oracle = self.joint_grid_k(t, x, p)
                assert oracle >= fast - 1e-9
                assert oracle == pytest.approx(fast, rel=2e-2)


@st.composite
def k_cases(draw):
    """One member for the exact K: n in {1, 8, 512}; random magnitudes over
    several decades, or with ties, zeros or a single atom; uniform or
    non-uniform weights; p in {1, 1.01, 1.5, 2, 3, 7}."""
    n = draw(st.sampled_from([1, 8, 512]))
    shape = draw(st.sampled_from(["spread", "ties", "zeros", "atom"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=n) * np.exp(rng.normal(0.0, 2.0, n))
    if shape == "ties":
        values = np.round(values)            # whole numbers: ties and zeros
    elif shape == "zeros":
        values[rng.random(n) < 0.5] = 0.0
    elif shape == "atom":
        values = np.zeros(n)
        values[rng.integers(n)] = rng.normal()
    if not np.any(values):
        values[0] = 1.0
    weights = rng.uniform(0.05, 5.0, n) if draw(st.booleans()) else np.ones(n)
    p = draw(st.sampled_from([1.0, 1.01, 1.5, 2.0, 3.0, 7.0]))
    return sample(values, weights), p


class TestExactK:
    """The exact kernel against the golden-section search it replaced."""

    TS = np.logspace(-12, 12, 49)

    @given(k_cases())
    @settings(max_examples=80, deadline=None)
    def test_within_1e15_of_the_golden_section_oracle(self, case):
        x, p = case
        got, want = ok.k_lp_linf_grid(self.TS, x, p)[0], k_lp_linf_golden(self.TS, x, p)[0]
        floor = k_lp_linf_floor(self.TS, x, p)
        assert np.all(want > 0.0)
        # never above the search it replaced, never below the infimum
        assert np.all(got <= want * (1.0 + 1e-15))
        assert np.all(got >= floor * (1.0 - 1e-15))
        # within 1e-15 of the search, except where the search stopped above
        # the infimum (near a kink at p = 1.01 its 1e-12 bracket has cost up
        # to 5e-15): there the exact value is within 1e-15 of the floor
        below = got < want * (1.0 - 1e-15)
        assert np.all(got[below] <= floor[below] * (1.0 + 1e-15))

    @pytest.mark.parametrize("p", [1.01, 1.1, 1.5, 1.9, 3.0, 7.0])
    def test_general_p_solve_stops_before_its_step_bound(self, passes, p):
        rng = np.random.default_rng(43)
        for n in (2, 8, 64, 512):
            for shape in range(6):
                values = rng.normal(size=(4, n)) * np.exp(rng.normal(0.0, 2.0, (4, n)))
                values = np.round(values) if shape % 2 else values
                batch = ok.SampleBatch(ok.DiscreteMeasureSpace(rng.uniform(0.1, 3.0, n)), values)
                ok.k_lp_linf_grid(self.TS, batch, p)
        newton = passes["k_newton"]
        assert sum(calls for count, calls in newton.items() if count > 1) >= 5
        # far below the MAX_PASSES at which the solve raises
        assert max(newton) < 40

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
    def test_homogeneous_at_extreme_scales(self, p, scale):
        rng = np.random.default_rng(44)
        for n in (1, 8, 64):
            x = ok.SampleBatch(ok.DiscreteMeasureSpace(rng.uniform(0.1, 2.0, n)),
                               rng.normal(size=(4, n)) * np.exp(rng.normal(0.0, 2.0, (4, n))))
            got = ok.k_lp_linf_grid(self.TS, x.scaled(scale), p)
            np.testing.assert_allclose(got / scale, ok.k_lp_linf_grid(self.TS, x, p),
                                       rtol=1e-15, atol=0.0)


class TestKreeBounds:
    def test_p1_collapse_to_equality(self):
        rng = np.random.default_rng(32)
        for _ in range(15):
            x = sample(rng.uniform(-2, 2, 5), rng.uniform(0.3, 2.0, 5))
            for t in (0.2, 1.0, 3.0):
                lower, upper = kree_bounds(t, x, 1)
                assert lower == pytest.approx(upper)
                assert ok.k_lp_linf_grid(t, x, 1)[0, 0] == pytest.approx(lower, abs=1e-10)

    def test_indicator_p2(self):
        lower, upper = kree_bounds(1.0, indicator(), 2)
        assert lower == pytest.approx(1.0)
        assert upper == pytest.approx(np.sqrt(2.0))
        k = ok.k_lp_linf_grid(1.0, indicator(), 2)[0, 0]
        assert lower - 1e-12 <= k <= upper + 1e-12

    def test_vanishes_as_t_to_zero(self):
        x = sample([2, 1])
        lower, upper = kree_bounds(1e-12, x, 2)
        assert upper < 1e-5

    def test_sandwich_on_random_inputs(self):
        rng = np.random.default_rng(33)
        for p in (1.5, 2.0, 3.0):
            for _ in range(10):
                x = sample(rng.uniform(-3, 3, 7), rng.uniform(0.2, 1.5, 7))
                for t in np.logspace(-2, 2, 7):
                    lower, upper = kree_bounds(float(t), x, p)
                    k = ok.k_lp_linf_grid(float(t) ** (1.0 / p), x, p)[0, 0]
                    assert lower * (1 - 1e-9) - 1e-12 <= k <= upper * (1 + 1e-9) + 1e-12


class TestLFunctional:
    def test_single_atom_balanced_split(self):
        assert ok.l_functional_grid(1.0, indicator(), 1, 2)[0, 0] == pytest.approx(0.75, abs=1e-10)

    def test_large_t_limit(self):
        # the optimal split sits (p c^{p-1} / (q t))^{1/(q-1)} inside the
        # boundary, so the limit is approached at the t^{-1/2} rate here
        x = sample([2, -1], [1, 3])
        value = ok.l_functional_grid(1e12, x, 1.5, 3)[0, 0]
        assert value <= lp_integral(x, 1.5) + 1e-12
        assert value == pytest.approx(lp_integral(x, 1.5), rel=1e-6)

    def test_small_t_limit(self):
        x = sample([2, -1], [1, 3])
        assert ok.l_functional_grid(1e-14, x, 1.5, 3)[0, 0] <= 1e-9

    def test_dominated_by_l_star(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            x = sample(rng.uniform(-3, 3, 5))
            t = float(10 ** rng.uniform(-3, 3))
            p, q = sorted(rng.uniform(1.0, 4.0, 2))
            if q - p < 0.1:
                continue
            assert (ok.l_functional_grid(t, x, p, q)[0, 0]
                    <= ok.l_star_grid(t, x, p, q)[0, 0] * (1 + 1e-12) + 1e-15)

    def test_nondecreasing_in_t_and_x(self):
        rng = np.random.default_rng(35)
        ts = np.logspace(-4, 4, 30)
        for _ in range(10):
            y = sample(rng.uniform(-2, 2, 5))
            x = sample(y.values[0] * rng.uniform(0, 1, 5))
            vy = ok.l_functional_grid(ts, y, 1.5, 3)[0]
            vx = ok.l_functional_grid(ts, x, 1.5, 3)[0]
            assert np.all(np.diff(vy) >= -1e-10 * np.maximum(vy[:-1], 1e-30))
            assert np.all(vx <= vy * (1 + 1e-10) + 1e-15)

    def test_an_overflowing_candidate_loses_without_a_warning(self):
        # c^q = 1e600 overflows at the 1e200 atom, but its split is about 1e300
        x = sample([1e-200, 1e200], [0.5, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ok.l_functional_grid([1e-3, 1.0, 1e3], x, 1.5, 3)
        np.testing.assert_allclose(got, 5e299, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("values,weights,p,q", [
        ([1e-200, 1e200], [0.5, 0.5], 2, 4),          # the 1e200 atom's split is about 1e400
        ([2.8e205, 2.8e205], [1.0, 1.0], 1.5, 3),     # two finite splits of 1.5e308 each
    ])
    def test_an_l_beyond_the_float_range_stays_infinite_and_is_rejected(self, values, weights, p, q):
        x = sample(values, weights)
        ts = np.array([1e-3, 1.0, 1e3])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = ok.l_functional_grid(ts, x, p, q)
        assert np.all(got == np.inf)
        with pytest.raises(verify.ScenarioRejected, match="not finite"):
            verify._Collector().check(got, got, "l", x.values, ts)


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


def split_rtol(q: float) -> float:
    """How far the Halley split may lie from the Newton split it replaced,
    relative: 0.48 q(q-1) 1e-18 from where the Halley solve stops (see
    `kfunc._pointwise_min_split`), plus the rounding of two evaluations of
    a^p + t (c-a)^q, each within 2(q+1) units of 2^-53 (a and c - a within
    2 units each, raised to p or q, then the product and the sum)."""
    return 4.0 * (q + 1.0) * 2.0**-53 + 0.48 * q * (q - 1.0) * 1e-18


class TestSplitAgainstNewton:
    """The Halley L split against the Newton split it replaced
    (`oracles.pointwise_min_split_newton`)."""

    COUPLES = [(1.5, 3), (2, 4), (1.2, 1.3), (1.01, 5), (1.2, 20)]
    ATOMS = np.concatenate(([0.0], 10.0 ** np.linspace(-150, 150, 601)))
    TS = 10.0 ** np.linspace(-12, 12, 97)
    # the most passes any element takes on the grids below
    CEILING = {(1.5, 3): 3, (2, 4): 2, (1.2, 1.3): 2, (1.01, 5): 5, (1.2, 20): 4}

    @staticmethod
    def central():
        """Members of lognormal magnitudes on the scale the scenarios draw."""
        return np.exp(np.random.default_rng(23).normal(0.0, 2.0, (40, 100))), np.logspace(-4, 4, 41)

    @pytest.mark.parametrize("p,q", COUPLES)
    def test_within_the_stated_bound_of_the_newton_split(self, p, q):
        for c, ts in ((self.ATOMS, self.TS), self.central()):
            got = kfunc._pointwise_min_split(c, ts, p, q)
            with np.errstate(over="ignore"):   # the Newton split warns where c^q overflows
                want = pointwise_min_split_newton(c, ts, p, q)
            assert np.array_equal(got == np.inf, want == np.inf)
            assert np.array_equal(got == 0.0, want == 0.0)
            finite = np.isfinite(want)
            np.testing.assert_allclose(got[finite], want[finite], rtol=split_rtol(q), atol=0.0)

    @pytest.mark.parametrize("p,q", COUPLES)
    def test_l_within_the_stated_bound_of_the_newton_split(self, monkeypatch, p, q):
        # each L is a weighted sum of n = 8 splits, rounded once per addition
        batch = ok.SampleBatch(*TestBatch.rows())
        got = ok.l_functional_grid(TestBatch.TS, batch, p, q)
        monkeypatch.setattr(kfunc, "_pointwise_min_split", pointwise_min_split_newton)
        want = ok.l_functional_grid(TestBatch.TS, batch, p, q)
        np.testing.assert_allclose(got, want, rtol=split_rtol(q) + 14 * 2.0**-53, atol=0.0)

    @pytest.mark.parametrize("p,q", COUPLES)
    def test_pass_count_ceiling(self, monkeypatch, passes, p, q):
        sizes = []
        step = kfunc._split_step

        def counting(u, *args):
            sizes.append(u.size)
            return step(u, *args)

        monkeypatch.setattr(kfunc, "_split_step", counting)
        for c, ts in ((self.ATOMS, self.TS), self.central()):
            sizes.clear()
            passes.clear()
            kfunc._pointwise_min_split(c, ts, p, q)
            # the first pass runs on every element
            assert sizes[0] == c.size * ts.size
            (count,) = passes["l_split"]
            assert count == len(sizes) <= self.CEILING[(p, q)]

    @pytest.mark.parametrize("name", ["sparr_lemma_15_3.json", "sparr_lemma_2_4.json"])
    def test_shipped_couples_take_at_most_three_passes(self, passes, name):
        path = Path(verify.__file__).parent / "scenarios" / name
        assert verify.run_scenario(json.loads(path.read_text()))["status"] == "pass"
        assert passes["l_split"] and 1 <= min(passes["l_split"]) <= max(passes["l_split"]) <= 3


class TestBracketAgainstPerT:
    """The bracket that computes each distinct (member, kink) descent rate
    once per pass against the one that computed it once per (member, t)
    (`oracles.kink_bracket_per_t`): bitwise equal."""

    TS = np.logspace(-12, 12, 49)

    @staticmethod
    def members(n: int) -> ok.SampleBatch:
        """A zero member, a constant one, repeated magnitudes, several atoms
        at the sup, and spread ones."""
        rng = np.random.default_rng(n)
        top = np.abs(rng.normal(size=n))
        top[: max(1, n // 3)] = top.max()
        rows = [np.zeros(n), np.full(n, -2.0), np.round(2.0 * rng.normal(size=n)), top]
        rows += [rng.normal(size=n) * np.exp(rng.normal(0.0, 2.0, n)) for _ in range(4)]
        return ok.SampleBatch(ok.DiscreteMeasureSpace(rng.uniform(0.1, 3.0, n)), np.array(rows))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 512])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.7])
    def test_bitwise_equal_to_the_per_t_bracket(self, monkeypatch, n, p):
        batch, calls = self.members(n), []
        bracket = kfunc._kink_bracket

        def both(*args):
            got = bracket(*args)
            assert got.tolist() == kink_bracket_per_t(*args).tolist()
            calls.append(args[5])
            return got

        monkeypatch.setattr(kfunc, "_kink_bracket", both)
        got = ok.k_lp_linf_grid(self.TS, batch, p)
        monkeypatch.setattr(kfunc, "_kink_bracket", kink_bracket_per_t)
        assert got.tolist() == ok.k_lp_linf_grid(self.TS, batch, p).tolist()
        # every member but the zero one reaches the bracket, once per t: in one
        # call up to n = 8, in two blocks of whole members at n = 512
        assert len(calls) == (2 if n == 512 else 1)
        assert np.sort(np.concatenate(calls)).tolist() == np.repeat(self.TS, len(batch) - 1).tolist()


class TestSumsPerKinkPair:
    """K takes the sums over the atoms above each row's interval once per
    distinct (member, kink) and reads them back to every t of the pair:
    bitwise what one sum per (member, t) row gives (`oracles.every_kink_pair`)."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 512])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.7])
    def test_bitwise_equal_to_one_sum_per_row(self, monkeypatch, n, p):
        batch, ts = TestBracketAgainstPerT.members(n), TestBracketAgainstPerT.TS
        got = ok.k_lp_linf_grid(ts, batch, p)
        monkeypatch.setattr(kfunc, "_distinct_kinks", every_kink_pair)
        assert got.tolist() == ok.k_lp_linf_grid(ts, batch, p).tolist()


class TestSplitStepInPlace:
    """The Halley step overwrites its arrays in place: bitwise the step and
    predicted size of the expression form (`oracles.split_step_expressions`)."""

    @pytest.mark.parametrize("p,q", TestSplitAgainstNewton.COUPLES + [(1.01, 64)])
    def test_bitwise_equal_to_the_expression_form(self, p, q):
        rng = np.random.default_rng(47)
        u = np.concatenate((np.linspace(-800.0, 800.0, 4001), rng.normal(0.0, 30.0, 4000), [0.0]))
        k = np.concatenate((rng.normal(0.0, 50.0, u.size - 1), [0.0]))
        with np.errstate(over="ignore", under="ignore"):
            got, want = kfunc._split_step(u, k, p, q), split_step_expressions(u, k, p, q)
        for g, w in zip(got, want):
            assert g.view(np.int64).tolist() == w.view(np.int64).tolist()


class TestLStar:
    def test_unit_indicator(self):
        for t in (0.3, 1.0, 2.0):
            assert ok.l_star_grid(t, indicator(), 1, 2)[0, 0] == pytest.approx(min(1.0, t))

    def test_switch_point(self):
        x = sample([2.0])
        # |x|^p = t |x|^q at t = |x|^{p-q} = 1/2
        assert ok.l_star_grid(0.25, x, 1, 2)[0, 0] == pytest.approx(1.0)
        assert ok.l_star_grid(0.5, x, 1, 2)[0, 0] == pytest.approx(2.0)
        assert ok.l_star_grid(5.0, x, 1, 2)[0, 0] == pytest.approx(2.0)

    def test_monotone_in_t_and_x(self):
        rng = np.random.default_rng(39)
        ts = np.logspace(-3, 3, 20)
        for _ in range(10):
            y = sample(rng.uniform(-2, 2, 5))
            x = sample(y.values[0] * rng.uniform(0, 1, 5))
            vy = ok.l_star_grid(ts, y, 1.5, 3)[0]
            assert np.all(np.diff(vy) >= 0.0)
            assert np.all(ok.l_star_grid(ts, x, 1.5, 3)[0] <= vy + 1e-15)


class TestBruteForce:
    def test_zero_function(self):
        assert brute_force_k(1.0, sample([0.0, 0.0]), 1, 2, 51) == 0.0

    def test_single_atom_matches_formula(self):
        assert brute_force_k(1.0, indicator(), 1, 2, 201) == pytest.approx(0.75, rel=2e-3)

    def test_upper_bounds_exact_value(self):
        rng = np.random.default_rng(36)
        for _ in range(25):
            x = sample(rng.uniform(-2, 2, 2), rng.uniform(0.5, 2.0, 2))
            t = float(10 ** rng.uniform(-0.3, 0.7))
            exact = ok.l_functional_grid(t, x, 1, 2)[0, 0]
            grid = brute_force_k(t, x, 1, 2, 101)
            assert grid >= exact - 1e-9

    def test_two_atom_agreement(self):
        rng = np.random.default_rng(37)
        for _ in range(10):
            x = sample(rng.uniform(0.5, 2.0, 2) * rng.choice([-1, 1], 2),
                       rng.uniform(0.5, 2.0, 2))
            t = float(10 ** rng.uniform(-0.3, 0.7))
            exact = ok.l_functional_grid(t, x, 1.5, 3)[0, 0]
            grid = brute_force_k(t, x, 1.5, 3, 201)
            assert grid == pytest.approx(exact, rel=2e-3)

    def test_atom_budget(self):
        with pytest.raises(ValueError):
            brute_force_k(1.0, sample([1, 1, 1, 1]), 1, 2, 51)

    def test_grid_budget(self):
        with pytest.raises(ValueError):
            brute_force_k(1.0, indicator(), 1, 2, 999)


class TestBatch:
    """A `SampleBatch` call returns, row by row, exactly what one call per
    member returns."""

    TS = np.logspace(-6, 6, 33)

    @pytest.fixture
    def budget(self):
        """The kernels' block budget in elements, here their own."""
        return None

    @staticmethod
    def rows():
        """A space and one row of values per member."""
        rng = np.random.default_rng(17)
        space = ok.DiscreteMeasureSpace(rng.uniform(0.1, 2.0, 8))
        spike = np.zeros(8)
        spike[3] = -2.5
        rows = [np.zeros(8), spike, rng.normal(size=8) * 1e-8, rng.normal(size=8) * 1e8]
        rows += [rng.normal(size=8) * np.exp(rng.normal(0, 2, 8)) for _ in range(4)]
        return space, np.array(rows)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.7])
    def test_k_rows_equal_one_call_per_member_bitwise(self, p):
        # the 1e-8 and 1e8 rows are scaled to sup 1 on their own
        space, rows = self.rows()
        got = ok.k_lp_linf_grid(self.TS, ok.SampleBatch(space, rows), p)
        assert got.shape == (len(rows), self.TS.size)
        for row, v in zip(got, rows):
            assert row.tolist() == ok.k_lp_linf_grid(self.TS, ok.SampleFunction(space, v), p)[0].tolist()
        assert np.all(got[0] == 0.0)

    @pytest.mark.parametrize("p,q", [(1, 2), (1.5, 3), (2, 4), (1.01, 5)])
    def test_l_and_l_star_rows_equal_one_call_per_member_bitwise(self, p, q):
        space, rows = self.rows()
        batch = ok.SampleBatch(space, rows)
        for kernel in (ok.l_functional_grid, ok.l_star_grid):
            got = kernel(self.TS, batch, p, q)
            assert got.shape == (len(rows), self.TS.size)
            for row, v in zip(got, rows):
                assert row.tolist() == kernel(self.TS, ok.SampleFunction(space, v), p, q)[0].tolist()

    @pytest.mark.parametrize("p,q", [(1.5, 3), (2, 4), (1.01, 5)])
    def test_l_value_does_not_depend_on_what_shares_the_call(self, p, q):
        space, rows = self.rows()
        x = ok.SampleFunction(space, rows[5])
        grid = ok.l_functional_grid(self.TS, x, p, q)[0]
        batch = ok.l_functional_grid(self.TS, ok.SampleBatch(space, rows), p, q)[5]
        one_t = [ok.l_functional_grid(np.array([t]), x, p, q)[0, 0] for t in self.TS]
        assert grid.tolist() == one_t == batch.tolist()

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 512])
    def test_rows_equal_one_call_per_member_at_any_size(self, n):
        batch = TestBracketAgainstPerT.members(n)
        for kernel, args in ((ok.k_lp_linf_grid, (1.5,)), (ok.k_lp_linf_grid, (2.0,)),
                             (ok.l_functional_grid, (1.5, 3)), (ok.l_functional_grid, (2, 4))):
            got = kernel(self.TS, batch, *args)
            for row, v in zip(got, batch.values):
                one = kernel(self.TS, ok.SampleFunction(batch.space, v), *args)
                assert row.tolist() == one[0].tolist()

    def test_empty_batch_gives_no_rows(self):
        empty = ok.SampleBatch(ok.uniform_space(4), np.zeros((0, 4)))
        assert ok.k_lp_linf_grid(self.TS, empty, 2.0).shape == (0, self.TS.size)
        assert ok.l_functional_grid(self.TS, empty, 1.5, 3).shape == (0, self.TS.size)
        assert ok.l_star_grid(self.TS, empty, 1.5, 3).shape == (0, self.TS.size)

    def test_blocks_equal_one_block_bitwise(self, budget, monkeypatch):
        space, rows = self.rows()
        batch = ok.SampleBatch(space, rows)
        calls = [(ok.k_lp_linf_grid, (p,)) for p in (1.0, 1.5, 2.0, 3.7)]
        calls += [(kernel, couple) for kernel in (ok.l_functional_grid, ok.l_star_grid)
                  for couple in ((1, 2), (1.5, 3), (2, 4), (1.01, 5))]
        got = [kernel(self.TS, batch, *args) for kernel, args in calls]
        for name in ("_K_ELEMS", "_L_RUN_ELEMS", "_L_SPLIT_ELEMS"):
            monkeypatch.setattr(kfunc, name, rows.size * self.TS.size)
        want = [kernel(self.TS, batch, *args) for kernel, args in calls]
        assert [g.tolist() for g in got] == [w.tolist() for w in want]

    def test_blocks_cut_as_the_budget_says(self, budget):
        # 8 members of 33 t's: one block, three runs of whole members, or
        # three runs of 11 t's per member
        want = {None: [(slice(0, 8), slice(None))],
                3 * 33 * 8: [(slice(lo, hi), slice(None)) for lo, hi in ((0, 2), (2, 5), (5, 8))],
                100: [(slice(i, i + 1), slice(lo, lo + 11)) for i in range(8) for lo in (0, 11, 22)]}
        for runs, split in ((kfunc._K_ELEMS, kfunc._K_ELEMS),
                            (kfunc._L_RUN_ELEMS, kfunc._L_SPLIT_ELEMS)):
            assert kfunc._grid_blocks(8, self.TS.size, 8, runs, split) == want[budget]

    def test_k_of_a_member_whose_p_power_sum_overflows_is_finite(self):
        # ||x||_2^2 = 2e400 overflows, but K itself is about 1.4e200
        batch = ok.SampleBatch(ok.uniform_space(2), [[1e200, 1e200], [1.0, 1.0]])
        got = ok.k_lp_linf_grid(self.TS, batch, 2.0)
        assert np.all(np.isfinite(got[0]))
        np.testing.assert_allclose(got[0], 1e200 * got[1], rtol=1e-15, atol=0.0)


class TestBatchInBlocks(TestBatch):
    """Every `TestBatch` case again, with the K and L budgets cut so that the
    n = 8 batch of 33 t's runs in blocks of three members (3 x 33 x 8
    elements), or of 11 t's inside each member's t-grid (100 elements)."""

    @pytest.fixture(autouse=True, params=[3 * 33 * 8, 100], ids=["three members", "inside a t-grid"])
    def budget(self, request, monkeypatch):
        monkeypatch.setattr(kfunc, "_K_ELEMS", request.param)
        monkeypatch.setattr(kfunc, "_L_RUN_ELEMS", request.param)
        if request.param < 33 * 8:   # below one member's t-grid
            monkeypatch.setattr(kfunc, "_L_SPLIT_ELEMS", request.param)
        return request.param


class TestLogistic:
    """The L kernel's own logistic function against SciPy's `expit`, which it
    called before."""

    def test_within_four_units_in_the_last_place_of_scipy(self):
        # NumPy's exp and the C library's exp SciPy calls may differ by one
        # unit, and 1 + exp(-x) and the division each round once more
        from scipy.special import expit

        x = np.linspace(-800.0, 800.0, 400_001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kfunc._expit(x)
        want = expit(x)
        # both are nonnegative, so their bit patterns order as the values do
        assert np.max(np.abs(got.view(np.int64) - want.view(np.int64))) <= 4
        assert got[0] == 0.0 and got[-1] == 1.0

    @pytest.mark.parametrize("p,q", [(1.5, 3), (2, 4), (1.01, 5), (1.2, 1.3)])
    def test_l_values_within_1e15_of_the_scipy_kernel(self, monkeypatch, p, q):
        from scipy.special import expit

        batch = ok.SampleBatch(*TestBatch.rows())
        atoms, ts = TestPointwiseSplit.ATOMS, TestPointwiseSplit.TS
        got = (ok.l_functional_grid(TestBatch.TS, batch, p, q),
               kfunc._pointwise_min_split(atoms, ts, p, q))
        monkeypatch.setattr(kfunc, "_expit", expit)
        want = (ok.l_functional_grid(TestBatch.TS, batch, p, q),
                kfunc._pointwise_min_split(atoms, ts, p, q))
        for g, w in zip(got, want):
            np.testing.assert_allclose(g, w, rtol=1e-15, atol=0.0)
