import dataclasses
import math
import re
from collections import Counter

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import orlicz
from orliczkit.orlicz import LOG_U_RANGE, ExponentCouple, _luxemburg_bracket

from conftest import cached_generator_phi, rho_values
from oracles import (_validate_shape, amemiya_golden, generator_phi_pchip, generator_rho_checks,
                     generator_rows, luxemburg_bisect, lp_integral, modular_of_step,
                     power_log_rho_full, rearrangement, second_difference_convexity,
                     solve_log_inverse_stacked, sup_norm)


def sample(values, weights=None):
    weights = [1.0] * len(values) if weights is None else weights
    return ok.SampleFunction(ok.DiscreteMeasureSpace(weights), values)


class TestExponentCouple:
    def test_orders_enforced(self):
        with pytest.raises(ValueError):
            ExponentCouple(2, 2)
        with pytest.raises(ValueError):
            ExponentCouple(0.5, 2)
        assert ExponentCouple(1, np.inf).q_is_inf


class TestModular:
    def test_square_example(self):
        assert ok.modular(ok.power_phi(2), sample([1, 2]))[0] == pytest.approx(5.0)

    def test_zero_function(self):
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        assert ok.modular(phi, sample([0, 0]))[0] == 0.0

    def test_equals_step_integral(self):
        x = sample([3, 1, 2], [1, 2, 0.5])
        step = rearrangement(x)
        for phi in (ok.power_phi(2),
                    cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0)),
                    cached_generator_phi(1.5, 4, "powerlog", (0.3, 1, -1))):
            assert ok.modular(phi, x)[0] == pytest.approx(modular_of_step(phi, step), rel=1e-12)

    def test_sum_beyond_the_float_range_is_inf_without_warning(self):
        # phi(1) = 1e308 on two atoms of weight 1: the sum warned of the overflow
        phi = ok.build_from_h(ExponentCouple(1, 2), ok.PiecewiseLinearConcave([1.0], [1e308], 1.0, 1.0))
        assert ok.modular(phi, sample([1.0, -1.0, 0.0]))[0] == np.inf
        assert ok.modular(phi, sample([1.0, 0.0]))[0] == 1e308

    def test_domain_overflow(self):
        phi = cached_generator_phi(2, np.inf, "min_one")
        with pytest.raises(ok.DomainOverflowError):
            ok.modular(phi, sample([1.5]))


class TestLuxemburgNorm:
    def test_power_case_is_weighted_p_norm(self):
        x = sample([3, -1, 2], [1, 0.5, 2])
        for p in (1, 1.5, 2, 3):
            expected = lp_integral(x, p) ** (1.0 / p)
            assert ok.luxemburg_norm(ok.power_phi(p), x)[0] == pytest.approx(expected, rel=1e-10)

    def test_zero_function(self):
        assert ok.luxemburg_norm(ok.power_phi(2), sample([0, 0]))[0] == 0.0

    def test_absolute_homogeneity(self):
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = sample(rng.uniform(-3, 3, 6))
            n1 = ok.luxemburg_norm(phi, x)[0]
            n2 = ok.luxemburg_norm(phi, x.scaled(2.0))[0]
            assert n2 == pytest.approx(2.0 * n1, rel=1e-9)

    def test_saturating_build_norm_oracle(self):
        # the saturating build caps arguments at 1, so the unit-modular
        # condition couples the weighted 2-norm with the sup:
        # ||x|| = max(weighted 2-norm, sup|x|)
        phi = cached_generator_phi(2, np.inf, "min_one")
        rng = np.random.default_rng(28)
        for _ in range(10):
            w = rng.uniform(0.2, 2.0, 5)
            x = ok.SampleFunction(ok.DiscreteMeasureSpace(w), rng.uniform(-1, 1, 5))
            expected = max(lp_integral(x, 2) ** 0.5, sup_norm(x))
            assert ok.luxemburg_norm(phi, x)[0] == pytest.approx(expected, rel=1e-9)

    def test_modular_at_norm_at_most_one(self):
        phi = cached_generator_phi(1.5, 4, "powerlog", (0.3, 1, -1))
        rng = np.random.default_rng(22)
        for _ in range(20):
            x = sample(rng.uniform(-2, 2, 5))
            norm = ok.luxemburg_norm(phi, x)[0]
            if norm > 0:
                assert ok.modular(phi, x.scaled(1.0 / norm))[0] <= 1.0 + 1e-8

    def test_monotone_in_absolute_value(self):
        phi = cached_generator_phi(2, 3, "powerlog", (0.5, 0, 0))
        rng = np.random.default_rng(23)
        for _ in range(20):
            y = sample(rng.uniform(-2, 2, 6))
            x = sample(y.values[0] * rng.uniform(0.0, 1.0, 6))
            assert ok.luxemburg_norm(phi, x)[0] <= ok.luxemburg_norm(phi, y)[0] * (1 + 1e-9)

    def test_mixed_power_closed_form(self):
        # for u^2 + u the unit-modular condition a/l^2 + b/l = 1 solves to
        # l = 2a / (sqrt(b^2 + 4a) - b) with a, b the weighted square/abs sums
        h = ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0)
        phi = ok.build_from_h(ExponentCouple(1, 2), h)
        rng = np.random.default_rng(26)
        for _ in range(15):
            x = sample(rng.uniform(-3, 3, 5), rng.uniform(0.3, 2.0, 5))
            a = lp_integral(x, 2)
            b = lp_integral(x, 1)
            if a == 0.0:
                continue
            closed = 2.0 * a / (np.sqrt(b * b + 4.0 * a) - b)
            assert ok.luxemburg_norm(phi, x)[0] == pytest.approx(closed, rel=1e-9)


class TestAmemiyaNorm:
    def test_single_atom_square(self):
        value = ok.amemiya_norm(ok.power_phi(2), sample([1.0]))[0]
        assert value == pytest.approx(2.0, abs=1e-8)

    def test_single_atom_square_grid_oracle(self):
        ks = np.logspace(-4, 4, 20001)
        oracle = np.min((1.0 + ks**2) / ks)
        assert ok.amemiya_norm(ok.power_phi(2), sample([1.0]))[0] == pytest.approx(oracle, rel=1e-7)

    def test_dense_grid_oracle_for_generator_phi(self):
        phi = cached_generator_phi(1.5, 3, "powerlog", (0.5, 0, 0))
        rng = np.random.default_rng(27)
        ks = np.logspace(-3, 3, 60001)
        for _ in range(5):
            x = sample(rng.uniform(-2, 2, 4))
            if sup_norm(x) == 0.0:
                continue
            mods = ok.modular(phi, ok.SampleBatch(x.space, ks[:, None] * x.values))
            oracle = float(np.min((1.0 + mods) / ks))
            assert ok.amemiya_norm(phi, x)[0] == pytest.approx(oracle, rel=1e-6)

    def test_zero_function(self):
        assert ok.amemiya_norm(ok.power_phi(3), sample([0.0, 0.0]))[0] == 0.0

    def test_sandwich_against_luxemburg(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            p = rng.uniform(1.0, 2.5)
            q = p + rng.uniform(0.5, 2.0)
            phi = ok.build_from_generator(ExponentCouple(p, q), ok.power_rho(float(rng.uniform(0.2, 0.8))))
            x = sample(rng.uniform(-2, 2, 5))
            lux = ok.luxemburg_norm(phi, x)[0]
            am = ok.amemiya_norm(phi, x)[0]
            assert lux * (1 - 1e-7) <= am <= 2.0 * lux * (1 + 1e-7)

    def test_homogeneity_and_monotonicity(self):
        phi = cached_generator_phi(1.5, 3, "powerlog", (0.5, 0, 0))
        rng = np.random.default_rng(25)
        for _ in range(10):
            y = sample(rng.uniform(-2, 2, 5))
            x = sample(y.values[0] * rng.uniform(0.0, 1.0, 5))
            assert ok.amemiya_norm(phi, y.scaled(3.0))[0] == pytest.approx(
                3.0 * ok.amemiya_norm(phi, y)[0], rel=1e-8)
            assert ok.amemiya_norm(phi, x)[0] <= ok.amemiya_norm(phi, y)[0] * (1 + 1e-8)

    @pytest.mark.parametrize("norm", [ok.amemiya_norm, ok.luxemburg_norm],
                             ids=["amemiya", "luxemburg"])
    @pytest.mark.parametrize("name", ["u^1.5", "u^2", "u^3", "u^2+u"])
    def test_homogeneous_at_extreme_scales(self, norm, name):
        # the k search range follows sup|x|, so ||lambda x|| = lambda ||x|| to
        # roundoff far outside [1e-8, 1e8] too; Luxemburg is the guard beside it
        phi = remark_h_phi() if name == "u^2+u" else ok.power_phi(float(name[2:]))
        x = sample([1.0, 0.5, 0.2])
        base = norm(phi, x)[0]
        for lam in (1e-10, 1e-9, 1e-8, 1e8, 1e9, 1e10):
            assert norm(phi, x.scaled(lam))[0] == pytest.approx(lam * base, rel=1e-15), lam


def remark_h_phi():
    """The phi of the shipped remark_concave_h_1_2 scenario: u^2 + u."""
    return ok.build_from_h(ExponentCouple(1, 2), ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0))


def mixed_batch(space, rng, big=3e8):
    """Random rows plus a zero row, a one-atom spike, and a row whose
    sup is `big` (beyond a saturating phi's domain at every k >= 1e-8)."""
    rows = [rng.uniform(-2, 2, space.n) for _ in range(6)]
    rows.append(np.zeros(space.n))
    spike = np.zeros(space.n)
    spike[3] = 1.7
    rows.append(spike)
    wide = rng.uniform(-1, 1, space.n)
    wide[0] = big
    rows.append(wide)
    return ok.SampleBatch(space, rows)


class TestBatch:
    PHIS = {
        "power": lambda: ok.power_phi(1.5),
        "generator": lambda: cached_generator_phi(1.5, 3, "powerlog", (0.5, 0, 0)),
        "saturating": lambda: cached_generator_phi(2, np.inf, "min_one"),
        "h": remark_h_phi,
    }

    @pytest.mark.parametrize("name", sorted(PHIS))
    def test_batch_equals_per_member(self, name):
        phi = self.PHIS[name]()
        space = ok.DiscreteMeasureSpace(np.linspace(0.5, 2.0, 6))
        xs = mixed_batch(space, np.random.default_rng(71))
        for fn in (ok.luxemburg_norm, ok.amemiya_norm):
            batch = fn(phi, xs)
            assert isinstance(batch, np.ndarray) and batch.shape == (len(xs),)
            alone = np.array([fn(phi, ok.SampleFunction(space, v))[0] for v in xs.values])
            np.testing.assert_allclose(batch, alone, rtol=1e-15, atol=0.0)
            assert batch[6] == 0.0
        inside = xs[np.abs(xs.values).max(axis=1) <= phi.u_max]
        np.testing.assert_allclose(ok.modular(phi, inside),
                                   [ok.modular(phi, ok.SampleFunction(space, v))[0]
                                    for v in inside.values], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("name", sorted(PHIS))
    def test_a_sample_function_is_a_one_member_batch(self, name):
        # one function takes the batch path: one value back, bitwise the
        # value of the same row in a batch of its own
        phi = self.PHIS[name]()
        x = sample([0.5, -0.25, 0.75])
        row = ok.SampleBatch(x.space, [[0.5, -0.25, 0.75]])
        for fn in (ok.modular, ok.luxemburg_norm, ok.amemiya_norm):
            got = fn(phi, x)
            assert got.shape == (1,) and got.tolist() == fn(phi, row).tolist()

    def test_empty_batch(self):
        # a saturating phi has a finite domain, which clips the Amemiya range
        empty = ok.SampleBatch(ok.DiscreteMeasureSpace([0.5, 2.0]), np.zeros((0, 2)))
        for fn in (ok.modular, ok.luxemburg_norm, ok.amemiya_norm):
            assert fn(cached_generator_phi(2, np.inf, "min_one"), empty).shape == (0,)

    @pytest.mark.parametrize("name", sorted(PHIS))
    def test_sample_batch_equals_its_member_list(self, name):
        # every member is searched on its own, so a batch row is bitwise
        # the value for that member alone
        phi = self.PHIS[name]()
        space = ok.DiscreteMeasureSpace(np.linspace(0.5, 2.0, 6))
        xs = mixed_batch(space, np.random.default_rng(72))
        for fn in (ok.luxemburg_norm, ok.amemiya_norm):
            assert fn(phi, xs).tolist() == [fn(phi, ok.SampleFunction(space, v))[0] for v in xs.values]
        inside = xs[np.abs(xs.values).max(axis=1) <= phi.u_max]
        assert (ok.modular(phi, inside).tolist()
                == [ok.modular(phi, ok.SampleFunction(space, v))[0] for v in inside.values])

    def test_empty_sample_batch(self):
        empty = ok.SampleBatch(ok.uniform_space(4), np.zeros((0, 4)))
        for fn in (ok.modular, ok.luxemburg_norm, ok.amemiya_norm):
            assert fn(ok.power_phi(2), empty).shape == (0,)

    def test_strict_modular_raises_on_one_overflowing_member(self):
        phi = cached_generator_phi(2, np.inf, "min_one")
        xs = ok.SampleBatch(ok.uniform_space(2), [[0.1, 0.2], [0.3, 1.5], [0.0, 0.0]])
        with pytest.raises(ok.DomainOverflowError):
            ok.modular(phi, xs)


class TestNewtonNorms:
    """The Newton solves against the bisection and golden-section kernels
    they replaced (`oracles.luxemburg_bisect`, `oracles.amemiya_golden`)."""

    SCALES = [1e-6, 1.0, 1e6]

    @staticmethod
    def batch(scale):
        space = ok.DiscreteMeasureSpace(np.linspace(0.5, 2.0, 6))
        return mixed_batch(space, np.random.default_rng(71)).scaled(scale)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("name", sorted(TestBatch.PHIS))
    def test_agrees_with_the_search_oracles(self, name, scale):
        phi, xs = TestBatch.PHIS[name](), self.batch(scale)
        np.testing.assert_allclose(ok.luxemburg_norm(phi, xs), luxemburg_bisect(phi, xs),
                                   rtol=1e-10, atol=0.0)
        # every PHIS entry is convex, so the stationary point is the minimum
        assert np.all(ok.amemiya_norm(phi, xs) <= amemiya_golden(phi, xs) * (1.0 + 1e-15))

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("name", sorted(TestBatch.PHIS))
    def test_luxemburg_bracket(self, name, scale):
        phi, xs = TestBatch.PHIS[name](), self.batch(scale)
        lo, hi = _luxemburg_bracket(phi, np.abs(xs.values), xs.space.weights)
        assert np.array_equal(hi, ok.luxemburg_norm(phi, xs))
        assert np.all(lo <= hi) and np.all(hi - lo <= 1e-10 * hi)
        m = np.abs(xs.values).max(axis=1)
        assert np.array_equal(m == 0.0, hi == 0.0)
        live = m > 0.0

        def modular_at(lam):
            return ok.modular(phi, ok.SampleBatch(xs.space, xs.values[live] / lam[live, None]))

        # the returned end fits; the other end is at or over 1, except on a
        # member whose modular fits at the smallest admissible lambda
        assert np.all(modular_at(hi) <= 1.0 + 1e-14)
        capped = hi[live] == m[live] / phi.u_max
        assert np.all(modular_at(lo)[~capped] >= 1.0 - 1e-14)
        assert np.array_equal(lo[live][capped], hi[live][capped])
        assert capped.any() == (name == "saturating")

    @pytest.mark.parametrize("scale", SCALES)
    def test_steep_generator_agrees_with_the_search_oracles(self, scale):
        # rho = sqrt(t) at (20, inf) makes phi = v^40, which reaches e^690,
        # where the solve ends, at v = 3.1e7: below the top 1e8 of the
        # Amemiya range, and on this light space the minimum lies above k = 1
        phi = ok.build_from_generator(ExponentCouple(20, np.inf), ok.power_log_rho(0.5, 0, 0))
        assert phi.u_max == pytest.approx(np.exp(690.0 / 40.0), rel=1e-12)
        space = ok.DiscreteMeasureSpace(np.full(6, 1e-3))
        xs = mixed_batch(space, np.random.default_rng(71)).scaled(scale)
        np.testing.assert_allclose(ok.amemiya_norm(phi, xs), amemiya_golden(phi, xs),
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(ok.luxemburg_norm(phi, xs), luxemburg_bisect(phi, xs),
                                   rtol=1e-10, atol=0.0)

    @pytest.mark.parametrize("name", ["h-40", "h-64", "power-39", "power-50"])
    def test_phi_beyond_the_float_range_at_the_top_agrees_with_the_golden_oracle(self, name):
        # phi at the top sigma = 1e8 of the Amemiya range is beyond the float
        # range, so M = inf there; g = sigma*M' - M read inf - inf = nan, the
        # h-forms' minimum above sigma = 1 was never searched and the norm
        # came out 5.8% (q = 40) and 2.9% (q = 64) too high, and the power
        # jet and the profile sum warned of the overflow
        kind, exponent = name.split("-")
        if kind == "h":
            affine = ok.PiecewiseLinearConcave([1.0], [2e-3], 1e-3, 1e-3)   # 1e-3 (1 + s)
            phi = ok.build_from_h(ExponentCouple(1, int(exponent)), affine)
        else:
            phi = ok.power_phi(int(exponent))
        x = sample([0.3, -1.0, 0.05, 0.7], [0.25] * 4)
        assert ok.amemiya_norm(phi, x)[0] == pytest.approx(amemiya_golden(phi, x)[0], rel=1e-12)

    def test_heavy_weight_beyond_the_float_range_sums_without_warning(self):
        # phi = v^40 reaches e^690 at its u_max = 3.1e7, and a weight of
        # 1.4e6 takes w * phi there beyond the float range: the profile sum
        # warned of the overflow in its multiply
        phi = ok.build_from_generator(ExponentCouple(20, np.inf), ok.power_log_rho(0.5, 0, 0))
        x = sample([1.0, 0.5, -0.3], [1.4e6, 1.0, 2.0])
        assert ok.amemiya_norm(phi, x)[0] == pytest.approx(amemiya_golden(phi, x)[0], rel=1e-12)
        assert ok.luxemburg_norm(phi, x)[0] == pytest.approx(luxemburg_bisect(phi, x)[0], rel=1e-10)

    def test_norm_beyond_the_float_range_is_inf_without_warning(self):
        # 32 atoms of 1e307 have ||x||_1 = 3.2e308: both norms of u^1 scale
        # sup|x| back to +inf, where the scale-back overflowed with a warning;
        # the half-size member and the zero member keep their values
        batch = ok.SampleBatch(ok.uniform_space(32),
                               np.full((3, 32), 1e307) * np.array([[1.0], [-0.5], [0.0]]))
        for norm in (ok.luxemburg_norm, ok.amemiya_norm):
            got = norm(ok.power_phi(1.0), batch)
            assert got[0] == np.inf and got[2] == 0.0
            assert got[1] == pytest.approx(1.6e308, rel=1e-8)

    @pytest.mark.parametrize("values, weights", [
        ([0.5, -2.0, 1.25], [1.0, 0.5, 2.0]),   # M(1) = 1.34e308, sigma*M'(1) = +inf
        ([1.0, -1.0, 0.5], [1.0, 1.0, 1.0]),    # M(1) = +inf
    ])
    def test_profile_beyond_the_float_range_at_the_start(self, values, weights):
        # h = 1e308 + (s - 1) beyond its knot makes phi about 1e308 u^2 on
        # [0, 1] at (1, 2), so the norm is 1e154 ||x||_2. At the start
        # sigma = 1 the Newton step was 0 where sigma*M' is +inf and nan where
        # M is, and the search never left sigma = 1
        phi = ok.build_from_h(ExponentCouple(1, 2), ok.PiecewiseLinearConcave([1.0], [1e308], 1.0, 1.0))
        x = sample(values, weights)
        lo, hi = _luxemburg_bracket(phi, np.abs(x.values), x.space.weights)
        assert hi[0] - lo[0] <= 1e-10 * hi[0]
        assert ok.modular(phi, ok.SampleFunction(x.space, x.values[0] / hi[0]))[0] <= 1.0 + 1e-14
        assert ok.modular(phi, ok.SampleFunction(x.space, x.values[0] / lo[0]))[0] >= 1.0 - 1e-14
        two_norm = math.sqrt(sum(w * v * v for v, w in zip(values, weights)))
        assert hi[0] == pytest.approx(1e154 * two_norm, rel=1e-10)
        start = ok.norm_start(phi, x)
        assert np.array_equal(ok.luxemburg_norm(phi, x, start=start), hi)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("p", [1, 2])
    def test_phi_that_is_zero_near_zero_agrees_with_the_search_oracles(self, p, scale):
        # rho = min(5t, 3 + 2t) at (p, inf): rho(t)/t tends to 2, so phi is 0
        # on [0, 2] and rises to 1 at u_max = 5. The Luxemburg search starts
        # at sigma = 1, where the modular is 0: it used to stop there and
        # return sup|x|, up to 5 times the norm, with a divide-by-zero warning
        plc = ok.PiecewiseLinearConcave([1.0], [5.0], 5.0, 2.0)
        phi = ok.build_from_generator(ExponentCouple(p, np.inf), plc.jet)
        assert phi.u_max == 5.0 and float(phi(2.0)) == 0.0
        xs = self.batch(scale)
        np.testing.assert_allclose(ok.luxemburg_norm(phi, xs), luxemburg_bisect(phi, xs),
                                   rtol=1e-10, atol=0.0)
        # at p = 1, phi = (v - 2) / 3 on [2, 5]: the Amemiya minimum sits on
        # that kink, and each search stops within its step of it
        np.testing.assert_allclose(ok.amemiya_norm(phi, xs), amemiya_golden(phi, xs),
                                   rtol=1e-9, atol=0.0)

    def test_wide_norm_batch_takes_few_passes(self):
        # thm46b_norm_1_2 at the size of the wide benchmark workload: 7 mixed
        # inputs on 512 atoms and their maximal function; the bisection made
        # 42 passes of phi per call and the golden section 56
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        space = ok.uniform_space(512)
        xs = ok.generate_inputs(space, 7, "mixed", 1.0, 46003)
        batches = (xs, ok.discrete_maximal(space, ExponentCouple(1, 2)).apply(xs))
        passes = 0

        def counted(fn):
            def evaluate(u):
                nonlocal passes
                passes += 1
                return fn(u)
            return evaluate

        counting = dataclasses.replace(phi, jet=counted(phi.jet))
        for batch in batches:
            for norm in (ok.luxemburg_norm, ok.amemiya_norm):
                passes = 0
                np.testing.assert_array_equal(norm(counting, batch), norm(phi, batch))
                assert 0 < passes <= 15, (norm.__name__, passes)


def counting_jet(phi):
    """phi with a jet that records the size of each argument it is given."""
    sizes = []

    def jet(u):
        sizes.append(np.size(u))
        return phi.jet(u)

    return dataclasses.replace(phi, jet=jet), sizes


class TestStackedSides:
    """A norm report searches [Tx; x] as one batch, and the chain takes one
    modular of [Tx/M; x] per phi: each row of the stacked result is bitwise
    the row of that side's own call."""

    @staticmethod
    def sides(n):
        """x, with a zero row and rows of sup 1e-8 and 1e8, and its maximal
        function."""
        space = ok.uniform_space(n)
        rng = np.random.default_rng(74)
        rows = np.vstack((rng.uniform(-1.0, 1.0, (5, n)), np.zeros(n),
                          1e-8 * rng.uniform(-1.0, 1.0, n), 1e8 * rng.uniform(-1.0, 1.0, n)))
        x = ok.SampleBatch(space, rows)
        return ok.discrete_maximal(space, ExponentCouple(1, 2)).apply(x), x

    @staticmethod
    def stack(tx, x):
        return ok.SampleBatch(x.space, np.vstack((tx.values, x.values)))

    @pytest.mark.parametrize("n", [1, 8, 512])
    @pytest.mark.parametrize("name", sorted(TestBatch.PHIS))
    def test_stacked_rows_equal_each_side(self, name, n):
        phi = TestBatch.PHIS[name]()
        tx, x = self.sides(n)
        for fn in (ok.luxemburg_norm, ok.amemiya_norm):
            both = fn(phi, self.stack(tx, x))
            assert both.tolist() == fn(phi, tx).tolist() + fn(phi, x).tolist(), fn.__name__
        # the modular takes only members inside phi's domain
        inside = (np.abs(tx.values).max(axis=1) <= phi.u_max) & (np.abs(x.values).max(axis=1) <= phi.u_max)
        tx, x = tx[inside], x[inside]
        assert len(x) >= 7
        assert (ok.modular(phi, self.stack(tx, x)).tolist()
                == ok.modular(phi, tx).tolist() + ok.modular(phi, x).tolist())

    @pytest.mark.parametrize("name", sorted(TestBatch.PHIS))
    def test_profile_chunks_equal_row_by_row_calls(self, name):
        # 40 members on 512 atoms: a Luxemburg pass spans three balanced
        # chunks of at most 16 rows, the Amemiya first pass (three points per
        # member) eight
        phi = TestBatch.PHIS[name]()
        space = ok.uniform_space(512)
        xs = ok.generate_inputs(space, 40, "bounded", 1.0, 75)   # inside every domain
        counting, sizes = counting_jet(phi)
        for fn in (ok.luxemburg_norm, ok.amemiya_norm, ok.modular):
            sizes.clear()
            got = fn(counting, xs)
            assert got.tolist() == [fn(phi, ok.SampleFunction(space, v))[0] for v in xs.values]
            assert max(sizes) <= orlicz._PROFILE_ELEMS or fn is ok.modular, fn.__name__
        assert max(sizes) == xs.values.size   # the modular takes one pass, unchunked

    @pytest.mark.parametrize("cap", [1, 4, 20, 10**6])
    def test_any_chunk_size_gives_the_same_rows(self, monkeypatch, cap):
        # with fewer elements per chunk than atoms, each chunk is one row
        phi = TestBatch.PHIS["generator"]()
        tx, x = self.sides(8)
        stacked = self.stack(tx, x)
        want = [ok.luxemburg_norm(phi, stacked), ok.amemiya_norm(phi, stacked)]
        monkeypatch.setattr(orlicz, "_PROFILE_ELEMS", cap)
        counting, sizes = counting_jet(phi)
        got = [ok.luxemburg_norm(counting, stacked), ok.amemiya_norm(counting, stacked)]
        assert [g.tolist() for g in got] == [w.tolist() for w in want]
        # whole rows up to the cap, and one row when the cap is below n
        assert max(sizes) <= max(cap // 8, 1) * 8
        assert cap >= 8 or set(sizes) == {8}


class TestSharedStart:
    """`norm_start` is the Amemiya search's first pass, whose middle point
    min(1, min(1e8, u_max)) is the Luxemburg start min(1, u_max): given it,
    each norm is bitwise its value without it, one pass of phi fewer."""

    PHIS = dict(TestBatch.PHIS,
                min_one_1_2=lambda: cached_generator_phi(1, 2, "min_one"),
                min_one_1_inf=lambda: cached_generator_phi(1, np.inf, "min_one"))

    @staticmethod
    def assert_shared(phi, x):
        start = ok.norm_start(phi, x)
        for norm in (ok.luxemburg_norm, ok.amemiya_norm):
            plain, shared = norm(phi, x), norm(phi, x, start=start)
            assert np.array_equal(plain, shared), norm.__name__

    @pytest.mark.parametrize("n", [1, 8, 512])
    @pytest.mark.parametrize("name", sorted(PHIS))
    def test_norms_with_the_start_equal_the_norms_without(self, name, n):
        # the sides have a zero row and rows of sup 1e-8 and 1e8
        phi = self.PHIS[name]()
        tx, x = TestStackedSides.sides(n)
        self.assert_shared(phi, TestStackedSides.stack(tx, x))
        self.assert_shared(phi, mixed_batch(ok.DiscreteMeasureSpace(np.linspace(0.5, 2.0, 6)),
                                            np.random.default_rng(71)))
        self.assert_shared(phi, sample([0.5, -2.0, 1.25], [1.0, 0.5, 2.0]))

    def test_min_one_points_meet_at_u_max_one(self):
        # at (1, inf) the Amemiya range is clipped to u_max = 1, so its start
        # and top both lie at 1, the Luxemburg start; at (1, 2) the start 1
        # is phi's kink
        assert cached_generator_phi(1, np.inf, "min_one").u_max == 1.0
        assert orlicz._amemiya_points(cached_generator_phi(1, np.inf, "min_one")).tolist() == [
            1e-8, 1.0, 1.0]
        assert orlicz._amemiya_points(cached_generator_phi(1, 2, "min_one")).tolist() == [
            1e-8, 1.0, 1e8]

    def test_beyond_the_float_range(self):
        batch = ok.SampleBatch(ok.uniform_space(32),
                               np.full((3, 32), 1e307) * np.array([[1.0], [-0.5], [0.0]]))
        self.assert_shared(ok.power_phi(1.0), batch)

    def test_the_start_is_the_first_pass_of_both_searches(self):
        phi = TestBatch.PHIS["generator"]()
        tx, x = TestStackedSides.sides(8)
        both = TestStackedSides.stack(tx, x)
        counting, sizes = counting_jet(phi)
        ok.luxemburg_norm(counting, both)
        ok.amemiya_norm(counting, both)
        alone = len(sizes)
        sizes.clear()
        start = ok.norm_start(counting, both)
        # a zero row of x and its Tx take no part
        assert len(sizes) == 1 and start.shape == (3, len(both) - 2, 3)
        ok.luxemburg_norm(counting, both, start=start)
        ok.amemiya_norm(counting, both, start=start)
        assert len(sizes) == alone - 1

    def test_a_start_of_other_members_is_refused(self):
        phi = ok.power_phi(2)
        x = ok.SampleBatch(ok.uniform_space(3), [[1.0, 2.0, 0.5], [0.0, 0.0, 0.0]])
        start = ok.norm_start(phi, x[:1])
        assert start.shape == (3, 1, 3)
        for norm in (ok.luxemburg_norm, ok.amemiya_norm):
            assert norm(phi, x, start=start).tolist() == norm(phi, x).tolist()   # a zero row
            with pytest.raises(ValueError, match="norm start"):
                norm(phi, ok.SampleBatch(x.space, [[1.0, 1.0, 1.0]] * 2), start=start)


class TestOnePassSolve:
    """`orlicz._solve_log_inverse` runs its first pass on the whole arrays
    with a scalar bracket, and the build's rows fill one array in place:
    bitwise the solve and rows they replaced (`oracles.solve_log_inverse_stacked`,
    `oracles.generator_rows`), on targets one pass solves and on targets that
    take more passes and bisect."""

    BUILDS = {
        "sqrt": (ExponentCouple(1.5, 3), lambda: ok.power_log_rho(0.5, 0, 0)),
        "powerlog": (ExponentCouple(1, 2), lambda: ok.power_log_rho(0.3, 1, -1)),
        "min_one": (ExponentCouple(1, 2), ok.min_one_rho),
        "saturating": (ExponentCouple(2, np.inf), ok.min_one_rho),
        "steep": (ExponentCouple(20, np.inf), lambda: ok.power_log_rho(0.5, 0, 0)),
    }

    @classmethod
    def solved(cls, name):
        """A build's jet on phi's range and beyond, with its one solve call's
        arguments (log_inverse, target, start, top)."""
        couple, rho = cls.BUILDS[name]
        phi = ok.build_from_generator(couple, rho())
        top = min(phi.u_max, 1e300)
        v = np.concatenate((np.geomspace(1e-300, top, 601)[:-1], top * (1.0 - np.geomspace(1e-15, 0.5, 40)),
                            np.random.default_rng(76).uniform(0.0, min(top, 10.0), 200)))
        calls = []
        solve = orlicz._solve_log_inverse

        def recorded(*args):
            calls.append(args)
            return solve(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(orlicz, "_solve_log_inverse", recorded)
            jet = phi.jet(v)
        (args,) = calls
        return v, jet, args

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_jet_equals_the_stacked_solve_and_rows(self, name):
        v, got, (log_inverse, target, s, top) = self.solved(name)
        # phi is 0 below its range and at its top rows above it: the solved
        # entries are the targets the solve was given
        solved = np.isin(np.log(v), target)
        assert solved.sum() == target.size > 200
        want = generator_rows(*solve_log_inverse_stacked(log_inverse, target, s, top))
        assert np.array_equal(got[:, solved], want)

    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_solve_equals_the_stacked_solve_from_any_start(self, passes, name):
        _, _, (log_inverse, target, build_start, top) = self.solved(name)
        rng = np.random.default_rng(77)
        counts = []
        # the build's start (one pass on a power phi), then starts far from
        # the root
        starts = [build_start, np.zeros(target.size), np.full(target.size, -LOG_U_RANGE),
                  np.full(target.size, top), rng.uniform(-LOG_U_RANGE, top, target.size)]
        for s in starts:
            passes.clear()
            got = np.stack(orlicz._solve_log_inverse(log_inverse, target, s, top))
            (count,) = passes["phi_inverse"]
            counts.append(count)
            assert np.array_equal(got, solve_log_inverse_stacked(log_inverse, target, s, top))
        assert max(counts) > 1, counts
        if name == "powerlog":
            # from 0 and from random starts, Newton steps leave the bracket
            # and bisect: about 20 passes where the build's start takes 4
            assert counts[0] == 4 and max(counts) >= 15, counts


class TestJet:
    """phi, u*phi' and u^2*phi'' against closed forms and central differences."""

    @staticmethod
    def central(phi, u, rel=1e-6):
        """u*phi' and u^2*phi'' by central differences of phi."""
        h = rel * u
        up, mid, down = phi(u + h), phi(u), phi(u - h)
        return u * (up - down) / (2.0 * h), u * u * (up - 2.0 * mid + down) / (h * h)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_power(self, p):
        phi = ok.power_phi(p)
        u = np.array([0.0, 1e-3, 0.5, 2.0, 1e3])
        np.testing.assert_allclose(phi.jet(u), [u**p, p * u**p, p * (p - 1.0) * u**p],
                                   rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(phi.jet(u[1:])[1], self.central(phi, u[1:])[0], rtol=1e-8)

    def test_generator_at_tiny_arguments(self):
        # phi = u^(12/7) here, down to where it leaves the float range
        phi = cached_generator_phi(1.5, 2, "powerlog", (0.5, 0, 0))
        u = np.array([1e-150, 1e-100, 1e-30, 1e-12, 1e-10, 1e-8])
        r = 12.0 / 7.0
        np.testing.assert_allclose(phi.jet(u), [u**r, r * u**r, r * (r - 1.0) * u**r],
                                   rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(phi.jet(u[3:])[1], self.central(phi, u[3:])[0], rtol=1e-7)
        # below the float range phi is 0, and so is every row
        assert np.array_equal(phi.jet(np.array([0.0, 1e-300])), np.zeros((3, 2)))

    def test_generator_inside_the_grid(self):
        phi = cached_generator_phi(1.5, 4, "powerlog", (0.3, 1, -1))
        u = np.exp(np.linspace(np.log(1e-3), np.log(1e3), 37))
        jet = phi.jet(u)
        np.testing.assert_allclose(jet[0], phi(u), rtol=1e-15)
        np.testing.assert_allclose(jet[1], self.central(phi, u)[0], rtol=1e-7)
        np.testing.assert_allclose(jet[2], self.central(phi, u, rel=1e-4)[1], rtol=1e-3)

    def test_saturating_generator_near_u_max(self):
        phi = cached_generator_phi(2, np.inf, "min_one")
        u = phi.u_max * (1.0 - np.array([1e-2, 1e-4, 1e-6]))
        np.testing.assert_allclose(phi.jet(u)[1], self.central(phi, u, rel=1e-8)[0], rtol=1e-5)
        assert np.all(np.isfinite(phi.jet(np.array([phi.u_max]))))

    H_FORMS = {
        # (h, couple); s = u^(p-q) crosses each knot once
        "affine": (ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0), ExponentCouple(1, 2)),
        "three_knots": (ok.PiecewiseLinearConcave([0.1, 1.0, 5.0], [0.5, 1.0, 1.5], 5.0, 0.01),
                        ExponentCouple(1.5, 4)),
        "min_one": (ok.PiecewiseLinearConcave([1.0], [1.0], 1.0, 0.0), ExponentCouple(1, 3)),
    }

    @pytest.mark.parametrize("name", sorted(H_FORMS))
    def test_h_form_first_row_is_u_q_times_h(self, name):
        # phi = u^q * h(u^(p-q)) with h evaluated by its own table, on both
        # branches, inside the knots, and where u^(p-q) is a knot
        h, couple = self.H_FORMS[name]
        p, q = couple.p, couple.q
        phi = ok.build_from_h(couple, h)
        at_knots = h.knots ** (1.0 / (p - q))
        u = np.concatenate((at_knots, np.exp(np.linspace(np.log(1e-6), np.log(1e6), 401))))
        np.testing.assert_allclose(phi.jet(u)[0], u**q * h(u ** (p - q)), rtol=1e-14, atol=0.0)

    def test_h_form_inside_the_knots_and_on_both_branches(self):
        # s = u^(p-q) = u^-2.5 crosses the knots 5, 1, 0.1 at u = 0.53, 1, 2.5
        phi = ok.build_from_h(*self.H_FORMS["three_knots"][::-1])
        u = np.array([0.2, 0.8, 1.5, 5.0])
        jet = phi.jet(u)
        np.testing.assert_allclose(jet[1], self.central(phi, u)[0], rtol=1e-8)
        np.testing.assert_allclose(jet[2], self.central(phi, u, rel=1e-4)[1], rtol=1e-6)
        assert np.array_equal(phi.jet(np.zeros(2)), np.zeros((3, 2)))

    @pytest.mark.parametrize("p, q", [(1, 2), (2, np.inf), (1.5, 2), (2, 3), (1, np.inf)])
    def test_shipped_generator_elasticity_within_the_indices(self, p, q):
        # the generator phis of the shipped scenarios; rho(t) = sqrt(t) makes
        # each one the power u^r with 1/r = (1/p + 1/q) / 2
        phi = cached_generator_phi(p, q, "powerlog", (0.5, 0, 0))
        r = 2.0 / (1.0 / p + 1.0 / q)
        # the domain ends where the solve does, at u^r = e^690
        assert phi.u_max == pytest.approx(np.exp(690.0 / r), rel=1e-12)
        u = np.exp(np.linspace(np.log(1e-30), np.log(1e30), 20001))
        jet = phi.jet(u)
        np.testing.assert_allclose(jet[0], u**r, rtol=1e-13, atol=0.0)
        elasticity = jet[1] / jet[0]
        assert np.all(elasticity >= p * (1.0 - 1e-12))
        assert np.all(elasticity <= q * (1.0 + 1e-12))
        np.testing.assert_allclose(elasticity, r, rtol=1e-12)
        np.testing.assert_allclose(jet[2] / jet[0], r * (r - 1.0), rtol=1e-12)

    NON_POWER = {
        "powerlog": lambda: ok.power_log_rho(0.3, 1, -1),
        "power": lambda: ok.power_rho(0.8),
        "min_one": ok.min_one_rho,
        # kinks at t = 1 and 4, a value 1.5 at 0+, and slope 0.1 at infinity
        "pwl": lambda: ok.PiecewiseLinearConcave([1.0, 4.0], [2.0, 2.75], 0.5, 0.1).jet,
    }

    @pytest.mark.parametrize("p, q", [(1, 2), (1.5, 4), (1, np.inf), (2, np.inf)])
    @pytest.mark.parametrize("family", sorted(NON_POWER))
    def test_generator_elasticity_within_the_indices(self, family, p, q):
        # the Matuszewska-Orlicz indices: p <= u*phi'/phi <= q wherever phi is
        # positive and finite, at kinks with either one-sided derivative
        phi = ok.build_from_generator(ExponentCouple(p, q), self.NON_POWER[family]())
        u = np.exp(np.linspace(np.log(1e-300), np.log(min(phi.u_max, 1e300)), 20001))
        jet = phi.jet(u)
        live = (jet[0] > 0.0) & np.isfinite(jet[0])
        assert live.sum() > 1000
        elasticity = jet[1][live] / jet[0][live]
        assert np.all(elasticity >= p * (1.0 - 1e-12))
        assert np.all(elasticity <= q * (1.0 + 1e-12))

    @pytest.mark.parametrize("name", ["power", "generator", "saturating", "h", "kinked_h"])
    @pytest.mark.parametrize("shape", ["float", "0-d", "empty", "2-d"])
    def test_shape_follows_the_argument(self, name, shape):
        phi = (ok.build_from_h(*self.H_FORMS["three_knots"][::-1]) if name == "kinked_h"
               else TestBatch.PHIS[name]())
        u = {"float": 0.3, "0-d": np.array(0.3), "empty": np.zeros(0),
             "2-d": np.array([[0.0, 1e-20, 0.3], [0.7, 0.9, 0.5]])}[shape]
        assert phi(u).shape == np.shape(u)
        assert phi.jet(u).shape == (3,) + np.shape(u)
        # the same values as the flat 1-d call
        want = phi.jet(np.ravel(u)).reshape((3,) + np.shape(u))
        assert np.array_equal(phi.jet(u), want)
        assert np.array_equal(phi(u), want[0])

    def test_remark_h_is_star_shaped(self):
        # u*phi' >= phi, that is phi(u)/u nondecreasing: the Luxemburg
        # bracket's certified end rests on it
        jet = remark_h_phi().jet(np.exp(np.linspace(np.log(1e-100), np.log(1e100), 2001)))
        assert np.all(jet[1] >= jet[0])


class TestAmemiyaGridOracle:
    """The search is attained and minimal: never below the infimum as a
    dense log-k grid estimates it, and never above the grid minimum beyond
    roundoff."""

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("name", ["h", "generator"])
    def test_within_grid_minimum(self, name, scale):
        phi = TestBatch.PHIS[name]()
        rng = np.random.default_rng(72)
        for _ in range(3):
            x = sample(rng.uniform(-1, 1, 6) * scale)
            m = sup_norm(x)
            ks = np.exp(np.linspace(np.log(1e-8), np.log(min(1e8, phi.u_max / m)), 200001))
            mods = phi(np.minimum(np.outer(ks, np.abs(x.values[0])), phi.u_max)) @ x.space.weights
            grid_min = float(np.min((1.0 + mods) / ks))
            value = ok.amemiya_norm(phi, x)[0]
            assert grid_min * (1.0 - 1e-6) <= value <= grid_min * (1.0 + 1e-12)


class TestBuildFromGenerator:
    def test_constant_generator_gives_power_p(self):
        phi = cached_generator_phi(2, 3, "power", (0.0,))
        us = np.linspace(0.1, 50, 40)
        assert np.allclose(phi(us), us**2, rtol=1e-7)

    def test_linear_generator_gives_power_q(self):
        phi = cached_generator_phi(2, 3, "power", (1.0,))
        us = np.linspace(0.1, 50, 40)
        assert np.allclose(phi(us), us**3, rtol=1e-7)

    def test_interpolated_power(self):
        phi = cached_generator_phi(1, 2, "power", (0.5,))
        assert float(phi(2.0)) == pytest.approx(2.0 ** (4.0 / 3.0), abs=1e-6)

    def test_round_trip_on_grid(self):
        couple = ExponentCouple(1.5, 4)
        rho = ok.power_log_rho(0.4, 1, 0)
        phi = ok.build_from_generator(couple, rho)
        us = np.logspace(-10, 10, 300)
        inv = us ** (1.0 / couple.p) * rho(us ** (1.0 / couple.q - 1.0 / couple.p))[0]
        assert np.max(np.abs(phi(inv) - us) / us) < 1e-7

    def test_saturating_generator_trims_domain(self):
        # phi^-1 = min(u^(1/2), 1) rises to lim rho(t)/t = 1 as t -> 0
        phi = cached_generator_phi(2, np.inf, "min_one")
        assert phi.u_max == 1.0
        assert float(phi(0.5)) == pytest.approx(0.25, rel=1e-15)
        assert float(phi(1.0)) == 1.0
        with pytest.raises(ok.DomainOverflowError):
            phi(1.0 + 1e-9)

    @pytest.mark.parametrize("p, q", [(1, 2), (1.5, 3), (2, np.inf)])
    def test_pwl_min_one_is_min_one(self, p, q):
        # min(1, t) written as a piecewise linear generator: its first knot
        # lies inside the checks' grid, and below it the table gives t exactly
        couple = ExponentCouple(p, q)
        pwl = ok.PiecewiseLinearConcave([1.0], [1.0], 1.0, 0.0)
        phi, want = ok.build_from_generator(couple, pwl.jet), ok.build_from_generator(couple, ok.min_one_rho())
        assert phi.u_max == want.u_max
        u = np.concatenate(([0.0, 1e-20], np.exp(np.linspace(np.log(1e-14), np.log(min(phi.u_max, 1e12)), 2001))))
        assert np.array_equal(_bits(phi(u)), _bits(want(u)))
        assert np.array_equal(_bits(phi.jet(u)), _bits(want.jet(u)))

    @pytest.mark.parametrize("p, q", [(1.5, 3), (1, 2)])
    def test_pwl_with_a_large_value_near_zero_builds(self, p, q):
        # grid chords near t = 1e-8 read this rho's slope 0.5 with a relative
        # rounding error of about 2.7e-7; its slope table is exact
        plc = ok.PiecewiseLinearConcave([1.0, 4.0], [2.0, 2.75], 0.5, 0.1)
        phi = ok.build_from_generator(ExponentCouple(p, q), plc.jet)
        assert float(phi(phi.u_max)) == pytest.approx(np.exp(690.0), rel=1e-12)
        assert second_difference_convexity(phi, np.linspace(0.0, 30.0, 3001)).ok

    # at these p the tail start found by bisection lies within 1e-16 of s = 0
    @pytest.mark.parametrize("p", [1.0, 1.3492149263440198, 1.5870500476727714, 2.5])
    def test_min_one_at_q_inf_is_v_to_the_p_up_to_one(self, p):
        phi = ok.build_from_generator(ExponentCouple(p, np.inf), ok.min_one_rho())
        v = np.array([1e-100, 0.5, 1.0 - 1e-12, 1.0])
        np.testing.assert_allclose(phi.jet(v), [v**p, p * v**p, p * (p - 1.0) * v**p],
                                   rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("p", [1, 1.5, 2])
    def test_saturating_pwl_stops_at_its_slope_at_zero(self, p):
        # rho = min(t/2, 1) at q = inf: phi^-1 = min(u^(1/p), 1/2), so phi = v^p
        # up to u_max = lim rho(t)/t = 1/2; the inverse is already flat at u = 1
        plc = ok.PiecewiseLinearConcave([2.0], [1.0], 0.5, 0.0)
        phi = ok.build_from_generator(ExponentCouple(p, np.inf), plc.jet)
        assert phi.u_max == 0.5
        v = np.array([1e-10, 0.1, 0.25, 0.4999, 0.5])
        np.testing.assert_allclose(phi.jet(v), [v**p, p * v**p, p * (p - 1.0) * v**p],
                                   rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("p, q", [(1, 2), (2, np.inf)])
    def test_pwl_whose_first_intercept_rounds_below_zero_builds(self, p, q):
        # rho = min(t/10, 0.3): its table's first intercept 0.3 - 0.1 * 3
        # rounds to -5.6e-17, and is stored as 0; at q = inf, phi^-1 =
        # min(0.3 u^(1/p), 0.1), so phi = (v / 0.3)^p up to u_max = 0.1
        plc = ok.PiecewiseLinearConcave([3.0], [0.3], 0.1, 0.0)
        phi = ok.build_from_generator(ExponentCouple(p, q), plc.jet)
        if q == np.inf:
            assert phi.u_max == 0.1
            v = np.array([1e-6, 0.05, 0.1])
            np.testing.assert_allclose(phi(v), (v / 0.3) ** p, rtol=1e-14)
        else:
            assert float(phi(phi.u_max)) == pytest.approx(np.exp(690.0), rel=1e-12)
            assert second_difference_convexity(phi, np.linspace(0.0, 30.0, 3001)).ok

    @pytest.mark.parametrize("p", [1, 2])
    def test_small_u_max_at_q_inf_builds(self, p):
        # rho = c*min(1, t): phi^-1 = c*min(u^(1/p), 1), so u_max = c and
        # phi(v) = (v / c)^p up to phi(u_max) = 1. Below about c = 2.4e-7,
        # rho(2^-1000) = c * 2^-1000 is subnormal, and u_max is read further
        # up the line
        for k in range(-14, 4):
            c = 10.0**k
            plc = ok.PiecewiseLinearConcave([1.0], [c], c, 0.0)
            phi = ok.build_from_generator(ExponentCouple(p, np.inf), plc.jet)
            assert phi.u_max == pytest.approx(c, rel=1e-12, abs=0.0)
            assert float(phi(phi.u_max)) == pytest.approx(1.0, rel=1e-12, abs=0.0)
            v = np.linspace(0.0, phi.u_max, 1001)
            assert np.all(np.diff(phi(v)) >= 0.0)
            np.testing.assert_allclose(phi(v), (v / c) ** p, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("a, b", [(1e300, 0.0), (-1e308, 0.0), (0.0, 1e308), (0.0, -1e308)])
    def test_rho_beyond_the_float_range_is_rejected_without_warning(self, a, b):
        # ln(e + t)^1e300 overflows on the grid, and -1e308 times the
        # elasticity term of a factor overflows in the multiply
        with pytest.raises(ValueError, match="^rho must be finite and positive on the grid$"):
            ok.build_from_generator(ExponentCouple(1, 2), ok.power_log_rho(0.5, a, b))

    def test_non_concave_generator_rejected(self):
        # max(1, t) is quasi-concave but its slope rises at t = 1
        with pytest.raises(ValueError, match="^rho fails the concavity check"):
            ok.build_from_generator(ExponentCouple(1, 2), ok.max_one_rho())

    def test_generator_convexity_validated(self):
        phi = cached_generator_phi(1, 2, "powerlog", (0.3, 1, -1))
        grid = np.linspace(0.0, 30.0, 3001)
        assert second_difference_convexity(phi, grid).ok


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


def _jet_arrays(phi):
    """The arrays a phi's jet reads, from the closure of its jet."""
    cells = [cell.cell_contents for cell in phi.jet.__closure__]
    return [c for c in cells if isinstance(c, np.ndarray)]


def random_rho(rng, kind):
    """A rho jet of the kind, with parameters drawn over the whole family:
    a pwl has 1-8 knots in e^+-30, decreasing slopes, half the time a zero
    value at 0, and a scale in 1e-14..1e3."""
    if kind == "power":
        return ok.power_rho(float(rng.choice([0.0, 1.0, rng.uniform(0.0, 1.0)], p=[0.1, 0.1, 0.8])))
    if kind == "powerlog":
        return ok.power_log_rho(float(rng.uniform(0.02, 0.98)), *rng.uniform(-2.0, 2.0, 2))
    if kind == "min_one":
        return ok.min_one_rho()
    if kind == "max_one":
        return ok.max_one_rho()
    knots = np.unique(np.exp(rng.uniform(-30.0, 30.0, int(rng.integers(1, 9)))))
    slopes = np.sort(np.exp(rng.uniform(-20.0, 5.0, knots.size + 1)))[::-1]
    if rng.random() < 0.3:
        slopes[-1] = 0.0
    scale = 10.0 ** rng.uniform(-14.0, 3.0)
    at_zero = 0.0 if rng.random() < 0.5 else np.exp(rng.uniform(-30.0, 5.0))
    values = at_zero + slopes[0] * knots[0] + np.concatenate(([0.0], np.cumsum(slopes[1:-1] * np.diff(knots))))
    return ok.PiecewiseLinearConcave(knots, scale * values, scale * slopes[0], scale * slopes[-1]).jet


class TestShapeChecksReadTheJet:
    """A generator build reads rho's quasi-concavity off its jet and probes
    no built phi: on seeded draws of all five rho kinds it decides as the
    chord check on rho's values and the second-difference probe of phi
    (`oracles.generator_rho_checks` and `oracles._validate_shape`) do."""

    KINDS = ("power", "powerlog", "min_one", "max_one", "pwl")
    COUPLES = ((1, 2), (1, 3), (1.5, 3), (2, 4), (1.2, 1.3), (1, 5), (2, 2.5), (1.01, 20),
               (1, np.inf), (2, np.inf), (1.5, np.inf), (3, np.inf))
    # the build's own set-up rejects a flat or non-finite inverse before a
    # probe could run
    SETUP_REASONS = ("inverse not strictly increasing",
                     "generator produced non-finite or non-positive inverse values")

    @staticmethod
    def reason(exc):
        return re.sub(r" \(.*\)$", "", str(exc))

    def test_decides_as_the_chord_check_and_the_probe(self):
        rng = np.random.default_rng(19)
        outcomes = Counter()
        for i in range(250):
            rho = random_rho(rng, self.KINDS[i % 5])
            couple = ExponentCouple(*self.COUPLES[int(rng.integers(len(self.COUPLES)))])
            try:
                generator_rho_checks(rho)
                want = None
            except ValueError as exc:
                want = self.reason(exc)
            try:
                phi = ok.build_from_generator(couple, rho)
            except ValueError as exc:
                got = self.reason(exc)
                assert got == want or (want is None and got in self.SETUP_REASONS), (i, got, want)
            else:
                assert want is None, (i, want)
                _validate_shape(phi, 100.0)
                got = "built"
            outcomes[got] += 1
        assert outcomes["built"] >= 100
        assert outcomes["rho fails the quasi-concavity check"] >= 10
        assert outcomes["rho fails the concavity check"] >= 10


class TestImmutable:
    """A built phi is shared per spec, so nothing in it can be written."""

    BUILDS = {
        "power": lambda: ok.power_phi(2.5),
        "generator": lambda: cached_generator_phi(1.5, 3, "power", (0.5,)),
        "h": lambda: ok.build_from_h(ExponentCouple(1, 3),
                                     ok.PiecewiseLinearConcave([1.0], [1.0], 1.0, 0.0)),
    }

    @pytest.mark.parametrize("kind", sorted(BUILDS))
    def test_meta_and_fields_cannot_be_assigned(self, kind):
        phi = self.BUILDS[kind]()
        for name, value in (("convex", False), ("u_max", 1.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(phi, name, value)

    # a generator build tabulates nothing: its jet reads rho and floats
    @pytest.mark.parametrize("kind", ["h", "power"])
    def test_tabulated_arrays_cannot_be_written(self, kind):
        arrays = _jet_arrays(self.BUILDS[kind]())
        assert arrays and not any(a.flags.writeable for a in arrays)
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_h_form_records_its_shape_check(self):
        # h = min(1, s) has a slope drop, so phi = min(u^3, u) is not convex
        assert self.BUILDS["h"]().convex is False

    def test_hashes_by_identity(self):
        a, b = ok.power_phi(2.0), ok.power_phi(2.0)
        assert a != b and len({a, b, a}) == 2


class TestGeneratorBuildOracle:
    """Each generator build against the tabulated SciPy PCHIP build it
    replaced: the same ρ are rejected, and on the table's range the values
    and the elasticity agree within the table's own error.

    The table interpolates its knots exactly, so there the two agree to the
    conditioning of the solve: F(s) = s/p + log rho(t) carries a rounding
    error of a few ulps of |s| + |log v|, which moves u by that times the
    elasticity u*phi'/phi. Between knots the monotone cubic is off
    by up to about 2e-12 in value and 2e-7 in elasticity (4096 knots per
    decade) where phi^-1 is smooth. Across a kink of phi^-1 the cubic rounds
    the corner over a few knots, so a window of 1e-2 in log u around each
    kink is left out there.
    """

    # name -> (rho jet for the build, value rho for the oracle, kinks of rho);
    # the oracle's power-log rho raises each log factor even to the power 0
    FAMILIES = {
        "sqrt": (lambda: ok.power_log_rho(0.5, 0, 0), lambda: power_log_rho_full(0.5, 0, 0), []),
        "powerlog": (lambda: ok.power_log_rho(0.3, 1, -1), lambda: power_log_rho_full(0.3, 1, -1),
                     []),
        "power": (lambda: ok.power_rho(0.8), lambda: rho_values(ok.power_rho(0.8)), []),
        "linear": (lambda: ok.power_rho(1.0), lambda: rho_values(ok.power_rho(1.0)), []),
        "min_one": (ok.min_one_rho, lambda: rho_values(ok.min_one_rho()), [1.0]),
        "max_one": (ok.max_one_rho, lambda: rho_values(ok.max_one_rho()), [1.0]),
        # the first knot lies below the checks' grid
        "pwl": (lambda: ok.PiecewiseLinearConcave([1e-9, 1.0, 4.0], [1e-9, 1.0, 1.75], 1.0, 0.1).jet,
                lambda: ok.PiecewiseLinearConcave([1e-9, 1.0, 4.0], [1e-9, 1.0, 1.75], 1.0, 0.1),
                [1e-9, 1.0, 4.0]),
    }

    @staticmethod
    def tolerance(jet):
        """2e-12, plus 4 ulps of |log u| + 1 times the elasticity."""
        return 2e-12 + 4.5e-16 * (1.0 + np.abs(np.log(jet[0]))) * jet[1] / jet[0]

    @pytest.mark.parametrize("p, q", [(1, 2), (1.5, 3), (2, 3), (1.5, 4), (1, np.inf), (2, np.inf)])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_same_phi_as_the_pchip_build(self, family, p, q):
        couple = ExponentCouple(p, q)
        rho, oracle_rho, kinks = self.FAMILIES[family]
        try:
            want, saturated, knots = generator_phi_pchip(couple, oracle_rho())
        except ValueError as exc:
            # for the same reason; the figure in the message is read off the
            # jet here, off chord slopes there
            stem = str(exc).split(" (")[0].removesuffix(" on grid")
            with pytest.raises(ValueError, match="^" + re.escape(stem)):
                ok.build_from_generator(couple, rho())
            return
        phi = ok.build_from_generator(couple, rho())
        # the table ends where its grid does, and phi's domain where the solve
        # does, at phi = e^690, or where phi^-1 stops rising: there both read
        # the same u_max
        if saturated:
            assert phi.u_max == want.u_max
        else:
            assert phi.u_max > want.u_max
            assert float(phi(phi.u_max)) == pytest.approx(np.exp(690.0), rel=1e-12)
        at_knots = phi.jet(knots)
        assert np.all(np.abs(at_knots[0] / want(knots) - 1.0) <= self.tolerance(at_knots))
        rng = np.random.default_rng(31)
        u = np.concatenate((rng.uniform(knots[0], knots[-1], 5000),
                            np.exp(rng.uniform(np.log(knots[0]), np.log(knots[-1]), 5000))))
        e = (0.0 if couple.q_is_inf else 1.0 / q) - 1.0 / p
        log_u = np.log(want(u))
        u = u[np.all([np.abs(log_u - np.log(t) / e) > 1e-2 for t in kinks], axis=0)]
        got, table = phi.jet(u), want.jet(u)
        assert np.all(np.abs(got[0] / table[0] - 1.0) <= self.tolerance(got))
        np.testing.assert_allclose(got[1] / got[0], table[1] / table[0], rtol=2e-7, atol=0.0)


class TestBuildFromH:
    def test_convex_exactly_when_h_has_no_slope_drop(self):
        couple = ExponentCouple(1, 3)
        affine = ok.PiecewiseLinearConcave([1.0, 2.0], [2.0, 3.0], 1.0, 1.0)
        # h = min(1, s), so phi = min(u, u^3)
        kinked = ok.PiecewiseLinearConcave([1.0], [1.0], 1.0, 0.0)
        assert ok.build_from_h(couple, affine).convex
        assert not ok.build_from_h(couple, kinked).convex

    def test_constant_h_gives_power_q(self):
        h = ok.PiecewiseLinearConcave([1.0], [1.0], 0.0, 0.0)
        phi = ok.build_from_h(ExponentCouple(1, 2), h)
        us = np.linspace(0.01, 100, 60)
        assert np.allclose(phi(us), us**2, rtol=1e-12)

    def test_linear_h_gives_power_p(self):
        h = ok.PiecewiseLinearConcave([1.0], [1.0], 1.0, 1.0)
        phi = ok.build_from_h(ExponentCouple(1.5, 3), h)
        us = np.linspace(0.01, 100, 60)
        assert np.allclose(phi(us), us**1.5, rtol=1e-12)

    def test_zero_term_stays_zero_where_its_power_overflows(self):
        # h = 1.1 s has intercept 0, so phi = 1.1 u; at u = 1e10 the discarded
        # u^39 overflows, and 0 * inf raised an invalid-value warning
        h = ok.PiecewiseLinearConcave([1.0], [1.1], 1.1, 1.1)
        phi = ok.build_from_h(ExponentCouple(1, 39), h)
        rows = phi.jet(np.array([1e-3, 1.0, 1e10]))
        np.testing.assert_allclose(rows[0], 1.1 * np.array([1e-3, 1.0, 1e10]), rtol=1e-15)
        np.testing.assert_allclose(rows[1], rows[0], rtol=1e-15)
        assert np.all(rows[2] == 0.0)

    def test_affine_h_example(self):
        h = ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0)
        phi = ok.build_from_h(ExponentCouple(1, 2), h)
        assert float(phi(3.0)) == pytest.approx(12.0, rel=1e-12)
        assert float(phi(0.0)) == 0.0

    def test_q_must_be_finite(self):
        h = ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0)
        with pytest.raises(ValueError):
            ok.build_from_h(ExponentCouple(1, np.inf), h)


class TestCheckConvexity:
    """`ok.check_convexity` reads thm31a's psi-convexity off phi's build; the
    second-difference check it replaced (`oracles.second_difference_convexity`)
    agrees with it on seeded generator builds."""

    def test_power_is_accepted_from_exponent_p(self):
        assert ok.check_convexity(ok.power_phi(2.0), 2.0)
        assert ok.check_convexity(ok.power_phi(3.5), 2.0)
        assert not ok.check_convexity(ok.power_phi(1.5), 2.0)

    def test_generator_is_accepted_from_its_own_p(self):
        phi = cached_generator_phi(2, np.inf, "powerlog", (0.5, 0, 0))
        assert ok.check_convexity(phi, 1.0) and ok.check_convexity(phi, 2.0)
        assert not ok.check_convexity(phi, 2.5)

    def test_h_form_is_rejected(self):
        # even an affine h, whose phi = a u^q + b u^p would pass: the rule
        # reads the build, not the values
        h = ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0)
        assert not ok.check_convexity(ok.build_from_h(ExponentCouple(1, 2), h), 1.0)

    def test_every_generator_build_passes_the_rule_and_the_probe(self):
        kinds = ("power", "powerlog", "min_one", "max_one", "pwl")
        rng = np.random.default_rng(23)
        built, attempts = Counter(), 0
        while sum(built.values()) < 250:
            kind = kinds[attempts % len(kinds)]
            attempts += 1
            p = float(rng.uniform(1.0, 4.0))
            q = np.inf if rng.random() < 0.5 else p + 1e-3 + float(rng.exponential(3.0))
            try:
                phi = ok.build_from_generator(ExponentCouple(p, q), random_rho(rng, kind))
            except ValueError:
                continue
            assert ok.check_convexity(phi, p)
            for cap in (1e-3, 1.0, 30.0, 1e3):
                grid = np.linspace(0.0, (0.999 * min(cap, phi.u_max)) ** p, 2001)
                check = second_difference_convexity(lambda w: phi(w ** (1.0 / p)), grid)
                assert check.ok, (kind, p, q, cap, check.worst_second_difference)
            built[kind, math.isinf(q)] += 1
        # max_one never builds: its rho is not concave
        assert {kind for kind, _ in built} == {"power", "powerlog", "min_one", "pwl"}
        assert {q_inf for _, q_inf in built} == {True, False}

    def test_square_passes(self):
        grid = np.linspace(0.0, 5.0, 501)
        assert second_difference_convexity(lambda u: u**2, grid).ok

    def test_sqrt_fails(self):
        grid = np.linspace(0.0, 5.0, 501)
        check = second_difference_convexity(lambda u: np.sqrt(u), grid)
        assert not check.ok

    def test_power_log_modular_generator(self):
        grid = np.linspace(0.0, 20.0, 10001)
        f = lambda u: u ** 1 * np.log1p(u ** (2 - 1))
        assert second_difference_convexity(f, grid).ok

    def test_grid_requirements(self):
        with pytest.raises(ValueError):
            second_difference_convexity(lambda u: u, np.linspace(0, 1, 50))
        with pytest.raises(ValueError):
            second_difference_convexity(lambda u: u, np.logspace(0, 1, 200))
