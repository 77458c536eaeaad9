import dataclasses

import numpy as np
import pytest

import orliczkit as ok
from orliczkit.quasiconcave import (QUASICONCAVITY_TOL, _lower_line_envelope,
                                    concavity_violation, log_grid, quasiconcavity_violation)

from oracles import peetre_value, phi_expansion, reconstruct, second_difference_convexity

# the grid a generator build checks rho on
CHECK_GRID = log_grid(points_per_decade=16)
NO_ATOMS = np.zeros(0)


def square_jet(t):
    """The jet of t^2: not quasi-concave, with elasticity 2."""
    t = np.asarray(t, dtype=float)
    return np.stack((t**2, 2.0 * t**2, 2.0 * t**2))


def random_concave_plc(rng, knots=5):
    """Concave piecewise linear function with strictly decreasing slopes."""
    xs = np.sort(rng.uniform(0.1, 10.0, knots))
    slopes = np.sort(rng.uniform(0.0, 3.0, knots + 1))[::-1]
    values = [rng.uniform(0.5, 2.0) + slopes[0] * xs[0]]
    for i in range(1, knots):
        values.append(values[-1] + slopes[i] * (xs[i] - xs[i - 1]))
    return ok.PiecewiseLinearConcave(xs, values, slopes[0], slopes[-1])


class TestIsQuasiConcave:
    """0 <= t*rho' <= rho, read off the jet at each grid point."""

    def test_min_one_passes(self):
        assert quasiconcavity_violation(ok.min_one_rho()(CHECK_GRID)) == 0.0

    def test_square_fails(self):
        assert quasiconcavity_violation(square_jet(CHECK_GRID)) == pytest.approx(1.0, rel=1e-15)

    def test_max_one_passes(self):
        assert quasiconcavity_violation(ok.max_one_rho()(CHECK_GRID)) == 0.0

    def test_each_point_is_checked_on_its_own(self):
        # no chord joins two points, so one point is a whole check
        assert quasiconcavity_violation(square_jet([2.0])) == pytest.approx(1.0, rel=1e-15)
        assert quasiconcavity_violation(ok.max_one_rho()([0.5])) == 0.0

    def test_a_falling_rho_fails(self):
        # 1 + 1/t falls, with elasticity -1/(t + 1)
        def falling(t):
            t = np.asarray(t, dtype=float)
            return np.stack((1.0 + 1.0 / t, -1.0 / t, 2.0 / t))

        assert quasiconcavity_violation(falling([1.0])) == pytest.approx(0.5, rel=1e-15)

    def test_nonpositive_rejected(self):
        def shifted(t):
            t = np.asarray(t, dtype=float)
            return np.stack((t - 1e5, t, np.zeros(t.shape)))

        with pytest.raises(ValueError, match="finite and positive"):
            quasiconcavity_violation(shifted(CHECK_GRID))


class TestPowerLog:
    def test_plain_power_at_one(self):
        assert float(ok.power_log_rho(0.5, 0, 0)(1.0)[0]) == pytest.approx(1.0)

    def test_log_factor_at_one(self):
        assert float(ok.power_log_rho(0.5, 1, 0)(1.0)[0]) == pytest.approx(np.log(np.e + 1.0))

    @pytest.mark.parametrize("params", [(0.3, 1, -1), (0.7, -1, 1)])
    def test_admissible_members_are_quasiconcave(self, params):
        rows = ok.power_log_rho(*params)(CHECK_GRID)
        assert quasiconcavity_violation(rows) <= QUASICONCAVITY_TOL

    def test_theta_range_enforced(self):
        with pytest.raises(ValueError):
            ok.power_log_rho(1.0, 0, 0)

    def test_zero_at_zero(self):
        assert np.array_equal(ok.power_log_rho(0.4, 2, 1)(0.0), np.zeros(3))


class TestConcaveMajorant:
    @pytest.mark.parametrize("a", [1e300, -1e308])
    def test_rho_beyond_the_float_range_is_rejected_without_warning(self, a):
        with pytest.raises(ValueError, match="^rho must be finite and positive on the grid$"):
            ok.concave_majorant(ok.power_log_rho(0.5, a, 0.0))

    def test_min_one_is_fixed_point(self):
        maj = ok.concave_majorant(ok.min_one_rho())
        grid = log_grid()
        rho = np.minimum(1.0, grid)
        assert np.max(np.abs(maj(grid) - rho) / rho) < 1e-8

    def test_max_one_becomes_affine(self):
        maj = ok.concave_majorant(ok.max_one_rho())
        ts = np.logspace(-6, 6, 200)
        assert np.max(np.abs(maj(ts) - (1.0 + ts)) / (1.0 + ts)) < 1e-8

    @pytest.mark.parametrize("params", [(0.5, 0, 0), (0.3, 1, -1), (0.7, -1, 1)])
    def test_two_sided_comparison(self, params):
        rho = ok.power_log_rho(*params)
        maj = ok.concave_majorant(rho)
        grid = log_grid()
        ratio = maj(grid) / rho(grid)[0]
        assert ratio.min() >= 1.0 - 1e-8
        assert ratio.max() <= 2.0 + 1e-8

    def test_output_is_certified_concave(self):
        maj, grid = ok.concave_majorant(ok.power_log_rho(0.4, 1, 0)), log_grid(1e-6, 1e6, 32)
        assert concavity_violation(maj.jet(grid), grid) <= 1e-12

    def test_non_quasiconcave_rejected(self):
        with pytest.raises(ValueError, match=r"^rho fails the quasi-concavity check \(violation 1\.000e\+00\)$"):
            ok.concave_majorant(square_jet)

    def test_checks_only_the_grid(self):
        # 1 + max(0, t - 1e9) is quasi-concave on the grid, 1e-8..1e8, and not
        # beyond it, where the family of lines is extended but not checked
        def late_rise(t):
            t = np.asarray(t, dtype=float)
            over = t > 1e9
            return np.stack((np.where(over, t - 1e9 + 1.0, 1.0), np.where(over, t, 0.0),
                             np.zeros(t.shape)))

        grid = log_grid()
        assert quasiconcavity_violation(late_rise(grid)) == 0.0
        ratio = ok.concave_majorant(late_rise)(grid) / late_rise(grid)[0]
        assert ratio.min() >= 1.0 and ratio.max() <= 2.0

    def test_envelope_matches_direct_pairwise_minimum(self):
        # independent O(n^2) route to inf over grid s of (1 + t/s) rho(s)
        rho = ok.power_log_rho(0.4, 1, 0)
        coarse = log_grid(1e-4, 1e4, 32)
        maj = ok.concave_majorant(rho, grid=coarse, extend_decades=0.0)
        vals = rho(coarse)[0]
        direct = np.min(vals[None, :] * (1.0 + coarse[:, None] / coarse[None, :]), axis=1)
        assert np.allclose(maj(coarse), direct, rtol=1e-12)

    def test_line_crossing_beyond_the_float_range_is_skipped(self):
        # slopes 1 + 2^-52 and 1 with intercepts 0 and 1e300 cross at
        # t = 4.5e315: the second line is never lowest on floats
        a, b, cuts = _lower_line_envelope(np.array([0.0, 1e300]), np.array([1.0 + 2.0**-52, 1.0]))
        assert a.tolist() == [0.0] and b.tolist() == [1.0 + 2.0**-52] and cuts.size == 0
        # a third line still meets the hull at a finite crossing
        a, b, cuts = _lower_line_envelope(np.array([0.0, 1e300, 1.0]),
                                          np.array([1.0 + 2.0**-52, 1.0, 0.5]))
        assert a.tolist() == [0.0, 1.0] and cuts.tolist() == [1.0 / (0.5 + 2.0**-52)]


class TestPiecewiseLinearConcave:
    """One line per piece: below the first knot, between knots, beyond the last."""

    def test_one_line_per_piece(self):
        h = ok.PiecewiseLinearConcave([0.1, 1.0, 5.0], [0.5, 1.0, 1.5], 5.0, 0.01)
        np.testing.assert_allclose(h.slopes, [5.0, 0.5 / 0.9, 0.125, 0.01], rtol=1e-15)
        np.testing.assert_allclose(h.intercepts, [0.0, 0.5 - 0.05 / 0.9, 0.875, 1.45],
                                   rtol=1e-15, atol=1e-16)
        # the tables are the whole record: no slope or value is stored twice
        fields = [f.name for f in dataclasses.fields(h)]
        assert fields == ["knots", "values", "slopes", "intercepts"]
        for table in (h.knots, h.values, h.slopes, h.intercepts):
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_interpolates_inside_and_extends_outside(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            h = random_concave_plc(rng)
            k, v = h.knots, h.values
            np.testing.assert_allclose(h(k), v, rtol=1e-14)
            u = rng.uniform(k[0], k[-1], 200)
            np.testing.assert_allclose(h(u), np.interp(u, k, v), rtol=1e-14)
            below, above = k[0] * rng.uniform(0, 1, 50), k[-1] * rng.uniform(1, 10, 50)
            np.testing.assert_allclose(h(below), v[0] + h.slopes[0] * (below - k[0]), rtol=1e-13)
            np.testing.assert_allclose(h(above), v[-1] + h.slopes[-1] * (above - k[-1]),
                                       rtol=1e-14)

    def test_exact_below_the_first_knot(self):
        # min(1, s): h(0+) = 0, so below the knot h is slopes[0] * s with
        # nothing to cancel, down to the least positive float
        h = ok.PiecewiseLinearConcave([1.0], [1.0], 1.0, 0.0)
        s = np.array([5e-324, 1e-300, 1e-20, 1e-8, 0.5, 1.0, 2.0, 1e300])
        assert h(s).tolist() == np.minimum(1.0, s).tolist()

    def test_shape_follows_the_argument(self):
        h = ok.PiecewiseLinearConcave([0.1, 1.0, 5.0], [0.5, 1.0, 1.5], 5.0, 0.01)
        assert h(2.0).shape == () and h(np.zeros((2, 3))).shape == (2, 3)
        assert h(np.zeros(0)).shape == (0,)
        assert h.jet(2.0).shape == (3,) and h.jet(np.zeros((2, 3))).shape == (3, 2, 3)

    def test_first_intercept_that_rounds_below_zero_is_zero(self):
        # min(0.1 s, 0.3): 0.3 - 0.1 * 3 rounds to -5.6e-17, which would make
        # h negative below 5.6e-16
        h = ok.PiecewiseLinearConcave([3.0], [0.3], 0.1, 0.0)
        assert h.intercepts[0] == 0.0
        assert np.all(h(np.array([1e-300, 1e-20, 1e-8])) > 0.0)
        assert quasiconcavity_violation(h.jet(CHECK_GRID)) == 0.0

    def test_from_lines_keeps_the_lines(self):
        a, b, k = np.array([0.0, 0.5, 1.25]), np.array([1.0, 0.5, 0.125]), np.array([1.0, 2.0])
        h = ok.PiecewiseLinearConcave._from_lines(k, a, b)
        assert np.array_equal(h.intercepts, a) and np.array_equal(h.slopes, b)
        assert h.values.tolist() == [1.0, 1.5]
        assert h(np.array([0.5, 1.5, 4.0])).tolist() == [0.5, 1.25, 1.75]

    def test_jet_is_the_slope_of_each_piece(self):
        h = ok.PiecewiseLinearConcave([0.1, 1.0, 5.0], [0.5, 1.0, 1.5], 5.0, 0.01)
        s = np.array([0.05, 0.1, 0.5, 1.0, 3.0, 5.0, 50.0])
        piece = np.searchsorted(h.knots, s, side="right")
        assert np.array_equal(h.jet(s), [h(s), h.slopes[piece] * s, np.zeros(s.size)])


class TestJets:
    """Each generator kind is its jet (rho, t*rho', t^2*rho'')."""

    KINDS = {
        "powerlog": lambda: ok.power_log_rho(0.3, 1, -1),
        "powerlog_both": lambda: ok.power_log_rho(0.4, 2, 1),
        "powerlog_sqrt": lambda: ok.power_log_rho(0.5, 0, 0),
        "power": lambda: ok.power_rho(0.8),
        "min_one": ok.min_one_rho,
        "max_one": ok.max_one_rho,
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_rows_match_central_differences(self, kind):
        rho = self.KINDS[kind]()
        # away from the kink at t = 1 of min_one and max_one
        t = np.exp(np.linspace(np.log(1e-6), np.log(1e6), 40))
        h = 1e-5
        up, mid, down = rho(t * (1 + h))[0], rho(t)[0], rho(t * (1 - h))[0]
        jet = rho(t)
        np.testing.assert_allclose(jet[1], (up - down) / (2 * h), rtol=1e-9, atol=1e-12)
        # the second difference carries a rounding error of about 1e-5 * rho
        second = (up - 2 * mid + down) / (h * h)
        assert np.all(np.abs(jet[2] - second) <= 1e-4 * (np.abs(second) + mid))

    def test_powerlog_values_are_the_closed_form(self):
        t = np.exp(np.linspace(np.log(1e-300), np.log(1e300), 101))
        want = t**0.4 * np.log(np.e + t) ** 2 * np.log(np.e + 1.0 / t)
        np.testing.assert_allclose(ok.power_log_rho(0.4, 2, 1)(t)[0], want, rtol=1e-14)

    def test_min_one_is_the_table(self):
        t = np.array([1e-300, 0.5, 1.0, 2.0, 1e300])
        assert ok.min_one_rho()(t).tolist() == [np.minimum(1.0, t).tolist(),
                                                 [1e-300, 0.5, 0.0, 0.0, 0.0], [0.0] * 5]


class TestPeetre:
    def test_min_form(self):
        h = ok.PiecewiseLinearConcave([1.0], [1.0], 1.0, 0.0)
        rep = ok.peetre_decompose(h)
        assert rep.a == 0.0 and rep.b == 0.0
        assert rep.atom_locations.tolist() == [1.0]
        assert rep.atom_masses.tolist() == [1.0]

    def test_affine_form(self):
        rep = ok.peetre_decompose(ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0))
        assert rep.a == 1.0 and rep.b == 1.0 and rep.atom_locations.size == 0

    def test_random_round_trip_exact_at_knots(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            h = random_concave_plc(rng)
            rep = ok.peetre_decompose(h)
            assert np.allclose(peetre_value(rep, h.knots), h.values, rtol=1e-12, atol=1e-12)
            mids = np.sqrt(h.knots[:-1] * h.knots[1:])
            assert np.allclose(peetre_value(rep, mids), h(mids), rtol=1e-12, atol=1e-12)

    def test_decompose_reconstruct_identity(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            rep = ok.peetre_decompose(random_concave_plc(rng))
            back = ok.peetre_decompose(reconstruct(rep))
            assert back.a == pytest.approx(rep.a, rel=1e-12, abs=1e-12)
            assert back.b == pytest.approx(rep.b, rel=1e-12, abs=1e-12)
            assert np.allclose(back.atom_locations, rep.atom_locations, rtol=1e-12)
            assert np.allclose(back.atom_masses, rep.atom_masses, rtol=1e-12)

    def test_non_concave_data_rejected(self):
        with pytest.raises(ValueError):
            ok.PiecewiseLinearConcave([1.0, 2.0], [1.0, 3.0], 1.0, 0.0)


class TestPhiExpansion:
    def test_affine_part(self):
        rep = ok.PeetreRepresentation(1.0, 1.0, NO_ATOMS, NO_ATOMS)
        assert float(phi_expansion(rep, 1, 2, 3.0)) == pytest.approx(12.0)

    def test_single_atom(self):
        rep = ok.PeetreRepresentation(0.0, 0.0, np.array([1.0]), np.array([1.0]))
        assert float(phi_expansion(rep, 1, 2, 2.0)) == pytest.approx(2.0)

    def test_matches_h_route_on_random_inputs(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            h = random_concave_plc(rng)
            rep = ok.peetre_decompose(h)
            p, q = sorted(rng.uniform(1.0, 4.0, 2))
            if q - p < 0.2:
                q = p + 0.5
            phi = ok.build_from_h(ok.ExponentCouple(p, q), h)
            us = rng.uniform(0.01, 20.0, 50)
            direct = phi(us)
            expanded = phi_expansion(rep, p, q, us)
            assert np.allclose(expanded, direct, rtol=1e-10, atol=1e-12)

    def test_atom_free_expansion_is_convex(self):
        rep = ok.PeetreRepresentation(0.7, 1.3, NO_ATOMS, NO_ATOMS)
        grid = np.linspace(0.0, 10.0, 2001)
        assert second_difference_convexity(lambda u: phi_expansion(rep, 1.5, 3.0, u), grid).ok

    def test_single_atom_expansion_has_concave_kink(self):
        # min(u^p, t*u^q) drops slope at its crossover, so expansions with
        # atoms are not convex in general; the convexity claim belongs to
        # generator-built functions.
        rep = ok.PeetreRepresentation(0.0, 0.0, np.array([1.0]), np.array([1.0]))
        grid = np.linspace(0.0, 4.0, 2001)
        assert not second_difference_convexity(lambda u: phi_expansion(rep, 1, 2, u), grid).ok
