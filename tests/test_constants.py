import numpy as np
import pytest

import orliczkit as ok
from orliczkit import constants
from orliczkit.constants import conjugate_exponent

from oracles import sparr_gamma_oracle


class TestSparrGamma:
    def test_both_one(self):
        assert ok.sparr_gamma(1, 1) == 1.0

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_diagonal_closed_form(self, p):
        assert ok.sparr_gamma(p, p) == pytest.approx(2 ** (1 - 1 / p), abs=1e-9)

    def test_one_two_closed_form(self):
        # stationarity at p=1, q=2: gamma = 1 + 1/2 - 1/4
        assert ok.sparr_gamma(1, 2) == pytest.approx(1.25, abs=1e-9)

    def test_symmetry(self):
        for p, q in [(1, 2), (1.5, 3), (2, 4), (1, 3.5)]:
            assert ok.sparr_gamma(p, q) == pytest.approx(
                ok.sparr_gamma(q, p), abs=1e-9)

    def test_monotone_in_each_argument(self):
        grid = [1.0, 1.5, 2.0, 3.0]
        for q in grid:
            vals = [ok.sparr_gamma(p, q) for p in grid]
            assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_range_restriction(self):
        with pytest.raises(ValueError):
            ok.sparr_gamma(0.5, 2)

    # the oracle takes the whole range [1, 64] of sparr_gamma
    @pytest.mark.parametrize("pq", [(64, 1.01), (16, 1.5), (4, 1.5), (1.0001, 1.0002),
                                    (1, 64), (2, 64), (20, 30), (63.9, 64), (64, 64),
                                    (17, 1), (40, 2.5)])
    def test_exactly_symmetric_within_bounds_and_near_the_oracle(self, pq):
        p, q = pq
        value = ok.sparr_gamma(p, q)
        assert ok.sparr_gamma(q, p) == value
        lo, hi = min(p, q), max(p, q)
        assert 2 ** (1 - 1 / lo) <= value <= 2 ** (1 - 1 / hi)
        assert value == pytest.approx(sparr_gamma_oracle(p, q), abs=1e-6)


class TestGammaCache:
    def test_a_couple_is_bisected_once_in_either_order(self, monkeypatch):
        bisections = []
        bisect = constants._bisect

        def counted(*args):
            bisections.append(args[1:])
            return bisect(*args)

        monkeypatch.setattr(constants, "_bisect", counted)
        constants.sparr_gamma.cache_clear()
        first = ok.sparr_gamma(1.3, 4.7)
        assert len(bisections) == 1
        assert ok.sparr_gamma(1.3, 4.7) == ok.sparr_gamma(4.7, 1.3) == first
        assert len(bisections) == 1
        # the reverse order first: gamma(q, p) bisects as gamma(p, q)
        second = ok.sparr_gamma(5.5, 2.5)
        assert ok.sparr_gamma(2.5, 5.5) == second and len(bisections) == 2

    @pytest.mark.parametrize("pq", [(1, 2), (1.5, 3), (2, 4), (1, 64), (3, 3), (2.5, 1.2)])
    def test_cached_value_is_the_bisection(self, pq):
        # sparr_gamma.__wrapped__ bisects on every call (p <= q)
        p, q = sorted(pq)
        fresh = constants.sparr_gamma.__wrapped__(p, q)
        assert type(ok.sparr_gamma(*pq)) is float and ok.sparr_gamma(*pq) == fresh


class TestSparrOracle:
    def test_diagonal_two(self):
        # inner minimum is gamma^2/2, so the oracle solves gamma^2/2 = 1
        assert sparr_gamma_oracle(2, 2) == pytest.approx(np.sqrt(2.0), abs=1e-7)

    def test_one_two(self):
        # inner minimum is gamma - 1/4 once gamma >= 1/2
        assert sparr_gamma_oracle(1, 2) == pytest.approx(1.25, abs=1e-7)

    def test_both_one(self):
        assert sparr_gamma_oracle(1, 1) == 1.0

    def test_agreement_with_fast_method(self):
        for p, q in [(1, 1.25), (1.25, 2.5), (1.5, 1.5), (2, 3), (4, 1.5)]:
            assert sparr_gamma_oracle(p, q) == pytest.approx(
                ok.sparr_gamma(p, q), abs=1e-6)


class TestGammaBounds:
    def test_examples(self):
        # 2^{1-1/p} <= gamma(p, q) <= 2^{1-1/q} for p <= q
        for p, q in [(1, 2), (2, 2), (1.5, 3)]:
            g = ok.sparr_gamma(p, q)
            assert 2.0 ** (1.0 - 1.0 / p) - 1e-9 <= g <= 2.0 ** (1.0 - 1.0 / q) + 1e-9


class TestInterpolationConstants:
    def test_subadditive_one_two(self):
        assert ok.interp_constant_subadditive(1, 2) == pytest.approx(2.5, abs=1e-9)

    def test_subadditive_envelope(self):
        for p, q in [(1, 2), (1.5, 3), (2, 3), (3, 4)]:
            c = ok.interp_constant_subadditive(p, q)
            assert c <= 2 ** ((2 - 1 / q) / p) + 1e-12
            assert c < 4.0

    def test_concave_h_one_two(self):
        c = ok.interp_constant_concave_h(1, 2)
        assert c == pytest.approx(1.25, abs=1e-9)
        assert c <= np.sqrt(2.0)

    def test_concave_h_near_diagonal_formula(self):
        # as q -> p the value approaches 2^{(1-1/p)/p}
        p = 2.0
        c = ok.interp_constant_concave_h(p, p + 1e-6)
        assert c == pytest.approx(2 ** ((1 - 1 / p) / p), abs=1e-5)

    def test_concave_h_under_two(self):
        for p, q in [(1, 2), (1.5, 2.5), (2, 3), (3, 6)]:
            assert ok.interp_constant_concave_h(p, q) < 2.0

    @pytest.mark.parametrize("pq", [(1.5, 2.0), (2.0, 3.0)])
    def test_linear_under_two_in_stated_ranges(self, pq):
        assert ok.interp_constant_linear(*pq) < 2.0

    def test_linear_branch_symmetry(self):
        for p, q in [(1.5, 2.0), (2.0, 3.0), (1.2, 1.8)]:
            p_conj, q_conj = conjugate_exponent(p), conjugate_exponent(q)
            branch_dual = (2.0 * ok.sparr_gamma(q_conj, p_conj)) ** (1.0 / q_conj)
            assert branch_dual == pytest.approx(
                ok.interp_constant_subadditive(q_conj, p_conj), rel=1e-12)

    def test_linear_needs_p_above_one(self):
        with pytest.raises(ValueError):
            ok.interp_constant_linear(1.0, 2.0)


class TestBerghConstant:
    def test_values(self):
        assert ok.bergh_constant(1) == 1.0
        assert ok.bergh_constant(2) == pytest.approx(np.sqrt(2.0))
        assert ok.bergh_constant(4) == pytest.approx(2.0**0.75)


class TestConjugateExponent:
    def test_values(self):
        assert ok.conjugate_exponent(2) == pytest.approx(2.0)
        assert ok.conjugate_exponent(1.5) == pytest.approx(3.0)
        assert ok.conjugate_exponent(4) == pytest.approx(4.0 / 3.0)

    def test_involution(self):
        for p in (1.1, 1.7, 2.9, 8.0):
            assert ok.conjugate_exponent(ok.conjugate_exponent(p)) == pytest.approx(p, rel=1e-12)

    def test_rejects_p_at_most_one(self):
        with pytest.raises(ValueError):
            ok.conjugate_exponent(1.0)
