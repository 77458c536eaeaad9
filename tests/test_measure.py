import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orliczkit as ok
from orliczkit.measure import golden_section


def sample(values, weights=None):
    weights = [1.0] * len(values) if weights is None else weights
    return ok.SampleFunction(ok.DiscreteMeasureSpace(weights), values)


values_strategy = st.lists(
    st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), min_size=1, max_size=8
)
weights_strategy = st.lists(
    st.floats(min_value=0.1, max_value=5.0, allow_nan=False), min_size=1, max_size=8
)


class TestSpaces:
    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            ok.DiscreteMeasureSpace([1.0, 0.0])

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            ok.SampleFunction(ok.uniform_space(2), [1.0])

    def test_total_measure(self):
        assert ok.DiscreteMeasureSpace([0.5, 2.0]).total_measure == 2.5


class TestSampleBatch:
    def test_rows_members_and_validation(self):
        space = ok.uniform_space(3)
        batch = ok.SampleBatch(space, [[1.0, -2.0, 0.0], [0.5, 0.5, 0.5]])
        assert len(batch) == 2 and batch.space is space
        assert batch.abs_values().tolist() == [[1.0, 2.0, 0.0], [0.5, 0.5, 0.5]]
        assert batch[np.array([1])].values.tolist() == [[0.5, 0.5, 0.5]]
        assert not batch.values.flags.writeable
        for bad in ([1.0, 2.0, 3.0], [[1.0, 2.0]], [[1.0, np.inf, 0.0]]):
            with pytest.raises(ValueError):
                ok.SampleBatch(space, bad)

    def test_stack_keeps_member_values(self):
        members = [sample([1.0, -2.0]), sample([3.0, 0.0])]
        batch = ok.SampleBatch.stack(members)
        assert batch.values.tolist() == [[1.0, -2.0], [3.0, 0.0]]

    def test_members_on_two_spaces_raise(self):
        a = sample([1.0, 2.0], [1.0, 1.0])
        b = sample([1.0, 2.0], [1.0, 2.0])
        with pytest.raises(ValueError, match="different spaces"):
            ok.SampleBatch.stack([a, b])
        with pytest.raises(ValueError):
            ok.SampleBatch.stack([])


class TestRearrangement:
    def test_unit_weights_sorts_absolute_values(self):
        step = ok.rearrangement(sample([3, 1, 2]))
        assert step.levels.tolist() == [3, 2, 1]
        assert step.breakpoints.tolist() == [1, 2, 3]

    def test_constant_merges_to_single_step(self):
        step = ok.rearrangement(sample([-2.5] * 4, [1, 2, 3, 4]))
        assert step.levels.tolist() == [2.5]
        assert step.breakpoints.tolist() == [10.0]

    def test_weighted_signed_case(self):
        step = ok.rearrangement(sample([-2, 4], [0.5, 2.0]))
        assert step.levels.tolist() == [4, 2]
        assert step.breakpoints.tolist() == [2.0, 2.5]

    def test_idempotent_on_induced_sample(self):
        step = ok.rearrangement(sample([3, 1, 2, 1], [1, 0.5, 2, 1]))
        again = ok.rearrangement(ok.step_to_sample(step))
        assert np.array_equal(step.levels, again.levels)
        assert np.array_equal(step.breakpoints, again.breakpoints)

    @given(values_strategy, weights_strategy)
    @settings(max_examples=60, deadline=None)
    def test_preserves_total_measure_and_mass(self, values, weights):
        n = min(len(values), len(weights))
        x = sample(values[:n], weights[:n])
        step = ok.rearrangement(x)
        assert step.total_measure == pytest.approx(x.space.total_measure)
        assert np.all(np.diff(step.levels) <= 0)


class TestLpIntegral:
    def test_simple_square_sum(self):
        assert ok.lp_integral(sample([1, 2]), 2) == pytest.approx(5.0)

    def test_zero_function(self):
        assert ok.lp_integral(sample([0, 0, 0]), 1.5) == 0.0

    def test_rearrangement_invariance_examples(self):
        x = sample([3, 1, 2])
        step = ok.rearrangement(x)
        for p in (1, 1.5, 2, 3):
            assert ok.lp_integral(x, p) == pytest.approx(ok.lp_integral(step, p), rel=1e-12)

    @given(values_strategy, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_rearrangement_invariance_property(self, values, p):
        x = sample(values)
        assert ok.lp_integral(x, p) == pytest.approx(
            ok.lp_integral(ok.rearrangement(x), p), rel=1e-12, abs=1e-12
        )

    def test_rejects_infinite_p(self):
        with pytest.raises(ValueError):
            ok.lp_integral(sample([1.0]), np.inf)


class TestSupNorm:
    def test_signed_max(self):
        assert ok.sup_norm(sample([-3, 1])) == 3.0

    def test_zero(self):
        assert ok.sup_norm(sample([0.0, 0.0])) == 0.0

    def test_large_p_limit(self):
        x = sample([1, 2, 4])
        approx = ok.lp_integral(x, 200) ** (1.0 / 200)
        assert abs(approx - ok.sup_norm(x)) / ok.sup_norm(x) < 0.01


class TestHardyMajorizes:
    def test_self_majorization_margin_zero(self):
        x = sample([2, 1, 3], [1, 2, 1])
        res = ok.hardy_majorizes(x, x, 2)
        assert res.ok and res.margin == 0.0

    def test_spread_majorized_by_concentration(self):
        res = ok.hardy_majorizes(sample([1, 1]), sample([2, 0]), 1)
        assert res.ok

    def test_concentration_not_majorized_by_spread(self):
        res = ok.hardy_majorizes(sample([2, 0]), sample([1, 1]), 1)
        assert not res.ok
        assert res.margin == pytest.approx(-1.0)

    def test_total_measure_mismatch(self):
        with pytest.raises(ValueError):
            ok.hardy_majorizes(sample([1]), sample([1, 1]), 1)

    def test_transitive_on_passing_triples(self):
        rng = np.random.default_rng(3)
        found = 0
        for _ in range(300):
            a, b, c = (sample(rng.uniform(-2, 2, 5)) for _ in range(3))
            if ok.hardy_majorizes(a, b, 1).ok and ok.hardy_majorizes(b, c, 1).ok:
                found += 1
                assert ok.hardy_majorizes(a, c, 1).ok
        assert found > 5


class TestGoldenSection:
    def test_rows_close_on_their_own_minimisers(self):
        lo = np.array([-1.0, 0.0, 10.0, 2.0])
        hi = np.array([1.0, 100.0, 10.5, 2.0])   # the last bracket is closed from the start
        centre = np.array([0.3, 71.0, 10.1, 2.0])
        tol = 1e-9
        seen = []

        def f(rows, points):
            assert np.all(hi[rows] - lo[rows] > tol)
            seen.append(rows.copy())
            return (points - centre[rows]) ** 2

        a, b = golden_section(f, lo, hi, tol)
        assert np.all(b - a <= tol)
        assert np.all(np.abs(0.5 * (a + b) - centre) <= tol)
        assert not any(3 in rows for rows in seen)
        # a narrower bracket closes in fewer steps, after which f skips its row
        assert sum(2 in rows for rows in seen) < sum(1 in rows for rows in seen)

    def test_closed_rows_are_never_evaluated(self):
        def f(rows, points):
            assert rows.size == 0, "no row is open"
            return np.empty(0)

        a, b = golden_section(f, np.array([0.0, 5.0]), np.array([1e-12, 5.0]), 1e-9)
        assert a.tolist() == [0.0, 5.0] and b.tolist() == [1e-12, 5.0]

    def test_per_row_tolerance_stops_each_row_on_its_own(self):
        # three copies of one problem, each with its own tolerance
        tol = np.array([1e-3, 1e-12, 1e-6])
        steps = np.zeros(3, dtype=int)

        def f(rows, points):
            steps[rows] += 1
            return (points - 0.3) ** 2

        a, b = golden_section(f, np.zeros(3), np.ones(3), tol)
        assert np.all(b - a <= tol) and np.all(b - a > tol / 1.7)
        assert steps[0] < steps[2] < steps[1]
        # each row ends where a call with its tolerance alone ends
        for i in range(3):
            alone = golden_section(lambda rows, points: (points - 0.3) ** 2,
                                   np.zeros(1), np.ones(1), tol[i])
            assert (a[i], b[i]) == (alone[0][0], alone[1][0])
