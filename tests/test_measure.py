import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orliczkit as ok
from orliczkit.measure import abs_rows, row_chunks

from oracles import golden_section, lp_integral, rearrangement, step_to_sample, sup_norm


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


class TestSampleBatch:
    def test_rows_members_and_validation(self):
        space = ok.uniform_space(3)
        batch = ok.SampleBatch(space, [[1.0, -2.0, 0.0], [0.5, 0.5, 0.5]])
        assert len(batch) == 2 and batch.space is space
        mags, single = abs_rows(batch)
        assert mags.tolist() == [[1.0, 2.0, 0.0], [0.5, 0.5, 0.5]] and not single
        assert batch[np.array([1])].values.tolist() == [[0.5, 0.5, 0.5]]
        assert batch.scaled(0.5).values.tolist() == [[0.5, -1.0, 0.0], [0.25, 0.25, 0.25]]
        assert not batch.values.flags.writeable
        for bad in ([1.0, 2.0, 3.0], [[1.0, 2.0]], [[1.0, np.inf, 0.0]]):
            with pytest.raises(ValueError):
                ok.SampleBatch(space, bad)


class TestRowChunks:
    @given(st.integers(0, 2000), st.integers(0, 600), st.integers(1, 5000))
    @settings(max_examples=200, deadline=None)
    def test_fewest_balanced_runs_within_the_budget(self, rows, width, budget):
        runs = row_chunks(rows, width, budget)
        lengths = [run.stop - run.start for run in runs]
        # consecutive runs that cover every row once
        bounds = [0] + [run.stop for run in runs]
        assert [run.start for run in runs] == bounds[:-1] and bounds[-1] == rows
        assert min(lengths, default=1) >= 1 and all(run.step is None for run in runs)
        if not rows:
            return
        per = max(1, budget // max(width, 1))   # whole rows within the budget, at least one
        assert max(lengths) <= per and max(lengths) - min(lengths) <= 1
        assert len(runs) == -(-rows // per)


class TestRearrangement:
    def test_unit_weights_sorts_absolute_values(self):
        step = rearrangement(sample([3, 1, 2]))
        assert step.levels.tolist() == [3, 2, 1]
        assert step.breakpoints.tolist() == [1, 2, 3]

    def test_constant_merges_to_single_step(self):
        step = rearrangement(sample([-2.5] * 4, [1, 2, 3, 4]))
        assert step.levels.tolist() == [2.5]
        assert step.breakpoints.tolist() == [10.0]

    def test_weighted_signed_case(self):
        step = rearrangement(sample([-2, 4], [0.5, 2.0]))
        assert step.levels.tolist() == [4, 2]
        assert step.breakpoints.tolist() == [2.0, 2.5]

    def test_idempotent_on_induced_sample(self):
        step = rearrangement(sample([3, 1, 2, 1], [1, 0.5, 2, 1]))
        again = rearrangement(step_to_sample(step))
        assert np.array_equal(step.levels, again.levels)
        assert np.array_equal(step.breakpoints, again.breakpoints)

    @given(values_strategy, weights_strategy)
    @settings(max_examples=60, deadline=None)
    def test_preserves_total_measure_and_mass(self, values, weights):
        n = min(len(values), len(weights))
        x = sample(values[:n], weights[:n])
        step = rearrangement(x)
        assert step.total_measure == pytest.approx(x.space.weights.sum())
        assert np.all(np.diff(step.levels) <= 0)


class TestLpIntegral:
    def test_simple_square_sum(self):
        assert lp_integral(sample([1, 2]), 2) == pytest.approx(5.0)

    def test_zero_function(self):
        assert lp_integral(sample([0, 0, 0]), 1.5) == 0.0

    def test_rearrangement_invariance_examples(self):
        x = sample([3, 1, 2])
        step = rearrangement(x)
        for p in (1, 1.5, 2, 3):
            assert lp_integral(x, p) == pytest.approx(lp_integral(step, p), rel=1e-12)

    @given(values_strategy, st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    @settings(max_examples=60, deadline=None)
    def test_rearrangement_invariance_property(self, values, p):
        x = sample(values)
        assert lp_integral(x, p) == pytest.approx(
            lp_integral(rearrangement(x), p), rel=1e-12, abs=1e-12
        )

    def test_rejects_infinite_p(self):
        with pytest.raises(ValueError):
            lp_integral(sample([1.0]), np.inf)


class TestSupNorm:
    def test_signed_max(self):
        assert sup_norm(sample([-3, 1])) == 3.0

    def test_zero(self):
        assert sup_norm(sample([0.0, 0.0])) == 0.0

    def test_large_p_limit(self):
        x = sample([1, 2, 4])
        approx = lp_integral(x, 200) ** (1.0 / 200)
        assert abs(approx - sup_norm(x)) / sup_norm(x) < 0.01


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
