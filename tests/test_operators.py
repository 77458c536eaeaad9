import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orliczkit as ok
from orliczkit import operators
from orliczkit.orlicz import ExponentCouple
from orliczkit.specs import random_contractive

from oracles import (
    boyd_lower_bound,
    homogeneity_violation,
    maximal_prefix_oracle,
    operator_matrix,
    subadditivity_violation,
    window_average_matrices,
)

COUPLE = ExponentCouple(1, 2)


@pytest.fixture(scope="module")
def space():
    return ok.uniform_space(6)


def shipped_operators(space):
    cyclic = 0.9 * np.roll(np.eye(space.n), 1, axis=1)
    return {
        "identity": ok.identity_operator(space, COUPLE),
        "averaging": ok.averaging_operator(space, COUPLE),
        "scaled_shift": ok.contractive_matrix(space, cyclic, COUPLE),
        "half_multiplier": ok.multiplier(space, np.full(space.n, 0.5), COUPLE),
        "truncation": ok.multiplier(space, [1, 1, 1, 0, 0, 0], COUPLE),
        "maximal": ok.discrete_maximal(space, COUPLE),
        "max_of_mix": ok.max_of([
            ok.identity_operator(space, COUPLE),
            ok.multiplier(space, np.full(space.n, 0.25), COUPLE),
        ]),
    }


class TestContractiveMatrix:
    def test_identity(self, space):
        op = ok.contractive_matrix(space, np.eye(space.n), COUPLE)
        assert op.bound_p == op.bound_q == 1.0
        x = ok.SampleFunction(space, np.arange(space.n, dtype=float))
        assert np.array_equal(op.apply(x).values, x.values)

    def test_averaging_bounds_one(self, space):
        op = ok.averaging_operator(space, COUPLE)
        assert op.bound_p == pytest.approx(1.0)
        assert op.bound_q == pytest.approx(1.0)

    def test_scaled_cyclic_shift(self, space):
        cyclic = 0.9 * np.roll(np.eye(space.n), 1, axis=1)
        op = ok.contractive_matrix(space, cyclic, COUPLE)
        assert op.bound_p == pytest.approx(0.9)
        assert op.bound_q == pytest.approx(0.9)

    def test_row_sum_violation(self, space):
        bad = np.eye(space.n) * 1.5
        with pytest.raises(ValueError):
            ok.contractive_matrix(space, bad, COUPLE)

    def test_requires_uniform_weights(self):
        sp = ok.DiscreteMeasureSpace([1.0, 2.0])
        with pytest.raises(ValueError):
            ok.contractive_matrix(sp, np.eye(2), ExponentCouple(1, 2))


class TestMultiplier:
    def test_ones_is_identity(self, space):
        op = ok.multiplier(space, np.ones(space.n), COUPLE)
        assert op.bound_p == 1.0
        x = ok.SampleFunction(space, np.linspace(-1, 1, space.n))
        assert np.array_equal(op.apply(x).values, x.values)

    def test_indicator_truncation(self, space):
        op = ok.multiplier(space, [1, 0, 1, 0, 0, 0], COUPLE)
        x = ok.SampleFunction(space, np.arange(space.n, dtype=float))
        assert op.apply(x).values.tolist() == [[0, 0, 2, 0, 0, 0]]

    def test_half_bound(self, space):
        op = ok.multiplier(space, np.full(space.n, 0.5), COUPLE)
        assert op.bound_p == op.bound_q == 0.5

    def test_cap_enforced(self, space):
        with pytest.raises(ValueError):
            ok.multiplier(space, np.full(space.n, 1.5), COUPLE)


class TestMaxOf:
    def test_singleton_is_absolute_value(self, space):
        op = ok.max_of([ok.identity_operator(space, COUPLE)])
        x = ok.SampleFunction(space, np.linspace(-2, 2, space.n))
        assert np.array_equal(op.apply(x).values, np.abs(x.values))
        assert op.bound_p == 1.0

    def test_scaled_identities_certificate_is_upper_bound(self, space):
        cs = [1.0, 0.5, 0.25]
        members = [ok.multiplier(space, np.full(space.n, c), COUPLE) for c in cs]
        op = ok.max_of(members)
        assert op.bound_p == pytest.approx(sum(c**1 for c in cs))
        assert op.bound_q == pytest.approx(np.sqrt(sum(c**2 for c in cs)))
        est = boyd_lower_bound(op, 2, members)
        assert est <= op.bound_q + 1e-9
        assert est == pytest.approx(max(cs), rel=1e-9)

    def test_subadditivity_probes(self, space):
        op = ok.max_of([
            ok.averaging_operator(space, COUPLE),
            ok.multiplier(space, np.full(space.n, 0.7), COUPLE),
        ])
        assert subadditivity_violation(op, pairs=1000, seed=5) <= 1e-10

    def test_linear_members_make_it_sublinear(self, space):
        op = ok.max_of([ok.identity_operator(space, COUPLE),
                        ok.averaging_operator(space, COUPLE)])
        assert op.kind == "sublinear"
        # exact up to one rounding of the matrix products
        assert homogeneity_violation(op) <= 1e-14

    def test_space_mismatch(self, space):
        other = ok.uniform_space(3)
        with pytest.raises(ValueError):
            ok.max_of([ok.identity_operator(space, COUPLE),
                       ok.identity_operator(other, COUPLE)])


class TestDiscreteMaximal:
    def test_constant_function_fixed(self, space):
        op = ok.discrete_maximal(space, COUPLE)
        x = ok.SampleFunction(space, np.full(space.n, -1.5))
        assert np.allclose(op.apply(x).values, 1.5)

    def test_single_spike_decay(self):
        sp = ok.uniform_space(4)
        op = ok.discrete_maximal(sp, COUPLE)
        x = ok.SampleFunction(sp, [1, 0, 0, 0])
        assert np.allclose(op.apply(x).values, [1, 1 / 2, 1 / 3, 1 / 4])

    def test_inf_bound_is_one_and_probes_pass(self, space):
        op = ok.discrete_maximal(space, ExponentCouple(2, np.inf))
        assert op.bound_q == 1.0
        assert subadditivity_violation(op, pairs=500, seed=9) <= 1e-10

    def test_matches_literal_window_max_of(self):
        sp = ok.uniform_space(5)
        op = ok.discrete_maximal(sp, COUPLE)
        members = [ok.contractive_matrix(sp, a, COUPLE) for a in window_average_matrices(5)]
        literal = ok.max_of(members)
        assert literal.bound_p == pytest.approx(op.bound_p)
        assert literal.bound_q == pytest.approx(op.bound_q)
        rng = np.random.default_rng(41)
        for _ in range(20):
            v = rng.normal(size=5)
            got = op.apply(ok.SampleFunction(sp, v)).values
            want = literal.apply(ok.SampleFunction(sp, np.abs(v))).values
            assert np.allclose(got, want, atol=1e-13)

    def test_between_average_and_sup(self, space):
        op = ok.discrete_maximal(space, COUPLE)
        rng = np.random.default_rng(42)
        for _ in range(20):
            v = rng.uniform(-2, 2, space.n)
            out = op.apply(ok.SampleFunction(space, v)).values
            assert np.all(out >= np.mean(np.abs(v)) - 1e-12)
            assert np.all(out <= np.max(np.abs(v)) + 1e-12)


MAXIMAL_SIZES = (1, 2, 3, 7, 8, 9, 33, 100, 512)
ROW_KINDS = ("zero", "constant", "spike", "lognormal")


def kernel_row(kind, n, rng):
    if kind == "zero":
        return np.zeros(n)
    if kind == "constant":
        return np.full(n, rng.uniform(-3.0, 3.0))
    if kind == "spike":
        row = np.zeros(n)
        row[rng.integers(0, n)] = rng.uniform(0.5, 2.0)
        return row
    return rng.choice([-1.0, 1.0], n) * np.exp(rng.normal(0.0, 2.0, n))


def maximal_batch(rows):
    op = ok.discrete_maximal(ok.uniform_space(rows.shape[1]), COUPLE)
    return op.apply(ok.SampleBatch(op.space, rows)).values


def oracle_batch(rows):
    return np.stack([maximal_prefix_oracle(r) for r in rows])


def top_rows_budget(n, count):
    """A chunk budget that holds `count` rows of the top block level at n."""
    size = 1 << (n - 1).bit_length()
    return count * size * size // 4


class TestWindowMaximalKernel:
    @pytest.mark.parametrize("n", MAXIMAL_SIZES)
    def test_fixed_rows_equal_prefix_oracle_bitwise(self, n):
        rng = np.random.default_rng(500 + n)
        rows = np.stack([kernel_row(kind, n, rng) for kind in ROW_KINDS + ("lognormal",) * 3])
        got = maximal_batch(rows)
        assert got.shape == rows.shape
        assert got.tobytes() == oracle_batch(rows).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(n=st.sampled_from(MAXIMAL_SIZES),
           kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=5),
           seed=st.integers(0, 2**32 - 1))
    def test_equals_prefix_oracle_bitwise(self, n, kinds, seed):
        rng = np.random.default_rng(seed)
        rows = np.stack([kernel_row(kind, n, rng) for kind in kinds])
        assert maximal_batch(rows).tobytes() == oracle_batch(rows).tobytes()

    @pytest.mark.parametrize("n", range(1, 13))
    def test_near_literal_max_of_window_averages(self, n):
        sp = ok.uniform_space(n)
        literal = ok.max_of([ok.contractive_matrix(sp, a, COUPLE)
                             for a in window_average_matrices(n)])
        rng = np.random.default_rng(900 + n)
        rows = np.stack([kernel_row(kind, n, rng) for kind in ROW_KINDS * 3])
        got = maximal_batch(rows)
        want = literal.apply(ok.SampleBatch(sp, np.abs(rows))).values
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(np.abs(want), 1.0))

    def test_batch_beyond_one_chunk_equals_row_by_row(self, monkeypatch):
        # at n = 512 the top block level holds four rows per chunk of the
        # whole budget, so nine rows split across CPUs, and one row per chunk
        # of each thread's third of it; a lone row never splits
        sp = ok.uniform_space(512)
        op = ok.discrete_maximal(sp, COUPLE)
        rng = np.random.default_rng(61)
        rows = np.stack([kernel_row(ROW_KINDS[i % 4], 512, rng) for i in range(9)])
        for cpus in (1, 3):
            monkeypatch.setattr(operators, "_usable_cpus", lambda: cpus)
            batch = op.apply(ok.SampleBatch(sp, rows)).values
            alone = np.concatenate([op.apply(ok.SampleFunction(sp, r)).values for r in rows])
            assert batch.tobytes() == alone.tobytes(), cpus

    def test_small_chunk_budget_changes_nothing(self, monkeypatch):
        # 16 holds less than one top-level row, so no split; three top-level
        # rows split across three CPUs
        rng = np.random.default_rng(62)
        rows = np.stack([kernel_row(ROW_KINDS[i % 4], 33, rng) for i in range(40)])
        whole = maximal_batch(rows)
        for budget in (16, top_rows_budget(33, 3)):
            monkeypatch.setattr(operators, "_CHUNK_ELEMS", budget)
            for cpus in (1, 3):
                monkeypatch.setattr(operators, "_usable_cpus", lambda: cpus)
                assert maximal_batch(rows).tobytes() == whole.tobytes(), (budget, cpus)

    @pytest.mark.parametrize("n", [33, 100])
    @pytest.mark.parametrize("count", [9, 5, 2, 1])
    def test_split_rows_equal_one_cpu_and_oracle_bitwise(self, monkeypatch, n, count):
        # an odd row count, fewer rows than CPUs, and batches of one chunk; a
        # budget of three top-level rows splits more than three rows into
        # three groups on eight CPUs, and leaves fewer whole
        monkeypatch.setattr(operators, "_CHUNK_ELEMS", top_rows_budget(n, 3))
        rng = np.random.default_rng(66 + n + count)
        rows = np.stack([kernel_row(ROW_KINDS[i % 4], n, rng) for i in range(count)])
        monkeypatch.setattr(operators, "_usable_cpus", lambda: 1)
        one = operators._window_maximal(rows)
        # the thread that ran each group: the caller's, and one of its own
        # for each other group. The Thread objects, not their idents: a
        # thread that has ended may pass its ident on to the next one started
        threads = []
        level_loop = operators._level_loop

        def logged(*task):
            threads.append(threading.current_thread())
            level_loop(*task)

        monkeypatch.setattr(operators, "_level_loop", logged)
        monkeypatch.setattr(operators, "_usable_cpus", lambda: 8)
        split = operators._window_maximal(rows)
        assert len(set(threads)) == len(threads) == (3 if count > 3 else 1)
        assert threading.current_thread() in threads
        assert split.tobytes() == one.tobytes() == oracle_batch(rows).tobytes()

    @pytest.mark.parametrize("n", [3, 8, 9, 100])
    def test_overflowing_prefix_sums_match_oracle(self, monkeypatch, n):
        rows = np.random.default_rng(63).uniform(-1.0, 1.0, (12, n)) * 1.7e308
        with np.errstate(over="ignore"):
            want = oracle_batch(rows)
            assert np.array_equal(operators._window_maximal(rows), want, equal_nan=True)
            # on three CPUs a budget of three top-level rows splits the
            # twelve rows at every n here: the caller's error state must
            # reach each thread
            monkeypatch.setattr(operators, "_CHUNK_ELEMS", top_rows_budget(n, 3))
            monkeypatch.setattr(operators, "_usable_cpus", lambda: 3)
            assert np.array_equal(operators._window_maximal(rows), want, equal_nan=True)
        assert not np.all(np.isfinite(want))

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_callers_error_state_holds_in_every_thread(self, monkeypatch, cpus):
        # the subnormal last row underflows in the division by the window
        # length; on three CPUs it falls to a thread other than the caller's
        monkeypatch.setattr(operators, "_CHUNK_ELEMS", top_rows_budget(33, 3))
        monkeypatch.setattr(operators, "_usable_cpus", lambda: cpus)
        rows = np.ones((5, 33))
        rows[-1] = 3e-321
        with np.errstate(under="raise"), pytest.raises(FloatingPointError, match="underflow"):
            operators._window_maximal(rows)
        with np.errstate(under="ignore"):
            assert operators._window_maximal(rows).tobytes() == oracle_batch(rows).tobytes()

    def test_exception_in_a_thread_reaches_the_caller(self, monkeypatch):
        monkeypatch.setattr(operators, "_CHUNK_ELEMS", top_rows_budget(33, 3))
        monkeypatch.setattr(operators, "_usable_cpus", lambda: 3)
        caller, level_loop = threading.get_ident(), operators._level_loop

        def failing(*task):
            if threading.get_ident() != caller:
                raise RuntimeError("thread failed")
            level_loop(*task)

        monkeypatch.setattr(operators, "_level_loop", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="thread failed"):
            operators._window_maximal(np.ones((5, 33)))
        assert threading.active_count() == before

    def test_split_allocates_no_more_than_one_cpu(self, monkeypatch):
        # the caller allocates every work array, and at n = 512 a batch splits
        # into at most four groups, the top level's rows per chunk, so that
        # the crossing means stay within the budget on any number of CPUs. A
        # split call's traced peak may exceed the one-CPU call's only by what
        # each added thread holds: NumPy's ufunc iteration buffers (8192
        # doubles, 64 KiB each) and its own records. 128 KiB per added thread
        # is the slack; one top-level row of crossing means is 512 KiB
        rows = np.random.default_rng(67).normal(size=(24, 512))
        peaks = {}
        for cpus in (1, 2, 3, 8):
            monkeypatch.setattr(operators, "_usable_cpus", lambda: cpus)
            operators._window_maximal(rows)
            tracemalloc.start()
            try:
                operators._window_maximal(rows)
                peaks[cpus] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        for cpus in (2, 3, 8):
            assert peaks[cpus] <= peaks[1] + 128 * 1024 * (min(cpus, 4) - 1), peaks


class TestBatchedApply:
    def test_batch_equals_per_row_for_every_shipped_operator(self, space):
        rng = np.random.default_rng(64)
        rows = np.stack([kernel_row(ROW_KINDS[i % 4], space.n, rng) for i in range(12)])
        batch = ok.SampleBatch(space, rows)
        for name, op in shipped_operators(space).items():
            out = op.apply(batch)
            assert isinstance(out, ok.SampleBatch) and out.values.shape == rows.shape, name
            # one function gives the one-row batch of its Tx, bitwise the batch's row
            one = op.apply(ok.SampleFunction(space, rows[0]))
            assert type(one) is ok.SampleBatch and one.values.shape == (1, space.n), name
            assert one.values.tobytes() == out.values[:1].tobytes(), name
            alone = np.concatenate([op.apply(ok.SampleFunction(space, r)).values for r in rows])
            assert out.values.tobytes() == alone.tobytes(), name

    def test_matrix_rows_match_dot(self):
        sp = ok.uniform_space(100)
        rng = np.random.default_rng(65)
        a = rng.uniform(0.0, 1.0, (100, 100)) / 100.0
        rows = rng.normal(size=(7, 100))
        out = ok.contractive_matrix(sp, a, COUPLE).apply(ok.SampleBatch(sp, rows)).values
        assert out.tobytes() == np.stack([a.dot(r) for r in rows]).tobytes()

    def test_empty_batch(self, space):
        for name, op in shipped_operators(space).items():
            out = op.apply(ok.SampleBatch(space, np.zeros((0, space.n))))
            assert out.values.shape == (0, space.n), name

    def test_space_mismatch(self, space):
        op = ok.identity_operator(space, COUPLE)
        with pytest.raises(ValueError, match="different spaces"):
            op.apply(ok.SampleBatch(ok.uniform_space(3), np.ones((2, 3))))


R_VALUES = (1.0, 1.5, 2.0, 3.0, np.inf)


def certificate_couple(r):
    """A couple whose certificate at r is the operator's bound_p, or bound_q at r = inf."""
    return ExponentCouple(2, np.inf) if np.isinf(r) else ExponentCouple(r, r + 1)


def matrix_cases(n, couple):
    sp = ok.uniform_space(n)
    cyclic = 0.9 * np.roll(np.eye(n), 1, axis=1)
    cases = {f"random_contractive_{seed}": random_contractive(sp, couple, seed) for seed in range(6)}
    cases["averaging"] = ok.averaging_operator(sp, couple)
    cases["cyclic"] = ok.contractive_matrix(sp, cyclic, couple)
    return cases


class TestEstimateNorm:
    """Boyd's power method (`oracles.boyd_lower_bound`) estimates the L^r
    operator norm from below."""

    def test_identity_exact(self, space):
        assert boyd_lower_bound(ok.identity_operator(space, COUPLE), 2) == 1.0

    def test_multiplier_spike_achieves_peak(self, space):
        op = ok.multiplier(space, [0.5, 0.2, 0.1, 0.0, 0.3, 0.4], COUPLE)
        assert boyd_lower_bound(op, 1.5) == pytest.approx(0.5, rel=1e-9)

    @pytest.mark.parametrize("r", R_VALUES)
    def test_never_exceeds_certificates(self, space, r):
        couple = certificate_couple(r)
        mix = [ok.identity_operator(space, couple), ok.multiplier(space, np.full(space.n, 0.25), couple)]
        scaled = [ok.multiplier(space, np.full(space.n, c), couple) for c in (1.0, 0.5, 0.25)]
        cases = {name: (op, None) for name, op in matrix_cases(space.n, couple).items()}
        cases.update({
            "identity": (ok.identity_operator(space, couple), None),
            "half_multiplier": (ok.multiplier(space, np.full(space.n, 0.5), couple), None),
            "maximal": (ok.discrete_maximal(space, couple), None),
            "max_of_mix": (ok.max_of(mix), mix),
            "max_of_scaled": (ok.max_of(scaled), scaled),
        })
        for name, (op, members) in cases.items():
            cert = op.bound_q if np.isinf(r) else op.bound_p
            assert boyd_lower_bound(op, r, members) <= cert * (1 + 1e-9), name

    def test_equals_the_spectral_norm_at_r2(self):
        for name, op in matrix_cases(8, ExponentCouple(2, 3)).items():
            want = np.linalg.norm(operator_matrix(op), 2)
            assert boyd_lower_bound(op, 2) == pytest.approx(want, rel=1e-9, abs=0.0), name

    @pytest.mark.parametrize("r", [1.0, np.inf])
    def test_equals_the_largest_column_or_row_sum(self, r):
        for name, op in matrix_cases(8, certificate_couple(r)).items():
            sums = np.abs(operator_matrix(op)).sum(axis=1 if np.isinf(r) else 0)
            assert boyd_lower_bound(op, r) == pytest.approx(sums.max(), rel=1e-12, abs=0.0), name

    @pytest.mark.parametrize("r", R_VALUES)
    @pytest.mark.parametrize("n", [8, 64, 512])
    def test_window_maximal_never_exceeds_its_certificate(self, n, r):
        op = ok.discrete_maximal(ok.uniform_space(n), certificate_couple(r))
        cert = op.bound_q if np.isinf(r) else op.bound_p
        # a spike in the middle climbs highest: both sides of it see its windows
        est = boyd_lower_bound(op, r, starts=np.eye(n)[n // 2])
        assert 1.0 <= est <= cert * (1 + 1e-9)

    def test_window_maximal_at_n8(self):
        op = ok.discrete_maximal(ok.uniform_space(8), ExponentCouple(2, np.inf))
        assert boyd_lower_bound(op, 2) >= 1.46


class TestSubadditivityInvariant:
    def test_all_shipped_operators(self, space):
        for name, op in shipped_operators(space).items():
            assert subadditivity_violation(op, pairs=1000, seed=13) <= 1e-10, name
