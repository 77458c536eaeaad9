"""The one live-set loop (`liveset.iterate`) and the pass counts it records."""

import json
from pathlib import Path

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import kfunc, verify
from orliczkit.liveset import MAX_PASSES, NonConvergenceError, iterate

SCENARIO_DIR = Path(verify.__file__).parent / "scenarios"


def halving(solver="halving"):
    """A solve that halves each entry until it is below 1: entry v takes
    floor(log2 v) + 2 passes for v >= 1, and one pass otherwise. Each pass's
    entries are logged, with the shared scalar the carry hands on."""
    seen = []

    def step(v, shared):
        seen.append((v.copy(), shared))
        done = v < 1.0
        return done, (v.copy(), np.where(done, -v, v)), (v, shared)

    def solve(values):
        return iterate(solver, step, (values, 7.0), lambda v, shared: (v / 2.0, shared))

    return solve, seen


class TestIterate:
    def test_one_pass_returns_the_step_outputs_as_they_are(self, passes):
        def step(v):
            return np.ones(v.shape, dtype=bool), (v,), (v,)

        values = np.array([0.5, 0.25, 0.0])
        (out,) = iterate("halving", step, (values,))
        assert out is values
        assert passes == {"halving": {1: 1}}

    def test_each_entry_is_written_in_the_pass_that_finishes_it(self, passes):
        solve, seen = halving()
        out, signed = solve(np.array([4.0, 0.5, 1.0, 3.0]))
        assert out.tolist() == [0.5, 0.5, 0.5, 0.75]
        assert signed.tolist() == [-0.5, -0.5, -0.5, -0.75]
        # only the open entries reach the next pass, and a scalar carry is shared
        assert [v.tolist() for v, _ in seen] == [
            [4.0, 0.5, 1.0, 3.0], [2.0, 0.5, 1.5], [1.0, 0.75], [0.5]]
        assert {shared for _, shared in seen} == {7.0}
        assert passes == {"halving": {4: 1}}

    def test_without_advance_the_carry_is_the_next_state(self, passes):
        def step(v):
            return v < 1.0, (v.copy(),), (v / 2.0,)

        (out,) = iterate("halving", step, (np.array([3.0, 0.5]),))
        assert out.tolist() == [0.75, 0.5] and passes == {"halving": {3: 1}}

    def test_no_entries_take_one_pass(self, passes):
        solve, _ = halving()
        out, signed = solve(np.zeros(0))
        assert out.size == signed.size == 0 and passes == {"halving": {1: 1}}

    def test_an_entry_open_after_max_passes_raises(self, passes):
        solve, seen = halving("stubborn")
        message = f"stubborn solve did not converge in {MAX_PASSES} passes"
        with pytest.raises(NonConvergenceError, match=message):
            solve(np.array([0.5, 2.0**MAX_PASSES]))
        assert len(seen) == MAX_PASSES and seen[-1][0].tolist() == [2.0]
        assert not passes

    def test_entries_finishing_at_max_passes_return(self, passes):
        solve, _ = halving()
        solve(np.array([2.0**(MAX_PASSES - 2)]))
        assert passes == {"halving": {MAX_PASSES: 1}}


class TestSolversRaise:
    """K's Newton solve and L's split raise at MAX_PASSES like the other four,
    here with stop tests that no entry can meet."""

    def test_l_split(self, monkeypatch):
        monkeypatch.setattr(kfunc, "_SPLIT_STEP", -1.0)
        with pytest.raises(NonConvergenceError, match="l_split"):
            kfunc._pointwise_min_split(np.array([0.5, 2.0]), np.array([1.0]), 1.5, 3.0)

    def test_k_newton(self, monkeypatch):
        state = kfunc._interval_state

        def never_flat(*args):
            f, g, dg = state(*args)
            return f, np.where(g == 0.0, 1e-300, g), dg

        monkeypatch.setattr(kfunc, "_VALUE_RTOL", -np.inf)
        monkeypatch.setattr(kfunc, "_interval_state", never_flat)
        rng = np.random.default_rng(43)
        values = rng.normal(size=(4, 8)) * np.exp(rng.normal(0.0, 2.0, (4, 8)))
        batch = ok.SampleBatch(ok.DiscreteMeasureSpace(rng.uniform(0.1, 3.0, 8)), values)
        with pytest.raises(NonConvergenceError, match="k_newton"):
            ok.k_lp_linf_grid(np.logspace(-2, 2, 9), batch, 1.5)


# Calls per pass count of each solver on each shipped scenario. Wrappers
# around each solver's per-pass evaluation counted the same numbers before
# the solvers shared one loop, and the counts repeat exactly.
SHIPPED_PASSES = {
    "prop22_maximal_2inf": {"k_kinks": {4: 2}},
    "remark_concave_h_1_2": {"amemiya": {2: 1}, "luxemburg": {5: 1}},
    "sparr_lemma_15_3": {"l_split": {3: 2}},
    "sparr_lemma_1_2": {},
    "sparr_lemma_2_4": {"l_split": {2: 2}},
    "thm31a_p1_orlicz": {"phi_inverse": {1: 3}},
    "thm31a_p2_maximal": {"phi_inverse": {1: 3}},
    "thm31b_norm_p2": {"amemiya": {2: 1}, "luxemburg": {2: 1}, "phi_inverse": {1: 4}},
    "thm46a": {},
    "thm46a_negative_control": {},
    "thm46b_norm_1_2": {"amemiya": {2: 1}, "luxemburg": {2: 1}, "phi_inverse": {1: 6}},
    "thm51_linear_15_2": {"amemiya": {2: 1}, "luxemburg": {2: 1}, "phi_inverse": {1: 4}},
    "thm51_linear_2_3": {"amemiya": {2: 1}, "luxemburg": {2: 1}, "phi_inverse": {1: 4}},
}


def test_table_names_every_shipped_scenario():
    assert sorted(SHIPPED_PASSES) == sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))


@pytest.mark.parametrize("name", sorted(SHIPPED_PASSES))
def test_shipped_pass_counts(passes, name):
    verify.run_scenario(json.loads((SCENARIO_DIR / f"{name}.json").read_text()))
    assert passes == SHIPPED_PASSES[name]
