import copy
import dataclasses
import functools
import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import orliczkit as ok
from orliczkit import kfunc, specs
from orliczkit.orlicz import ExponentCouple
from orliczkit import verify
from orliczkit.verify import run_scenario

from conftest import cached_generator_phi
from oracles import generate_inputs_per_child, pair_batch_per_child

SCENARIO_DIR = Path(__file__).parent.parent / "src" / "orliczkit" / "scenarios"
COUPLE = ExponentCouple(1, 2)


def load_scenario(name):
    return json.loads((SCENARIO_DIR / name).read_text())


def strip_wall(report):
    out = copy.deepcopy(report)
    out.pop("wall_ms", None)
    return out


@pytest.fixture(scope="module")
def space8():
    return ok.uniform_space(8)


@pytest.fixture(scope="module")
def phi_affine_h():
    h = ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0)
    return ok.build_from_h(COUPLE, h)


DRAW_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3]


def pcg64_state_before(word: int, salt: int) -> dict:
    """A PCG64 state whose next raw word is `word`. PCG64 steps its 128-bit
    state s to s * mult + inc, then outputs the XSL-RR of the new state:
    (hi ^ lo) rotated right by hi >> 58, where hi and lo are its 64-bit
    halves. So any hi (here drawn from salt) with lo = hi ^ (word rotated
    left by hi >> 58) outputs word, and the state before it is one step
    back."""
    mask64, mask128 = (1 << 64) - 1, (1 << 128) - 1
    hi, inc = np.random.default_rng(salt).bit_generator.random_raw(2).tolist()
    rot = hi >> 58
    lo = hi ^ ((word << rot | word >> (64 - rot)) & mask64)
    inc = inc << 1 | 1
    state = ((hi << 64 | lo) - inc) * pow(verify._PCG_MULT, -1, 1 << 128) & mask128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def generator_in(state: dict) -> np.random.Generator:
    rng = np.random.Generator(np.random.PCG64())
    rng.bit_generator.state = state
    return rng


class TestGenerateInputs:
    def test_batch_rows_are_stable_per_index(self, space8):
        small = ok.generate_inputs(space8, 5, "mixed", 1.0, 16)
        large = ok.generate_inputs(space8, 9, "mixed", 1.0, 16)
        assert isinstance(small, ok.SampleBatch) and small.values.shape == (5, 8)
        assert small.values.tobytes() == large.values[:5].tobytes()

    def test_pair_rows_are_stable_per_index(self, space8):
        small = verify._pair_batch(space8, 5, 1.0, 16)
        large = verify._pair_batch(space8, 9, 1.0, 16)
        for few, many in zip(small, large):
            assert few.values.shape == (5, 8)
            assert few.values.tobytes() == many.values[:5].tobytes()

    # a seed of five or more 32-bit words mixes its words past the fourth
    # into the pool after the first four, so the child index's hash
    # constants start later; 2^127 + 1 is exactly four words, the last
    # count before they do
    @pytest.mark.parametrize("seed", DRAW_SEEDS + [2**127 + 1, 2**128 + 5, 2**200 + 17])
    def test_child_states_are_numpy_spawned_pcg64(self, seed):
        # child i of spawn(count) is child i of spawn(300) for count <= 300
        want = [np.random.PCG64(child).state for child in np.random.SeedSequence(seed).spawn(300)]
        for count in range(301):
            got = [rng.bit_generator.state for rng in verify._child_rngs(seed, count)]
            assert got == want[:count], count
        for count in (0, 1, 5, 13):
            got = [rng.bit_generator.state for rng in verify._child_rngs(seed, count)]
            assert got == [np.random.PCG64(c).state for c in np.random.SeedSequence(seed).spawn(count)]

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_child_states_refuse_what_seed_sequence_refuses(self, seed):
        with pytest.raises((TypeError, ValueError)):
            np.random.SeedSequence(seed)
        with pytest.raises((TypeError, ValueError)):
            next(verify._child_rngs(seed, 1))

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 512])
    def test_inputs_equal_per_child_draws_bitwise(self, seed, n):
        space = ok.uniform_space(n)
        for distribution in specs.INPUT_DISTRIBUTIONS:
            for count in (0, 1, 5, 13):
                for scale in (1e-8, 1.0, 1e6):
                    got = ok.generate_inputs(space, count, distribution, scale, seed)
                    want = generate_inputs_per_child(space, count, distribution, scale, seed)
                    assert got.values.tobytes() == want.values.tobytes(), (distribution, count, scale)

    @pytest.mark.parametrize("n", [2, 5, 40, 512])
    def test_spikes_of_every_size_equal_per_child_draws_bitwise(self, n):
        # 400 spikes rows per seed: at n = 40 and 512 the seeds draw every
        # support size k in 1..n//3, and at n = 2-5 choice leaves a half
        # buffered in every row, which is its first sign
        space, sizes = ok.uniform_space(n), set()
        for seed in DRAW_SEEDS:
            got = ok.generate_inputs(space, 400, "spikes", 1.0, seed)
            want = generate_inputs_per_child(space, 400, "spikes", 1.0, seed)
            assert got.values.tobytes() == want.values.tobytes(), seed
            sizes.update(np.count_nonzero(want.values, axis=1).tolist())
        assert sizes == set(range(1, max(1, n // 3) + 1))

    @pytest.mark.parametrize("n, first_word, path", [
        # k = 2 (bit 31 of the low half set); Floyd's first draw, on [0, 6],
        # takes the high half, 0, where Lemire's method rejects (0 * 7 mod
        # 2^32 < 2^32 mod 7 = 4)
        pytest.param(8, 0x00000000_80001234, "a Floyd draw inside choice rejects at n = 8",
                     id="floyd-rejects-n8"),
        # the k draw, on [0, 2], takes the low half, 0, where Lemire's method
        # rejects (0 < 2^32 mod 3 = 1), and redraws k = 3 from the high half
        pytest.param(9, 0xFFFFFFFF_00000000, "the k draw rejects at n = 9", id="k-rejects-n9"),
    ])
    def test_spikes_after_a_rejection_equal_numpy_bitwise(self, monkeypatch, n, first_word, path):
        # seeded draws meet a rejection about once in 1e9; these states meet
        # one on their first word, which leaves the 32-bit half after choice
        # buffered in the generator, so that it is the row's first sign
        states = [pcg64_state_before(first_word, row) for row in range(4)]
        for state in states:
            assert generator_in(state).bit_generator.random_raw() == first_word
            rng = generator_in(state)
            rng.choice(n, size=rng.integers(1, n // 3 + 1), replace=False)
            assert rng.bit_generator.state["has_uint32"] == 1, path
        monkeypatch.setattr(verify, "_child_rngs",
                            lambda seed, count: (generator_in(s) for s in states[:count]))
        # the oracle's per-row calls, on Generators in the same states
        monkeypatch.setattr(np.random, "default_rng",
                            lambda child: generator_in(states[child.spawn_key[-1]]))
        space = ok.uniform_space(n)
        for scale in (1e-8, 1.0):
            got = ok.generate_inputs(space, len(states), "spikes", scale, 0)
            want = generate_inputs_per_child(space, len(states), "spikes", scale, 0)
            assert got.values.tobytes() == want.values.tobytes(), (
                f"{path}: the row's signs, read from the half that choice left buffered "
                "and then the low and high halves of its words, or its magnitudes, "
                "read as lo + (hi - lo) * (w >> 11) * 2^-53, are not NumPy's")

    @pytest.mark.parametrize("seed", DRAW_SEEDS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 512])
    def test_pairs_equal_per_child_draws_bitwise(self, seed, n):
        space = ok.uniform_space(n)
        for count in (0, 1, 5, 13):
            for scale in (1e-8, 1.0, 1e6):
                got = verify._pair_batch(space, count, scale, seed)
                want = pair_batch_per_child(space, count, scale, seed)
                for a, b in zip(got, want):
                    assert a.values.tobytes() == b.values.tobytes(), (count, scale)

    def test_huge_scale_is_a_rejection_naming_the_scale(self, space8):
        for draw in (lambda: ok.generate_inputs(space8, 8, "mixed", 1e308, 3),
                     lambda: verify._pair_batch(space8, 8, 1e308, 3)):
            with pytest.raises(ok.ScenarioRejected, match="inputs.scale"):
                draw()


class TestKContraction:
    def test_identity_is_equality(self, space8):
        op = ok.identity_operator(space8, COUPLE)
        inputs = ok.generate_inputs(space8, 10, "mixed", 1.0, 1)
        rep = ok.verify_k_contraction(op, inputs)
        assert rep["status"] == "pass" and not rep["violations"]

    def test_half_multiplier_cancels_exactly(self, space8):
        op = ok.multiplier(space8, np.full(8, 0.5), COUPLE)
        inputs = ok.generate_inputs(space8, 10, "mixed", 1.0, 2)
        rep = ok.verify_k_contraction(op, inputs)
        assert rep["status"] == "pass"

    def test_maximal_on_p_inf_couple(self, space8):
        couple = ExponentCouple(2, np.inf)
        op = ok.discrete_maximal(space8, couple)
        inputs = ok.generate_inputs(space8, 30, "mixed", 1.0, 3)
        rep = ok.verify_k_contraction(op, inputs)
        assert rep["status"] == "pass" and not rep["violations"]


    @pytest.mark.parametrize("p", [500.0, 1e18])
    def test_maximal_at_a_large_p(self, space8, p):
        # K's end values sum the atoms above a kink interval at max 1;
        # unscaled, at p = 500 each atom below 0.23 of the member's sup would
        # underflow, K would fall below its infimum, and these (the shipped
        # inputs) would read 180 false alarms
        couple = ExponentCouple(p, np.inf)
        inputs = ok.generate_inputs(space8, 200, "mixed", 1.0, 22001)
        rep = ok.verify_k_contraction(ok.discrete_maximal(space8, couple), inputs)
        assert rep["status"] == "pass" and not rep["violations"]

    @pytest.mark.parametrize("elems", [None, 3 * 20 * 8])
    @pytest.mark.parametrize("q", [np.inf, 3.0])
    def test_one_call_lists_the_violations_of_one_call_per_side(self, space8, monkeypatch, q, elems):
        # bounds divided by 100 break the contraction on most (input, t); the
        # one K or L call on [Tx/M; x], at the kernels' budgets and in runs of
        # three members, lists what a call per side lists, in order
        couple = ExponentCouple(2, q)
        op = ok.discrete_maximal(space8, couple)
        op = dataclasses.replace(op, bound_p=op.bound_p / 100.0, bound_q=op.bound_q / 100.0)
        inputs = ok.generate_inputs(space8, 9, "mixed", 1.0, 22001)
        ts, kernel = verify.K_T_GRID, verify._couple_k_grid
        txs = op.apply(inputs).scaled(1.0 / op.max_bound)
        collector = verify._Collector()
        collector.check(kernel(ts, txs, couple), kernel(ts, inputs, couple), "k_contraction",
                        inputs.values, ts)
        want = collector.report("prop22", len(inputs), {"certified_bound": op.max_bound})
        if elems is not None:
            monkeypatch.setattr(kfunc, "_K_ELEMS", elems)
            monkeypatch.setattr(kfunc, "_L_RUN_ELEMS", elems)
        got = ok.verify_k_contraction(op, inputs)
        assert strip_wall(got) == strip_wall(want)
        # every violation is listed: 9 inputs x 20 t's leave at most 180
        assert 100 < got["details"]["violation_count"] == len(got["violations"]) <= 180


class TestCollector:
    def test_violations_in_row_major_order_with_python_fields(self):
        collector = verify._Collector()
        lhs = np.array([[1.0, 3.0, 0.5], [2.0, 1.0, 5.0]])
        rhs = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        collector.check(lhs, rhs, "tag", np.array([[1, 2], [3, 4]]), ts=[0.5, 1.0, 2.0],
                        index=np.array([7, 9]))
        assert collector.violations == [
            {"t": 1.0, "input_index": 7, "lhs": 3.0, "rhs": 1.0, "margin": 2.0, "check": "tag",
             "witness": [1.0, 2.0]},
            {"t": 0.5, "input_index": 9, "lhs": 2.0, "rhs": 1.0, "margin": 1.0, "check": "tag",
             "witness": [3.0, 4.0]},
            {"t": 2.0, "input_index": 9, "lhs": 5.0, "rhs": 0.0, "margin": 5.0 / 1e-12,
             "check": "tag", "witness": [3.0, 4.0]},
        ]
        for v in collector.violations:
            assert type(v["t"]) is float and type(v["input_index"]) is int
            assert all(type(v[key]) is float for key in ("lhs", "rhs", "margin"))
            assert type(v["witness"]) is list and all(type(w) is float for w in v["witness"])

    def test_one_value_per_input_has_no_t(self):
        collector = verify._Collector()
        collector.check([0.0, 2.0], [1.0, 1.0], "tag", np.eye(2))
        assert collector.violations == [
            {"t": None, "input_index": 1, "lhs": 2.0, "rhs": 1.0, "margin": 1.0, "check": "tag",
             "witness": [0.0, 1.0]}]

    def test_report_lists_the_200_widest_and_counts_all(self):
        collector = verify._Collector()
        # 300 inputs at t = 2 and 1, margins 1 + (i mod 3): ties go by input
        # index, then t
        lhs = 2.0 + np.arange(300)[:, None] % 3 + np.zeros(2)
        collector.check(lhs, np.ones((300, 2)), "tag", np.zeros((300, 1)), ts=[2.0, 1.0])
        report = collector.report("prop22", 300, {"extra": 1})
        assert report["status"] == "fail" and report["trials"] == 300
        assert report["details"] == {"extra": 1, "violation_count": 600}
        listed = [(v["margin"], v["input_index"], v["t"]) for v in report["violations"]]
        widest = sorted(((1.0 + i % 3, i, t) for i in range(300) for t in (2.0, 1.0)),
                        key=lambda v: (-v[0], v[1], v[2]))
        assert listed == widest[:200]
        assert list(report) == ["scenario", "status", "trials", "violations", "wall_ms", "details"]
        assert report["scenario"] == {"theorem": "prop22", "inline": True}

    def test_a_patched_threshold_moves_the_verdict(self, monkeypatch):
        # the thresholds are read when a check runs, not when the collector's
        # method was defined: at 1e6 the planted fault is inside them
        scenario = load_scenario("thm46a_negative_control.json")
        scenario["inputs"]["count"] = 20
        assert run_scenario(scenario)["details"]["violation_count"] == 20
        monkeypatch.setattr(verify, "VIOLATION_REL", 1e6)
        monkeypatch.setattr(verify, "ABS_FLOOR", 1e6)
        report = run_scenario(scenario)
        assert report["status"] == "pass" and report["details"]["violation_count"] == 0


class TestSparrImplication:
    @staticmethod
    def implication(x, y):
        """The conclusion checked on the one pair (x, y) when it meets the
        hypothesis: (violations, how many pairs met it)."""
        collector = verify._Collector()
        gamma = ok.sparr_gamma(COUPLE.p, COUPLE.q)
        met = verify._sparr_pairs(x, y, COUPLE, np.logspace(-4, 4, 32), gamma, collector)
        return collector.violations, met

    def test_equal_pair(self, space8):
        x = ok.SampleFunction(space8, np.linspace(-1, 2, 8))
        assert self.implication(x, x) == ([], 1)

    def test_doubled_pair(self, space8):
        x = ok.SampleFunction(space8, np.linspace(-1, 2, 8))
        assert self.implication(x, x.scaled(2.0)) == ([], 1)

    def test_neutral_pair_never_fails(self, space8):
        x = ok.SampleFunction(space8, np.full(8, 3.0))
        y = ok.SampleFunction(space8, np.full(8, 0.1))
        assert self.implication(x, y) == ([], 0)

    def test_batch_counts_neutral_pairs(self, space8):
        rep = ok.verify_sparr_batch(space8, COUPLE, 80, seed=5)
        assert rep["status"] == "pass"
        assert 0 < rep["details"]["hypothesis_met"] < 80

    # (seed, n, couple, t-grid start, stop and points) of 12 pairs of uniform
    # atoms on which a true lemma fails when its hypothesis is decided on the
    # grid: a pair meets L(t, x) <= L(t, y) at every grid point but not for
    # all t > 0, and its conclusion is checked anyway. On an 8,001-point grid
    # over 1e-14..1e14, L(t, x) / L(t, y) reaches 1.239 as t grows for pair 2
    # of "A", and 1.266 at t ~ 1.95 for pair 6 of "B". Neither fails on
    # verify.SPARR_T_GRID, so the pairs are checked on their own grids
    GRID_HYPOTHESIS_CASES = {
        "A": (836471, 4, (1.5, 24.774106636384385),
              (0.015624581366691169, 121.81115977351834, 7)),
        "B": (95933, 10, (1.2389313590788182, 9.139927115262967),
              (0.017455971515143828, 7983.997735315861, 1)),
    }

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 16: the sparr hypothesis is decided on a t-grid alone, so a "
        "pair that breaks it between or beyond the grid points fails a true lemma "
        "(2 violations, margin 0.022, in A; 1, margin 0.041, in B)"))
    @pytest.mark.parametrize("case", sorted(GRID_HYPOTHESIS_CASES))
    def test_grid_hypothesis_gives_no_false_alarm(self, case):
        seed, n, (p, q), (start, stop, points) = self.GRID_HYPOTHESIS_CASES[case]
        xs, ys = verify._pair_batch(ok.uniform_space(n), 12, 1.0, seed)
        collector = verify._Collector()
        verify._sparr_pairs(xs, ys, ExponentCouple(p, q),
                            np.logspace(np.log10(start), np.log10(stop), points),
                            ok.sparr_gamma(p, q), collector)
        assert collector.violations == []

    @pytest.mark.parametrize("elems", [None, 3 * 7 * 4, 10])
    def test_one_call_per_functional_lists_the_violations_of_two(self, monkeypatch, elems):
        # case A's pairs break the conclusion on their own grid (see above);
        # one L call on [xs; ys] and one L* call on the pairs that meet the
        # hypothesis, at the kernels' budget, in runs of three members or in
        # runs of two t's, list what a call per side lists, in order
        seed, n, (p, q), (start, stop, points) = self.GRID_HYPOTHESIS_CASES["A"]
        xs, ys = verify._pair_batch(ok.uniform_space(n), 12, 1.0, seed)
        ts = np.logspace(np.log10(start), np.log10(stop), points)
        gamma = ok.sparr_gamma(p, q)
        kx, ky = ok.l_functional_grid(ts, xs, p, q), ok.l_functional_grid(ts, ys, p, q)
        slack, floor = verify.HYPOTHESIS_SLACK, verify.ABS_FLOOR
        met = np.flatnonzero(np.all(kx <= ky + slack * np.abs(ky) + floor, axis=1))
        xm, ym = xs[met], ys[met]
        want = verify._Collector()
        want.check(ok.l_star_grid(ts, xm, p, q), gamma * ok.l_star_grid(ts, ym, p, q),
                   "sparr_conclusion", np.hstack((xm.values, ym.values)), ts, met)
        if elems is not None:
            monkeypatch.setattr(kfunc, "_L_RUN_ELEMS", elems)
            monkeypatch.setattr(kfunc, "_L_SPLIT_ELEMS", min(elems, kfunc._L_SPLIT_ELEMS))
        got = verify._Collector()
        assert verify._sparr_pairs(xs, ys, ExponentCouple(p, q), ts, gamma, got) == met.size
        assert got.violations == want.violations and len(want.violations) == 2

    # (seed, n, couple, inputs.scale) of true-lemma scenarios on 12 pairs of
    # uniform atoms that report "fail" on verify.SPARR_T_GRID
    SHIPPED_GRID_CASES = {
        # pair 6 meets the hypothesis on the grid, where L(t, x) / L(t, y) is
        # at most 0.825, but the ratio reaches 1.288 at t ~ 9.6e17
        "C": (1804855961, 16, (1, 35.69776052149571), 0.4161662301164502),
        # L(t, x) / L(t, y) is 2.92 on the grid for pair 6, but both sides are
        # about 1e-24, so the hypothesis holds to ABS_FLOOR
        "D": (306556213, 1, (3.5592698755385808, 6.676837243149867), 0.002118548388183349),
    }
    SHIPPED_GRID_REASONS = {
        "C": "ROADMAP item 16: the sparr hypothesis is decided on verify.SPARR_T_GRID "
             "alone, and pair 6 breaks it beyond the grid (5 violations, margin 0.153)",
        "D": "ROADMAP item 4: the sparr hypothesis holds to ABS_FLOOR, an absolute "
             "slack that admits pair 6, whose L-functionals are about 1e-24 "
             "(1 violation, margin 0.678)",
    }

    @pytest.mark.parametrize("case", [
        pytest.param(case, marks=pytest.mark.xfail(strict=True, reason=reason))
        for case, reason in sorted(SHIPPED_GRID_REASONS.items())])
    def test_shipped_grid_hypothesis_gives_no_false_alarm(self, case):
        seed, n, (p, q), scale = self.SHIPPED_GRID_CASES[case]
        scenario = {"theorem": "sparr_lemma", "seed": seed, "space": {"weights": "uniform", "n": n},
                    "couple": {"p": p, "q": q}, "inputs": {"count": 12, "scale": scale}}
        assert run_scenario(scenario)["status"] == "pass"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_large_inputs_at_q64_give_a_report_without_overflow(self):
        # l_star_grid forms t c^q before its minimum with c^p; at c ~ 1e6 and
        # q = 64 that product overflows to inf, which loses the minimum
        scenario = load_scenario("sparr_lemma_2_4.json")
        scenario["couple"] = {"p": 2, "q": 64}
        scenario["inputs"] = dict(scenario["inputs"], count=20, scale=1e6)
        assert verdict(run_scenario(scenario)) == ("pass", 0, 19)


class TestModularLpLinf:
    def test_identity_passes(self, space8):
        couple = ExponentCouple(2, np.inf)
        phi = cached_generator_phi(2, np.inf, "powerlog", (0.5, 0, 0))
        op = ok.identity_operator(space8, couple)
        rep = ok.verify_modular_lp_linf(phi, 2.0, op, ok.generate_inputs(space8, 20, "mixed", 1.0, 6))
        assert rep["status"] == "pass"

    def test_nonconvex_composition_rejected(self, space8):
        op = ok.identity_operator(space8, ExponentCouple(3, np.inf))
        phi = ok.power_phi(1)   # phi(u^{1/3}) = u^{1/3} is concave
        with pytest.raises(ok.ScenarioRejected):
            ok.verify_modular_lp_linf(phi, 3.0, op, ok.generate_inputs(space8, 5, "mixed", 1.0, 7))


class TestModularLpLq:
    def test_identity_passes(self, space8, phi_affine_h):
        op = ok.identity_operator(space8, COUPLE)
        rep = ok.verify_modular_lp_lq(phi_affine_h, COUPLE, op,
                                      ok.generate_inputs(space8, 20, "mixed", 1.0, 8))
        assert rep["status"] == "pass"

    def test_requires_h_form(self, space8):
        op = ok.identity_operator(space8, COUPLE)
        with pytest.raises(ok.ScenarioRejected):
            ok.verify_modular_lp_lq(ok.power_phi(2), COUPLE, op,
                                    ok.generate_inputs(space8, 5, "mixed", 1.0, 9))


class TestNormInterpolation:
    def test_identity_passes_each_source(self, space8, phi_affine_h):
        inputs = ok.generate_inputs(space8, 8, "mixed", 1.0, 10)
        cases = [
            (cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0)), COUPLE, "thm46b_norm"),
            (phi_affine_h, COUPLE, "remark_concave_h"),
            (cached_generator_phi(1.5, 2, "powerlog", (0.5, 0, 0)), ExponentCouple(1.5, 2), "thm51_linear"),
            (cached_generator_phi(2, np.inf, "powerlog", (0.5, 0, 0)), ExponentCouple(2, np.inf), "thm31b_norm"),
        ]
        for phi, couple, theorem in cases:
            op = ok.identity_operator(space8, couple)
            rep = ok.verify_norm_interpolation(phi, couple, op, inputs, theorem)
            assert rep["status"] == "pass", theorem
            assert rep["details"]["constant_source"] == specs.THEOREMS[theorem].constant

    def test_linear_source_needs_linear_operator(self, space8):
        couple = ExponentCouple(1.5, 2)
        phi = cached_generator_phi(1.5, 2, "powerlog", (0.5, 0, 0))
        op = ok.discrete_maximal(space8, couple)
        with pytest.raises(specs.SpecError, match="needs a linear operator"):
            ok.verify_norm_interpolation(phi, couple, op,
                                         ok.generate_inputs(space8, 3, "mixed", 1.0, 11),
                                         "thm51_linear")

    def test_lp_linf_source_needs_infinite_q(self, space8):
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        op = ok.identity_operator(space8, COUPLE)
        with pytest.raises(specs.SpecError, match="needs q = inf"):
            ok.verify_norm_interpolation(phi, COUPLE, op,
                                         ok.generate_inputs(space8, 3, "mixed", 1.0, 12),
                                         "thm31b_norm")

    def test_amemiya_skipped_on_a_non_convex_h_form(self, space8, phi_affine_h):
        # h = min(1, s) at (1, 3) gives phi = min(u, u^3); the Amemiya search
        # may stop at a local minimum there, above the infimum, so its value
        # is no rhs
        couple = ExponentCouple(1, 3)
        kinked = ok.build_from_h(couple, ok.PiecewiseLinearConcave([1.0], [1.0], 1.0, 0.0))
        op = ok.identity_operator(space8, couple)
        inputs = ok.generate_inputs(space8, 20, "mixed", 1.0, 17)
        rep = ok.verify_norm_interpolation(kinked, couple, op, inputs, "remark_concave_h")
        assert rep["status"] == "pass"
        assert rep["details"]["amemiya"] == "skipped: phi is not convex"
        # a halved M breaks the Luxemburg check, which still runs
        halved = dataclasses.replace(op, bound_p=op.bound_p / 2.0, bound_q=op.bound_q / 2.0)
        broken = ok.verify_norm_interpolation(kinked, couple, halved, inputs, "remark_concave_h")
        assert {v["check"] for v in broken["violations"]} == {"luxemburg"}
        affine = ok.verify_norm_interpolation(phi_affine_h, COUPLE, ok.identity_operator(space8, COUPLE),
                                              inputs, "remark_concave_h")
        assert "amemiya" not in affine["details"]

    def test_needs_a_norm_tag(self, space8):
        op = ok.identity_operator(space8, COUPLE)
        with pytest.raises(specs.SpecError, match="not a norm theorem"):
            ok.verify_norm_interpolation(ok.power_phi(2), COUPLE, op,
                                         ok.generate_inputs(space8, 3, "mixed", 1.0, 12), "thm46a")


# VIOLATION_REL and NORM_REL as shipped, written out rather than read from
# verify, so that a loosened or tightened threshold fails TestThresholdPins
# (ROADMAP item 19)
SHIPPED_THRESHOLDS = {"VIOLATION_REL": 1e-9, "NORM_REL": 1e-8, "HYPOTHESIS_SLACK": 1e-12}


class TestThresholdPins:
    """Exact ties: with T = identity a check's two sides are equal but for
    its constant, which the test sets to 1 - f * threshold. A break of
    f = 10 thresholds must be flagged on every input and one of f = 0.1 on
    none, so each threshold is pinned within a factor of ten either way."""

    COUNT = 100

    @pytest.mark.parametrize("f, flagged", [(10.0, True), (0.1, False)])
    def test_norm_rel(self, monkeypatch, space8, f, flagged):
        monkeypatch.setitem(verify.NORM_CONSTANTS, "subadditive",
                            lambda p, q: 1.0 - f * SHIPPED_THRESHOLDS["NORM_REL"])
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        inputs = ok.generate_inputs(space8, self.COUNT, "mixed", 1.0, 19)
        rep = ok.verify_norm_interpolation(phi, COUPLE, ok.identity_operator(space8, COUPLE),
                                           inputs, "thm46b_norm")
        assert rep["details"]["violation_count"] == (2 * self.COUNT if flagged else 0)
        want = {"luxemburg": self.COUNT, "amemiya": self.COUNT} if flagged else {}
        assert Counter(v["check"] for v in rep["violations"]) == want

    @pytest.mark.parametrize("f, flagged", [(10.0, True), (0.1, False)])
    def test_violation_rel(self, monkeypatch, space8, phi_affine_h, f, flagged):
        monkeypatch.setattr(verify, "sparr_gamma",
                            lambda p, q: 1.0 - f * SHIPPED_THRESHOLDS["VIOLATION_REL"])
        inputs = ok.generate_inputs(space8, self.COUNT, "mixed", 1.0, 20)
        rep = ok.verify_modular_lp_lq(phi_affine_h, COUPLE, ok.identity_operator(space8, COUPLE),
                                      inputs)
        assert rep["details"]["violation_count"] == (self.COUNT if flagged else 0)
        assert sorted(v["input_index"] for v in rep["violations"]) == (
            list(range(self.COUNT)) if flagged else [])


    @pytest.mark.parametrize("f, flagged", [(10.0, True), (0.1, False)])
    @pytest.mark.parametrize("p, q", [(2, np.inf), (1, 2)])
    def test_violation_rel_on_the_k_contraction(self, space8, p, q, f, flagged):
        # T = identity with M = 1 - f * threshold: K (q = inf) is homogeneous,
        # so K(t, x/M) = K(t, x)/M, and L's degree lies in [p, q] = [1, 2], so
        # f = 10 raises the left side by at least 10 thresholds and f = 0.1 by
        # at most 0.2 of one, on every (input, t) of K_T_GRID
        couple = ExponentCouple(p, q)
        bound = 1.0 - f * SHIPPED_THRESHOLDS["VIOLATION_REL"]
        op = dataclasses.replace(ok.identity_operator(space8, couple), bound_p=bound, bound_q=bound)
        inputs = ok.generate_inputs(space8, self.COUNT, "mixed", 1.0, 23)
        rep = ok.verify_k_contraction(op, inputs)
        assert rep["details"]["violation_count"] == (
            self.COUNT * verify.K_T_GRID.size if flagged else 0)

    @pytest.mark.parametrize("f, met", [(10.0, False), (0.1, True)])
    @pytest.mark.parametrize("p, q", [(1, 2), (1.5, 3), (2, 4)])
    def test_hypothesis_slack(self, space8, p, q, f, met):
        # L(t, .) is strictly increasing in the scale, between the powers p
        # and q of it: y = (1 - delta) x breaks the hypothesis L(t, x) <=
        # L(t, y) by about delta * eta * L(t, x), with eta in [p, q]. So
        # delta = 10 slack / p breaks it by at least 10 slacks on some t, and
        # delta = 0.1 slack / q by at most 0.1 slack on every t
        slack = SHIPPED_THRESHOLDS["HYPOTHESIS_SLACK"]
        delta = f * slack / (p if f > 1.0 else q)
        xs = ok.generate_inputs(space8, self.COUNT, "mixed", 1.0, 21)
        assert np.all(np.abs(xs.values).max(axis=1) > 0.0)
        couple = ExponentCouple(p, q)
        count = verify._sparr_pairs(xs, xs.scaled(1.0 - delta), couple, verify.SPARR_T_GRID,
                                    ok.sparr_gamma(p, q), verify._Collector())
        assert count == (self.COUNT if met else 0)


class TestChainDiagnostics:
    def test_links_pass_for_generator_phi(self, space8):
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        op = ok.averaging_operator(space8, COUPLE)
        rep = ok.verify_norm_interpolation(phi, COUPLE, op,
                                           ok.generate_inputs(space8, 15, "mixed", 1.0, 13),
                                           "thm46b_norm", diagnostics=True)
        assert rep["status"] == "pass"
        assert rep["details"]["chain"]["mode"] == "chain_diagnostics"

    def test_majorant_skips_where_a_generator_phi_is_zero(self):
        # at q = 60, phi = u^60 is below e^-690 near u = 1e-5, where the
        # generator build makes it 0 and u phi'/phi is 0/0
        couple = ExponentCouple(1, 60)
        phi = specs.resolve_phi({"kind": "generator", "p": 1, "q": 60,
                                 "rho": {"kind": "power", "theta": 1.0}})
        rows, s_grid = verify._h_from_generator(phi, couple)
        zero = rows[0] == 0.0
        assert 0 < zero.sum() < 100 and np.all(np.isfinite(rows[:, ~zero]))
        space = ok.uniform_space(1)
        rep = ok.verify_norm_interpolation(phi, couple, ok.identity_operator(space, couple),
                                           ok.generate_inputs(space, 4, "mixed", 1.0, 0),
                                           "thm46b_norm", diagnostics=True)
        assert rep["status"] == "pass"
        assert rep["details"]["chain"]["mode"] == "chain_diagnostics"

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 4: link3_psi_le_2phi is applied beyond [1e-5, 1e5], where "
        "the chain's majorant is certified, and fails on 20 of 20 inputs at scale 1e6"))
    def test_chain_gives_no_false_alarm_at_large_scale(self):
        scenario = dict(load_scenario("thm46b_norm_1_2.json"), diagnostics=True)
        scenario["inputs"] = dict(scenario["inputs"], count=20, scale=1e6)
        assert verdict(run_scenario(scenario)) == ("pass", 0)

    def test_links_report_into_the_norm_report(self, space8, monkeypatch):
        phi = cached_generator_phi(1, 2, "powerlog", (0.5, 0, 0))
        op = ok.discrete_maximal(space8, COUPLE)
        inputs = ok.generate_inputs(space8, 12, "mixed", 1.0, 15)
        monkeypatch.setattr(verify, "CHAIN_REL", -1.0)
        plain = ok.verify_norm_interpolation(phi, COUPLE, op, inputs, "thm46b_norm")
        chained = ok.verify_norm_interpolation(phi, COUPLE, op, inputs, "thm46b_norm",
                                               diagnostics=True)
        # a negative chain threshold fails the links and nothing else
        assert plain["status"] == "pass" and chained["status"] == "fail"
        assert {v["check"] for v in chained["violations"]} <= {
            "link1_phi_le_psi", "link2_psi_contraction", "link3_psi_le_2phi"}
        # at most 12 inputs x 3 links: every violation is listed
        count = chained["details"]["violation_count"]
        assert len(chained["violations"]) == count > 0
        assert chained["details"] == dict(plain["details"], chain=chained["details"]["chain"],
                                          violation_count=count)

    # valid scenarios whose majorant table broke with a bare ValueError
    # ("slopes increase: not concave"). For rho = min(1, t), h = max(s, 1), and
    # the grid lines 1 + t/s_j for s_j < 1 all meet at t = 0, where their
    # rounded intercepts put the crossings in any order. The majorant now
    # keeps the envelope's own lines instead of recomputing their slopes
    # from values at those bunched knots
    CHAIN_CASES = {
        "min_one-2-2.5": ({"kind": "min_one"}, 2, 2.5),
        "min_one-1.2-2.2": ({"kind": "min_one"}, 1.2, 2.2),
        "min_one-1.2-3.2": ({"kind": "min_one"}, 1.2, 3.2),
        "min_one-1.5-2.5": ({"kind": "min_one"}, 1.5, 2.5),
        "pwl-1-5": ({"kind": "pwl", "knots": [1, 4], "values": [2, 2.75],
                     "slope0": 0.5, "slope_inf": 0.1}, 1, 5),
    }

    @pytest.mark.parametrize("case", sorted(CHAIN_CASES))
    def test_majorant_of_a_partly_flat_h_builds(self, case):
        rho, p, q = self.CHAIN_CASES[case]
        scenario = load_scenario("thm46b_norm_1_2.json")
        scenario.update(couple={"p": p, "q": q}, diagnostics=True,
                        phi={"kind": "generator", "p": p, "q": q, "rho": rho})
        scenario["inputs"]["count"] = 20
        report = run_scenario(scenario)
        assert report["status"] == "pass"
        assert report["details"]["chain"]["mode"] == "chain_diagnostics"

    # q > 61.6: u^q on u in [1e-5, 1e5] overflowed, and the chain ended in a
    # bare ValueError ("rho must be finite and positive on the grid"); for
    # rho = min(1, t) the envelope then met near-parallel lines whose
    # crossing overflows
    @pytest.mark.parametrize("rho", [{"kind": "powerlog", "theta": 0.5, "a": 0, "b": 0},
                                     {"kind": "min_one"}], ids=["sqrt", "min_one"])
    @pytest.mark.parametrize("p, q", [(1, 62), (1, 64), (1.5, 64)])
    def test_far_couples_give_a_report(self, p, q, rho):
        scenario = load_scenario("thm46b_norm_1_2.json")
        scenario.update(couple={"p": p, "q": q}, phi={"kind": "generator", "p": p, "q": q, "rho": rho})
        scenario["inputs"]["count"] = 20
        report = run_scenario(scenario)
        assert report["status"] == "pass"
        assert report["details"]["chain"]["mode"] == "chain_diagnostics"

    def test_far_couple_grid_keeps_u_to_the_q_and_s_normal(self):
        p, q = 1, 64
        phi = cached_generator_phi(p, q, "powerlog", (0.5, 0, 0))
        rows, s = verify._h_from_generator(phi, ExponentCouple(p, q))
        u = s ** (1.0 / (p - q))
        for values in (s, u**q, rows[0]):
            assert np.all(np.isfinite(values)) and values.min() >= np.finfo(float).tiny
        # the grid spans |log u| <= 700 / q, inside [1e-5, 1e5]
        np.testing.assert_allclose(np.log(u[[0, -1]]), [700.0 / q, -700.0 / q], rtol=1e-12)

    def test_min_one_majorant_is_one_plus_s(self):
        # h = max(s, 1) has the concave majorant 1 + s on the whole grid
        couple = ExponentCouple(2, 2.5)
        rows, s = verify._h_from_generator(cached_generator_phi(2, 2.5, "min_one"), couple)
        maj = ok.concave_majorant(lambda _: rows, grid=s, extend_decades=0.0)
        np.testing.assert_allclose(maj(s), 1.0 + s, rtol=1e-15, atol=0.0)
        # each piece is a grid line h(s_j) + t * h(s_j) / s_j, and h >= 1 up
        # to rounding
        assert np.all(maj.intercepts >= 1.0 - 1e-12) and np.all(np.diff(maj.slopes) < 0.0)

    @pytest.mark.parametrize("family, params", [("powerlog", (0.3, 1, -1)), ("power", (0.5,)),
                                                ("min_one", ())])
    def test_h_jet_is_read_off_phi(self, family, params):
        p, q = 1.5, 3
        phi = cached_generator_phi(p, q, family, params)
        jet, s = verify._h_from_generator(phi, ExponentCouple(p, q))

        def h(s):
            u = s ** (1.0 / (p - q))
            return phi(u) / u**q

        # row 0 is phi(u) / u^q, bit for bit as the values give it
        assert jet.shape == (2, s.size) and np.array_equal(jet[0], h(s))
        # the elasticity s*h'/h = (q - eta) / (q - p) lies in [0, 1] to rounding
        elast = jet[1] / jet[0]
        assert elast.min() >= -1e-14 and elast.max() <= 1.0 + 1e-14
        # row 1 against central differences of h in log s, away from the kink
        # of h = max(s, 1) for min_one
        away = np.abs(np.log(s)) > 1e-3
        s, mid = s[away][::64], jet[:, away][:, ::64]
        step = 1e-5
        slope = (h(s * np.exp(step)) - h(s * np.exp(-step))) / (2 * step)
        assert np.all(np.abs(mid[1] - slope) <= 1e-8 * mid[0])

    def test_needs_generator_phi(self, space8, phi_affine_h):
        op = ok.averaging_operator(space8, COUPLE)
        with pytest.raises(ok.ScenarioRejected, match="generator-built phi"):
            ok.verify_norm_interpolation(phi_affine_h, COUPLE, op,
                                         ok.generate_inputs(space8, 3, "mixed", 1.0, 14),
                                         "thm46b_norm", diagnostics=True)


def clear_builds():
    """Empty the per-process caches of built phi's and chain majorants."""
    specs._cached_phi.cache_clear()
    verify._majorant_psi.cache_clear()


class TestSharedBuilds:
    """Each phi spec is built once per process, and each chain majorant once
    per (phi, couple); reports do not depend on what was built before."""

    def test_chain_majorant_is_computed_once(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return ok.concave_majorant(*args, **kwargs)

        clear_builds()
        monkeypatch.setattr(verify, "concave_majorant", counting)
        scenario = load_scenario("thm46b_norm_1_2.json")
        scenario["inputs"]["count"] = 4
        first = run_scenario(scenario)
        second = run_scenario(dict(scenario, seed=scenario["seed"] + 1))
        assert first["details"]["chain"]["mode"] == "chain_diagnostics"
        assert second["status"] == "pass" and len(calls) == 1

    def test_shipped_reports_are_the_same_cold_and_warm(self):
        # cold builds every phi for its own report, as a fresh process does
        scenarios = [load_scenario(path.name) for path in sorted(SCENARIO_DIR.glob("*.json"))]
        scenarios += [dict(s, fault={"halve_certificate": True}) for s in scenarios
                      if s.get("operator")]
        assert len(scenarios) == 23
        cold = []
        for scenario in scenarios:
            clear_builds()
            cold.append(strip_wall(run_scenario(scenario)))
        warm = [strip_wall(run_scenario(scenario)) for scenario in reversed(scenarios)]
        assert json.dumps(cold, sort_keys=True) == json.dumps(warm[::-1], sort_keys=True)


def counting_norms(monkeypatch):
    """Count the verifier's calls of each norm, of the first pass they share
    and of the modular, and the passes of phi's jet each makes."""
    calls, passes = Counter(), Counter()

    def counted(fn):
        def run(phi, x, **kwargs):
            calls[fn.__name__] += 1

            def jet(u):
                passes[fn.__name__] += 1
                return phi.jet(u)

            return fn(dataclasses.replace(phi, jet=jet), x, **kwargs)
        return run

    for name in ("luxemburg_norm", "amemiya_norm", "modular", "norm_start"):
        monkeypatch.setattr(verify, name, counted(getattr(verify, name)))
    return calls, passes


class TestStackedNormReport:
    """A norm report searches Tx and x as one batch in each norm, and the
    chain takes one modular of [Tx/M; x] per phi, through the public
    `orlicz.luxemburg_norm`, `amemiya_norm` and `modular`; the two searches
    share their first pass, `orlicz.norm_start`."""

    def test_thm51_report_takes_three_passes_for_its_two_norms(self, monkeypatch):
        # one call per side made 8, two passes per search and side; one call
        # per search made 4, and the shared first pass saves one more
        scenario = load_scenario("thm51_linear_15_2.json")
        scenario["inputs"]["count"] = 20
        plain = strip_wall(run_scenario(scenario))
        calls, passes = counting_norms(monkeypatch)
        assert strip_wall(run_scenario(scenario)) == plain
        assert calls == {"norm_start": 1, "luxemburg_norm": 1, "amemiya_norm": 1}
        assert passes["norm_start"] == 1 and sum(passes.values()) <= 3, passes

    def test_chain_takes_one_modular_per_phi(self, monkeypatch):
        scenario = load_scenario("thm46b_norm_1_2.json")
        scenario["inputs"]["count"] = 20
        plain = strip_wall(run_scenario(scenario))
        calls, _ = counting_norms(monkeypatch)
        assert strip_wall(run_scenario(scenario)) == plain
        assert calls == {"norm_start": 1, "luxemburg_norm": 1, "amemiya_norm": 1, "modular": 2}


# status and violation_count of each shipped report (and hypothesis_met for
# sparr), as shipped and under fault {"halve_certificate": true}; sparr has
# no operator to fault. Five operator scenarios still pass with the
# certificate halved (ROADMAP item 2): prop22_maximal_2inf, thm31a_p2_maximal,
# thm46b_norm_1_2 and both thm51_linear.
SHIPPED_VERDICTS = {
    "prop22_maximal_2inf": (("pass", 0), ("pass", 0)),
    "remark_concave_h_1_2": (("pass", 0), ("fail", 2)),
    "sparr_lemma_15_3": (("pass", 0, 943), None),
    "sparr_lemma_1_2": (("pass", 0, 941), None),
    "sparr_lemma_2_4": (("pass", 0, 950), None),
    "thm31a_p1_orlicz": (("pass", 0), ("fail", 405)),
    "thm31a_p2_maximal": (("pass", 0), ("pass", 0)),
    "thm31b_norm_p2": (("pass", 0), ("fail", 52)),
    "thm46a": (("pass", 0), ("fail", 4)),
    "thm46a_negative_control": (("fail", 500), ("fail", 500)),
    "thm46b_norm_1_2": (("pass", 0), ("pass", 0)),
    "thm51_linear_15_2": (("pass", 0), ("pass", 0)),
    "thm51_linear_2_3": (("pass", 0), ("pass", 0)),
}


def verdict(report):
    details = report["details"]
    met = (details["hypothesis_met"],) if "hypothesis_met" in details else ()
    return (report["status"], details["violation_count"]) + met


class TestShippedVerdicts:
    def test_table_names_every_shipped_scenario(self):
        assert sorted(SHIPPED_VERDICTS) == sorted(path.stem for path in SCENARIO_DIR.glob("*.json"))
        assert sum(halved is not None for _, halved in SHIPPED_VERDICTS.values()) == 10

    @pytest.mark.parametrize("name", sorted(SHIPPED_VERDICTS))
    def test_verdicts_as_shipped_and_halved(self, name):
        scenario = load_scenario(f"{name}.json")
        shipped, halved = SHIPPED_VERDICTS[name]
        assert verdict(run_scenario(scenario)) == shipped
        if halved is not None:
            assert verdict(run_scenario(dict(scenario, fault={"halve_certificate": True}))) == halved


# ROADMAP item 17, the shipped half: inputs.scale times 2^k scales every
# draw exactly, so each homogeneous check keeps its verdict (status,
# violation_count and, for sparr, hypothesis_met) over aim 3's range
# 1e-8..1e8, about 2^+-26.6. prop22's and the norm tags' margins are ratios
# of homogeneous sides, so each stays bitwise the same too. Each variant is
# (scenario, diagnostics, halved certificate).
SCALE_STEPS = (-26, -13, 13, 26)
SCALE_VARIANTS = [(name, None, halved)
                  for name in ("prop22_maximal_2inf", "remark_concave_h_1_2", "thm31b_norm_p2",
                               "thm46b_norm_1_2", "thm51_linear_15_2", "thm51_linear_2_3")
                  for halved in (False, True)]
SCALE_VARIANTS += [("thm46b_norm_1_2", False, halved) for halved in (False, True)]
SCALE_VARIANTS += [(name, None, False)
                   for name in ("sparr_lemma_15_3", "sparr_lemma_1_2", "sparr_lemma_2_4")]
SPARR_SCALE_REASON = ("ROADMAP item 16: the sparr hypothesis is decided on verify.SPARR_T_GRID "
                      "alone, so the pairs that meet it move with the scale (hypothesis_met {})")
CHAIN_SCALE_REASON = ("ROADMAP item 4: the chain's link3, gamma * modular_psi(x) <= 2 * gamma * "
                      "modular_phi(x), compares modulars, which are not homogeneous; it breaks "
                      "on 67, 1 and 100 inputs at k = -26, 13 and 26")
SCALE_BREAKS = {
    ("sparr_lemma_1_2", -26): SPARR_SCALE_REASON.format("941 -> 952"),
    ("sparr_lemma_1_2", 26): SPARR_SCALE_REASON.format("941 -> 946"),
    **{("sparr_lemma_15_3", k): SPARR_SCALE_REASON.format(f"943 -> {met}")
       for k, met in zip(SCALE_STEPS, (1000, 948, 944, 945))},
    **{("sparr_lemma_2_4", k): SPARR_SCALE_REASON.format(f"950 -> {met}")
       for k, met in zip(SCALE_STEPS, (1000, 954, 953, 953))},
    **{("thm46b_norm_1_2", k): CHAIN_SCALE_REASON for k in (-26, 13, 26)},
}


def scale_variant_report(variant, k):
    name, diagnostics, halved = variant
    scenario = load_scenario(f"{name}.json")
    scenario["inputs"]["scale"] *= 2.0**k
    if diagnostics is not None:
        scenario["diagnostics"] = diagnostics
    if halved:
        scenario["fault"] = {"halve_certificate": True}
    return run_scenario(scenario)


@functools.lru_cache(maxsize=None)
def unscaled_report(variant):
    return scale_variant_report(variant, 0)


def scale_params():
    for variant in SCALE_VARIANTS:
        name, diagnostics, halved = variant
        label = name + {None: "", False: "-no-diagnostics"}[diagnostics] + "-halved" * halved
        for k in SCALE_STEPS:
            # the as-shipped chain (diagnostics on) is the one that breaks
            reason = SCALE_BREAKS.get((name, k)) if diagnostics is None else None
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(variant, k, marks=marks, id=f"{label}-2^{k}")


class TestScaleFreeVerdicts:
    @pytest.mark.parametrize("variant,k", scale_params())
    def test_verdict_holds_at_power_of_two_scales(self, variant, k):
        base, report = unscaled_report(variant), scale_variant_report(variant, k)
        assert verdict(report) == verdict(base)
        if not variant[0].startswith("sparr"):
            assert [v["margin"] for v in report["violations"]] == \
                [v["margin"] for v in base["violations"]]


class TestRunScenario:
    @pytest.mark.parametrize("name", ["thm46a.json", "remark_concave_h_1_2.json"])
    def test_concave_h_tags_reject_a_phi_without_the_h_form(self, name):
        # their constants hold for phi(u) = u^q h(u^{p-q}) with h concave; with
        # rho = min(1, t) this phi's h is max(s, 1), which is convex
        scenario = load_scenario(name)
        scenario["phi"] = {"kind": "generator", "p": 1, "q": 2, "rho": {"kind": "min_one"}}
        with pytest.raises(ok.ScenarioRejected, match="concave-h form"):
            run_scenario(scenario)

    def test_smoke_scenario_passes_fast(self):
        import time
        start = time.perf_counter()
        report = run_scenario(load_scenario("thm46a.json"))
        assert report["status"] == "pass"
        assert time.perf_counter() - start < 1.0

    def test_determinism_modulo_wall_time(self):
        scenario = load_scenario("thm46a.json")
        a = run_scenario(scenario)
        b = run_scenario(scenario)
        assert strip_wall(a) == strip_wall(b)

    def test_phi_and_operator_built_once_per_report(self, monkeypatch):
        calls = {"phi": 0, "operator": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(specs, "resolve_phi", counting("phi", specs.resolve_phi))
        monkeypatch.setattr(specs, "resolve_operator", counting("operator", specs.resolve_operator))
        scenario = load_scenario("thm46b_norm_1_2.json")
        scenario["inputs"]["count"] = 4
        assert run_scenario(scenario)["status"] == "pass"
        assert calls == {"phi": 1, "operator": 1}

    @pytest.mark.parametrize("operator", [
        {"kind": "maximal"},
        {"kind": "max_of", "ops": [{"kind": "identity"}, {"kind": "averaging"}]},
    ], ids=["maximal", "max_of"])
    def test_thm51_linear_rejects_a_nonlinear_operator_before_phi(self, monkeypatch, operator):
        calls = {"phi": 0, "inputs": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(specs, "resolve_phi", counting("phi", specs.resolve_phi))
        monkeypatch.setattr(verify, "generate_inputs", counting("inputs", verify.generate_inputs))
        scenario = dict(load_scenario("thm51_linear_15_2.json"), operator=operator)
        with pytest.raises(specs.SpecError, match="thm51_linear needs a linear operator"):
            run_scenario(scenario)
        assert calls == {"phi": 0, "inputs": 0}

    def test_one_apply_per_report(self, monkeypatch):
        # every report that takes an operator applies it once, to all its
        # inputs; thm46b_norm_1_2 shares that batch with its chain links
        calls = []
        apply = ok.CertifiedOperator.apply

        def counting(op, x):
            calls.append(type(x))
            return apply(op, x)

        monkeypatch.setattr(ok.CertifiedOperator, "apply", counting)
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            scenario = json.loads(path.read_text())
            scenario["inputs"]["count"] = min(scenario["inputs"]["count"], 6)
            calls.clear()
            run_scenario(scenario)
            expected = [] if scenario["theorem"] == "sparr_lemma" else [ok.SampleBatch]
            assert calls == expected, path.name

    def test_inputs_beyond_phi_domain_are_a_rejection(self):
        # with rho = min(1, t) at q = inf, phi^-1 = min(u, 1) stops at
        # u_max = 1; inputs at scale 1e6 leave phi's domain, which makes the
        # scenario invalid, not falsified
        scenario = load_scenario("thm31a_p1_orlicz.json")
        scenario["phi"]["rho"] = {"kind": "min_one"}
        scenario["inputs"].update(count=4, scale=1e6)
        with pytest.raises(ok.ScenarioRejected, match=r"u_max = 1:"):
            run_scenario(scenario)

    def test_negative_control_detects_planted_fault(self):
        report = run_scenario(load_scenario("thm46a_negative_control.json"))
        assert report["status"] == "fail"
        assert report["details"]["violation_count"] >= 1
        worst = report["violations"][0]
        assert worst["lhs"] > worst["rhs"]
        assert len(worst["witness"]) == 8

    def test_seed_is_mandatory(self):
        scenario = load_scenario("thm46a.json")
        del scenario["seed"]
        with pytest.raises(specs.SpecError):
            run_scenario(scenario)

    def test_unknown_keys_rejected(self):
        scenario = load_scenario("thm46a.json")
        scenario["frobnicate"] = 1
        with pytest.raises(specs.SpecError):
            run_scenario(scenario)

    def test_every_shipped_scenario_is_normalized(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            raw = json.loads(path.read_text())
            assert specs.dump_normalized(specs.normalize_scenario(raw)) == path.read_text(), path.name

    def test_every_shipped_scenario_parses_runs_and_reserializes(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            raw = json.loads(path.read_text())
            report = run_scenario(raw)
            expected = "fail" if "negative_control" in path.name else "pass"
            assert report["status"] == expected, path.name
            echoed = specs.dump_normalized(report["scenario"])
            assert echoed == path.read_text(), path.name

    def test_faulted_norm_report_counts_and_witnesses_each_input(self):
        scenario = load_scenario("thm31b_norm_p2.json")
        scenario["fault"] = {"halve_certificate": True}
        report = run_scenario(scenario)
        resolved, space, couple, phi, op = specs.resolve_scenario(scenario)
        inputs = ok.generate_inputs(space, resolved["inputs"]["count"], "mixed",
                                    resolved["inputs"]["scale"], resolved["seed"])
        op = dataclasses.replace(op, bound_p=op.bound_p / 2.0, bound_q=op.bound_q / 2.0)
        cm = ok.bergh_constant(couple.p) * op.max_bound
        txs = ok.SampleBatch(space, np.concatenate([op.apply(ok.SampleFunction(space, v)).values
                                                    for v in inputs.values]))
        rel, floor = verify.NORM_REL, verify.ABS_FLOOR
        beyond = 0
        for norm in (ok.luxemburg_norm, ok.amemiya_norm):
            lhs, rhs = norm(phi, txs), cm * norm(phi, inputs)
            beyond += int(np.sum(lhs > rhs + rel * np.abs(rhs) + floor))
        assert report["status"] == "fail"
        assert {v["check"] for v in report["violations"]} == {"luxemburg", "amemiya"}
        assert report["details"]["violation_count"] == beyond
        for v in report["violations"]:
            assert v["witness"] == inputs.values[v["input_index"]].tolist()

    @pytest.mark.parametrize("name,scale", [("prop22_maximal_2inf.json", 1e308),
                                            ("thm46a.json", 1e308),
                                            ("sparr_lemma_1_2.json", 1e308),
                                            ("prop22_maximal_2inf.json", 1e307),
                                            ("remark_concave_h_1_2.json", 1e307),
                                            ("thm51_linear_2_3.json", 1e307),
                                            ("thm46b_norm_1_2.json", 1e306),
                                            ("thm31a_p1_orlicz.json", 1e305),
                                            ("thm31a_p2_maximal.json", 1e306)])
    def test_huge_input_scale_is_a_rejection(self, name, scale):
        # 1e308 overflows the draws themselves; below it, the window
        # maximal's prefix sums (prop22), the Luxemburg norm's scale-back
        # (remark_concave_h) or a norm check's right side C * M * ||x||
        # (thm51, thm46b) leaves the float range, with no RuntimeWarning,
        # and the inputs of a generator phi's modular check (thm31a) leave
        # its domain
        scenario = load_scenario(name)
        scenario["inputs"].update(count=8, scale=scale)
        with pytest.raises(ok.ScenarioRejected, match="inputs.scale"):
            run_scenario(scenario)

    def test_huge_sparr_conclusion_side_is_a_rejection(self):
        # at 1e307 the draws of the shipped 1,000 pairs stay finite, but
        # gamma * L*(t, y) overflows
        scenario = load_scenario("sparr_lemma_1_2.json")
        scenario["inputs"]["scale"] = 1e307
        with pytest.raises(ok.ScenarioRejected, match="inputs.scale"):
            run_scenario(scenario)

    @pytest.mark.parametrize("scale", [1e-160, 1e160, 1e200])
    def test_k_contraction_gives_its_verdict_at_extreme_scales(self, scale):
        # ||x||_2^2 under- or overflows at these scales, but K is scaled per member
        scenario = load_scenario("prop22_maximal_2inf.json")
        scenario["inputs"].update(count=8, scale=scale)
        report = run_scenario(scenario)
        scenario["inputs"]["scale"] = 1.0
        assert report["status"] == run_scenario(scenario)["status"] == "pass"

    def test_failing_k_report_points_at_each_input(self):
        # a certificate ten times too small breaks the K contraction on some
        # (input, t); each violation must match a per-input recomputation
        scenario = load_scenario("prop22_maximal_2inf.json")
        scenario["inputs"]["count"] = 40
        resolved, space, couple, phi, op = specs.resolve_scenario(scenario)
        op = dataclasses.replace(op, bound_p=op.bound_p / 10.0, bound_q=op.bound_q / 10.0)
        inputs = ok.generate_inputs(space, 40, "mixed", 1.0, resolved["seed"])
        ts = verify.K_T_GRID
        report = ok.verify_k_contraction(op, inputs)
        rel, floor = verify.VIOLATION_REL, verify.ABS_FLOOR
        expected = []
        for i, v in enumerate(inputs.values):
            x = ok.SampleFunction(space, v)
            tx = op.apply(x).scaled(1.0 / op.max_bound)
            lhs = ok.k_lp_linf_grid(ts, tx, couple.p)[0]
            rhs = ok.k_lp_linf_grid(ts, x, couple.p)[0]
            for j in np.flatnonzero(lhs > rhs + rel * np.abs(rhs) + floor):
                left, right = float(lhs[j]), float(rhs[j])
                expected.append({"t": float(ts[j]), "input_index": i, "lhs": left, "rhs": right,
                                 "margin": (left - right) / max(abs(right), floor),
                                 "check": "k_contraction", "witness": v.tolist()})
        # the report counts every violation and lists the 200 widest, widest
        # first, then by input index and t
        expected.sort(key=lambda v: (-v["margin"], v["input_index"], v["t"]))
        assert report["status"] == "fail" and len(expected) > 200
        assert report["details"]["violation_count"] == len(expected)
        assert report["violations"] == expected[:200]

    def test_failing_sparr_report_points_at_each_pair(self):
        # half of gamma breaks the conclusion on some pairs that meet the hypothesis
        couple, ts = ExponentCouple(1, 2), np.logspace(-4, 4, 16)
        xs, ys = verify._pair_batch(ok.uniform_space(8), 60, 1.0, 12)
        gamma = 0.5 * ok.sparr_gamma(1, 2)
        collector = verify._Collector()
        met = verify._sparr_pairs(xs, ys, couple, ts, gamma, collector)
        slack, rel, floor = verify.HYPOTHESIS_SLACK, verify.VIOLATION_REL, verify.ABS_FLOOR
        expected, met_alone = set(), 0
        for i, (xv, yv) in enumerate(zip(xs.values, ys.values)):
            x, y = ok.SampleFunction(xs.space, xv), ok.SampleFunction(ys.space, yv)
            kx, ky = ok.l_functional_grid(ts, x, 1, 2)[0], ok.l_functional_grid(ts, y, 1, 2)[0]
            if not np.all(kx <= ky + slack * np.abs(ky) + floor):
                continue
            met_alone += 1
            lhs, rhs = ok.l_star_grid(ts, x, 1, 2)[0], gamma * ok.l_star_grid(ts, y, 1, 2)[0]
            for j in np.flatnonzero(lhs > rhs + rel * np.abs(rhs) + floor):
                expected.add((i, float(ts[j]), float(lhs[j]), float(rhs[j]),
                              tuple(xv) + tuple(yv)))
        got = {(v["input_index"], v["t"], v["lhs"], v["rhs"], tuple(v["witness"]))
               for v in collector.violations}
        assert met == met_alone
        assert len(collector.violations) == len(expected) > 0
        assert got == expected

    def test_the_t_grids_are_read_only(self):
        for grid in (verify.K_T_GRID, verify.SPARR_T_GRID):
            with pytest.raises(ValueError, match="read-only"):
                grid[0] = 1.0

    @pytest.mark.parametrize("name", ["prop22_maximal_2inf.json", "sparr_lemma_1_2.json"])
    def test_a_scenario_cannot_set_its_t_grid(self, name):
        # prop22 and sparr_lemma check on verify.K_T_GRID and SPARR_T_GRID; a
        # scenario t-grid, even a denser one, is an unknown key
        scenario = load_scenario(name)
        scenario["t_grid"] = {"start": 1e-8, "stop": 1e8, "points": 128}
        with pytest.raises(specs.SpecError, match="unknown keys: \\['t_grid'\\]"):
            run_scenario(scenario)

    def test_a_scenario_cannot_set_its_pass_thresholds(self):
        # the thresholds are constants of verify: a scenario that sets one,
        # even to loosen the control's check into a pass or to widen sparr's
        # hypothesis until a true lemma fails, is rejected as an unknown key
        for name, tolerances in (("thm46a_negative_control.json", {"violation_rel": 2.0}),
                                 ("sparr_lemma_1_2.json", {"hypothesis_slack": 1e6})):
            scenario = load_scenario(name)
            scenario["tolerances"] = tolerances
            with pytest.raises(specs.SpecError, match="unknown keys: \\['tolerances'\\]"):
                run_scenario(scenario)
