"""Acceptance suite: one test per shipped criterion, each printing a
PASS/FAIL line (run with -s to see them live). Tolerances are pinned here
and match the scenario defaults; nothing is deferred to calibration."""

import json
import math
import time
import zlib
from pathlib import Path

import numpy as np

import orliczkit as ok
from orliczkit.orlicz import ExponentCouple
from orliczkit.quasiconcave import log_grid
from orliczkit.verify import run_scenario

from conftest import cached_generator_phi, session_elapsed
from oracles import (brute_force_k, cumulative_p_integral, lp_integral, phi_expansion,
                     rearrangement, reconstruct, second_difference_convexity,
                     sparr_gamma_oracle, sup_norm)
from test_quasiconcave import random_concave_plc

SCENARIO_DIR = Path(__file__).parent.parent / "src" / "orliczkit" / "scenarios"
GAMMA_GRID = [1.0, 1.25, 1.5, 2.0, 2.5, 3.0, 4.0]


def announce(num, name, passed, detail=""):
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def load_scenario(name):
    return json.loads((SCENARIO_DIR / name).read_text())


def stable_seed(*parts) -> int:
    # process-stable, unlike hash() on strings
    return zlib.crc32(repr(parts).encode())


def test_criterion_01_sparr_constants():
    start = time.perf_counter()
    checks = []
    checks.append(abs(ok.sparr_gamma(1, 1) - 1.0) <= 1e-12)
    checks.append(all(abs(ok.sparr_gamma(p, p) - 2 ** (1 - 1 / p)) <= 1e-9
                      for p in (1.5, 2.0, 3.0, 4.0)))
    checks.append(abs(ok.sparr_gamma(1, 2) - 1.25) <= 1e-9)

    fast = {(p, q): ok.sparr_gamma(p, q) for p in GAMMA_GRID for q in GAMMA_GRID}
    oracle = {(p, q): sparr_gamma_oracle(p, q) for p in GAMMA_GRID for q in GAMMA_GRID}
    worst_gap = max(abs(fast[k] - oracle[k]) for k in fast)
    checks.append(worst_gap <= 1e-6)

    for q in GAMMA_GRID:
        row = [fast[(p, q)] for p in GAMMA_GRID]
        col = [fast[(q, p)] for p in GAMMA_GRID]
        checks.append(all(b >= a - 1e-9 for a, b in zip(row, row[1:])))
        checks.append(all(b >= a - 1e-9 for a, b in zip(col, col[1:])))
    checks.append(all(abs(fast[(p, q)] - fast[(q, p)]) <= 1e-9
                      for p in GAMMA_GRID for q in GAMMA_GRID))
    checks.append(all(2 ** (1 - 1 / p) - 1e-9 <= fast[(p, q)] <= 2 ** (1 - 1 / q) + 1e-9
                      for p in GAMMA_GRID for q in GAMMA_GRID if p <= q))
    elapsed = time.perf_counter() - start
    checks.append(elapsed < 30.0)
    announce(1, "sparr-constants", all(checks),
             f"fast/oracle gap {worst_gap:.2e}, {elapsed:.1f}s")


def test_criterion_02_pointwise_reduction():
    # instance ranges keep the dimensionless parameter t*|x|^{q-p} where the
    # signed grids resolve the per-atom optima: all three couples at n=201,
    # the (1,2) couple at the coarser n=101 three-atom grid
    start = time.perf_counter()
    worst = 0.0

    def run_batch(count, atoms, grid_n, t_lo, t_hi, couples, seed):
        nonlocal worst
        children = np.random.SeedSequence(seed).spawn(count)
        for i in range(count):
            rng = np.random.default_rng(children[i])
            p, q = couples[i % len(couples)]
            vals = rng.uniform(0.5, 2.0, atoms) * rng.choice([-1.0, 1.0], atoms)
            weights = rng.uniform(0.5, 2.0, atoms)
            t = float(10 ** rng.uniform(math.log10(t_lo), math.log10(t_hi)))
            x = ok.SampleFunction(ok.DiscreteMeasureSpace(weights), vals)
            exact = ok.l_functional_grid(t, x, p, q)[0, 0]
            grid = brute_force_k(t, x, p, q, grid_n)
            assert grid >= exact - 1e-9
            worst = max(worst, abs(grid - exact) / exact)

    run_batch(100, 2, 201, 0.5, 3.0, [(1.0, 2.0), (1.5, 3.0), (2.0, 4.0)], 220601)
    run_batch(20, 3, 101, 0.3, 1.5, [(1.0, 2.0)], 220602)
    elapsed = time.perf_counter() - start
    announce(2, "pointwise-reduction-oracle", worst <= 2e-3 and elapsed < 120.0,
             f"worst rel diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_03_kree_sandwich():
    start = time.perf_counter()
    space = ok.uniform_space(10)
    ts = np.logspace(-2, 2, 20)
    worst_sandwich = 0.0
    worst_p1 = 0.0
    for p in (1.0, 1.5, 2.0, 3.0):
        inputs = ok.generate_inputs(space, 500, "mixed", 1.0, 330000 + int(10 * p))
        constant = 2 ** (1 - 1 / p)
        for v in inputs.values:
            x = ok.SampleFunction(space, v)
            if sup_norm(x) == 0.0:
                continue
            step = rearrangement(x)
            lower = cumulative_p_integral(step, p, ts) ** (1.0 / p)
            k = ok.k_lp_linf_grid(ts ** (1.0 / p), x, p)[0]
            low_gap = np.max((lower - k) / np.maximum(lower, 1e-12))
            high_gap = np.max((k - constant * lower) / np.maximum(constant * lower, 1e-12))
            worst_sandwich = max(worst_sandwich, float(low_gap), float(high_gap))
            if p == 1.0:
                worst_p1 = max(worst_p1, float(np.max(np.abs(k - lower))))
    elapsed = time.perf_counter() - start
    announce(3, "kree-sandwich", worst_sandwich <= 1e-9 and worst_p1 <= 1e-10,
             f"worst rel breach {worst_sandwich:.2e}, p=1 gap {worst_p1:.2e}, {elapsed:.1f}s")


def test_criterion_04_sparr_lemma():
    start = time.perf_counter()
    passed = True
    met_total = 0
    for name in ("sparr_lemma_1_2.json", "sparr_lemma_15_3.json", "sparr_lemma_2_4.json"):
        report = run_scenario(load_scenario(name))
        passed = passed and report["status"] == "pass" and report["details"]["violation_count"] == 0
        passed = passed and report["details"]["hypothesis_met"] > 0
        met_total += report["details"]["hypothesis_met"]
    elapsed = time.perf_counter() - start
    announce(4, "sparr-implication", passed,
             f"{met_total} hypothesis-passing pairs across 3 couples, {elapsed:.1f}s")


def test_criterion_05_modular_lp_linf():
    start = time.perf_counter()
    space = ok.uniform_space(8)
    rhos = {
        "powerlog_half": ("powerlog", (0.5, 0, 0), "mixed"),
        "powerlog_logs": ("powerlog", (0.3, 1, -1), "mixed"),
        "min_one": ("min_one", (), "bounded"),
    }
    passed = True
    runs = 0
    for p in (1.0, 2.0):
        couple = ExponentCouple(p, np.inf)
        operators = {
            "identity": ok.identity_operator(space, couple),
            "truncation": ok.multiplier(space, [1, 1, 1, 1, 0, 0, 0, 0], couple),
            "averaging": ok.averaging_operator(space, couple),
        }
        if p == 2.0:
            operators["maximal"] = ok.discrete_maximal(space, couple)
        for rho_name, (family, params, dist) in rhos.items():
            phi = cached_generator_phi(p, np.inf, family, params)
            for op_name, op in operators.items():
                inputs = ok.generate_inputs(space, 500, dist, 1.0, stable_seed(rho_name, op_name, p))
                report = ok.verify_modular_lp_linf(phi, p, op, inputs)
                passed = passed and report["status"] == "pass" and not report["violations"]
                runs += 1
    orlicz_case = run_scenario(load_scenario("thm31a_p1_orlicz.json"))
    passed = passed and orlicz_case["status"] == "pass"
    passed = passed and orlicz_case["details"]["constant"] == 1.0
    elapsed = time.perf_counter() - start
    announce(5, "modular-lp-linf", passed, f"{runs} runs x 500 inputs, {elapsed:.1f}s")


def _acceptance_h_family():
    rng = np.random.default_rng(466)
    family = {
        "affine": ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0),
        "min_form": ok.PiecewiseLinearConcave([1.0], [1.0], 1.0, 0.0),
    }
    for i in range(3):
        family[f"random4_{i}"] = random_concave_plc(rng, knots=4)
    return family


def test_criterion_06_modular_lp_lq():
    start = time.perf_counter()
    space = ok.uniform_space(8)
    passed = True
    runs = 0
    for (p, q) in ((1.0, 2.0), (2.0, 3.0)):
        couple = ExponentCouple(p, q)
        operators = {
            "max_of_contractions": ok.max_of([
                ok.averaging_operator(space, couple),
                ok.multiplier(space, np.full(8, 0.5), couple),
                ok.identity_operator(space, couple),
            ]),
            "maximal": ok.discrete_maximal(space, couple),
        }
        for h_name, h in _acceptance_h_family().items():
            phi = ok.build_from_h(couple, h)
            for op_name, op in operators.items():
                inputs = ok.generate_inputs(space, 500, "mixed", 1.0,
                                            stable_seed(h_name, op_name, p, q))
                report = ok.verify_modular_lp_lq(phi, couple, op, inputs)
                passed = passed and report["status"] == "pass" and not report["violations"]
                runs += 1
        phi_gen = cached_generator_phi(p, q, "powerlog", (0.5, 0, 0))
        chain = ok.verify_norm_interpolation(phi_gen, couple,
                                             ok.averaging_operator(space, couple),
                                             ok.generate_inputs(space, 100, "mixed", 1.0, 4600 + int(p)),
                                             "thm46b_norm", diagnostics=True)
        passed = passed and chain["status"] == "pass"
    elapsed = time.perf_counter() - start
    announce(6, "modular-lp-lq", passed, f"{runs} runs x 500 inputs + chain links, {elapsed:.1f}s")


def test_criterion_07_norm_constants():
    start = time.perf_counter()
    space = ok.uniform_space(8)
    from orliczkit import specs as sp_mod
    passed = True
    cases = []
    for (p, q) in ((1.0, 2.0), (2.0, 3.0)):
        couple = ExponentCouple(p, q)
        cases.append((cached_generator_phi(p, q, "powerlog", (0.5, 0, 0)), couple,
                      ok.discrete_maximal(space, couple), "thm46b_norm"))
        cases.append((ok.build_from_h(couple, ok.PiecewiseLinearConcave([1.0], [2.0], 1.0, 1.0)),
                      couple, sp_mod.random_contractive(space, couple, 70 + int(p)), "remark_concave_h"))
    for p in (1.0, 2.0):
        couple = ExponentCouple(p, np.inf)
        cases.append((cached_generator_phi(p, np.inf, "powerlog", (0.5, 0, 0)), couple,
                      ok.multiplier(space, [1, 1, 1, 1, 0, 0, 0, 0], couple), "thm31b_norm"))
    linear_constants = {}
    for (p, q) in ((1.5, 2.0), (2.0, 3.0)):
        couple = ExponentCouple(p, q)
        cases.append((cached_generator_phi(p, q, "powerlog", (0.5, 0, 0)), couple,
                      sp_mod.random_contractive(space, couple, 51), "thm51_linear"))
        linear_constants[(p, q)] = ok.interp_constant_linear(p, q)
    for idx, (phi, couple, op, theorem) in enumerate(cases):
        inputs = ok.generate_inputs(space, 100, "mixed", 1.0, 770000 + idx)
        report = ok.verify_norm_interpolation(phi, couple, op, inputs, theorem)
        passed = passed and report["status"] == "pass" and not report["violations"]
    both_under_two = all(c < 2.0 for c in linear_constants.values())
    elapsed = time.perf_counter() - start
    announce(7, "norm-constants", passed and both_under_two,
             f"{len(cases)} runs x 100 inputs x 2 norms; duality constants "
             f"{', '.join(f'{v:.4f}' for v in linear_constants.values())}, {elapsed:.1f}s")


def test_criterion_08_orlicz_norm_structure():
    start = time.perf_counter()
    amemiya = ok.amemiya_norm(ok.power_phi(2), ok.SampleFunction(ok.uniform_space(1), [1.0]))[0]
    single_atom_ok = abs(amemiya - 2.0) <= 1e-8

    rng = np.random.default_rng(880)
    power_ok = True
    for p in (1.0, 1.5, 2.0, 3.0):
        for _ in range(5):
            x = ok.SampleFunction(ok.DiscreteMeasureSpace(rng.uniform(0.3, 2.0, 6)),
                                  rng.uniform(-3, 3, 6))
            expected = lp_integral(x, p) ** (1.0 / p)
            got = ok.luxemburg_norm(ok.power_phi(p), x)[0]
            power_ok = power_ok and abs(got - expected) <= 1e-10 * max(expected, 1.0)

    worst_low, worst_high = 0.0, 0.0
    space = ok.uniform_space(6)
    for i in range(200):
        if i % 2 == 0:
            theta = float(rng.uniform(0.2, 0.8))
            rho_family, rho_params = "power", (theta,)
        else:
            rho_family, rho_params = "powerlog", [(0.5, 0, 0), (0.3, 1, -1), (0.7, -1, 1)][i % 3]
        p = float(rng.uniform(1.0, 2.5))
        q = p + float(rng.uniform(0.5, 2.0)) if i % 5 else np.inf
        phi = cached_generator_phi(round(p, 3), q if q is np.inf else round(q, 3),
                                   rho_family, tuple(rho_params))
        x = ok.SampleFunction(space, rng.uniform(-2, 2, 6))
        if sup_norm(x) == 0.0:
            continue
        lux = ok.luxemburg_norm(phi, x)[0]
        am = ok.amemiya_norm(phi, x)[0]
        worst_low = max(worst_low, (lux - am) / max(lux, 1e-12))
        worst_high = max(worst_high, (am - 2.0 * lux) / max(2.0 * lux, 1e-12))
    sandwich_ok = worst_low <= 1e-7 and worst_high <= 1e-7
    elapsed = time.perf_counter() - start
    announce(8, "orlicz-norm-structure", single_atom_ok and power_ok and sandwich_ok,
             f"sandwich breaches {worst_low:.1e}/{worst_high:.1e}, {elapsed:.1f}s")


def test_criterion_09_phi_rho_structure():
    start = time.perf_counter()
    rng = np.random.default_rng(990)
    grid = log_grid()
    sandwich_ok = True
    for _ in range(50):
        # with |a|, |b| <= 1 and both log corrections opposing monotonicity
        # (a = -1, b = +1) the family stays quasi-concave only for theta
        # above ~0.42, symmetrically below ~0.58; this window is safe for
        # every sign combination
        theta = float(rng.uniform(0.45, 0.55))
        a, b = int(rng.integers(-1, 2)), int(rng.integers(-1, 2))
        rho = ok.power_log_rho(theta, a, b)
        maj = ok.concave_majorant(rho)
        ratio = maj(grid) / rho(grid)[0]
        sandwich_ok = sandwich_ok and ratio.min() >= 1 - 1e-8 and ratio.max() <= 2 + 1e-8

    maj_affine = ok.concave_majorant(ok.max_one_rho())
    ts = np.logspace(-6, 6, 400)
    max_one_ok = bool(np.max(np.abs(maj_affine(ts) - (1 + ts)) / (1 + ts)) <= 1e-6)

    peetre_ok = True
    for _ in range(25):
        # dyadic data keeps every slope and drop exactly representable
        knots = np.unique(rng.integers(1, 512, 5)).astype(float) / 64.0
        slopes = np.sort(rng.integers(0, 256, knots.size + 1).astype(float))[::-1] / 64.0
        values = [1.0 + slopes[0] * knots[0]]
        for j in range(1, knots.size):
            values.append(values[-1] + slopes[j] * (knots[j] - knots[j - 1]))
        h = ok.PiecewiseLinearConcave(knots, values, slopes[0], slopes[-1])
        rep = ok.peetre_decompose(h)
        back = ok.peetre_decompose(reconstruct(rep))
        peetre_ok = peetre_ok and back.a == rep.a and back.b == rep.b
        peetre_ok = peetre_ok and np.array_equal(back.atom_locations, rep.atom_locations)
        peetre_ok = peetre_ok and np.array_equal(back.atom_masses, rep.atom_masses)

    route_ok = True
    for _ in range(100):
        h = random_concave_plc(rng, knots=int(rng.integers(2, 6)))
        p = float(rng.uniform(1.0, 3.0))
        q = p + float(rng.uniform(0.3, 2.0))
        phi = ok.build_from_h(ExponentCouple(p, q), h)
        rep = ok.peetre_decompose(h)
        us = rng.uniform(0.01, 30.0, 20)
        gap = np.abs(phi_expansion(rep, p, q, us) - phi(us)) / np.maximum(phi(us), 1e-12)
        route_ok = route_ok and float(gap.max()) <= 1e-10

    convexity_ok = True
    for (p, q) in ((1, 2), (2, 3)):
        probe = np.linspace(0.0, 25.0, 10_000)
        check = second_difference_convexity(lambda u: u**p * np.log1p(u ** (q - p)), probe)
        convexity_ok = convexity_ok and check.ok
    elapsed = time.perf_counter() - start
    announce(9, "phi-rho-structure",
             sandwich_ok and max_one_ok and peetre_ok and route_ok and convexity_ok,
             f"{elapsed:.1f}s")


def test_criterion_10_negative_control_and_budget():
    report = run_scenario(load_scenario("thm46a_negative_control.json"))
    detected = report["status"] == "fail" and report["details"]["violation_count"] >= 1
    elapsed = session_elapsed()
    announce(10, "negative-control-and-budget", detected and elapsed < 600.0,
             f"{report['details']['violation_count']} planted violations flagged, "
             f"suite at {elapsed:.0f}s of 600s budget")
