"""Benchmark worker: one fresh process per set-up probe, stream or traced run.

Modes (run.py starts them; each prints one JSON line on stdout at the end):

  setup   import orliczkit and normalize one round of the workload's
          scenarios, then print "ready" and exit (timed by the parent);
  stream  closed loop: one client calls run_scenario(jobs=1) on one
          scenario after another for --seconds, tracing off;
  trace   the checksum round on the default seed, then a paired stream in
          which every scenario runs once untraced and once traced;
  record  print the checksum round of every workload, the content of
          reference.json.

The program is imported from the checkout's own src/ directory and from
nowhere else. NumPy is imported only after it, so that the import time
covers NumPy and SciPy as a user's first import does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from workloads import DEFAULT_SEED, NEGATIVE_CONTROLS, TEMPLATES, WORKLOADS, load_templates

ROOT = Path(__file__).resolve().parent.parent


def import_program() -> float:
    """Import orliczkit from the checkout; seconds taken."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import orliczkit
    import_s = time.perf_counter() - start
    if Path(orliczkit.__file__).resolve().parent != (src / "orliczkit").resolve():
        raise SystemExit(f"orliczkit was imported from {orliczkit.__file__}, not from the checkout")
    return import_s


def round_scenarios(templates: dict, workload: str, seed: int, round_index: int) -> list[tuple[str, dict]]:
    """One scenario per template of the workload, each with its own seed
    drawn from the benchmark seed."""
    import numpy as np

    out = []
    for slot, (name, count, n) in enumerate(WORKLOADS[workload]):
        scenario = json.loads(json.dumps(templates[name]))
        scenario["inputs"] = dict(scenario.get("inputs") or {}, count=count)
        if n is not None:
            scenario["space"] = {"n": n, "weights": "uniform"}
        key = (list(WORKLOADS).index(workload), round_index, slot)
        sequence = np.random.SeedSequence(seed, spawn_key=key)
        scenario["seed"] = int(sequence.generate_state(1, np.uint32)[0])
        out.append((name, scenario))
    return out


class Client:
    """Runs scenarios one at a time and judges every verdict."""

    def __init__(self):
        from orliczkit import verify

        self.verify = verify
        self.attempted = 0
        self.failures: Counter = Counter()

    def run(self, name: str, scenario: dict) -> tuple[float, dict | None]:
        self.attempted += 1
        start = time.perf_counter()
        try:
            report = self.verify.run_scenario(scenario, jobs=1)
        except Exception as exc:  # a raising report is a failed operation
            kind = type(exc).__name__
            if not self.failures[kind]:
                traceback.print_exc(file=sys.stderr)
            self.failures[kind] += 1
            return time.perf_counter() - start, None
        elapsed = time.perf_counter() - start
        if name in NEGATIVE_CONTROLS:
            ok = report["status"] == "fail" and report["details"]["violation_count"] == report["trials"]
        else:
            ok = report["status"] == "pass"
        if not ok:
            print(f"wrong verdict: {name} seed {scenario['seed']} -> {report['status']}", file=sys.stderr)
            self.failures["wrong_verdict"] += 1
        return elapsed, report


def canonical(report: dict) -> str:
    body = {k: v for k, v in report.items() if k != "wall_ms"}
    return json.dumps(body, sort_keys=True, default=lambda o: o.item())


def checksum_round(client: Client, tracer, templates: dict, workload: str) -> dict:
    """Traced round on the default seed: kernel output sums and report digest."""
    from layertrace import CHECKSUMMED

    digest = hashlib.sha256()
    tracer.reset()
    for name, scenario in round_scenarios(templates, workload, DEFAULT_SEED, 0):
        tracer.template = name
        tracer.install()
        try:
            _, report = client.run(name, scenario)
        finally:
            tracer.uninstall()
        digest.update(canonical(report).encode() if report is not None else b"raised")
        digest.update(b"\n")
    return {"value_sums": {name: tracer.value_sum(name) for name in CHECKSUMMED},
            "digest": digest.hexdigest()}


def should_stop(started: float, rounds: int, seconds: float) -> bool:
    """Stop before a round that would end past the measuring time."""
    elapsed = time.perf_counter() - started
    return elapsed + elapsed / rounds > seconds


def stream(args, templates: dict) -> dict:
    from speed import probe_s

    client = Client()
    for name, scenario in round_scenarios(templates, args.workload, args.seed, 0):
        client.run(name, scenario)        # warm-up round, not timed
    reports = []
    started = time.perf_counter()
    rounds = 0
    before = probe_s()
    while True:
        rounds += 1
        for name, scenario in round_scenarios(templates, args.workload, args.seed, rounds):
            elapsed, report = client.run(name, scenario)
            after = probe_s()
            if report is not None:
                reports.append((name, elapsed, 0.5 * (before + after), int(report["trials"])))
            before = after
        if should_stop(started, rounds, args.seconds):
            break
    return {
        "reports": reports,
        "rounds": rounds,
        "measured_s": time.perf_counter() - started,
        "attempted": client.attempted,
        "failures": dict(client.failures),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_stream(args, templates: dict, import_s: float) -> dict:
    from layertrace import CHECKSUMMED, QUANTITIES, Tracer

    client = Client()
    tracer = Tracer()
    tracer.prepare()
    checks = checksum_round(client, tracer, templates, args.workload)
    tracer.reset()

    untraced_s = traced_s = 0.0
    report_s: dict[str, list[float]] = defaultdict(list)
    met = tried = 0
    started = time.perf_counter()
    rounds = 0
    while True:
        rounds += 1
        for slot, (name, scenario) in enumerate(
                round_scenarios(templates, args.workload, args.seed, rounds)):
            # alternate which of the pair runs first, so drift cancels
            for traced in ((False, True) if (rounds + slot) % 2 else (True, False)):
                if traced:
                    tracer.template = name
                    tracer.install()
                try:
                    elapsed, report = client.run(name, scenario)
                finally:
                    tracer.uninstall()
                if traced:
                    traced_s += elapsed
                    continue
                untraced_s += elapsed
                report_s[name].append(elapsed)
                if report is not None and "hypothesis_met" in report["details"]:
                    met += int(report["details"]["hypothesis_met"])
                    tried += int(report["trials"])
        if should_stop(started, rounds, args.seconds):
            break

    metrics = {}
    for layer, quantities in QUANTITIES.items():
        stats = tracer.layers[layer]
        for quantity in quantities:
            unit = "s/round" if quantity == "self_s" else "count/round"
            metrics[f"{layer}.{quantity}"] = (getattr(stats, quantity) / rounds, unit)
    metrics["measure.sample_functions"] = (tracer.sample_functions / rounds, "count/round")
    metrics["setup.import_s"] = (import_s, "s")
    metrics["verify.sparr_hypothesis_frac"] = (met / tried if tried else 0.0, "ratio")
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    for name in TEMPLATES:
        times = report_s.get(name)
        metrics[f"verify.report_ms.{name}"] = (1000.0 * statistics.median(times) if times else 0.0, "ms")

    shares, totals = {}, {}
    for name, layers in tracer.by_template.items():
        totals[name] = sum(layers.values()) / rounds
        shares[name] = {layer: round(v / rounds / totals[name], 4) for layer, v in layers.most_common()}
    return {
        "metrics": metrics,
        "checks": checks,
        "checksummed": list(CHECKSUMMED),
        "layer_share_by_template": shares,
        "traced_s_per_round_by_template": totals,
        "rounds": rounds,
        "untraced_s_per_round": untraced_s / rounds,
        "traced_s_per_round": traced_s / rounds,
        "attempted": client.attempted,
        "failures": dict(client.failures),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "stream", "trace", "record"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args()
    if args.mode != "record" and args.workload is None:
        parser.error(f"{args.mode} needs --workload")

    import_s = import_program()
    templates = load_templates(ROOT)
    if args.mode == "setup":
        from orliczkit import specs

        for _, scenario in round_scenarios(templates, args.workload, args.seed, 0):
            specs.normalize_scenario(scenario)
        print("ready", flush=True)
        return
    if args.mode == "record":
        from layertrace import Tracer

        tracer = Tracer()
        tracer.prepare()
        out = {w: checksum_round(Client(), tracer, templates, w) for w in WORKLOADS}
        print(json.dumps(out, indent=2, sort_keys=True))
        return

    import numpy
    import scipy

    result = stream(args, templates) if args.mode == "stream" else traced_stream(args, templates, import_s)
    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
