"""Scenario-stream benchmark for orliczkit.

    python3 perfbench/run.py --workload functionals --seed 1 --seconds 25 --trace 0

Runs from the root of a checkout and measures the orliczkit under its src/.
With --trace 0 it times set-up in fresh worker processes, then runs one
closed-loop stream and prints the end-to-end metrics. With --trace 1 it
prints the per-layer metrics of a traced run and checks the kernel value
sums against reference.json. The last line of stdout is the result:
{"correct", "attempted", "failed", "metrics"}. See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from speed import PROBE_REF_S  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, load_templates, sizes  # noqa: E402

# Cold starts timed per run, half before and half after the stream, so that
# they sample the machine's speed over the whole run; setup_s is their
# median. One more, untimed, runs first so byte-compilation and the file
# cache do not count. Cold-start times vary per process and do not follow
# the speed probe, so they are reported unscaled.
SETUP_PROBES = 8
# Relative deviation allowed for each checksummed kernel: ROADMAP's 1e-12,
# and the Luxemburg solver's own rtol.
VALUE_BOUNDS = {"orlicz.luxemburg_norm": 1e-10}
VALUE_BOUND = 1e-12
TAIL_BEYOND = 10
# Every worker must have ended this long after the start of the run.
RUN_DEADLINE_S = 170.0


class BenchError(RuntimeError):
    pass


class Workers:
    """Starts worker processes and waits for each, within the run deadline."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def _cmd(self, mode: str) -> list[str]:
        a = self.args
        return [sys.executable, str(WORKER), mode, "--workload", a.workload,
                "--seed", str(a.seed), "--seconds", str(a.seconds)]

    def _left(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run deadline passed")
        return left

    def result(self, mode: str) -> dict:
        """Run a worker to the end and parse its last stdout line."""
        proc = subprocess.run(self._cmd(mode), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=self._left())
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(lines[-1])

    def cold_start_s(self) -> float:
        """Seconds from spawning a worker until it has imported orliczkit and
        normalized one round of the workload's scenarios."""
        start = time.perf_counter()
        with subprocess.Popen(self._cmd("setup"), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            killer = threading.Timer(self._left(), proc.kill)
            killer.start()
            try:
                line = proc.stdout.readline().strip()
                ready = time.perf_counter() - start
                proc.communicate()
            finally:
                killer.cancel()
        if line != "ready" or proc.returncode != 0:
            raise BenchError(f"setup worker exited with code {proc.returncode}")
        return ready


def machine_facts() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model or platform.processor(),
            "python": platform.python_version()}


def tail(values: list[float]) -> tuple[float, int]:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it."""
    n = len(values)
    pct = math.floor(100.0 * (n - TAIL_BEYOND) / n)
    if pct < 1:
        raise BenchError(f"{n} reports are too few for a tail percentile")
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1], pct


def end_to_end(workers: Workers) -> tuple[dict, dict, dict, list[str]]:
    """Report times are scaled to the reference speed of the probe (see speed.py)."""
    workers.cold_start_s()
    setups = [workers.cold_start_s() for _ in range(SETUP_PROBES // 2)]
    res = workers.result("stream")
    setups += [workers.cold_start_s() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    reports = res["reports"]
    trials = sum(t for *_, t in reports)
    scaled_ms = [1000.0 * s * PROBE_REF_S / p for _, s, p, _ in reports]
    raw_ms = [1000.0 * s for _, s, _, _ in reports]
    tail_ms, pct = tail(scaled_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "trials_per_s": (1000.0 * trials / sum(scaled_ms), "1/s"),
        "report_ms_p50": (statistics.median(scaled_ms), "ms"),
        "report_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    info = {
        "report_ms_tail": {"percentile": pct, "samples": len(scaled_ms)},
        "report_ms_p50": {"samples": len(scaled_ms)},
        "setup_s": {"samples": len(setups), "values": setups},
        "unscaled": {
            "trials_per_s": 1000.0 * trials / sum(raw_ms),
            "report_ms_p50": statistics.median(raw_ms),
            "report_ms_tail": tail(raw_ms)[0],
        },
        "probe_ms_p50": 1000.0 * statistics.median(p for _, _, p, _ in reports),
        "rounds": res["rounds"], "measured_s": res["measured_s"],
        "versions": res["versions"],
    }
    return metrics, info, res, []


def traced(workers: Workers) -> tuple[dict, dict, dict, list[str]]:
    recorded = json.loads((HERE / "reference.json").read_text())[workers.args.workload]
    res = workers.result("trace")
    metrics = {k: tuple(v) for k, v in res["metrics"].items()}
    problems = []
    for name in res["checksummed"]:
        got, want = res["checks"]["value_sums"][name], recorded["value_sums"][name]
        dev = abs(got - want) / abs(want) if want else float(got != want)
        metrics[f"{name}.value_rel_dev"] = (dev, "ratio")
        if not dev <= VALUE_BOUNDS.get(name, VALUE_BOUND):
            problems.append(f"{name} sum {got!r} deviates from the recorded {want!r} by {dev:.3e}")
    info = {
        "digest": res["checks"]["digest"],
        "digest_matches_reference": res["checks"]["digest"] == recorded["digest"],
        "rounds": res["rounds"],
        "untraced_s_per_round": res["untraced_s_per_round"],
        "traced_s_per_round": res["traced_s_per_round"],
        "layer_share_by_template": res["layer_share_by_template"],
        "traced_s_per_round_by_template": res["traced_s_per_round_by_template"],
        "versions": res["versions"],
    }
    return metrics, info, res, problems


def main() -> int:
    parser = argparse.ArgumentParser(description="orliczkit scenario-stream benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "orliczkit" / "__init__.py").is_file():
        print(f"no orliczkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    print(json.dumps({"machine": machine_facts(), "workload": args.workload, "seed": args.seed,
                      "sizes": sizes(load_templates(ROOT), args.workload)}))
    try:
        metrics, info, res, problems = (traced if args.trace else end_to_end)(Workers(args))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    failed = sum(res["failures"].values())
    info["failed_frac"] = failed / res["attempted"]
    info["failures_by_type"] = res["failures"]
    print(json.dumps(info))
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
