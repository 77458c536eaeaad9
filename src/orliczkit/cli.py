"""Command-line front end: constants tables, functional sweeps, norms,
majorants, and scenario verification.

Exit codes: 0 on success or a passing verification, 1 when a verification
reports violations, 2 on usage and config errors. Table output prints
numbers with 12 significant digits.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import specs
from .constants import (
    GAMMA_MAX,
    conjugate_exponent,
    interp_constant_concave_h,
    interp_constant_linear,
    interp_constant_subadditive,
    sparr_gamma,
)
from .kfunc import k_lp_linf_grid, l_functional_grid
from .measure import DiscreteMeasureSpace, SampleFunction
from .orlicz import DomainOverflowError, amemiya_norm, luxemburg_norm, norm_start
from .quasiconcave import concave_majorant, peetre_decompose
from .verify import ScenarioRejected, run_scenario


def fmt(value: float) -> str:
    return f"{value:.12g}"


def read_function_csv(path: str) -> SampleFunction:
    """CSV with header weight,value; one atom per row."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["weight", "value"]:
            raise specs.SpecError(f"{path}: expected header 'weight,value'")
        weights, values = [], []
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise specs.SpecError(f"{path}: each row needs exactly weight,value")
            weights.append(float(row[0]))
            values.append(float(row[1]))
    if not weights:
        raise specs.SpecError(f"{path}: no atoms")
    return SampleFunction(DiscreteMeasureSpace(weights), values)


def _parse_json_arg(text: str, what: str) -> dict:
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise specs.SpecError(f"{what} is not valid JSON: {exc}") from None
    if not isinstance(record, dict):
        raise specs.SpecError(f"{what} must be a JSON object")
    return record


def _emit_table(header: list[str], rows: list[list[str]], fmt_name: str, out) -> None:
    if fmt_name == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    else:
        out.write(specs.dump_normalized([dict(zip(header, row)) for row in rows]))


def cmd_gamma(args) -> int:
    p_grid = specs.parse_range(args.p_grid, "--p-grid")
    q_grid = specs.parse_range(args.q_grid, "--q-grid")
    header = ["p", "q", "gamma", "lower_bound", "upper_bound",
              "c_subadditive", "c_concave_h", "c_linear"]
    rows = []
    for p in p_grid:
        for q in q_grid:
            value = sparr_gamma(p, q)
            lo, hi = min(p, q), max(p, q)
            sub = fmt(interp_constant_subadditive(p, q)) if p < q else ""
            conc = fmt(interp_constant_concave_h(p, q)) if p < q else ""
            # c_linear's dual branch reads gamma(q', p'), so it needs p' <= GAMMA_MAX
            dual = 1.0 < p < q and conjugate_exponent(p) <= GAMMA_MAX
            lin = fmt(interp_constant_linear(p, q)) if dual else ""
            rows.append([fmt(p), fmt(q), fmt(value),
                         fmt(2.0 ** (1.0 - 1.0 / lo)), fmt(2.0 ** (1.0 - 1.0 / hi)),
                         sub, conc, lin])
    _emit_table(header, rows, args.format, sys.stdout)
    return 0


def cmd_kfunc(args) -> int:
    x = read_function_csv(args.input)
    parts = args.couple.split(",")
    if len(parts) != 2:
        raise specs.SpecError("--couple must look like p,q (q may be 'inf')")
    couple = specs.resolve_couple({"p": parts[0], "q": parts[1]})
    ts = specs.parse_range(args.t_grid, "--t-grid", log=True)
    if couple.q_is_inf:
        values, method = k_lp_linf_grid(ts, x, couple.p), "truncation"
    else:
        values, method = l_functional_grid(ts, x, couple.p, couple.q), "pointwise"
    rows = [[fmt(t), fmt(value), method] for t, value in zip(ts, values)]
    _emit_table(["t", "value", "method"], rows, "csv", sys.stdout)
    return 0


def cmd_majorant(args) -> int:
    rho = specs.resolve_rho(_parse_json_arg(args.rho, "--rho"))
    plc = concave_majorant(rho)
    if args.format == "csv":
        rows = [[fmt(k), fmt(v)] for k, v in zip(plc.knots, plc.values)]
        _emit_table(["knot", "value"], rows, "csv", sys.stdout)
        return 0
    rep = peetre_decompose(plc)
    payload = {
        "plc": {
            "knots": [float(fmt(v)) for v in plc.knots],
            "values": [float(fmt(v)) for v in plc.values],
            "slope0": float(fmt(plc.slopes[0])),
            "slope_inf": float(fmt(plc.slopes[-1])),
        },
        "peetre": {
            "a": float(fmt(rep.a)),
            "b": float(fmt(rep.b)),
            "atoms": [[float(fmt(t)), float(fmt(m))]
                      for t, m in zip(rep.atom_locations, rep.atom_masses)],
        },
    }
    sys.stdout.write(specs.dump_normalized(payload))
    return 0


def cmd_norms(args) -> int:
    x = read_function_csv(args.input)
    phi = specs.resolve_phi(_parse_json_arg(args.phi, "--phi"))
    # on a non-convex phi the Amemiya search may stop at a local minimum,
    # which is no norm value, so none is printed; a convex phi's two
    # searches share their first pass
    start = norm_start(phi, x) if phi.convex else None
    lux = luxemburg_norm(phi, x, start=start)
    am = amemiya_norm(phi, x, start=start) if phi.convex else None
    if am is None:
        print("note: phi is not convex, so the Amemiya norm is not computed", file=sys.stderr)
    if args.format == "csv":
        _emit_table(["luxemburg", "amemiya"], [[fmt(lux), "" if am is None else fmt(am)]],
                    "csv", sys.stdout)
    else:
        sys.stdout.write(specs.dump_normalized(
            {"luxemburg": float(fmt(lux)), "amemiya": None if am is None else float(fmt(am))}))
    return 0


def cmd_verify(args) -> int:
    path = Path(args.scenario)
    if not path.exists():
        packaged = Path(__file__).parent / "scenarios" / args.scenario
        if packaged.exists():
            path = packaged
        else:
            raise specs.SpecError(f"scenario file not found: {path}")
    scenario = _parse_json_arg(path.read_text(encoding="utf-8"), f"scenario file {path}")
    if args.seed is not None:
        scenario["seed"] = args.seed
    report = run_scenario(scenario)
    text = specs.dump_normalized(report)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    worst = max((v["margin"] for v in report["violations"]), default=0.0)
    print(f"status={report['status']} trials={report['trials']} "
          f"violations={report['details']['violation_count']} worst_margin={fmt(worst)}",
          file=sys.stderr)
    return 0 if report["status"] == "pass" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="orliczkit",
                                     description="Orlicz interpolation numerics")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gamma", help="Sparr constants and interpolation constants table")
    g.add_argument("--p-grid", required=True, help="start:stop:count (linear)")
    g.add_argument("--q-grid", required=True, help="start:stop:count (linear)")
    g.add_argument("--format", choices=["csv", "json"], default="csv")
    g.set_defaults(func=cmd_gamma)

    k = sub.add_parser("kfunc", help="K/L-functional sweep over a t grid")
    k.add_argument("--input", required=True, help="CSV with header weight,value")
    k.add_argument("--couple", required=True, help="p,q with q possibly 'inf'")
    k.add_argument("--t-grid", required=True, help="start:stop:count (log spaced)")
    k.set_defaults(func=cmd_kfunc)

    m = sub.add_parser("majorant", help="concave majorant of a generator")
    m.add_argument("--rho", required=True, help="JSON rho spec")
    m.add_argument("--format", choices=["csv", "json"], default="json")
    m.set_defaults(func=cmd_majorant)

    n = sub.add_parser("norms", help="Luxemburg and Amemiya norms of a CSV function")
    n.add_argument("--input", required=True, help="CSV with header weight,value")
    n.add_argument("--phi", required=True, help="JSON phi spec")
    n.add_argument("--format", choices=["csv", "json"], default="json")
    n.set_defaults(func=cmd_norms)

    v = sub.add_parser("verify", help="run a scenario file and emit its report")
    v.add_argument("--scenario", required=True)
    v.add_argument("--out", default=None, help="write the report JSON here instead of stdout")
    v.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    v.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    # OSError covers a missing file and a path that is a directory alike
    except (specs.SpecError, ScenarioRejected, DomainOverflowError, OSError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
