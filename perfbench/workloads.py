"""Workload definitions: which shipped templates each stream cycles, and at what size.

A workload is a closed-loop stream of scenario reports. One round runs each
template of the workload once, in the listed order; the stream repeats
rounds. Per-input work is that of the shipped template: only the number of
inputs per scenario is changed (and, on `wide`, the atom count), so that one
run holds many reports.
"""

from __future__ import annotations

import json
from pathlib import Path

TEMPLATES = (
    "prop22_maximal_2inf",
    "remark_concave_h_1_2",
    "sparr_lemma_15_3",
    "sparr_lemma_1_2",
    "sparr_lemma_2_4",
    "thm31a_p1_orlicz",
    "thm31a_p2_maximal",
    "thm31b_norm_p2",
    "thm46a",
    "thm46a_negative_control",
    "thm46b_norm_1_2",
    "thm51_linear_15_2",
    "thm51_linear_2_3",
)

# The planted-fault control must fail on every input; every other template
# states a true theorem and must pass.
NEGATIVE_CONTROLS = ("thm46a_negative_control",)

# (template, inputs per scenario, atom count or None for the shipped n = 8).
# Input counts, never above the shipped ones, are set so that no order
# statistic the benchmark reports falls between two clusters of report
# times, where it would jump from run to run:
# - functionals: every template costs about the same;
# - wide: sparr_lemma_2_4 costs the most even at one pair, so thm46b_norm_1_2
#   is sized to match it and the two hold the tail, the other four the
#   median;
# - norms: the norm templates keep 16-20 inputs, so that the two phi builds
#   per report stay a small part of their time, as at the shipped 100; four
#   of them cost about the same and hold the tail, and thm31b_norm_p2 at 12
#   inputs sits alone between them and the four modular templates, which
#   puts the median (5th of 9 per round) inside one template's reports.
WORKLOADS = {
    "functionals": [
        ("sparr_lemma_1_2", 11, None),
        ("sparr_lemma_15_3", 9, None),
        ("sparr_lemma_2_4", 10, None),
        ("prop22_maximal_2inf", 28, None),
    ],
    "norms": [
        ("thm31b_norm_p2", 12, None),
        ("thm46b_norm_1_2", 20, None),
        ("remark_concave_h_1_2", 16, None),
        ("thm51_linear_15_2", 20, None),
        ("thm51_linear_2_3", 20, None),
        ("thm31a_p1_orlicz", 500, None),
        ("thm31a_p2_maximal", 500, None),
        ("thm46a", 10, None),
        ("thm46a_negative_control", 500, None),
    ],
    "wide": [
        ("sparr_lemma_1_2", 1, 512),
        ("sparr_lemma_2_4", 1, 512),
        ("prop22_maximal_2inf", 8, 512),
        ("thm46b_norm_1_2", 7, 512),
        ("thm31b_norm_p2", 6, 512),
        ("thm31a_p2_maximal", 24, 512),
    ],
}

# Seed whose one-round kernel sums and report digest are recorded in
# reference.json; the traced run always checks that round.
DEFAULT_SEED = 1


def load_templates(root: Path) -> dict[str, dict]:
    """Read the shipped scenario files of the checkout under test."""
    folder = root / "src" / "orliczkit" / "scenarios"
    return {name: json.loads((folder / f"{name}.json").read_text()) for name in TEMPLATES}


def sizes(templates: dict[str, dict], workload: str) -> dict[str, dict]:
    """n, t-points and inputs per scenario of each template in the workload."""
    out = {}
    for name, count, n in WORKLOADS[workload]:
        grid = templates[name].get("t_grid")
        out[name] = {
            "n": n if n is not None else templates[name]["space"]["n"],
            "t_points": grid["points"] if grid else 0,
            "inputs": count,
        }
    return out
