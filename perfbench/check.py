"""Output check against the brute-force oracles in ``tests/oracle.py``.

Shares no code with the package: the expectations come from the input PD
codes the generator wrote, and the exported PD files are read back as raw
JSON.  Every report must account for all input crossings: a circle with m
strands and c half-twists stands for c·m(m−1)/2 crossings, and R-II
reduction removes crossings in pairs only.
"""

from __future__ import annotations

import json
from pathlib import Path

import workloads  # noqa: F401  (puts tests/ on sys.path)
from oracle import oracle_euler, oracle_link_components, oracle_twist_regions


def _mismatch(entry: dict, item, reduces: bool, workdir: Path,
              exporting: bool) -> str | None:
    """Why an ``ok`` report disagrees with the oracles, or None."""
    report = entry["report"]
    circles = report["circles"]
    if report["tw"] != len(circles) or not circles:
        return f"tw {report['tw']} with {len(circles)} circles"
    crossings = len(item.pd)
    covered = sum(c["c"] * c["m"] * (c["m"] - 1) // 2 for c in circles)
    if covered > crossings or (covered != crossings and not reduces):
        return f"circles cover {covered} of {crossings} crossings"
    if (crossings - covered) % 2:
        return f"odd number of crossings removed ({crossings - covered})"
    if item.annotated_strands is not None:
        if not any(c["m"] == item.annotated_strands and c["c"] == 2 for c in circles):
            return f"no full-twist circle with m = {item.annotated_strands}"
    elif not reduces:
        tw, counts = oracle_twist_regions(item.pd)
        got = (len(circles), sorted(c["c"] for c in circles))
        if got != (tw, counts):
            return f"regions {got} != oracle {(tw, counts)}"
    if exporting:
        if "export" not in entry:
            return "no export written"
        exported = json.loads((workdir / entry["export"]).read_text(encoding="utf-8"))["pd"]
        v, e, f = oracle_euler(exported)
        if v - e + f != 2:
            return f"export has V - E + F = {v - e + f}"
        want = oracle_link_components(item.pd) + len(circles)
        got_components = oracle_link_components(exported)
        if got_components != want:
            return f"export has {got_components} components, expected {want}"
    return None


def check_entries(entries: list, corpus: list, *, reduces: bool, workdir: Path,
                  exporting: bool) -> list[str]:
    """Return the mismatches in one invocation's report array.

    A file whose entry is ``ok: false`` is a failure of the program, which
    the benchmark counts, not a mismatch; a report that contradicts the
    oracles is a mismatch, which makes the run incorrect.
    """
    if [e.get("file") for e in entries] != [item.path for item in corpus]:
        return ["report entries do not match the inputs in order"]
    mismatches = []
    for entry, item in zip(entries, corpus):
        if entry["ok"]:
            why = _mismatch(entry, item, reduces, workdir, exporting)
            if why is not None:
                mismatches.append(f"{item.path}: {why}")
    return mismatches
