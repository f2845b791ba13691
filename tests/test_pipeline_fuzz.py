"""Never a crash: mutated closures through the whole pipeline and its export.

Seeded braid closures, some holding c half-twists of m adjacent strands,
are mutated in zero to two ways: two labels swapped, a quadruple rotated,
a crossing dropped, the signs dropped or one sign flipped.  Some carry an
annotation of m in {2, 3, 4} strands, over their half-twists or over
random crossings.  Each goes through ``analyze_file`` with
``--attest-hyperbolic`` and an export directory.  Every file must end as a
report or a caught error, every report must render as JSON and as text,
and every export written must parse again and pass ``tests/oracle.py``:
planar, oriented by its signs, with the input's link components plus one
per circle.  The CLI writes its exports without a walk over the whole
drawing, so this is what holds them to those checks on inputs that no
other test builds.
"""

from __future__ import annotations

import json
import random
from collections import Counter

from auglink.cli import RunConfig, analyze_file, render_text, result_to_entry
from auglink.diagram import parse_document

from braid import braid_closure, half_twist_word
from oracle import oracle_euler, oracle_incoherent_arcs, oracle_link_components


def _mutated(rng: random.Random) -> dict:
    """One input document: a closure, perhaps mutated, perhaps annotated."""
    strands = rng.randint(2, 5)
    word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(1, 14))]
    word += [j for j in range(1, strands) if j not in map(abs, word)]
    region = None
    if rng.random() < 0.3:  # c half-twists of m adjacent strands, annotated below
        m = rng.choice([k for k in (2, 3, 4) if k <= strands])
        c, sign, shift = rng.randint(1, 3), rng.choice((1, -1)), rng.randint(0, strands - m)
        before = rng.randint(0, len(word))
        twist = [sign * (j + shift) for j in half_twist_word(m) * c]
        word[before:before] = twist
        region = (list(range(before, before + len(twist))), m, c)
    pd, signs = braid_closure(word, strands)
    doc: dict = {"pd": pd, "signs": signs}
    for _ in range(rng.randint(0, 2)):
        kind, i = rng.randrange(5), rng.randrange(len(pd))
        if kind == 0:  # two labels swapped
            j, a, b = rng.randrange(len(pd)), rng.randrange(4), rng.randrange(4)
            pd[i][a], pd[j][b] = pd[j][b], pd[i][a]
        elif kind == 1:  # a quadruple rotated
            k = rng.randint(1, 3)
            pd[i] = pd[i][k:] + pd[i][:k]
        elif kind == 2 and len(pd) > 1:  # a crossing dropped
            del pd[i]
            if "signs" in doc:
                del doc["signs"][i]
        elif kind == 3:  # the signs dropped: inferred
            doc.pop("signs", None)
        elif "signs" in doc:  # one sign flipped
            doc["signs"][i] *= -1
    if region is None and rng.random() < 0.2:  # random crossings, annotated
        m, c = rng.choice((2, 3, 4)), rng.randint(1, 3)
        region = (rng.sample(range(len(pd)), min(len(pd), c * m * (m - 1) // 2)), m, c)
    if region is not None:
        ids, m, c = region
        doc["regions"] = [{"crossings": ids, "strands": m, "half_twists": c}]
    return doc


def test_mutated_closures_end_as_reports_or_errors(tmp_path):
    rng = random.Random(20271)
    docs = [_mutated(rng) for _ in range(5000)]
    paths = []
    for k, doc in enumerate(docs):
        path = tmp_path / f"f{k:04d}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        paths.append(str(path))
    config = RunConfig(inputs=tuple(paths), attest_hyperbolic=True,
                       export_dir=str(tmp_path / "out"))
    outcomes = Counter()
    for path, doc in zip(paths, docs):
        result = analyze_file(path, config)  # raises nothing but a defect
        if not result.ok:
            outcomes["error"] += 1
            continue
        assert json.loads(result_to_entry(result))["ok"] is True
        assert render_text(result).startswith(f"== {path} ==")
        if result.export_path is None:
            outcomes["export failed" if result.warnings else "no regions"] += 1
            continue
        with open(result.export_path, encoding="utf-8") as file:
            text = file.read()
        exported = json.loads(text)
        pd = exported["pd"]
        v, e, f = oracle_euler(pd)
        assert v - e + f == 2, path
        assert oracle_incoherent_arcs(pd, exported["signs"]) == [], path
        assert oracle_link_components(pd) == oracle_link_components(doc["pd"]) + result.report.tw
        parse_document(text)
        outcomes["exported"] += 1
    assert min(outcomes["error"], outcomes["exported"]) > 1000, outcomes
