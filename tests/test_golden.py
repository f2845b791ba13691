"""Golden output: the exact bytes of ``auglink analyze`` on a seeded corpus.

The corpus is built from ``tests/braid.py``: homogeneous closures (each
generator keeps one sign), closures that start with an annotated full
twist of 3 or 4 strands, and mixed-sign words that need R-II reduction.
One run with ``--json --attest-hyperbolic --export-augmented DIR`` is
hashed together with every exported file.  A change that alters the
report, error or export bytes on purpose must update ``GOLDEN_SHA256``.
``REPORT_SHA256`` pins the same run without ``--export-augmented``, so a
change to the drawing of exports alone leaves it as it is.

``REDUCTION_SHA256`` pins R-II reduction at a larger size: the reduced PD
code (ids, arcs, signs) and the region crossing ids of a few long mixed
closures.  The order in which chains are cancelled shows in the surviving
crossing ids; a reduced diagram labels its arcs in the order of their
first dart, so its labels pin how the survivors are joined.

``EXPORT_SHA256`` pins the bytes of every exported PD code (or the error
that stopped it) on a corpus that reaches each case of the one drawing,
a circle ringed around one side of each region with the dropped
crossings spliced out: 2-strand chains that are open, closed or return
to themselves, one-crossing kinks, mixed words after reduction, and
annotated full and half twists of 3, 4 and 5 strands with 1, 2 or 3
half-twists (an odd count draws the half-twist staircase between the
ring and the box).  Each of those exports must also be oriented by its
signs, as ``tests/oracle.py`` reads them.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
from contextlib import redirect_stdout

import pytest

from auglink import cli, geometry
from auglink.augment import augment, export_augmented_diagram
from auglink.cli import main
from auglink.diagram import Crossing, Diagram, serialize_diagram
from auglink.errors import AuglinkError
from auglink.geometry import build_report
from auglink.twist import RegionAnnotation, resolve_selection

from braid import braid_closure, full_twist_word, half_twist_word
from oracle import oracle_incoherent_arcs

SEED = 20071
HOMOGENEOUS = 300
ANNOTATED = 8
MIXED = 6
MIXED_LETTERS = 60

GOLDEN_SHA256 = "9308701a3e40dc1469e7b6100e4b11c84df167add75f64c7fce07ee9cd4b4b05"
REPORT_SHA256 = "741df63e4d3f8dc106b93ebe31a9f4300f0855b1563822b431008df4d484b669"

REDUCTION_SEED = 20072
REDUCTION_WORDS = 3
REDUCTION_STRANDS = 6
REDUCTION_LETTERS = 300

REDUCTION_SHA256 = "214620bc996c00b2c7d575ddae182860136f75659fd3090c3e90b4d9e8508fbd"

EXPORT_SEED = 20073
EXPORT_HOMOGENEOUS = 160
EXPORT_MIXED = 40
EXPORT_MIXED_LETTERS = 30
EXPORT_PER_ANNOTATION = 4  # files per (m, c) pair
EXPORT_WORDS = [  # (word, strands) that name a drawing on their own
    ([1], 2),  # one-crossing kink
    ([-1], 2),
    ([1, 1], 2),  # closed even chain (Hopf link)
    ([1, 1, 1], 2),  # closed odd chain (trefoil)
    ([-1] * 6, 2),
    ([1, 2], 3),  # two kinks
    ([1, 1, 2], 3),  # even chain whose strand returns to it
    ([1, 1, 1, -2], 3),  # odd chain whose strand returns to it
    ([1, 1, 2, 2], 3),  # two open chains
    ([1, 2, 1, -2], 3),  # reduces to a kinked chain
    ([1, -1, 1, 2, 2], 3),
]

EXPORT_SHA256 = "bd0cbdd45364d5c092e4030087dc26da3bf55ddea5ccbb1c8604f2e59f660042"


def _homogeneous(rng: random.Random, strands: int, max_letters: int, prefix=()):
    signs = [rng.choice((1, -1)) for _ in range(strands - 1)]
    generators = list(range(1, strands))
    length = rng.randint(strands - 1, max_letters)
    rest = generators + [rng.choice(generators) for _ in range(length - len(generators))]
    rng.shuffle(rest)
    return list(prefix) + [signs[j - 1] * j for j in rest]


def _corpus(rng: random.Random):
    for i in range(HOMOGENEOUS):
        strands = rng.choice((2, 3, 4, 5))
        yield f"h{i:03d}", _homogeneous(rng, strands, 24), strands, None
    for i in range(ANNOTATED):
        m = (3, 4)[i % 2]
        strands = m + rng.randint(0, 1)
        sign = rng.choice((1, -1))
        twist = [sign * j for j in full_twist_word(m)]
        word = _homogeneous(rng, strands, 12, twist)
        yield f"a{i}", word, strands, (len(twist), m)
    for i in range(MIXED):
        strands = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(MIXED_LETTERS)]
        word[: strands - 1] = range(1, strands)
        yield f"x{i}", word, strands, None


def _write_corpus(directory) -> list[str]:
    paths = []
    for name, word, strands, annotated in _corpus(random.Random(SEED)):
        pd, signs = braid_closure(word, strands)
        doc: dict = {"name": name, "pd": pd, "signs": signs}
        if annotated is not None:
            size, m = annotated
            doc["regions"] = [{"crossings": list(range(size)), "strands": m, "half_twists": 2}]
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")
        paths.append(str(path))
    return paths


def _analyze_corpus(tmp_path, *flags) -> str:
    inputs = tmp_path / "in"
    inputs.mkdir()
    paths = _write_corpus(inputs)
    out = io.StringIO()
    with redirect_stdout(out):
        status = main(["analyze", *paths, "--json", "--attest-hyperbolic", *flags])
    assert status in (0, 2)
    return out.getvalue().replace(str(tmp_path), "<tmp>")


def _golden_digest(tmp_path) -> str:
    exports = tmp_path / "out"
    stdout = _analyze_corpus(tmp_path, "--export-augmented", str(exports))
    digest = hashlib.sha256()
    digest.update(stdout.encode("utf-8"))
    for path in sorted(exports.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    return digest.hexdigest()


def test_analyze_output_matches_golden_digest(tmp_path):
    assert _golden_digest(tmp_path) == GOLDEN_SHA256


def test_warm_memos_give_the_golden_bytes(tmp_path, monkeypatch):
    # The first run is on one CPU, so it fills every per-circle memo in this
    # process; the workers the second run forks start with them filled.
    for memo in (cli._circle_text, geometry._six_theorem_reason, geometry._estimate):
        memo.cache_clear()
    cpus = os.sched_getaffinity(0)
    for run, run_cpus in (("cold", {0}), ("warm", cpus)):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, run_cpus=run_cpus: run_cpus)
        (tmp_path / run).mkdir()
        assert _golden_digest(tmp_path / run) == GOLDEN_SHA256
        if run == "cold":
            assert cli._circle_text.cache_info().hits > 0


def _no_records(*args, **kwargs):
    raise AssertionError("the pipeline built a Crossing record")


def test_pipeline_builds_no_crossing_records(tmp_path, monkeypatch):
    # Parse, reduction, augmentation, reports, export and serialization
    # read the flat fields; Crossing records are for library callers only.
    monkeypatch.setattr(Crossing, "_make", _no_records)
    monkeypatch.setattr(Crossing, "__new__", _no_records)
    with pytest.raises(AssertionError, match="Crossing record"):
        Diagram.from_pd([[1, 1, 2, 2]]).crossings
    assert _golden_digest(tmp_path) == GOLDEN_SHA256

    # Nor does the pipeline label the arcs of a reduced diagram: its labels
    # are worked out only when it is serialized.
    pd, signs = braid_closure([1, 1, -1, 2, 2, -1, 1, 1, 2], 3)
    reduced, selection = resolve_selection(Diagram.from_pd(pd, signs))
    assert reduced.crossing_count < len(pd)
    build_report(augment(reduced, selection), True)
    assert "labels" not in vars(reduced)


def test_report_matches_golden_digest(tmp_path):
    stdout = _analyze_corpus(tmp_path)
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == REPORT_SHA256


def test_reduction_matches_golden_digest():
    rng = random.Random(REDUCTION_SEED)
    digest = hashlib.sha256()
    for _ in range(REDUCTION_WORDS):
        word = [rng.choice((1, -1)) * rng.randint(1, REDUCTION_STRANDS - 1)
                for _ in range(REDUCTION_LETTERS)]
        word[: REDUCTION_STRANDS - 1] = range(1, REDUCTION_STRANDS)
        pd, signs = braid_closure(word, REDUCTION_STRANDS)
        reduced, selection = resolve_selection(Diagram.from_pd(pd, signs))
        record = {
            "crossings": [[x.id, list(x.arcs), x.sign] for x in reduced.crossings],
            "regions": [list(r.crossing_ids) for r in selection.regions],
        }
        digest.update(json.dumps(record).encode("utf-8") + b"\n")
    assert digest.hexdigest() == REDUCTION_SHA256


def _export_corpus(rng: random.Random):
    """(word, strands, annotation or None) for the export digest."""
    for word, strands in EXPORT_WORDS:
        yield word, strands, None
    for _ in range(EXPORT_HOMOGENEOUS):
        strands = rng.choice((2, 3, 4, 5))
        yield _homogeneous(rng, strands, 16), strands, None
    for _ in range(EXPORT_MIXED):
        strands = rng.choice((2, 3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(EXPORT_MIXED_LETTERS)]
        word[: strands - 1] = range(1, strands)
        yield word, strands, None
    for m in (3, 4, 5):
        for c in (1, 2, 3):
            for _ in range(EXPORT_PER_ANNOTATION):
                strands = m + rng.randint(0, 1)
                sign = rng.choice((1, -1))
                twist = [sign * j for j in half_twist_word(m) * c]
                word = _homogeneous(rng, strands, 10, twist)
                annotation = RegionAnnotation(
                    crossing_ids=frozenset(range(len(twist))), strand_count=m, half_twists=c
                )
                yield word, strands, annotation


def test_export_matches_golden_digest():
    digest = hashlib.sha256()
    for word, strands, annotation in _export_corpus(random.Random(EXPORT_SEED)):
        pd, signs = braid_closure(word, strands)
        annotations = () if annotation is None else (annotation,)
        try:
            reduced, selection = resolve_selection(Diagram.from_pd(pd, signs), annotations)
            exported = export_augmented_diagram(augment(reduced, selection))
        except AuglinkError as exc:
            record = f"{type(exc).__name__}: {exc}"
        else:
            # Nothing in the package checks the signs an export carries.
            exported_pd = [x.arcs for x in exported.crossings]
            assert oracle_incoherent_arcs(exported_pd, [x.sign for x in exported.crossings]) == []
            record = serialize_diagram(exported)
        digest.update(record.encode("utf-8") + b"\n")
    assert digest.hexdigest() == EXPORT_SHA256
