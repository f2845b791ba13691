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
closures, where the order in which chains are cancelled shows in the
surviving crossings and labels.

``EXPORT_SHA256`` pins the bytes of every exported PD code (or the error
that stopped it) on a corpus that reaches each drawing: 2-strand chains
that are open, closed or return to themselves, one-crossing kinks, mixed
words after reduction, and annotated full and half twists of 3, 4 and 5
strands with 1, 2 or 3 half-twists (the m >= 3 staircase).
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stdout

from auglink.augment import augment, export_augmented_diagram
from auglink.cli import main
from auglink.diagram import Diagram, serialize_diagram
from auglink.errors import AuglinkError
from auglink.twist import RegionAnnotation, resolve_selection

from braid import braid_closure, full_twist_word, half_twist_word

SEED = 20071
HOMOGENEOUS = 300
ANNOTATED = 8
MIXED = 6
MIXED_LETTERS = 60

GOLDEN_SHA256 = "f6aa2b90cb9cef2dad53034e40c4d03a262d90be78577709b1e5438f9e563793"
REPORT_SHA256 = "741df63e4d3f8dc106b93ebe31a9f4300f0855b1563822b431008df4d484b669"

REDUCTION_SEED = 20072
REDUCTION_WORDS = 3
REDUCTION_STRANDS = 6
REDUCTION_LETTERS = 300

REDUCTION_SHA256 = "0d3d0667e90b5e95041b618d49bd7b0a593cd1bb9730a8109c1df20484dfe03a"

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

EXPORT_SHA256 = "4561563f07676ce6c0fd640b3d7ce4c261aca4e5117a5516cc851a012cba94bb"


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


def test_analyze_output_matches_golden_digest(tmp_path):
    exports = tmp_path / "out"
    stdout = _analyze_corpus(tmp_path, "--export-augmented", str(exports))
    digest = hashlib.sha256()
    digest.update(stdout.encode("utf-8"))
    for path in sorted(exports.iterdir()):
        digest.update(path.name.encode("utf-8") + b"\0" + path.read_bytes())
    assert digest.hexdigest() == GOLDEN_SHA256


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
            record = serialize_diagram(export_augmented_diagram(augment(reduced, selection)))
        except AuglinkError as exc:
            record = f"{type(exc).__name__}: {exc}"
        digest.update(record.encode("utf-8") + b"\n")
    assert digest.hexdigest() == EXPORT_SHA256
