"""Seeded inputs for the benchmark: braid closures written as PD files.

Diagrams come from ``tests/braid.py`` (imported, not copied), so the
benchmark and the test suite build closures the same way.  Every file
carries explicit signs.  Alongside each file the generator keeps what the
output check needs: the input PD code and, for annotated files, the
annotated strand count.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from braid import braid_closure, full_twist_word  # noqa: E402

BATCH_FILES = 2000
BATCH_MAX_LETTERS = 30
BATCH_STRANDS = (2, 3, 4, 5)
ANNOTATED_ONE_IN = 20
LARGE_STRANDS = 6
LARGE_LETTERS = 400  # L; the larger size is 2L
LARGE_DIAGRAMS = 7  # pairs of sizes L and 2L


@dataclass(frozen=True)
class InputFile:
    path: str  # relative to the work directory
    pd: list
    letters: int
    annotated_strands: int | None = None


def homogeneous_word(rng: random.Random, strands: int, max_letters: int,
                     prefix_strands: int = 0) -> tuple[list[int], int]:
    """A word in which each generator keeps one sign, using every generator.

    With ``prefix_strands`` = m, the word starts with a full twist of the
    first m strands; the rest of the word still uses every generator, so
    each of the 2m strand ends of the twist leaves it.  Returns the word
    and the length of the prefix.
    """
    signs = [rng.choice((1, -1)) for _ in range(strands - 1)]
    prefix: list[int] = []
    if prefix_strands:
        twist_sign = rng.choice((1, -1))
        signs[: prefix_strands - 1] = [twist_sign] * (prefix_strands - 1)
        prefix = [twist_sign * j for j in full_twist_word(prefix_strands)]
    generators = list(range(1, strands))
    length = rng.randint(strands - 1, max_letters - len(prefix))
    rest = generators + [rng.choice(generators) for _ in range(length - len(generators))]
    rng.shuffle(rest)
    return prefix + [signs[j - 1] * j for j in rest], len(prefix)


def mixed_word(rng: random.Random, strands: int, letters: int) -> list[int]:
    """A random mixed-sign word with its letters split evenly over the
    generators and both signs, in random order.  Fixing the letter counts
    keeps the diagram-to-diagram spread of the reduction work smaller than
    independent letters would.
    """
    generators = range(1, strands)
    word = [
        (1 if (i // len(generators)) % 2 == 0 else -1) * generators[i % len(generators)]
        for i in range(letters)
    ]
    rng.shuffle(word)
    return word


def _write(workdir: Path, rel: str, doc: dict) -> None:
    (workdir / rel).write_text(json.dumps(doc) + "\n", encoding="utf-8")


def write_batch(workdir: Path, seed: int, files: int = BATCH_FILES) -> list[InputFile]:
    """The homogeneous small-closure corpus shared by `batch` and `batch-export`."""
    rng = random.Random(f"batch:{seed}")
    (workdir / "in").mkdir(parents=True, exist_ok=True)
    corpus = []
    for i in range(files):
        m = 0
        if rng.randrange(ANNOTATED_ONE_IN) == 0:
            strands = rng.choice([s for s in BATCH_STRANDS if s >= 3])
            m = rng.choice([k for k in (3, 4) if k <= strands])
        else:
            strands = rng.choice(BATCH_STRANDS)
        word, prefix = homogeneous_word(rng, strands, BATCH_MAX_LETTERS, m)
        pd, signs = braid_closure(word, strands)
        doc: dict = {"name": f"b{i:04d}", "pd": pd, "signs": signs}
        if m:
            doc["regions"] = [
                {"crossings": list(range(prefix)), "strands": m, "half_twists": 2}
            ]
        rel = f"in/b{i:04d}.json"
        _write(workdir, rel, doc)
        corpus.append(InputFile(rel, pd, len(word), m or None))
    return corpus


def write_large(workdir: Path, seed: int, letters: int = LARGE_LETTERS,
                diagrams: int = LARGE_DIAGRAMS) -> list[tuple[InputFile, InputFile]]:
    """Pairs of mixed-sign closures on 6 strands, at L and 2L letters.

    The 2L word of a pair is its L word written twice, so the two differ
    in size and not in the kind of word; the reduction work of independent
    random words varies more from word to word than between such a pair.
    """
    rng = random.Random(f"mixed-large:{seed}")
    (workdir / "in").mkdir(parents=True, exist_ok=True)
    pairs = []
    for i in range(diagrams):
        word = mixed_word(rng, LARGE_STRANDS, letters)
        pair = []
        for w in (word, word + word):
            pd, signs = braid_closure(w, LARGE_STRANDS)
            rel = f"in/m{len(w)}_{i}.json"
            _write(workdir, rel, {"name": f"m{len(w)}_{i}", "pd": pd, "signs": signs})
            pair.append(InputFile(rel, pd, len(w)))
        pairs.append(tuple(pair))
    return pairs
