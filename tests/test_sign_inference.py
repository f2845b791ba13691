"""Sign inference from the strand orbits, against the role-propagation
reference it replaced.

``reference_infer_signs`` below is the earlier inference, kept verbatim: it
propagates in/out roles across arcs to a fixed point, then falls back to
consecutive numbering.  On seeded random unsigned closures, with arcs
relabelled and quads rotated or mirrored, ``_infer_signs`` must give the
same signs wherever either one succeeds, and the same error everywhere
else; only the arc a coherence error names may differ, because the
reference's depends on its propagation order.  Explicit signs meet the same
coherence rule at parse: a closure with one sign flipped never gets a report.
"""

from __future__ import annotations

import json
import random
import re
from collections import Counter

import pytest

from auglink.cli import RunConfig, analyze_file
from auglink.diagram import Diagram, _incoherent_dart, _infer_signs, _mate_darts, _orbits
from auglink.errors import InvalidDiagramError

from braid import braid_closure
from corpus import FIGURE8


def reference_infer_signs(quads: list[tuple], mates: tuple[int, ...]) -> list[int]:
    """Infer crossing signs from arc labels.

    Two stages.  First, orientation propagation: slot 0 is always an inflow
    and slot 2 an outflow, so every arc touching an under-slot has a forced
    direction; pushing directions across arcs pins down the over-slot roles
    (hence the sign) of every crossing they touch, transitively.  Second, any
    crossing still free gets the standard consecutive-numbering reading: for
    over pair (b, d) = (slot 1, slot 3), the crossing is positive when b is
    d's successor along its component.  A final pass checks that every arc
    ends up with one head and one tail.
    """
    n = len(quads)
    # (crossing, slot) of both ends of each arc, in label first-appearance order.
    arcs = [(d >> 2, d & 3, e >> 2, e & 3) for d, e in enumerate(mates) if d < e]

    signs: dict[int, int] = {}

    def role(ci: int, slot: int) -> str | None:
        # "in" / "out" / None when it hinges on an unknown sign
        if slot == 0:
            return "in"
        if slot == 2:
            return "out"
        sign = signs.get(ci)
        if sign is None:
            return None
        if slot == 3:
            return "in" if sign > 0 else "out"
        return "out" if sign > 0 else "in"

    changed = True
    while changed:
        changed = False
        for c1, s1, c2, s2 in arcs:
            r1, r2 = role(c1, s1), role(c2, s2)
            if (r1 is None) != (r2 is None):
                # The free end is an over-slot of a crossing with no sign yet:
                # record the sign that gives it the role opposite the known end's.
                ci, slot, known = (c2, s2, r1) if r2 is None else (c1, s1, r2)
                signs[ci] = 1 if (slot == 3) == (known == "out") else -1
                changed = True

    if len(signs) < n:
        # A strand orbit meets each arc of its component once: its labels
        # are the component's, and the other direction's orbit repeats them.
        strand, count = _orbits([mates[d ^ 2] for d in range(len(mates))])
        labels: list[list[int]] = [[] for _ in range(count)]
        for d, k in enumerate(strand):
            labels[k].append(quads[d >> 2][d & 3])
        next_label: dict[int, int] = {}  # along the same component
        for group in labels:
            group.sort()
            next_label.update(zip(group, group[1:] + group[:1]))
        for ci in range(n):
            if ci in signs:
                continue
            b, d = quads[ci][1], quads[ci][3]
            if next_label[d] == b:
                signs[ci] = 1
            elif next_label[b] == d:
                signs[ci] = -1
            else:
                raise InvalidDiagramError(
                    f"cannot infer the sign of crossing {ci} from arc labels; "
                    'supply explicit "signs"'
                )

    for c1, s1, c2, s2 in arcs:
        if sorted((role(c1, s1), role(c2, s2))) != ["in", "out"]:
            raise InvalidDiagramError(
                f"cannot infer consistent signs (arc {quads[c1][s1]} has no coherent "
                'direction); supply explicit "signs"'
            )
    return [signs[ci] for ci in range(n)]


def reference_incoherent_dart(signs, mates):
    """The first dart of an arc without one inflow and one outflow, or None."""
    flows_in = [slot == 0 or slot == (3 if sign > 0 else 1) for sign in signs for slot in range(4)]
    return next((d for d, e in enumerate(mates) if flows_in[d] == flows_in[e]), None)


def _random_quads(rng):
    """An unsigned braid closure, its labels, slots and quads perhaps mutated."""
    strands = rng.randint(2, 5)
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(1, 14))]
        try:
            pd, _ = braid_closure(word, strands)
        except ValueError:  # a strand never crossed
            continue
        break
    kind = rng.randrange(4)
    if kind == 1:  # labels no longer consecutive along the strands
        labels = sorted({a for quad in pd for a in quad})
        relabel = dict(zip(labels, rng.sample(range(1, 3 * len(labels) + 1), len(labels))))
        pd = [[relabel[a] for a in quad] for quad in pd]
    elif kind == 2:  # some quads read from another slot
        pd = [quad[k:] + quad[:k] for quad in pd for k in [rng.choice((0, 0, 1, 2, 3))]]
    elif kind == 3:  # some quads read clockwise
        pd = [[quad[0], quad[3], quad[2], quad[1]] if rng.random() < 0.3 else quad
              for quad in pd]
    if rng.random() < 0.2:
        rng.shuffle(pd)
    return [tuple(quad) for quad in pd]


def _outcome(infer, quads, mates):
    try:
        return infer(quads, mates)
    except InvalidDiagramError as e:
        return re.sub(r"\(arc \d+ has", "(arc N has", str(e)), str(e)


def _needs_fallback(quads, mates):
    """Whether some crossing's over-strand never passes under a crossing."""
    strand = _orbits([mates[d ^ 2] for d in range(len(mates))])[0]
    oriented = {strand[d] for d in range(0, len(mates), 2)}
    return any(strand[d] not in oriented for d in range(3, len(mates), 4))


def test_orbit_inference_matches_role_propagation():
    rng = random.Random(1501)
    tally = Counter()
    for _ in range(12000):
        quads = _random_quads(rng)
        mates = _mate_darts(quads)
        new = _outcome(_infer_signs, quads, mates)
        old = _outcome(reference_infer_signs, quads, mates)
        if isinstance(new, list) or isinstance(old, list):
            assert new == old, quads
            tally["fallback" if _needs_fallback(quads, mates) else "orbits"] += 1
        elif "(arc N has" in new[0]:
            assert new[0] == old[0], quads
            tally["same arc" if new[1] == old[1] else "other arc"] += 1
        else:
            assert new[1] == old[1], quads
            tally["no sign"] += 1
    # Every path is exercised: both ways to a sign, both errors, and
    # coherence errors that name another arc than the reference's.
    assert len(tally) == 5 and min(tally.values()) >= 20, tally


def test_incoherent_dart_matches_a_plain_loop():
    rng = random.Random(1502)
    for _ in range(3000):
        quads = _random_quads(rng)
        mates = _mate_darts(quads)
        signs = [rng.choice((1, -1)) for _ in quads]
        assert _incoherent_dart(signs, mates) == reference_incoherent_dart(signs, mates)


@pytest.mark.parametrize("sign, arc", [(1, 4), (-1, 2)])
def test_parse_names_the_first_incoherent_arc(sign, arc):
    # The figure-8 is +1 +1 -1 -1: with one sign throughout it orients no link.
    with pytest.raises(InvalidDiagramError) as excinfo:
        Diagram.from_pd(FIGURE8, [sign] * 4)
    assert str(excinfo.value) == f"signs orient no link (arc {arc} has no coherent direction)"


def test_one_flipped_sign_is_refused_before_any_report(tmp_path):
    # Flipping crossing i's sign swaps where its over-strand enters and
    # leaves, so the arcs at its slots 1 and 3 lose their coherent direction.
    rng = random.Random(1601)
    path = tmp_path / "flipped.json"
    config = RunConfig(inputs=(str(path),), export_dir=str(tmp_path / "out"))
    for _ in range(1000):
        strands = rng.randint(2, 5)
        word = list(range(1, strands)) + [rng.randint(1, strands - 1)
                                          for _ in range(rng.randint(0, 19))]
        rng.shuffle(word)
        pd, signs = braid_closure([rng.choice((1, -1)) * j for j in word], strands)
        i = rng.randrange(len(signs))
        signs[i] = -signs[i]
        with pytest.raises(InvalidDiagramError) as excinfo:
            Diagram.from_pd(pd, signs)
        arc = re.fullmatch(r"signs orient no link \(arc (\d+) has no coherent direction\)",
                           str(excinfo.value))
        assert arc and int(arc[1]) in (pd[i][1], pd[i][3]), (pd, signs)
        path.write_text(json.dumps({"pd": pd, "signs": signs}), encoding="utf-8")
        result = analyze_file(str(path), config)
        assert not result.ok and result.report is None and not result.warnings
        assert result.error == str(excinfo.value)
    assert not (tmp_path / "out").exists()
