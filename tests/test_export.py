"""PD export of augmented links, checked by the independent oracle.

Random braid closures (2-5 strands, homogeneous and mixed signs, some
holding one to three annotated half-twists of 2, 3 or 4 adjacent strands
after zero to four other letters) go through reduction, augmentation and
export.  Every exported code is then read only through
``tests/oracle.py``: it must be planar, oriented by its signs, carry one
new component per twist region, have the crossing count the drawing
promises, and draw each circle as a component that never crosses itself
and passes once over and once under each strand of its region.  Seeded window annotations
check that validation, not the export, refuses a box of the wrong shape,
and the same oracles read the export of every genuine window.
"""

from __future__ import annotations

import random
from collections import Counter

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from auglink.augment import augment, export_augmented_diagram
from auglink.diagram import Diagram, RegionAnnotation, _mate_darts
from auglink.errors import AugmentError, ExportError, InvalidDiagramError, RegionError
from auglink.twist import resolve_selection

from braid import braid_closure, half_twist_word
from oracle import (
    oracle_component_crossings,
    oracle_euler,
    oracle_incoherent_arcs,
    oracle_link_components,
)


@st.composite
def closures(draw):
    """(word, strands, annotation): annotation is (crossing ids, m, c) or None.

    Every generator occurs, so that no strand position is left uncrossed.
    An annotated region, c half-twists of m adjacent strands of one sign,
    follows the word's first zero to four letters, so that its top side and
    boundary walk need not start at the word's start.  With m = 2 it is a
    one-sign run of c letters, an annotated chain.
    """
    strands = draw(st.integers(min_value=2, max_value=5))
    letters = draw(st.lists(st.integers(1, strands - 1), min_size=1, max_size=14))
    letters += [j for j in range(1, strands) if j not in letters]
    signs = st.sampled_from((1, -1))
    if draw(st.booleans()):  # homogeneous: one sign per generator
        per_generator = draw(st.lists(signs, min_size=strands, max_size=strands))
        word = [per_generator[j] * j for j in letters]
    else:
        word = [draw(signs) * j for j in letters]
    annotation = None
    if draw(st.integers(min_value=0, max_value=2)) == 0:
        m = draw(st.sampled_from([k for k in (2, 3, 4) if k <= strands]))
        c = draw(st.integers(min_value=1, max_value=3))
        sign = draw(signs)
        shift = draw(st.integers(min_value=0, max_value=strands - m))
        twist = [sign * (j + shift) for j in half_twist_word(m) * c]
        before = draw(st.integers(min_value=0, max_value=min(4, len(word))))
        word = word[:before] + twist + word[before:]
        annotation = (list(range(before, before + len(twist))), m, c)
    return word, strands, annotation


EXAMPLES = [
    ([1, 1, 2], 3, None),  # an even chain whose strand returns to it
    ([1, 2, 1, -2], 3, None),  # reduces to a kinked chain: two kinks sharing a bigon
    ([1, 1, 1, 1], 2, None),  # T(2,4): a closed even chain
    ([1], 2, None),  # the one-crossing kink
    # Crossing 5 closes up onto 0, so the annotated chain runs 5, 0, 1.
    ([1, 1, 2, 1, 2, 1], 3, ([0, 1, 5], 2, 3)),
]


def _augmented(word, strands, annotation):
    """(reduced diagram, augmented link), or None for an input out of scope."""
    try:
        pd, signs = braid_closure(word, strands)
    except ValueError:
        return None  # a strand position never crossed: not a PD code
    annotations = ()
    if annotation is not None:
        ids, m, c = annotation
        annotations = (RegionAnnotation(frozenset(ids), m, c),)
    try:
        reduced, selection = resolve_selection(Diagram.from_pd(pd, signs), annotations)
        if selection.region_count == 0:
            return None
        return reduced, augment(reduced, selection)
    except (AugmentError, InvalidDiagramError, RegionError):
        return None  # split after reduction, or an annotation reduction broke


def test_examples_reach_the_export():
    assert all(_augmented(*case) is not None for case in EXAMPLES)


def _with_examples(test):
    for case in EXAMPLES:
        test = example(case)(test)
    return test


def _check_with_oracle(reduced, augmented, exported) -> list[list[int]]:
    """Euler's formula, orientation by the signs and one new component per circle.

    Returns the exported PD code.
    """
    pd = [list(x.arcs) for x in exported.crossings]
    v, e, f = oracle_euler(pd)
    assert v - e + f == 2
    assert oracle_incoherent_arcs(pd, [x.sign for x in exported.crossings]) == []
    original = oracle_link_components([list(x.arcs) for x in reduced.crossings])
    assert oracle_link_components(pd) == original + augmented.circle_count
    return pd


@given(closures())
@_with_examples
@settings(max_examples=150, deadline=None)
def test_export_is_a_planar_augmentation(case):
    result = _augmented(*case)
    assume(result is not None)
    reduced, augmented = result
    regions = augmented.source.regions
    try:
        exported = export_augmented_diagram(augmented)
    except ExportError as exc:
        raise AssertionError(f"export failed on {case}: {exc}") from exc
    # The mates the export's flat arrays hand over are the ones its labels pair.
    assert exported.dart_mates == _mate_darts([x.arcs for x in exported.crossings])
    pd = _check_with_oracle(reduced, augmented, exported)
    assert len(pd) == sum(
        2 * r.strand_count + (r.half_twists % 2) * r.strand_count * (r.strand_count - 1) // 2
        for r in regions
    )
    # Every circle is a component that never crosses itself and passes
    # over m and under m strands: 2m crossings with the other components.
    plain = Counter((over, under) for own, over, under in oracle_component_crossings(pd)
                    if own == 0)
    assert not Counter((r.strand_count, r.strand_count) for r in regions) - plain


def _windows(count: int, seed: int):
    """Seeded (word, strands, annotation, genuine) with an m = 3 or 4 window annotated.

    The window is the word's letters after a short prefix: c half-twists
    of m adjacent strands when ``genuine``, else c*m(m-1)/2 random letters
    of one sign.  A genuine window sits in a word with one sign per
    generator, so no reduction runs; around a random window the signs are
    per generator or per letter, at random.
    """
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.choice((3, 4, 5))
        m = rng.choice([k for k in (3, 4) if k <= strands])
        c, sign, genuine = rng.randint(1, 3), rng.choice((1, -1)), rng.random() < 0.5
        if genuine:
            shift = rng.randrange(strands - m + 1)
            window = [j + shift for j in half_twist_word(m) * c]
        else:
            window = [rng.randrange(1, strands) for _ in range(c * m * (m - 1) // 2)]
        before = [rng.randrange(1, strands) for _ in range(rng.randrange(6))]
        after = [rng.randrange(1, strands) for _ in range(rng.randrange(10))]
        after += [j for j in range(1, strands) if j not in before + window + after]
        signs = {j: sign if j in window else rng.choice((1, -1)) for j in range(1, strands)}
        if genuine or rng.random() < 0.5:
            word = [signs[j] * j for j in before + window + after]
        else:  # signs per letter: reduction may run around the window
            word = ([rng.choice((1, -1)) * j for j in before] + [sign * j for j in window]
                    + [rng.choice((1, -1)) * j for j in after])
        yield word, strands, (range(len(before), len(before) + len(window)), m, c), genuine


def test_windows_are_refused_by_validation_or_exported():
    """A window that validates is drawn; only the component-count guard refuses one.

    Validation refuses every box whose boundary is not one cycle or whose
    sides do not pair its strands like a twist box, so the export meets no
    region it cannot draw.  The guard refuses some boxes of the right shape
    that hold another braid than c half-twists.  A genuine window fails
    only where fewer than 2m strand-endpoints leave it (its closure joins a
    strand to itself), and the oracles accept each genuine window's export.
    Every other closure is read with its strands reversed, so that boxes of
    either sign are ringed and twisted on sides whose strands enter and on
    sides whose strands leave.
    """
    outcomes = Counter()
    for k, (word, strands, (ids, m, c), genuine) in enumerate(_windows(10_000, seed=17)):
        pd, signs = braid_closure(word, strands)
        if k % 2:  # every strand reversed, signs kept: the lanes run the other way
            pd = [quad[2:] + quad[:2] for quad in pd]
        annotation = RegionAnnotation(frozenset(ids), m, c)
        try:
            reduced, selection = resolve_selection(Diagram.from_pd(pd, signs), (annotation,))
            augmented = augment(reduced, selection)
        except (AugmentError, InvalidDiagramError, RegionError) as exc:
            assert not genuine or "strand-endpoints leave the region" in str(exc), (word, exc)
            outcomes["refused"] += 1
            continue
        try:
            exported = export_augmented_diagram(augmented)
        except ExportError as exc:
            assert not genuine and "link components, expected" in str(exc), (word, exc)
            outcomes["guard"] += 1
            continue
        if genuine:
            _check_with_oracle(reduced, augmented, exported)
        outcomes["genuine" if genuine else "random"] += 1
    assert min(outcomes[k] for k in ("refused", "guard", "genuine", "random")) > 0, outcomes
