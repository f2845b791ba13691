"""PD export of augmented links, checked by the independent oracle.

Random braid closures (2-5 strands, homogeneous and mixed signs, some
starting with an annotated full twist of 3 or 4 strands) go through
reduction, augmentation and export.  Every exported code is then read
only through ``tests/oracle.py``: it must be planar, carry one new
component per twist region, have the crossing count the drawing promises,
and draw each circle as a component that never crosses itself and passes
once over and once under each strand of its region.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from auglink.augment import augment, export_augmented_diagram
from auglink.diagram import Diagram, _mate_darts
from auglink.errors import AugmentError, ExportError, InvalidDiagramError, RegionError
from auglink.twist import RegionAnnotation, resolve_selection

from braid import braid_closure, full_twist_word
from oracle import oracle_component_crossings, oracle_euler, oracle_link_components


@st.composite
def closures(draw):
    """(word, strands, annotation): annotation is (crossing ids, m, c) or None.

    Every generator occurs, so that no strand position is left uncrossed.
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
    if strands >= 3 and draw(st.integers(min_value=0, max_value=2)) == 0:
        m = draw(st.sampled_from([k for k in (3, 4) if k <= strands]))
        sign = draw(signs)
        twist = [sign * j for j in full_twist_word(m)]
        word = twist + word
        annotation = (list(range(len(twist))), m, 2)
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
    pd = [list(x.arcs) for x in exported.crossings]
    # The mates the port graph hands over are the ones its labels pair.
    assert exported.dart_mates == _mate_darts([x.arcs for x in exported.crossings])

    v, e, f = oracle_euler(pd)
    assert v - e + f == 2
    original = oracle_link_components([list(x.arcs) for x in reduced.crossings])
    assert oracle_link_components(pd) == original + len(regions)
    assert len(pd) == sum(
        2 * r.strand_count + (r.half_twists % 2) * r.strand_count * (r.strand_count - 1) // 2
        for r in regions
    )
    # Every circle is a component that never crosses itself and passes
    # over m and under m strands: 2m crossings with the other components.
    plain = Counter((over, under) for own, over, under in oracle_component_crossings(pd)
                    if own == 0)
    assert not Counter((r.strand_count, r.strand_count) for r in regions) - plain

