"""R-II reduction of mixed chains: the incremental ``resolve_selection``
against the plain detect-and-splice loop, plus its scale.

The reference below re-detects every chain after each splice and always
reduces the mixed chain with the smallest crossing id, through the public
:func:`detect_bigon_chains` and the :func:`reduce_twist_region` defined
here (which checks Euler's formula after every splice).  ``resolve_selection`` must return the
same crossings, arc labels, regions and errors, and the selection it hands
over must equal the one :func:`build_selection` detects from scratch.
"""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auglink.diagram import Crossing, Diagram, _check_euler, _DisjointSets, _mate_darts
from auglink.errors import RegionError
from auglink.twist import (
    RegionAnnotation,
    TwistRegion,
    build_selection,
    detect_bigon_chains,
    resolve_selection,
    validate_generalized_region,
)

from braid import braid_closure, full_twist_word
from corpus import TREFOIL
from oracle import oracle_euler, oracle_link_components


def reduce_twist_region(diagram: Diagram, region: TwistRegion) -> Diagram:
    """Cancel opposite-sign pairs in a mixed 2-strand chain (Reidemeister II).

    Removes 2 * min(#positive, #negative) crossings — adjacent opposite
    pairs, cancelled until the remaining chain is uniform — and reconnects
    the strands through the gaps.  Surviving crossings keep their ids.  A
    component whose crossings all cancel vanishes from the code; a diagram
    that empties entirely becomes the 0-crossing unknot.
    """
    if region.strand_count != 2:
        raise RegionError("reduction is defined for 2-strand twist regions only")
    if len({diagram.crossing(c).sign for c in region.crossing_ids}) <= 1:
        raise RegionError(f"region {region.id} is already alternating; nothing to reduce")
    stack: list[int] = []  # crossing ids; adjacent opposite signs annihilate
    for c in region.crossing_ids:
        if stack and diagram.crossing(stack[-1]).sign == -diagram.crossing(c).sign:
            stack.pop()
        else:
            stack.append(c)
    return _splice_out(diagram, set(region.crossing_ids) - set(stack))


def _splice_out(diagram: Diagram, removed: set[int]) -> Diagram:
    """Drop ``removed`` crossings, reconnecting each strand straight through."""
    labels = _DisjointSets({a for x in diagram.crossings for a in x.arcs})
    for x in diagram.crossings:
        if x.id in removed:
            labels.union(x.arcs[0], x.arcs[2])
            labels.union(x.arcs[1], x.arcs[3])

    survivors = []
    for x in diagram.crossings:
        if x.id not in removed:
            arcs = tuple(labels.find(a) for a in x.arcs)
            survivors.append(Crossing(x.id, arcs, x.sign))  # checked; _replace would skip that
    reduced = Diagram(crossings=tuple(survivors), name=diagram.name)
    _check_euler(reduced)
    return reduced


def reference_resolve(diagram, annotations=()):
    annotated = frozenset(c for a in annotations for c in a.crossing_ids)
    while True:
        complement = frozenset(diagram.crossing_ids) - annotated
        mixed = [r for r in detect_bigon_chains(diagram, within=complement) if r.sign == 0]
        if not mixed:
            break
        diagram = reduce_twist_region(diagram, mixed[0])
    return diagram, build_selection(diagram, annotations)


def _outcome(resolve, diagram, annotations):
    try:
        reduced, selection = resolve(diagram, annotations)
    except Exception as exc:  # the reference's error is part of the contract
        return type(exc), str(exc)
    # The selection handed over from the reduction equals a fresh detection,
    # and the relinked mates are the ones the surviving labels pair.
    assert selection == build_selection(reduced, annotations)
    assert reduced.dart_mates == _mate_darts([x.arcs for x in reduced.crossings])
    return (
        [(x.id, x.arcs, x.sign) for x in reduced.crossings],
        reduced.name,
        [(r.id, r.crossing_ids, r.strand_count, r.half_twists, r.sign)
         for r in selection.regions],
    )


@st.composite
def mixed_words(draw):
    """A mixed-sign word on 2-6 strands, maybe after an annotated full twist."""
    m = draw(st.sampled_from((0, 3, 4)))
    strands = draw(st.integers(min_value=max(2, m), max_value=6))
    letters = draw(
        st.lists(
            st.tuples(st.integers(1, strands - 1), st.sampled_from((1, -1))),
            min_size=1,
            max_size=80,
        )
    )
    word = [j * s for j, s in letters]
    for j in range(1, strands):  # every strand crossed, so the closure exists
        if j not in {abs(x) for x in word}:
            word.append(j * draw(st.sampled_from((1, -1))))
    prefix = []
    if m:
        prefix = [draw(st.sampled_from((1, -1))) * j for j in full_twist_word(m)]
    return prefix + word, strands, (len(prefix), m)


@given(mixed_words())
@example(([1, 1, -2, 2, -1], 3, (0, 0)))
@example(([1, 2, 1, 2], 3, (0, 0)))  # nothing to reduce
@settings(max_examples=300, deadline=None)
def test_resolve_selection_matches_the_splice_loop(case):
    word, strands, (prefix, m) = case
    pd, signs = braid_closure(word, strands)
    diagram = Diagram.from_pd(pd, signs, name="w")
    annotations = ()
    if m:
        annotations = (
            RegionAnnotation(crossing_ids=frozenset(range(prefix)), strand_count=m, half_twists=2),
        )
    assert _outcome(resolve_selection, diagram, annotations) == _outcome(
        reference_resolve, diagram, annotations
    )


def test_smallest_mixed_chain_is_cancelled_first():
    # Cancelling every mixed chain of one detection pass at once would keep
    # crossing (2, 2, 5, 5) instead.
    pd, signs = braid_closure([1, 1, -2, 2, -1], 3)
    reduced, selection = resolve_selection(Diagram.from_pd(pd, signs))
    assert [(x.id, x.arcs) for x in reduced.crossings] == [(1, (2, 2, 9, 9))]
    assert selection.region_count == 1


def test_long_mixed_closure_resolves_quickly():
    rng = random.Random(4000)
    word = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(4000)]
    word[:5] = range(1, 6)
    pd, signs = braid_closure(word, 6)
    diagram = Diagram.from_pd(pd, signs)
    start = time.perf_counter()
    reduced, selection = resolve_selection(diagram)
    assert time.perf_counter() - start < 5.0
    assert 0 < reduced.crossing_count < diagram.crossing_count
    assert all(r.sign in (-1, 1) for r in selection.regions)
    reduced_pd = [list(x.arcs) for x in reduced.crossings]
    v, e, f = oracle_euler(reduced_pd)
    assert reduced.is_connected and v - e + f == 2
    assert oracle_link_components(reduced_pd) == reduced.link_component_count


# ----------------------------------------------------------------------------
# The reference reduction of one chain
# ----------------------------------------------------------------------------


def test_reduce_plus_minus_plus_leaves_one_crossing():
    pd, signs = braid_closure([1, -1, 1], 2)
    diagram = Diagram.from_pd(pd, signs)
    (region,) = detect_bigon_chains(diagram)
    reduced = reduce_twist_region(diagram, region)
    assert reduced.crossing_count == 1
    (survivor,) = reduced.crossings
    assert survivor.sign in (-1, 1)
    (after,) = detect_bigon_chains(reduced)
    assert after.crossing_count == 1


def test_reduce_plus_minus_vanishes():
    pd, signs = braid_closure([1, -1], 2)
    diagram = Diagram.from_pd(pd, signs)
    (region,) = detect_bigon_chains(diagram)
    reduced = reduce_twist_region(diagram, region)
    assert reduced.crossing_count == 0


def test_reduce_alternating_region_is_refused():
    diagram = Diagram.from_pd(TREFOIL)
    (region,) = detect_bigon_chains(diagram)
    with pytest.raises(RegionError, match="already alternating"):
        reduce_twist_region(diagram, region)


def test_reduce_rejects_generalized_regions():
    pd, signs = braid_closure(full_twist_word(3) + [1, 2], 3)
    diagram = Diagram.from_pd(pd, signs)
    annotation = RegionAnnotation(
        crossing_ids=frozenset(range(6)), strand_count=3, half_twists=2
    )
    region = validate_generalized_region(diagram, annotation)
    with pytest.raises(RegionError):
        reduce_twist_region(diagram, region)


def test_reduce_keeps_surviving_crossing_ids():
    pd, signs = braid_closure([1, 1, -1, 1, 1], 2)  # signs + + - + +
    diagram = Diagram.from_pd(pd, signs)
    (region,) = detect_bigon_chains(diagram)
    assert region.sign == 0
    reduced = reduce_twist_region(diagram, region)
    assert reduced.crossing_count == 3  # removed 2*min(4 plus, 1 minus)
    assert set(reduced.crossing_ids) <= set(diagram.crossing_ids)
    (after,) = detect_bigon_chains(reduced)
    assert after.sign == 1
    assert after.crossing_count == 3
