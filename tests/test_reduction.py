"""R-II reduction of mixed chains: the incremental ``resolve_selection``
against the plain detect-and-splice loop, plus its scale.

The reference below re-detects every chain after each splice and always
reduces the mixed chain with the smallest crossing id, through the public
:func:`detect_bigon_chains` and :func:`reduce_twist_region` (which checks
Euler's formula after every splice).  ``resolve_selection`` must return the
same crossings, arc labels, regions and errors.
"""

from __future__ import annotations

import random
import time

from hypothesis import example, given, settings
from hypothesis import strategies as st

from auglink.diagram import Diagram, link_components
from auglink.twist import (
    RegionAnnotation,
    build_selection,
    detect_bigon_chains,
    reduce_twist_region,
    resolve_selection,
)

from braid import braid_closure, full_twist_word
from oracle import oracle_euler, oracle_link_components


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
    return (
        [(x.id, x.arcs, x.sign) for x in reduced.crossings],
        reduced.name,
        [(r.crossing_ids, r.strand_count, r.half_twists, r.sign) for r in selection.regions],
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
    assert oracle_link_components(reduced_pd) == link_components(reduced).component_count
