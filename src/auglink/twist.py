"""Twist regions: detect bigon chains, validate annotated regions, reduce.

A 2-strand twist region is a maximal chain of bigon faces arranged end to
end; a lone crossing adjacent to no bigon is a twist region of one crossing.
Generalized regions (m >= 3 strands twisting together) cannot be recovered
reliably from a PD code, so they arrive as annotations and are validated
here: a half-twist of m strands contains m(m-1)/2 crossings, and exactly 2m
strand-endpoints must leave the region.

A selection partitions every crossing of the diagram into regions.  Regions
must be alternating (uniform crossing sign); a detected chain with mixed
signs gets ``sign == 0``.  :func:`resolve_selection` cancels the adjacent
opposite-sign pairs of every such chain (Reidemeister II) until it is
uniform, in a fixed order: the mixed chain with the smallest crossing id
first, then the smallest of what is left, and so on.  Surviving crossings
keep their ids, and arc labels are as if each chain were spliced out alone
in that order.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .diagram import Diagram, _DisjointSets, _crossing, _next_slot, _splice
from .errors import NonAlternatingRegionError, RegionError


class RegionAnnotation(NamedTuple):
    """A user-declared generalized twist region, not yet validated."""

    crossing_ids: frozenset[int]
    strand_count: int
    half_twists: int


class _TwistRegionFields(NamedTuple):
    id: int
    crossing_ids: tuple[int, ...]
    strand_count: int
    half_twists: int
    sign: int


class TwistRegion(_TwistRegionFields):
    """A validated twist region.

    ``crossing_ids`` is ordered: every 2-strand region, detected or
    annotated, lists its crossings in chain order (ends first/last); an
    annotated region of m >= 3 strands sorts them by id.  ``sign`` is the
    common crossing sign, or 0 for a detected chain with mixed signs (which
    must be reduced before selection) and for a region whose crossings all
    cancelled away.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        m, c = self.strand_count, self.half_twists
        if m < 2:
            raise RegionError(f"region {self.id}: strand count must be >= 2, got {m}")
        expected = c * m * (m - 1) // 2
        if len(self.crossing_ids) != expected:
            raise RegionError(
                f"region {self.id}: {len(self.crossing_ids)} crossings cannot make {c} "
                f"half-twists of {m} strands (needs {expected} = c*m(m-1)/2)"
            )
        return self

    @property
    def crossing_count(self) -> int:
        return len(self.crossing_ids)


class TwistSelection(NamedTuple):
    """A partition of all crossings of a diagram into twist regions."""

    regions: tuple[TwistRegion, ...]
    diagram: Diagram

    @property
    def region_count(self) -> int:
        """tw(D), the number of regions in the selection."""
        return len(self.regions)


# ============================================================================
# Detection
# ============================================================================
#
# Darts here are the diagram's integer darts, 4 * position + slot; the
# opposite corner of a crossing is dart ^ 2.  Chains hold positions in
# ``diagram.crossings`` and become crossing ids only where a TwistRegion is
# built.  Ids ascend with position in every diagram that ``from_pd`` or a
# reduction builds, so sorted positions are also sorted ids, and a chain's
# smallest position holds its smallest id.


def _scope(diagram: Diagram, annotations) -> range | frozenset[int]:
    """Positions of the crossings that no annotation claims."""
    if not annotations:
        return range(len(diagram.crossings))
    annotated = {c for a in annotations for c in a.crossing_ids}
    return frozenset(p for p, c in enumerate(diagram.crossing_ids) if c not in annotated)


def _bigon_bonds(diagram: Diagram, scope) -> dict[int, int]:
    """Bonds between crossings joined by a bigon face, as a corner map.

    Returns ``bonds[corner dart] = other corner dart`` among the positions
    in ``scope``.  Degree-2 faces whose corners sit on a single crossing (the
    face inside a Reidemeister-I kink) are not bonds: a twist chain needs two
    strands.  A dart of a bigon returns to itself after two steps of the face
    walk, so only the darts of ``scope`` are looked at: the cost is linear
    in ``len(scope)``, not in the size of the diagram.
    """
    mates, step = diagram.dart_mates, diagram.face_next
    bonds: dict[int, int] = {}
    for p in scope:
        i = 4 * p
        for dart in (i, i + 1, i + 2, i + 3):
            after = step[dart]
            # A bigon is met from both of its darts; take it from the smaller.
            if after > dart and step[after] == dart:
                d1, d2 = mates[dart], mates[after]
                p1, p2 = d1 >> 2, d2 >> 2
                if p1 != p2 and p1 in scope and p2 in scope:
                    bonds[d1] = d2
                    bonds[d2] = d1
    return bonds


def _grow_chains(bonds: dict[int, int], starts) -> list[list[int]]:
    """Grow one chain from each of ``starts`` (sorted positions) not already taken.

    A chain extends through the bond at the smallest bonded corner of its
    start, then keeps crossing the chain via opposite corners until it ends
    or closes up; the part grown from the opposite corner comes first.  A
    start with no bond is a chain of one crossing.  The walk stays within
    ``starts``, so ``starts`` must hold every crossing bonded to one of them.
    """
    unused = set(starts)
    chains: list[list[int]] = []

    def walk(chain: list[int], dart: int) -> None:
        while dart in bonds:
            other = bonds[dart]
            p = other >> 2
            if p not in unused:
                break  # chain closed into a cycle (or hit a finished chain)
            unused.remove(p)
            chain.append(p)
            dart = other ^ 2

    for start in starts:
        if start not in unused:
            continue
        unused.remove(start)
        chain = [start]
        corner = next((d for d in range(4 * start, 4 * start + 4) if d in bonds), None)
        if corner is not None:
            walk(chain, corner)
            backward: list[int] = []
            walk(backward, corner ^ 2)
            chain = backward[::-1] + chain
        chains.append(chain)
    return chains


def _detect(diagram: Diagram, scope):
    """The bonds among ``scope`` and the chains grown from them.

    Each chain is ``(smallest id, sign, positions)``; the sign is the
    common crossing sign, or 0 for a chain with mixed signs.
    """
    bonds = _bigon_bonds(diagram, scope)
    crossings, ids = diagram.crossings, diagram.crossing_ids
    return bonds, [_chain(crossings, ids, chain) for chain in _grow_chains(bonds, sorted(scope))]


def _chain(crossings, ids, chain: list[int]) -> tuple[int, int, list[int]]:
    signs = {crossings[p].sign for p in chain}
    return ids[min(chain)], signs.pop() if len(signs) == 1 else 0, chain


def _chain_regions(bonds, chains, ids, first_id: int) -> list[TwistRegion]:
    """Number the chains as regions from ``first_id``, by smallest id."""
    result = []
    region_of: dict[int, int] = {}  # position -> region id
    for region_id, (_, sign, chain) in enumerate(sorted(chains), start=first_id):
        result.append(TwistRegion(id=region_id, crossing_ids=tuple(map(ids.__getitem__, chain)),
                                  strand_count=2, half_twists=len(chain), sign=sign))
        for p in chain:
            region_of[p] = region_id

    # Maximality: a bigon joining two distinct regions would mean two chains
    # that should have merged; the greedy growth never leaves one behind.
    for d1, d2 in bonds.items():
        assert region_of[d1 >> 2] == region_of[d2 >> 2], (
            f"bigon joins two twist regions ({ids[d1 >> 2]} and {ids[d2 >> 2]}); "
            "detection is not maximal"
        )
    return result


def detect_bigon_chains(
    diagram: Diagram,
    *,
    within: frozenset[int] | None = None,
    first_id: int = 1,
) -> list[TwistRegion]:
    """Detect maximal 2-strand twist regions among ``within`` (default: all).

    Every crossing in scope ends up in exactly one returned region: bigon
    chains are grown greedily from the smallest unused crossing id, extending
    through opposite corners in both directions (a chain may close into a
    cycle, as in the standard trefoil code); crossings adjacent to no usable
    bigon become single-crossing regions.  Regions are returned ordered by
    their smallest crossing id and numbered from ``first_id``.
    """
    scope = (range(len(diagram.crossings)) if within is None
             else frozenset(map(diagram.index.__getitem__, within)))
    return _chain_regions(*_detect(diagram, scope), diagram.crossing_ids, first_id)


# ============================================================================
# Reduction
# ============================================================================


def _cancel_pairs(crossings, chain: list[int]) -> set[int]:
    """Positions removed by cancelling adjacent opposite-sign pairs.

    Stack cancellation over the chain order: every adjacent opposite-sign
    pair annihilates, leaving a uniform run of survivors.
    """
    stack: list[int] = []  # positions
    for p in chain:
        if stack and crossings[stack[-1]].sign == -crossings[p].sign:
            stack.pop()
        else:
            stack.append(p)
    return set(chain) - set(stack)


# ============================================================================
# Validation of annotated generalized regions
# ============================================================================


def boundary_arc_count(diagram: Diagram, crossing_ids: frozenset[int]) -> int:
    """Number of arcs with exactly one endpoint on the given crossings."""
    mates, index = diagram.dart_mates, diagram.index
    inside = {index[c] for c in crossing_ids if c in index}  # positions
    return sum(mates[d] >> 2 not in inside for i in inside for d in range(4 * i, 4 * i + 4))


def validate_generalized_region(
    diagram: Diagram, annotation: RegionAnnotation, *, region_id: int = 1
) -> TwistRegion:
    """Check an annotated m-strand region and return it as a TwistRegion.

    Checks: the crossing count equals half_twists * m(m-1)/2, all crossings
    carry one sign, exactly 2m strand-endpoints leave the crossing set, and
    the crossings of a 2-strand region form one bigon chain, which then
    gives the order of ``crossing_ids``.
    """
    m, c = annotation.strand_count, annotation.half_twists
    ids = annotation.crossing_ids
    if c < 1:
        raise RegionError(f"region {region_id}: half-twist count must be >= 1, got {c}")
    missing = sorted(i for i in ids if i not in diagram.index)
    if missing:
        raise RegionError(f"region {region_id}: unknown crossing ids {missing}")
    signs = {diagram.crossing(i).sign for i in ids}
    # TwistRegion checks the strand and crossing counts; those come first.
    region = TwistRegion(
        id=region_id,
        crossing_ids=tuple(sorted(ids)),
        strand_count=m,
        half_twists=c,
        sign=next(iter(signs)) if len(signs) == 1 else 0,
    )
    if region.sign == 0:
        raise NonAlternatingRegionError(
            f"region {region_id}: crossings have mixed signs {sorted(signs)}"
        )
    boundary = boundary_arc_count(diagram, ids)
    if boundary != 2 * m:
        raise RegionError(
            f"region {region_id}: {boundary} strand-endpoints leave the region, "
            f"expected 2m = {2 * m}"
        )
    if m == 2:
        positions = frozenset(map(diagram.index.__getitem__, ids))
        chains = _grow_chains(_bigon_bonds(diagram, positions), sorted(positions))
        if len(chains) != 1:
            raise RegionError(f"region {region_id}: crossings do not form one twist chain")
        order = tuple(map(diagram.crossing_ids.__getitem__, chains[0]))
        region = region._replace(crossing_ids=order)
    return region


# ============================================================================
# Selection
# ============================================================================


def build_selection(
    diagram: Diagram, annotations: tuple[RegionAnnotation, ...] | list[RegionAnnotation] = ()
) -> TwistSelection:
    """Partition all crossings: annotated regions first, then detected chains.

    Annotations keep their input order (region ids 1..k); the rest of the
    diagram is covered by :func:`detect_bigon_chains` restricted to the
    complement.  A detected chain with mixed signs is rejected — reduce it
    first (see :func:`resolve_selection`).
    """
    bonds, chains = _detect(diagram, _scope(diagram, annotations))
    return _assemble(diagram, annotations, diagram.crossing_ids, bonds, chains)


def _assemble(diagram: Diagram, annotations, ids, bonds, chains) -> TwistSelection:
    """The selection of ``annotations`` plus the chains detected around them.

    ``ids`` maps the positions in ``bonds`` and ``chains`` to crossing ids.
    """
    seen: set[int] = set()
    for idx, a in enumerate(annotations):
        overlap = sorted(seen & a.crossing_ids)
        if overlap:
            raise RegionError(f"region {idx + 1} overlaps an earlier one at crossings {overlap}")
        seen |= a.crossing_ids

    regions = [
        validate_generalized_region(diagram, a, region_id=idx + 1)
        for idx, a in enumerate(annotations)
    ]
    detected = _chain_regions(bonds, chains, ids, len(regions) + 1)
    for r in detected:
        if r.sign == 0:
            raise NonAlternatingRegionError(
                f"detected twist region with mixed signs at crossings "
                f"{sorted(r.crossing_ids)}; reduce it before building a selection"
            )
    regions.extend(detected)

    covered = [c for r in regions for c in r.crossing_ids]
    assert sorted(covered) == sorted(diagram.crossing_ids), "selection is not a partition"
    return TwistSelection(regions=tuple(regions), diagram=diagram)


def resolve_selection(
    diagram: Diagram, annotations: tuple[RegionAnnotation, ...] | list[RegionAnnotation] = ()
) -> tuple[Diagram, TwistSelection]:
    """Reduce mixed detected chains until a valid selection exists.

    Returns the (possibly reduced) diagram together with its selection.
    Annotated crossings are never touched by the reduction.

    The result equals that of the plain loop "detect the chains of the
    diagram, cancel the adjacent opposite-sign pairs of the mixed chain with
    the smallest crossing id (Reidemeister II), repeat, then
    :func:`build_selection`": survivors keep their ids, and arc labels are
    as if each chain were spliced out alone, in that order.  Chains are
    detected once; after each splice only the faces through relinked darts
    are walked again, and only the chains whose bigon bonds changed are
    grown again.  The final chains and bonds go to the selection as they
    are, not detected a second time.
    """
    scope = _scope(diagram, annotations)
    bonds, chains = _detect(diagram, scope)
    crossings, ids = diagram.crossings, diagram.crossing_ids
    chain_of = {p: chain for chain in chains for p in chain[2]}
    mixed = [chain for chain in chains if chain[1] == 0]  # sorted: a heap by smallest id
    reduced = bool(mixed)
    if reduced:  # only a reduction edits the mates and labels
        mates = list(diagram.dart_mates)
        arcs = [list(x.arcs) for x in crossings]  # by position; None once spliced out
    while mixed:
        chain = heapq.heappop(mixed)
        if chain_of.get(chain[2][0]) is not chain:
            continue  # stale: the chain was regrown or spliced since
        removed = _cancel_pairs(crossings, chain[2])

        # Arc labels: each removed crossing joins its opposite arcs, in order.
        order = sorted(removed)
        labels = _DisjointSets(a for p in order for a in arcs[p])
        for p in order:
            quad = arcs[p]
            labels.union(quad[0], quad[2])
            labels.union(quad[1], quad[3])

        relinked = _splice(mates, removed)
        for end, other in relinked.items():
            mates[end] = other
            quad = arcs[end >> 2]
            quad[end & 3] = labels.find(quad[end & 3])
        touched = set(chain[2])
        for p in removed:
            for dart in range(4 * p, 4 * p + 4):
                partner = bonds.pop(dart, None)
                if partner is not None:
                    bonds.pop(partner, None)
                    touched.add(partner >> 2)
            arcs[p] = None

        # Only a face through a relinked dart changed; a bond is a bigon,
        # so two corners tell whether the face closes back on its start.
        for dart in relinked:
            d1 = mates[dart]
            d2 = mates[_next_slot(d1)]
            p1, p2 = d1 >> 2, d2 >> 2
            if _next_slot(d2) == dart and p1 != p2 and p1 in scope and p2 in scope:
                bonds[d1] = d2
                bonds[d2] = d1
                touched.update((p1, p2))

        touched -= removed
        dirty = {q for t in touched for q in chain_of[t][2] if q not in removed}
        for p in removed:
            del chain_of[p]
        for positions in _grow_chains(bonds, sorted(dirty)):
            regrown = _chain(crossings, ids, positions)
            for p in positions:
                chain_of[p] = regrown
            if regrown[1] == 0:
                heapq.heappush(mixed, regrown)

    if reduced:
        kept = [p for p, quad in enumerate(arcs) if quad is not None]
        at = {p: k for k, p in enumerate(kept)}  # position -> position after
        diagram = Diagram._with_mates(
            tuple(_crossing(crossings[p].id, tuple(arcs[p]), crossings[p].sign) for p in kept),
            tuple(4 * at[d >> 2] + (d & 3) for p in kept for d in mates[4 * p:4 * p + 4]),
            diagram.name,
        )
        chains = [chain for p, chain in chain_of.items() if chain[2][0] == p]
    return diagram, _assemble(diagram, annotations, ids, bonds, chains)
