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
from dataclasses import dataclass, replace

from .diagram import Dart, Diagram, _DisjointSets, _check_euler
from .errors import NonAlternatingRegionError, RegionError


@dataclass(frozen=True)
class RegionAnnotation:
    """A user-declared generalized twist region, not yet validated."""

    crossing_ids: frozenset[int]
    strand_count: int
    half_twists: int


@dataclass(frozen=True)
class TwistRegion:
    """A validated twist region.

    ``crossing_ids`` is ordered: detected 2-strand chains list their
    crossings in chain order (ends first/last), validated annotations sort
    by id.  ``sign`` is the common crossing sign, or 0 for a detected chain
    with mixed signs (which must be reduced before selection) and for a
    region whose crossings all cancelled away.
    """

    id: int
    crossing_ids: tuple[int, ...]
    strand_count: int
    half_twists: int
    sign: int

    def __post_init__(self):
        m, c = self.strand_count, self.half_twists
        if m < 2:
            raise RegionError(f"region {self.id}: strand count must be >= 2, got {m}")
        expected = c * m * (m - 1) // 2
        if len(self.crossing_ids) != expected:
            raise RegionError(
                f"region {self.id}: {len(self.crossing_ids)} crossings cannot make {c} "
                f"half-twists of {m} strands (needs {expected} = c*m(m-1)/2)"
            )

    @property
    def crossing_count(self) -> int:
        return len(self.crossing_ids)


@dataclass(frozen=True)
class TwistSelection:
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


def _bigon_bonds(diagram: Diagram, scope: frozenset[int]):
    """Bonds between crossings joined by a bigon face, as a corner map.

    Returns ``bonds[(crossing, corner)] = (other crossing, other corner)``.
    Degree-2 faces whose corners sit on a single crossing (the face inside a
    Reidemeister-I kink) are not bonds: a twist chain needs two strands.
    A dart of a bigon returns to itself after two steps of the face walk,
    so only the darts of ``scope`` are looked at: the cost is linear in
    ``len(scope)``, not in the size of the diagram.
    """
    mates, step = diagram.dart_mates, diagram.face_next
    index, crossings = diagram.index, diagram.crossings
    bonds: dict[tuple[int, int], tuple[int, int]] = {}
    for c in scope:
        i = 4 * index[c]
        for dart in (i, i + 1, i + 2, i + 3):
            after = step[dart]
            # A bigon is met from both of its darts; take it from the smaller.
            if after > dart and step[after] == dart:
                d1, d2 = mates[dart], mates[after]
                c1, c2 = crossings[d1 >> 2].id, crossings[d2 >> 2].id
                if c1 != c2 and c1 in scope and c2 in scope:
                    bonds[(c1, d1 & 3)] = (c2, d2 & 3)
                    bonds[(c2, d2 & 3)] = (c1, d1 & 3)
    return bonds


def _grow_chains(bonds, starts) -> list[list[int]]:
    """Grow one chain from each of ``starts`` (sorted ids) not already taken.

    A chain extends through the bond at the smallest bonded corner of its
    start, then keeps crossing the chain via opposite corners until it ends
    or closes up; the part grown from the opposite corner comes first.  A
    start with no bond is a chain of one crossing.  The walk stays within
    ``starts``, so ``starts`` must hold every crossing bonded to one of them.
    """
    unused = set(starts)
    chains: list[list[int]] = []

    def walk(chain: list[int], c: int, k: int) -> None:
        while (c, k) in bonds:
            c2, k2 = bonds[(c, k)]
            if c2 not in unused:
                break  # chain closed into a cycle (or hit a finished chain)
            unused.remove(c2)
            chain.append(c2)
            c, k = c2, (k2 + 2) % 4

    for start in starts:
        if start not in unused:
            continue
        unused.remove(start)
        chain = [start]
        corners = [k for k in range(4) if (start, k) in bonds]
        if corners:
            walk(chain, start, corners[0])
            backward: list[int] = []
            walk(backward, start, (corners[0] + 2) % 4)
            chain = backward[::-1] + chain
        chains.append(chain)
    return chains


def _detect(diagram: Diagram, scope: frozenset[int]):
    """The bonds among ``scope`` and the chains grown from them.

    Each chain is ``(smallest id, sign, crossing ids)``; the sign is the
    common crossing sign, or 0 for a chain with mixed signs.
    """
    bonds = _bigon_bonds(diagram, scope)
    return bonds, [_chain(diagram, ids) for ids in _grow_chains(bonds, sorted(scope))]


def _chain(diagram: Diagram, ids: list[int]) -> tuple[int, int, list[int]]:
    signs = {diagram.crossing(c).sign for c in ids}
    return min(ids), signs.pop() if len(signs) == 1 else 0, ids


def _chain_regions(bonds, chains, first_id: int) -> list[TwistRegion]:
    """Number the chains as regions from ``first_id``, by smallest id."""
    result = []
    region_of: dict[int, int] = {}
    for region_id, (_, sign, ids) in enumerate(sorted(chains), start=first_id):
        result.append(TwistRegion(id=region_id, crossing_ids=tuple(ids), strand_count=2,
                                  half_twists=len(ids), sign=sign))
        for c in ids:
            region_of[c] = region_id

    # Maximality: a bigon joining two distinct regions would mean two chains
    # that should have merged; the greedy growth never leaves one behind.
    for (c1, _), (c2, _) in bonds.items():
        assert region_of[c1] == region_of[c2], (
            f"bigon joins two twist regions ({c1} and {c2}); detection is not maximal"
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
    scope = frozenset(diagram.crossing_ids) if within is None else frozenset(within)
    return _chain_regions(*_detect(diagram, scope), first_id)


# ============================================================================
# Reduction
# ============================================================================


def _cancel_pairs(diagram: Diagram, chain) -> set[int]:
    """Crossings removed by cancelling adjacent opposite-sign pairs.

    Stack cancellation over the chain order: every adjacent opposite-sign
    pair annihilates, leaving a uniform run of survivors.
    """
    stack: list[int] = []  # crossing ids
    for cid in chain:
        if stack and diagram.crossing(stack[-1]).sign == -diagram.crossing(cid).sign:
            stack.pop()
        else:
            stack.append(cid)
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
    the crossings of a 2-strand region form one bigon chain.
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
    if m == 2 and len(_grow_chains(_bigon_bonds(diagram, ids), sorted(ids))) != 1:
        raise RegionError(f"region {region_id}: crossings do not form one twist chain")
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
    annotated = frozenset(c for a in annotations for c in a.crossing_ids)
    scope = frozenset(diagram.crossing_ids) - annotated
    return _assemble(diagram, annotations, *_detect(diagram, scope))


def _assemble(diagram: Diagram, annotations, bonds, chains) -> TwistSelection:
    """The selection of ``annotations`` plus the chains detected around them."""
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
    detected = _chain_regions(bonds, chains, len(regions) + 1)
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
    annotated = frozenset(c for a in annotations for c in a.crossing_ids)
    scope = frozenset(diagram.crossing_ids) - annotated
    bonds, chains = _detect(diagram, scope)
    chain_of = {c: chain for chain in chains for c in chain[2]}
    mixed = [chain for chain in chains if chain[1] == 0]  # sorted: a heap by smallest id
    reduced = bool(mixed)
    if reduced:  # only a reduction edits the mates and labels
        mates = dict(diagram.mates)
        arcs = {x.id: list(x.arcs) for x in diagram.crossings}
    while mixed:
        chain = heapq.heappop(mixed)
        if chain_of.get(chain[0]) is not chain:
            continue  # stale: the chain was regrown or spliced since
        removed = _cancel_pairs(diagram, chain[2])

        # Arc labels: each removed crossing joins its opposite arcs, in order.
        order = sorted(removed, key=diagram.index.__getitem__)
        labels = _DisjointSets(a for c in order for a in arcs[c])
        for c in order:
            quad = arcs[c]
            labels.union(quad[0], quad[2])
            labels.union(quad[1], quad[3])

        # Each surviving end of a removed dart's arc follows its strand
        # straight through the removed crossings to its new mate.
        relinked: dict[Dart, Dart] = {}
        for c in order:
            for s in range(4):
                end = mates[(c, s)]
                if end[0] in removed:
                    continue
                other = mates[end]
                while other[0] in removed:
                    other = mates[(other[0], (other[1] + 2) % 4)]
                relinked[end] = other
                arcs[end[0]][end[1]] = labels.find(arcs[end[0]][end[1]])
        touched = set(chain[2])
        for c in removed:
            for k in range(4):
                del mates[(c, k)]
                partner = bonds.pop((c, k), None)
                if partner is not None:
                    bonds.pop(partner, None)
                    touched.add(partner[0])
            del arcs[c]
        mates.update(relinked)

        # Only a face through a relinked dart changed; a bond is a bigon,
        # so two corners tell whether the face closes back on its start.
        for dart in relinked:
            c1, k1 = mates[dart]
            c2, k2 = mates[(c1, (k1 + 1) % 4)]
            if (c2, (k2 + 1) % 4) == dart and c1 != c2 and c1 in scope and c2 in scope:
                bonds[(c1, k1)] = (c2, k2)
                bonds[(c2, k2)] = (c1, k1)
                touched.update((c1, c2))

        touched -= removed
        dirty = {c for t in touched for c in chain_of[t][2] if c not in removed}
        for c in removed:
            del chain_of[c]
        for ids in _grow_chains(bonds, sorted(dirty)):
            regrown = _chain(diagram, ids)
            for c in ids:
                chain_of[c] = regrown
            if regrown[1] == 0:
                heapq.heappush(mixed, regrown)

    if reduced:
        diagram = Diagram(
            crossings=tuple(
                replace(x, arcs=tuple(arcs[x.id])) for x in diagram.crossings if x.id in arcs
            ),
            name=diagram.name,
        )
        _check_euler(diagram)
        chains = [chain for c, chain in chain_of.items() if chain[0] == c]
    return diagram, _assemble(diagram, annotations, bonds, chains)
