"""Twist regions: detect bigon chains, validate annotated regions, reduce.

A 2-strand twist region is a maximal chain of bigon faces arranged end to
end; a lone crossing adjacent to no bigon is a twist region of one crossing.
Generalized regions (m >= 3 strands twisting together) cannot be recovered
reliably from a PD code, so they arrive as annotations and are validated
here: a half-twist of m strands contains m(m-1)/2 crossings, exactly 2m
strand-endpoints must leave the region, and for m >= 3 they must make one
boundary cycle whose sides pair the strands as a twist box does.  The
export rings the top side that check finds.

A selection partitions every crossing of the diagram into regions.  Regions
must be alternating (uniform crossing sign); a detected chain with mixed
signs gets ``sign == 0``.  :func:`resolve_selection` cancels the adjacent
opposite-sign pairs of every such chain (Reidemeister II) until it is
uniform, in a fixed order: the mixed chain with the smallest crossing id
first, then the smallest of what is left, and so on.  Surviving crossings
keep their ids.
"""

import heapq
from typing import NamedTuple

from .diagram import _ENTERS, Diagram, RegionAnnotation, _next_slot, _renumber, _splice
from .errors import NonAlternatingRegionError, RegionError


class TwistRegion(NamedTuple):
    """A validated twist region.

    ``crossing_ids`` is ordered: every 2-strand region, detected or
    annotated, lists its crossings in chain order (ends first/last); an
    annotated region of m >= 3 strands sorts them by id.  ``sign`` is the
    common crossing sign, or 0 for a detected chain with mixed signs (which
    must be reduced before selection).
    """

    id: int
    crossing_ids: tuple[int, ...]
    strand_count: int
    half_twists: int
    sign: int

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
# opposite corner of a crossing is dart ^ 2.  Chains hold positions in the
# diagram's flat fields and become crossing ids only where a TwistRegion is
# built.  Ids ascend with position in every diagram that ``from_pd`` or a
# reduction builds, so sorted positions are also sorted ids, and a chain's
# smallest position holds its smallest id.


def _scope(diagram: Diagram, annotations) -> range | frozenset[int]:
    """Positions of the crossings that no annotation claims."""
    if not annotations:
        return range(diagram.crossing_count)
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
    signs, ids = diagram.signs, diagram.crossing_ids
    return bonds, [_chain(signs, ids, chain) for chain in _grow_chains(bonds, sorted(scope))]


def _chain(signs, ids, chain: list[int]) -> tuple[int, int, list[int]]:
    common = {signs[p] for p in chain}
    return ids[min(chain)], common.pop() if len(common) == 1 else 0, chain


def _chain_regions(bonds, chains, ids, start: int = 1) -> list[TwistRegion]:
    """Number the chains as regions from ``start``, by smallest id."""
    result = []
    region_of: dict[int, int] = {}  # position -> region id
    for region_id, (_, sign, chain) in enumerate(sorted(chains), start=start):
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
    diagram: Diagram, *, within: frozenset[int] | None = None
) -> list[TwistRegion]:
    """Detect maximal 2-strand twist regions among ``within`` (default: all).

    Every crossing in scope ends up in exactly one returned region: bigon
    chains are grown greedily from the smallest unused crossing id, extending
    through opposite corners in both directions (a chain may close into a
    cycle, as in the standard trefoil code); crossings adjacent to no usable
    bigon become single-crossing regions.  Regions are returned ordered by
    their smallest crossing id and numbered from 1.
    """
    scope = (range(diagram.crossing_count) if within is None
             else frozenset(map(diagram.index.__getitem__, within)))
    return _chain_regions(*_detect(diagram, scope), diagram.crossing_ids)


# ============================================================================
# Reduction
# ============================================================================


def _cancel_pairs(signs, chain: list[int]) -> set[int]:
    """Positions removed by cancelling adjacent opposite-sign pairs.

    Stack cancellation over the chain order: every adjacent opposite-sign
    pair annihilates, leaving a uniform run of survivors.
    """
    stack: list[int] = []  # positions
    for p in chain:
        if stack and signs[stack[-1]] == -signs[p]:
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


def _box_sides(diagram: Diagram, region: TwistRegion) -> list[int]:
    """The top of the two m-dart sides of an m >= 3 region's boundary.

    The darts whose arcs leave the region, walked around it in planar order
    from the smallest, must make one cycle of 2m.  Every two strands of a
    one-sign box of m >= 3 strands cross, and an antiparallel pair would
    cross with the other sign, so all its strands run one way: the top is
    the first m consecutive darts of the cycle whose strands all enter, or
    all leave, and the far side is the other m.  The far side lists the
    strands in reverse, and an odd twist count reverses them again, so the
    strand at top[i] must cross to far[m-1-i] (even c) or far[i] (odd c).
    Validation checks both sides; the export rings the top alone.  Raises
    :class:`RegionError` naming the check that fails.
    """
    m, mates = region.strand_count, diagram.dart_mates
    inside = frozenset(map(diagram.index.__getitem__, region.crossing_ids))  # positions
    start = min(d for p in inside for d in range(4 * p, 4 * p + 4) if mates[d] >> 2 not in inside)
    cycle = [start]
    while True:
        dart = _next_slot(cycle[-1])
        while mates[dart] >> 2 in inside:
            dart = _next_slot(mates[dart])
        if dart == start:
            break
        cycle.append(dart)
    if len(cycle) != 2 * m:
        raise RegionError(f"region {region.id}: boundary is not a single cycle")
    enters, ring = _ENTERS[region.sign], cycle * 2
    r = next((r for r in range(2 * m) if len({enters[d & 3] for d in ring[r:r + m]}) == 1), None)
    if r is not None:
        top, far = ring[r:r + m], ring[r + m:r + 2 * m]
        through = _splice(mates, inside)[0]  # outside dart -> outside dart across the box
        ends = far if region.half_twists % 2 else far[::-1]
        if all(mates[through[mates[d]]] == end for d, end in zip(top, ends)):
            return top
    raise RegionError(
        f"region {region.id}: strands do not pair across the boundary like a twist box"
    )


def validate_generalized_region(
    diagram: Diagram, annotation: RegionAnnotation, *, region_id: int = 1
) -> TwistRegion:
    """Check an annotated m-strand region and return it as a TwistRegion.

    Checks: the crossing count equals half_twists * m(m-1)/2, all crossings
    carry one sign, and exactly 2m strand-endpoints leave the crossing set.
    The crossings of a 2-strand region must form one bigon chain, which
    then gives the order of ``crossing_ids``; the boundary of a region of
    m >= 3 strands must be one cycle whose sides pair its strands like a
    twist box (see :func:`_box_sides`).  Which braid the box holds is not
    checked.
    """
    m, c = annotation.strand_count, annotation.half_twists
    ids = annotation.crossing_ids
    if c < 1:
        raise RegionError(f"region {region_id}: half-twist count must be >= 1, got {c}")
    missing = sorted(i for i in ids if i not in diagram.index)
    if missing:
        raise RegionError(f"region {region_id}: unknown crossing ids {missing}")
    if m < 2:
        raise RegionError(f"region {region_id}: strand count must be >= 2, got {m}")
    expected = c * m * (m - 1) // 2
    if len(ids) != expected:
        raise RegionError(
            f"region {region_id}: {len(ids)} crossings cannot make {c} "
            f"half-twists of {m} strands (needs {expected} = c*m(m-1)/2)"
        )
    signs = {diagram.signs[diagram.index[i]] for i in ids}
    if len(signs) != 1:
        raise NonAlternatingRegionError(
            f"region {region_id}: crossings have mixed signs {sorted(signs)}"
        )
    boundary = boundary_arc_count(diagram, ids)
    if boundary != 2 * m:
        raise RegionError(
            f"region {region_id}: {boundary} strand-endpoints leave the region, "
            f"expected 2m = {2 * m}"
        )
    order = tuple(sorted(ids))
    if m == 2:
        positions = frozenset(map(diagram.index.__getitem__, ids))
        chains = _grow_chains(_bigon_bonds(diagram, positions), sorted(positions))
        if len(chains) != 1:
            raise RegionError(f"region {region_id}: crossings do not form one twist chain")
        order = tuple(map(diagram.crossing_ids.__getitem__, chains[0]))
    region = TwistRegion(region_id, order, m, c, signs.pop())
    if m >= 3:
        _box_sides(diagram, region)
    return region


# ============================================================================
# Selection
# ============================================================================


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
    regions.extend(_chain_regions(bonds, chains, ids, len(regions) + 1))

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
    the smallest crossing id (Reidemeister II), repeat, then add the
    annotated regions": survivors keep their ids.  A reduced diagram is
    renumbered by :func:`~auglink.diagram._renumber`, and labels its arcs in
    the order of their first dart when they are first read.  Chains are
    detected once; after each splice only the faces through relinked darts
    are walked again, and only the chains whose bigon bonds changed are
    grown again.  The final chains and bonds go to the selection as they
    are, not detected a second time.
    """
    scope = _scope(diagram, annotations)
    bonds, chains = _detect(diagram, scope)
    signs, ids = diagram.signs, diagram.crossing_ids
    chain_of = {p: chain for chain in chains for p in chain[2]}
    mixed = [chain for chain in chains if chain[1] == 0]  # sorted: a heap by smallest id
    reduced = bool(mixed)
    if reduced:  # only a reduction edits the mates
        mates = list(diagram.dart_mates)
        spliced: set[int] = set()  # positions
    while mixed:
        chain = heapq.heappop(mixed)
        if chain_of.get(chain[2][0]) is not chain:
            continue  # stale: the chain was regrown or spliced since
        removed = _cancel_pairs(signs, chain[2])
        spliced |= removed
        relinked = _splice(mates, removed)[0]
        for end, other in relinked.items():
            mates[end] = other
        touched = set(chain[2])
        for p in removed:
            for dart in range(4 * p, 4 * p + 4):
                partner = bonds.pop(dart, None)
                if partner is not None:
                    bonds.pop(partner, None)
                    touched.add(partner >> 2)

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
            regrown = _chain(signs, ids, positions)
            for p in positions:
                chain_of[p] = regrown
            if regrown[1] == 0:
                heapq.heappush(mixed, regrown)

    if reduced:
        kept = [p for p in range(len(ids)) if p not in spliced]
        diagram = Diagram(tuple(ids[p] for p in kept), tuple(signs[p] for p in kept),
                          _renumber([d for p in kept for d in range(4 * p, 4 * p + 4)], mates)[0],
                          diagram.name)
        chains = [chain for p, chain in chain_of.items() if chain[2][0] == p]
    return diagram, _assemble(diagram, annotations, ids, bonds, chains)
