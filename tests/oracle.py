"""Independent brute-force oracles for face and twist-region counts.

Written before the main package and kept deliberately separate from it: these
functions take raw PD data (lists of 4-tuples of arc labels) and use a
directed-arc / clockwise-turn formulation of face traversal, instead of the
dart rotation used by the package.  Unit and acceptance tests compare the
package's answers against these.
"""

from __future__ import annotations

from collections import defaultdict


def _endpoints(pd):
    """Map arc label -> list of (crossing index, slot) where it appears."""
    ends = defaultdict(list)
    for ci, quad in enumerate(pd):
        for slot, arc in enumerate(quad):
            ends[arc].append((ci, slot))
    for arc, places in ends.items():
        if len(places) != 2:
            raise ValueError(f"arc {arc} appears {len(places)} times")
    return dict(ends)


def oracle_faces(pd):
    """Enumerate faces by brute force.

    A directed arc is (label, k): travel from endpoint k to endpoint 1-k.
    At the head (c, s), a face walk turns clockwise to slot (s - 1) % 4 and
    leaves along the arc found there.  Orbits of that step are the faces.
    Returns a list of faces, each a list of (crossing index, corner index)
    with corner index k meaning the wedge between slots k and k+1 mod 4.
    """
    if not pd:
        return [[], []]  # inside and outside of the crossing-free circle
    ends = _endpoints(pd)
    arc_at = {}
    for arc, places in ends.items():
        for idx, place in enumerate(places):
            arc_at[place] = (arc, idx)

    def step(darc):
        arc, k = darc
        head = ends[arc][1 - k]
        c, s = head
        s_next = (s - 1) % 4
        arc2, idx2 = arc_at[(c, s_next)]
        return (c, s_next), (arc2, idx2)

    faces = []
    seen = set()
    for arc in sorted(ends):
        for k in (0, 1):
            if (arc, k) in seen:
                continue
            corners = []
            darc = (arc, k)
            while darc not in seen:
                seen.add(darc)
                (c, s_next), darc = step(darc)
                # the walk pivots through the corner between s_next and s
                corners.append((c, s_next))
            faces.append(corners)
    return faces


def oracle_face_degrees(pd):
    return sorted(len(f) for f in oracle_faces(pd))


def oracle_euler(pd):
    """Return (V, E, F) as counted brute force."""
    v = len(pd)
    e = len(_endpoints(pd)) if pd else 0
    f = len(oracle_faces(pd))
    return v, e, f


def oracle_bigon_pairs(pd):
    """Crossing pairs joined by a bigon face (two distinct crossings only)."""
    pairs = []
    for face in oracle_faces(pd):
        if len(face) == 2:
            (c1, _), (c2, _) = face
            if c1 != c2:
                pairs.append(frozenset((c1, c2)))
    return pairs


def oracle_twist_regions(pd):
    """(tw, sorted half-twist counts) by brute-force closure of bigon bonds.

    Regions are the connected components of the graph on crossings whose
    edges are bigon faces; an isolated crossing is its own region.
    """
    n = len(pd)
    adjacency = defaultdict(set)
    for pair in oracle_bigon_pairs(pd):
        a, b = sorted(pair)
        adjacency[a].add(b)
        adjacency[b].add(a)
    regions = []
    unseen = set(range(n))
    while unseen:
        seed = min(unseen)
        block = {seed}
        frontier = [seed]
        while frontier:
            x = frontier.pop()
            for y in adjacency[x]:
                if y not in block:
                    block.add(y)
                    frontier.append(y)
        unseen -= block
        regions.append(block)
    return len(regions), sorted(len(r) for r in regions)


def oracle_link_components(pd):
    """Number of link components by following strands through crossings."""
    if not pd:
        return 1
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for quad in pd:
        union(quad[0], quad[2])
        union(quad[1], quad[3])
    labels = {arc for quad in pd for arc in quad}
    return len({find(a) for a in labels})


def oracle_component_crossings(pd):
    """Per link component: (self-crossings, passes over others, passes under).

    Components are found as in :func:`oracle_link_components`, by joining
    slots 0-2 (under-strand) and 1-3 (over-strand) of every crossing.
    """
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    for quad in pd:
        for a, b in ((quad[0], quad[2]), (quad[1], quad[3])):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
    counts = defaultdict(lambda: [0, 0, 0])
    for quad in pd:
        under, over = find(quad[0]), find(quad[1])
        if under == over:
            counts[under][0] += 1
        else:
            counts[over][1] += 1
            counts[under][2] += 1
    labels = {arc for quad in pd for arc in quad}
    return [tuple(counts[r]) for r in sorted({find(a) for a in labels})]
