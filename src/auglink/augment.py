"""Augmented links: one crossing circle per twist region, full twists removed.

Structurally, augmenting replaces each twist region by a record: an
unknotted circle around the region's strands, the residual half-twist flag
``epsilon = c mod 2``, and the Dehn-filling integer ``n`` that restores the
original twisting (``c = 2n - epsilon``).  Downstream bounds consume only
these numbers, so :func:`augment` returns them without building a new
diagram.

:func:`export_augmented_diagram` additionally renders the augmented link as
a PD code for interchange.  Each crossing circle passes over all m strands
of its region on one side and under them on the other.  For a 2-strand
region it rings the two arcs that leave the chain's first crossing x0 away
from x1, and x(epsilon) ... x(c-1) are spliced out, so a residual half-twist
is x0 itself, with its handedness and strand orientations.  A region of
m >= 3 strands is redrawn as a box holding the circle's passes and, when
epsilon = 1, a synthesized half-twist staircase.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .diagram import Diagram
from .errors import AugmentError, ExportError
from .twist import TwistRegion, TwistSelection, _bigon_bonds, _grow_chains

Dart = tuple[int, int]


# ============================================================================
# Structural augmentation
# ============================================================================


def filling_slope(c: int) -> tuple[int, int]:
    """Twist count -> (n, epsilon): the filling integer and half-twist flag.

    Surgery along the slope built from n restores n full twists, and the
    leftover half-twist flag satisfies c = 2n - epsilon: an even count is n
    full twists exactly, an odd count is n full twists minus a half.
    """
    if c < 0:
        raise AugmentError(f"half-twist count must be >= 0, got {c}")
    if c % 2 == 0:
        return c // 2, 0
    return (c + 1) // 2, 1


@dataclass(frozen=True)
class CrossingCircle:
    """The circle inserted around one twist region."""

    id: int
    epsilon: int
    strand_count: int
    filling_n: int

    @property
    def half_twists(self) -> int:
        """Original twist count, reconstructed as 2n - epsilon."""
        return 2 * self.filling_n - self.epsilon


@dataclass(frozen=True)
class AugmentedLink:
    circles: tuple[CrossingCircle, ...]
    source: TwistSelection

    @property
    def circle_count(self) -> int:
        return len(self.circles)

    @property
    def half_twist_counts(self) -> tuple[int, ...]:
        return tuple(c.half_twists for c in self.circles)


def _check_selection(diagram: Diagram, selection: TwistSelection) -> None:
    if selection.diagram != diagram:
        raise AugmentError("selection was built for a different diagram")
    covered = sorted(c for r in selection.regions for c in r.crossing_ids)
    if covered != sorted(diagram.crossing_ids):
        raise AugmentError("selection does not partition the diagram's crossings")
    if not selection.regions:
        raise AugmentError("diagram has no twist regions (nothing to augment)")
    if not diagram.is_connected:
        raise AugmentError("diagram is split (disconnected); augmentation undefined")
    for r in selection.regions:
        if r.half_twists < 1:
            raise AugmentError(f"region {r.id} has no crossings")
        if r.sign == 0:
            raise AugmentError(f"region {r.id} has mixed signs; reduce it first")


def augment(diagram: Diagram, selection: TwistSelection) -> AugmentedLink:
    """Insert one crossing circle per region and remove the full twists."""
    _check_selection(diagram, selection)
    circles = []
    for r in selection.regions:
        n, eps = filling_slope(r.half_twists)
        circles.append(
            CrossingCircle(id=r.id, epsilon=eps, strand_count=r.strand_count, filling_n=n)
        )
    return AugmentedLink(circles=tuple(circles), source=selection)


# ============================================================================
# PD-code export: port graph
# ============================================================================
#
# New crossings are synthesized as "stubs": four named ports in
# counterclockwise rotation order, each tagged with a strand role (under-in,
# under-out, over-in, over-out).  A directed port graph wires out-ports to
# in-ports; at the end every edge becomes an arc label and every stub a PD
# quadruple (rotated so the under-in port is slot 0, which also fixes the
# sign).

_OUT_ROLES = frozenset({"uout", "oout"})


class _Stub:
    __slots__ = ("key", "rotation", "roles")

    def __init__(self, key, rotation: tuple[str, ...], roles: dict[str, str]):
        self.key = key
        self.rotation = rotation
        self.roles = roles

    def port(self, name: str):
        return (self.key, name)

    def find(self, role: str):
        for name, r in self.roles.items():
            if r == role:
                return (self.key, name)
        raise KeyError(role)


def _original_stub(key, sign: int) -> _Stub:
    roles = {"s0": "uin", "s2": "uout"}
    roles["s3"], roles["s1"] = ("oin", "oout") if sign > 0 else ("oout", "oin")
    return _Stub(key, ("s0", "s1", "s2", "s3"), roles)


def _circle_over_stub(key, lane_forward: bool) -> _Stub:
    # Circle runs north->south and passes over a west-east strand.
    roles = {"N": "oin", "S": "oout"}
    roles["W"], roles["E"] = ("uin", "uout") if lane_forward else ("uout", "uin")
    return _Stub(key, ("E", "N", "W", "S"), roles)


def _circle_under_stub(key, lane_forward: bool) -> _Stub:
    # Circle runs south->north and passes under a west-east strand.
    roles = {"S": "uin", "N": "uout"}
    roles["W"], roles["E"] = ("oin", "oout") if lane_forward else ("oout", "oin")
    return _Stub(key, ("E", "N", "W", "S"), roles)


def _letter_stub(key, handedness: int, lanes_forward: bool) -> _Stub:
    # One staircase crossing between two adjacent lanes: strand A runs
    # NW-SE, strand B runs SW-NE; positive handedness puts A on top.
    if lanes_forward:
        a_in, a_out, b_in, b_out = "NW", "SE", "SW", "NE"
    else:
        a_in, a_out, b_in, b_out = "SE", "NW", "NE", "SW"
    roles = {}
    if handedness > 0:
        roles[a_in], roles[a_out] = "oin", "oout"
        roles[b_in], roles[b_out] = "uin", "uout"
    else:
        roles[a_in], roles[a_out] = "uin", "uout"
        roles[b_in], roles[b_out] = "oin", "oout"
    return _Stub(key, ("NE", "NW", "SW", "SE"), roles)


class _PortGraph:
    """Directed wiring between stub ports (strand-out port -> strand-in port)."""

    def __init__(self):
        self.stubs: dict = {}  # key -> _Stub, insertion-ordered
        self.succ: dict = {}
        self.pred: dict = {}

    def add(self, stub: _Stub) -> _Stub:
        self.stubs[stub.key] = stub
        return stub

    def role(self, port) -> str:
        key, name = port
        return self.stubs[key].roles[name]

    def connect(self, a, b) -> None:
        """Wire two ports; exactly one must be an out-port."""
        a_out = self.role(a) in _OUT_ROLES
        b_out = self.role(b) in _OUT_ROLES
        if a_out == b_out:
            raise ExportError(f"cannot wire ports {a} and {b}: roles conflict")
        src, dst = (a, b) if a_out else (b, a)
        if src in self.succ or dst in self.pred:
            raise ExportError(f"port already wired: {src} -> {dst}")
        self.succ[src] = dst
        self.pred[dst] = src

    def disconnect(self, port) -> None:
        if self.role(port) in _OUT_ROLES:
            dst = self.succ.pop(port, None)
            if dst is not None:
                del self.pred[dst]
        else:
            src = self.pred.pop(port, None)
            if src is not None:
                del self.succ[src]

    def remove_stub(self, key) -> None:
        """Splice a crossing out, strand-through.

        Raises :class:`ExportError` when a strand would close up into a
        crossing-free circle, which a PD code cannot carry.
        """
        stub = self.stubs[key]
        uin, uout = stub.find("uin"), stub.find("uout")
        oin, oout = stub.find("oin"), stub.find("oout")
        pairs = {"u": [self.pred[uin], self.succ[uout]], "o": [self.pred[oin], self.succ[oout]]}
        self.delete_stub_edges(key)

        alive = {"u", "o"}
        entry = {uin: "u", oin: "o"}
        for k in ("u", "o"):
            while k in alive and pairs[k][1] in entry:
                t = entry[pairs[k][1]]
                if t == k:
                    raise ExportError(f"strand closed up while splicing out crossing {key[1]}")
                pairs[k][1] = pairs[t][1]
                alive.discard(t)
        for k in alive:
            self.connect(pairs[k][0], pairs[k][1])

    def delete_stub_edges(self, key) -> None:
        stub = self.stubs[key]
        for name in stub.rotation:
            self.disconnect(stub.port(name))
        del self.stubs[key]

    def to_diagram(self, name: str | None) -> Diagram:
        dangling = [p for key, s in self.stubs.items() for p in map(s.port, s.rotation)
                    if (p not in self.succ) and (p not in self.pred)]
        if dangling:
            raise ExportError(f"unwired ports remain: {dangling[:4]}")
        label: dict = {}  # out-port -> arc label
        counter = 0
        quads, signs = [], []
        for stub in self.stubs.values():
            start = stub.rotation.index(stub.find("uin")[1])
            ordered = stub.rotation[start:] + stub.rotation[:start]
            arcs = []
            for pname in ordered:
                port = stub.port(pname)
                out_port = port if stub.roles[pname] in _OUT_ROLES else self.pred[port]
                if out_port not in label:
                    counter += 1
                    label[out_port] = counter
                arcs.append(label[out_port])
            quads.append(arcs)
            signs.append(1 if stub.roles[ordered[3]] == "oin" else -1)
        return Diagram.from_pd(quads, signs, name)


# ============================================================================
# PD-code export: region rewriting
# ============================================================================


def _region_boundary(mates: Mapping[Dart, Dart], region: frozenset[int],
                     start: Dart) -> list[Dart]:
    """Walk the region's outer boundary, returning boundary darts in planar order."""
    cycle = [start]
    dart = start
    while True:
        c, s = dart
        e = (c, (s + 1) % 4)
        while mates[e][0] in region:
            c2, s2 = mates[e]
            e = (c2, (s2 + 1) % 4)
        if e == cycle[0]:
            return cycle
        if e in cycle or len(cycle) > 4 * len(region):
            raise ExportError("region boundary walk did not close into a single cycle")
        cycle.append(e)
        dart = e


def _strand_through(dart: Dart, mates: Mapping[Dart, Dart], region: frozenset[int]) -> Dart:
    """Follow the strand from one boundary dart through the region to the other side."""
    c, s = dart
    e = (c, (s + 2) % 4)
    while mates[e][0] in region:
        c2, s2 = mates[e]
        e = (c2, (s2 + 2) % 4)
    return e


def _split_boundary(cycle: list[Dart], pairing: dict[Dart, Dart], m: int, eps: int,
                    flows_in: Mapping[Dart, bool]) -> tuple[list[Dart], list[Dart]]:
    """Split the boundary cycle into the two m-port sides of the twist box.

    In a counterclockwise boundary walk the far side appears in reversed
    strand order, and an odd twist count additionally reverses the strand
    permutation, so entry i pairs with exit m-1-i (even c) or exit i (odd c).

    For odd c the pairing in cycle positions is i <-> i+m, which every
    rotation of the cycle satisfies, so the pairing alone cannot find the
    box corners; among pairing-valid rotations, one whose side carries a
    single flow direction (a parallel bundle entering together) is the
    geometric one and is preferred.
    """
    n = 2 * m
    candidates = []
    for r in range(n):
        t = [cycle[(r + i) % n] for i in range(m)]
        u = [cycle[(r + m + i) % n] for i in range(m)]
        want = (lambda i: u[i]) if eps else (lambda i: u[m - 1 - i])
        if all(pairing[t[i]] == want(i) for i in range(m)):
            candidates.append((t, u))
    for t, u in candidates:
        if len({flows_in[d] for d in t}) == 1:
            return t, u
    if candidates:
        return candidates[0]
    raise ExportError("region strands do not pair across the boundary like a twist box")


def _attachment(graph: _PortGraph, diagram: Diagram, dart: Dart):
    """Outside port currently wired to this boundary dart, plus lane direction."""
    c, s = dart
    port = (("x", c), f"s{s}")
    forward = diagram.crossing(c).is_in_slot(s)  # strand flows into the region here
    outside = graph.pred[port] if forward else graph.succ[port]
    return outside, forward


def _export_box_region(graph: _PortGraph, diagram: Diagram, region: TwistRegion,
                       mates: Mapping[Dart, Dart], eps: int) -> None:
    """Region of m >= 3 strands: a box with 2m boundary strand-endpoints."""
    m = region.strand_count
    ids = frozenset(region.crossing_ids)
    boundary = sorted(
        (c, s) for c in ids for s in range(4) if mates[(c, s)][0] not in ids
    )
    if len(boundary) != 2 * m:
        raise ExportError(
            f"region {region.id}: {len(boundary)} boundary strand-endpoints, expected {2 * m}"
        )
    cycle = _region_boundary(mates, ids, boundary[0])
    if sorted(cycle) != boundary:
        raise ExportError(f"region {region.id}: boundary is not a single cycle")
    pairing = {d: _strand_through(d, mates, ids) for d in cycle}
    flows_in = {(c, s): diagram.crossing(c).is_in_slot(s) for c, s in cycle}
    t_side, u_side = _split_boundary(cycle, pairing, m, eps, flows_in)

    # Capture the outside attachment of every lane, then delete the region.
    west = [_attachment(graph, diagram, d) for d in t_side]
    east = [_attachment(graph, diagram, d) for d in u_side]
    for c in region.crossing_ids:
        graph.delete_stub_edges(("x", c))

    # Lane frontier, indexed by bundle position (position i starts at t_side[i]).
    frontier = list(west)
    over = []
    for pos in range(m):
        port, fwd = frontier[pos]
        stub = graph.add(_circle_over_stub(("a", region.id, "over", pos), fwd))
        graph.connect(port, stub.port("W"))
        frontier[pos] = (stub.port("E"), fwd)
        over.append(stub)

    if eps:
        directions = {fwd for _, fwd in frontier}
        if len(directions) != 1:
            raise ExportError(
                f"region {region.id}: strands are not parallel; cannot synthesize "
                "the residual half-twist"
            )
        fwd = frontier[0][1]
        word = [j for k in range(m - 1, 0, -1) for j in range(1, k + 1)]
        for idx, j in enumerate(word):
            stub = graph.add(_letter_stub(("a", region.id, "half", idx), region.sign, fwd))
            hi, lo = frontier[j - 1], frontier[j]
            graph.connect(hi[0], stub.port("NW"))
            graph.connect(lo[0], stub.port("SW"))
            frontier[j - 1] = (stub.port("NE"), hi[1])
            frontier[j] = (stub.port("SE"), lo[1])

    under = []
    for pos in range(m):
        port, fwd = frontier[pos]
        stub = graph.add(_circle_under_stub(("a", region.id, "under", pos), fwd))
        graph.connect(port, stub.port("W"))
        frontier[pos] = (stub.port("E"), fwd)
        under.append(stub)

    for pos in range(m):
        graph.connect(frontier[pos][0], east[m - 1 - pos][0])

    _wire_circle(graph, over, under)


def _wire_circle(graph: _PortGraph, over: list[_Stub], under: list[_Stub]) -> None:
    """Close the crossing circle: down through the over-passes, up the unders."""
    m = len(over)
    for pos in range(m - 1):
        graph.connect(over[pos].port("S"), over[pos + 1].port("N"))
    graph.connect(over[m - 1].port("S"), under[m - 1].port("S"))
    for pos in range(m - 1, 0, -1):
        graph.connect(under[pos].port("N"), under[pos - 1].port("S"))
    graph.connect(under[0].port("N"), over[0].port("N"))


def _export_chain_region(graph: _PortGraph, diagram: Diagram, region: TwistRegion,
                         bonds, eps: int) -> None:
    """2-strand region: ring the two arcs that leave x0 away from x1.

    x0 ... x(c-1) is the chain order of the bigon bonds.  The spliced
    crossings x(eps) ... x(c-1) are even in number and consecutive, so the
    strands come out parallel and planar on one side of the circle, for
    open, closed and returning chains alike; every strand passes the circle.
    """
    ids = frozenset(region.crossing_ids)
    local = {(c, k): bonds[(c, k)] for c in ids for k in range(4)
             if bonds.get((c, k), (None,))[0] in ids}
    chains = _grow_chains(local, sorted(ids))
    if len(chains) != 1:
        raise ExportError(f"region {region.id}: crossings do not form one twist chain")
    (chain,) = chains
    x0 = chain[0]
    # The corner of x0 facing away from x1; any corner of a lone crossing.
    back = 0 if len(chain) == 1 else 2 + next(
        k for k in range(4) if local.get((x0, k), (None,))[0] == chain[1])
    over, under = [], []
    for pos, slot in enumerate((back % 4, (back + 1) % 4)):
        outside, forward = _attachment(graph, diagram, (x0, slot))
        port = (("x", x0), f"s{slot}")
        graph.disconnect(port)
        under.append(graph.add(_circle_under_stub(("a", region.id, "under", pos), forward)))
        over.append(graph.add(_circle_over_stub(("a", region.id, "over", pos), forward)))
        graph.connect(port, under[pos].port("E"))
        graph.connect(under[pos].port("W"), over[pos].port("E"))
        graph.connect(over[pos].port("W"), outside)
    _wire_circle(graph, over, under)
    for c in chain[eps:]:
        graph.remove_stub(("x", c))


def export_augmented_diagram(augmented: AugmentedLink) -> Diagram:
    """Render the augmented link as a PD-coded diagram.

    The output parses back as a valid diagram whose link component count is
    the original count plus one circle per region; each region contributes
    2m crossings where the circle crosses the strands, plus m(m-1)/2
    residual crossings when a half-twist remains (drawing as in the module
    docstring).  Raises :class:`ExportError` when a region cannot be drawn.
    """
    selection = augmented.source
    diagram = selection.diagram
    mates = diagram.mates

    graph = _PortGraph()
    for x in diagram.crossings:
        graph.add(_original_stub(("x", x.id), x.sign))
    for (c1, s1), (c2, s2) in mates.items():
        p1, p2 = (("x", c1), f"s{s1}"), (("x", c2), f"s{s2}")
        if p1 in graph.succ or p1 in graph.pred:
            continue  # wired from its other end
        if (graph.role(p1) in _OUT_ROLES) == (graph.role(p2) in _OUT_ROLES):
            raise ExportError(
                f"arc {diagram.crossing(c1).arcs[s1]} has no coherent direction; "
                "crossing signs are not orientation-consistent"
            )
        graph.connect(p1, p2)

    bonds = _bigon_bonds(diagram, frozenset(diagram.crossing_ids))
    for circle, region in zip(augmented.circles, selection.regions):
        if region.strand_count == 2:
            _export_chain_region(graph, diagram, region, bonds, circle.epsilon)
        else:
            _export_box_region(graph, diagram, region, mates, circle.epsilon)

    name = f"{diagram.name}-augmented" if diagram.name else "augmented"
    return graph.to_diagram(name)
