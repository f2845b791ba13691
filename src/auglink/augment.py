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

from typing import Mapping, NamedTuple

from .diagram import Diagram, _crossing, _next_slot, _splice
from .errors import AugmentError, ExportError, InvalidDiagramError
from .twist import TwistRegion, TwistSelection, _bigon_bonds


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


class CrossingCircle(NamedTuple):
    """The circle inserted around one twist region."""

    id: int
    epsilon: int
    strand_count: int
    filling_n: int

    @property
    def half_twists(self) -> int:
        """Original twist count, reconstructed as 2n - epsilon."""
        return 2 * self.filling_n - self.epsilon


class AugmentedLink(NamedTuple):
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
# Every crossing of the drawing is a "stub" with four ports, numbered
# 4 * stub + k for rotation position k = 0..3 (counterclockwise).  Stubs
# are numbered in the order they are added: the original crossings first,
# in diagram order, so that port 4 * i + s is slot s of crossings[i], the
# integer dart the diagram's own mates use.  Each port carries a strand
# role, and every wire joins an out-port to an in-port.  At the end every
# live stub becomes a crossing, rotated so that the under-in port comes
# first (which also fixes the sign), and every wire an arc.

_UIN, _UOUT, _OIN, _OOUT = 0, 1, 2, 3  # strand roles; odd roles are out-ports

# Rotation positions of synthesized stubs.
_E, _N, _W, _S = 0, 1, 2, 3  # circle crossings
_NE, _NW, _SW, _SE = 0, 1, 2, 3  # staircase crossings


def _original_roles(sign: int) -> tuple[int, ...]:
    # Slot order: the under-strand enters at 0 and leaves at 2.
    return (_UIN, _OOUT, _UOUT, _OIN) if sign > 0 else (_UIN, _OIN, _UOUT, _OOUT)


def _circle_over_roles(lane_forward: bool) -> tuple[int, ...]:
    # Circle runs north->south and passes over a west-east strand.
    west, east = (_UIN, _UOUT) if lane_forward else (_UOUT, _UIN)
    return (east, _OIN, west, _OOUT)


def _circle_under_roles(lane_forward: bool) -> tuple[int, ...]:
    # Circle runs south->north and passes under a west-east strand.
    west, east = (_OIN, _OOUT) if lane_forward else (_OOUT, _OIN)
    return (east, _UOUT, west, _UIN)


def _letter_roles(handedness: int, lanes_forward: bool) -> tuple[int, ...]:
    # One staircase crossing between two adjacent lanes: strand A runs
    # NW-SE, strand B runs SW-NE; positive handedness puts A on top.
    a_in, b_in = (_OIN, _UIN) if handedness > 0 else (_UIN, _OIN)
    a_out, b_out = a_in + 1, b_in + 1
    if lanes_forward:
        return (b_out, a_in, b_in, a_out)
    return (b_in, a_out, b_out, a_in)


class _PortGraph:
    """Wiring between stub ports, in the encoding of ``Diagram.dart_mates``.

    ``role`` and ``mates`` are indexed by port; ``mates[p]`` is the port at
    the other end of p's wire, -1 while p is unwired.  ``live`` flags the
    stubs not spliced out.  :meth:`to_diagram` hands the mates of the live
    ports to the diagram it builds, which checks only Euler's formula.
    """

    def __init__(self):
        self.role: list[int] = []
        self.mates: list[int] = []
        self.live = bytearray()

    def add(self, roles: tuple[int, ...]) -> int:
        """Add a stub with these port roles; returns the stub number."""
        self.role.extend(roles)
        self.mates.extend((-1, -1, -1, -1))
        self.live.append(1)
        return len(self.live) - 1

    def connect(self, a: int, b: int) -> None:
        """Wire two ports; exactly one must be an out-port."""
        a_out = self.role[a] & 1
        if a_out == self.role[b] & 1:
            raise ExportError(f"cannot wire ports {a} and {b}: roles conflict")
        if self.mates[a] >= 0 or self.mates[b] >= 0:
            src, dst = (a, b) if a_out else (b, a)
            raise ExportError(f"port already wired: {src} -> {dst}")
        self.mates[a] = b
        self.mates[b] = a

    def disconnect(self, port: int) -> None:
        mate = self.mates[port]
        if mate >= 0:
            self.mates[port] = self.mates[mate] = -1

    def to_diagram(self, name: str | None) -> Diagram:
        """The live stubs as a diagram, ports renumbered into its darts.

        Arcs are labelled in the order of their first dart.  Raises
        :class:`ExportError` on a port that is unwired or wired to a
        spliced-out stub, and on a drawing that fails Euler's formula.
        """
        role, mates = self.role, self.mates
        ports, signs = [], []  # ports in dart order; the sign of each crossing
        for stub in (s for s, alive in enumerate(self.live) if alive):
            p = role.index(_UIN, 4 * stub, 4 * stub + 4)
            q = _next_slot(p)
            ports += (p, q, p ^ 2, q ^ 2)
            signs.append(1 if role[q ^ 2] == _OIN else -1)
        dart = {port: d for d, port in enumerate(ports)}
        dangling = [p for p in ports if mates[p] not in dart]
        if dangling:
            raise ExportError(f"unwired ports remain: {dangling[:4]}")
        dart_mates = tuple(dart[mates[port]] for port in ports)
        label = [0] * len(ports)
        firsts = (d for d, e in enumerate(dart_mates) if d < e)  # one dart per arc, in order
        for arc, d in enumerate(firsts, start=1):
            label[d] = label[dart_mates[d]] = arc
        crossings = tuple(_crossing(k, tuple(label[4 * k:4 * k + 4]), sign)
                          for k, sign in enumerate(signs))
        try:
            return Diagram._with_mates(crossings, dart_mates, name)
        except InvalidDiagramError as exc:
            raise ExportError(f"drawing is not planar: {exc}") from exc


# ============================================================================
# PD-code export: region rewriting
# ============================================================================
#
# Darts here are the diagram's integer darts, 4 * position + slot, which
# are also the ports of the original stubs.  Slot s + 2 mod 4 is dart ^ 2.


def _region_boundary(mates: tuple[int, ...], region: frozenset[int],
                     start: int) -> list[int]:
    """Walk the region's outer boundary, returning boundary darts in planar order."""
    cycle = [start]
    dart = start
    while True:
        e = _next_slot(dart)
        while mates[e] >> 2 in region:
            e = _next_slot(mates[e])
        if e == cycle[0]:
            return cycle
        if e in cycle or len(cycle) > 4 * len(region):
            raise ExportError("region boundary walk did not close into a single cycle")
        cycle.append(e)
        dart = e


def _split_boundary(cycle: list[int], pairing: dict[int, int], m: int, eps: int,
                    flows_in: Mapping[int, bool]) -> tuple[list[int], list[int]]:
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


def _export_box_region(graph: _PortGraph, diagram: Diagram, region: TwistRegion,
                       eps: int) -> None:
    """Region of m >= 3 strands: a box with 2m boundary strand-endpoints."""
    m = region.strand_count
    mates, index = diagram.dart_mates, diagram.index
    inside = frozenset(index[c] for c in region.crossing_ids)  # positions
    boundary = [d for c in sorted(region.crossing_ids)
                for d in range(4 * index[c], 4 * index[c] + 4) if mates[d] >> 2 not in inside]
    if len(boundary) != 2 * m:
        raise ExportError(
            f"region {region.id}: {len(boundary)} boundary strand-endpoints, expected {2 * m}"
        )
    cycle = _region_boundary(mates, inside, boundary[0])
    if sorted(cycle) != sorted(boundary):
        raise ExportError(f"region {region.id}: boundary is not a single cycle")
    through = _splice(mates, inside)  # outside dart -> outside dart across the box
    pairing = {d: mates[through[mates[d]]] for d in cycle}
    flows_in = {d: not graph.role[d] & 1 for d in cycle}
    t_side, u_side = _split_boundary(cycle, pairing, m, eps, flows_in)

    # Capture the outside port and direction of every lane, then delete the region.
    west = [(graph.mates[d], flows_in[d]) for d in t_side]
    east = [(graph.mates[d], flows_in[d]) for d in u_side]
    for d in cycle:
        graph.disconnect(d)
    for i in inside:
        graph.live[i] = 0

    # Lane frontier, indexed by bundle position (position i starts at t_side[i]).
    frontier = list(west)
    over = []
    for pos in range(m):
        port, fwd = frontier[pos]
        stub = graph.add(_circle_over_roles(fwd))
        graph.connect(port, 4 * stub + _W)
        frontier[pos] = (4 * stub + _E, fwd)
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
        for j in word:
            stub = graph.add(_letter_roles(region.sign, fwd))
            hi, lo = frontier[j - 1], frontier[j]
            graph.connect(hi[0], 4 * stub + _NW)
            graph.connect(lo[0], 4 * stub + _SW)
            frontier[j - 1] = (4 * stub + _NE, hi[1])
            frontier[j] = (4 * stub + _SE, lo[1])

    under = []
    for pos in range(m):
        port, fwd = frontier[pos]
        stub = graph.add(_circle_under_roles(fwd))
        graph.connect(port, 4 * stub + _W)
        frontier[pos] = (4 * stub + _E, fwd)
        under.append(stub)

    for pos in range(m):
        graph.connect(frontier[pos][0], east[m - 1 - pos][0])

    _wire_circle(graph, over, under)


def _wire_circle(graph: _PortGraph, over: list[int], under: list[int]) -> None:
    """Close the crossing circle: down through the over-passes, up the unders."""
    m = len(over)
    for pos in range(m - 1):
        graph.connect(4 * over[pos] + _S, 4 * over[pos + 1] + _N)
    graph.connect(4 * over[m - 1] + _S, 4 * under[m - 1] + _S)
    for pos in range(m - 1, 0, -1):
        graph.connect(4 * under[pos] + _N, 4 * under[pos - 1] + _S)
    graph.connect(4 * under[0] + _N, 4 * over[0] + _N)


def _export_chain_region(graph: _PortGraph, diagram: Diagram, region: TwistRegion,
                         eps: int) -> None:
    """2-strand region: ring the two arcs that leave x0 away from x1.

    x0 ... x(c-1) is the chain order of ``region.crossing_ids``.  The spliced
    crossings x(eps) ... x(c-1) are even in number and consecutive, so the
    strands come out parallel and planar on one side of the circle, for
    open, closed and returning chains alike; every strand passes the circle.
    """
    index = diagram.index
    x0 = index[region.crossing_ids[0]]
    if region.crossing_count == 1:
        back = 4 * x0  # any corner of a lone crossing
    else:
        # The corner of x0 opposite its smallest corner bonded to x1.
        x1 = index[region.crossing_ids[1]]
        bonds = _bigon_bonds(diagram, (x0, x1))
        back = 2 ^ next(d for d in range(4 * x0, 4 * x0 + 4) if bonds.get(d, -1) >> 2 == x1)
    over, under = [], []
    for port in (back, _next_slot(back)):
        outside, forward = graph.mates[port], not graph.role[port] & 1  # enters x0 here
        graph.disconnect(port)
        under.append(graph.add(_circle_under_roles(forward)))
        over.append(graph.add(_circle_over_roles(forward)))
        graph.connect(port, 4 * under[-1] + _E)
        graph.connect(4 * under[-1] + _W, 4 * over[-1] + _E)
        graph.connect(4 * over[-1] + _W, outside)
    _wire_circle(graph, over, under)
    removed = {index[c] for c in region.crossing_ids[eps:]}
    for port, mate in _splice(graph.mates, removed).items():
        graph.mates[port] = mate
    for stub in removed:
        graph.live[stub] = 0


def export_augmented_diagram(augmented: AugmentedLink) -> Diagram:
    """Render the augmented link as a PD-coded diagram.

    The output parses back as a valid diagram whose link component count is
    the original count plus one circle per region; each region contributes
    2m crossings where the circle crosses the strands, plus m(m-1)/2
    residual crossings when a half-twist remains (drawing as in the module
    docstring).  Raises :class:`ExportError` when a region cannot be drawn,
    or when the drawing is not planar or has another component count.
    """
    selection = augmented.source
    diagram = selection.diagram

    graph = _PortGraph()
    for x in diagram.crossings:
        graph.add(_original_roles(x.sign))
    graph.mates[:] = diagram.dart_mates
    for d, e in enumerate(diagram.dart_mates):
        if graph.role[d] & 1 == graph.role[e] & 1:
            arc = diagram.crossings[d >> 2].arcs[d & 3]
            raise ExportError(
                f"arc {arc} has no coherent direction; "
                "crossing signs are not orientation-consistent"
            )

    for circle, region in zip(augmented.circles, selection.regions):
        if region.strand_count == 2:
            _export_chain_region(graph, diagram, region, circle.epsilon)
        else:
            _export_box_region(graph, diagram, region, circle.epsilon)

    name = f"{diagram.name}-augmented" if diagram.name else "augmented"
    exported = graph.to_diagram(name)
    expected = diagram.link_component_count + augmented.circle_count
    if exported.link_component_count != expected:
        raise ExportError(
            f"drawing has {exported.link_component_count} link components, expected "
            f"{expected} (the input's plus one per circle)"
        )
    return exported
