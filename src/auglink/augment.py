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
m >= 3 strands is redrawn, between the two sides its validation found, as
a box holding the circle's passes and, when epsilon = 1, a synthesized
half-twist staircase.
"""

from typing import NamedTuple

from .diagram import _ENTERS, Diagram, _next_slot, _rebuild, _splice
from .errors import AugmentError, ExportError, InvalidDiagramError
from .twist import TwistRegion, TwistSelection, _bigon_bonds, _box_sides


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
# 4 * stub + k for rotation position k = 0..3 (counterclockwise).  The
# graph starts as the diagram itself, its crossings the first stubs in
# diagram order, so that port 4 * i + s is slot s of crossings[i], the
# integer dart the diagram's own mates use.  Each stub records only its
# sign and the rotation position of its slot 0 (0 for the originals); a
# port's strand enters the stub exactly when ``_ENTERS[sign][slot]`` says
# so, the table the parser checks the input's orientation with.  At the
# end :func:`~auglink.diagram._rebuild` builds the result: every live stub
# becomes a crossing read from its slot 0, and every wire an arc.

# Rotation positions of synthesized stubs.
_E, _N, _W, _S = 0, 1, 2, 3  # circle crossings
_NE, _NW, _SW, _SE = 0, 1, 2, 3  # staircase crossings

# (sign, slot-0 position) of a circle crossing, by whether the west-east
# strand runs forward (west to east).  The circle runs north to south over
# the strands and south to north under them, entering the under-pass at _S.
_OVER = {True: (1, _W), False: (-1, _E)}
_UNDER = {True: (1, _S), False: (-1, _S)}
# (sign, slot-0 position) of one staircase crossing between two adjacent
# lanes, by (handedness, lanes forward): strand A runs NW-SE, strand B runs
# SW-NE, and positive handedness puts A on top.
_LETTER = {(1, True): (1, _SW), (1, False): (1, _NE),
           (-1, True): (-1, _NW), (-1, False): (-1, _SE)}


class _PortGraph:
    """Wiring between stub ports, in the encoding of ``Diagram.dart_mates``.

    ``mates`` is indexed by port; ``mates[p]`` is the port at the other end
    of p's wire, -1 while p is unwired.  ``signs``, ``starts`` and ``live``
    are indexed by stub; ``live`` flags the stubs not spliced out.  The
    export hands the live stubs to :func:`~auglink.diagram._rebuild`, which
    builds the result and checks only Euler's formula.
    """

    def __init__(self, diagram: Diagram):
        self.mates = list(diagram.dart_mates)
        self.signs = [x.sign for x in diagram.crossings]
        self.starts = [0] * len(self.signs)
        self.live = bytearray(b"\1" * len(self.signs))

    def add(self, sign: int, start: int) -> int:
        """Add a stub with this sign and slot-0 position; returns the stub number."""
        self.signs.append(sign)
        self.starts.append(start)
        self.mates.extend((-1, -1, -1, -1))
        self.live.append(1)
        return len(self.live) - 1

    def connect(self, a: int, b: int) -> None:
        """Wire two unwired ports."""
        if self.mates[a] >= 0 or self.mates[b] >= 0:
            raise ExportError(f"port already wired: {a} or {b}")
        self.mates[a] = b
        self.mates[b] = a

    def disconnect(self, port: int) -> None:
        mate = self.mates[port]
        if mate >= 0:
            self.mates[port] = self.mates[mate] = -1


# ============================================================================
# PD-code export: region rewriting
# ============================================================================
#
# Darts here are the diagram's integer darts, 4 * position + slot, which
# are also the ports of the original stubs.  Slot s + 2 mod 4 is dart ^ 2.


def _export_box_region(graph: _PortGraph, diagram: Diagram, region: TwistRegion,
                       eps: int) -> None:
    """Region of m >= 3 strands: the box between the sides validation found."""
    m = region.strand_count
    top, far = _box_sides(diagram, region)
    forward = _ENTERS[region.sign][top[0] & 3]  # all strands run west to east, or all east to west
    # Capture the outside port of every lane, then delete the region.
    frontier = [graph.mates[d] for d in top]  # lane i starts at top[i]
    east = [graph.mates[d] for d in far]
    for d in top + far:
        graph.disconnect(d)
    for c in region.crossing_ids:
        graph.live[diagram.index[c]] = 0

    over = []
    for pos in range(m):
        stub = graph.add(*_OVER[forward])
        graph.connect(frontier[pos], 4 * stub + _W)
        frontier[pos] = 4 * stub + _E
        over.append(stub)

    if eps:
        word = [j for k in range(m - 1, 0, -1) for j in range(1, k + 1)]
        for j in word:
            stub = graph.add(*_LETTER[region.sign, forward])
            graph.connect(frontier[j - 1], 4 * stub + _NW)
            graph.connect(frontier[j], 4 * stub + _SW)
            frontier[j - 1], frontier[j] = 4 * stub + _NE, 4 * stub + _SE

    under = []
    for pos in range(m):
        stub = graph.add(*_UNDER[forward])
        graph.connect(frontier[pos], 4 * stub + _W)
        frontier[pos] = 4 * stub + _E
        under.append(stub)

    for pos in range(m):
        graph.connect(frontier[pos], east[m - 1 - pos])
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
        outside, forward = graph.mates[port], _ENTERS[diagram.crossings[x0].sign][port & 3]
        graph.disconnect(port)
        under.append(graph.add(*_UNDER[forward]))
        over.append(graph.add(*_OVER[forward]))
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
    docstring).  Raises :class:`ExportError` when the drawing is not planar
    or has another component count.
    """
    selection = augmented.source
    diagram = selection.diagram

    graph = _PortGraph(diagram)
    for circle, region in zip(augmented.circles, selection.regions):
        if region.strand_count == 2:
            _export_chain_region(graph, diagram, region, circle.epsilon)
        else:
            _export_box_region(graph, diagram, region, circle.epsilon)

    mates, live = graph.mates, graph.live
    kept = [stub for stub, alive in enumerate(live) if alive]
    dangling = [p for stub in kept for p in range(4 * stub, 4 * stub + 4)
                if mates[p] < 0 or not live[mates[p] >> 2]]
    if dangling:
        raise ExportError(f"unwired ports remain: {dangling[:4]}")
    name = f"{diagram.name}-augmented" if diagram.name else "augmented"
    try:
        exported = _rebuild(kept, range(len(kept)), graph.signs, graph.starts, mates, name)
    except InvalidDiagramError as exc:
        raise ExportError(f"drawing is not planar: {exc}") from exc
    expected = diagram.link_component_count + augmented.circle_count
    if exported.link_component_count != expected:
        raise ExportError(
            f"drawing has {exported.link_component_count} link components, expected "
            f"{expected} (the input's plus one per circle)"
        )
    return exported
