"""Augmented links: one crossing circle per twist region, full twists removed.

Structurally, augmenting replaces each twist region by a record: an
unknotted circle around the region's strands, the residual half-twist flag
``epsilon = c mod 2``, and the Dehn-filling integer ``n`` that restores the
original twisting (``c = 2n - epsilon``).  Downstream bounds consume only
these numbers, so :func:`augment` returns them without building a new
diagram.

:func:`export_augmented_diagram` additionally renders the augmented link as
a PD code for interchange, drawing every region the same way: a crossing
circle rings the m arcs on one side of it, under each next to the region
and over it beyond, and the crossings the region drops are spliced out.  A
2-strand region is ringed at the two arcs that leave the chain's first
crossing x0 away from x1 and drops x(epsilon) ... x(c-1), so a residual
half-twist is x0 itself, with its handedness and strand orientations.  A
region of m >= 3 strands is ringed on the top side its validation found
and drops all its crossings; a residual half-twist is a synthesized
staircase between the ring and the box.
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
# so, the table the parser checks the input's orientation with.  Once the
# circles are wired in and the dropped crossings spliced out and marked dead
# in ``live``, :func:`~auglink.diagram._rebuild` builds the result: every
# live stub becomes a crossing read from its slot 0, and every wire an arc.

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


def _ring(graph: _PortGraph, ports: list[int]) -> list[int]:
    """Ring the arcs at ``ports``, m consecutive counterclockwise boundary darts.

    Each port is a dart of the diagram (slot 0 at position 0).  On its arc
    the circle passes under next to the port and over beyond it, and it
    closes down the over-passes and back up the unders.  Returns the lanes'
    ports that face the region, each wired to its port.
    """
    over, under = [], []
    for port in ports:
        outside, forward = graph.mates[port], _ENTERS[graph.signs[port >> 2]][port & 3]
        graph.disconnect(port)
        under.append(graph.add(*_UNDER[forward]))
        over.append(graph.add(*_OVER[forward]))
        graph.connect(port, 4 * under[-1] + _E)
        graph.connect(4 * under[-1] + _W, 4 * over[-1] + _E)
        graph.connect(4 * over[-1] + _W, outside)
    for above, below in zip(over, over[1:]):
        graph.connect(4 * above + _S, 4 * below + _N)
    graph.connect(4 * over[-1] + _S, 4 * under[-1] + _S)
    for above, below in zip(under, under[1:]):
        graph.connect(4 * below + _N, 4 * above + _S)
    graph.connect(4 * under[0] + _N, 4 * over[0] + _N)
    return [4 * stub + _E for stub in under]


def _back_darts(diagram: Diagram, region: TwistRegion) -> list[int]:
    """2-strand region: the two darts whose arcs leave x0 away from x1.

    x0 ... x(c-1) is the chain order of ``region.crossing_ids``.  The dropped
    x(eps) ... x(c-1) are even in number and consecutive, so the strands come
    out parallel on one side of the circle, for open, closed and returning
    chains alike.
    """
    x0 = diagram.index[region.crossing_ids[0]]
    if region.crossing_count == 1:
        back = 4 * x0  # any corner of a lone crossing
    else:
        # The corner of x0 opposite its smallest corner bonded to x1.
        x1 = diagram.index[region.crossing_ids[1]]
        bonds = _bigon_bonds(diagram, (x0, x1))
        back = 2 ^ next(d for d in range(4 * x0, 4 * x0 + 4) if bonds.get(d, -1) >> 2 == x1)
    return [back, _next_slot(back)]


def _staircase(graph: _PortGraph, lanes: list[int], top: list[int], sign: int) -> None:
    """One half-twist of a box's m strands, between its ring and its top side.

    Position k after the half-twist is wired to ``top[m-1-k]``: the lane
    ringed at ``top[i]`` comes back to it, and the odd box, spliced out,
    takes it to the far-side dart straight across from ``top[m-1-i]``.
    """
    forward = _ENTERS[sign][top[0] & 3]  # all strands run west to east, or all east to west
    for port in lanes:
        graph.disconnect(port)
    m = len(lanes)
    for j in (j for k in range(m - 1, 0, -1) for j in range(1, k + 1)):
        stub = graph.add(*_LETTER[sign, forward])
        graph.connect(lanes[j - 1], 4 * stub + _NW)
        graph.connect(lanes[j], 4 * stub + _SW)
        lanes[j - 1], lanes[j] = 4 * stub + _NE, 4 * stub + _SE
    for port, dart in zip(lanes, reversed(top)):
        graph.connect(port, dart)


def export_augmented_diagram(augmented: AugmentedLink) -> Diagram:
    """Render the augmented link as a PD-coded diagram.

    The output parses back as a valid diagram whose link component count is
    the original count plus one circle per region; each region contributes
    2m crossings where the circle crosses the strands, plus m(m-1)/2
    residual crossings when a half-twist remains (drawing as in the module
    docstring; one splice drops every region's crossings).  Raises
    :class:`ExportError` when a port is left unwired, or when the drawing
    is not planar or has another component count.
    """
    selection = augmented.source
    diagram = selection.diagram

    graph = _PortGraph(diagram)
    dropped: set[int] = set()  # positions
    for circle, region in zip(augmented.circles, selection.regions):
        if region.strand_count == 2:
            _ring(graph, _back_darts(diagram, region))
            drop = region.crossing_ids[circle.epsilon:]
        else:
            top = _box_sides(diagram, region)
            lanes = _ring(graph, top)
            if circle.epsilon:
                _staircase(graph, lanes, top, region.sign)
            drop = region.crossing_ids
        dropped.update(map(diagram.index.__getitem__, drop))
    mates, live = graph.mates, graph.live
    for port, mate in _splice(mates, dropped).items():
        mates[port] = mate
    for stub in dropped:
        live[stub] = 0

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
