"""Augmented links: one crossing circle per twist region, full twists removed.

Structurally, augmenting replaces each twist region by a record: an
unknotted circle around the region's strands, the residual half-twist flag
``epsilon = c mod 2``, and the Dehn-filling integer ``n`` that restores the
original twisting (``c = 2n - epsilon``).  Downstream bounds consume only
these numbers, so :func:`augment` returns them without building a new
diagram.

:func:`export_augmented_diagram` additionally renders the augmented link as
a PD code for interchange, as a local rewrite of the diagram's dart mates in
flat lists.  Every region is drawn the same way: a crossing circle rings the
m arcs on one side of it, under each next to the region and over it beyond,
and the crossings the region drops are spliced out.  A 2-strand region is
ringed at the two arcs that leave the chain's first crossing x0 away from x1
and drops x(epsilon) ... x(c-1), so a residual half-twist is x0 itself, with
its handedness and strand orientations.  A region of m >= 3 strands is
ringed on the top side its validation found and drops all its crossings; a
residual half-twist is a synthesized staircase between the ring and the box.
"""

from typing import NamedTuple

from .diagram import _ENTERS, Diagram, _component_count, _next_slot, _renumber, _splice
from .errors import AugmentError, ExportError, InvalidDiagramError
from .twist import TwistRegion, TwistSelection, _box_sides


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
# PD-code export: flat arrays
# ============================================================================
#
# The drawing is three flat lists.  Every crossing of it is a "stub" with
# four ports, numbered 4 * stub + k for rotation position k = 0..3
# (counterclockwise): ``mates[p]`` is the port at the other end of p's wire,
# and ``signs[stub]`` and ``starts[stub]`` are the stub's sign and the
# rotation position of its slot 0.  The lists start as the diagram itself,
# its crossings the first stubs in diagram order (slot 0 at position 0), so
# that port 4 * i + s is the integer dart the diagram's own mates use.  A
# port's strand enters its stub exactly when ``_ENTERS[sign][slot]`` says
# so, the table the parser checks the input's orientation with.  Each
# drawing appends its stubs and writes both ends of every wire it lays;
# the dropped crossings are then spliced out, the kept ports must pair up
# (``mates[mates[p]] == p``), and :func:`~auglink.diagram._renumber` numbers
# the result: every kept stub becomes a crossing read from its slot 0, and
# every wire an arc.

# Rotation positions of synthesized stubs.
_E, _N, _W, _S = 0, 1, 2, 3  # circle crossings
_NE, _NW, _SW, _SE = 0, 1, 2, 3  # staircase crossings

# Signs and slot-0 positions of a strand's (under, over) circle crossings,
# by whether the west-east strand runs forward (west to east).  The circle
# runs north to south over the strands and south to north under them,
# entering the under-pass at _S.
_CIRCLE = {True: ((1, 1), (_S, _W)), False: ((-1, -1), (_S, _E))}
# (sign, slot-0 position) of one staircase crossing between two adjacent
# lanes, by (handedness, lanes forward): strand A runs NW-SE, strand B runs
# SW-NE, and positive handedness puts A on top.
_LETTER = {(1, True): (1, _SW), (1, False): (1, _NE),
           (-1, True): (-1, _NW), (-1, False): (-1, _SE)}
# The rotation positions of slots 0, 1, 2 and 3, by the slot-0 position.
_TURNS = tuple(tuple((start + k) & 3 for k in range(4)) for start in range(4))


# ============================================================================
# PD-code export: region rewriting
# ============================================================================
#
# Darts here are the diagram's integer darts, 4 * position + slot, which
# are also the ports of the original stubs.  Slot s + 2 mod 4 is dart ^ 2.


def _ring(mates: list[int], signs: list[int], starts: list[int], ports: list[int]) -> list[int]:
    """Ring the arcs at ``ports``, m consecutive counterclockwise boundary darts.

    Each port is a dart of the diagram (slot 0 at position 0).  On its arc
    the circle passes under next to the port and over beyond it, and it
    closes down the over-passes and back up the unders.  Port k's strand
    gets under stub 2k and over stub 2k + 1 of the appended ones.  Returns
    the lanes' ports that face the region, each wired to its port.
    """
    first = 4 * len(signs)  # port _E of the first under stub
    last = first + 8 * (len(ports) - 1)  # and of the last
    for port in ports:
        u = len(mates)
        o = u + 4
        outside = mates[port]
        circle_signs, circle_starts = _CIRCLE[_ENTERS[signs[port >> 2]][port & 3]]
        signs += circle_signs
        starts += circle_starts
        # Ports u + _E ... u + _S of the under stub, then o + _E ... o + _S of
        # the over: the strand runs port, u, o, outside; each under's _N meets
        # the one before's _S (the first meets the first over's _N), and each
        # over's _S the next over's _N (the last meets the last under's _S).
        mates += (port, u - 8 + _S if u > first else first + 4 + _N, o + _E,
                  u + 8 + _N if u < last else last + 4 + _S,
                  u + _W, o - 8 + _S if u > first else first + _N, outside,
                  o + 8 + _N if u < last else last + _S)
        mates[port] = u + _E
        mates[outside] = o + _W
    return list(range(first, last + 1, 8))


def _back_darts(diagram: Diagram, region: TwistRegion) -> list[int]:
    """2-strand region: the two darts whose arcs leave x0 away from x1.

    x0 ... x(c-1) is the chain order of ``region.crossing_ids``.  The dropped
    x(eps) ... x(c-1) are even in number and consecutive, so the strands come
    out parallel on one side of the circle, for open, closed and returning
    chains alike.
    """
    x0 = diagram.index[region.crossing_ids[0]]
    back = 4 * x0  # any corner of a lone crossing
    if region.crossing_count > 1:
        # The corner of x0 opposite its smallest corner bonded to x1: corner
        # d, between d and its next slot f, faces a bigon on x1 when f's arc
        # ends on x1 and f's face closes after two steps.
        x1 = diagram.index[region.crossing_ids[1]]
        mates, step = diagram.dart_mates, diagram.face_next
        for d, f in zip(range(back, back + 4), (back + 1, back + 2, back + 3, back)):
            if mates[f] >> 2 == x1 and step[step[f]] == f:
                back = d ^ 2
                break
    return [back, _next_slot(back)]


def _staircase(mates: list[int], signs: list[int], starts: list[int], lanes: list[int],
               top: list[int], sign: int) -> None:
    """One half-twist of a box's m strands, between its ring and its top side.

    Position k after the half-twist is wired to ``top[m-1-k]``: the lane
    ringed at ``top[i]`` comes back to it, and the odd box, spliced out,
    takes it to the far-side dart straight across from ``top[m-1-i]``.
    """
    forward = _ENTERS[sign][top[0] & 3]  # all strands run west to east, or all east to west
    letter_sign, letter_start = _LETTER[sign, forward]
    for j in (j for k in range(len(lanes) - 1, 0, -1) for j in range(1, k + 1)):
        p = len(mates)
        signs.append(letter_sign)
        starts.append(letter_start)
        # Ports _NE, _NW, _SW, _SE: the lanes come in at _NW and _SW and go
        # on from _NE and _SE, wired by the next letter or to the top side.
        mates += (-1, lanes[j - 1], lanes[j], -1)
        mates[lanes[j - 1]] = p + _NW
        mates[lanes[j]] = p + _SW
        lanes[j - 1], lanes[j] = p + _NE, p + _SE
    for port, dart in zip(lanes, reversed(top)):
        mates[port] = dart
        mates[dart] = port


def _drawing(augmented: AugmentedLink) -> tuple[str, tuple, tuple, tuple]:
    """The export's name, signs, dart mates and arc labels, with crossing k the
    k-th kept stub read from its slot 0, worked out without a walk over the
    whole drawing (``docs/diagram-format.md`` says why).  Raises
    :class:`ExportError` when a kept port is unwired or wired one way, or
    when a strand closes up inside the dropped crossings."""
    selection = augmented.source
    diagram = selection.diagram

    mates = list(diagram.dart_mates)
    signs = list(diagram.signs)
    starts = [0] * len(signs)
    dropped: set[int] = set()  # positions
    for circle, region in zip(augmented.circles, selection.regions):
        if region.strand_count == 2:
            _ring(mates, signs, starts, _back_darts(diagram, region))
            drop = region.crossing_ids[circle.epsilon:]
        else:
            top = _box_sides(diagram, region)
            lanes = _ring(mates, signs, starts, top)
            if circle.epsilon:
                _staircase(mates, signs, starts, lanes, top, region.sign)
            drop = region.crossing_ids
        dropped.update(map(diagram.index.__getitem__, drop))
    relinked, covered = _splice(mates, dropped)
    for port, mate in relinked.items():
        mates[port] = mate

    kept = [stub for stub in range(len(signs)) if stub not in dropped]
    darts = [4 * stub + k for stub in kept for k in _TURNS[starts[stub]]]
    mates.append(-1)  # what mates[-1] reads, for an unwired port
    if list(map(mates.__getitem__, map(mates.__getitem__, darts))) != darts:
        one_way = sorted(p for p in darts if mates[mates[p]] != p)
        raise ExportError(f"unwired ports remain: {one_way[:4]}")
    new_mates, labels = _renumber(darts, mates)
    if covered < 4 * len(dropped):  # a strand closed up inside the dropped crossings
        raise ExportError(
            f"drawing has {_component_count(new_mates)} link components, expected "
            f"{diagram.link_component_count + augmented.circle_count} (the input's plus "
            "one per circle)")
    name = f"{diagram.name}-augmented" if diagram.name else "augmented"
    return name, tuple(map(signs.__getitem__, kept)), new_mates, labels


def export_augmented_diagram(augmented: AugmentedLink) -> Diagram:
    """Render the augmented link as a PD-coded diagram, checked by its constructor.

    Its link component count is the input's plus one per circle; each region
    contributes 2m crossings where the circle crosses the strands, plus
    m(m-1)/2 residual crossings when a half-twist remains (drawing as in the
    module docstring).  Raises :class:`ExportError` as :func:`_drawing`
    does, or when the drawing is not planar.
    """
    name, signs, mates, labels = _drawing(augmented)
    try:
        return Diagram(tuple(range(len(signs))), signs, mates, name, labels)
    except InvalidDiagramError as exc:
        raise ExportError(f"drawing is not planar: {exc}") from exc
