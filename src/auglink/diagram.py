"""Planar diagram codes: parsing, validation, faces, strand components.

A PD code is a list of crossings; each crossing carries a quadruple of arc
labels read counterclockwise starting at the incoming under-strand, plus a
sign (+1/-1).  Arc labels are positive integers and every label appears
exactly twice in the whole code.  The implicit cyclic order of each quadruple
is the rotation system of the underlying 4-valent plane graph.

A :class:`Diagram` holds that code as flat tuples: crossing ids and signs by
position, and the mates of the integer darts (dart ``4 * i + s`` is slot s
of the i-th crossing).  Faces and strands are two permutations of the
darts: the faces are the orbits of ``face_next`` (cross the arc, turn one
slot counterclockwise), and the strands are the orbits of
``d -> dart_mates[d ^ 2]`` (pass straight through the crossing, then cross
the arc), two per link component, one each way.

Every diagram is built by ``Diagram(crossing_ids, signs, mates, name,
labels)``, which checks Euler's formula, from the dart mates its caller
already knows: ``from_pd`` pairs them while checking the labels, shapes and
signs of its input, and keeps its labels; the R-II reduction and the export
relink them (with :func:`_splice`) and renumber their darts with
:func:`_renumber`, and their arcs are labelled in the order of their first
dart: by the export in the same pass, and by a reduced diagram when its
labels are first read.  :class:`Crossing`
records are built from the flat fields only for library callers
(:attr:`Diagram.crossings`); the pipeline reads none.

Slot conventions (slot = index within the quadruple):

* slot 0 = incoming under-strand, slot 2 = outgoing under-strand;
* slots 1 and 3 carry the over-strand: a positive crossing enters at slot 3
  and leaves at slot 1, a negative one enters at slot 1 and leaves at slot 3.

Input files are JSON, either a bare PD array or an object::

    {"name": "trefoil",
     "pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]],
     "signs": [1, 1, 1],
     "regions": [{"crossings": [0, 1, 2], "strands": 2, "half_twists": 3}]}

``signs`` is optional; without it each strand orbit is oriented by its
first under-slot (slot 0 runs with it, slot 2 against it), a strand that
only passes over by the convention that labels are numbered consecutively
along it (see :func:`_infer_signs`).  Given or inferred, the signs must give
every arc one head and one tail, so every diagram is oriented.  ``regions``
declares generalized twist regions (see :mod:`auglink.twist`); ``crossings``
lists 0-based crossing ids.
"""

import json
from collections import Counter
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii as _str
from operator import itemgetter
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import DiagramSyntaxError, InvalidDiagramError

_KNOWN_KEYS = {"name", "pd", "signs", "regions"}
_KNOWN_REGION_KEYS = {"crossings", "strands", "half_twists"}


def _next_slot(dart: int) -> int:
    """Integer dart 4*i + s -> 4*i + (s + 1) % 4, one slot counterclockwise."""
    return dart - 3 if dart & 3 == 3 else dart + 1


# ============================================================================
# Core types
# ============================================================================


class Crossing(NamedTuple):
    """One 4-valent vertex of the diagram, as :attr:`Diagram.crossings` lists it.

    ``arcs`` lists the incident arc labels counterclockwise from the incoming
    under-strand.  ``id`` is stable across operations that drop other
    crossings, so region annotations keep meaning after a reduction.
    """

    id: int
    arcs: tuple[int, int, int, int]
    sign: int


class Diagram:
    """An immutable planar diagram code, held as flat tuples.

    ``Diagram(crossing_ids, signs, mates, name=None, labels=None)`` keeps the
    i-th crossing's id and sign at ``crossing_ids[i]`` and ``signs[i]``, the
    dart mates its caller paired as :attr:`dart_mates` (``mates[d]`` is the
    other end of dart d's arc) and, when given, ``labels[d]``, the arc label
    at dart d.  It raises :class:`InvalidDiagramError` when Euler's formula
    fails, and sets :attr:`face_next` and :attr:`is_connected` from the same
    pass; :meth:`from_pd` validates and builds one from a PD code.

    The index, the labels of a diagram built without them (arcs 1, 2, ... in
    the order of their first dart) and the link component count are worked
    out once, on first use, and shared read-only by every caller.  Equality
    and hashing see the ids, signs, labels and name.

    A dart is one integer: dart ``4 * i + s`` is slot s of the i-th crossing
    by position (not by id), and every topology value here is indexed by
    it.  Faces are the orbits of :attr:`face_next` and strands the orbits of
    ``d -> dart_mates[d ^ 2]``.
    """

    def __init__(self, crossing_ids: tuple[int, ...], signs: tuple[int, ...],
                 mates: tuple[int, ...], name: str | None = None,
                 labels: tuple[int, ...] | None = None):
        vars(self).update(crossing_ids=crossing_ids, signs=signs, dart_mates=mates, name=name)
        if labels is not None:
            vars(self)["labels"] = labels
        _check_euler(self)

    def __setattr__(self, name, *value):  # also __delattr__
        raise AttributeError(f"Diagram is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if other is self:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return ((self.crossing_ids, self.signs, self.labels, self.name)
                == (other.crossing_ids, other.signs, other.labels, other.name))

    def __hash__(self):
        return hash((self.crossing_ids, self.signs, self.labels, self.name))

    def __repr__(self):
        return f"Diagram(crossings={self.crossings!r}, name={self.name!r})"

    @property
    def crossing_count(self) -> int:
        return len(self.crossing_ids)

    @property
    def crossings(self) -> tuple[Crossing, ...]:
        """The crossings as records, built afresh for library callers."""
        quads = zip(*[iter(self.labels)] * 4)  # four labels per crossing
        return tuple(map(Crossing._make, zip(self.crossing_ids, quads, self.signs)))

    @cached_property
    def index(self) -> Mapping[int, int]:
        """Crossing id -> position."""
        return MappingProxyType({c: i for i, c in enumerate(self.crossing_ids)})

    @cached_property
    def labels(self) -> tuple[int, ...]:
        """The arc label at each dart; arcs 1, 2, ... by first dart unless given."""
        return _renumber(range(len(self.dart_mates)), self.dart_mates)[1]

    @cached_property
    def link_component_count(self) -> int:
        """Number of link components; the crossing-free unknot counts as one."""
        return _component_count(self.dart_mates)

    @classmethod
    def from_pd(
        cls,
        pd: list[list[int]] | tuple,
        signs: list[int] | None = None,
        name: str | None = None,
    ) -> "Diagram":
        """Validate a PD code and build the diagram.

        Checks the quadruple shapes, the exactly-twice rule for arc labels,
        and the Euler formula once over the whole diagram: F - V = 2C for
        its C graph components holds exactly when V - E + F = 2 on each, and
        rejects non-planar or corrupted codes with the totals (``Euler
        formula violated (non-planar or corrupted code): V=4 E=8 F=6 over 2
        components``).
        When ``signs`` is omitted they are inferred; see module docstring.
        Errors come in that order: every shape, then the first label that
        is not a positive integer, then multiplicity, the signs' count and
        values, their coherence (see module docstring), and Euler.
        """
        for i, quad in enumerate(pd):
            if not isinstance(quad, (list, tuple)) or len(quad) != 4:
                got = len(quad) if isinstance(quad, (list, tuple)) else type(quad).__name__
                raise InvalidDiagramError(f"crossing {i}: expected 4 arc labels, got {got}")

        mates = _mate_darts(pd)

        if signs is None:
            signs = _infer_signs(pd, mates) if pd else []
        else:
            signs = list(signs)
            if len(signs) != len(pd):
                raise InvalidDiagramError(
                    f"signs list has {len(signs)} entries for {len(pd)} crossings"
                )
            for i, sign in enumerate(signs):
                if (type(sign) is not int and not _is_int(sign)) or sign not in (1, -1):
                    raise InvalidDiagramError(f"crossing {i}: sign must be +1 or -1, got {sign!r}")
            bad = _incoherent_dart(signs, mates) if pd else None
            if bad is not None:
                raise InvalidDiagramError(
                    f"signs orient no link (arc {pd[bad >> 2][bad & 3]} has no coherent "
                    "direction)"
                )

        return cls(tuple(range(len(pd))), tuple(signs), mates, name,
                   tuple(chain.from_iterable(pd)))


class RegionAnnotation(NamedTuple):
    """A user-declared generalized twist region, not yet validated."""

    crossing_ids: frozenset[int]
    strand_count: int
    half_twists: int


class DiagramDocument(NamedTuple):
    """A parsed input file: the diagram plus any region annotations."""

    diagram: Diagram
    annotations: tuple[RegionAnnotation, ...]
    warnings: tuple[str, ...] = ()


# ============================================================================
# Parsing and serialization
# ============================================================================


def parse_document(text: str, *, allow_unknown_keys: bool = False) -> DiagramDocument:
    """Parse an input file (object form or bare PD array).

    Unknown keys are rejected unless ``allow_unknown_keys`` is set, in which
    case they are reported in ``warnings`` instead.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise DiagramSyntaxError(
            f"not valid JSON: {e.msg} at line {e.lineno} column {e.colno}", position=e.pos
        ) from e
    except (RecursionError, ValueError) as e:
        # Nesting too deep to decode, or an integer literal too long to convert.
        raise DiagramSyntaxError(f"not valid JSON: {e}") from e

    if isinstance(data, list):
        data = {"pd": data}
    if not isinstance(data, dict):
        raise InvalidDiagramError(
            f"top level must be an object or a PD array, got {type(data).__name__}"
        )

    warnings: list[str] = []
    unknown = sorted(set(data) - _KNOWN_KEYS)
    if unknown:
        if not allow_unknown_keys:
            raise InvalidDiagramError(f"unknown keys: {', '.join(unknown)}")
        warnings.extend(f"ignoring unknown key {k!r}" for k in unknown)

    if "pd" not in data:
        raise InvalidDiagramError('missing required key "pd"')
    pd = data["pd"]
    if not isinstance(pd, list):
        raise InvalidDiagramError('"pd" must be an array of quadruples')

    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise InvalidDiagramError('"name" must be a string')

    signs = data.get("signs")
    if signs is not None and not isinstance(signs, list):
        raise InvalidDiagramError('"signs" must be an array of +1/-1')

    diagram = Diagram.from_pd(pd, signs, name)

    annotations = []
    regions = data.get("regions", [])
    if not isinstance(regions, list):
        raise InvalidDiagramError('"regions" must be an array')
    for i, region in enumerate(regions):
        if not isinstance(region, dict):
            raise InvalidDiagramError(f"region {i}: must be an object")
        unknown = sorted(set(region) - _KNOWN_REGION_KEYS)
        if unknown:
            if not allow_unknown_keys:
                raise InvalidDiagramError(f"region {i}: unknown keys: {', '.join(unknown)}")
            warnings.extend(f"region {i}: ignoring unknown key {k!r}" for k in unknown)
        try:
            crossings = region["crossings"]
            strands = region["strands"]
            half_twists = region["half_twists"]
        except KeyError as e:
            raise InvalidDiagramError(f"region {i}: missing key {e.args[0]!r}") from e
        if not isinstance(crossings, list) or not all(_is_int(c) for c in crossings):
            raise InvalidDiagramError(f'region {i}: "crossings" must be an array of crossing ids')
        if len(set(crossings)) != len(crossings):
            raise InvalidDiagramError(f"region {i}: duplicate crossing ids")
        for key, value in (("strands", strands), ("half_twists", half_twists)):
            if not _is_int(value):
                raise InvalidDiagramError(f'region {i}: "{key}" must be an integer')
        annotations.append(
            RegionAnnotation(
                crossing_ids=frozenset(crossings),
                strand_count=strands,
                half_twists=half_twists,
            )
        )

    return DiagramDocument(diagram=diagram, annotations=tuple(annotations), warnings=tuple(warnings))


def serialize_diagram(diagram: Diagram) -> str:
    """Serialize to the object form, always with explicit signs.

    Deterministic: the same diagram always yields the same bytes, and
    parse(serialize(parse(s))) == parse(s).  Written at a fixed shape, as
    ``json.dumps(doc, sort_keys=True)`` lays out ``{"name": ..., "pd": ...,
    "signs": ...}``, without "name" when it is None.
    """
    return _pd_text(diagram.name, diagram.signs, diagram.labels)


def _pd_text(name: str | None, signs: tuple[int, ...], labels: tuple[int, ...]) -> str:
    """The text :func:`serialize_diagram` writes for these name, signs and labels."""
    n = len(signs)
    name = "" if name is None else f'"name": {_str(name)}, '
    pd = ", ".join(["[%d, %d, %d, %d]"] * n) % labels
    signs = ", ".join(["%d"] * n) % signs
    return f'{{{name}"pd": [{pd}], "signs": [{signs}]}}'


# ============================================================================
# Validation internals
# ============================================================================


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _mate_darts(quads) -> tuple[int, ...]:
    """Check the arc labels and pair their darts, in one pass.

    Every label must be a positive integer (not a bool) used exactly twice;
    the result maps each integer dart 4*i + slot to the other end of its arc.
    """
    mates = [-1] * (4 * len(quads))
    first: dict[int, int] = {}
    dart = 0
    for quad in quads:
        for arc in quad:
            if (type(arc) is not int and not _is_int(arc)) or arc < 1:
                raise InvalidDiagramError(f"arc labels must be positive integers, got {arc!r}")
            other = first.setdefault(arc, dart)
            if other != dart and mates[other] < 0:
                mates[other] = dart
                mates[dart] = other
            dart += 1
    # A label used once, or more than twice, leaves a dart without a mate.
    if -1 in mates:
        counts = Counter(arc for quad in quads for arc in quad)
        bad = sorted(a for a, n in counts.items() if n != 2)
        detail = ", ".join(f"{a} (x{counts[a]})" for a in bad[:8])
        raise InvalidDiagramError(f"each arc label must appear exactly twice; offenders: {detail}")
    return tuple(mates)


def _splice(mates, removed) -> tuple[dict[int, int], int]:
    """``{dart: new mate}`` once the crossings at positions ``removed`` are gone,
    and how many of their darts the walks through them entered.

    Each dart outside ``removed`` whose arc ends on one of them follows its
    strand straight through (``dart ^ 2``) to where it comes out; a strand
    that closes up inside ``removed`` vanishes, and only then (or when a
    walk stops at an unwired end) is the count below ``4 * len(removed)``.
    """
    relinked = {}
    covered = 0
    for p in sorted(removed):
        for dart in range(4 * p, 4 * p + 4):
            end = mates[dart]
            if end >= 0 and end >> 2 not in removed:  # an unwired end stays unwired
                out = dart
                while out >> 2 in removed:
                    out = mates[out ^ 2]
                    covered += 1
                relinked[end] = out
    return relinked, covered


def _renumber(darts, mates) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The mates and arc labels of the darts listed in ``darts`` (indices into
    ``mates``), each renumbered by its place in the list, and the arcs
    labelled 1, 2, ... by first dart in the same pass.  Every mate of a
    listed dart must be listed."""
    at = [-1] * len(mates)  # old dart -> new dart, for the first dart of an arc
    new_mates = [0] * len(darts)
    labels = [0] * len(darts)
    arc = 0
    for k, d in enumerate(darts):
        j = at[mates[d]]
        if j < 0:  # the arc's first dart
            at[d] = k
            arc += 1
            labels[k] = arc
        else:
            new_mates[j] = k
            new_mates[k] = j
            labels[k] = labels[j]
    return tuple(new_mates), tuple(labels)


def _component_count(mates) -> int:
    """Link components, each two strand orbits of ``d -> mates[d ^ 2]``; at least one."""
    return max(1, _orbits([mates[d ^ 2] for d in range(len(mates))])[1] // 2)


def _orbits(step) -> tuple[list[int], int]:
    """Orbit number of each dart under the permutation ``step``, and the count.

    Orbits are numbered in the order of their smallest dart.
    """
    orbit = [-1] * len(step)
    count = start = 0
    try:
        while True:
            dart = start = orbit.index(-1, start)
            while orbit[dart] < 0:
                orbit[dart] = count
                dart = step[dart]
            count += 1
    except ValueError:  # every dart is labelled
        return orbit, count


def _check_euler(diagram: Diagram) -> None:
    """Set a new diagram's ``face_next`` and ``is_connected``, checking Euler.

    ``face_next`` maps each integer dart to the next dart of its face walk,
    which crosses the arc, then rotates one slot counterclockwise.  A dart d
    lies on a face with two corners exactly when ``face_next[d] != d`` and
    ``face_next[face_next[d]] == d``.  Each of the C components of the
    underlying graph has V - E + F = 2 - 2g <= 2, with E = 2V and genus g,
    so the code is planar exactly when F - V = 2C over the whole diagram.
    The error gives the totals: ``Euler formula violated (non-planar or
    corrupted code): V=4 E=8 F=6 over 2 components``.
    """
    mates = diagram.dart_mates
    step = tuple([m - 3 if m & 3 == 3 else m + 1 for m in mates])
    seen = bytearray(len(diagram.crossing_ids))  # by position
    count = 0
    start = seen.find(0)
    while start >= 0:  # one pass per graph component
        count += 1
        seen[start] = 1
        stack = [start]
        while stack:
            d = 4 * stack.pop()
            for k in (mates[d] >> 2, mates[d + 1] >> 2, mates[d + 2] >> 2, mates[d + 3] >> 2):
                if not seen[k]:
                    seen[k] = 1
                    stack.append(k)
        start = seen.find(0, start)
    vars(diagram).update(face_next=step, is_connected=count <= 1)
    v, f = len(seen), _orbits(step)[1]
    if f - v != 2 * count:
        raise InvalidDiagramError(
            "Euler formula violated (non-planar or corrupted code): "
            f"V={v} E={2 * v} F={f} over {count} component{'s' * (count != 1)}"
        )


# ============================================================================
# Sign inference
# ============================================================================


# The slots of a crossing of each sign where the oriented strand enters:
# the under-strand at slot 0, the over-strand at slot 3 (+1) or 1 (-1).
_ENTERS = {1: b"\1\0\0\1", -1: b"\1\1\0\0"}
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")


def _incoherent_dart(signs, mates: tuple[int, ...]) -> int | None:
    """The first dart, in dart order, of an arc whose ends both enter or both leave.

    ``signs`` orient the link exactly when every arc joins a slot where its
    strand leaves one crossing to a slot where it enters the next; then
    this returns None.  Needs at least one crossing.
    """
    enters = b"".join(map(_ENTERS.__getitem__, signs))
    if bytes(itemgetter(*mates)(enters)) == enters.translate(_FLIP):
        return None
    return next(d for d, e in enumerate(mates) if enters[d] == enters[e])


def _infer_signs(quads: list[tuple], mates: tuple[int, ...]) -> list[int]:
    """Infer crossing signs from the strand orbits.

    Each orbit of ``d -> mates[d ^ 2]`` lists the darts where one strand,
    run one way, enters a crossing.  Its smallest under-slot dart orients
    it (slot 0 forward, slot 2 backward), and crossing i is positive when
    the orbit through dart 4i + 3 runs forward.  A crossing whose
    over-strand meets no under-slot is positive when its slot-1 label b
    follows its slot-3 label d along the component, negative when d
    follows b.  Signs that orient no link are refused, naming the arc of
    :func:`_incoherent_dart`.
    """
    strand, count = _orbits([mates[d ^ 2] for d in range(len(mates))])
    runs = [0] * count  # +1 with the orientation, -1 against it, 0 not known
    for d in range(0, len(mates), 2):  # the under-slot darts, smallest first
        if not runs[strand[d]]:
            runs[strand[d]] = 1 - (d & 2)
    signs = [runs[strand[d]] for d in range(3, len(mates), 4)]

    if 0 in signs:
        # A strand orbit meets each arc of its component once: its labels
        # are the component's, and the other direction's orbit repeats them.
        labels: list[list[int]] = [[] for _ in range(count)]
        for d, k in enumerate(strand):
            if not runs[k]:
                labels[k].append(quads[d >> 2][d & 3])
        next_label: dict[int, int] = {}  # along the same component
        for group in labels:
            group.sort()
            next_label.update(zip(group, group[1:] + group[:1]))
        for ci, sign in enumerate(signs):
            if sign:
                continue
            b, d = quads[ci][1], quads[ci][3]
            if next_label[d] == b:
                signs[ci] = 1
            elif next_label[b] == d:
                signs[ci] = -1
            else:
                raise InvalidDiagramError(
                    f"cannot infer the sign of crossing {ci} from arc labels; "
                    'supply explicit "signs"'
                )

    bad = _incoherent_dart(signs, mates)
    if bad is not None:
        raise InvalidDiagramError(
            f"cannot infer consistent signs (arc {quads[bad >> 2][bad & 3]} has no coherent "
            'direction); supply explicit "signs"'
        )
    return signs
