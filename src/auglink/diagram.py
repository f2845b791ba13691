"""Planar diagram codes: parsing, validation, faces, strand components.

A diagram is a list of crossings; each crossing carries a quadruple of arc
labels read counterclockwise starting at the incoming under-strand, plus a
sign (+1/-1).  Arc labels are positive integers and every label appears
exactly twice in the whole code.  The implicit cyclic order of each quadruple
is the rotation system of the underlying 4-valent plane graph.

Faces and strands come from two permutations of the integer darts (dart
``4 * i + s`` is slot s of the i-th crossing): the faces are the orbits of
``face_next`` (cross the arc, turn one slot counterclockwise), and the
strands are the orbits of ``d -> dart_mates[d ^ 2]`` (pass straight through
the crossing, then cross the arc), two per link component, one each way.

Every diagram is built by ``Diagram._with_mates`` from the dart mates its
caller already knows: ``from_pd`` pairs them while checking the labels, and
the R-II reduction and the export relink them with :func:`_splice`.

Slot conventions (slot = index within the quadruple):

* slot 0 = incoming under-strand, slot 2 = outgoing under-strand;
* slots 1 and 3 carry the over-strand: a positive crossing enters at slot 3
  and leaves at slot 1, a negative one enters at slot 1 and leaves at slot 3.

Input files are JSON, either a bare PD array or an object::

    {"name": "trefoil",
     "pd": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]],
     "signs": [1, 1, 1],
     "regions": [{"crossings": [0, 1, 2], "strands": 2, "half_twists": 3}]}

``signs`` is optional; without it the parser infers signs assuming the
standard convention that labels are numbered consecutively along each
oriented component.  ``regions`` declares generalized twist regions (see
:mod:`auglink.twist`); ``crossings`` lists 0-based crossing ids.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
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


class _CrossingFields(NamedTuple):
    id: int
    arcs: tuple[int, int, int, int]
    sign: int


class Crossing(_CrossingFields):
    """One 4-valent vertex of the diagram.

    ``arcs`` lists the incident arc labels counterclockwise from the incoming
    under-strand.  ``id`` is stable across operations that drop other
    crossings, so region annotations keep meaning after a reduction.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        arcs = self.arcs
        if len(arcs) != 4:
            raise InvalidDiagramError(
                f"crossing {self.id}: expected 4 arc labels, got {len(arcs)}"
            )
        if any((type(x) is not int and not _is_int(x)) or x < 1 for x in arcs):
            raise InvalidDiagramError(
                f"crossing {self.id}: arc labels must be positive integers, got {arcs!r}"
            )
        _check_sign(self.id, self.sign)
        return self


class Diagram:
    """An immutable planar diagram code. Build one with :meth:`from_pd`.

    The topology (crossing ids and index, dart mates, the face permutation,
    graph components, the link component count) is worked out once per
    diagram, on first use, and shared read-only by every caller; copy a
    value before mutating it.  Equality and hashing see only the crossings
    and the name.

    A dart is one integer: dart ``4 * i + s`` is slot s of ``crossings[i]``,
    the i-th crossing by position (not by id), and every topology value here
    is indexed by it.  Faces are the orbits of :attr:`face_next` and strands
    the orbits of ``d -> dart_mates[d ^ 2]``.
    """

    def __init__(self, crossings: tuple[Crossing, ...], name: str | None = None):
        vars(self).update(crossings=crossings, name=name)

    def __setattr__(self, name, *value):  # also __delattr__
        raise AttributeError(f"Diagram is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.crossings, self.name) == (other.crossings, other.name)

    def __hash__(self):
        return hash((self.crossings, self.name))

    def __repr__(self):
        return f"Diagram(crossings={self.crossings!r}, name={self.name!r})"

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @cached_property
    def crossing_ids(self) -> tuple[int, ...]:
        return tuple(x.id for x in self.crossings)

    @cached_property
    def index(self) -> Mapping[int, int]:
        """Crossing id -> position in :attr:`crossings`."""
        return MappingProxyType({x.id: i for i, x in enumerate(self.crossings)})

    def crossing(self, crossing_id: int) -> Crossing:
        try:
            return self.crossings[self.index[crossing_id]]
        except KeyError:
            raise KeyError(f"no crossing with id {crossing_id}") from None

    @cached_property
    def dart_mates(self) -> tuple[int, ...]:
        """Each integer dart -> the other end of its arc."""
        return _mate_darts([x.arcs for x in self.crossings])

    @cached_property
    def face_next(self) -> tuple[int, ...]:
        """Each integer dart -> the next dart of its face walk.

        The walk crosses the arc, then rotates one slot counterclockwise.  A
        dart d lies on a face with two corners exactly when
        ``face_next[d] != d`` and ``face_next[face_next[d]] == d``.
        """
        return tuple(map(_next_slot, self.dart_mates))

    @cached_property
    def _component_of(self) -> tuple[int, ...]:
        """Graph component index of each crossing, by position.

        Components are numbered in the order of their first crossing.
        """
        mates = self.dart_mates
        component = [-1] * len(self.crossings)
        count = 0
        for i in range(len(component)):
            if component[i] >= 0:
                continue
            component[i] = count
            stack = [i]
            while stack:
                j = stack.pop()
                for dart in range(4 * j, 4 * j + 4):
                    k = mates[dart] >> 2
                    if component[k] < 0:
                        component[k] = count
                        stack.append(k)
            count += 1
        return tuple(component)

    @cached_property
    def link_component_count(self) -> int:
        """Number of link components; the crossing-free unknot counts as one.

        Each component is two strand orbits, one per direction.
        """
        if not self.crossings:
            return 1
        mates = self.dart_mates
        return _orbits([mates[d ^ 2] for d in range(len(mates))])[1] // 2

    @property
    def is_connected(self) -> bool:
        """Connectivity of the underlying 4-valent graph (split link test)."""
        return not any(self._component_of)

    @classmethod
    def from_pd(
        cls,
        pd: list[list[int]] | tuple,
        signs: list[int] | None = None,
        name: str | None = None,
    ) -> "Diagram":
        """Validate a PD code and build the diagram.

        Checks the quadruple shapes, the exactly-twice rule for arc labels,
        and the Euler formula V - E + F = 2 on every connected component of
        the underlying graph (which rejects non-planar or corrupted codes).
        When ``signs`` is omitted they are inferred; see module docstring.
        Errors come in that order: every shape, then the first label that
        is not a positive integer, then multiplicity, signs and Euler.
        """
        quads = []
        for i, quad in enumerate(pd):
            if not isinstance(quad, (list, tuple)) or len(quad) != 4:
                got = len(quad) if isinstance(quad, (list, tuple)) else type(quad).__name__
                raise InvalidDiagramError(f"crossing {i}: expected 4 arc labels, got {got}")
            quads.append(tuple(quad))

        mates = _mate_darts(quads)

        if signs is None:
            signs = _infer_signs(quads, mates) if quads else []
        else:
            signs = list(signs)
            if len(signs) != len(quads):
                raise InvalidDiagramError(
                    f"signs list has {len(signs)} entries for {len(quads)} crossings"
                )
            for i, sign in enumerate(signs):
                _check_sign(i, sign)

        return cls._with_mates(tuple(map(_crossing, range(len(quads)), quads, signs)), mates, name)

    @classmethod
    def _with_mates(cls, crossings: tuple[Crossing, ...], mates: tuple[int, ...],
                    name: str | None) -> "Diagram":
        """The diagram of ``crossings`` whose darts sharing a label ``mates`` pairs.

        Raises :class:`InvalidDiagramError` when Euler's formula fails.
        """
        diagram = cls(crossings=crossings, name=name)
        vars(diagram)["dart_mates"] = mates
        _check_euler(diagram)
        return diagram


class DiagramDocument(NamedTuple):
    """A parsed input file: the diagram plus any region annotations."""

    diagram: Diagram
    annotations: tuple  # of auglink.twist.RegionAnnotation
    warnings: tuple[str, ...] = ()


# ============================================================================
# Parsing and serialization
# ============================================================================


def parse_document(text: str, *, allow_unknown_keys: bool = False) -> DiagramDocument:
    """Parse an input file (object form or bare PD array).

    Unknown keys are rejected unless ``allow_unknown_keys`` is set, in which
    case they are reported in ``warnings`` instead.
    """
    from .twist import RegionAnnotation  # deferred: twist imports this module

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
    parse(serialize(parse(s))) == parse(s).
    """
    doc: dict = {
        "pd": [list(x.arcs) for x in diagram.crossings],
        "signs": [x.sign for x in diagram.crossings],
    }
    if diagram.name is not None:
        doc["name"] = diagram.name
    return json.dumps(doc, sort_keys=True)


# ============================================================================
# Validation internals
# ============================================================================


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _crossing(id: int, arcs: tuple[int, int, int, int], sign: int) -> Crossing:
    """A crossing whose labels and sign its builder has already checked."""
    return tuple.__new__(Crossing, (id, arcs, sign))


def _check_sign(crossing_id: int, sign) -> None:
    if (type(sign) is not int and not _is_int(sign)) or sign not in (1, -1):
        raise InvalidDiagramError(f"crossing {crossing_id}: sign must be +1 or -1, got {sign!r}")


class _DisjointSets:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


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


def _splice(mates, removed) -> dict[int, int]:
    """``{dart: new mate}`` once the crossings at positions ``removed`` are gone.

    Each dart outside ``removed`` whose arc ends on one of them follows its
    strand straight through (``dart ^ 2``) to where it comes out; a strand
    that closes up inside ``removed`` vanishes.
    """
    relinked = {}
    for p in sorted(removed):
        for dart in range(4 * p, 4 * p + 4):
            end = mates[dart]
            if end >> 2 not in removed:
                out = dart
                while out >> 2 in removed:
                    out = mates[out ^ 2]
                relinked[end] = out
    return relinked


def _orbits(step) -> tuple[list[int], int]:
    """Orbit number of each dart under the permutation ``step``, and the count.

    Orbits are numbered in the order of their smallest dart.
    """
    orbit = [-1] * len(step)
    count = 0
    for start in range(len(step)):
        if orbit[start] < 0:
            dart = start
            while orbit[dart] < 0:
                orbit[dart] = count
                dart = step[dart]
            count += 1
    return orbit, count


def _check_euler(diagram: Diagram) -> None:
    if not diagram.crossings:
        return
    component = diagram._component_of
    v = [0] * (max(component) + 1)
    f = [0] * len(v)
    for k in component:
        v[k] += 1
    faces = _orbits(diagram.face_next)[0]
    for dart in {face: dart for dart, face in enumerate(faces)}.values():  # one dart per face
        f[component[dart >> 2]] += 1
    for k in range(len(v)):
        e = 2 * v[k]  # four slot endpoints per crossing, two per arc
        if v[k] - e + f[k] != 2:
            crossings = sorted(x.id for x, j in zip(diagram.crossings, component) if j == k)
            raise InvalidDiagramError(
                "Euler formula violated (non-planar or corrupted code): "
                f"component with crossings {crossings} has V={v[k]} E={e} F={f[k]}"
            )


# ============================================================================
# Sign inference
# ============================================================================


def _infer_signs(quads: list[tuple], mates: tuple[int, ...]) -> list[int]:
    """Infer crossing signs from arc labels.

    Two stages.  First, orientation propagation: slot 0 is always an inflow
    and slot 2 an outflow, so every arc touching an under-slot has a forced
    direction; pushing directions across arcs pins down the over-slot roles
    (hence the sign) of every crossing they touch, transitively.  Second, any
    crossing still free gets the standard consecutive-numbering reading: for
    over pair (b, d) = (slot 1, slot 3), the crossing is positive when b is
    d's successor along its component.  A final pass checks that every arc
    ends up with one head and one tail.
    """
    n = len(quads)
    # (crossing, slot) of both ends of each arc, in label first-appearance order.
    arcs = [(d >> 2, d & 3, e >> 2, e & 3) for d, e in enumerate(mates) if d < e]

    signs: dict[int, int] = {}

    def role(ci: int, slot: int) -> str | None:
        # "in" / "out" / None when it hinges on an unknown sign
        if slot == 0:
            return "in"
        if slot == 2:
            return "out"
        sign = signs.get(ci)
        if sign is None:
            return None
        if slot == 3:
            return "in" if sign > 0 else "out"
        return "out" if sign > 0 else "in"

    changed = True
    while changed:
        changed = False
        for c1, s1, c2, s2 in arcs:
            r1, r2 = role(c1, s1), role(c2, s2)
            if (r1 is None) != (r2 is None):
                # The free end is an over-slot of a crossing with no sign yet:
                # record the sign that gives it the role opposite the known end's.
                ci, slot, known = (c2, s2, r1) if r2 is None else (c1, s1, r2)
                signs[ci] = 1 if (slot == 3) == (known == "out") else -1
                changed = True

    if len(signs) < n:
        # A strand orbit meets each arc of its component once: its labels
        # are the component's, and the other direction's orbit repeats them.
        strand, count = _orbits([mates[d ^ 2] for d in range(len(mates))])
        labels: list[list[int]] = [[] for _ in range(count)]
        for d, k in enumerate(strand):
            labels[k].append(quads[d >> 2][d & 3])
        next_label: dict[int, int] = {}  # along the same component
        for group in labels:
            group.sort()
            next_label.update(zip(group, group[1:] + group[:1]))
        for ci in range(n):
            if ci in signs:
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

    for c1, s1, c2, s2 in arcs:
        if sorted((role(c1, s1), role(c2, s2))) != ["in", "out"]:
            raise InvalidDiagramError(
                f"cannot infer consistent signs (arc {quads[c1][s1]} has no coherent "
                'direction); supply explicit "signs"'
            )
    return [signs[ci] for ci in range(n)]
