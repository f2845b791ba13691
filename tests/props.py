"""Bulk randomized property suites, shared by the unit and acceptance tests.

Each ``check_*`` function runs ``n`` seeded-random cases, raises
AssertionError on the first violation, and returns the number of cases it
actually checked.  The unit tests run them at moderate size for quick
feedback; the acceptance test runs all six at 10^4 cases each under a wall
clock budget.  A fixed seed keeps failures reproducible; the companion
hypothesis tests cover the same properties with shrinking.
"""

from __future__ import annotations

import math
import random

from auglink.diagram import Diagram, _orbits
from auglink.geometry import (
    augmentation_volume_lower_bound,
    euler_char_cut,
    filled_volume_lower_bound,
    normalized_length,
    normalized_length_lower_bound,
    slope_length_lower_bound,
)
from auglink.augment import filling_slope
from auglink.twist import resolve_selection

from braid import braid_closure
from oracle import oracle_link_components


def check_length_exactness(n, seed=1001):
    """|length^2 - (c^2 + 1/4)| is at most 1 ulp of the exact target.

    For c <= 10^6 the target c^2 + 1/4 is an exact double, so the tolerance
    is purely the rounding of sqrt and one multiply (theoretical worst case
    1.5 ulp; 1 ulp observed over large sweeps — widen only with evidence).
    """
    rng = random.Random(seed)
    for _ in range(n):
        c = rng.randint(0, 10**6)
        length = slope_length_lower_bound(c)
        target = c * c + 0.25
        assert abs(length * length - target) <= math.ulp(target), (c, length)
    return n


def check_normalized_minimum(n, seed=1002):
    """normalized_length is minimized at p/o = c, where it equals sqrt(c)."""
    rng = random.Random(seed)
    for _ in range(n):
        c = rng.randint(1, 10**6)
        o = math.exp(rng.uniform(-6.0, 6.0))
        bound = normalized_length_lower_bound(c)
        at_min = normalized_length(c * o, o, c)
        assert abs(at_min - bound) <= 1e-12 * bound, (c, o, at_min, bound)
        p = math.exp(rng.uniform(-6.0, 6.0))
        anywhere = normalized_length(p, o, c)
        assert anywhere >= bound * (1.0 - 1e-12), (c, p, o, anywhere, bound)
    return n


def check_monotonicity(n, seed=1003):
    """Every bound is monotone in c and in tw, in the expected direction."""
    rng = random.Random(seed)
    for _ in range(n):
        c = rng.randint(0, 10**6)
        d = c + rng.randint(1, 1000)
        assert slope_length_lower_bound(c) < slope_length_lower_bound(d)
        assert normalized_length_lower_bound(c) < normalized_length_lower_bound(d)
        tw = rng.randint(1, 10**6)
        tw2 = tw + rng.randint(1, 1000)
        assert augmentation_volume_lower_bound(tw) < augmentation_volume_lower_bound(tw2)
        assert euler_char_cut(tw) > euler_char_cut(tw2)
        c_lo = rng.randint(7, 10**6)
        c_hi = c_lo + rng.randint(1, 1000)
        if tw == 1:
            tw = 2  # filled bound is 0 at tw = 1 regardless of c
            tw2 = tw + 1
        filled_lo = filled_volume_lower_bound(tw, c_lo)
        filled_hi = filled_volume_lower_bound(tw, c_hi)
        assert filled_lo is not None and filled_hi is not None
        assert filled_lo < filled_hi, (tw, c_lo, c_hi)
        more_regions = filled_volume_lower_bound(tw2, c_lo)
        assert more_regions is not None and filled_lo < more_regions
        assert filled_volume_lower_bound(tw, 6) is None
    return n


def check_filling_slope_roundtrip(n, seed=1004):
    """filling_slope(c) = (n, eps) with eps = c mod 2 and 2n - eps = c."""
    rng = random.Random(seed)
    for _ in range(n):
        c = rng.randint(0, 10**6)
        half, eps = filling_slope(c)
        assert eps == c % 2
        assert 2 * half - eps == c, (c, half, eps)
    return n


def _random_braid_diagram(rng):
    """A connected random braid-closure diagram.

    Connectivity needs every generator position 1..strands-1 to be crossed
    at least once (consecutive generators share a strand, so the whole
    closure is then one graph component); words missing one are redrawn.
    """
    while True:
        strands = rng.randint(2, 4)
        length = rng.randint(1, 10)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        if set(map(abs, word)) != set(range(1, strands)):
            continue
        pd, signs = braid_closure(word, strands)
        return Diagram.from_pd(pd, signs)


def check_selection_partition(n, seed=1005):
    """resolve_selection partitions the reduced diagram's crossings into
    disjoint uniform-sign regions."""
    rng = random.Random(seed)
    for _ in range(n):
        diagram = _random_braid_diagram(rng)
        reduced, selection = resolve_selection(diagram)
        seen: set[int] = set()
        for region in selection.regions:
            assert region.sign in (-1, 1)
            ids = set(region.crossing_ids)
            assert not ids & seen
            seen |= ids
            region_signs = {reduced.crossing(i).sign for i in ids}
            assert region_signs == {region.sign}
        assert seen == set(reduced.crossing_ids)
        assert selection.region_count == len(selection.regions)
    return n


def check_euler_faces(n, seed=1006):
    """Connected diagrams have F = V + 2 face orbits, and as many link
    components as the oracle counts."""
    rng = random.Random(seed)
    for _ in range(n):
        diagram = _random_braid_diagram(rng)
        assert diagram.is_connected
        assert _orbits(diagram.face_next)[1] == diagram.crossing_count + 2, diagram
        pd = [list(x.arcs) for x in diagram.crossings]
        assert diagram.link_component_count == oracle_link_components(pd), diagram
    return n


ALL_SUITES = (
    check_length_exactness,
    check_normalized_minimum,
    check_monotonicity,
    check_filling_slope_roundtrip,
    check_selection_partition,
    check_euler_faces,
)
