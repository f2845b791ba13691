"""Property-based tests: hypothesis for shrinkable fuzzing, plus moderate
runs of the bulk seeded suites (the acceptance test runs those at full size).
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import props
from auglink.augment import filling_slope
from auglink.diagram import Diagram, _orbits
from auglink.errors import InvalidDiagramError
from auglink.geometry import (
    augmentation_volume_lower_bound,
    euler_char_cut,
    filled_volume_lower_bound,
    geodesic_certificate,
    normalized_length,
    normalized_length_lower_bound,
    six_theorem_certificate,
    slope_length_lower_bound,
)
from auglink.twist import resolve_selection

from braid import braid_closure
from oracle import oracle_link_components


@given(st.integers(min_value=0, max_value=10**6))
def test_length_squared_identity(c):
    length = slope_length_lower_bound(c)
    target = c * c + 0.25
    assert abs(length * length - target) <= math.ulp(target)


@given(
    st.integers(min_value=1, max_value=10**6),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_normalized_length_attains_bound_at_slope_ratio(c, o_len):
    bound = normalized_length_lower_bound(c)
    at_minimum = normalized_length(c * o_len, o_len, c)
    assert abs(at_minimum - bound) <= 1e-12 * bound


@given(
    st.integers(min_value=1, max_value=10**6),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_normalized_length_never_beats_bound(c, p_len, o_len):
    value = normalized_length(p_len, o_len, c)
    assert value >= normalized_length_lower_bound(c) * (1.0 - 1e-12)


@given(st.integers(min_value=0, max_value=10**6))
def test_filling_slope_round_trip(c):
    n, eps = filling_slope(c)
    assert eps == c % 2
    assert 2 * n - eps == c


@given(st.integers(min_value=0, max_value=10**5), st.integers(min_value=1, max_value=10**4))
def test_bounds_are_monotone(c, tw):
    assert slope_length_lower_bound(c + 1) > slope_length_lower_bound(c)
    assert normalized_length_lower_bound(c + 1) > normalized_length_lower_bound(c)
    assert augmentation_volume_lower_bound(tw + 1) > augmentation_volume_lower_bound(tw)
    assert euler_char_cut(tw + 1) < euler_char_cut(tw)
    if c >= 7 and tw >= 2:
        lower = filled_volume_lower_bound(tw, c)
        higher = filled_volume_lower_bound(tw, c + 1)
        assert lower is not None and higher is not None and higher > lower


@given(st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=6))
def test_certificates_monotone_in_half_twists(cs):
    if six_theorem_certificate(cs, True).certified:
        assert six_theorem_certificate([c + 1 for c in cs], True).certified
    if geodesic_certificate(cs, True).certified:
        assert geodesic_certificate([c + 1 for c in cs], True).certified


@given(st.lists(st.integers(min_value=1, max_value=10**6), min_size=1, max_size=40))
@example([6, 10, 15])  # 5/30 + 3/30 + 2/30 = 1/3: the sum is normalized
@example(list(range(1, 395)))  # a 394-circle diagram
def test_geodesic_sum_is_the_sum_of_fractions(cs):
    total = geodesic_certificate(cs, True).sum_of_inverses
    expected = sum(Fraction(1, c) for c in cs)
    assert (total.numerator, total.denominator) == (expected.numerator, expected.denominator)
    assert str(total) == str(expected)


@st.composite
def braid_words(draw):
    strands = draw(st.integers(min_value=2, max_value=4))
    length = draw(st.integers(min_value=strands - 1, max_value=10))
    word = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=strands - 1),
                st.sampled_from((1, -1)),
            ),
            min_size=length,
            max_size=length,
        )
    )
    letters = [j * s for j, s in word]
    # Guarantee connectivity: every generator appears at least once.
    for j in range(1, strands):
        if j not in {abs(x) for x in letters}:
            letters.append(j * draw(st.sampled_from((1, -1))))
    return letters, strands


@given(braid_words())
@settings(max_examples=300, deadline=None)
def test_selection_partitions_random_braid_closures(word_and_strands):
    word, strands = word_and_strands
    pd, signs = braid_closure(word, strands)
    diagram = Diagram.from_pd(pd, signs)
    reduced, selection = resolve_selection(diagram)
    seen: set[int] = set()
    for region in selection.regions:
        assert region.sign in (-1, 1)
        ids = set(region.crossing_ids)
        assert not ids & seen
        seen |= ids
    assert seen == set(reduced.crossing_ids)


@given(braid_words())
@settings(max_examples=300, deadline=None)
def test_euler_on_random_braid_closures(word_and_strands):
    word, strands = word_and_strands
    pd, signs = braid_closure(word, strands)
    diagram = Diagram.from_pd(pd, signs)
    assert diagram.is_connected
    assert _orbits(diagram.face_next)[1] == diagram.crossing_count + 2
    assert diagram.link_component_count == oracle_link_components(pd)


@given(braid_words())
@settings(max_examples=300, deadline=None)
@example(([1, -1, 1, -1], 2))  # an over-only component: the fallback decides
def test_inferred_signs_of_unsigned_braid_closures(word_and_strands):
    """Without "signs", a closure gets its braid's signs or asks for them."""
    word, strands = word_and_strands
    pd, signs = braid_closure(word, strands)
    try:
        diagram = Diagram.from_pd(pd)
    except InvalidDiagramError as e:
        assert 'supply explicit "signs"' in str(e)
        return
    assert [x.sign for x in diagram.crossings] == signs


@pytest.mark.parametrize("suite", props.ALL_SUITES, ids=lambda s: s.__name__)
def test_bulk_suite_quick(suite):
    assert suite(2500) == 2500
