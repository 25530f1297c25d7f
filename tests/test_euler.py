from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tiltwall import (CollectionSpec, NumClass, POINT, chi_local, chi_p3,
                      chi_pair_p3, class_of_line_bundle, class_of_named,
                      discriminant, shift, spherical_twist_class, tensor_line)
from tiltwall.errors import DomainError

from conftest import integral_classes
from oracles import (chi_local_hrr_sum, chi_local_restriction_form,
                     chi_pair_ring_product)

Q = Fraction


def chi_line_oracle(d: int) -> int:
    """Independent cohomology count: chi(O(d)) on P^3."""
    if d >= 0:
        return comb(d + 3, 3)
    if d <= -4:
        return -comb(-d - 1, 3)
    return 0


def test_chi_of_line_bundles():
    for d in range(-8, 9):
        assert chi_p3(class_of_line_bundle(d)) == chi_line_oracle(d)


def test_chi_pair_between_line_bundles():
    # chi(O(a), O(b)) = chi(O(b-a))
    for a in range(-3, 4):
        for b in range(-3, 4):
            assert chi_pair_p3(class_of_line_bundle(a),
                               class_of_line_bundle(b)) == chi_line_oracle(b - a)


# rational classes with component denominators 1-12
rational_classes = st.tuples(
    *[st.fractions(min_value=-20, max_value=20, max_denominator=12)] * 4
).map(lambda c: NumClass(*c))


@given(rational_classes, rational_classes)
def test_chi_pair_matches_ring_product(v, w):
    assert chi_pair_p3(v, w) == chi_pair_ring_product(v, w)
    assert chi_pair_p3(v, v) == v.v0 ** 2 - 2 * discriminant(v)


def test_chi_pair_matches_ring_product_on_builtins():
    members = [c for name in ("beilinson4", "omega", "lines")
               for c in CollectionSpec.builtin_by_name(name).classes]
    for v in members:
        for w in members:
            assert chi_pair_p3(v, w) == chi_pair_ring_product(v, w)


def test_exceptional_squares():
    for name in ("O", "O(1)", "O(-3)", "T(-2)", "Omega(1)"):
        v = class_of_named(name)
        assert chi_pair_p3(v, v) == 1


def test_chi_local_base_values():
    o = class_of_line_bundle(0)
    assert chi_local(o, o) == 2
    assert chi_local(o, POINT) == 0
    assert chi_local(POINT, POINT) == 0


@given(integral_classes, integral_classes)
def test_chi_local_is_symmetric(v, w):
    assert chi_local(v, w) == chi_local(w, v)


# the same, with rank 0 and negative rank each drawn as often as positive
ranked_rational_classes = st.tuples(
    st.one_of(st.just(Q(0)),
              st.fractions(min_value=-20, max_value=0, max_denominator=12),
              st.fractions(min_value=0, max_value=20, max_denominator=12)),
    *[st.fractions(min_value=-20, max_value=20, max_denominator=12)] * 3
).map(lambda c: NumClass(*c))


@given(integral_classes, integral_classes)
def test_chi_local_restriction_oracle(v, w):
    # the two independent derivations of the local pairing agree
    assert chi_local(v, w) == chi_local_restriction_form(v, w)


@given(ranked_rational_classes, ranked_rational_classes)
def test_chi_local_restriction_oracle_on_rational_classes(v, w):
    # the restriction form holds off the lattice too
    value = chi_local(v, w)
    assert type(value) is Fraction
    assert value == chi_local_restriction_form(v, w)


# the members of the three built-in collections, twisted by O(k), -3 <= k <= 3
twisted_members = [tensor_line(c, k) for name in ("beilinson4", "omega", "lines")
                   for c in CollectionSpec.builtin_by_name(name).classes
                   for k in range(-3, 4)]

hrr_classes = st.one_of(ranked_rational_classes, st.sampled_from(twisted_members))


@given(hrr_classes, hrr_classes)
def test_chi_local_matches_hrr_sums(v, w):
    # the closed form against the sum it is derived from, chi(v, w) +
    # chi(w, v), evaluated by the explicit HRR form and by the ring product
    value = chi_local(v, w)
    assert type(value) is Fraction
    assert value == chi_local_hrr_sum(v, w)
    assert value == chi_pair_ring_product(v, w) + chi_pair_ring_product(w, v)


def test_spherical_twist_examples():
    o = class_of_line_bundle(0)
    # the twist of O by itself is the class of a triple shift of O
    assert spherical_twist_class(o, o) == shift(o, 3)
    assert spherical_twist_class(o, POINT) == POINT
    assert spherical_twist_class(o, o - POINT) == NumClass(-1, 0, 0, -1)


def test_spherical_twist_rejects_non_spherical():
    with pytest.raises(DomainError):
        spherical_twist_class(POINT, class_of_line_bundle(0))


# the exceptional objects O, T(-2), Omega(1), Omega2(2) twisted by O(k),
# -3 <= k <= 3: each has chi(S, S) = 1, so chi_local(S, S) = 2
spherical_classes = [tensor_line(class_of_named(name), k)
                     for name in ("O", "T(-2)", "Omega(1)", "Omega2(2)")
                     for k in range(-3, 4)]


@given(st.sampled_from(spherical_classes), ranked_rational_classes)
def test_spherical_twist_is_a_reflection(s, v):
    # T_S v = v - chi_local(S, v) S fixes the hyperplane chi_local(S, .) = 0
    # and negates S, so it is an involution that negates chi_local(S, .)
    tv = spherical_twist_class(s, v)
    assert spherical_twist_class(s, tv) == v
    assert chi_local(s, tv) == -chi_local(s, v)
    assert spherical_twist_class(s, s) == -s


@given(ranked_rational_classes)
def test_chi_local_square_is_rank_and_discriminant(s):
    assert chi_local(s, s) == 2 * s.v0 ** 2 - 4 * discriminant(s)


@given(integral_classes, integral_classes)
def test_spherical_twist_preserves_local_pairing(s, v):
    o = class_of_line_bundle(0)
    tv = spherical_twist_class(o, v)
    ts = spherical_twist_class(o, s)
    assert chi_local(ts, tv) == chi_local(s, v)
