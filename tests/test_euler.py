from fractions import Fraction
from math import comb

import pytest
from hypothesis import given
import hypothesis.strategies as st

from tiltwall import (CollectionSpec, NumClass, POINT, chi_local, chi_p3,
                      chi_pair_p3, class_of_line_bundle, class_of_named,
                      discriminant, shift, spherical_twist_class)
from tiltwall.errors import DomainError

from conftest import integral_classes
from oracles import chi_local_restriction_form, chi_pair_ring_product

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


@given(integral_classes, integral_classes)
def test_chi_local_restriction_oracle(v, w):
    # the two independent derivations of the local pairing agree
    assert chi_local(v, w) == chi_local_restriction_form(v, w)


def test_spherical_twist_examples():
    o = class_of_line_bundle(0)
    # the twist of O by itself is the class of a triple shift of O
    assert spherical_twist_class(o, o) == shift(o, 3)
    assert spherical_twist_class(o, POINT) == POINT
    assert spherical_twist_class(o, o - POINT) == NumClass(-1, 0, 0, -1)


def test_spherical_twist_rejects_non_spherical():
    with pytest.raises(DomainError):
        spherical_twist_class(POINT, class_of_line_bundle(0))


@given(integral_classes, integral_classes)
def test_spherical_twist_preserves_local_pairing(s, v):
    o = class_of_line_bundle(0)
    tv = spherical_twist_class(o, v)
    ts = spherical_twist_class(o, s)
    assert chi_local(ts, tv) == chi_local(s, v)
