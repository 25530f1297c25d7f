"""Numerical classes on P^3 (equivalently, on the local Calabi-Yau via
pushforward): the quadruple of hyperplane pairings of the Chern character,
with exact rational components throughout.

The lattice is generated by the line-bundle classes, so "integral" below
means: the Euler characteristic of every line-bundle twist is an integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError


def parse_rational(tok: str) -> Fraction:
    try:
        return Fraction(tok.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {tok!r}") from exc


@dataclass(frozen=True)
class NumClass:
    """Lattice point (v0, v1, v2, v3) = (H^3 ch0, H^2 ch1, H ch2, ch3)."""

    v0: Fraction
    v1: Fraction
    v2: Fraction
    v3: Fraction

    def __init__(self, v0, v1, v2, v3):
        object.__setattr__(self, "v0", Fraction(v0))
        object.__setattr__(self, "v1", Fraction(v1))
        object.__setattr__(self, "v2", Fraction(v2))
        object.__setattr__(self, "v3", Fraction(v3))

    def components(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.v0, self.v1, self.v2, self.v3)

    def __add__(self, other: "NumClass") -> "NumClass":
        return NumClass(self.v0 + other.v0, self.v1 + other.v1,
                        self.v2 + other.v2, self.v3 + other.v3)

    def __sub__(self, other: "NumClass") -> "NumClass":
        return NumClass(self.v0 - other.v0, self.v1 - other.v1,
                        self.v2 - other.v2, self.v3 - other.v3)

    def __neg__(self) -> "NumClass":
        return NumClass(-self.v0, -self.v1, -self.v2, -self.v3)

    def __rmul__(self, scalar) -> "NumClass":
        q = Fraction(scalar)
        return NumClass(q * self.v0, q * self.v1, q * self.v2, q * self.v3)

    def __str__(self) -> str:
        return ",".join(str(c) for c in self.components())

    @staticmethod
    def parse(text: str) -> "NumClass":
        """Parse the class literal "v0,v1,v2,v3" with exact fraction tokens."""
        parts = text.split(",")
        if len(parts) != 4:
            raise InputError(f"class literal needs 4 components, got {text!r}")
        return NumClass(*(parse_rational(p) for p in parts))


POINT = NumClass(0, 0, 0, 1)


def class_of_line_bundle(d: int) -> NumClass:
    """Class of O(d): the degree-3 truncation of e^{dH}."""
    d = Fraction(d)
    return NumClass(1, d, d * d / 2, d * d * d / 6)


def class_of_tangent_twisted() -> NumClass:
    # Euler sequence: ch(T) = 4 ch(O(1)) - 1, then twist by -2.
    t = 4 * class_of_line_bundle(1) - class_of_line_bundle(0)
    return tensor_line(t, -2)


def class_of_cotangent_twisted() -> NumClass:
    # Omega = T^dual (sign flip on odd components), then twist by +1.
    t = 4 * class_of_line_bundle(1) - class_of_line_bundle(0)
    omega = NumClass(t.v0, -t.v1, t.v2, -t.v3)
    return tensor_line(omega, 1)


def class_of_named(name: str) -> NumClass:
    """Resolve one of the standard object names to its class.

    Accepted: "O(d)" (integer d, "O" = "O(0)"), "T(-2)", "Omega(1)",
    "Omega2(2)", "point", "O^x".
    """
    name = name.strip()
    if name == "point":
        return POINT
    if name == "O^x":
        return class_of_line_bundle(0) - POINT
    if name == "T(-2)" or name == "Omega2(2)":
        return class_of_tangent_twisted()
    if name == "Omega(1)":
        return class_of_cotangent_twisted()
    if name == "O":
        return class_of_line_bundle(0)
    if name.startswith("O(") and name.endswith(")"):
        try:
            d = int(name[2:-1])
        except ValueError as exc:
            raise InputError(f"bad line-bundle twist in {name!r}") from exc
        return class_of_line_bundle(d)
    raise InputError(f"unknown class name {name!r}")


def shift(v: NumClass, k: int) -> NumClass:
    """Class of the k-fold homological shift: sign (-1)^k."""
    return v if k % 2 == 0 else -v


def tensor_line(v: NumClass, m: int) -> NumClass:
    """Multiply the character by e^{mH}, truncated at degree 3."""
    m = Fraction(m)
    return NumClass(
        v.v0,
        v.v1 + m * v.v0,
        v.v2 + m * v.v1 + m * m / 2 * v.v0,
        v.v3 + m * v.v2 + m * m / 2 * v.v1 + m * m * m / 6 * v.v0,
    )


def dual_shifted(v: NumClass) -> NumClass:
    """Class of the (relative) dual composed with one shift: (-v0, v1, -v2, v3)."""
    return NumClass(-v.v0, v.v1, -v.v2, v.v3)


def is_integral_class(v: NumClass) -> bool:
    """True iff chi(v tensor O(m)) is an integer for m = 0..3.

    chi of a twist is a cubic polynomial in m, so four samples decide
    integrality at every integer twist.
    """
    from .euler import chi_p3

    return all(chi_p3(tensor_line(v, m)).denominator == 1 for m in range(4))
