"""Numerical classes on P^3 (equivalently, on the local Calabi-Yau via
pushforward) with exact rational components, and the character ring they
live in: the twist by e^{xH}, the dual, the named classes and the lattice.

"Integral" means: in the Z-span of O, O_H, O_L, O_pt (the structure sheaves
of P^3, a plane, a line and a point), equivalently chi of every line-bundle
twist is an integer; in components, v0, v1, v2 + v1/2 and v3 + v2 + v1/3
are integers.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record
from .errors import InputError, quote_token


# Digits a rational literal may spell out, counting its mantissa digits plus
# the absolute value of its exponent.  A printed value has up to about eight
# times the digits of its inputs (Re Z3 = -v3^b + a*v1^b has the denominators
# of v0..v3, beta^3 and a), so 500 keeps every output under Python's
# 4300-digit limit on int-to-str conversion.
DIGIT_BUDGET = 500


def parse_rational(tok: str) -> Fraction:
    """Exact rational from a literal such as "3", "-3/4" or "1.5e-3".

    The digit count is made on the text, so a literal over DIGIT_BUDGET
    raises InputError before any integer is built."""
    mantissa, _, exponent = tok.lower().partition("e")
    size = sum(map(str.isdecimal, mantissa))
    if exponent:
        try:
            size += abs(int(exponent))
        except ValueError:  # malformed, or too long for int(): count its length
            size += len(exponent)
    if size > DIGIT_BUDGET:
        raise InputError(f"rational literal over the budget of {DIGIT_BUDGET} "
                         "digits (mantissa digits plus |exponent|)")
    try:
        return Fraction(tok.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational literal {quote_token(tok)}") from exc


class NumClass(Record):
    """Lattice point (v0, v1, v2, v3) = (H^3 ch0, H^2 ch1, H ch2, ch3)."""

    __slots__ = ("v0", "v1", "v2", "v3")

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
            raise InputError("class literal needs 4 components, "
                             f"got {quote_token(text)}")
        return NumClass(*(parse_rational(p) for p in parts))


POINT = NumClass(0, 0, 0, 1)


def twist_components(v: NumClass, x: Fraction
                     ) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Components of v * e^{xH}, truncated at degree 3, for a Fraction x;
    no NumClass is built, so hot paths can call it directly."""
    v0, v1, v2, v3 = v.v0, v.v1, v.v2, v.v3
    h = x * x / 2
    return (v0, v1 + x * v0, v2 + x * v1 + h * v0,
            v3 + x * v2 + h * v1 + h * x / 3 * v0)


def tensor_line(v: NumClass, m: int) -> NumClass:
    """Multiply the character by e^{mH}, truncated at degree 3."""
    return NumClass(*twist_components(v, Fraction(m)))


def class_of_line_bundle(d: int) -> NumClass:
    """Class of O(d): the degree-3 truncation of e^{dH}."""
    return tensor_line(NumClass(1, 0, 0, 0), d)


def dual(v: NumClass) -> NumClass:
    """Character of the derived dual: sign (-1)^i on each component."""
    return NumClass(v.v0, -v.v1, v.v2, -v.v3)


def dual_shifted(v: NumClass) -> NumClass:
    """Class of the (relative) dual composed with one shift: (-v0, v1, -v2, v3)."""
    return -dual(v)


# Euler sequence 0 -> O -> O(1)^4 -> T -> 0; Omega = dual(T), and
# Omega^2 = T(-4), so Omega2(2) = T(-2).
_T = 4 * class_of_line_bundle(1) - class_of_line_bundle(0)
_NAMED = {
    "O": class_of_line_bundle(0),
    "point": POINT,
    "O^x": class_of_line_bundle(0) - POINT,
    "T(-2)": tensor_line(_T, -2),
    "Omega2(2)": tensor_line(_T, -2),
    "Omega(1)": tensor_line(dual(_T), 1),
}


def class_of_named(name: str) -> NumClass:
    """Resolve one of the standard object names to its class.

    Accepted: "O(d)" (integer d, "O" = "O(0)"), "T(-2)", "Omega(1)",
    "Omega2(2)", "point", "O^x".
    """
    name = name.strip()
    if name in _NAMED:
        return _NAMED[name]
    if name.startswith("O(") and name.endswith(")"):
        try:
            d = int(name[2:-1])
        except ValueError as exc:
            raise InputError(
                f"bad line-bundle twist in {quote_token(name)}") from exc
        return class_of_line_bundle(d)
    raise InputError(f"unknown class name {quote_token(name)}")


def shift(v: NumClass, k: int) -> NumClass:
    """Class of the k-fold homological shift: sign (-1)^k."""
    return v if k % 2 == 0 else -v


def is_integral_class(v: NumClass) -> bool:
    """True iff v is in the Z-span of O, O_H, O_L, O_pt, whose coordinates
    are v0, v1, v2 + v1/2 and v3 + v2 + v1/3."""
    return (v.v0.denominator == 1 and v.v1.denominator == 1
            and (v.v2 + v.v1 / 2).denominator == 1
            and (v.v3 + v.v2 + v.v1 / 3).denominator == 1)
