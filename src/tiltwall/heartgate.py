"""Verifier for the explicit boundary stability-condition systems attached to
an exceptional collection on P^3: the geometric-region check for the quiver
heart, the four-part condition system for a collection with distinguished
last member, and the admissible interval of the extra charge parameter.

All verdicts carry exact rational (or surd) residuals, and the strict /
non-strict character of each inequality is preserved in the report.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cache
from typing import Optional, Sequence, Union

from ._record import Record
from .errors import DomainError, InputError, quote_token
from .euler import chi_pair_p3
from .numclass import (NumClass, class_of_named, is_integral_class,
                       parse_rational, shift)
from .surd import Surd
from .tiltcalc import (ChargeValue, ParamPoint, alpha_E_beta,
                       central_charge_3, mu12, slope_mu,
                       tilt_slope_nu, twisted_v)

Q = Fraction
Exact = Union[Fraction, Surd]


_BUILTINS = {
    "beilinson4": ("O(-1)", "T(-2)", "O", "O(1)"),
    "omega": ("O(-1)", "Omega2(2)", "Omega(1)", "O"),
    "lines": ("O(-3)", "O(-2)", "O(-1)", "O"),
}


class CollectionSpec(Record):
    """Four numerical classes forming an exceptional-collection datum, with
    the last one distinguished."""

    __slots__ = ("names", "classes", "builtin")

    def __init__(self, names: tuple[str, str, str, str],
                 classes: tuple[NumClass, NumClass, NumClass, NumClass],
                 builtin: str = "custom"):  # beilinson4 | omega | lines | custom
        mus = [slope_mu(c) for c in classes]
        if any(m.is_infinite for m in mus):
            raise DomainError("collection members must have nonzero rank")
        if not all(a < b for a, b in zip(mus, mus[1:])):
            raise DomainError("collection slopes must strictly increase")
        for name, c in zip(names, classes):
            if not is_integral_class(c):
                raise DomainError(f"class of {name} is not integral")
            if chi_pair_p3(c, c) != 1:
                raise DomainError(f"class of {name} is not Euler-exceptional")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "classes", classes)
        object.__setattr__(self, "builtin", builtin)

    @property
    def distinguished(self) -> NumClass:
        return self.classes[3]

    @staticmethod
    @cache
    def builtin_by_name(name: str) -> "CollectionSpec":
        """The named built-in collection, built and validated once."""
        names = _BUILTINS.get(name)
        if names is None:
            raise InputError(f"unknown builtin collection {quote_token(name)}")
        return CollectionSpec(names, tuple(class_of_named(n) for n in names), name)

    @staticmethod
    def from_json_dict(data: dict) -> "CollectionSpec":
        if not isinstance(data, dict):
            raise InputError("collection JSON needs an object with "
                             "'names' and 'classes'")
        names, rows = data.get("names"), data.get("classes")
        if not (isinstance(names, list) and len(names) == 4
                and all(isinstance(n, str) for n in names)):
            raise InputError("collection JSON needs 'names': a list of 4 strings")
        if not (isinstance(rows, list) and len(rows) == 4
                and all(isinstance(r, list) and len(r) == 4 for r in rows)):
            raise InputError("collection JSON needs 'classes': "
                             "a list of 4 lists of 4 components")
        classes = tuple(NumClass(*(parse_rational(str(c)) for c in row))
                        for row in rows)
        try:
            return CollectionSpec(tuple(names), classes)
        except DomainError as exc:
            raise InputError(f"invalid collection: {exc}") from exc

    @staticmethod
    def from_json_file(path: str) -> "CollectionSpec":
        """Read a collection JSON file; undecodable or malformed JSON, or
        nesting too deep to parse, raises InputError."""
        with open(path, encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except (ValueError, RecursionError) as exc:
                # ValueError covers JSONDecodeError and UnicodeDecodeError
                raise InputError(str(exc)) from exc
        return CollectionSpec.from_json_dict(data)

    def to_json_dict(self) -> dict:
        return {
            "names": list(self.names),
            "classes": [[str(c) for c in cls.components()] for cls in self.classes],
        }


class Condition(Record):
    """One inequality verdict: exact residual, pass flag, strictness."""

    __slots__ = ("name", "passed", "residual", "strict")

    def __init__(self, name: str, passed: bool, residual: Exact,
                 strict: bool = True):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "residual", residual)
        object.__setattr__(self, "strict", strict)

    def describe(self) -> str:
        op = ">" if self.strict else ">="
        return f"{self.name}: residual {self.residual} {op} 0 -> {'pass' if self.passed else 'FAIL'}"


class CheckReport(Record):
    """The verdicts of one condition system, with notes on what it leaves
    unchecked."""

    __slots__ = ("conditions", "notes")

    def __init__(self, conditions: tuple[Condition, ...],
                 notes: tuple[str, ...] = ()):
        object.__setattr__(self, "conditions", conditions)
        object.__setattr__(self, "notes", notes)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def to_json_dict(self) -> dict:
        d = {
            "passed": self.passed,
            "conditions": [
                {"name": c.name, "passed": c.passed, "residual": str(c.residual),
                 "strict": c.strict}
                for c in self.conditions
            ],
        }
        if self.notes:
            d["notes"] = list(self.notes)
        return d


def _cond(name: str, residual: Exact, strict: bool = True) -> Condition:
    ok = residual > 0 if strict else residual >= 0
    return Condition(name, bool(ok), residual, strict)


def simples_classes(spec: CollectionSpec) -> tuple[NumClass, ...]:
    """Classes of the quiver-heart simples: sign (-1)^j on the class of the
    (3-j)-th collection member."""
    return tuple(shift(spec.classes[3 - j], j) for j in range(4))


def cone_check(charges: Sequence[ChargeValue], mode: str = "half-plane") -> bool:
    """Half-turn cone membership of a finite set of charges.

    "half-plane": is there a closed half-turn arc, starting strictly inside
    the upper half-plane, containing every nonzero charge?  Equivalently:
    is there a direction u = (x, 1) with cross(u, z) >= 0 for all z, where
    charges on the positive real axis are never admissible.  Decided by
    exact rational feasibility.

    "strict-left": every charge satisfies Re < 0, or Re = 0 and Im < 0.
    A zero charge fails, since a stability function sends no nonzero
    object to 0.
    """
    if mode == "strict-left":
        return all(z.re < 0 or (z.re == 0 and z.im < 0) for z in charges)
    if mode != "half-plane":
        raise InputError(f"unknown cone mode {mode!r}")
    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None
    for z in charges:
        if z.im == 0:  # a zero charge passes here
            if z.re > 0:
                return False
            continue
        bound = z.re / z.im
        if z.im > 0:
            lower = bound if lower is None else max(lower, bound)
        else:
            upper = bound if upper is None else min(upper, bound)
    if lower is None or upper is None:
        return True
    return lower <= upper


def thm_region_check(beta, alpha) -> CheckReport:
    """Region and inequality system for the rank-four quiver heart at
    (beta, alpha): the fundamental strip, the small-width band, and the
    three slope inequalities of the four standard objects.  The point may
    lie off U, which the omega^2 > 0 row reports."""
    b, a = Fraction(beta), Fraction(alpha)
    w2 = 2 * a - b * b
    conds = (
        _cond("beta >= -1/2", b + Q(1, 2), strict=False),
        _cond("beta <= 0", -b, strict=False),
        _cond("omega^2 > 0", w2),
        _cond("omega^2 < 1/4", Q(1, 4) - w2),
        _cond("1 - 2*alpha > 2*beta - 2*beta^2", 1 - 2 * a - 2 * b + 2 * b * b),
        _cond("3*alpha > 2*beta + 3*beta^2", 3 * a - 2 * b - 3 * b * b),
        _cond("-1 + 2*alpha < 2*beta + 2*beta^2", 2 * b + 2 * b * b + 1 - 2 * a),
    )
    return CheckReport(conds)


def _static_conditions(spec: CollectionSpec, beta: Fraction
                       ) -> tuple[ParamPoint, list[Condition], Fraction]:
    """Conditions (1)-(3), the ones that do not involve the charge parameter
    a, at the point of the distinguished class's parabola over beta.

    Returns that point, the conditions and t = v3^b(E)/v1^b(E).  Raises
    DomainError when the point is not in U.
    """
    # CollectionSpec makes chi(E, E) = v0(E)^2 - 2 disc(E) = 1 with
    # v0(E) != 0, so disc(E) = (v0(E)^2 - 1)/2 >= 0 and mu12(E) exists
    E = spec.distinguished
    point = ParamPoint(beta, alpha_E_beta(E, beta))
    F0, F1, F2, _ = spec.classes
    mu = [slope_mu(c).value for c in spec.classes]
    mu1_E, _ = mu12(E)

    # (1)
    conds = [_cond("(1) beta < mu1(E)", mu1_E - beta),
             _cond("(1) beta > mu(F0)", beta - mu[0])]
    nu0 = tilt_slope_nu(F0, point)
    if nu0.is_infinite:
        conds.append(Condition("(1) F0 slope inequality", False, Q(0)))
    else:
        conds.append(_cond("(1) (v2(F0)-alpha*v0(F0))/v1^b(F0) < beta", beta - nu0.value))

    # (2) three-case slot condition; v1^b(F) = v0(F)*(mu(F) - beta) is
    # nonzero strictly inside a slot, so nu(F1) and nu(F2) are finite there
    if mu[0] < beta < mu[1]:
        conds.append(_cond("(2) mu(F0)<beta<mu(F1) and F1 inequality",
                           beta - tilt_slope_nu(F1, point).value))
    elif mu[1] <= beta <= mu[2]:
        conds.append(Condition("(2) mu(F1)<=beta<=mu(F2)", True, Q(0), strict=False))
    elif mu[2] < beta < mu[3]:
        conds.append(_cond("(2) mu(F2)<beta<mu(F3) and F2 inequality",
                           tilt_slope_nu(F2, point).value - beta))
    else:
        conds.append(Condition("(2) beta outside (mu(F0), mu(F3))", False, Q(0)))

    # (3); v1^b(E) = 0 would put beta at mu(E), where the parabola has
    # omega^2 = -disc(E)/v0(E)^2 <= 0, i.e. off U
    _, e_v1b, _, e_v3b = twisted_v(E, beta)
    t = e_v3b / e_v1b
    for name, F, want_less in (("F0", F0, True), ("F1", F1, False), ("F2", F2, True)):
        _, v1b, _, v3b = twisted_v(F, beta)
        resid = t * v1b - v3b if want_less else v3b - t * v1b
        op = "<" if want_less else ">"
        conds.append(_cond(f"(3) v3^b({name}) {op} t*v1^b({name})", resid))
    return point, conds, t


def general_condition_check(spec: CollectionSpec, beta, a0) -> CheckReport:
    """Evaluate the four-part boundary condition system at alpha taken on
    the distinguished class's parabola.

    Conditions: (1) the beta window against mu1 and the first member plus
    its slope inequality; (2) the three-case slot condition on the middle
    members; (3) the three twisted-degree inequalities; (4) strict-left
    cone membership of the four simples' charges at a0.  The gate
    a0 < v3^b(E)/v1^b(E) is reported alongside.  Raises DomainError, from
    ``ParamPoint``, when the point is not in U.
    """
    beta = Fraction(beta)
    a0 = Fraction(a0)
    point, conds, t = _static_conditions(spec, beta)
    charges = [central_charge_3(s, point, a0) for s in simples_classes(spec)]
    ok4 = cone_check(charges, mode="strict-left")
    conds.append(Condition("(4) simples charges strictly left", ok4, Q(0)))
    conds.append(_cond("gate a0 < v3^b(E)/v1^b(E)", t - a0))
    notes = ()
    if spec.builtin == "custom":
        notes = ("categorical exceptionality of a custom collection is not verified",)
    return CheckReport(tuple(conds), notes=notes)


def admissible_a_interval(spec: CollectionSpec, beta) -> Optional[tuple[Fraction, Fraction]]:
    """Open interval of charge parameters a for which the condition system
    can be satisfied: upper bound the gate value v3^b(E)/v1^b(E), lower
    bound the largest of the per-simple linear bounds.  None when
    conditions (1)-(3) fail or the interval is empty.  Raises DomainError,
    from ``ParamPoint``, when the point (beta, alpha) on the distinguished
    class's parabola is not in U."""
    beta = Fraction(beta)
    point, conds, upper = _static_conditions(spec, beta)
    if not all(c.passed for c in conds):
        return None
    lower: Optional[Fraction] = None
    for s in simples_classes(spec):
        # Re Z_a(s) = Re Z_0(s) + a*v1^b(s) < 0 bounds a by v3^b(s)/v1^b(s),
        # from below when v1^b(s) < 0.  When v1^b(s) > 0 the bound is from
        # above, and (3) puts it at or above the gate's, so it never binds.
        z = central_charge_3(s, point, 0)
        v1b = s.v1 - beta * s.v0
        if v1b < 0:
            bound = -z.re / v1b
            lower = bound if lower is None else max(lower, bound)
        elif v1b == 0 and not cone_check((z,), mode="strict-left"):
            return None
    if lower is None or lower >= upper:
        return None
    return lower, upper
