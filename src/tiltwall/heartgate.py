"""Verifier for the explicit boundary stability-condition systems attached to
an exceptional collection on P^3: the geometric-region check for the quiver
heart, the four-part condition system for a collection with distinguished
last member, and the admissible interval of the extra charge parameter.

A collection carries the constants that every check reads, computed once
when it is built: the members' slopes mu(F0..F3), and mu1(E) and
disc(E)/v0(E)^2 of the distinguished class E.  On E's parabola
omega^2 = (beta - mu(E))^2 - disc(E)/v0(E)^2, so a check takes omega^2
from these without building a point.  The condition system and the
interval read these and one table per beta, which twists each member F
once into (v1^b(F), v3^b(F), Im Z(F)) with
Im Z(F) = v2^b(F) - (alpha - beta^2/2)*v0(F) = v1^b(F)*(nu(F) - beta); the
simples S_j = (-1)^j F_{3-j} read the members' rows times (-1)^j.  Every
verdict carries an exact residual and its strictness.  Condition (4) is
``strictly_left`` on each simple's row; ``cone_check`` is the separate
half-turn cone test on a set of charges.
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
                       parse_rational, rational, shift)
from .surd import Surd
from .tiltcalc import (ChargeValue, ParamPoint, alpha_E_beta, discriminant,
                       mu12, slope_mu, twisted_v)

Exact = Union[Fraction, Surd]


_BUILTINS = {
    "beilinson4": ("O(-1)", "T(-2)", "O", "O(1)"),
    "omega": ("O(-1)", "Omega2(2)", "Omega(1)", "O"),
    "lines": ("O(-3)", "O(-2)", "O(-1)", "O"),
}


class CollectionSpec(Record):
    """Four numerical classes forming an exceptional-collection datum, with
    the last one distinguished, and the derived slopes ``_mu`` of the
    members, ``_mu1_E`` of the distinguished class E and ``_disc_v0sq_E``,
    disc(E)/v0(E)^2.

    The members must have nonzero rank and strictly increasing slopes, be
    integral with chi(F, F) = 1, and be semiorthogonal: chi(F_j, F_i) = 0
    for j > i, so that their chi Gram matrix is upper unitriangular, as
    for an exceptional collection.  The classes then form a basis of the
    lattice: Gram = C^T chi C has determinant 1 and chi is unimodular, so
    the matrix C of the classes has det C = +-1."""

    __slots__ = ("names", "classes", "builtin", "_mu", "_mu1_E", "_disc_v0sq_E")

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
        # chi(E, E) = v0(E)^2 - 2 disc(E) = 1 with v0(E) != 0, so
        # disc(E) = (v0(E)^2 - 1)/2 >= 0 and mu12(E) exists; a radicand
        # over the budget raises DomainError here
        E = classes[3]
        mu1_E = mu12(E)[0]
        for j in range(1, 4):
            for i in range(j):
                chi = chi_pair_p3(classes[j], classes[i])
                if chi != 0:
                    raise DomainError(f"chi({names[j]}, {names[i]}) = {chi}, "
                                      "not 0: the collection is not "
                                      "semiorthogonal")
        self._set(names, classes, builtin, tuple(m.value for m in mus),
                  mu1_E, discriminant(E) / (E.v0 * E.v0))

    @property
    def distinguished(self) -> NumClass:
        return self.classes[3]

    @staticmethod
    @cache
    def builtin_by_name(name: str) -> "CollectionSpec":
        """The named built-in collection, built and validated once and
        cached: every call with a name returns the same object."""
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


class Condition(Record):
    """One inequality verdict: exact residual, pass flag, strictness."""

    __slots__ = ("name", "passed", "residual", "strict")

    def __init__(self, name: str, passed: bool, residual: Exact,
                 strict: bool = True):
        self._set(name, passed, residual, strict)

    def describe(self) -> str:
        op = ">" if self.strict else ">="
        return f"{self.name}: residual {self.residual} {op} 0 -> {'pass' if self.passed else 'FAIL'}"


class CheckReport(Record):
    """The verdicts of one condition system, with notes on what it leaves
    unchecked."""

    __slots__ = ("conditions", "notes")

    def __init__(self, conditions: tuple[Condition, ...],
                 notes: tuple[str, ...] = ()):
        self._set(conditions, notes)

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


def strictly_left(re: Exact, im: Exact) -> bool:
    """Condition (4) on one charge: Re < 0, or Re = 0 and Im < 0.  A zero
    charge fails: a stability function sends no nonzero object to 0."""
    return re < 0 or (re == 0 and im < 0)


def cone_check(charges: Sequence[ChargeValue]) -> bool:
    """Half-turn cone membership: is there a closed half-turn arc, starting
    strictly inside the upper half-plane, containing every nonzero charge?
    That is a direction u = (x, 1) with cross(u, z) >= 0 for all z (a charge
    on the positive real axis never fits), decided in exact rationals."""
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
    b, a = rational(beta), rational(alpha)
    w2 = 2 * a - b * b
    conds = (
        _cond("beta >= -1/2", b + Fraction(1, 2), strict=False),
        _cond("beta <= 0", -b, strict=False),
        _cond("omega^2 > 0", w2),
        _cond("omega^2 < 1/4", Fraction(1, 4) - w2),
        _cond("1 - 2*alpha > 2*beta - 2*beta^2", 1 - 2 * a - 2 * b + 2 * b * b),
        _cond("3*alpha > 2*beta + 3*beta^2", 3 * a - 2 * b - 3 * b * b),
        _cond("-1 + 2*alpha < 2*beta + 2*beta^2", 2 * b + 2 * b * b + 1 - 2 * a),
    )
    return CheckReport(conds)


def _static_conditions(spec: CollectionSpec, beta: Fraction) -> tuple[list, list, Fraction]:
    """The member table, conditions (1)-(3) (those free of the charge
    parameter a) and t = v3^b(E)/v1^b(E), at the point of the distinguished
    class's parabola over beta.

    omega^2 there is (beta - mu(E))^2 - disc(E)/v0(E)^2, read from the
    collection's constants.  When it is not positive the point is not in U,
    and the DomainError comes from building that point as
    ``ParamPoint(beta, alpha_E_beta(E, beta))``, so its message names the
    point; an in-U beta builds no point."""
    dmu = beta - spec._mu[3]
    w2 = dmu * dmu - spec._disc_v0sq_E
    if w2 <= 0:
        ParamPoint(beta, alpha_E_beta(spec.distinguished, beta))  # raises
    half_w2 = w2 / 2
    table = [(v1b, v3b, v2b - half_w2 * v0)
             for v0, v1b, v2b, v3b in (twisted_v(F, beta) for F in spec.classes)]
    # nu(F) - beta of F0, F1, F2; None (nu infinite) when v1^b(F) = 0
    dnu = [im / v1b if v1b else None for v1b, _, im in table[:3]]
    mu = spec._mu

    # (1)
    conds = [_cond("(1) beta < mu1(E)", spec._mu1_E - beta),
             _cond("(1) beta > mu(F0)", beta - mu[0]),
             Condition("(1) F0 slope inequality", False, Fraction(0)) if dnu[0] is None
             else _cond("(1) (v2(F0)-alpha*v0(F0))/v1^b(F0) < beta", -dnu[0])]

    # (2) three-case slot condition; v1^b(F) = v0(F)*(mu(F) - beta) is
    # nonzero strictly inside a slot, so nu(F1) and nu(F2) are finite there
    if mu[0] < beta < mu[1]:
        conds.append(_cond("(2) mu(F0)<beta<mu(F1) and F1 inequality", -dnu[1]))
    elif mu[1] <= beta <= mu[2]:
        conds.append(Condition("(2) mu(F1)<=beta<=mu(F2)", True, Fraction(0),
                               strict=False))
    elif mu[2] < beta < mu[3]:
        conds.append(_cond("(2) mu(F2)<beta<mu(F3) and F2 inequality", dnu[2]))
    else:
        conds.append(Condition("(2) beta outside (mu(F0), mu(F3))", False, Fraction(0)))

    # (3); v1^b(E) = 0 would put beta at mu(E), where the parabola has
    # omega^2 = -disc(E)/v0(E)^2 <= 0, i.e. off U
    t = table[3][1] / table[3][0]
    for name, (v1b, v3b, _), want_less in zip(("F0", "F1", "F2"), table,
                                              (True, False, True)):
        resid = t * v1b - v3b if want_less else v3b - t * v1b
        op = "<" if want_less else ">"
        conds.append(_cond(f"(3) v3^b({name}) {op} t*v1^b({name})", resid))
    return table, conds, t


def _simple_rows(table: list) -> list:
    """The simples' rows: S_j = (-1)^j F_{3-j}, and the rows are linear."""
    return [r if j % 2 == 0 else (-r[0], -r[1], -r[2])
            for j, r in enumerate(reversed(table))]


def general_condition_check(spec: CollectionSpec, beta, a0) -> CheckReport:
    """Evaluate the four-part boundary condition system at alpha taken on
    the distinguished class's parabola.

    Conditions: (1) the beta window against mu1 and the first member plus
    its slope inequality; (2) the three-case slot condition on the middle
    members; (3) the three twisted-degree inequalities; (4) every simple's
    charge at a0 is ``strictly_left``.  The gate a0 < v3^b(E)/v1^b(E) is
    reported alongside.  Raises DomainError, from ``ParamPoint``, when the
    point is not in U.
    """
    beta, a0 = rational(beta), rational(a0)
    table, conds, t = _static_conditions(spec, beta)
    ok4 = all(strictly_left(a0 * v1b - v3b, im) for v1b, v3b, im in _simple_rows(table))
    conds.append(Condition("(4) simples charges strictly left", ok4, Fraction(0)))
    conds.append(_cond("gate a0 < v3^b(E)/v1^b(E)", t - a0))
    notes = ()
    if spec.builtin == "custom":
        notes = ("categorical exceptionality of a custom collection is not verified",)
    return CheckReport(tuple(conds), notes=notes)


def admissible_a_interval(spec: CollectionSpec, beta) -> Optional[tuple[Fraction, Fraction]]:
    """Ends (lower, upper) of the open interval of charge parameters a where
    the condition system holds: upper the gate value v3^b(E)/v1^b(E), lower
    the largest v3^b(s)/v1^b(s) over the simples with v1^b(s) < 0.  The
    lower end passes too when every simple binding there has Im Z(s) < 0.
    None when conditions (1)-(3) fail or the interval is empty.  Raises
    DomainError, from ``ParamPoint``, when the point (beta, alpha) on the
    distinguished class's parabola is not in U."""
    beta = rational(beta)
    table, conds, upper = _static_conditions(spec, beta)
    if not all(c.passed for c in conds):
        return None
    # Re Z_a(s) = a*v1^b(s) - v3^b(s) < 0 bounds a by v3^b(s)/v1^b(s): from
    # below when v1^b(s) < 0, and from above when v1^b(s) > 0, where (3)
    # puts it at or above the gate's, so it never binds.  A simple with
    # v1^b(s) = 0 is strictly left for every a: s is not E, whose v1^b = 0
    # is off U and has raised, so s = -F2, F1 or -F0, and (3) with
    # v1^b(F) = 0 reads v3^b(F) < 0 for F0, F2 and > 0 for F1, that is
    # v3^b(s) > 0 and Re Z_a(s) = -v3^b(s) < 0.
    bounds = [v3b / v1b for v1b, v3b, _ in _simple_rows(table) if v1b < 0]
    if not bounds or (lower := max(bounds)) >= upper:
        return None
    return lower, upper
