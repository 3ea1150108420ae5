"""Formal group laws at finite degree truncation.

A d-dimensional law is a tuple of d series in 2d variables (the X block
then the Y block) satisfying F(X, 0) = X, F(0, Y) = Y and associativity,
checked symbolically degree by degree.  The formal inverse is solved by
triangular back-substitution and cached on the law object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import LawError, ShapeError, _json_shape
from .rings import Coefficient, RingSpec, monomial_name
from .series import Series, SeriesTuple, compose

BUILTIN_LAWS = ("additive", "multiplicative", "heisenberg")


@dataclass(frozen=True)
class AxiomCheck:
    name: str
    ok: bool
    witness: str | None = None


@dataclass(frozen=True)
class LawReport:
    checks: tuple[AxiomCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "axioms": [
                {"name": c.name, "ok": c.ok, "witness": c.witness} for c in self.checks
            ],
        }


def _first_nonzero(T: SeriesTuple) -> str | None:
    for j, s in enumerate(T.components):
        if s._pairs:
            alpha, _ = s._pairs[0]
            return f"component {j + 1}: {monomial_name(alpha)}"
    return None


def _require_law(F: SeriesTuple, what: str) -> None:
    """Raise LawError naming ``what`` and the first axiom F fails."""
    report = verify(F)
    if not report.ok:
        bad = next(c for c in report.checks if not c.ok)
        raise LawError(f"{what} fails {bad.name}: {bad.witness}")


def _require_cancels(F: SeriesTuple, I: SeriesTuple, what: str) -> None:
    """Raise LawError unless F(X, I(X)) and F(I(X), X) both vanish."""
    x_vars = SeriesTuple.block(F.spec, len(F), F.D, 0, len(F))
    for side in (compose(F, x_vars.concat(I)), compose(F, I.concat(x_vars))):
        bad = _first_nonzero(side)
        if bad is not None:
            raise LawError(f"{what} does not cancel: {bad}")


def _check_law_shape(F: SeriesTuple) -> int:
    d = len(F)
    if F.nvars != 2 * d:
        raise ShapeError(f"a {d}-dimensional law needs {2 * d} variables, got {F.nvars}")
    if not F.has_zero_constant_terms():
        raise ShapeError("law components must have zero constant terms")
    return d


def verify(F: SeriesTuple) -> LawReport:
    """Check the unit laws and associativity symbolically."""
    d = _check_law_shape(F)
    spec, D = F.spec, F.D
    x_vars = SeriesTuple.block(spec, 2 * d, D, 0, d)
    y_vars = SeriesTuple.block(spec, 2 * d, D, d, d)
    zeros = SeriesTuple.zeros(spec, d, 2 * d, D)
    checks = []

    diff = compose(F, x_vars.concat(zeros)) - x_vars
    w = _first_nonzero(diff)
    checks.append(AxiomCheck("unit-right", w is None, w))

    diff = compose(F, zeros.concat(y_vars)) - y_vars
    w = _first_nonzero(diff)
    checks.append(AxiomCheck("unit-left", w is None, w))

    v3 = SeriesTuple.block(spec, 3 * d, D, 0, 3 * d)
    xy = SeriesTuple(v3.components[: 2 * d])
    yz = SeriesTuple(v3.components[d:])
    z = SeriesTuple(v3.components[2 * d :])
    x = SeriesTuple(v3.components[:d])
    left = compose(F, compose(F, xy).concat(z))
    right = compose(F, x.concat(compose(F, yz)))
    w = _first_nonzero(left - right)
    checks.append(AxiomCheck("associativity", w is None, w))
    return LawReport(tuple(checks))


def formal_inverse(F: SeriesTuple) -> SeriesTuple:
    """Solve F(X, I(X)) = 0 degree by degree, starting from I = -X."""
    d = _check_law_shape(F)
    spec, D = F.spec, F.D
    x_vars = SeriesTuple.block(spec, d, D, 0, d)
    linear = compose(F, x_vars.concat(SeriesTuple.zeros(spec, d, d, D)))
    for j, s in enumerate(linear.components):
        if s != x_vars.components[j]:
            raise LawError("law is not in normalized form X + Y + higher order")
    inv = SeriesTuple(tuple(-v for v in x_vars.components))
    for k in range(2, D):
        err = compose(F, x_vars.concat(inv))
        corr = SeriesTuple(tuple(s.graded_slice(k) for s in err.components))
        if all(s.is_zero for s in corr.components):
            continue
        inv = inv - corr
    _require_cancels(F, inv, "formal inverse")
    return inv


@dataclass(frozen=True)
class FormalGroupLaw:
    d: int
    spec: RingSpec
    D: int
    F: SeriesTuple
    I: SeriesTuple

    def map_coefficients(self, phi) -> FormalGroupLaw:
        """Transport the law (and its cached inverse) along a coefficient map.

        Only a ring homomorphism of the truncated rings is sure to send a
        law to a law (``phi.homomorphism``: always for identity maps and
        precision reductions, for a specialisation when Dt * min v(a_i) >= K),
        so the transported F is re-verified on every map.
        """
        F2 = self.F.map_coefficients(phi)
        I2 = self.I.map_coefficients(phi)
        _require_law(F2, "transported law")
        return FormalGroupLaw(self.d, phi.target, self.D, F2, I2)

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "D": self.D,
            "spec": self.spec.to_json(),
            "F": self.F.to_json(),
            "I": self.I.to_json(),
        }


def _exact_polynomials(law: FormalGroupLaw) -> bool:
    """Whether F and I satisfy the axioms as polynomials, with no term cut by
    the truncation: checked again at a degree D' above every term of F(F, F)
    and F(X, I(X)), D' = max(deg F^2, deg F * deg I) + 1."""
    def degree(T):
        return max(sum(alpha) for s in T for alpha, _ in s._pairs)

    D = max(degree(law.F) ** 2, degree(law.F) * degree(law.I)) + 1
    F, I = (SeriesTuple(tuple(Series(s.spec, s.nvars, D, s._pairs) for s in T))
            for T in (law.F, law.I))
    try:
        _require_cancels(F, I, "inverse")
    except LawError:
        return False
    return verify(F).ok


def make_law(F: SeriesTuple) -> FormalGroupLaw:
    d = _check_law_shape(F)
    _require_law(F, "series tuple")
    return FormalGroupLaw(d, F.spec, F.D, F, formal_inverse(F))


def builtin(name: str, spec: RingSpec, D: int, dim: int = 1) -> FormalGroupLaw:
    """The catalogue: additive (any dimension), multiplicative, heisenberg."""
    one = Coefficient.one(spec)

    def series(nvars, items):
        return Series.make(spec, nvars, D, items)

    if name == "additive":
        d = dim
        comps = [
            series(2 * d, {_unit(2 * d, j): one, _unit(2 * d, d + j): one})
            for j in range(d)
        ]
    elif name == "multiplicative":
        d = 1
        comps = [series(2, {(1, 0): one, (0, 1): one, (1, 1): one})]
    elif name == "heisenberg":
        d = 3
        comps = [
            series(6, {_unit(6, 0): one, _unit(6, 3): one}),
            series(6, {_unit(6, 1): one, _unit(6, 4): one}),
            series(6, {_unit(6, 2): one, _unit(6, 5): one,
                       (1, 0, 0, 0, 1, 0): one}),
        ]
    else:
        raise ValueError(f"unknown builtin law {name!r}; choose from {BUILTIN_LAWS}")
    return make_law(SeriesTuple(tuple(comps)))


def _unit(n: int, i: int) -> tuple[int, ...]:
    return tuple(1 if j == i else 0 for j in range(n))


def law_series_from_json(obj: dict) -> SeriesTuple:
    """The raw F tuple of a law file, without any axiom checking."""
    with _json_shape("law"):
        spec = RingSpec.from_json(obj["spec"])
        F = SeriesTuple.from_json(spec, obj["F"])
    if F.nvars != 2 * len(F):
        raise ShapeError("law JSON has inconsistent dimensions")
    if obj.get("D", F.D) != F.D or obj.get("d", len(F)) != len(F):
        raise ShapeError("law JSON header disagrees with its series")
    return F


def law_from_json(obj: dict) -> FormalGroupLaw:
    F = law_series_from_json(obj)
    d = len(F)
    _require_law(F, "law file")
    if "I" in obj and obj["I"]:
        with _json_shape("law"):
            I = SeriesTuple.from_json(F.spec, obj["I"])
        if len(I) != d or I.nvars != d:
            raise ShapeError("cached inverse has the wrong shape")
        _require_cancels(F, I, "cached inverse")
    else:
        I = formal_inverse(F)
    return FormalGroupLaw(d, F.spec, F.D, F, I)
