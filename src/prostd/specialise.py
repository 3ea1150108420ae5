"""Grids of specialisation points, grid tests, the power probe and
transport coherence.

A nested coefficient c in P[[t1..tm]] can be evaluated at any point a of
(m_P)^m by the map s_a (``rings.Specialisation``, re-exported here); doing
this coefficient-wise turns series, laws and whole chart atlases over the
nested ring into ones over P.  The map s_a is a ring homomorphism of the
truncated rings when Dt * min v(a_i) >= K, and for Dt >= 2 only then;
elsewhere it does not respect the truncation at Dt, and transported data
are re-checked.  Vanishing of c at every point of a finite grid is weaker
than c = 0 at truncated precision (p*t1 over Z/4 vanishes at both 0 and
2), so zero certificates are only issued for exact polynomial lifts
through `kernel_grid_test`; grid vanishing of truncated data is reported
as advisory.

`concision_probe` searches for the least l with w^l trivial on a
transversal extension: at each level it runs the marginality check, records
either a non-constant witness or the constant tuple per coset tuple, and
tracks at which grid points the specialised constants vanish.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .atlas import MarginalityRow, TransversalData, check_marginality
from .errors import ExactnessError, RingMismatchError, ShapeError
from .rings import (
    NESTED,
    P_ADIC,
    Coefficient,
    RingSpec,
    Specialisation,
    _rep_count,
    eqchar,
    representatives,
)
from .stdgrp import _enumeration_guard
from .words import WordExpr


def ideal_grid(spec: RingSpec, depth: int) -> list[tuple[Coefficient, ...]]:
    """All m-tuples of canonical representatives of m_P mod m_P^depth, in
    deterministic product order."""
    if spec.kind != NESTED:
        raise RingMismatchError("grids index specialisation points of nested rings")
    if not 1 <= depth <= spec.base.K:
        raise ValueError(f"grid depth must be in 1..{spec.base.K}, got {depth}")
    _enumeration_guard(_rep_count(spec.base, 1, depth) ** spec.m, None)
    return list(itertools.product(representatives(spec.base, 1, depth), repeat=spec.m))


# --------------------------------------------------------------------------
# exact polynomial lifts and the grid kernel test


def _fp_trim(t: tuple) -> tuple:
    n = len(t)
    while n and t[n - 1] == 0:
        n -= 1
    return tuple(t[:n])


@dataclass(frozen=True, eq=False)
class ExactPoly:
    """A polynomial in t1..tm with exact coefficients: integers (p = 0) or
    F_p[t] polynomials as low-degree-first tuples (p > 0).  No truncation
    applies; evaluation is exact."""

    m: int
    p: int
    coeffs: dict

    def __post_init__(self):
        clean = {}
        for alpha, c in self.coeffs.items():
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != self.m or any(e < 0 for e in alpha):
                raise ShapeError(f"bad exponent vector {alpha}")
            if self.p == 0:
                if not isinstance(c, int):
                    raise ExactnessError("exact representation required")
                if c:
                    clean[alpha] = c
            else:
                if isinstance(c, int):
                    c = (c,)
                if not isinstance(c, tuple):
                    raise ExactnessError("exact representation required")
                c = _fp_trim(tuple(x % self.p for x in c))
                if c:
                    clean[alpha] = c
        object.__setattr__(self, "coeffs", clean)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree_in(self, i: int) -> int:
        """Largest exponent of t_{i+1}; -1 for the zero polynomial."""
        return max((alpha[i] for alpha in self.coeffs), default=-1)

    def evaluate(self, point):
        if len(point) != self.m:
            raise ShapeError(f"expected {self.m} coordinates, got {len(point)}")
        if self.p == 0:
            acc = 0
            for alpha, c in self.coeffs.items():
                term = c
                for q, e in zip(point, alpha):
                    term *= q**e
                acc += term
            return acc
        # F_p[t] arithmetic of eqchar(p, K), with K above the value's degree
        point = [_fp_trim(tuple(x % self.p for x in q)) for q in point]
        K = max((len(c) + sum(e * (len(q) - 1) for q, e in zip(point, alpha) if q)
                 for alpha, c in self.coeffs.items()), default=1)
        ops = eqchar(self.p, K).ops
        acc = ops.zero
        for alpha, c in self.coeffs.items():
            term = c + (0,) * (K - len(c))
            for q, e in zip(point, alpha):
                for _ in range(e):
                    term = ops.mul(term, q + (0,) * (K - len(q)))
            acc = ops.add(acc, term)
        return _fp_trim(acc)

    def __eq__(self, other):
        return (isinstance(other, ExactPoly) and self.m == other.m
                and self.p == other.p and self.coeffs == other.coeffs)


def exact_value(c: Coefficient):
    """Canonical exact lift of a base-ring element: the residue as an
    integer, or the digit vector as an F_p[t] polynomial."""
    if c.spec.kind == NESTED:
        raise RingMismatchError("exact_value lifts base-ring elements; use exact_lift")
    if c.spec.kind == P_ADIC:
        return c.payload
    return _fp_trim(c.payload)


def exact_lift(c: Coefficient) -> ExactPoly:
    """Lift a nested coefficient to the exact polynomial with the same
    canonical payload.  Statements certified about the lift (for instance by
    `kernel_grid_test`) concern this representative, not the residue class."""
    spec = c.spec
    if spec.kind != NESTED:
        raise RingMismatchError("exact_lift applies to nested ring elements")
    p = 0 if spec.base.kind == P_ADIC else spec.p
    coeffs = {alpha: pay for alpha, pay in c.payload}
    return ExactPoly(spec.m, p, coeffs)


@dataclass(frozen=True)
class KernelVerdict:
    status: str  # "zero" | "nonzero" | "precondition"
    witness: tuple | None
    detail: str | None
    checked: int

    def to_json(self) -> dict:
        out = {"status": self.status, "checked": self.checked}
        if self.witness is not None:
            out["witness"] = [list(q) if isinstance(q, tuple) else q for q in self.witness]
        if self.detail is not None:
            out["detail"] = self.detail
        return out


def kernel_grid_test(poly: ExactPoly, axes) -> KernelVerdict:
    """Decide whether an exact polynomial is zero from its values on a
    product grid.

    Sound by interpolation when the degree in every variable is strictly
    below the number of distinct values on that axis; a violated bound is
    reported as a precondition failure, not as a verdict.  Truncated
    coefficients are refused: grid vanishing does not imply zero at finite
    precision.
    """
    if isinstance(poly, Coefficient):
        raise ExactnessError("exact representation required")
    if len(axes) != poly.m:
        raise ShapeError(f"expected {poly.m} axes, got {len(axes)}")
    axes = [list(ax) for ax in axes]
    for i, ax in enumerate(axes):
        for q in ax:
            if isinstance(q, Coefficient):
                raise ExactnessError("exact representation required")
        deg = poly.degree_in(i)
        distinct = len(set(ax))
        if deg >= distinct:
            return KernelVerdict(
                "precondition", None,
                f"degree {deg} in t{i + 1} needs more than {distinct} distinct values",
                0)
    checked = 0
    for point in itertools.product(*axes):
        checked += 1
        val = poly.evaluate(point)
        if val != 0 and val != ():
            return KernelVerdict("nonzero", point, None, checked)
    return KernelVerdict("zero", None, None, checked)


# --------------------------------------------------------------------------
# advisory classification of truncated constants


def specialise_constants(constants, grid) -> list[tuple[Coefficient, ...]]:
    """s_a applied to a tuple of nested constants, one result per grid
    point, in grid order; each point is checked once per call."""
    constants = tuple(constants)
    if not constants:
        return [() for _ in grid]
    spec = constants[0].spec
    return [tuple(map(Specialisation(spec, pt), constants)) for pt in grid]


def classify_constant(c: Coefficient, grid) -> str:
    """"zero" at precision, "grid-vanishing-only" (advisory: every s_a kills
    it although it is nonzero), or "nonvanishing"."""
    if c.is_zero:
        return "zero"
    if all(Specialisation(c.spec, pt)(c).is_zero for pt in grid):
        return "grid-vanishing-only"
    return "nonvanishing"


# --------------------------------------------------------------------------
# the probe


@dataclass(frozen=True)
class ProbeLevel:
    l: int
    status: str  # "constant" | "witness"
    rows: tuple[MarginalityRow, ...] | None
    witness_cosets: tuple[str, ...] | None
    witness: str | None
    vanishing: tuple[int, ...] | None  # grid indices killing every constant
    trivial: bool

    def to_json(self) -> dict:
        if self.status == "witness":
            return {"l": self.l, "status": "witness",
                    "cosets": list(self.witness_cosets), "witness": self.witness}
        return {"l": self.l, "status": "constant", "trivial": self.trivial,
                "rows": [r.to_json() for r in self.rows]}


@dataclass(frozen=True)
class ProbeReport:
    word: WordExpr
    lmax: int
    grid: tuple
    levels: tuple[ProbeLevel, ...]
    min_l: int | None

    def to_json(self) -> dict:
        return {
            "word": self.word.text(),
            "lmax": self.lmax,
            "levels": [lv.to_json() for lv in self.levels],
            "grid": [[str(q) for q in pt] for pt in self.grid],
            "m_l": {str(lv.l): list(lv.vanishing) for lv in self.levels
                    if lv.vanishing is not None},
            "min_l": self.min_l,
        }


def concision_probe(w: WordExpr, data: TransversalData, lmax: int,
                    grid, bound: int | None = None) -> ProbeReport:
    """Search l = 1..lmax for w^l trivial on the extension.

    A level is trivial when every coset tuple yields a constant word map
    whose constants are zero at the ring's precision and whose target coset
    is the identity.  Non-constant levels record the first witness.  For
    constant levels the specialised constants are tabulated per grid point;
    vanishing there without symbolic vanishing is advisory only.
    """
    spec = data.L.law.spec
    if spec.kind != NESTED:
        raise RingMismatchError("the probe specialises t-variables; nested ring required")
    if lmax < 1:
        raise ValueError("lmax must be >= 1")
    grid = list(grid)
    maps = [Specialisation(spec, pt) for pt in grid]
    levels = []
    min_l = None
    for l in range(1, lmax + 1):
        rep = check_marginality(w.power(l), data, bound)
        if not rep.all_constant:
            levels.append(ProbeLevel(l, "witness", None, rep.witness_cosets,
                                     rep.witness, None, False))
            continue
        vanishing = [idx for idx, phi in enumerate(maps)
                     if all(phi(c).is_zero for row in rep.rows for c in row.constants)]
        trivial = all(
            row.target == data.T.identity and all(c.is_zero for c in row.constants)
            for row in rep.rows)
        levels.append(ProbeLevel(l, "constant", rep.rows, None, None,
                                 tuple(vanishing), trivial))
        if trivial and min_l is None:
            min_l = l
    return ProbeReport(w, lmax, tuple(grid), tuple(levels), min_l)


# --------------------------------------------------------------------------
# transport coherence of the two probe routes


@dataclass(frozen=True)
class CoherenceCheck:
    index: int
    ok: bool
    detail: str | None


def transport_coherence(w: WordExpr, data: TransversalData, grid,
                        bound: int | None = None) -> list[CoherenceCheck]:
    """Per grid point, compare specialising the marginality constants with
    transporting the whole atlas first and rerunning the check; the two
    routes must agree exactly.

    Transport keeps proven data proven with no re-check at points where s_a
    is a ring homomorphism and D*N reaches the zero valuation of P; other
    points and unproven data are revalidated
    (``TransversalData.map_coefficients``)."""
    spec = data.L.law.spec
    base_rep = check_marginality(w, data, bound)
    if not base_rep.all_constant:
        raise ValueError(
            f"transport coherence needs a marginal word; witness {base_rep.witness}"
            f" on cosets {base_rep.witness_cosets}")
    out = []
    for idx, pt in enumerate(grid):
        phi = Specialisation(spec, pt)
        transported = data.map_coefficients(phi)
        rep = check_marginality(w, transported, bound)
        if not rep.all_constant:
            out.append(CoherenceCheck(idx, False,
                                      f"transported data non-constant: {rep.witness}"))
            continue
        expected = [(r.cosets, r.target, tuple(phi(c) for c in r.constants))
                    for r in base_rep.rows]
        actual = [(r.cosets, r.target, r.constants) for r in rep.rows]
        if expected == actual:
            out.append(CoherenceCheck(idx, True, None))
        else:
            out.append(CoherenceCheck(idx, False, "routes disagree"))
    return out
