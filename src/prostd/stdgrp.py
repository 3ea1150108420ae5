"""Standard groups: (m^N)^d with multiplication given by a formal group law.

Elements are coordinate tuples of valuation >= N; the law's series evaluate
the product, inverse and conjugation.  Finite quotients modulo m^M are
enumerated on canonical coset representatives, with a size guard.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from .errors import EnumerationBoundError, LawError, MaximalIdealError
from .fgl import FormalGroupLaw
from .rings import Coefficient, _rep_count, parse_coefficient, representatives
from .series import SeriesTuple, substitute


def default_bound() -> int:
    """Enumeration size guard; override with PROSTD_ENUM_BOUND."""
    return int(os.environ.get("PROSTD_ENUM_BOUND", 10**6))


def _enumeration_guard(size: int, bound: int | None) -> int:
    """Raise EnumerationBoundError when size exceeds the bound (None: the
    default bound); return the bound used."""
    bound = default_bound() if bound is None else bound
    if size > bound:
        raise EnumerationBoundError(size, bound)
    return bound


@dataclass(frozen=True)
class GroupElement:
    group: StandardGroup
    coords: tuple[Coefficient, ...]

    def __mul__(self, other: GroupElement) -> GroupElement:
        return self.group.mul(self, other)

    def __pow__(self, n: int) -> GroupElement:
        return self.group.power(self, n)

    def inverse(self) -> GroupElement:
        return self.group.inv(self)

    def __str__(self) -> str:
        return "(" + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True)
class StandardGroup:
    law: FormalGroupLaw
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("group level N must be >= 1")

    @property
    def d(self) -> int:
        return self.law.d

    @property
    def identity(self) -> GroupElement:
        zero = Coefficient.zero(self.law.spec)
        return GroupElement(self, (zero,) * self.law.d)

    def element(self, coords) -> GroupElement:
        out = []
        for c in coords:
            if isinstance(c, str):
                c = parse_coefficient(self.law.spec, c)
            elif not isinstance(c, Coefficient):
                c = Coefficient.make(self.law.spec, c)
            if c.spec != self.law.spec:
                raise MaximalIdealError("coordinate from a different ring")
            if c.valuation() < self.N:
                raise MaximalIdealError(f"coordinate valuation below level N={self.N}")
            out.append(c)
        if len(out) != self.law.d:
            raise ValueError(f"expected {self.law.d} coordinates, got {len(out)}")
        return GroupElement(self, tuple(out))

    def mul(self, x: GroupElement, y: GroupElement) -> GroupElement:
        # unit axioms let the identity skip the series evaluation
        if all(c.is_zero for c in x.coords):
            return y
        if all(c.is_zero for c in y.coords):
            return x
        coords = self.law.F._evaluate_trusted(x.coords + y.coords)
        return GroupElement(self, self._at_level(coords))

    def inv(self, x: GroupElement) -> GroupElement:
        coords = self.law.I._evaluate_trusted(x.coords)
        return GroupElement(self, self._at_level(coords))

    def _at_level(self, coords) -> tuple[Coefficient, ...]:
        if any(c.valuation() < self.N for c in coords):
            raise MaximalIdealError(f"group operation left level N={self.N}")
        return coords

    def power(self, x: GroupElement, n: int) -> GroupElement:
        if n < 0:
            return self.power(self.inv(x), -n)
        acc = self.identity
        base = x
        while n:
            if n & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            n >>= 1
        return acc

    def conj_series(self, g: GroupElement) -> SeriesTuple:
        """The series C_g with C_g(coords of x) = coords of g^-1 x g.

        Built as F(I(g), F(X, g)) by partial evaluation; its constant term
        vanishes whenever the truncation tail is invisible at this precision
        (catalogue laws are polynomial, so always here), and that is asserted.
        """
        d, spec, D = self.law.d, self.law.spec, self.law.D
        x_vars = [c for c in SeriesTuple.block(spec, d, D, 0, d)]
        inner = substitute(self.law.F, x_vars + list(g.coords))
        ginv = self.inv(g).coords
        outer = substitute(self.law.F, list(ginv) + list(inner.components))
        if not outer.has_zero_constant_terms():
            raise LawError("conjugation series kept a constant term; "
                           "raise the truncation degree D")
        return outer

    def quotient(self, M: int, bound: int | None = None) -> QuotientGroup:
        return QuotientGroup(self, M, bound)


class QuotientGroup:
    """The finite group (m^N)^d / (m^M)^d on canonical representatives."""

    def __init__(self, group: StandardGroup, M: int, bound: int | None = None):
        if M < group.N:
            raise ValueError("quotient level M must be >= the group level N")
        spec = group.law.spec
        # refuse before building anything; an oversized axis reports its own size
        count = _rep_count(spec, group.N, M)
        bound = _enumeration_guard(count, bound)
        _enumeration_guard(count ** group.law.d, bound)
        reps = representatives(spec, group.N, M)
        self.group = group
        self.M = M
        self.elements = [coords for coords in itertools.product(reps, repeat=group.law.d)]
        self._index = set(self.elements)
        self._inv_cache: dict = {}
        zero = Coefficient.zero(spec)
        self.identity = (zero,) * group.law.d

    def __len__(self) -> int:
        return len(self.elements)

    def _reduce(self, coords) -> tuple[Coefficient, ...]:
        out = tuple(c.mod_ideal_power(self.M) for c in coords)
        if out not in self._index:
            shown = ", ".join(str(c) for c in out)
            raise MaximalIdealError(f"({shown}) is not among the quotient's {len(self.elements)} "
                                    "representatives; it is not closed under mul and inv")
        return out

    def mul(self, x, y):
        if x is self.identity or x == self.identity:
            return y
        if y is self.identity or y == self.identity:
            return x
        return self._reduce(self.group.law.F._evaluate_trusted(tuple(x) + tuple(y)))

    def inv(self, x):
        got = self._inv_cache.get(x)
        if got is None:
            got = self._reduce(self.group.law.I._evaluate_trusted(tuple(x)))
            self._inv_cache[x] = got
        return got
