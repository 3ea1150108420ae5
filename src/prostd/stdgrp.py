"""Standard groups: (m^N)^d with multiplication given by a formal group law.

Elements are coordinate tuples of valuation >= N.  Products and inverses run
on the law's compiled kernels (``SeriesTuple.kernel``) on payloads, at full
precision here and mod m^M on a finite quotient; the conjugation series is
built symbolically.  Finite quotients modulo m^M are enumerated on canonical
coset representatives, with a size guard.

``power`` and ``WordExpr.evaluate`` convert arguments once (``_word_hook``),
multiply payloads or enumeration indices, and build one element at the end.
"""

from __future__ import annotations

import itertools
import operator
import os
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

from .errors import EnumerationBoundError, ExactnessError, LawError, MaximalIdealError
from .fgl import FormalGroupLaw, _exact_polynomials
from .rings import Coefficient, _rep_count, representatives
from .series import SeriesTuple, substitute


_payload = operator.attrgetter("payload")


def default_bound() -> int:
    """Enumeration size guard; override with PROSTD_ENUM_BOUND, a positive
    integer."""
    text = os.environ.get("PROSTD_ENUM_BOUND")
    if text is None:
        return 10**6
    try:
        bound = int(text)
    except ValueError:
        bound = 0
    if bound < 1:
        raise ValueError(f"PROSTD_ENUM_BOUND must be a positive integer, got {text!r}")
    return bound


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
        coords = list(coords)
        if len(coords) != self.law.d:
            raise ValueError(f"expected {self.law.d} coordinates, got {len(coords)}")
        spec = self.law.spec
        coords = [Coefficient.make(spec, c)._checked(spec, self.N, "coordinate") for c in coords]
        return GroupElement(self, tuple(coords))

    # the law's kernels at full precision, where reduction changes nothing
    @cached_property
    def _F(self):
        return self.law.F.kernel(self.law.spec.zero_valuation)

    @cached_property
    def _I(self):
        return self.law.I.kernel(self.law.spec.zero_valuation)

    def mul(self, x: GroupElement, y: GroupElement) -> GroupElement:
        return self._at_level(self._F(*map(_payload, x.coords), *map(_payload, y.coords)))

    def inv(self, x: GroupElement) -> GroupElement:
        return self._at_level(self._I(*map(_payload, x.coords)))

    def _level(self, payloads):  # the payloads, refused below level N
        reduce, zero = self.law.spec.ops.reduce, self.law.spec.ops.zero
        for v in payloads:
            if reduce(v, self.N) != zero:
                raise MaximalIdealError(f"group operation left level N={self.N}")
        return payloads

    def _at_level(self, payloads) -> GroupElement:
        spec = self.law.spec
        return GroupElement(self, tuple([Coefficient(spec, v) for v in self._level(payloads)]))

    @cached_property
    def _word_hook(self):
        """(ops, encode, decode) on payload tuples.  F and I have no constant
        term, so checking each argument raises where checking products would."""
        F, I, level = self._F, self._I, self._level
        ops = SimpleNamespace(identity=(self.law.spec.ops.zero,) * self.d,
                              mul=lambda x, y: F(*x, *y), inv=lambda x: I(*x))
        return ops, lambda x: level(tuple(map(_payload, x.coords))), self._at_level

    def power(self, x: GroupElement, n: int) -> GroupElement:
        ops, encode, decode = self._word_hook
        acc = e = ops.identity
        base = encode(x) if n else e  # x^0, like a word, reads no unused argument
        if n < 0:
            base, n = ops.inv(base), -n
        while n and base != e:  # once base is the identity, so is every later factor
            if n & 1:
                acc = ops.mul(acc, base)
            base = ops.mul(base, base)
            n >>= 1
        return decode(acc)

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
    """The finite group (m^N)^d / (m^M)^d on canonical representatives.

    Products run on the law's level-M kernels; their payload tuples map back
    to elements through one dict, whose failed lookup is the closure check.
    Above M = D*N a law truncated at degree D is refused unless truncation
    cuts nothing from it: otherwise the dropped terms, of valuation >= D*N,
    are visible mod m^M.
    """

    def __init__(self, group: StandardGroup, M: int, bound: int | None = None):
        if M < group.N:
            raise ValueError("quotient level M must be >= the group level N")
        spec = group.law.spec
        # refuse before building anything; an oversized axis reports its own size
        count = _rep_count(spec, group.N, M)
        bound = _enumeration_guard(count, bound)
        _enumeration_guard(count ** group.law.d, bound)
        law = group.law
        if M > law.D * group.N and not _exact_polynomials(law):
            raise ExactnessError(
                f"quotient level M={M} exceeds D*N={law.D * group.N} for a law that truncation "
                f"at D={law.D} changes, so its products are wrong mod m^M; "
                f"raise D to {-(-M // group.N)}")
        reps = representatives(spec, group.N, M)
        d = group.law.d
        self.group = group
        self.M = M
        self.elements = list(itertools.product(reps, repeat=d))
        self._by_payload = dict(zip(itertools.product([c.payload for c in reps], repeat=d),
                                    self.elements))
        self.identity = self._by_payload[(spec.ops.zero,) * d]
        self._F = group.law.F.kernel(M)
        self._I = group.law.I.kernel(M)

    def __len__(self) -> int:
        return len(self.elements)

    def _element(self, payloads) -> tuple[Coefficient, ...]:
        """The element with these reduced payloads; the closure check."""
        got = self._by_payload.get(payloads)
        if got is None:
            spec = self.group.law.spec
            shown = ", ".join(str(Coefficient(spec, v)) for v in payloads)
            raise MaximalIdealError(f"({shown}) is not among the quotient's {len(self.elements)} "
                                    "representatives; it is not closed under mul and inv")
        return got

    def mul(self, x, y):
        return self._element(self._F(*map(_payload, x), *map(_payload, y)))

    def inv(self, x):
        return self._element(self._I(*map(_payload, x)))

    @property
    def _word_hook(self):  # on the indices of the cached enumeration
        from .words import _view  # words builds on this module
        return _view(self).hook
