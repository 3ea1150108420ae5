"""Truncated pro-p coefficient rings.

Three ring shapes share a single immutable element type:

* ``p-adic``  -- Z/p^K, the p-adic integers at precision K;
* ``eq-char`` -- F_p[t]/t^K, truncated power series in one variable over F_p;
* ``nested``  -- P[[t1..tm]] truncated at total t-degree Dt, where P is one
  of the two base shapes above (exactly one nesting level).

Payloads are canonical, so ``==`` and ``hash`` are exact at the ring's
precision.  The maximal ideal is (p), (t) or (p, t1, .., tm) respectively.
Membership in its powers has one test on every shape: x is in m^N exactly
when its canonical reduction mod m^N (``RingOps.reduce``) is zero, so a
nested ``c * t^alpha`` is when c is in m^(N - |alpha|).  ``valuation`` is
derived from that test, as the least v with x outside m^(v+1); it is
``+inf`` exactly for the element that is zero at this precision.

Truncated multivariate polynomials appear at two levels: nested payloads
here and ``Series`` terms in ``series.py``.  Both are tuples of (exponent
vector, coefficient) pairs in one canonical form: each exponent appears at
most once, every coefficient is nonzero, every total degree is below the
truncation bound, and the pairs are in graded-lex order (``grlex_key``).
Sums, products, reductions and constructors build that form through
``collect`` (``poly_mul`` multiplies, then collects); negation and slicing
keep it.

Coefficient text has one grammar on every ring shape:

    coefficient := signs term (signs term)*     signs := ('+' | '-')*
    term        := factor ('*' factor)*
    factor      := integer | variable ['^' integer] | '(' base coefficient ')'

Sign runs multiply out; '*' may be left out only between an integer and a
variable ("2t").  ``t`` exists on eq-char rings and nested rings over them,
``t1``..``tm`` and parentheses (holding base-ring text) on nested rings.  A
term's degree in ``t`` stays below K, and in ``t1``..``tm`` below Dt.
Integers are ASCII digits; blanks may separate tokens, never split one.
"""

from __future__ import annotations

import itertools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

from .errors import EnumerationBoundError, MaximalIdealError, RingMismatchError, ShapeError

P_ADIC = "p-adic"
EQ_CHAR = "eq-char"
NESTED = "nested"

_BASE_KINDS = (P_ADIC, EQ_CHAR)


# Miller-Rabin with the first 13 primes as bases is exact below this bound
# (Sorenson and Webster, 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_TEST_LIMIT = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError at or above the bound
    where its bases stop being exact."""
    if n >= _PRIME_TEST_LIMIT:
        raise ValueError(f"p must be below {_PRIME_TEST_LIMIT}, got {n}")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def grlex_key(alpha: tuple[int, ...]):
    """Sort key for graded-lex order: total degree first, then X1 before X2."""
    return (sum(alpha), tuple(-a for a in alpha))


def monomial_name(alpha: tuple[int, ...], stem: str = "X") -> str:
    factors = []
    for i, e in enumerate(alpha):
        if e == 1:
            factors.append(f"{stem}{i + 1}")
        elif e > 1:
            factors.append(f"{stem}{i + 1}^{e}")
    return "*".join(factors) if factors else "1"


class _GrlexKeys(dict):
    """``grlex_key`` of each exponent vector, computed on its first lookup, so
    sorting by ``__getitem__`` runs no Python code per known vector."""

    def __missing__(self, alpha):
        key = self[alpha] = grlex_key(alpha)
        return key


_GRLEX_KEYS = _GrlexKeys()


def collect(pairs, add, is_zero, bound: int) -> tuple:
    """The canonical polynomial of (exponent, coefficient) pairs: equal
    exponents summed with ``add``, exponents of total degree >= ``bound`` and
    sums that satisfy ``is_zero`` dropped, the rest in graded-lex order."""
    acc: dict = {}
    for alpha, c in pairs:
        if sum(alpha) < bound:
            prev = acc.get(alpha)
            acc[alpha] = c if prev is None else add(prev, c)
    alphas = sorted((alpha for alpha, c in acc.items() if not is_zero(c)),
                    key=_GRLEX_KEYS.__getitem__)
    return tuple((alpha, acc[alpha]) for alpha in alphas)


def poly_mul(a, b, mul, add, is_zero, bound: int) -> tuple:
    """The canonical product of two canonical polynomials, truncated at
    ``bound``; no product of degree >= ``bound`` is formed."""
    pairs = []
    b = [(beta, e, sum(beta)) for beta, e in b]
    for alpha, c in a:
        room = bound - sum(alpha)
        for beta, e, degree in b:
            if degree >= room:
                break  # b is graded, so every later beta is too big as well
            pairs.append((tuple(map(operator.add, alpha, beta)), mul(c, e)))
    return collect(pairs, add, is_zero, bound)


@dataclass(frozen=True)
class RingSpec:
    """Shape and precision of a coefficient ring."""

    kind: str
    p: int
    K: int
    base: RingSpec | None = None
    m: int = 0
    Dt: int = 0

    def __post_init__(self):
        if self.kind not in (P_ADIC, EQ_CHAR, NESTED):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if not all(isinstance(v, int) for v in (self.p, self.K, self.m, self.Dt)):
            raise ValueError("ring parameters p, K, m and Dt must be integers")
        if not _is_prime(self.p):
            raise ValueError(f"p must be prime, got {self.p}")
        if self.K < 1:
            raise ValueError(f"precision K must be >= 1, got {self.K}")
        if self.kind == NESTED:
            if self.base is None or self.base.kind not in _BASE_KINDS:
                raise ValueError("nested rings require a p-adic or eq-char base")
            if self.base.p != self.p or self.base.K != self.K:
                raise ValueError("nested spec must mirror its base p and K")
            if self.m < 1:
                raise ValueError("nested rings need m >= 1 variables")
            if self.Dt < 1:
                raise ValueError("nested truncation Dt must be >= 1")
        else:
            if self.base is not None or self.m or self.Dt:
                raise ValueError("base/m/Dt only apply to nested rings")

    def __eq__(self, other):
        # the same spec object on both sides is the common case; answer it at once
        if self is other:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.kind, self.p, self.K, self.base, self.m, self.Dt)
                == (other.kind, other.p, other.K, other.base, other.m, other.Dt))

    @cached_property
    def modulus(self) -> int:
        return self.p**self.K

    @cached_property
    def ops(self) -> RingOps:
        return _ring_ops(self)

    @property
    def zero_valuation(self) -> int:
        """Least v such that valuation >= v forces zero at this precision."""
        if self.kind == NESTED:
            return self.K + self.Dt - 1
        return self.K

    def to_json(self) -> dict:
        obj = {"kind": self.kind, "p": self.p, "K": self.K}
        if self.kind == NESTED:
            obj["base"] = self.base.to_json()
            obj["m"] = self.m
            obj["Dt"] = self.Dt
        return obj

    @staticmethod
    def from_json(obj: dict) -> RingSpec:
        kind = obj["kind"]
        if kind == NESTED:
            base = RingSpec.from_json(obj["base"])
            spec = nested(base, obj["m"], obj["Dt"])
            if spec.p != obj["p"] or spec.K != obj["K"]:
                raise ValueError("nested ring spec disagrees with its base")
            return spec
        return RingSpec(kind, obj["p"], obj["K"])


def padic(p: int, K: int) -> RingSpec:
    return RingSpec(P_ADIC, p, K)


def eqchar(p: int, K: int) -> RingSpec:
    return RingSpec(EQ_CHAR, p, K)


def nested(base: RingSpec, m: int, Dt: int) -> RingSpec:
    return RingSpec(NESTED, base.p, base.K, base, m, Dt)


# --------------------------------------------------------------------------
# payload primitives; a payload is int (p-adic), tuple[int]*K (eq-char) or a
# graded-lex-sorted tuple of (exponent, base payload) pairs (nested)


@dataclass(frozen=True)
class RingOps:
    """Payload arithmetic of one ring, resolved once per spec (``spec.ops``),
    so no operation tests the ring's kind.  ``add`` and ``mul`` are binary;
    ``reduce(a, M)`` is the canonical representative of ``a`` modulo m^M."""

    zero: object
    one: object
    is_zero: Callable
    add: Callable
    neg: Callable
    mul: Callable
    reduce: Callable


def _ring_ops(spec: RingSpec) -> RingOps:
    p, K = spec.p, spec.K
    if spec.kind == P_ADIC:
        q = spec.modulus
        return RingOps(
            zero=0,
            one=1,
            is_zero=operator.not_,
            add=lambda a, b: (a + b) % q,
            neg=lambda a: -a % q,
            mul=lambda a, b: a * b % q,
            reduce=lambda a, M: a if M >= K else a % p ** max(M, 0))
    if spec.kind == EQ_CHAR:
        zero = (0,) * K

        def mul(a, b):
            out = [0] * K
            for i, x in enumerate(a):
                if not x:
                    continue
                for j, y in enumerate(b):
                    if i + j >= K:
                        break
                    if y:
                        out[i + j] = (out[i + j] + x * y) % p
            return tuple(out)

        return RingOps(
            zero=zero,
            one=(1,) + zero[1:],
            is_zero=lambda a: not any(a),
            add=lambda a, b: tuple((x + y) % p for x, y in zip(a, b)),
            neg=lambda a: tuple(-x % p for x in a),
            mul=mul,
            reduce=lambda a, M: a if M >= K else a[:max(M, 0)] + zero[max(M, 0):])
    base, Dt = spec.base.ops, spec.Dt

    def canonical(pairs):
        return collect(pairs, base.add, base.is_zero, Dt)

    return RingOps(
        zero=(),
        one=(((0,) * spec.m, base.one),),
        is_zero=operator.not_,
        add=lambda a, b: canonical(a + b),
        neg=lambda a: tuple((alpha, base.neg(c)) for alpha, c in a),
        mul=lambda a, b: poly_mul(a, b, base.mul, base.add, base.is_zero, Dt),
        reduce=lambda a, M: canonical([(alpha, base.reduce(c, M - sum(alpha)))
                                       for alpha, c in a]))


def _pl_from_int(spec: RingSpec, n: int):
    if spec.kind == P_ADIC:
        return n % spec.modulus
    if spec.kind == EQ_CHAR:
        return ((n % spec.p,) + (0,) * (spec.K - 1)) if n % spec.p else (0,) * spec.K
    c = _pl_from_int(spec.base, n)
    if spec.base.ops.is_zero(c):
        return ()
    return (((0,) * spec.m, c),)


def _nested_canonical(spec: RingSpec, pairs):
    base = spec.base.ops
    return collect(pairs, base.add, base.is_zero, spec.Dt)


@dataclass(frozen=True)
class Coefficient:
    """An element of a truncated coefficient ring, stored canonically."""

    spec: RingSpec
    payload: int | tuple

    def __hash__(self):
        # equal coefficients have equal payloads, and hashing the spec is slow
        return hash(self.payload)

    @staticmethod
    def zero(spec: RingSpec) -> Coefficient:
        return Coefficient(spec, spec.ops.zero)

    @staticmethod
    def one(spec: RingSpec) -> Coefficient:
        return Coefficient(spec, spec.ops.one)

    @staticmethod
    def from_int(spec: RingSpec, n: int) -> Coefficient:
        return Coefficient(spec, _pl_from_int(spec, n))

    @staticmethod
    def make(spec: RingSpec, raw) -> Coefficient:
        """Canonicalize a caller's value: a Coefficient of this ring, its
        text, or a raw payload-like value (int, digit vector, term map)."""
        if isinstance(raw, str):
            return parse_coefficient(spec, raw)
        if isinstance(raw, Coefficient):
            if raw.spec != spec:
                raise RingMismatchError("coefficient belongs to a different ring")
            return raw
        if spec.kind == P_ADIC:
            return Coefficient(spec, int(raw) % spec.modulus)
        if spec.kind == EQ_CHAR:
            if isinstance(raw, int):
                return Coefficient.from_int(spec, raw)
            digits = [int(x) % spec.p for x in raw]
            if len(digits) > spec.K:
                raise ValueError("eq-char payload longer than precision K")
            digits += [0] * (spec.K - len(digits))
            return Coefficient(spec, tuple(digits))
        if isinstance(raw, int):
            return Coefficient.from_int(spec, raw)
        pairs = []
        for alpha, c in raw.items() if isinstance(raw, dict) else raw:
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != spec.m or any(e < 0 for e in alpha):
                raise ValueError(f"bad nested exponent vector {alpha}")
            pairs.append((alpha, Coefficient.make(spec.base, c).payload))
        return Coefficient(spec, _nested_canonical(spec, pairs))

    # -- ring operations ---------------------------------------------------

    def _coerce(self, other) -> Coefficient:
        if isinstance(other, Coefficient):
            if other.spec != self.spec:
                raise RingMismatchError("coefficients from different rings")
            return other
        if isinstance(other, int):
            return Coefficient.from_int(self.spec, other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Coefficient(self.spec, self.spec.ops.add(self.payload, other.payload))

    __radd__ = __add__

    def __neg__(self):
        return Coefficient(self.spec, self.spec.ops.neg(self.payload))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Coefficient(self.spec, self.spec.ops.mul(self.payload, other.payload))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative powers are not defined here")
        acc = Coefficient.one(self.spec)
        base = self
        while e:
            if e & 1:
                acc = acc * base
            base = base * base
            e >>= 1
        return acc

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.spec.ops.is_zero(self.payload)

    def valuation(self) -> int | float:
        """The least v with this element outside m^(v+1); +inf for zero."""
        reduce, zero = self.spec.ops.reduce, self.spec.ops.zero
        for v in range(self.spec.zero_valuation):
            if reduce(self.payload, v + 1) != zero:
                return v
        return math.inf

    def _checked(self, spec: RingSpec, level: int, what: str) -> Coefficient:
        """This coefficient, refused unless it lies in m^level of ``spec``:
        the one membership check on caller input."""
        if self.spec != spec:
            raise RingMismatchError(f"{what} in a different ring")
        if spec.ops.reduce(self.payload, level) != spec.ops.zero:
            raise MaximalIdealError(f"{what} {self} is not in m^{level}")
        return self

    def mod_ideal_power(self, M: int) -> Coefficient:
        """Canonical representative of this element modulo m^M."""
        return Coefficient(self.spec, self.spec.ops.reduce(self.payload, M))

    def nested_terms(self) -> tuple:
        """(alpha, base Coefficient) pairs of a nested element."""
        if self.spec.kind != NESTED:
            raise RingMismatchError("nested_terms only applies to nested rings")
        return tuple((alpha, Coefficient(self.spec.base, c)) for alpha, c in self.payload)

    def __str__(self) -> str:
        return format_coefficient(self)

    def __int__(self) -> int:
        if self.spec.kind != P_ADIC:
            raise TypeError("only p-adic payloads coerce to int")
        return self.payload

    def sort_key(self):
        return self.payload


# --------------------------------------------------------------------------
# polynomial evaluation on payloads (series evaluation and specialisation)


def evaluate_terms(spec: RingSpec, terms, args, powers: dict) -> Coefficient:
    """Payload-level sum of c * prod(args[i]^alpha_i) over (alpha, c) terms,
    where each c and each args[i] is a payload of ``spec``.

    The polynomial-evaluation hot path: one Coefficient is built at the end,
    everything in between stays on raw payloads.  `powers` caches payloads
    of args[i]^e across calls that share an argument tuple.
    """
    add, mul = spec.ops.add, spec.ops.mul
    acc = spec.ops.zero
    for alpha, c in terms:
        term = c
        for i, e in enumerate(alpha):
            if e == 1:
                term = mul(term, args[i])
            elif e:
                got = powers.get((i, e))
                if got is None:
                    got = args[i]
                    for _ in range(e - 1):
                        got = mul(got, args[i])
                    powers[(i, e)] = got
                term = mul(term, got)
        acc = add(acc, term)
    return Coefficient(spec, acc)


# --------------------------------------------------------------------------
# coefficient maps (local maps usable for series transport)


class CoefficientMap:
    """A coefficient map with phi(m) inside the target maximal ideal.

    ``homomorphism`` says whether phi is a ring homomorphism of the truncated
    rings; each map decides it once, when it is built.  A map that does not
    say so is not trusted to send a series identity to one."""

    source: RingSpec
    target: RingSpec
    homomorphism: bool = False

    def __call__(self, c: Coefficient) -> Coefficient:
        if c.spec != self.source:
            raise RingMismatchError("coefficient outside this map's source ring")
        return self._map(c)

    def _map(self, c: Coefficient) -> Coefficient:  # pragma: no cover
        """phi(c) for c in the source ring."""
        raise NotImplementedError


class IdentityMap(CoefficientMap):
    homomorphism = True

    def __init__(self, spec: RingSpec):
        self.source = spec
        self.target = spec

    def _map(self, c: Coefficient) -> Coefficient:
        return c


class PrecisionReduction(CoefficientMap):
    """Lower the precision K (and, for nested rings, optionally Dt): a
    quotient map, so always a ring homomorphism."""

    homomorphism = True

    def __init__(self, spec: RingSpec, new_K: int, new_Dt: int | None = None):
        if not 1 <= new_K <= spec.K:
            raise ValueError("new precision must satisfy 1 <= new_K <= K")
        self.source = spec
        if spec.kind == NESTED:
            nd = spec.Dt if new_Dt is None else new_Dt
            if not 1 <= nd <= spec.Dt:
                raise ValueError("new Dt must satisfy 1 <= new_Dt <= Dt")
            self.target = nested(RingSpec(spec.base.kind, spec.p, new_K), spec.m, nd)
        else:
            if new_Dt is not None:
                raise ValueError("new_Dt only applies to nested rings")
            self.target = RingSpec(spec.kind, spec.p, new_K)

    def _map(self, c: Coefficient) -> Coefficient:
        src = self.source
        if src.kind == P_ADIC:
            return Coefficient.make(self.target, c.payload)
        if src.kind == EQ_CHAR:
            return Coefficient.make(self.target, c.payload[: self.target.K])
        tgt = self.target  # make drops the monomials of t-degree >= the new Dt
        if src.base.kind == P_ADIC:
            return Coefficient.make(tgt, c.payload)
        return Coefficient.make(tgt, [(alpha, pay[: tgt.K]) for alpha, pay in c.payload])


class Specialisation(CoefficientMap):
    """The map s_a : P[[t1..tm]] -> P evaluating ti at a_i; the point is
    parsed and checked here, once, and never again per call.

    The source drops every monomial of t-degree >= Dt, and s_a respects
    that when it kills them too: ``homomorphism`` is Dt * min v(a_i) >= K
    (the zero point qualifies).  For Dt >= 2 nothing weaker will do: on
    nested(padic(5, 4), 1, 2) at a = 5, t1 * t1 = 0 maps to 0 but
    5 * 5 = 25."""

    def __init__(self, spec: RingSpec, point):
        if spec.kind != NESTED:
            raise RingMismatchError("specialisation needs a nested source ring")
        pt = [Coefficient.make(spec.base, q) for q in point]
        if len(pt) != spec.m:
            raise ShapeError(f"expected {spec.m} point coordinates, got {len(pt)}")
        for q in pt:
            q._checked(spec.base, 1, "specialisation point")
        self.source = spec
        self.target = spec.base
        self.homomorphism = spec.Dt * min(q.valuation() for q in pt) >= spec.K
        self.point = tuple(pt)
        self._payloads = tuple(q.payload for q in pt)

    @property
    def m(self) -> int:
        return self.source.m

    # bound in the class's own namespace, where bench/tracing.py counts it
    __call__ = CoefficientMap.__call__

    def _map(self, c: Coefficient) -> Coefficient:
        return evaluate_terms(self.target, c.payload, self._payloads, {})

    def __str__(self) -> str:
        return "t -> (" + ", ".join(str(q) for q in self.point) + ")"


def specialise(a: Coefficient, point) -> Coefficient:
    """The one-shot form of ``Specialisation(a.spec, point)(a)``."""
    return Specialisation(a.spec, point)(a)


def residue_map(spec: RingSpec) -> PrecisionReduction:
    """Reduction mod p (precision 1) for the base ring shapes."""
    if spec.kind == NESTED:
        raise RingMismatchError("residue map is defined for the base ring shapes")
    return PrecisionReduction(spec, 1)


# --------------------------------------------------------------------------
# enumeration of m^N modulo m^M


def _rep_count(spec: RingSpec, N: int, M: int) -> int:
    """How many representatives of m^N modulo m^M; needs 0 <= N <= M <= K."""
    if not 0 <= N <= M:
        raise ValueError("need 0 <= N <= M")
    if M > spec.K:
        raise ValueError(f"quotient level {M} exceeds precision K={spec.K}")
    if spec.kind in _BASE_KINDS:
        return spec.p ** (M - N)
    total = 1
    for alpha in bounded_exponents(spec.m, min(M, spec.Dt)):
        lo = max(N - sum(alpha), 0)
        total *= spec.p ** ((M - sum(alpha)) - lo)
    return total


def representatives(spec: RingSpec, N: int, M: int, bound: int | None = None) -> list[Coefficient]:
    """Canonical representatives of m^N modulo m^M, deterministically ordered.

    Requires 0 <= N <= M <= K so every representative is faithful at the
    ring's precision.
    """
    count = _rep_count(spec, N, M)
    if bound is not None and count > bound:
        raise EnumerationBoundError(count, bound)
    if spec.kind == P_ADIC:
        step = spec.p**N
        return [Coefficient(spec, (step * j) % spec.modulus) for j in range(spec.p ** (M - N))]
    if spec.kind == EQ_CHAR:
        out = []
        width = M - N
        for j in range(spec.p**width):
            digits = [0] * spec.K
            x = j
            for i in range(width):
                digits[N + i] = x % spec.p
                x //= spec.p
            out.append(Coefficient(spec, tuple(digits)))
        return out
    alphas = bounded_exponents(spec.m, min(M, spec.Dt))
    choices = []
    for alpha in alphas:
        lo = max(N - sum(alpha), 0)
        choices.append(representatives(spec.base, lo, M - sum(alpha)))
    return [Coefficient(spec, _nested_canonical(spec, zip(alphas, (c.payload for c in combo))))
            for combo in itertools.product(*choices)]


def bounded_exponents(m: int, bound: int) -> list[tuple[int, ...]]:
    """All exponent vectors of length m with total degree < bound, graded-lex."""
    out = [alpha for alpha in itertools.product(range(bound), repeat=m) if sum(alpha) < bound]
    out.sort(key=grlex_key)
    return out


def random_ideal_element(spec: RingSpec, N: int, rng) -> Coefficient:
    """A pseudo-random element of m^N at full precision (rng drives determinism)."""
    if N > spec.zero_valuation:
        return Coefficient.zero(spec)
    if spec.kind == P_ADIC:
        v = min(N, spec.K)
        return Coefficient(spec, (spec.p**v * rng.randrange(spec.p ** (spec.K - v))) % spec.modulus)
    if spec.kind == EQ_CHAR:
        digits = [0] * spec.K
        for i in range(min(N, spec.K), spec.K):
            digits[i] = rng.randrange(spec.p)
        return Coefficient(spec, tuple(digits))
    pairs = []
    for alpha in bounded_exponents(spec.m, spec.Dt):
        if rng.random() < 0.5:
            continue
        pairs.append((alpha, random_ideal_element(spec.base, max(N - sum(alpha), 0), rng).payload))
    return Coefficient(spec, _nested_canonical(spec, pairs))


# --------------------------------------------------------------------------
# strings


def format_coefficient(c: Coefficient) -> str:
    spec = c.spec
    if spec.kind == P_ADIC:
        return str(c.payload)
    if spec.kind == EQ_CHAR:
        parts = []
        for e, digit in enumerate(c.payload):
            if not digit:
                continue
            if e == 0:
                parts.append(str(digit))
            elif e == 1:
                parts.append(f"{digit}*t")
            else:
                parts.append(f"{digit}*t^{e}")
        return "+".join(parts) if parts else "0"
    parts = []
    for alpha, pay in c.payload:
        cs = format_coefficient(Coefficient(spec.base, pay))
        if spec.base.kind == EQ_CHAR:
            cs = f"({cs})"
        mon = monomial_name(alpha, "t")
        parts.append(cs if mon == "1" else f"{cs}*{mon}")
    return " + ".join(parts) if parts else "0"


class _Cursor:
    """A position in text, for the recursive-descent parsers of coefficient
    and word text: any run of ``blanks`` may separate two tokens, and
    integers are ASCII digits."""

    blanks = " \t\n\r\f\v"

    def __init__(self, text: str):
        self.text, self.pos = text, 0

    def error(self, message: str, pos: int | None = None):
        raise ValueError(f"{message} (at position {self.pos if pos is None else pos})")

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in self.blanks:
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at_digit(self) -> bool:
        return "0" <= self.peek() <= "9"

    def integer(self) -> int:
        """ASCII digits, after an optional '-'."""
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        digits = self.pos
        while self.at_digit():
            self.pos += 1
        if self.pos == digits:
            self.error("expected an integer")
        return int(self.text[start:self.pos])


class _CoefficientParser(_Cursor):
    """The coefficient grammar of the module docstring, on every ring shape."""

    def coefficient(self, spec: RingSpec) -> Coefficient:
        """signs term (signs term)*, ending before ')' or at the end of the text."""
        acc = self.term(spec, self.signs())
        while self.peek() in ("+", "-"):
            acc = acc + self.term(spec, self.signs())
        return acc

    def signs(self) -> int:
        sign = 1
        self.skip_ws()
        while self.peek() in ("+", "-"):
            sign = -sign if self.peek() == "-" else sign
            self.pos += 1
            self.skip_ws()
        return sign

    def term(self, spec: RingSpec, n: int) -> Coefficient:
        """n times factor ('*' factor)*.  Integers, ``t`` and parenthesised
        text are values of ``ring`` (a nested ring's base), and ``t1``..``tm``
        make the monomial of a nested term."""
        ring = spec.base if spec.kind == NESTED else spec
        e, alpha, parts = 0, [0] * spec.m, []
        while True:
            self.skip_ws()
            start = self.pos
            if self.at_digit():
                n *= self.integer()
                self.skip_ws()
                if self.peek() == "t":
                    continue
            elif self.peek() == "t":
                self.pos += 1
                index = self.integer() if self.at_digit() else None
                if not (ring.kind == EQ_CHAR if index is None else 1 <= index <= spec.m):
                    self.error(f"no variable {self.text[start:self.pos]!r} in this ring", start)
                if index is None:
                    e += self.exponent()
                    if e >= spec.K:
                        self.error(f"degree {e} in t is at least K={spec.K}", start)
                else:
                    alpha[index - 1] += self.exponent()
                    if sum(alpha) >= spec.Dt:
                        self.error(f"degree {sum(alpha)} in t1..t{spec.m} is at least "
                                   f"Dt={spec.Dt}", start)
            elif self.peek() == "(" and spec.kind == NESTED:
                self.pos += 1
                parts.append(self.coefficient(ring))
                if self.peek() != ")":
                    self.error("expected ')'")
                self.pos += 1
            else:
                what = ("an integer, a variable or '('" if ring is not spec
                        else "an integer or a variable")
                self.error(f"expected {what}" if self.peek() else "unexpected end of text")
            self.skip_ws()
            if self.peek() != "*":
                break
            self.pos += 1
        c = Coefficient.make(ring, [0] * e + [n]) if e else Coefficient.from_int(ring, n)
        for part in parts:
            c = c * part
        return Coefficient.make(spec, {tuple(alpha): c}) if spec.kind == NESTED else c

    def exponent(self) -> int:
        """The optional '^' integer after a variable; 1 when absent."""
        self.skip_ws()
        if self.peek() != "^":
            return 1
        self.pos += 1
        self.skip_ws()
        if self.peek() == "-":
            self.error("negative exponent")
        return self.integer()


def parse_coefficient(spec: RingSpec, text: str) -> Coefficient:
    """Parse coefficient text; a ValueError names where the first error is."""
    parser = _CoefficientParser(text)
    c = parser.coefficient(spec)
    if parser.pos < len(text):
        parser.error(f"unexpected character {text[parser.pos]!r}")
    return c
