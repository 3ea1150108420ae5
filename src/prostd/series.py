"""Truncated multivariate power series over the coefficient rings.

A ``Series`` is a sparse polynomial representative of R[[X1..Xn]] / (degree
>= D).  Its terms are in the canonical form of ``rings.collect`` with D as
the bound: distinct exponent vectors of total degree < D, nonzero
coefficients, graded-lex order; every constructor and operation here builds
them through ``collect`` or ``poly_mul``, so arithmetic silently drops
everything of degree >= D.  Internally the coefficients are ring payloads,
combined with the ring's ``RingOps``; ``Coefficient`` objects are built only
where a caller reads them (``Series.terms``, constant terms, evaluation,
constancy verdicts, strings and JSON).  ``compose`` requires the inner series
to have zero constant term; at a finite degree truncation a constant term
would make every output coefficient an infinite sum, so that case is
rejected rather than approximated.  ``substitute`` is the finite partial-evaluation
primitive (ring constants are allowed); callers own its precision analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import RingMismatchError, ShapeError, SubstitutionError
from .rings import (
    P_ADIC,
    Coefficient,
    RingSpec,
    collect,
    evaluate_terms,
    grlex_key,
    monomial_name,
    parse_coefficient,
    poly_mul,
)


def _check_point(spec: RingSpec, nvars: int, args) -> None:
    if len(args) != nvars:
        raise ShapeError(f"expected {nvars} arguments, got {len(args)}")
    for a in args:
        if not isinstance(a, Coefficient):
            raise ShapeError(f"cannot evaluate at object of type {type(a).__name__}")
        a._checked(spec, 1, "evaluation point")


@dataclass(frozen=True)
class Series:
    """A truncated series; ``_pairs`` holds its canonical (exponent vector,
    payload) terms, so equality and hashing compare payloads."""

    spec: RingSpec
    nvars: int
    D: int
    _pairs: tuple[tuple[tuple[int, ...], object], ...]

    @cached_property
    def terms(self) -> tuple[tuple[tuple[int, ...], Coefficient], ...]:
        """The canonical terms as (exponent vector, Coefficient) pairs."""
        return tuple((alpha, Coefficient(self.spec, c)) for alpha, c in self._pairs)

    @staticmethod
    def make(spec: RingSpec, nvars: int, D: int, items) -> Series:
        """Canonicalize a term mapping; reject degree >= D."""
        if nvars < 1:
            raise ShapeError("series need at least one variable")
        if D < 1:
            raise ShapeError("degree truncation D must be >= 1")
        pairs = []
        for alpha, c in items.items() if isinstance(items, dict) else items:
            alpha = tuple(int(e) for e in alpha)
            if len(alpha) != nvars or any(e < 0 for e in alpha):
                raise ShapeError(f"bad exponent vector {alpha} for {nvars} variables")
            if sum(alpha) >= D:
                raise ShapeError(f"monomial degree {sum(alpha)} outside truncation D={D}")
            pairs.append((alpha, Coefficient.make(spec, c).payload))
        return Series(spec, nvars, D, collect(pairs, spec.ops.add, spec.ops.is_zero, D))

    @staticmethod
    def zero(spec: RingSpec, nvars: int, D: int) -> Series:
        return Series.make(spec, nvars, D, {})

    @staticmethod
    def constant(spec: RingSpec, nvars: int, D: int, c) -> Series:
        return Series.make(spec, nvars, D, {(0,) * nvars: c})

    @staticmethod
    def variable(spec: RingSpec, nvars: int, D: int, i: int) -> Series:
        if not 0 <= i < nvars:
            raise ShapeError(f"variable index {i} outside 0..{nvars - 1}")
        alpha = tuple(1 if j == i else 0 for j in range(nvars))
        return Series.make(spec, nvars, D, {alpha: 1})

    # -- basic structure ----------------------------------------------------

    def as_dict(self) -> dict:
        return dict(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self._pairs

    def constant_term(self) -> Coefficient:
        # graded-lex order puts the constant term, if any, first
        if self._pairs and not any(self._pairs[0][0]):
            return Coefficient(self.spec, self._pairs[0][1])
        return Coefficient.zero(self.spec)

    def coefficient(self, alpha: tuple[int, ...]) -> Coefficient:
        for beta, c in self._pairs:
            if beta == tuple(alpha):
                return Coefficient(self.spec, c)
        return Coefficient.zero(self.spec)

    def graded_slice(self, k: int) -> Series:
        return Series(self.spec, self.nvars, self.D,
                      tuple((a, c) for a, c in self._pairs if sum(a) == k))

    def _check_mate(self, other: Series):
        if self.spec != other.spec:
            raise RingMismatchError("series over different coefficient rings")
        if self.nvars != other.nvars or self.D != other.D:
            raise ShapeError("series shapes differ")

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: Series) -> Series:
        self._check_mate(other)
        ops = self.spec.ops
        return Series(self.spec, self.nvars, self.D,
                      collect(self._pairs + other._pairs, ops.add, ops.is_zero, self.D))

    def __neg__(self) -> Series:
        neg = self.spec.ops.neg
        return Series(self.spec, self.nvars, self.D,
                      tuple((a, neg(c)) for a, c in self._pairs))

    def __sub__(self, other: Series) -> Series:
        return self + (-other)

    def __mul__(self, other: Series) -> Series:
        self._check_mate(other)
        ops = self.spec.ops
        return Series(self.spec, self.nvars, self.D,
                      poly_mul(self._pairs, other._pairs, ops.mul, ops.add, ops.is_zero, self.D))

    def scale(self, c) -> Series:
        c = Coefficient.make(self.spec, c).payload
        ops = self.spec.ops
        return Series(self.spec, self.nvars, self.D,
                      collect(((alpha, ops.mul(x, c)) for alpha, x in self._pairs),
                              ops.add, ops.is_zero, self.D))

    def __pow__(self, e: int) -> Series:
        if e < 0:
            raise ValueError("negative series powers are not defined")
        acc = Series.constant(self.spec, self.nvars, self.D, 1)
        for _ in range(e):
            acc = acc * self
        return acc

    # -- semantics -----------------------------------------------------------

    def evaluate(self, args: tuple[Coefficient, ...]) -> Coefficient:
        """Sum the series at a point of m^(nvars); exact at this precision
        whenever truncation is invisible (the tests fix D >= the zero
        threshold of the ring)."""
        _check_point(self.spec, self.nvars, args)
        return self._evaluate_unchecked(tuple(a.payload for a in args), {})

    def _evaluate_unchecked(self, args, powers: dict) -> Coefficient:
        # hot path: argument payloads pre-validated, powers shared across a tuple
        return evaluate_terms(self.spec, self._pairs, args, powers)

    def map_coefficients(self, phi) -> Series:
        """Transport along a coefficient map: apply phi termwise."""
        if phi.source != self.spec:
            raise RingMismatchError("coefficient map domain differs from series ring")
        return Series.make(phi.target, self.nvars, self.D,
                           [(alpha, phi(c)) for alpha, c in self.terms])

    def __str__(self) -> str:
        parts = []
        for alpha, c in self.terms:
            cs = str(c)
            if ("+" in cs or " " in cs) and sum(alpha) > 0:
                cs = f"({cs})"
            mon = monomial_name(alpha)
            parts.append(cs if mon == "1" else f"{cs}*{mon}")
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "D": self.D,
            "terms": [[list(alpha), str(c)] for alpha, c in self.terms],
        }

    @staticmethod
    def from_json(spec: RingSpec, obj: dict) -> Series:
        items = []
        for alpha, text in obj["terms"]:
            items.append((tuple(alpha), parse_coefficient(spec, text)))
        return Series.make(spec, obj["nvars"], obj["D"], items)


@dataclass(frozen=True)
class SeriesTuple:
    """A homogeneous tuple of series (same ring, variable count and D)."""

    components: tuple[Series, ...]

    def __post_init__(self):
        if not self.components:
            raise ShapeError("series tuples must be nonempty")
        first = self.components[0]
        for s in self.components[1:]:
            first._check_mate(s)

    @staticmethod
    def of(*components: Series) -> SeriesTuple:
        return SeriesTuple(tuple(components))

    @staticmethod
    def zeros(spec: RingSpec, count: int, nvars: int, D: int) -> SeriesTuple:
        return SeriesTuple(tuple(Series.zero(spec, nvars, D) for _ in range(count)))

    @staticmethod
    def block(spec: RingSpec, nvars: int, D: int, offset: int, count: int) -> SeriesTuple:
        """The variable selectors (X_{offset+1}, .., X_{offset+count})."""
        return SeriesTuple(tuple(Series.variable(spec, nvars, D, offset + i) for i in range(count)))

    def __len__(self) -> int:
        return len(self.components)

    def __iter__(self):
        return iter(self.components)

    def __getitem__(self, i: int) -> Series:
        return self.components[i]

    @property
    def spec(self) -> RingSpec:
        return self.components[0].spec

    @property
    def nvars(self) -> int:
        return self.components[0].nvars

    @property
    def D(self) -> int:
        return self.components[0].D

    def concat(self, other: SeriesTuple) -> SeriesTuple:
        return SeriesTuple(self.components + other.components)

    def __add__(self, other: SeriesTuple) -> SeriesTuple:
        if len(other) != len(self):
            raise ShapeError("tuple lengths differ")
        return SeriesTuple(tuple(a + b for a, b in zip(self.components, other.components)))

    def __sub__(self, other: SeriesTuple) -> SeriesTuple:
        if len(other) != len(self):
            raise ShapeError("tuple lengths differ")
        return SeriesTuple(tuple(a - b for a, b in zip(self.components, other.components)))

    def evaluate(self, args: tuple[Coefficient, ...]) -> tuple[Coefficient, ...]:
        _check_point(self.spec, self.nvars, args)
        args = tuple(a.payload for a in args)
        powers: dict = {}
        return tuple(s._evaluate_unchecked(args, powers) for s in self.components)

    @cached_property
    def _kernels(self) -> dict:
        return {}

    def kernel(self, M: int):
        """The tuple as a function on payloads, reduced mod m^M.

        ``kernel(M)(*payloads)`` is the payload tuple of ``evaluate(args)``
        reduced mod m^M, where ``payloads`` are those of ``args`` or of any
        arguments congruent to them mod m^M.  The arguments are not checked:
        callers pass points they have checked or built.  Compiled once per
        level from ``_kernel_source`` and cached on the tuple."""
        got = self._kernels.get(M)
        if got is None:
            source, names = _kernel_source(self, M)
            namespace = {"__builtins__": {}, **names}
            got = eval(compile(source, f"<kernel M={M}>", "eval"), namespace)
            self._kernels[M] = got
        return got

    def map_coefficients(self, phi) -> SeriesTuple:
        return SeriesTuple(tuple(s.map_coefficients(phi) for s in self.components))

    def constant_terms(self) -> tuple[Coefficient, ...]:
        return tuple(s.constant_term() for s in self.components)

    def has_zero_constant_terms(self) -> bool:
        # graded-lex order puts a constant term first
        return all(not s._pairs or any(s._pairs[0][0]) for s in self.components)

    def to_json(self) -> list:
        return [s.to_json() for s in self.components]

    @staticmethod
    def from_json(spec: RingSpec, obj: list) -> SeriesTuple:
        return SeriesTuple(tuple(Series.from_json(spec, o) for o in obj))


# --------------------------------------------------------------------------
# compiled kernels


def _int_literal(x) -> str:
    if type(x) is not int:
        raise TypeError(f"kernel constants must be ints, got {type(x).__name__}")
    return repr(x)


def _payload_literal(pay) -> str:
    """Source text of a payload: an int, or nested tuples of ints."""
    if isinstance(pay, tuple):
        return "(" + "".join(_payload_literal(x) + ", " for x in pay) + ")"
    return _int_literal(pay)


def _tree(items: list[str], join) -> str:
    """The items combined pairwise by ``join`` as a balanced tree, so the
    nesting depth of the source is logarithmic in the item count."""
    if len(items) == 1:
        return items[0]
    half = len(items) // 2
    return join(_tree(items[:half], join), _tree(items[half:], join))


def _kernel_source(T: SeriesTuple, M: int) -> tuple[str, dict]:
    """Straight-line source of ``T.kernel(M)`` and the closures it calls.

    On p-adic rings every component is a polynomial over Z in a0..a{n-1},
    reduced by one ``% p^M``: exact, since Z -> Z/p^M is a ring map and p^M
    divides p^K.  Other rings call their ``add``/``mul`` payload ops and, below
    full precision, ``red`` (reduction mod m^M).  The source holds only ints,
    the argument names, ``+ * %``, tuples and those closures.
    """
    if type(M) is not int or M < 1:
        raise ValueError(f"kernel level must be an integer >= 1, got {M!r}")
    spec = T.spec
    args = [f"a{i}" for i in range(T.nvars)]
    ops = spec.ops
    if spec.kind == P_ADIC:
        q = _int_literal(spec.p ** min(M, spec.K))
        names = {}
        product = "*".join
        total = lambda terms: f"{_tree(terms, '({} + {})'.format)} % {q}"
    else:
        names = {"add": ops.add, "mul": ops.mul}
        reduced = "{}"
        if M < spec.zero_valuation:
            names["red"] = lambda a: ops.reduce(a, M)
            reduced = "red({})"
        product = lambda factors: _tree(factors, "mul({}, {})".format)
        total = lambda terms: reduced.format(_tree(terms, "add({}, {})".format))
    one = ops.one
    comps = []
    for s in T.components:
        terms = []
        for alpha, c in s._pairs:
            factors = [args[i] for i, e in enumerate(alpha) for _ in range(e)]
            if c != one or not factors:
                factors.insert(0, _payload_literal(c))
            terms.append(product(factors))
        comps.append(total(terms) if terms else _payload_literal(ops.zero))
    return f"lambda {', '.join(args)}: ({''.join(c + ', ' for c in comps)})", names


# --------------------------------------------------------------------------
# substitution


def _substitute_pairs(pairs, values, ops, out_nvars: int, out_D: int, powers: dict) -> tuple:
    """The canonical terms of one series with the canonical terms values[i]
    put for X_{i+1}.  ``powers`` caches values[i]^e across the components of
    one substitution."""
    mul, add, is_zero, one = ops.mul, ops.add, ops.is_zero, ops.one
    zero_vec = (0,) * out_nvars
    out = []

    def power(i: int, e: int):
        got = powers.get((i, e))
        if got is None:
            got = values[i] if e == 1 else poly_mul(power(i, e - 1), values[i],
                                                    mul, add, is_zero, out_D)
            powers[(i, e)] = got
        return got

    for alpha, c in pairs:
        factor = None
        for i, e in enumerate(alpha):
            if e:
                pw = power(i, e)
                factor = pw if factor is None else poly_mul(factor, pw, mul, add, is_zero, out_D)
                if not factor:
                    break
        else:
            if factor is None:
                out.append((zero_vec, c))
            elif c == one:
                out.extend(factor)
            else:
                out.extend((beta, mul(x, c)) for beta, x in factor)
    return collect(out, add, is_zero, out_D)


def substitute(outer: SeriesTuple | Series, subs) -> SeriesTuple | Series:
    """Substitute a Series or ring Coefficient for each variable of ``outer``.

    This is finite truncated substitution: it evaluates the stored polynomial
    representative exactly.  Constants must lie in the maximal ideal.
    """
    single = isinstance(outer, Series)
    comps = (outer,) if single else outer.components
    nvars = comps[0].nvars
    if len(subs) != nvars:
        raise ShapeError(f"expected {nvars} substitution entries, got {len(subs)}")
    spec = comps[0].spec
    proto: Series | None = None
    for s in subs:
        if isinstance(s, Coefficient):
            s._checked(spec, 1, "substituted constant")
        elif isinstance(s, Series):
            if s.spec != spec:
                raise RingMismatchError("substituted series over a different ring")
            if s.D != comps[0].D:
                raise ShapeError("substituted series has a different truncation degree")
            if proto is None:
                proto = s
            elif proto.nvars != s.nvars:
                raise ShapeError("substituted series disagree on variable count")
        else:
            raise ShapeError(f"cannot substitute object of type {type(s).__name__}")
    if proto is None:
        raise ShapeError("substitution needs at least one series entry; use evaluate")
    # each entry becomes canonical payload terms once: a constant, those of a
    # constant series in the output variables
    values = [Series.constant(spec, proto.nvars, proto.D, s)._pairs
              if isinstance(s, Coefficient) else s._pairs for s in subs]
    powers: dict = {}
    out = tuple(Series(spec, proto.nvars, proto.D,
                       _substitute_pairs(s._pairs, values, spec.ops, proto.nvars, proto.D,
                                         powers))
                for s in comps)
    return out[0] if single else SeriesTuple(out)


def compose(outer: SeriesTuple, inner: SeriesTuple) -> SeriesTuple:
    """outer(inner): requires every inner component to have zero constant term."""
    if outer.spec != inner.spec:
        raise RingMismatchError("composition over different coefficient rings")
    if outer.nvars != len(inner):
        raise ShapeError(f"outer has {outer.nvars} variables, inner supplies {len(inner)}")
    if outer.D != inner.D:
        raise ShapeError("composition requires matching truncation degrees")
    if not inner.has_zero_constant_terms():
        raise SubstitutionError("substitution not supported at truncation: "
                                "inner series has a nonzero constant term")
    return substitute(outer, list(inner.components))


# --------------------------------------------------------------------------
# constancy


@dataclass(frozen=True)
class Constancy:
    constant: bool
    constants: tuple[Coefficient, ...] | None
    component: int | None
    witness: tuple[int, ...] | None

    def witness_name(self) -> str | None:
        if self.witness is None:
            return None
        return f"component {self.component + 1}: {monomial_name(self.witness)}"


def constancy(T: SeriesTuple) -> Constancy:
    """Decide whether every component is a constant; witness the smallest
    positive-degree monomial (graded-lex, then component order) otherwise."""
    best: tuple | None = None
    for j, s in enumerate(T.components):
        for alpha, _ in s._pairs:
            if not any(alpha):
                continue
            key = (grlex_key(alpha), j)
            if best is None or key < best[0]:
                best = (key, j, alpha)
            break  # terms are graded-lex sorted; first positive term is smallest
    if best is None:
        return Constancy(True, T.constant_terms(), None, None)
    return Constancy(False, None, best[1], best[2])
