"""Transversal extensions: a finite chart group T acting on a standard group.

An extension H is stored as T x L with three pieces of series data over the
law of L:

* ``C``: for each t in T, the conjugation series of t on L (an automorphism
  of the law);
* ``A``: chart-correction series indexed by a pair context, either
  ``("mul", t, r)`` for the product t*r or ``("inv", t)`` for t^-1, with the
  target representative taken from the coset table; missing keys mean the
  identity correction (the split case).  All corrections have zero constant
  term, so transversal representatives multiply exactly to representatives.

The group operation and its symbolic shadow are

    (t, l) * (r, m) = (t·r, A_mul[t,r](F(C_r(l), m)))
    (t, l)^-1       = (t^-1, A_inv[t](C_{t^-1}(I(l))))

where identity charts C_r are marked once, at construction, and skipped.
Each formula is written once, generic over how a series tuple acts: its
compiled kernel on payloads reduced mod m^level (full precision for
``TransversalData``, m^M for ``HQuotient``), or composition on series.
A word w with arguments constrained to cosets (t_1, .., t_k) folds to one
series per coset tuple by ``WordExpr.evaluate`` on (coset, series) pairs.
``TransversalData.check`` runs both formulas on series: the one symbolic proof
that the data form a group, behind ``split_extension`` and the symbolic CLI.
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field
from types import SimpleNamespace

from .errors import ExtensionDataError, ShapeError, _json_shape
from .fgl import FormalGroupLaw
from .rings import Coefficient, RingSpec, random_ideal_element
from .series import SeriesTuple, _check_point, compose, constancy
from .stdgrp import StandardGroup, _enumeration_guard, _payload, default_bound
from .words import WordExpr, _Enumeration


@dataclass(frozen=True, eq=False)
class CosetTable:
    """A small finite group on string labels, given by explicit tables."""

    elements: tuple[str, ...]
    identity: str
    mul: dict
    inv: dict

    def __post_init__(self):
        object.__setattr__(self, "mul", dict(self.mul))
        object.__setattr__(self, "inv", dict(self.inv))

    def check(self):
        els = self.elements
        if len(set(els)) != len(els):
            raise ExtensionDataError("duplicate coset labels")
        if self.identity not in els:
            raise ExtensionDataError("identity label missing from the elements")
        for t, r in itertools.product(els, repeat=2):
            if self.mul.get((t, r)) not in els:
                raise ExtensionDataError(f"multiplication table incomplete at ({t}, {r})")
        for t in els:
            if self.inv.get(t) not in els:
                raise ExtensionDataError(f"inverse table incomplete at {t}")
        failures = _pointwise_failures(
            itertools.product(els, repeat=3), lambda t, r: self.mul[(t, r)],
            self.inv.get, self.identity, str, limit=1)
        if failures:
            raise ExtensionDataError(failures[0])
        return self


def coset_table(elements, identity, mul, inv) -> CosetTable:
    return CosetTable(tuple(elements), identity, mul, inv).check()


def cyclic_table(n: int) -> CosetTable:
    """C_n with labels 1, s, s2, .., s{n-1}."""
    labels = ["1"] + [f"s{i}" if i > 1 else "s" for i in range(1, n)]
    mul = {}
    for i, j in itertools.product(range(n), repeat=2):
        mul[(labels[i], labels[j])] = labels[(i + j) % n]
    inv = {labels[i]: labels[(-i) % n] for i in range(n)}
    return coset_table(labels, labels[0], mul, inv)


@dataclass(frozen=True)
class HElement:
    t: str
    coords: tuple[Coefficient, ...]

    def __str__(self) -> str:
        return f"({self.t}; " + ", ".join(str(c) for c in self.coords) + ")"


@dataclass(frozen=True, eq=False)
class TransversalData:
    L: StandardGroup
    T: CosetTable
    C: dict = field(default_factory=dict)
    A: dict = field(default_factory=dict)

    def __post_init__(self):
        d, spec, D = self.L.d, self.L.law.spec, self.L.law.D
        if set(self.C) != set(self.T.elements):
            raise ExtensionDataError("conjugation series must cover exactly T")
        for t, S in self.C.items():
            _check_chart_series(S, d, spec, D, f"C[{t}]")
        for key, S in self.A.items():
            if not (isinstance(key, tuple) and key and key[0] in ("mul", "inv")):
                raise ExtensionDataError(f"bad correction key {key!r}")
            labels = key[1:]
            if any(x not in self.T.elements for x in labels) or \
               len(labels) != (2 if key[0] == "mul" else 1):
                raise ExtensionDataError(f"bad correction key {key!r}")
            _check_chart_series(S, d, spec, D, f"A[{key}]")
        # identity charts are marked once, here: products skip cosets not in charts
        ident = _identity_series(spec, d, D)
        object.__setattr__(self, "charts", {t: S for t, S in self.C.items() if S != ident})
        # set by check() once the group axioms are proven
        object.__setattr__(self, "proven", False)

    @property
    def split(self) -> bool:
        """Split data are exactly the data without chart corrections."""
        return not self.A

    # -- group operations ----------------------------------------------------

    @property
    def identity(self) -> HElement:
        zero = Coefficient.zero(self.L.law.spec)
        return HElement(self.T.identity, (zero,) * self.L.d)

    def element(self, t: str, coords) -> HElement:
        if t not in self.T.elements:
            raise ExtensionDataError(f"unknown coset label {t!r}")
        return HElement(t, self.L.element(coords).coords)

    def mul(self, x: HElement, y: HElement) -> HElement:
        spec = self.L.law.spec
        for h in (x, y):  # F sees x and y only concatenated
            _check_point(spec, self.L.d, h.coords)
        t, v = self._mul(x.t, tuple(map(_payload, x.coords)), y.t, tuple(map(_payload, y.coords)),
                         _kernel_at(spec.zero_valuation), operator.add)
        return HElement(t, self.L._at_level(v).coords)

    def inv(self, x: HElement) -> HElement:
        spec = self.L.law.spec
        _check_point(spec, self.L.d, x.coords)
        t, v = self._inv(x.t, tuple(map(_payload, x.coords)), _kernel_at(spec.zero_valuation))
        return HElement(t, self.L._at_level(v).coords)

    def _mul(self, t: str, x, r: str, y, act, join) -> tuple:
        """(t, x) * (r, y), where act(S, v) applies a series tuple S to the
        coordinates v and join(x, y) concatenates two coordinate blocks."""
        v = act(self.L.law.F, join(_apply(self.charts, r, x, act), y))
        return self.T.mul[(t, r)], _apply(self.A, ("mul", t, r), v, act)

    def _inv(self, t: str, x, act) -> tuple:
        """(t, x)^-1, with act as in ``_mul``."""
        r = self.T.inv[t]
        v = _apply(self.charts, r, act(self.L.law.I, x), act)
        return r, _apply(self.A, ("inv", t), v, act)

    def check(self) -> TransversalData:
        """Prove the group axioms exactly at degree D: the formulas compose
        series on (t, X), (r, Y), (s, Z) for every coset triple, with X, Y, Z
        the variable blocks in 3d variables.  Identity and inverses are
        checked on the (t, X) alone: (t, Y) and (t, Z) are the same elements
        with the variables renamed.  Raises the first failure."""
        spec, d, D = self.L.law.spec, self.L.d, self.L.law.D
        blocks = [SeriesTuple.block(spec, 3 * d, D, i * d, d) for i in range(3)]
        failures = _pointwise_failures(
            (tuple(zip(ts, blocks)) for ts in itertools.product(self.T.elements, repeat=3)),
            lambda x, y: self._mul(*x, *y, compose, SeriesTuple.concat),
            lambda x: self._inv(*x, compose),
            (self.T.identity, SeriesTuple.zeros(spec, d, 3 * d, D)), operator.itemgetter(0),
            limit=1, elements=[(t, blocks[0]) for t in self.T.elements])
        if failures:
            raise ExtensionDataError(failures[0])
        object.__setattr__(self, "proven", True)
        return self

    def map_coefficients(self, phi) -> TransversalData:
        """Transport the whole chart along a coefficient map.

        Proven data (``check()`` passed) come back proven, with no re-check,
        when phi is a ring homomorphism of the truncated rings and D*N is at
        least the target's zero valuation: the homomorphism keeps the proven
        series identities, and every term the truncation at D dropped has
        valuation >= D*N on level-N points, so it vanishes at full precision.
        Any other result is revalidated on 32 samples at full precision."""
        law = self.L.law.map_coefficients(phi)
        data = TransversalData(
            L=StandardGroup(law, self.L.N),
            T=self.T,
            C={t: S.map_coefficients(phi) for t, S in self.C.items()},
            A={k: S.map_coefficients(phi) for k, S in self.A.items()},
        )
        if self.proven and getattr(phi, "homomorphism", False) and \
                law.D * self.L.N >= phi.target.zero_valuation:
            object.__setattr__(data, "proven", True)
            return data
        report = validate_transversal(data, samples=32, seed=7)
        if not report.ok:
            raise ExtensionDataError(f"transported data fails validation: {report.failures[0]}")
        return data


def _check_chart_series(S: SeriesTuple, d: int, spec: RingSpec, D: int, name: str):
    if not isinstance(S, SeriesTuple) or len(S) != d or S.nvars != d:
        raise ExtensionDataError(f"{name} must be {d} series in {d} variables")
    if S.spec != spec or S.D != D:
        raise ExtensionDataError(f"{name} disagrees with the law's ring or truncation")
    if not S.has_zero_constant_terms():
        raise ExtensionDataError(f"{name} must have zero constant terms")


def _apply(series, key, x, act):
    """act(series[key], x); a missing key stands for the identity series."""
    S = series.get(key)
    return x if S is None else act(S, x)


def _kernel_at(level: int):
    """The action of a series tuple on payload tuples: its kernel mod m^level."""
    return lambda S, v: S.kernel(level)(*v)


def _identity_series(spec: RingSpec, d: int, D: int) -> SeriesTuple:
    return SeriesTuple.block(spec, d, D, 0, d)


def split_extension(L: StandardGroup, T: CosetTable, action: dict) -> TransversalData:
    """Split data from a T-action with C_1 the identity, proved by ``check``:
    associativity at (1, 1, s) says that C_s respects the law, and at
    (1, r, s) that C_s(C_r(X)) = C_{rs}(X) (conjugation is a right action)."""
    data = TransversalData(L=L, T=T, C=dict(action))
    if T.identity in data.charts:
        raise ExtensionDataError("action of the identity coset must be the identity series")
    return data.check()


def direct_product(L: StandardGroup, T: CosetTable) -> TransversalData:
    ident = _identity_series(L.law.spec, L.d, L.law.D)
    return split_extension(L, T, {t: ident for t in T.elements})


def inversion_extension(L: StandardGroup) -> TransversalData:
    """C_2 acting by the formal inverse (an automorphism for abelian laws)."""
    T = cyclic_table(2)
    ident = _identity_series(L.law.spec, L.d, L.law.D)
    return split_extension(L, T, {"1": ident, "s": L.law.I})


# --------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    mode: str
    checked: int
    failures: tuple[str, ...]

    def to_json(self) -> dict:
        return {"ok": self.ok, "mode": self.mode, "checked": self.checked,
                "failures": list(self.failures)}


def _structural_failures(data: TransversalData) -> list[str]:
    out = []
    try:
        data.T.check()
    except ExtensionDataError as e:
        out.append(f"coset table: {e}")
    if data.T.identity in data.charts:
        out.append("C[identity] is not the identity series")
    return out


def _pointwise_failures(triples, mul, inv, e, fmt, limit: int = 3, elements=None) -> list[str]:
    """Associativity on the triples, then identity and inverse on ``elements``
    or the triples' elements in first-seen order, so reports do not depend on
    hashing."""
    out = []
    seen = {}
    for x, y, z in triples:
        seen.update(dict.fromkeys((x, y, z)))
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            out.append(f"associativity fails at ({fmt(x)}, {fmt(y)}, {fmt(z)})")
            if len(out) >= limit:
                return out
    return out + _unit_failures(elements or seen, mul, inv, e, fmt, limit - len(out))


def _unit_failures(elements, mul, inv, e, fmt, limit: int = 3) -> list[str]:
    """Identity and inverse at each element in order, at most ``limit``."""
    out = []
    for x in elements:
        if mul(e, x) != x or mul(x, e) != x:
            out.append(f"identity fails at {fmt(x)}")
        ix = inv(x)
        if mul(x, ix) != e or mul(ix, x) != e:
            out.append(f"inverse fails at {fmt(x)}")
        if len(out) >= limit:
            return out[:limit]
    return out


def validate_transversal(data: TransversalData, level: int | None = None,
                         samples: int | None = None, seed: int = 0,
                         bound: int | None = None) -> ValidationReport:
    """Check the group axioms: exhaustively on a finite quotient when
    ``level`` is given (default policy: level N+2 when small enough),
    otherwise on ``samples`` >= 1 pseudo-random triples.

    The exhaustive check proves associativity of all n^3 triples by Light's
    test on the quotient's product table: n^2 checks for each of the
    identity and the at most log2 n generators kept by a doubling closure.
    When that closure falls short of the quotient or a check fails, the full
    n^3 scan runs instead and names the failing triples.  Identity and
    inverses are checked at every element."""
    if samples is not None and samples < 1:
        raise ValueError(f"validation needs at least 1 sample, got {samples}")
    failures = _structural_failures(data)
    if failures:
        return ValidationReport(False, "structural", 0, tuple(failures))
    bound = default_bound() if bound is None else bound
    if level is None and samples is None:
        try:
            hq = HQuotient(data, data.L.N + 2, bound)
            _enumeration_guard(len(hq) ** 3, min(bound, 50**3))
            level = data.L.N + 2
        except ValueError:  # the level exceeds the precision, or the bound
            samples = 1000
    elif level is not None:
        hq = HQuotient(data, level, bound)
        _enumeration_guard(len(hq) ** 3, bound)
    if level is not None:
        mode = f"exhaustive level {level}"
        checked = len(hq) ** 3
        # the words' indexed enumeration, tabulated: each product made once
        table = _Enumeration(hq).tabulate()
        args = (table.mul, table.inv, table.identity,
                lambda i: str(HElement(*table.members[i])))
        if table.associative():
            failures += _unit_failures(table.elements, *args)
        else:
            failures += _pointwise_failures(itertools.product(table.elements, repeat=3), *args)
    else:
        rng = random.Random(seed)
        spec, d = data.L.law.spec, data.L.d
        full = _kernel_at(spec.zero_valuation)  # full precision, as TransversalData.mul
        triples = []
        for _ in range(samples):
            triple = []
            for _ in range(3):
                t = rng.choice(data.T.elements)
                coords = tuple(random_ideal_element(spec, data.L.N, rng) for _ in range(d))
                triple.append((t, tuple(map(_payload, coords))))
            triples.append(triple)
        mode = f"sampled {samples}"
        checked = samples
        failures += _pointwise_failures(
            triples, lambda x, y: data._mul(*x, *y, full, operator.add),
            lambda x: data._inv(*x, full),
            (data.T.identity, (spec.ops.zero,) * d),
            lambda x: str(HElement(x[0], tuple(Coefficient(spec, c) for c in x[1]))))
    return ValidationReport(not failures, mode, checked, tuple(failures))


class HQuotient:
    """Finite handle on T x (quotient of L mod m^M)."""

    def __init__(self, data: TransversalData, M: int, bound: int | None = None):
        lq = data.L.quotient(M, bound)
        _enumeration_guard(len(data.T.elements) * len(lq), bound)
        self.data = data
        self.M = M
        self._lq = lq
        self._act = _kernel_at(M)
        self.elements = [(t, coords) for t in data.T.elements for coords in lq.elements]
        self.identity = (data.T.identity, lq.identity)

    def __len__(self):
        return len(self.elements)

    def mul(self, x, y):
        t, v = self.data._mul(x[0], tuple(map(_payload, x[1])), y[0],
                              tuple(map(_payload, y[1])), self._act, operator.add)
        return (t, self._lq._element(v))

    def inv(self, x):
        t, v = self.data._inv(x[0], tuple(map(_payload, x[1])), self._act)
        return (t, self._lq._element(v))


# --------------------------------------------------------------------------
# coset-constrained word series


@dataclass(frozen=True)
class CosetWordSeries:
    word: WordExpr
    cosets: tuple[str, ...]
    target: str
    W: SeriesTuple


def coset_word_series(w: WordExpr, data: TransversalData,
                      cosets: tuple[str, ...]) -> CosetWordSeries:
    """Symbolic word map with argument i constrained to the coset of
    cosets[i-1]; returns the target coset and d series in d*k variables."""
    if len(cosets) != w.k:
        raise ShapeError(f"word mentions x{w.k}, so {w.k} cosets are required")
    for t in cosets:
        if t not in data.T.elements:
            raise ExtensionDataError(f"unknown coset label {t!r}")
    spec, d, D = data.L.law.spec, data.L.d, data.L.law.D
    nv = d * w.k
    pairs = SimpleNamespace(identity=(data.T.identity, SeriesTuple.zeros(spec, d, nv, D)),
                            mul=lambda x, y: data._mul(*x, *y, compose, SeriesTuple.concat),
                            inv=lambda x: data._inv(*x, compose))
    args = [(t, SeriesTuple.block(spec, nv, D, i * d, d)) for i, t in enumerate(cosets)]
    return CosetWordSeries(w, tuple(cosets), *w.evaluate(pairs, args))


@dataclass(frozen=True)
class MarginalityRow:
    cosets: tuple[str, ...]
    target: str
    constants: tuple[Coefficient, ...]

    def to_json(self) -> dict:
        return {"cosets": list(self.cosets), "target": self.target,
                "constants": [str(c) for c in self.constants]}


@dataclass(frozen=True)
class MarginalityReport:
    all_constant: bool
    rows: tuple[MarginalityRow, ...] | None
    witness_cosets: tuple[str, ...] | None
    witness: str | None
    image_bound: int | None

    def to_json(self) -> dict:
        if not self.all_constant:
            return {"all_constant": False,
                    "witness_cosets": list(self.witness_cosets),
                    "witness": self.witness}
        return {"all_constant": True,
                "image_bound": self.image_bound,
                "rows": [r.to_json() for r in self.rows]}


def check_marginality(w: WordExpr, data: TransversalData,
                      bound: int | None = None) -> MarginalityReport:
    """Is the word map constant on every coset tuple?  Returns the table of
    constants (with targets) or the first non-constant witness, iterating
    coset tuples in T-order."""
    count = len(data.T.elements) ** w.k
    _enumeration_guard(count, bound)
    rows = []
    for cosets in itertools.product(data.T.elements, repeat=w.k):
        cs = coset_word_series(w, data, cosets)
        verdict = constancy(cs.W)
        if not verdict.constant:
            return MarginalityReport(False, None, cosets, verdict.witness_name(), None)
        # every chart series kills 0, so a constant word map sits on the
        # transversal itself
        if not all(c.is_zero for c in verdict.constants):
            raise ExtensionDataError(
                f"word map is constant off the transversal on cosets {cosets}")
        rows.append(MarginalityRow(cosets, cs.target, verdict.constants))
    return MarginalityReport(True, tuple(rows), None, None, count)


# --------------------------------------------------------------------------
# JSON


def extension_to_json(data: TransversalData) -> dict:
    T = data.T
    return {
        "L": {"law": data.L.law.to_json(), "N": data.L.N},
        "T": {
            "elements": list(T.elements),
            "identity": T.identity,
            "mul_table": {t: {r: T.mul[(t, r)] for r in T.elements} for t in T.elements},
            "inv": {t: T.inv[t] for t in T.elements},
        },
        "C": {t: data.C[t].to_json() for t in T.elements},
        "A": {":".join(k): S.to_json() for k, S in sorted(data.A.items())},
        "split": data.split,
    }


def extension_from_json(obj: dict) -> TransversalData:
    from .fgl import law_from_json

    with _json_shape("extension"):
        law_obj = obj["L"]["law"]
    law = law_from_json(law_obj)
    with _json_shape("extension"):
        L = StandardGroup(law, obj["L"]["N"])
        tj = obj["T"]
        mul = {(t, r): v for t, row in tj["mul_table"].items() for r, v in row.items()}
        T = coset_table(tj["elements"], tj["identity"], mul, tj["inv"])
        C = {t: SeriesTuple.from_json(law.spec, s) for t, s in obj["C"].items()}
        A = {}
        for key, s in obj.get("A", {}).items():
            parts = key.split(":")
            A[tuple(parts)] = SeriesTuple.from_json(law.spec, s)
        if A and obj.get("split"):
            raise ExtensionDataError("split data must not carry corrections")
        return TransversalData(L=L, T=T, C=C, A=A)
