"""Series arithmetic on payloads against two independent oracles.

Every truncated ring here is a quotient of an integer polynomial ring by
p^K (or p) and monomial ideals: a coefficient lifts to an integer polynomial
in the ring's own variables (t for eq-char digits, t1..tm for nested rings,
both for nested eq-char rings), and a series to one in X1..Xn and those.
Reducing an exact integer result (drop monomials of X-degree >= D, of
t1..tm-degree >= Dt or of t-degree >= K, reduce the coefficients) is a ring
map, so it must agree with the package's truncated arithmetic.  The exact
results come from the dict polynomials of ``oracles.py`` and from sympy.
Examples are drawn by hypothesis with ``derandomize=True``, so every run
checks the same cases.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402
from oracles import poly_add, poly_mul  # noqa: E402

from prostd import rings  # noqa: E402
from prostd.rings import (  # noqa: E402
    EQ_CHAR,
    NESTED,
    Coefficient,
    Specialisation,
    bounded_exponents,
    eqchar,
    grlex_key,
    nested,
    padic,
    random_ideal_element,
    representatives,
)
from prostd.series import Series, SeriesTuple, compose, substitute  # noqa: E402

SPECS = [padic(3, 3), padic(2, 4), eqchar(2, 3), eqchar(3, 2),
         nested(padic(2, 3), 1, 3), nested(padic(3, 2), 2, 2), nested(eqchar(2, 2), 2, 2)]
NESTED_SPECS = [s for s in SPECS if s.kind == NESTED]

DERANDOMIZED = settings(derandomize=True, max_examples=30, deadline=None, database=None)


# -- the integer-polynomial model of a truncated ring ---------------------------------


def inner_count(spec) -> int:
    """How many ring variables a coefficient lifts over."""
    if spec.kind == NESTED:
        return spec.m + (spec.base.kind == EQ_CHAR)
    return int(spec.kind == EQ_CHAR)


def lift_payload(spec, pay) -> dict:
    """A coefficient payload as an integer polynomial in the ring variables."""
    if spec.kind == NESTED:
        out = {}
        for alpha, c in pay:
            for beta, v in lift_payload(spec.base, c).items():
                out[tuple(alpha) + beta] = v
        return out
    if spec.kind == EQ_CHAR:
        return {(i,): d for i, d in enumerate(pay) if d}
    return {(): pay} if pay else {}


def lift(s: Series) -> dict:
    """A series as an integer polynomial in X1..Xn and the ring variables,
    read from its public ``terms``."""
    out = {}
    for alpha, c in s.terms:
        for beta, v in lift_payload(s.spec, c.payload).items():
            out[tuple(alpha) + beta] = v
    return out


def reduce_model(spec, nvars: int, D: int, poly: dict) -> dict:
    """The image of an exact integer polynomial in R[X1..Xn] / (degree >= D)."""
    modulus = spec.p if (spec.base or spec).kind == EQ_CHAR else spec.p ** spec.K
    out = {}
    for e, v in poly.items():
        x, t = e[:nvars], e[nvars:]
        if sum(x) >= D:
            continue
        if spec.kind == NESTED and sum(t[:spec.m]) >= spec.Dt:
            continue
        if (spec.base or spec).kind == EQ_CHAR and t[-1] >= spec.K:
            continue
        if v % modulus:
            out[e] = v % modulus
    return out


def model_substitute(outer: dict, nvars: int, values: list, out_nvars: int, spec) -> dict:
    """Exact substitution in the lifted model: values[i] (a lifted series in
    out_nvars variables, or a lifted constant with no X part) for X_{i+1}."""
    r = inner_count(spec)
    acc: dict = {}
    for e, v in outer.items():
        term = {(0,) * out_nvars + e[nvars:]: v}
        for i, k in enumerate(e[:nvars]):
            for _ in range(k):
                term = poly_mul(term, values[i])
        acc = poly_add(acc, term)
    assert all(len(e) == out_nvars + r for e in acc)
    return acc


def constant_model(c: Coefficient, out_nvars: int) -> dict:
    return {(0,) * out_nvars + beta: v for beta, v in lift_payload(c.spec, c.payload).items()}


# -- sympy as a second exact engine ---------------------------------------------------


def _symbols(n: int):
    return sympy.symbols(f"v0:{n}")


def to_sympy(poly: dict, gens):
    return sum((v * sympy.Mul(*(g**k for g, k in zip(gens, e))) for e, v in poly.items()),
               sympy.Integer(0))


def from_sympy(expr, gens) -> dict:
    return {tuple(e): int(v) for e, v in sympy.Poly(expr, *gens).as_dict().items()} \
        if expr != 0 else {}


# -- random data ------------------------------------------------------------------------


def rand_series(spec, nvars, D, rng, density=0.5):
    items = {alpha: random_ideal_element(spec, 0, rng)
             for alpha in bounded_exponents(nvars, D) if rng.random() < density}
    return Series.make(spec, nvars, D, items)


def no_constant(s: Series) -> Series:
    return s - Series.constant(s.spec, s.nvars, s.D, s.constant_term())


cases = st.tuples(st.sampled_from(SPECS), st.integers(1, 3), st.integers(1, 4),
                  st.integers(0, 2**32 - 1))


# -- ring arithmetic of series ------------------------------------------------------------


@DERANDOMIZED
@given(cases)
def test_add_mul_scale_match_the_dict_oracle(case):
    spec, nvars, D, seed = case
    rng = random.Random(seed)
    a, b = rand_series(spec, nvars, D, rng), rand_series(spec, nvars, D, rng)
    c = random_ideal_element(spec, 0, rng)
    red = lambda poly: reduce_model(spec, nvars, D, poly)  # noqa: E731
    assert lift(a + b) == red(poly_add(lift(a), lift(b)))
    assert lift(a * b) == red(poly_mul(lift(a), lift(b)))
    assert lift(-a) == red({e: -v for e, v in lift(a).items()})
    assert lift(a.scale(c)) == red(poly_mul(lift(a), constant_model(c, nvars)))
    power = {(0,) * (nvars + inner_count(spec)): 1}
    for e in range(4):
        assert lift(a**e) == red(power)
        power = red(poly_mul(power, lift(a)))


@settings(derandomize=True, max_examples=15, deadline=None, database=None)
@given(cases)
def test_add_mul_pow_match_sympy(case):
    spec, nvars, D, seed = case
    rng = random.Random(seed)
    a, b = rand_series(spec, nvars, D, rng), rand_series(spec, nvars, D, rng)
    gens = _symbols(nvars + inner_count(spec))
    ea, eb = to_sympy(lift(a), gens), to_sympy(lift(b), gens)
    red = lambda expr: reduce_model(spec, nvars, D, from_sympy(sympy.expand(expr), gens))  # noqa: E731
    assert lift(a + b) == red(ea + eb)
    assert lift(a * b) == red(ea * eb)
    assert lift(a**3) == red(ea**3)


substitutions = st.tuples(st.sampled_from(SPECS), st.integers(1, 3), st.integers(1, 2),
                          st.integers(2, 4), st.lists(st.booleans(), min_size=3, max_size=3),
                          st.integers(0, 2**32 - 1))


def _substitution(case):
    """outer (nvars variables), a mixed entry list with at least one series
    in out_nvars variables, and the lifted entries."""
    spec, nvars, out_nvars, D, constant, seed = case
    rng = random.Random(seed)
    constant = constant[:nvars]
    constant[rng.randrange(nvars)] = False
    outer = rand_series(spec, nvars, D, rng)
    entries, values = [], []
    for k in constant:
        if k:
            c = random_ideal_element(spec, 1, rng)
            entries.append(c)
            values.append(constant_model(c, out_nvars))
        else:
            s = rand_series(spec, out_nvars, D, rng, density=0.4)
            entries.append(s)
            values.append(lift(s))
    return spec, nvars, out_nvars, D, outer, entries, values


@DERANDOMIZED
@given(substitutions)
def test_substitute_mixed_entries_matches_the_dict_oracle(case):
    spec, nvars, out_nvars, D, outer, entries, values = _substitution(case)
    got = substitute(outer, entries)
    assert (got.nvars, got.D) == (out_nvars, D)
    want = model_substitute(lift(outer), nvars, values, out_nvars, spec)
    assert lift(got) == reduce_model(spec, out_nvars, D, want)
    # a tuple substitutes componentwise, sharing the cached powers
    other = outer * outer + outer
    pair = substitute(SeriesTuple.of(other, outer), entries)
    assert pair.components == (substitute(other, entries), got)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(substitutions)
def test_substitute_mixed_entries_matches_sympy(case):
    spec, nvars, out_nvars, D, outer, entries, values = _substitution(case)
    r = inner_count(spec)
    xs, ys, ts = _symbols(nvars), sympy.symbols(f"y0:{out_nvars}"), sympy.symbols(f"t0:{r}")
    e_outer = to_sympy(lift(outer), xs + ts)
    e_values = [to_sympy(v, ys + ts) for v in values]
    expr = sympy.expand(e_outer.subs(dict(zip(xs, e_values)), simultaneous=True))
    got = substitute(outer, entries)
    assert lift(got) == reduce_model(spec, out_nvars, D, from_sympy(expr, ys + ts))


@DERANDOMIZED
@given(st.tuples(st.sampled_from(SPECS), st.integers(1, 2), st.integers(1, 3),
                 st.integers(2, 4), st.integers(0, 2**32 - 1)))
def test_compose_matches_both_oracles(case):
    spec, count, nvars, D, seed = case
    rng = random.Random(seed)
    outer = SeriesTuple(tuple(rand_series(spec, count, D, rng) for _ in range(2)))
    inner = SeriesTuple(tuple(no_constant(rand_series(spec, nvars, D, rng, density=0.4))
                              for _ in range(count)))
    got = compose(outer, inner)
    values = [lift(s) for s in inner]
    r = inner_count(spec)
    xs, ys, ts = _symbols(count), sympy.symbols(f"y0:{nvars}"), sympy.symbols(f"t0:{r}")
    e_values = [to_sympy(v, ys + ts) for v in values]
    for g, s in zip(got, outer):
        want = model_substitute(lift(s), count, values, nvars, spec)
        assert lift(g) == reduce_model(spec, nvars, D, want)
        expr = sympy.expand(to_sympy(lift(s), xs + ts).subs(dict(zip(xs, e_values)),
                                                           simultaneous=True))
        assert lift(g) == reduce_model(spec, nvars, D, from_sympy(expr, ys + ts))


# -- specialisation and the graded-lex memo ------------------------------------------------


@DERANDOMIZED
@given(st.sampled_from(NESTED_SPECS), st.integers(0, 2**32 - 1))
def test_specialisation_matches_nested_terms(spec, seed):
    rng = random.Random(seed)
    pts = representatives(spec.base, 1, min(2, spec.K))
    point = tuple(rng.choice(pts) for _ in range(spec.m))
    phi = Specialisation(spec, point)
    for _ in range(5):
        c = random_ideal_element(spec, 0, rng)
        old = Coefficient.zero(spec.base)
        for alpha, b in c.nested_terms():
            term = b
            for q, e in zip(point, alpha):
                term = term * q**e
            old = old + term
        assert phi(c) == old


def test_grlex_memo_agrees_with_grlex_key():
    # run the arithmetic of this module's shapes, then check every exponent
    # vector the memo has seen, and the order collect gives
    rng = random.Random(3)
    for spec in SPECS:
        a, b = rand_series(spec, 3, 4, rng), rand_series(spec, 3, 4, rng)
        prod = a * b
        alphas = [alpha for alpha, _ in prod.terms]
        assert alphas == sorted(alphas, key=grlex_key)
    seen = dict(rings._GRLEX_KEYS)
    assert len(seen) >= 20
    assert all(key == grlex_key(alpha) for alpha, key in seen.items())
