import random

import pytest

from oracles import poly_add, poly_eval, poly_mul, poly_truncate
from prostd.errors import (
    MaximalIdealError,
    ShapeError,
    SubstitutionError,
)
from prostd.rings import (
    Coefficient,
    PrecisionReduction,
    eqchar,
    grlex_key,
    nested,
    padic,
    parse_coefficient,
    random_ideal_element,
    representatives,
)
from prostd.series import Series, SeriesTuple, compose, constancy, substitute
from prostd.specialise import Specialisation


def rand_series(spec, nvars, D, rng, density=0.4):
    items = {}
    from prostd.rings import bounded_exponents

    for alpha in bounded_exponents(nvars, D):
        if rng.random() < density:
            items[alpha] = random_ideal_element(spec, 0, rng)
    return Series.make(spec, nvars, D, items)


def rand_zero_const_tuple(spec, count, nvars, D, rng):
    out = []
    for _ in range(count):
        s = rand_series(spec, nvars, D, rng)
        out.append(s - Series.constant(spec, nvars, D, s.constant_term()))
    return SeriesTuple(tuple(out))


# -- construction ----------------------------------------------------------------


def test_make_orders_and_drops_zeros():
    spec = padic(2, 4)
    s = Series.make(spec, 2, 4, {(0, 1): 1, (1, 0): 1, (2, 0): 16, (0, 0): 3})
    assert [a for a, _ in s.terms] == [(0, 0), (1, 0), (0, 1)]  # graded-lex, 16 = 0
    assert str(s) == "3 + 1*X1 + 1*X2"


def test_make_degree_guard():
    spec = padic(2, 4)
    with pytest.raises(ShapeError):
        Series.make(spec, 1, 2, {(2,): 1})


def test_variable_and_slices():
    spec = padic(3, 3)
    x = Series.variable(spec, 2, 5, 0)
    y = Series.variable(spec, 2, 5, 1)
    f = (x + y) * (x + y)
    assert f.graded_slice(2) == f
    assert f.graded_slice(1).is_zero
    assert int(f.coefficient((1, 1))) == 2


# -- arithmetic vs the exact oracle ------------------------------------------------


def test_mul_matches_integer_oracle():
    spec = padic(5, 3)
    rng = random.Random(21)
    D = 5
    for _ in range(10):
        a = rand_series(spec, 2, D, rng)
        b = rand_series(spec, 2, D, rng)
        pa = {alpha: int(c) for alpha, c in a.terms}
        pb = {alpha: int(c) for alpha, c in b.terms}
        expect = {alpha: c % 125 for alpha, c in poly_truncate(poly_mul(pa, pb), D).items()
                  if c % 125}
        got = a * b
        assert [alpha for alpha, _ in got.terms] == sorted(expect, key=grlex_key)
        assert {alpha: int(c) for alpha, c in got.terms} == expect


def test_add_matches_integer_oracle():
    spec = padic(5, 3)
    rng = random.Random(22)
    D = 5
    for _ in range(10):
        a = rand_series(spec, 2, D, rng)
        # b cancels about half of a's terms, so some sums vanish
        cancel = Series.make(spec, 2, D, [t for t in a.terms if rng.random() < 0.5])
        b = rand_series(spec, 2, D, rng) - cancel
        pa = {alpha: int(c) for alpha, c in a.terms}
        pb = {alpha: int(c) for alpha, c in b.terms}
        expect = {alpha: c % 125 for alpha, c in poly_add(pa, pb).items() if c % 125}
        got = a + b
        assert [alpha for alpha, _ in got.terms] == sorted(expect, key=grlex_key)
        assert {alpha: int(c) for alpha, c in got.terms} == expect


def test_evaluate_matches_integer_oracle():
    spec = padic(3, 4)
    rng = random.Random(2)
    for _ in range(10):
        s = rand_series(spec, 3, 4, rng)
        args = tuple(random_ideal_element(spec, 1, rng) for _ in range(3))
        naive = poly_eval({a: int(c) for a, c in s.terms}, [int(x) for x in args]) % 81
        assert int(s.evaluate(args)) == naive


def test_evaluate_validation():
    spec = padic(3, 4)
    s = Series.variable(spec, 1, 3, 0)
    with pytest.raises(MaximalIdealError):
        s.evaluate((Coefficient.one(spec),))
    with pytest.raises(ShapeError):
        s.evaluate(())


@pytest.mark.parametrize("bad", [1, "2", None])
def test_evaluation_points_must_be_coefficients(bad):
    # the same error type as substitute gives for a foreign entry
    from prostd.atlas import HElement, inversion_extension
    from prostd.fgl import builtin
    from prostd.stdgrp import StandardGroup

    spec = padic(3, 4)
    name = type(bad).__name__
    with pytest.raises(ShapeError, match=f"object of type {name}"):
        Series.variable(spec, 1, 3, 0).evaluate((bad,))
    with pytest.raises(ShapeError, match=f"object of type {name}"):
        SeriesTuple.block(spec, 2, 3, 0, 2).evaluate((Coefficient.from_int(spec, 3), bad))
    data = inversion_extension(StandardGroup(builtin("additive", spec, 4), 1))
    good = data.element("s", ["3"])
    with pytest.raises(ShapeError, match=f"object of type {name}"):
        data.mul(good, HElement("s", (bad,)))
    with pytest.raises(ShapeError, match=f"object of type {name}"):
        data.inv(HElement("1", (bad,)))


# -- substitution and composition ---------------------------------------------------


def test_substitute_partial_evaluation():
    spec = padic(3, 4)
    x = Series.variable(spec, 2, 4, 0)
    y = Series.variable(spec, 2, 4, 1)
    f = x * y + y * y
    three = Coefficient.from_int(spec, 3)
    g = substitute(f, [three, Series.variable(spec, 1, 4, 0)])
    # f(3, Z) = 3Z + Z^2
    assert g.nvars == 1
    assert int(g.coefficient((1,))) == 3
    assert int(g.coefficient((2,))) == 1
    z = random_ideal_element(spec, 1, random.Random(4))
    assert g.evaluate((z,)) == f.evaluate((three, z))


def test_substitute_rejects_units_and_empty():
    spec = padic(3, 4)
    x = Series.variable(spec, 2, 4, 0)
    with pytest.raises(MaximalIdealError):
        substitute(x, [Coefficient.one(spec), Series.variable(spec, 1, 4, 0)])
    with pytest.raises(ShapeError):
        substitute(x, [Coefficient.zero(spec), Coefficient.zero(spec)])


def test_compose_requires_zero_constants():
    spec = padic(2, 3)
    outer = SeriesTuple.block(spec, 2, 3, 0, 2)
    inner = SeriesTuple.of(Series.constant(spec, 1, 3, 2), Series.variable(spec, 1, 3, 0))
    with pytest.raises(SubstitutionError, match="not supported at truncation"):
        compose(outer, inner)


def test_compose_associative():
    spec = padic(2, 4)
    rng = random.Random(31)
    D = 5
    for _ in range(6):
        G = rand_zero_const_tuple(spec, 2, 2, D, rng)
        F = rand_zero_const_tuple(spec, 2, 3, D, rng)
        E = rand_zero_const_tuple(spec, 3, 2, D, rng)
        assert compose(compose(G, F), E) == compose(G, compose(F, E))


def test_compose_evaluate_commute():
    # D >= K makes the truncation tail invisible on ideal points
    spec = padic(2, 4)
    rng = random.Random(8)
    G = rand_zero_const_tuple(spec, 2, 2, 4, rng)
    F = rand_zero_const_tuple(spec, 2, 2, 4, rng)
    for _ in range(10):
        x = tuple(random_ideal_element(spec, 1, rng) for _ in range(2))
        assert compose(G, F).evaluate(x) == G.evaluate(F.evaluate(x))


# -- transport -----------------------------------------------------------------------


def test_transport_commutes_with_compose():
    spec = nested(padic(2, 4), 2, 4)
    rng = random.Random(77)
    pts = representatives(spec.base, 1, 3)
    for i in range(8):
        G = rand_zero_const_tuple(spec, 2, 2, 6, rng)
        F = rand_zero_const_tuple(spec, 2, 2, 6, rng)
        phi = Specialisation(spec, (pts[i % len(pts)], pts[(3 * i + 1) % len(pts)]))
        lhs = compose(G, F).map_coefficients(phi)
        rhs = compose(G.map_coefficients(phi), F.map_coefficients(phi))
        assert lhs == rhs


def test_transport_commutes_with_evaluate():
    spec = nested(padic(2, 4), 1, 4)
    rng = random.Random(5)
    F = rand_zero_const_tuple(spec, 2, 2, 4, rng)
    phi = Specialisation(spec, ("2",))
    for _ in range(10):
        x = tuple(random_ideal_element(spec, 1, rng) for _ in range(2))
        lhs = tuple(phi(v) for v in F.evaluate(x))
        rhs = F.map_coefficients(phi).evaluate(tuple(phi(v) for v in x))
        assert lhs == rhs


def test_precision_reduction_on_series():
    spec = padic(2, 4)
    red = PrecisionReduction(spec, 2)
    s = Series.make(spec, 1, 3, {(1,): 6, (2,): 4})
    out = s.map_coefficients(red)
    assert out.spec == red.target
    assert [(a, int(c)) for a, c in out.terms] == [((1,), 2)]  # 4 = 0 mod 4


# -- constancy ------------------------------------------------------------------------


def test_constancy_constant():
    spec = padic(2, 4)
    T = SeriesTuple.of(Series.constant(spec, 2, 3, 3), Series.zero(spec, 2, 3))
    v = constancy(T)
    assert v.constant
    assert [int(c) for c in v.constants] == [3, 0]
    assert v.witness_name() is None


def test_constancy_witness_order():
    spec = padic(2, 4)
    a = Series.make(spec, 2, 4, {(0, 2): 1})
    b = Series.make(spec, 2, 4, {(1, 1): 1})
    v = constancy(SeriesTuple.of(a, b))
    # degree ties break by graded-lex: X1*X2 beats X2^2 regardless of order
    assert not v.constant
    assert v.component == 1
    assert v.witness_name() == "component 2: X1*X2"


# -- io and formatting ----------------------------------------------------------------


def test_series_json_roundtrip():
    rng = random.Random(10)
    for spec in [padic(3, 4), eqchar(2, 3), nested(padic(2, 4), 2, 3)]:
        T = rand_zero_const_tuple(spec, 2, 3, 4, rng)
        back = SeriesTuple.from_json(spec, T.to_json())
        assert back == T


def test_series_json_rejects_overflow_degree():
    spec = padic(2, 3)
    s = Series.make(spec, 1, 5, {(4,): 1})
    obj = s.to_json()
    obj["D"] = 3
    with pytest.raises(ShapeError):
        Series.from_json(spec, obj)


def test_str_forms():
    spec = eqchar(2, 3)
    x = Series.variable(spec, 2, 4, 0)
    s = x.scale(parse_coefficient(spec, "1+t"))
    assert str(s) == "(1+1*t)*X1"
    assert str(Series.zero(spec, 2, 4)) == "0"
