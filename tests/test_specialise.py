import random

import pytest

import prostd
from prostd import atlas
from prostd.atlas import cyclic_table, direct_product, inversion_extension
from prostd.errors import (
    EnumerationBoundError,
    ExactnessError,
    MaximalIdealError,
    RingMismatchError,
    ShapeError,
)
from prostd.fgl import builtin
from prostd.rings import (
    Coefficient,
    eqchar,
    nested,
    padic,
    parse_coefficient,
    random_ideal_element,
)
from prostd.specialise import (
    ExactPoly,
    Specialisation,
    classify_constant,
    concision_probe,
    exact_lift,
    exact_value,
    ideal_grid,
    kernel_grid_test,
    specialise_constants,
    transport_coherence,
)
from prostd.stdgrp import StandardGroup
from prostd.words import parse_word


# -- specialisation maps ---------------------------------------------------------------


def test_specialisation_validation():
    spec = nested(padic(2, 4), 2, 4)
    s = Specialisation(spec, ("2", "0"))
    assert str(s) == "t -> (2, 0)"
    with pytest.raises(RingMismatchError):
        Specialisation(padic(2, 4), ("2",))
    with pytest.raises(ShapeError):
        Specialisation(spec, ("2",))
    with pytest.raises(MaximalIdealError):
        Specialisation(spec, ("1", "0"))
    with pytest.raises(RingMismatchError):
        s(Coefficient.make(padic(2, 4), 2))


def test_specialisation_checks_its_point_once(monkeypatch):
    # the point is validated when the map is built; applying the map checks
    # only the coefficient's ring, so no valuation is taken per coefficient
    spec = nested(padic(2, 4), 2, 4)
    rng = random.Random(8)
    cs = [random_ideal_element(spec, 0, rng) for _ in range(50)]
    s = Specialisation(spec, ("2", "4"))
    calls = []
    real = Coefficient.valuation
    monkeypatch.setattr(Coefficient, "valuation", lambda c: calls.append(c) or real(c))
    out = [s(c) for c in cs]
    assert calls == []
    a1, a2 = s.point
    assert out == [sum((b * a1**e1 * a2**e2 for (e1, e2), b in c.nested_terms()),
                       Coefficient.zero(spec.base)) for c in cs]


def test_specialise_is_exported_as_the_function():
    # importing the submodule must not rebind the package's `specialise`
    assert prostd.specialise is prostd.rings.specialise
    star: dict = {}
    exec("from prostd import *", star)
    assert star["specialise"] is prostd.rings.specialise
    spec = nested(padic(2, 4), 1, 2)
    assert prostd.specialise(parse_coefficient(spec, "1 + t1"), ("2",)) == \
        Coefficient.from_int(spec.base, 3)


def test_specialisation_is_a_homomorphism():
    # with Dt >= K the tail killed by truncation stays invisible in the base
    spec = nested(padic(2, 4), 1, 4)
    s = Specialisation(spec, ("2",))
    rng = random.Random(5)
    for _ in range(30):
        a = random_ideal_element(spec, 0, rng)
        b = random_ideal_element(spec, 0, rng)
        assert s(a + b) == s(a) + s(b)
        assert s(a * b) == s(a) * s(b)
    assert s(Coefficient.one(spec)) == Coefficient.one(spec.base)


def test_ideal_grid():
    spec = nested(padic(2, 3), 2, 3)
    grid = ideal_grid(spec, 2)
    vals = [tuple(int(q) for q in pt) for pt in grid]
    assert vals == [(0, 0), (0, 2), (2, 0), (2, 2)]
    tspec = nested(eqchar(2, 3), 1, 3)
    assert [str(pt[0]) for pt in ideal_grid(tspec, 3)] == \
        ["0", "1*t", "1*t^2", "1*t+1*t^2"]
    with pytest.raises(RingMismatchError):
        ideal_grid(padic(2, 3), 2)


def test_ideal_grid_depth_and_bound(monkeypatch):
    spec = nested(padic(2, 6), 2, 3)
    for depth in (0, -1, 7):
        with pytest.raises(ValueError, match=rf"^grid depth must be in 1\.\.6, got {depth}$"):
            ideal_grid(spec, depth)
    assert len(ideal_grid(spec, 1)) == 1 and len(ideal_grid(spec, 6)) == 32**2
    # the 32^2 grid points count against the enumeration bound
    monkeypatch.setenv("PROSTD_ENUM_BOUND", "1023")
    with pytest.raises(EnumerationBoundError, match="1024"):
        ideal_grid(spec, 6)
    monkeypatch.setenv("PROSTD_ENUM_BOUND", "5")
    assert len(ideal_grid(spec, 2)) == 4
    with pytest.raises(EnumerationBoundError):
        ideal_grid(spec, 6)


# -- exact polynomials -------------------------------------------------------------------


def test_exact_poly_int():
    f = ExactPoly(2, 0, {(2, 1): 1, (0, 0): 5, (1, 1): 0})
    assert f.coeffs == {(2, 1): 1, (0, 0): 5}
    assert f.degree_in(0) == 2 and f.degree_in(1) == 1
    assert f.evaluate((3, 2)) == 9 * 2 + 5
    assert not f.is_zero and ExactPoly(2, 0, {}).is_zero
    assert ExactPoly(1, 0, {(0,): 0}).degree_in(0) == -1
    with pytest.raises(ShapeError):
        ExactPoly(2, 0, {(1,): 1})
    with pytest.raises(ExactnessError):
        ExactPoly(1, 0, {(1,): 1.5})
    with pytest.raises(ShapeError):
        f.evaluate((3,))


def test_exact_poly_fp():
    # (1 + t) * t1 over F_2[t], evaluated exactly with no truncation
    f = ExactPoly(1, 2, {(1,): (1, 1)})
    assert f.evaluate(((0, 1),)) == (0, 1, 1)
    assert f.evaluate(((0,),)) == ()
    g = ExactPoly(1, 2, {(2,): 1, (1,): 1})
    assert g.evaluate(((1,),)) == ()  # t^2 + t vanishes at t = 1
    assert g.evaluate(((0, 1),)) == (0, 1, 1)
    assert ExactPoly(1, 3, {(0,): (3, 6)}).is_zero
    with pytest.raises(ExactnessError):
        ExactPoly(1, 2, {(1,): "t"})


def test_exact_value_and_lift():
    assert exact_value(Coefficient.make(padic(2, 4), -3)) == 13
    assert exact_value(parse_coefficient(eqchar(3, 3), "2+1*t^2")) == (2, 0, 1)
    spec = nested(padic(2, 3), 1, 3)
    with pytest.raises(RingMismatchError):
        exact_value(Coefficient.zero(spec))
    c = parse_coefficient(spec, "2 + 1*t1^2")
    f = exact_lift(c)
    assert f == ExactPoly(1, 0, {(0,): 2, (2,): 1})
    assert f.evaluate((2,)) == 6
    with pytest.raises(RingMismatchError):
        exact_lift(Coefficient.make(padic(2, 3), 1))


# -- grid kernel test ---------------------------------------------------------------------


def test_kernel_grid_nonzero_witness():
    f = ExactPoly(2, 0, {(1, 1): 1})
    verdict = kernel_grid_test(f, [[0, 1], [0, 1]])
    assert verdict.status == "nonzero"
    assert verdict.witness == (1, 1) and verdict.checked == 4
    assert verdict.to_json() == {"status": "nonzero", "checked": 4,
                                 "witness": [1, 1]}


def test_kernel_grid_precondition():
    f = ExactPoly(1, 0, {(2,): 1, (1,): -1})  # t1 * (t1 - 1)
    verdict = kernel_grid_test(f, [[0, 1]])
    assert verdict.status == "precondition" and verdict.checked == 0
    assert "degree 2 in t1" in verdict.detail
    assert kernel_grid_test(f, [[0, 1, 2]]).status == "nonzero"


def test_kernel_grid_zero():
    assert kernel_grid_test(ExactPoly(2, 0, {}), [[0, 1], [0, 1]]).status == "zero"
    g = ExactPoly(1, 2, {(2,): 1, (1,): 1})
    verdict = kernel_grid_test(g, [[(), (1,), (0, 1)]])
    assert verdict.status == "nonzero" and verdict.witness == ((0, 1),)


def test_kernel_grid_refuses_truncated_input():
    spec = nested(padic(2, 3), 1, 3)
    with pytest.raises(ExactnessError):
        kernel_grid_test(parse_coefficient(spec, "1*t1"), [[0, 1]])
    f = ExactPoly(1, 0, {(1,): 1})
    with pytest.raises(ExactnessError):
        kernel_grid_test(f, [[Coefficient.zero(padic(2, 3))]])
    with pytest.raises(ShapeError):
        kernel_grid_test(f, [[0, 1], [0, 1]])


# -- constant classification -----------------------------------------------------------------


def test_classify_constant():
    spec = nested(padic(2, 2), 1, 2)
    grid = ideal_grid(spec, 2)
    assert classify_constant(Coefficient.zero(spec), grid) == "zero"
    # 2*t1 is nonzero at precision yet dies at every grid point
    assert classify_constant(parse_coefficient(spec, "2*t1"), grid) == \
        "grid-vanishing-only"
    assert classify_constant(parse_coefficient(spec, "1*t1"), grid) == "nonvanishing"


def test_specialise_constants_order():
    spec = nested(padic(2, 3), 1, 3)
    grid = ideal_grid(spec, 2)
    c = parse_coefficient(spec, "1*t1")
    rows = specialise_constants((c, c + c), grid)
    assert [tuple(int(q) for q in row) for row in rows] == [(0, 0), (2, 4)]


def test_specialise_constants_checks_each_point_once(monkeypatch):
    # a point is checked when its map is built, once per call, not once per
    # constant: m = 2 coordinate valuations at each of the 4 grid points
    spec = nested(padic(2, 4), 2, 3)
    grid = ideal_grid(spec, 2)
    rng = random.Random(5)
    constants = [random_ideal_element(spec, 0, rng) for _ in range(30)]
    expected = [tuple(prostd.specialise(c, pt) for c in constants) for pt in grid]
    calls = 0
    valuation = Coefficient.valuation

    def counting(self):
        nonlocal calls
        calls += 1
        return valuation(self)

    monkeypatch.setattr(Coefficient, "valuation", counting)
    rows = specialise_constants(constants, grid)
    assert (len(grid), calls) == (4, 8)
    assert rows == expected


# -- the probe ---------------------------------------------------------------------------------


def test_probe_inversion_even_char():
    spec = nested(eqchar(2, 3), 1, 3)
    data = inversion_extension(StandardGroup(builtin("additive", spec, 4), 1))
    grid = ideal_grid(spec, 3)
    report = concision_probe(parse_word("x1"), data, 2, grid)
    assert [lv.status for lv in report.levels] == ["witness", "constant"]
    assert report.levels[1].trivial and report.min_l == 2
    js = report.to_json()
    assert js["min_l"] == 2 and js["m_l"] == {"2": [0, 1, 2, 3]}
    assert js["word"] == "x1" and len(js["grid"]) == 4


def test_probe_inversion_odd_p_never_trivial():
    spec = nested(padic(3, 3), 1, 3)
    data = inversion_extension(StandardGroup(builtin("additive", spec, 4), 1))
    report = concision_probe(parse_word("x1^2"), data, 3, ideal_grid(spec, 2))
    assert report.min_l is None
    assert all(lv.status == "witness" for lv in report.levels)
    assert report.levels[0].witness == "component 1: X1"
    assert report.levels[0].witness_cosets == ("1",)


def test_probe_requires_identity_target():
    # squares land on the s2 coset of C4, so constants alone must not certify
    spec = nested(eqchar(2, 2), 1, 2)
    data = direct_product(StandardGroup(builtin("additive", spec, 3), 1),
                          cyclic_table(4))
    report = concision_probe(parse_word("x1^2"), data, 2, ideal_grid(spec, 2))
    first = report.levels[0]
    assert first.status == "constant" and not first.trivial
    targets = {row.cosets[0]: row.target for row in first.rows}
    assert targets == {"1": "1", "s": "s2", "s2": "1", "s3": "s2"}
    assert report.levels[1].trivial and report.min_l == 2


def test_probe_direct_product_commutator():
    spec = nested(padic(2, 4), 1, 4)
    data = direct_product(StandardGroup(builtin("multiplicative", spec, 4), 1),
                          cyclic_table(2))
    report = concision_probe(parse_word("[x1, x2]"), data, 1, ideal_grid(spec, 2))
    assert report.min_l == 1 and report.levels[0].trivial


def test_probe_guards():
    data = inversion_extension(StandardGroup(builtin("additive", padic(2, 3), 4), 1))
    with pytest.raises(RingMismatchError, match="nested"):
        concision_probe(parse_word("x1"), data, 1, [])
    spec = nested(eqchar(2, 2), 1, 2)
    ndata = inversion_extension(StandardGroup(builtin("additive", spec, 3), 1))
    with pytest.raises(ValueError, match="lmax"):
        concision_probe(parse_word("x1"), ndata, 0, [])


# -- coherence ----------------------------------------------------------------------------------


def test_transport_coherence_agrees(monkeypatch):
    # every grid point is a homomorphism (Dt = K) and D*N = 4 >= 3, so the
    # proven data are transported with no sampled re-check
    revalidated = []
    real = atlas.validate_transversal
    monkeypatch.setattr(atlas, "validate_transversal",
                        lambda *a, **k: revalidated.append(a) or real(*a, **k))
    spec = nested(eqchar(2, 3), 1, 3)
    data = inversion_extension(StandardGroup(builtin("additive", spec, 4), 1))
    grid = ideal_grid(spec, 3)
    checks = transport_coherence(parse_word("x1^2"), data, grid)
    assert len(checks) == 4
    assert all(c.ok for c in checks)
    assert [c.index for c in checks] == [0, 1, 2, 3]
    assert revalidated == []


def test_transport_coherence_needs_marginal_word():
    spec = nested(padic(3, 3), 1, 3)
    data = inversion_extension(StandardGroup(builtin("additive", spec, 4), 1))
    with pytest.raises(ValueError, match="marginal"):
        transport_coherence(parse_word("x1^2"), data, ideal_grid(spec, 2))
