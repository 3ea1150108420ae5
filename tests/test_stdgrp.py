import random
import re

import pytest

from oracles import HeisQuotient, heis_coords, heis_inv_mat, heis_mat, mat_mul
from prostd.errors import EnumerationBoundError, ExactnessError, MaximalIdealError, RingMismatchError
from prostd.fgl import builtin
from prostd.rings import Coefficient, eqchar, padic, random_ideal_element
from prostd import stdgrp
from prostd.stdgrp import GroupElement, StandardGroup


def heis_group(p=2, K=5, N=1, D=5):
    return StandardGroup(builtin("heisenberg", padic(p, K), D), N)


def ints(g):
    return tuple(int(c) for c in g.coords)


# -- elements ------------------------------------------------------------------------


def test_element_validation():
    G = heis_group(N=2)
    G.element(["4", "8", "12"])
    with pytest.raises(MaximalIdealError, match=r"^coordinate 2 is not in m\^2$"):
        G.element(["2", "4", "8"])
    with pytest.raises(RingMismatchError, match="different ring"):
        G.element([Coefficient.make(eqchar(2, 5), (0, 1))] * 3)
    with pytest.raises(ValueError, match="coordinates"):
        G.element(["4", "8"])
    with pytest.raises(ValueError, match=">= 1"):
        StandardGroup(G.law, 0)


def test_element_checks_the_coordinate_count_first():
    # a coordinate outside the ideal must not hide a wrong count
    G = heis_group()
    with pytest.raises(ValueError, match="expected 3 coordinates, got 4"):
        G.element(["2", "4", "8", "1"])
    with pytest.raises(ValueError, match="expected 3 coordinates, got 2"):
        G.element(iter(["1", "2"]))


def test_operations_check_the_level():
    # explicit checks, so they hold under python -O as well
    G = heis_group(N=2)
    low = GroupElement(G, tuple(Coefficient.make(G.law.spec, v) for v in (1, 0, 0)))
    with pytest.raises(MaximalIdealError, match="left level N=2"):
        G.mul(low, low)
    with pytest.raises(MaximalIdealError, match="left level N=2"):
        G.inv(low)
    hq = heis_group().quotient(2)
    x = hq.elements[1]
    del hq._by_payload[tuple(c.payload for c in hq.mul(x, x))]
    with pytest.raises(MaximalIdealError, match="not closed under mul and inv"):
        hq.mul(x, x)


def test_identity_and_str():
    G = heis_group()
    e = G.identity
    assert str(e) == "(0, 0, 0)"
    g = G.element(["2", "4", "8"])
    assert G.mul(e, g) == g == G.mul(g, e)


# -- group law against the matrix oracle ------------------------------------------------


def test_mul_inv_match_matrices():
    G = heis_group()
    q = 2**5
    rng = random.Random(11)
    for _ in range(40):
        x = G.element([random_ideal_element(G.law.spec, 1, rng) for _ in range(3)])
        y = G.element([random_ideal_element(G.law.spec, 1, rng) for _ in range(3)])
        prod = mat_mul(heis_mat(*ints(x), q), heis_mat(*ints(y), q), q)
        assert ints(x * y) == heis_coords(prod)
        assert ints(x.inverse()) == heis_coords(heis_inv_mat(heis_mat(*ints(x), q), q))


def test_power_and_negative_power():
    G = heis_group()
    g = G.element(["2", "4", "8"])
    acc = G.identity
    for n in range(8):
        assert g**n == acc
        assert g**-n == acc.inverse()
        acc = acc * g
    assert g**16 == G.identity  # exponent of the level-1 quotient at K=5


# -- conjugation ------------------------------------------------------------------------


def test_conj_series_formula_and_pointwise():
    G = heis_group()
    q = 2**5
    g = G.element(["2", "6", "4"])
    C = G.conj_series(g)
    a, b = 2, 6
    # matrix computation gives g^-1 x g = (x1, x2, x3 + b*x1 - a*x2)
    assert int(C[0].coefficient((1, 0, 0))) == 1
    assert int(C[1].coefficient((0, 1, 0))) == 1
    assert int(C[2].coefficient((0, 0, 1))) == 1
    assert int(C[2].coefficient((1, 0, 0))) == b % q
    assert int(C[2].coefficient((0, 1, 0))) == -a % q
    rng = random.Random(3)
    for _ in range(20):
        x = G.element([random_ideal_element(G.law.spec, 1, rng) for _ in range(3)])
        lhs = ints(G.element(C.evaluate(x.coords)))
        gm = heis_mat(*ints(g), q)
        xm = heis_mat(*ints(x), q)
        rhs = heis_coords(mat_mul(mat_mul(heis_inv_mat(gm, q), xm, q), gm, q))
        assert lhs == rhs


# -- quotients ----------------------------------------------------------------------------


def test_quotient_size_and_oracle_agreement():
    G = heis_group(p=2, K=5, N=1, D=5)
    for M in (1, 2, 3):
        hq = G.quotient(M)
        assert len(hq) == (2 ** (M - 1)) ** 3
        oracle = HeisQuotient(2, 1, M)
        table = {ints_q(x): x for x in hq.elements}
        assert set(table) == set(oracle.elements)
        for x in hq.elements:
            for y in hq.elements:
                assert ints_q(hq.mul(x, y)) == oracle.mul(ints_q(x), ints_q(y))
            assert ints_q(hq.inv(x)) == oracle.inv(ints_q(x))


def ints_q(coords):
    return tuple(int(c) for c in coords)


def test_quotient_group_axioms_small():
    G = StandardGroup(builtin("multiplicative", padic(3, 3), 4), 1)
    hq = G.quotient(3)
    assert len(hq) == 9
    for x in hq.elements:
        assert hq.mul(x, hq.inv(x)) == hq.identity
        assert hq.mul(hq.identity, x) == x
        for y in hq.elements:
            for z in hq.elements:
                assert hq.mul(hq.mul(x, y), z) == hq.mul(x, hq.mul(y, z))


def test_quotient_validation_and_bound():
    G = heis_group()
    with pytest.raises(ValueError, match="M must be >="):
        G.quotient(0)
    with pytest.raises(EnumerationBoundError):
        G.quotient(5, bound=100)


def test_quotient_refuses_before_enumerating(monkeypatch):
    # the guard sees |reps|^d before a single representative is built, and
    # each refusal keeps its message: the axis size, the product size, or K
    built = []
    real = stdgrp.representatives
    monkeypatch.setattr(stdgrp, "representatives", lambda *a: built.append(a) or real(*a))
    G = heis_group(K=20)
    with pytest.raises(EnumerationBoundError,
                       match=r"^enumeration size 144115188075855872 exceeds bound 1000000$"):
        G.quotient(20, bound=10**6)
    with pytest.raises(EnumerationBoundError, match=r"^enumeration size 16 exceeds bound 10$"):
        G.quotient(5, bound=10)
    with pytest.raises(ValueError, match=r"^quotient level 21 exceeds precision K=20$"):
        G.quotient(21, bound=1)
    assert built == []
    assert len(G.quotient(2)) == 8 and built == [(G.law.spec, 1, 2)]


def test_quotient_refuses_truncation_visible_levels(monkeypatch):
    # above M = D*N a law truncated at D is wrong mod m^M unless truncation
    # cuts nothing from it; the refusal comes before any representative
    built = []
    real = stdgrp.representatives
    monkeypatch.setattr(stdgrp, "representatives", lambda *a: built.append(a) or real(*a))
    mult = StandardGroup(builtin("multiplicative", padic(2, 8), 3), 1)  # its inverse is cut
    with pytest.raises(ExactnessError, match=r"^quotient level M=6 exceeds D\*N=3 .* raise D to 6$"):
        mult.quotient(6)
    with pytest.raises(ExactnessError, match="M=4 exceeds D\\*N=3"):
        mult.quotient(4)
    assert built == []
    # at M <= D*N the same law builds, and here x * x^-1 = e for every element
    Q = mult.quotient(3)
    assert all(Q.mul(x, Q.inv(x)) == Q.identity for x in Q.elements)
    with pytest.raises(ExactnessError, match="M=7 exceeds D\\*N=6"):
        StandardGroup(mult.law, 2).quotient(7)
    assert len(StandardGroup(mult.law, 2).quotient(6)) == 16
    # exact polynomial laws (additive, Heisenberg) build above D*N
    additive = StandardGroup(builtin("additive", padic(3, 6), 2, dim=2), 1)
    assert len(additive.quotient(4)) == 27**2
    heis = heis_group(K=8, D=3)
    Q = heis.quotient(5)
    assert len(Q) == 16**3 and all(Q.mul(x, Q.inv(x)) == Q.identity for x in Q.elements[:64])


def test_enum_bound_env_override(monkeypatch):
    G = heis_group()
    monkeypatch.setenv("PROSTD_ENUM_BOUND", "100")
    with pytest.raises(EnumerationBoundError):
        G.quotient(5)
    monkeypatch.setenv("PROSTD_ENUM_BOUND", "1000000")
    assert len(G.quotient(3)) == 64


@pytest.mark.parametrize("text", ["abc", "-5", "0", "2.5", ""])
def test_enum_bound_env_must_be_a_positive_integer(monkeypatch, text):
    monkeypatch.setenv("PROSTD_ENUM_BOUND", text)
    message = f"PROSTD_ENUM_BOUND must be a positive integer, got '{text}'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        stdgrp.default_bound()
    with pytest.raises(ValueError, match="PROSTD_ENUM_BOUND"):
        heis_group().quotient(2)
