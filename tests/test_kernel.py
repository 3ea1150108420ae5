"""Compiled law kernels against the exact series path.

The reference is ``SeriesTuple.evaluate`` at full precision followed by
``mod_ideal_power(M)``, the route every group product took before products
ran on kernels.  Each ring shape (p-adic, eq-char, nested over either base)
is checked on random points at every level, and on the full Cayley tables of
small quotients, extension quotients with chart corrections included.
"""

import itertools
import random

import pytest

from prostd.atlas import HElement, HQuotient, TransversalData, inversion_extension
from prostd.fgl import builtin
from prostd.rings import RingSpec, eqchar, nested, padic, random_ideal_element
from prostd.series import SeriesTuple
from prostd.stdgrp import StandardGroup

LAWS = [
    ("heisenberg", padic(2, 5), 5),
    ("multiplicative", padic(3, 4), 6),
    ("heisenberg", eqchar(3, 3), 4),
    ("multiplicative", eqchar(2, 4), 6),
    ("multiplicative", nested(padic(2, 3), 2, 3), 6),
    ("additive", nested(eqchar(2, 3), 1, 3), 4),
]


def fixture_id(v):
    if isinstance(v, RingSpec):
        return f"nested-{v.base.kind}" if v.kind == "nested" else v.kind
    return str(v)


def reduced(coords, M):
    return tuple(c.mod_ideal_power(M) for c in coords)


def payloads(coords):
    return tuple(c.payload for c in coords)


@pytest.mark.parametrize("name,spec,D", LAWS, ids=fixture_id)
def test_kernel_matches_series_path_at_every_level(name, spec, D):
    law = builtin(name, spec, D)
    rng = random.Random(17)
    for M in range(1, spec.zero_valuation + 1):
        for _ in range(25):
            x = tuple(random_ideal_element(spec, 1, rng) for _ in range(law.d))
            y = tuple(random_ideal_element(spec, 1, rng) for _ in range(law.d))
            got = law.F.kernel(M)(*payloads(x), *payloads(y))
            assert got == payloads(reduced(law.F.evaluate(x + y), M))
            got = law.I.kernel(M)(*payloads(x))
            assert got == payloads(reduced(law.I.evaluate(x), M))
            # congruent inputs give the same output: the quotient feeds
            # representatives reduced mod m^M
            got = law.F.kernel(M)(*payloads(reduced(x + y, M)))
            assert got == payloads(reduced(law.F.evaluate(x + y), M))


@pytest.mark.parametrize("name,spec,D,M", [
    ("heisenberg", padic(2, 5), 5, 3),
    ("multiplicative", padic(3, 4), 6, 4),
    ("heisenberg", eqchar(3, 3), 4, 2),
    ("multiplicative", eqchar(2, 4), 6, 4),
    ("multiplicative", nested(padic(2, 3), 1, 3), 6, 3),
    ("additive", nested(eqchar(2, 2), 2, 2), 4, 2),
], ids=fixture_id)
def test_quotient_cayley_table_matches_series_path(name, spec, D, M):
    law = builtin(name, spec, D)
    Q = StandardGroup(law, 1).quotient(M)
    assert 8 <= len(Q) <= 64
    for x, y in itertools.product(Q.elements, repeat=2):
        assert Q.mul(x, y) == reduced(law.F.evaluate(x + y), M)
    for x in Q.elements:
        assert Q.inv(x) == reduced(law.I.evaluate(x), M)


def corrected_extensions():
    """Non-split data: the inversion charts plus mul and inv corrections."""
    for name, spec, D in [("multiplicative", padic(3, 3), 6),
                          ("additive", eqchar(3, 3), 3),
                          ("additive", nested(padic(2, 3), 1, 2), 3)]:
        split = inversion_extension(StandardGroup(builtin(name, spec, D), 1))
        x = SeriesTuple.block(spec, 1, D, 0, 1)[0]
        yield TransversalData(L=split.L, T=split.T, C=dict(split.C),
                              A={("inv", "s"): SeriesTuple.of(x + x * x),
                                 ("mul", "s", "s"): SeriesTuple.of(x + x * x * x),
                                 ("mul", "1", "s"): SeriesTuple.of(x - x * x)})


def series_product(data, x: HElement, y: HElement):
    """The product formula on Coefficients through SeriesTuple.evaluate."""
    v = data.L.law.F.evaluate(data.C[y.t].evaluate(x.coords) + y.coords)
    A = data.A.get(("mul", x.t, y.t))
    return data.T.mul[(x.t, y.t)], (v if A is None else A.evaluate(v))


def series_inverse(data, x: HElement):
    r = data.T.inv[x.t]
    v = data.C[r].evaluate(data.L.law.I.evaluate(x.coords))
    A = data.A.get(("inv", x.t))
    return r, (v if A is None else A.evaluate(v))


@pytest.mark.parametrize("data", list(corrected_extensions()),
                         ids=lambda d: d.L.law.spec.kind)
def test_extension_products_match_series_path(data):
    assert not data.split and data.charts
    spec = data.L.law.spec
    rng = random.Random(29)
    for _ in range(40):
        x, y = (HElement(rng.choice(data.T.elements), (random_ideal_element(spec, 1, rng),))
                for _ in range(2))
        assert data.mul(x, y) == HElement(*series_product(data, x, y))
        assert data.inv(x) == HElement(*series_inverse(data, x))
    for M in (2, spec.K):
        hq = HQuotient(data, M)
        for x, y in itertools.product(hq.elements, repeat=2):
            t, v = series_product(data, HElement(*x), HElement(*y))
            assert hq.mul(x, y) == (t, reduced(v, M))
        for x in hq.elements:
            t, v = series_inverse(data, HElement(*x))
            assert hq.inv(x) == (t, reduced(v, M))


def test_kernel_level_must_be_a_positive_integer():
    law = builtin("additive", padic(2, 3), 3)
    for M in (0, -1, 2.0):
        with pytest.raises(ValueError, match="kernel level"):
            law.F.kernel(M)
    assert law.F.kernel(2) is law.F.kernel(2)
