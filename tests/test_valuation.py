"""The ideal-power filtration: valuation, reduction mod m^N and composition.

Membership in m^N has one test, x reduced mod m^N is zero, and
``Coefficient.valuation`` is derived from it.  These properties pin the
derived valuation to the filtration's rules and to the per-shape definition
it replaced.  Rings and elements are drawn by hypothesis with
``derandomize=True`` over p-adic, eq-char and nested rings over both bases,
so every run checks the same cases.
"""

import math
import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402

from prostd.rings import (  # noqa: E402
    EQ_CHAR,
    NESTED,
    P_ADIC,
    Coefficient,
    random_ideal_element,
)
from prostd.series import compose  # noqa: E402
from test_homomorphisms import DERANDOMIZED, rings, seeds  # noqa: E402
from test_series import rand_zero_const_tuple  # noqa: E402


def elements(spec, rng, count=12):
    """Zero, one and elements drawn at every level up to past the zero valuation."""
    out = [Coefficient.zero(spec), Coefficient.one(spec)]
    for _ in range(count):
        out.append(random_ideal_element(spec, rng.randrange(spec.zero_valuation + 2), rng))
    return out


def valuation_by_definition(spec, payload):
    """The multiplicity of p, the first nonzero digit, or the least base
    valuation plus |alpha| over the terms; +inf for zero."""
    if spec.kind == P_ADIC:
        if payload == 0:
            return math.inf
        v = 0
        while payload % spec.p == 0:
            payload //= spec.p
            v += 1
        return v
    if spec.kind == EQ_CHAR:
        return next((i for i, digit in enumerate(payload) if digit), math.inf)
    return min((valuation_by_definition(spec.base, c) + sum(alpha) for alpha, c in payload),
               default=math.inf)


@DERANDOMIZED
@given(rings(), seeds)
def test_valuation_matches_the_per_shape_definition(spec, seed):
    for x in elements(spec, random.Random(seed), count=24):
        assert x.valuation() == valuation_by_definition(spec, x.payload), x


@DERANDOMIZED
@given(rings(), seeds)
def test_valuation_is_infinite_exactly_at_zero(spec, seed):
    for x in elements(spec, random.Random(seed)):
        assert (x.valuation() == math.inf) == x.is_zero, x
        assert x.valuation() == math.inf or x.valuation() < spec.zero_valuation


@DERANDOMIZED
@given(rings(), seeds)
def test_reduction_vanishes_exactly_at_the_valuation(spec, seed):
    for x in elements(spec, random.Random(seed)):
        for v in range(spec.zero_valuation + 2):
            assert x.mod_ideal_power(v).is_zero == (x.valuation() >= v), (x, v)


@DERANDOMIZED
@given(rings(), seeds)
def test_valuation_of_sums_and_products(spec, seed):
    rng = random.Random(seed)
    xs = elements(spec, rng)
    for a, b in zip(xs, reversed(xs)):
        va, vb = a.valuation(), b.valuation()
        assert (a + b).valuation() >= min(va, vb), (a, b)
        assert (a * b).valuation() >= va + vb, (a, b)
        if spec.kind != NESTED and va + vb < spec.K:
            assert (a * b).valuation() == va + vb, (a, b)


@DERANDOMIZED
@given(rings(), seeds)
def test_reduction_is_a_ring_projection(spec, seed):
    rng = random.Random(seed)
    xs = elements(spec, rng)
    for a, b in zip(xs, reversed(xs)):
        for M in range(spec.zero_valuation + 2):
            ra, rb = a.mod_ideal_power(M), b.mod_ideal_power(M)
            assert ra.mod_ideal_power(M) == ra
            assert (a + b).mod_ideal_power(M) == (ra + rb).mod_ideal_power(M)
            assert (a * b).mod_ideal_power(M) == (ra * rb).mod_ideal_power(M)
            if M >= spec.zero_valuation:
                assert ra == a


@DERANDOMIZED
@given(rings(), seeds)
def test_compose_is_associative_on_zero_constant_tuples(spec, seed):
    rng = random.Random(seed)
    D = rng.randint(2, 4)
    A, B, C = (rand_zero_const_tuple(spec, 2, 2, D, rng) for _ in range(3))
    assert compose(A, compose(B, C)) == compose(compose(A, B), C)
