"""Every coefficient map that says it is a ring homomorphism is one.

Transport keeps a proof of the extension axioms along a map whose
``homomorphism`` is True instead of re-checking the result
(``TransversalData.map_coefficients``), so a map that claimed it wrongly
would hand back data that are not a group.  Rings, maps, points and elements
are drawn by hypothesis with ``derandomize=True`` over every ring shape, so
every run checks the same cases.
"""

import random

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from prostd.rings import (  # noqa: E402
    NESTED,
    Coefficient,
    IdentityMap,
    PrecisionReduction,
    Specialisation,
    eqchar,
    nested,
    padic,
    parse_coefficient,
    random_ideal_element,
)

DERANDOMIZED = settings(derandomize=True, max_examples=60, deadline=None, database=None)

seeds = st.integers(0, 2**32 - 1)


@st.composite
def rings(draw, Dt=st.integers(1, 4)):
    """p-adic or eq-char, bare or nested (m = 1, 2) at small precision."""
    base = draw(st.sampled_from([padic, eqchar]))(draw(st.sampled_from([2, 3, 5])),
                                                  draw(st.integers(1, 4)))
    if draw(st.booleans()):
        return nested(base, draw(st.integers(1, 2)), draw(Dt))
    return base


@st.composite
def homomorphisms(draw):
    """A map whose ``homomorphism`` must be True: the identity, a precision
    reduction with or without a new Dt, or a specialisation at a point with
    Dt * min v(a_i) >= K."""
    spec = draw(rings())
    kinds = ["identity", "precision"] + ["specialisation"] * (spec.kind == NESTED)
    kind = draw(st.sampled_from(kinds))
    if kind == "identity":
        return IdentityMap(spec)
    if kind == "precision":
        new_Dt = draw(st.none() | st.integers(1, spec.Dt)) if spec.kind == NESTED else None
        return PrecisionReduction(spec, draw(st.integers(1, spec.K)), new_Dt)
    rng = random.Random(draw(seeds))
    low = -(-spec.K // spec.Dt)  # ceil(K / Dt)
    point = [random_ideal_element(spec.base, draw(st.integers(low, spec.K)), rng)
             for _ in range(spec.m)]
    return Specialisation(spec, point)


@DERANDOMIZED
@given(homomorphisms(), seeds)
def test_claimed_homomorphisms_respect_sums_and_products(phi, seed):
    assert phi.homomorphism
    rng = random.Random(seed)
    for _ in range(8):
        a, b = (random_ideal_element(phi.source, 0, rng) for _ in range(2))
        assert phi(a + b) == phi(a) + phi(b)
        assert phi(a * b) == phi(a) * phi(b)
    assert phi(Coefficient.one(phi.source)) == Coefficient.one(phi.target)


@DERANDOMIZED
@given(rings(Dt=st.integers(2, 4)).filter(lambda spec: spec.kind == NESTED), seeds,
       st.lists(st.integers(1, 4), min_size=2, max_size=2))
def test_specialisation_predicate_is_exact_from_dt_two(spec, seed, valuations):
    # t_i^(Dt-1) * t_i = 0 in the source, and a_i^Dt vanishes in the base
    # exactly when Dt * v(a_i) >= K, for a_i of least valuation
    rng = random.Random(seed)
    point = [random_ideal_element(spec.base, min(v, spec.K), rng)
             for v in valuations[:spec.m]]
    phi = Specialisation(spec, point)
    i = min(range(spec.m), key=lambda j: point[j].valuation())
    tail = parse_coefficient(spec, f"t{i + 1}^{spec.Dt - 1}")
    ti = parse_coefficient(spec, f"t{i + 1}")
    assert (tail * ti).is_zero
    assert (phi(tail) * phi(ti) == phi(tail * ti)) == phi.homomorphism
