import math
import random
import re

import pytest

from oracles import poly_add, poly_mul, poly_truncate, reference_parse_coefficient
from prostd.cli import _sample_objects
from prostd.errors import (
    EnumerationBoundError,
    MaximalIdealError,
    RingMismatchError,
)
from prostd.rings import (
    Coefficient,
    PrecisionReduction,
    RingSpec,
    Specialisation,
    bounded_exponents,
    eqchar,
    evaluate_terms,
    grlex_key,
    nested,
    padic,
    parse_coefficient,
    random_ideal_element,
    representatives,
    residue_map,
    specialise,
)
from prostd.rings import _PRIME_TEST_LIMIT, _is_prime

SPECS = [padic(3, 4), eqchar(2, 4), nested(padic(2, 4), 2, 3), nested(eqchar(3, 3), 1, 3)]


def sample(spec, rng, n=40):
    return [random_ideal_element(spec, 0, rng) for _ in range(n)]


# -- spec construction ---------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        padic(4, 3)  # not prime
    with pytest.raises(ValueError):
        padic(2, 0)
    with pytest.raises(ValueError):
        nested(padic(2, 3), 0, 2)
    with pytest.raises(ValueError):
        nested(padic(2, 3), 1, 0)
    with pytest.raises(ValueError):
        nested(nested(padic(2, 3), 1, 2), 1, 2)  # towers rejected


def _trial_division(n):
    return n >= 2 and all(n % f for f in range(2, math.isqrt(n) + 1))


def test_primality_matches_trial_division():
    assert [n for n in range(10**5) if _is_prime(n)] == [
        n for n in range(10**5) if _trial_division(n)]


def test_primality_rejects_strong_pseudoprimes():
    # 3215031751 passes bases 2, 3, 5, 7; 3825123056546413051 passes 2 .. 23
    for n in (3215031751, 3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime(2**61 - 1) and _is_prime(10**14 + 31)
    assert not _is_prime((2**31 - 1) * (10**14 + 31))


def test_primality_refuses_where_it_is_not_exact():
    # the bound itself, 1287836182261 * 2575672364521, is the least composite
    # that passes all 13 bases; the largest prime below it is still answered
    assert _is_prime(_PRIME_TEST_LIMIT - 168)
    for n in (_PRIME_TEST_LIMIT, 2**127 - 1):
        with pytest.raises(ValueError, match="p must be below"):
            _is_prime(n)
    with pytest.raises(ValueError, match="p must be below"):
        padic(2**127 - 1, 2)


def test_primality_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(14)
    for bits in (20, 40, 64, 81):
        for _ in range(300):
            n = rng.randrange(2, min(2**bits, _PRIME_TEST_LIMIT)) | 1
            assert _is_prime(n) == sympy.isprime(n), n


def test_spec_json_roundtrip():
    for spec in SPECS:
        assert RingSpec.from_json(spec.to_json()) == spec


def test_equal_specs_from_separate_loads():
    # the same spec object is answered at once; separate but equal specs still
    # compare field by field, and a coefficient hashes its payload only
    for spec in SPECS:
        a, b = RingSpec.from_json(spec.to_json()), RingSpec.from_json(spec.to_json())
        assert a is not b and a == b and not a != b and hash(a) == hash(b)
        x, y = (random_ideal_element(s, 1, random.Random(3)) for s in (a, b))
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    for one, other in [(padic(3, 4), padic(3, 5)), (padic(3, 4), padic(5, 4)),
                       (eqchar(2, 4), eqchar(3, 4)),
                       (nested(padic(2, 4), 1, 3), nested(padic(2, 4), 1, 4))]:
        x = Coefficient.make(one, {(1,): 1} if one.kind == "nested" else 2)
        y = Coefficient(other, x.payload)
        assert one != other and x != y and {x} != {y}


def test_zero_valuation_threshold():
    assert padic(3, 4).zero_valuation == 4
    assert eqchar(2, 5).zero_valuation == 5
    assert nested(padic(2, 4), 2, 3).zero_valuation == 6


# -- arithmetic ----------------------------------------------------------------


def test_padic_arithmetic():
    s = padic(3, 4)  # modulus 81
    a = Coefficient.from_int(s, 5)
    b = Coefficient.from_int(s, 80)
    assert int(a + b) == 4
    assert int(a * b) == (5 * 80) % 81
    assert int(-a) == 76
    assert int(a**4) == 5**4 % 81
    assert int(Coefficient.from_int(s, -1)) == 80


def test_eqchar_arithmetic():
    s = eqchar(2, 3)
    t = parse_coefficient(s, "t")
    one = Coefficient.one(s)
    assert str(one + one) == "0"  # characteristic p
    assert str(t * t) == "1*t^2"
    assert (t * t * t).is_zero  # t^3 dead at K=3
    assert str((one + t) * (one + t)) == "1+1*t^2"


def test_nested_truncation():
    s = nested(padic(2, 3), 1, 2)
    t1 = parse_coefficient(s, "t1")
    two = Coefficient.from_int(s, 2)
    assert (t1 * t1).is_zero  # t-degree 2 >= Dt
    assert not (two * t1).is_zero  # weight 1 + 1 < K + Dt - 1 = 4
    assert (two * two * t1).is_zero is False
    assert str(two * two * t1) == "4*t1"
    assert (two * two * two).is_zero  # 8 = 0 mod 8


def test_ring_axioms_random():
    rng = random.Random(7)
    for spec in SPECS:
        xs = sample(spec, rng, 12)
        for a, b, c in zip(xs, xs[1:], xs[2:]):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            assert a + (-a) == Coefficient.zero(spec)
            assert a * Coefficient.one(spec) == a


def test_nested_arithmetic_matches_integer_oracle():
    rng = random.Random(17)
    for spec in (nested(padic(2, 4), 2, 4), nested(padic(3, 3), 3, 3)):
        q = spec.base.modulus
        xs = sample(spec, rng, 16)
        for a, b in zip(xs, xs[1:]):
            b = b - a  # a + b then cancels every coefficient of a
            pa, pb = dict(a.payload), dict(b.payload)
            for got, exact in ((a + b, poly_add(pa, pb)), (a * b, poly_mul(pa, pb))):
                expect = {alpha: c % q for alpha, c in poly_truncate(exact, spec.Dt).items()
                          if c % q}
                assert [alpha for alpha, _ in got.payload] == sorted(expect, key=grlex_key)
                assert dict(got.payload) == expect


# -- valuation and reduction ----------------------------------------------------


def test_valuation():
    p = padic(3, 4)
    assert Coefficient.from_int(p, 9).valuation() == 2
    assert Coefficient.from_int(p, 8).valuation() == 0
    assert Coefficient.zero(p).valuation() == float("inf")
    e = eqchar(2, 4)
    assert parse_coefficient(e, "t^3").valuation() == 3
    n = nested(padic(2, 4), 2, 3)
    assert parse_coefficient(n, "2*t1 + t2^2").valuation() == 2
    assert parse_coefficient(n, "4 + t1").valuation() == 1


def test_mod_ideal_power():
    p = padic(2, 5)
    assert int(Coefficient.from_int(p, 22).mod_ideal_power(3)) == 6
    n = nested(padic(2, 4), 2, 3)
    c = parse_coefficient(n, "2 + 1*t1 + 1*t1*t2 + 4*t2")
    assert str(c.mod_ideal_power(2)) == "2 + 1*t1"
    assert c.mod_ideal_power(n.zero_valuation) == c


def test_representatives_counts_and_canonicality():
    p = padic(3, 4)
    reps = representatives(p, 1, 3)
    assert [int(c) for c in reps] == [3 * j for j in range(9)]
    e = eqchar(2, 3)
    assert len(representatives(e, 1, 3)) == 4
    n = nested(padic(2, 4), 2, 3)
    reps = representatives(n, 1, 2)
    assert len(reps) == 8
    assert len(set(reps)) == 8
    for c in reps:
        assert c.valuation() >= 1
        assert c.mod_ideal_power(2) == c


def test_representatives_bound_guard():
    with pytest.raises(EnumerationBoundError):
        representatives(padic(2, 10), 0, 10, bound=100)
    with pytest.raises(ValueError):
        representatives(padic(2, 3), 1, 4)  # M beyond precision


def test_random_ideal_element_deterministic():
    spec = nested(padic(2, 4), 2, 3)
    a = [random_ideal_element(spec, 1, random.Random(5)) for _ in range(10)]
    b = [random_ideal_element(spec, 1, random.Random(5)) for _ in range(10)]
    assert a == b
    assert all(c.valuation() >= 1 for c in a)


# -- formatting ----------------------------------------------------------------


def test_format_parse_roundtrip_random():
    # Coefficient.make reads text through the same parser
    rng = random.Random(13)
    for spec in SPECS:
        for c in sample(spec, rng, 25):
            assert parse_coefficient(spec, str(c)) == c
            assert Coefficient.make(spec, str(c)) == c


_PA, _EQ = padic(2, 3), eqchar(2, 3)
_NP, _NE = nested(padic(2, 3), 1, 2), nested(eqchar(3, 3), 1, 3)


_REFUSALS = [
    # refusals of outside input that the grammar keeps
    (_EQ, "t^3", r"degree 3 in t is at least K=3 \(at position 0\)"),
    (_EQ, "1 + t*t*t", r"degree 3 in t .* \(at position 8\)"),
    (_NE, "t^2*t", r"degree 3 in t .* \(at position 4\)"),
    (_NP, "t1*t1", r"degree 2 in t1..t1 is at least Dt=2 \(at position 3\)"),
    (_PA, "t", r"no variable 't' in this ring \(at position 0\)"),
    (_EQ, "2 + t1", r"no variable 't1' .* \(at position 4\)"),
    (_NP, "t", r"no variable 't' .* \(at position 0\)"),
    (_NP, "t2", r"no variable 't2' .* \(at position 0\)"),
    (_NE, "(t1)", r"no variable 't1' .* \(at position 1\)"),
    (_EQ, "x", r"expected an integer or a variable \(at position 0\)"),
    (_EQ, "t^-1", r"negative exponent \(at position 2\)"),
    (_NP, "t1^", r"expected an integer \(at position 3\)"),
    (_PA, "", r"unexpected end of text \(at position 0\)"),
    (_EQ, "  ", r"unexpected end of text \(at position 2\)"),
    (_NP, "1 +", r"unexpected end of text \(at position 3\)"),
    (_EQ, "-", r"unexpected end of text \(at position 1\)"),
    (_NE, "(1 + t", r"expected '\)' \(at position 6\)"),
    (_NE, "1)", r"unexpected character '\)' \(at position 1\)"),
    (_NE, "(1)(2)", r"unexpected character '\(' \(at position 3\)"),
    (_PA, "(1)", r"expected an integer or a variable \(at position 0\)"),
    # accepted by the former parsers, refused by the one grammar
    (_EQ, "*t", r"expected an integer or a variable \(at position 0\)"),
    (_EQ, "1 2", r"unexpected character '2' \(at position 2\)"),
    (_NE, "(1 2)*t1", r"expected '\)' \(at position 3\)"),
    (_PA, "1_000", r"unexpected character '_' \(at position 1\)"),
    (_PA, "١٢", r"expected an integer or a variable \(at position 0\)"),
    (_NP, "t١", r"no variable 't' .* \(at position 0\)"),
    (_PA, "5\xa0", r"unexpected character '\\xa0' \(at position 1\)"),
    (_NP, "t1*", r"unexpected end of text \(at position 3\)"),
    (_NP, "*t1", r"expected an integer, a variable or '\(' \(at position 0\)"),
    (_NP, "2*-t1", r"expected an integer, a variable or '\(' \(at position 2\)"),
]


def test_parse_errors():
    for spec, text, message in _REFUSALS:
        for read in (parse_coefficient, Coefficient.make):
            with pytest.raises(ValueError, match=message):
                read(spec, text)


def _series_terms(obj):
    """Every coefficient string of the series in a JSON object."""
    if isinstance(obj, dict):
        if "terms" in obj:
            yield from (text for _, text in obj["terms"])
        else:
            for v in obj.values():
                yield from _series_terms(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _series_terms(v)


def _ring_of(obj):
    if isinstance(obj, dict):
        if "spec" in obj:
            return RingSpec.from_json(obj["spec"])
        return next(filter(None, map(_ring_of, obj.values())), None)
    return None


_TEXTS = [  # coefficient strings written by the tests and the benchmark plan
    (padic(2, 5), "2"), (padic(2, 5), "8"), (eqchar(3, 3), "2+1*t^2"),
    (eqchar(3, 4), "1+2*t+t^3"), (eqchar(3, 4), "1+t"), (eqchar(3, 4), "t"),
    (eqchar(3, 4), "t^2"), (eqchar(3, 4), "t + t^2"), (nested(padic(3, 3), 1, 3), "1 + t1"),
    (nested(padic(3, 3), 1, 3), "2 + 1*t1^2"), (nested(padic(2, 4), 2, 3), "2*t1 + t2^2"),
    (nested(padic(2, 4), 2, 3), "2 + 1*t1 + 1*t1*t2 + 4*t2"),
    (nested(eqchar(2, 4), 2, 3), "(1+t) + (t^3)*t1 + (1+t^2)*t1*t2 + t2"),
]


def _corpus():
    rng = random.Random(21)
    for spec in SPECS:
        for c in sample(spec, rng, 25):
            yield spec, str(c)
    for obj in _sample_objects().values():
        spec = _ring_of(obj)
        for text in _series_terms(obj):
            yield spec, text
    yield from _TEXTS


def _variants(text):
    """Texts of the same value: blanks between tokens, sign runs, '*' left
    out before variables."""
    spaced = re.sub(r"([-+*^()])", r" \1 ", text)
    return [text, spaced, "\t" + spaced.replace(" ", " \t") + " \n", text.replace(" ", ""),
            re.sub(r"(?<![\dt^])(\d+)\*t", r"\1t", text), "- -" + text, "+" + text,
            text.replace("+", "- -"), text.replace("+", "+-+-")]


def test_parse_matches_the_former_parsers():
    # the former parsers read every corpus text; the one grammar reads each
    # variant to the same value, and agrees wherever the former ones accept
    agreed = 0
    for spec, text in _corpus():
        value = reference_parse_coefficient(spec, text)
        for v in _variants(text):
            assert parse_coefficient(spec, v) == value, (spec, v)
            try:
                former = reference_parse_coefficient(spec, v)
            except ValueError:
                continue
            assert former == value, (spec, v)
            agreed += 1
    assert agreed > 500


# -- specialisation and transport maps ------------------------------------------


def test_specialise_is_local_homomorphism():
    # Dt >= K keeps the dropped t-degrees invisible after specialising at
    # valuation >= 1, making s_a exactly multiplicative at this precision
    spec = nested(padic(2, 4), 2, 4)
    rng = random.Random(3)
    pts = representatives(spec.base, 1, 3)
    for i in range(20):
        a = random_ideal_element(spec, 0, rng)
        b = random_ideal_element(spec, 0, rng)
        point = (pts[i % len(pts)], pts[(i * 7 + 1) % len(pts)])
        sa = specialise(a, point)
        sb = specialise(b, point)
        assert specialise(a + b, point) == sa + sb
        assert specialise(a * b, point) == sa * sb
    high = random_ideal_element(spec, 1, rng)
    assert specialise(high, (pts[1], pts[2])).valuation() >= 1


def test_specialisation_below_the_truncation_is_no_homomorphism():
    # Dt * v(a) = 2 < K = 4: t1 * t1 = 0 at Dt = 2, but t1 maps to 5, whose
    # square is 25; the map says so, and transport re-checks along it
    spec = nested(padic(5, 4), 1, 2)
    s = Specialisation(spec, ["5"])
    t1 = parse_coefficient(spec, "t1")
    assert (t1 * t1).is_zero and s(t1 * t1).is_zero
    assert s(t1) * s(t1) == Coefficient.from_int(spec.base, 25)
    assert s.homomorphism is False
    assert Specialisation(spec, ["25"]).homomorphism  # 2 * v(25) = 4
    assert Specialisation(spec, ["0"]).homomorphism  # v(0) = +inf


def test_specialise_point_validation():
    spec = nested(padic(2, 4), 1, 2)
    unit = Coefficient.one(spec.base)
    with pytest.raises(MaximalIdealError):
        specialise(Coefficient.one(spec), (unit,))
    with pytest.raises(RingMismatchError):
        specialise(Coefficient.one(spec), (Coefficient.zero(padic(3, 4)),))
    with pytest.raises(RingMismatchError):
        specialise(Coefficient.one(padic(2, 4)), ())


def test_precision_reduction_and_residue():
    p = padic(2, 5)
    red = PrecisionReduction(p, 2)
    assert int(red(Coefficient.from_int(p, 22))) == 2
    rng = random.Random(1)
    for _ in range(10):
        a = random_ideal_element(p, 0, rng)
        b = random_ideal_element(p, 0, rng)
        assert red(a * b) == red(a) * red(b)
        assert red(a + b) == red(a) + red(b)
    r = residue_map(eqchar(3, 4))
    assert r.target.K == 1
    with pytest.raises(RingMismatchError):
        residue_map(nested(padic(2, 3), 1, 2))
    n = nested(padic(2, 4), 1, 3)
    red2 = PrecisionReduction(n, 2, 2)
    c = parse_coefficient(n, "2 + 4*t1 + 1*t1^2")
    # 4*t1 dies at K=2 and t1^2 at Dt=2; only the constant survives
    assert str(red2(c)) == "2"


@pytest.mark.parametrize("spec, args, text, reduced", [
    (eqchar(3, 4), (2,), "1+2*t+t^3", "1+2*t"),
    (nested(eqchar(2, 4), 2, 3), (2, 2),
     "(1+t) + (t^3)*t1 + (1+t^2)*t1*t2 + t2", "(1+1*t) + (1)*t2"),
])
def test_precision_reduction_on_eqchar_sources(spec, args, text, reduced):
    red = PrecisionReduction(spec, *args)
    assert str(red(parse_coefficient(spec, text))) == reduced
    rng = random.Random(4)
    for _ in range(20):
        a = random_ideal_element(spec, 0, rng)
        b = random_ideal_element(spec, 0, rng)
        assert red(a + b) == red(a) + red(b)
        assert red(a * b) == red(a) * red(b)


# -- misc ------------------------------------------------------------------------


def test_grlex_order():
    monos = [(0, 2), (1, 0), (2, 0), (0, 0), (1, 1), (0, 1)]
    assert sorted(monos, key=grlex_key) == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def test_bounded_exponents():
    alphas = bounded_exponents(2, 2)
    assert set(alphas) == {(0, 0), (1, 0), (0, 1)}
    assert alphas == sorted(alphas, key=grlex_key)


def test_evaluate_terms_matches_dunders():
    spec = padic(3, 4)
    rng = random.Random(9)
    args = tuple(random_ideal_element(spec, 1, rng) for _ in range(2))
    terms = (((1, 0), 2), ((1, 2), 5))  # payload terms at payload arguments
    naive = (Coefficient.from_int(spec, 2) * args[0]
             + Coefficient.from_int(spec, 5) * args[0] * args[1] * args[1])
    assert evaluate_terms(spec, terms, tuple(a.payload for a in args), {}) == naive
