import functools
import itertools
import math
import random
from types import SimpleNamespace

import pytest

from oracles import HeisQuotient
from prostd.atlas import HQuotient, inversion_extension
from prostd import words
from prostd.errors import EnumerationBoundError, ExactnessError, MaximalIdealError, WordSyntaxError
from prostd.fgl import builtin, law_from_json
from prostd.rings import Coefficient, eqchar, nested, padic, random_ideal_element, representatives
from prostd.series import Series, SeriesTuple
from prostd.stdgrp import GroupElement, QuotientGroup, StandardGroup
from prostd.words import (
    WordExpr,
    marginal_subgroup,
    parse_word,
    verbal_subgroup,
    word_image,
    word_series,
)


# -- parsing ------------------------------------------------------------------------


def test_parse_forms():
    assert parse_word("x1").letters == ((1, 1),)
    assert parse_word("x1^3").letters == ((1, 1),) * 3
    assert parse_word("x2^-2").letters == ((2, -1), (2, -1))
    assert parse_word("[x1, x2]").letters == ((1, -1), (2, -1), (1, 1), (2, 1))
    assert parse_word("(x1 x2)^2").letters == ((1, 1), (2, 1)) * 2
    assert parse_word("x1 * x2").letters == ((1, 1), (2, 1))
    assert parse_word("[x1, x2]^0").is_identity


def test_parse_reduction_and_k():
    w = parse_word("x1 x2^-1 x2 x1^-1")
    assert w.is_identity and w.k == 2
    assert parse_word("x3").k == 3


def test_parse_errors_carry_positions():
    with pytest.raises(WordSyntaxError, match="generator index") as ei:
        parse_word("x")
    assert ei.value.position == 1
    with pytest.raises(WordSyntaxError, match="start at 1"):
        parse_word("x0")
    with pytest.raises(WordSyntaxError, match="','"):
        parse_word("[x1 x2]")
    with pytest.raises(WordSyntaxError, match="unexpected character"):
        parse_word("x1)")
    with pytest.raises(WordSyntaxError, match="empty"):
        parse_word("  ")
    with pytest.raises(WordSyntaxError, match="integer"):
        parse_word("x1^")
    # indices and exponents are ASCII digits; others are refused where they stand
    for text, position in [("x²", 1), ("x١", 1), ("x1^٢", 3)]:
        with pytest.raises(WordSyntaxError) as ei:
            parse_word(text)
        assert ei.value.position == position


def test_word_size_is_bounded(monkeypatch):
    # word text expands eagerly, so its letter count is held to the bound
    monkeypatch.setenv("PROSTD_ENUM_BOUND", "1000")
    assert len(parse_word("x1^1000").letters) == 1000
    nested = "x1"
    for _ in range(10):
        nested = f"[{nested}, x2]"
    for text in ["x1^5000", "x1^-5000", "x1^600 x2^600", nested]:
        with pytest.raises(EnumerationBoundError):
            parse_word(text)
    commutator = parse_word("[x1, x2]")
    assert len(commutator.power(250).letters) == 1000
    with pytest.raises(EnumerationBoundError):
        commutator.power(600)


def test_text_roundtrip():
    for text in ["x1", "x1^3 x2^-2", "[x1, x2]", "x1^3 [x2, x1]^2", "(x1 x2^-1)^4"]:
        w = parse_word(text)
        assert parse_word(w.text()) == w
    assert WordExpr(2, ()).text() == "1"


def test_word_algebra():
    u, v = parse_word("x1"), parse_word("x2")
    assert (u * u.inverse()).is_identity
    assert (u * v).inverse() == parse_word("x2^-1 x1^-1")
    assert u.power(3) == parse_word("x1^3")
    with pytest.raises(ValueError):
        u.power(0)
    with pytest.raises(ValueError):
        WordExpr(1, ((2, 1),))


# -- evaluation ------------------------------------------------------------------------


def test_evaluate_folds_left():
    G = StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1)
    g = G.element(["2", "4", "8"])
    h = G.element(["6", "2", "4"])
    w = parse_word("[x1, x2]")
    assert w.evaluate(G, [g, h]) == g.inverse() * h.inverse() * g * h
    with pytest.raises(ValueError, match="x2"):
        w.evaluate(G, [g])


def test_evaluate_inverts_each_argument_once():
    G = StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1)
    rng = random.Random(5)
    letters = [(1, -1)]
    while len(letters) < 64:
        letter = (rng.randint(1, 3), rng.choice((1, -1)))
        if letter != (letters[-1][0], -letters[-1][1]):
            letters.append(letter)
    w = WordExpr(3, tuple(letters))
    args = [G.element([random_ideal_element(G.law.spec, 1, rng) for _ in range(3)])
            for _ in range(3)]
    inverted = []

    class Spy:
        identity = G.identity
        mul = staticmethod(G.mul)

        def inv(self, x):
            inverted.append(x)
            return G.inv(x)

    got = w.evaluate(Spy(), args)
    assert len(inverted) <= 3 and sum(s < 0 for _, s in letters) > 20
    want = G.identity
    for gen, sign in letters:
        want = want * (args[gen - 1] if sign > 0 else args[gen - 1].inverse())
    assert got == want


# -- symbolic series ---------------------------------------------------------------------


def test_word_series_additive_signed_sums():
    law = builtin("additive", padic(3, 4), 4, dim=2)
    ws = word_series(parse_word("x1 x2^-1 x1"), law)
    one = Coefficient.one(law.spec)
    # blocks: x1 -> (X1, X2), x2 -> (X3, X4); the word adds 2*x1 - x2
    two = one + one
    assert ws.W == SeriesTuple.of(
        Series.make(law.spec, 4, 4, {(1, 0, 0, 0): two, (0, 0, 1, 0): -one}),
        Series.make(law.spec, 4, 4, {(0, 1, 0, 0): two, (0, 0, 0, 1): -one}),
    )


def test_word_series_heisenberg_commutator():
    law = builtin("heisenberg", padic(2, 5), 5)
    ws = word_series(parse_word("[x1, x2]"), law)
    one = Coefficient.one(law.spec)
    zero6 = (0,) * 6
    assert ws.d == 3 and ws.W[0].is_zero and ws.W[1].is_zero
    want = {
        tuple(1 if i in (0, 4) else 0 for i in range(6)): one,
        tuple(1 if i in (1, 3) else 0 for i in range(6)): -one,
    }
    assert {a: c for a, c in ws.W[2].terms} == want
    assert ws.W[2].coefficient(zero6).is_zero


def test_word_series_matches_pointwise():
    law = builtin("heisenberg", padic(2, 5), 5)
    G = StandardGroup(law, 1)
    rng = random.Random(17)
    for text in ["x1^3", "[x1, x2]", "x1^2 x2^-1 x1^-1 x2"]:
        w = parse_word(text)
        ws = word_series(w, law)
        for _ in range(10):
            args = [G.element([random_ideal_element(law.spec, 1, rng)
                               for _ in range(3)]) for _ in range(w.k)]
            flat = tuple(c for g in args for c in g.coords)
            assert ws.W.evaluate(flat) == w.evaluate(G, args).coords


# -- finite subgroup computations ----------------------------------------------------------


def test_image_verbal_marginal_match_oracle():
    law = builtin("heisenberg", padic(2, 5), 5)
    hq = StandardGroup(law, 1).quotient(3)
    oracle = HeisQuotient(2, 1, 3)
    w = parse_word("[x1, x2]")

    def as_ints(coords):
        return tuple(int(c) for c in coords)

    got = {as_ints(x) for x in word_image(w, hq)}
    assert got == oracle.image(w.letters, 2)
    got = {as_ints(x) for x in verbal_subgroup(w, hq)}
    assert got == oracle.verbal(w.letters, 2)
    # commutator marginal = centre; brute force on the oracle side
    centre = {x for x in oracle.elements
              if all(oracle.mul(x, y) == oracle.mul(y, x) for y in oracle.elements)}
    got = {as_ints(x) for x in marginal_subgroup(w, hq)}
    assert got == centre and len(got) == 16


def test_verbal_is_a_subgroup_containing_image():
    law = builtin("heisenberg", padic(2, 5), 5)
    hq = StandardGroup(law, 1).quotient(3)
    w = parse_word("x1^2")
    image = word_image(w, hq)
    closure = verbal_subgroup(w, hq)
    assert image <= closure and hq.identity in closure
    for a in closure:
        assert hq.inv(a) in closure
        for b in closure:
            assert hq.mul(a, b) in closure


def _letterwise_reference(w, group):
    """Reference image, verbal and marginal subgroups: every word value by
    w.evaluate, closed under group.mul; g is marginal when shifting any slot
    of any argument tuple by g leaves the tuple's word value unchanged."""
    values = {args: w.evaluate(group, args)
              for args in itertools.product(group.elements, repeat=w.k)}
    image = set(values.values())
    gens = image | {group.inv(g) for g in image}
    seen, frontier = {group.identity}, [group.identity]
    while frontier:
        a = frontier.pop()
        for g in gens:
            b = group.mul(a, g)
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    shift = {(g, x): group.mul(g, x) for g in group.elements for x in group.elements}
    marginal = {g for g in group.elements
                if all(values[args[:i] + (shift[g, args[i]],) + args[i + 1:]] == value
                       for args, value in values.items() for i in range(w.k))}
    return image, seen, marginal


class Leaky:
    """A handle whose products leave its element list."""
    elements = [0, 1, 2]
    identity = 0

    def mul(self, x, y):
        return x + y

    def inv(self, x):
        return -x


def _tabled(group) -> bool:
    """Whether the handle's cached enumeration has its n^2 product table."""
    return group._enumeration.table is not None


@pytest.mark.parametrize("make, text, tabled", [
    (lambda: StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1).quotient(3),
     "[x1, x2]", True),
    (lambda: StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1).quotient(3),
     "x1^2 x2^2", True),
    # x1^4 is trivial on this quotient, so only the second slot limits the marginal
    (lambda: StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1).quotient(3),
     "x1^4 x2^2", True),
    (lambda: HQuotient(inversion_extension(
        StandardGroup(builtin("additive", eqchar(3, 3), 4), 1)), 3),
     "[x1, x2] x1^2", True),
    # k = 1 and 3 letters on 64 elements: 192 products, below the 64^2 table
    (lambda: StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1).quotient(3),
     "x1^3", False),
    # a handle that is not a quotient, below the table: the letter fold on its own mul
    pytest.param(lambda: HQuotient(inversion_extension(
        StandardGroup(builtin("additive", eqchar(3, 3), 4), 1)), 3),
        "x1^3", False, id="hquotient-x1^3-False"),
    # products leave the element list; the untabled route refuses them too
    pytest.param(Leaky, "x1^2", False, id="leaky-x1^2-False"),
])
def test_cayley_table_matches_letterwise(make, text, tabled):
    group, w = make(), parse_word(text)
    if isinstance(group, Leaky):
        for enumerate_ in (word_image, verbal_subgroup, marginal_subgroup):
            with pytest.raises(ValueError, match="not closed"):
                enumerate_(w, group)
    else:
        image, verbal, marginal = _letterwise_reference(w, group)
        assert word_image(w, group) == image
        assert verbal_subgroup(w, group) == verbal
        assert marginal_subgroup(w, group) == marginal
    assert _tabled(group) == tabled


def test_cayley_table_respects_bound_and_closure():
    hq = StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1).quotient(3)
    w = parse_word("x1^64")
    # 64 letters on 64 elements reach the 64^2 table, but the bound is below it
    image = word_image(w, hq, bound=4000)
    assert not _tabled(hq) and image == {hq.identity}
    # within the bound the table's 64^2 products tie with the fold's 64*64
    # letters, and a tie goes to the table
    assert word_image(w, hq) == image and _tabled(hq)
    with pytest.raises(ValueError, match="not closed"):
        word_image(parse_word("[x1, x2]"), Leaky())


def test_tuple_guard():
    law = builtin("heisenberg", padic(2, 5), 5)
    hq = StandardGroup(law, 1).quotient(3)
    with pytest.raises(EnumerationBoundError):
        word_image(parse_word("[x1, x2]"), hq, bound=100)
    with pytest.raises(EnumerationBoundError):
        marginal_subgroup(parse_word("x1^2"), hq, bound=1000)


# -- an untabled quotient: letter fold or word series -----------------------------


def heis_quotient(M):
    return StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1).quotient(M)


# (quotient, largest generator count its letterwise reference enumerates quickly)
PAYLOAD_FIXTURES = {
    "p-adic": (lambda: StandardGroup(builtin("multiplicative", padic(3, 4), 6), 1).quotient(3), 3),
    "p-adic-heisenberg": (lambda: heis_quotient(3), 2),
    "eq-char": (lambda: StandardGroup(builtin("multiplicative", eqchar(3, 4), 6), 1).quotient(3), 3),
    "nested": (lambda: StandardGroup(
        builtin("multiplicative", nested(eqchar(2, 3), 1, 2), 6), 1).quotient(3), 2),
    "nested-small": (lambda: StandardGroup(
        builtin("multiplicative", nested(padic(2, 3), 1, 2), 6), 1).quotient(2), 3),
}
PAYLOAD_WORDS = ["x1^3", "x1^-2", "x1^2 x2^-1", "[x1, x2] x1", "x1 x2^-1 x3^2"]


def _count_series(monkeypatch) -> list:
    calls = []
    real = words.word_series
    monkeypatch.setattr(words, "word_series", lambda w, law: calls.append(w) or real(w, law))
    return calls


def _count_tables(monkeypatch) -> list:
    built = []
    real = words._Enumeration.tabulate
    monkeypatch.setattr(words._Enumeration, "tabulate", lambda self: built.append(self) or real(self))
    return built


@pytest.mark.parametrize("route", ["fold", "series"])
@pytest.mark.parametrize("name, text", [(name, text) for name, (_, k) in PAYLOAD_FIXTURES.items()
                                        for text in PAYLOAD_WORDS if parse_word(text).k <= k])
def test_payload_view_matches_letterwise(monkeypatch, name, text, route):
    # each call enumerates the quotient afresh, and the cost constant picks the
    # series or the fold for one-generator words; words in k >= 2 generators
    # go to the table, which never costs more than their n^k tuples, even
    # when compositions are counted free
    monkeypatch.setattr(words, "_view", lambda group: words._Enumeration(group))
    monkeypatch.setattr(words, "_COMPOSE_CALLS", 0 if route == "series" else 10**9)
    series_calls, tables = _count_series(monkeypatch), _count_tables(monkeypatch)
    group, w = PAYLOAD_FIXTURES[name][0](), parse_word(text)
    image, verbal, marginal = _letterwise_reference(w, group)
    assert word_image(w, group) == image
    assert verbal_subgroup(w, group) == verbal
    assert marginal_subgroup(w, group) == marginal
    assert len(series_calls) == (3 if route == "series" and w.k == 1 else 0)
    assert len(tables) == (0 if w.k == 1 else 3)


@pytest.mark.parametrize("route", ["fold", "series"])
def test_payload_view_keeps_the_closure_check(monkeypatch, route):
    monkeypatch.setattr(words, "_COMPOSE_CALLS", 0 if route == "series" else 10**9)
    series_calls = _count_series(monkeypatch)
    hq = heis_quotient(3)
    x = hq.elements[1]
    del hq._by_payload[tuple(c.payload for c in hq.mul(x, x))]
    for enumerate_ in (word_image, verbal_subgroup, marginal_subgroup):
        with pytest.raises(MaximalIdealError, match="not closed under mul and inv"):
            enumerate_(parse_word("x1^2"), hq)
    # the enumeration keeps the compiled W, so three queries compose it once
    assert len(series_calls) == (1 if route == "series" else 0)
    assert not _tabled(hq)


def test_series_route_counted_work(monkeypatch):
    # x1^3 on 4096 elements: 3 compositions and 4096 calls of W beat 12288
    # kernel calls; on 64 elements the 192 calls of the fold win
    series_calls = _count_series(monkeypatch)
    products = []
    real_mul = QuotientGroup.mul
    monkeypatch.setattr(QuotientGroup, "mul",
                        lambda self, x, y: products.append(x) or real_mul(self, x, y))
    w = parse_word("x1^3")
    hq = heis_quotient(5)
    image = word_image(w, hq)
    assert len(series_calls) == 1 and not products
    assert image == {w.evaluate(hq, (g,)) for g in hq.elements}
    small = heis_quotient(3)
    assert word_image(w, small) == {w.evaluate(small, (g,)) for g in small.elements}
    assert len(series_calls) == 1 and not _tabled(small)


def _route(view, w, bound, series_calls) -> str:
    """The route the enumeration takes for w: series, fold or table."""
    before = len(series_calls)
    evaluate = view.evaluator(w, bound)
    if len(series_calls) > before:
        return "series"
    return "fold" if isinstance(evaluate, functools.partial) else "table"


def test_series_beats_the_table_for_a_long_power(monkeypatch):
    # x1^514 on 512 elements: 514*400 + 512 products through W mod m^4 count
    # fewer than the 512^2 of the table, which the fold's 512*514 exceed too
    series_calls = _count_series(monkeypatch)
    hq, w = heis_quotient(4), parse_word("x1^514")
    assert _route(words._view(hq), w, 10**6, series_calls) == "series" and not _tabled(hq)
    image, verbal, marginal = _letterwise_reference(w, hq)
    assert word_image(w, hq) == image and len(image) == 64
    assert verbal_subgroup(w, hq) == verbal
    assert marginal_subgroup(w, hq) == marginal
    assert len(series_calls) == 1 and not _tabled(hq)


def test_negative_letters_count_their_inversions(monkeypatch):
    # on 512 elements x1^5 takes W (5*400 + 512 < 5*512 products), while
    # x1^-5 also composes five inverses (10*400 + 512) and is folded
    series_calls = _count_series(monkeypatch)
    view = words._view(heis_quotient(4))
    assert _route(view, parse_word("x1^5"), 10**6, series_calls) == "series"
    assert _route(view, parse_word("x1^-5"), 10**6, series_calls) == "fold"


def test_benchmark_query_routes(monkeypatch):
    # the dense quotient (M=3, 64 elements): the set-up x1^2 and the x1^e
    # marginals are folded letter by letter until a table exists, and images
    # and closures of words in two generators build it; the sparse quotient
    # (M=5, 4096 elements, no table within the bound) takes W for x1^(+-2, +-3)
    series_calls = _count_series(monkeypatch)
    dense = words._view(heis_quotient(3))
    marginals = ["x1^2", "x1^3", "x1^-5", "x1^6"]
    for text in ["x1^2"] + marginals:
        assert _route(dense, parse_word(text), 10**6, series_calls) == "fold", text
    for text in ["[x1, x2]", "x1^2 x2^2", "[x1^2, x2]", "x1 x2 x1^-1"]:
        assert _route(dense, parse_word(text), 10**6, series_calls) == "table", text
    for text in marginals:  # a built table costs nothing
        assert _route(dense, parse_word(text), 64**2, series_calls) == "table", text
    sparse = words._view(heis_quotient(5))
    for text in ["x1^2", "x1^-2", "x1^3", "x1^-3"]:
        assert _route(sparse, parse_word(text), 10**6, series_calls) == "series", text
    assert sparse.table is None


def test_series_route_keeps_the_last_16_words(monkeypatch):
    monkeypatch.setattr(words, "_COMPOSE_CALLS", 0)
    series_calls = _count_series(monkeypatch)
    view = words._view(heis_quotient(3))
    powers = [parse_word(f"x1^{e}") for e in range(2, 19)]
    for w in powers + [powers[-1], powers[1]]:
        view.evaluator(w, 10**6)
    assert len(series_calls) == 17
    # x1^2 was dropped for the 17th word; x1^3 was used again, so x1^4 goes next
    view.evaluator(powers[0], 10**6)
    view.evaluator(powers[1], 10**6)
    assert series_calls[-1] == powers[0] and len(series_calls) == 18
    view.evaluator(powers[2], 10**6)
    assert series_calls[-1] == powers[2] and len(series_calls) == 19


def test_verbal_closure_makes_about_n_log_n_products():
    # x1^3 is onto the 4096-element quotient; closing its image under every
    # image element makes 4096^2 products, while a generator kept only when it
    # lies outside the subgroup reached so far at least doubles that subgroup
    hq = heis_quotient(5)
    n = len(hq.elements)
    limit = 2 * n * math.ceil(math.log2(n))
    F, products = hq._F, []

    def counted(*payloads):
        products.append(payloads)
        if len(products) > limit:
            raise AssertionError(f"verbal closure passed {limit} products")
        return F(*payloads)

    hq._F = counted
    assert verbal_subgroup(parse_word("x1^3"), hq) == set(hq.elements)
    assert len(products) <= limit


class Permutations:
    """S_n on tuples, its elements listed in a seeded order."""

    def __init__(self, n, seed):
        self.elements = list(itertools.permutations(range(n)))
        random.Random(seed).shuffle(self.elements)
        self.identity = tuple(range(n))

    def mul(self, x, y):
        return tuple(y[i] for i in x)

    def inv(self, x):
        return tuple(sorted(range(len(x)), key=x.__getitem__))


def test_verbal_closure_needs_every_kept_generator():
    # x1^30 on S5 is onto 1 and the 15 double transpositions, which generate
    # A5; the closure keeps its generators in index order, so several element
    # orders are tried (under one of them, stepping by the newest generator
    # alone misses part of A5)
    w = parse_word("x1^30")
    for seed in range(10):
        group = Permutations(5, seed)
        verbal = verbal_subgroup(w, group)
        assert len(verbal) == 60 and verbal == _letterwise_reference(w, group)[1]


# F = (x + y)/(1 + xy) over Z/3^6, truncated at D = 4: not a polynomial law, so
# truncation is visible in the quotients with M > D*N = 4
TANH_LAW = {"d": 1, "D": 4, "spec": {"kind": "p-adic", "p": 3, "K": 6},
            "F": [{"nvars": 2, "D": 4,
                   "terms": [[[1, 0], "1"], [[0, 1], "1"], [[2, 1], "-1"], [[1, 2], "-1"]]}]}


def test_series_route_needs_M_at_most_DN(monkeypatch):
    monkeypatch.setattr(words, "_COMPOSE_CALLS", 0)  # the cost rule alone would take the series
    series_calls = _count_series(monkeypatch)
    law = law_from_json(TANH_LAW)
    G = StandardGroup(law, 1)
    w = parse_word("x1^3")
    at_DN = G.quotient(4)
    image, verbal, marginal = _letterwise_reference(w, at_DN)
    assert word_image(w, at_DN) == image
    assert verbal_subgroup(w, at_DN) == verbal
    assert marginal_subgroup(w, at_DN) == marginal
    assert len(series_calls) == 1
    # an exact law builds above D*N, but W is exact only up to D*N: folded
    above = StandardGroup(builtin("heisenberg", padic(2, 5), 3), 1).quotient(4)
    assert _route(words._view(above), w, 10**6, series_calls) == "fold"
    assert len(series_calls) == 1
    # above D*N truncation is visible in this law, so its quotients are refused
    for M in (5, 6):
        with pytest.raises(ExactnessError, match=f"^quotient level M={M} exceeds D\\*N=4 "):
            G.quotient(M)
    # the refusal is not idle: mod 3^6 the truncated series of x1^3 disagrees
    # with the letter fold of the kernel on most level-1 representatives
    F = law.F.kernel(6)
    fold = SimpleNamespace(identity=(0,), mul=lambda x, y: F(*x, *y))
    reps = [(c.payload,) for c in representatives(law.spec, 1, 6)]
    W = word_series(w, law).W.kernel(6)
    differ = sum(W(*a) != w.evaluate(fold, (a,)) for a in reps)
    assert differ == 162 and len(reps) == 243


# -- evaluation on payloads and indices ----------------------------------------------


def _letter_fold(w, group, args):
    """w at args by the handle's own mul and inv, one product per letter."""
    acc = group.identity
    for gen, sign in w.letters:
        x = args[gen - 1]
        acc = group.mul(acc, x if sign > 0 else group.inv(x))
    return acc


STANDARD_GROUPS = {
    "p-adic-additive": lambda: StandardGroup(builtin("additive", padic(3, 4), 4, dim=2), 1),
    "p-adic-heisenberg": lambda: StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1),
    "eq-char-multiplicative": lambda: StandardGroup(builtin("multiplicative", eqchar(3, 4), 6), 1),
    "nested-multiplicative": lambda: StandardGroup(
        builtin("multiplicative", nested(padic(2, 6), 1, 4), 8), 1),
    "nested-heisenberg": lambda: StandardGroup(
        builtin("heisenberg", nested(eqchar(2, 3), 1, 3), 5), 1),
}
# the identity word, an inverse letter, a repeated generator, an unused slot (x2)
HOOK_WORDS = ["x1^0", "x1^-1", "x1^3", "x1^-2 x2 x1", "[x1, x2] x1^-1", "x1 x3^-2 x1"]


@pytest.mark.parametrize("name", STANDARD_GROUPS)
def test_standard_group_evaluate_matches_the_letter_fold(name):
    G, rng = STANDARD_GROUPS[name](), random.Random(23)
    for text in HOOK_WORDS:
        w = parse_word(text)
        for _ in range(4):
            args = [G.element([random_ideal_element(G.law.spec, 1, rng) for _ in range(G.d)])
                    for _ in range(w.k)]
            assert w.evaluate(G, args) == _letter_fold(w, G, args), text
        if w.k == 1:
            n = sum(sign for _, sign in w.letters)
            assert G.power(args[0], n) == w.evaluate(G, args), text


def _quotients():
    """(name, quotient, whether its table is built)"""
    out = []
    for tabled in (False, True):
        for name, make in [("heisenberg", lambda: heis_quotient(3)),
                           ("eq-char", PAYLOAD_FIXTURES["eq-char"][0]),
                           ("nested", PAYLOAD_FIXTURES["nested-small"][0])]:
            hq = make()
            if tabled:
                words._view(hq).tabulate()
            out.append((name, hq, tabled))
    return out


def test_quotient_evaluate_matches_the_letter_fold_and_the_oracle():
    rng = random.Random(29)
    oracle = HeisQuotient(2, 1, 3)
    for name, hq, tabled in _quotients():
        spec, M = hq.group.law.spec, hq.M
        for text in HOOK_WORDS:
            w = parse_word(text)
            for _ in range(6):
                args = [rng.choice(hq.elements) for _ in range(w.k)]
                # congruent mod m^M, not canonical: reduced by the first product
                shifted = [tuple(c + random_ideal_element(spec, M, rng) for c in x) for x in args]
                want = _letter_fold(w, hq, args)
                assert w.evaluate(hq, args) == want == w.evaluate(hq, shifted), (name, text)
                assert _letter_fold(w, hq, shifted) == want
                if name == "heisenberg":
                    ints = [tuple(int(c) for c in x) for x in args]
                    assert tuple(int(c) for c in want) == oracle.word_value(w.letters, ints)
        assert (words._view(hq).table is not None) == tabled


def test_evaluate_and_power_check_the_arguments_they_use():
    G = StandardGroup(builtin("heisenberg", padic(2, 5), 5), 2)
    spec = G.law.spec
    # valuation 1 < N = 2; x^2 = (4, 0, 0) would pass a check of the products alone
    low = GroupElement(G, (Coefficient.make(spec, 2),) + (Coefficient.zero(spec),) * 2)
    x = G.element(["4", "8", "12"])
    for call in (lambda: parse_word("x1^2").evaluate(G, [low]),
                 lambda: parse_word("x2 x1^-1").evaluate(G, [low, x]),
                 lambda: G.power(low, 2), lambda: G.power(low, -3)):
        with pytest.raises(MaximalIdealError, match=r"^group operation left level N=2$"):
            call()
    # an unused slot is not read, as x1^0 does not read its argument
    w = parse_word("x1 x3^-1")
    assert w.evaluate(G, [x, low, x]) == G.identity == G.power(low, 0)
    assert parse_word("x1 x3").evaluate(G, [x, low, x]) == x * x


def test_quotient_evaluate_keeps_the_closure_check():
    hq = heis_quotient(3)
    x = hq.elements[1]
    del hq._by_payload[tuple(c.payload for c in hq.mul(x, x))]
    with pytest.raises(MaximalIdealError, match="not closed under mul and inv"):
        parse_word("x1^2").evaluate(hq, [x])
    assert not _tabled(hq)


def test_lift_copies_or_hashes_the_smaller_side():
    # x1^3 is onto the 4096-element quotient, x1^2 hits fewer than half of it
    hq = heis_quotient(5)
    view, n = words._view(hq), len(hq.elements)
    for text, onto in (("x1^3", True), ("x1^2", False)):
        w = parse_word(text)
        indices = words._image(w, view, 10**6)
        assert (2 * len(indices) > n) == onto
        plain = set(map(view.members.__getitem__, indices))
        got = word_image(w, hq)
        assert got == plain and type(got) is set
        got.clear()
        assert word_image(w, hq) == plain
    most = set(range(0, n, 3)) | set(range(1, n, 3))
    assert view.lift(most) == set(map(view.members.__getitem__, most))
