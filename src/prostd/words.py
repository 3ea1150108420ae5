"""Free-group words: parsing, reduction, evaluation and symbolic series.

Grammar for word text:

    word    :=  factor*
    factor  :=  atom [ '^' integer ]
    atom    :=  'x' index  |  '(' word ')'  |  '[' word ',' word ']'

``[u,v]`` is the commutator u^-1 v^-1 u v.  Words are stored freely
reduced; the generator count k is the highest index mentioned in the text,
even when that generator cancels away.  Expansion is eager, so the letter
count before reduction is held to the enumeration bound.

Evaluation is one left fold of the letters; on a ``StandardGroup`` or a
``QuotientGroup`` it folds payloads or enumeration indices (``_word_hook``),
converting each argument used once and building only the result.

Images, verbal and marginal subgroups of a finite handle run on one indexed
enumeration of its elements, cached on the handle.  One rule,
``_Enumeration.evaluator``, routes each word: it counts the products of the
n^2 table, of a quotient's word series W mod m^M and of the letter fold, and
takes the least.  One doubling closure, ``_Enumeration.closure``, generates
verbal subgroups and the generating set of Light's associativity test.
Elements are built, and hashed, only when a result set is lifted.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import SimpleNamespace

from .errors import WordSyntaxError
from .fgl import FormalGroupLaw
from .rings import _Cursor
from .series import SeriesTuple, compose
from .stdgrp import QuotientGroup, _enumeration_guard, _payload, default_bound


def _reduce(letters) -> tuple[tuple[int, int], ...]:
    out: list[tuple[int, int]] = []
    for gen, sign in letters:
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((gen, sign))
    return tuple(out)


@dataclass(frozen=True)
class WordExpr:
    """A freely reduced word in the free group on x1..xk."""

    k: int
    letters: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("words need at least one generator")
        for gen, sign in self.letters:
            if not 1 <= gen <= self.k or sign not in (1, -1):
                raise ValueError(f"bad letter ({gen}, {sign})")

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def inverse(self) -> WordExpr:
        return WordExpr(self.k, tuple((g, -s) for g, s in reversed(self.letters)))

    def __mul__(self, other: WordExpr) -> WordExpr:
        return WordExpr(max(self.k, other.k), _reduce(self.letters + other.letters))

    def power(self, n: int) -> WordExpr:
        if n < 1:
            raise ValueError("word powers take n >= 1")
        _enumeration_guard(len(self.letters) * n, None)
        return WordExpr(self.k, _reduce(self.letters * n))

    def evaluate(self, group, args):
        """Left fold of the word over any group exposing identity/mul/inv, or
        over the ops of its ``_word_hook`` (ops, encode, decode): arguments
        in used slots are encoded once, the result decoded once."""
        if len(args) < self.k:
            raise ValueError(f"word mentions x{self.k} but only {len(args)} arguments given")
        if (hook := getattr(group, "_word_hook", None)) is None:
            return self._fold(group, args)
        ops, encode, decode = hook
        return decode(self._fold(ops, [encode(a) if i in self._generators else None
                                       for i, a in enumerate(args, 1)]))

    @functools.cached_property
    def _generators(self) -> frozenset:  # the generators the letters use
        return frozenset(gen for gen, _ in self.letters)

    def _fold(self, group, args):
        acc, mul = group.identity, group.mul
        inverses = {}  # each argument is inverted at most once
        for gen, sign in self.letters:
            if sign > 0:
                v = args[gen - 1]
            elif gen in inverses:
                v = inverses[gen]
            else:
                v = inverses[gen] = group.inv(args[gen - 1])
            acc = mul(acc, v)
        return acc

    def text(self) -> str:
        if not self.letters:
            return "1"
        parts = []
        for gen, sign in self.letters:
            if parts and parts[-1][0] == (gen, sign):
                parts[-1][1] += 1
            else:
                parts.append([(gen, sign), 1])
        out = []
        for (gen, sign), n in parts:
            e = sign * n
            out.append(f"x{gen}" if e == 1 else f"x{gen}^{e}")
        return " ".join(out)


class _Parser(_Cursor):
    blanks = " \t*·"

    def __init__(self, text: str, bound: int):
        super().__init__(text)
        self.bound = bound

    def error(self, message: str, pos: int | None = None):
        raise WordSyntaxError(message, self.pos if pos is None else pos)

    def atom(self):
        ch = self.peek()
        if ch == "x":
            self.pos += 1
            if not self.at_digit():
                self.error("expected a generator index after 'x'")
            idx = self.integer()
            if idx < 1:
                self.error("generator indices start at 1")
            return [(idx, 1)], idx
        if ch == "(":
            self.pos += 1
            letters, k = self.word()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return letters, k
        if ch == "[":
            self.pos += 1
            u, ku = self.word()
            if self.peek() != ",":
                self.error("expected ',' inside commutator")
            self.pos += 1
            v, kv = self.word()
            if self.peek() != "]":
                self.error("expected ']'")
            self.pos += 1
            inv = lambda ls: [(g, -s) for g, s in reversed(ls)]
            letters = inv(u) + inv(v) + u + v
            _enumeration_guard(len(letters), self.bound)
            return letters, max(ku, kv)
        self.error("expected a generator, '(' or '['")

    def factor(self):
        letters, k = self.atom()
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            n = self.integer()
            _enumeration_guard(len(letters) * abs(n), self.bound)
            if n == 0:
                letters = []
            elif n < 0:
                letters = [(g, -s) for g, s in reversed(letters)] * (-n)
            else:
                letters = letters * n
        return letters, k

    def word(self):
        # closers are consumed by whichever construct opened them
        letters: list[tuple[int, int]] = []
        k = 0
        self.skip_ws()
        while self.pos < len(self.text) and self.peek() not in ")],":
            ls, kk = self.factor()
            letters += ls
            _enumeration_guard(len(letters), self.bound)
            k = max(k, kk)
            self.skip_ws()
        return letters, k


def parse_word(text: str) -> WordExpr:
    parser = _Parser(text, default_bound())
    try:
        letters, k = parser.word()
    except RecursionError:
        raise WordSyntaxError("brackets nested too deeply", parser.pos) from None
    if parser.pos < len(text):
        parser.error(f"unexpected character {text[parser.pos]!r}")
    if k == 0:
        parser.error("empty word text")
    return WordExpr(k, _reduce(letters))


# --------------------------------------------------------------------------
# symbolic word series


@dataclass(frozen=True)
class WordSeries:
    word: WordExpr
    d: int
    W: SeriesTuple


def word_series(w: WordExpr, law: FormalGroupLaw) -> WordSeries:
    """The word map as d series in d*k variables, one block of d per
    generator, with W(0) = 0: the word's fold over series, where a product
    composes F and an inverse composes I, once per inverted generator."""
    d, spec, D = law.d, law.spec, law.D
    nv = d * w.k
    series = SimpleNamespace(identity=SeriesTuple.zeros(spec, d, nv, D),
                             mul=lambda x, y: compose(law.F, x.concat(y)),
                             inv=lambda x: compose(law.I, x))
    blocks = [SeriesTuple.block(spec, nv, D, i * d, d) for i in range(w.k)]
    return WordSeries(w, d, w.evaluate(series, blocks))


# --------------------------------------------------------------------------
# image, verbal and marginal subgroups on finite group handles


# One composition of the word series, its share of compiling W included, costs
# about this many level-M kernel calls where kernel calls are cheapest: 130-380
# calls plus 25-100 to compile on p-adic Heisenberg and multiplicative laws
# (words x1^2 to x1^2 x2^2 x3, quotients of 27 to 4096 elements, a kernel call
# and closure lookup 0.5 us; 2 vCPU, Python 3.11.7).  On eq-char and nested
# rings a composition costs 2-35 of their slower calls, so there the constant
# only errs towards the fold.  A call of W is counted as one kernel call: it
# measured 0.3-2 calls on p-adic rings and up to 5 on nested ones.
_COMPOSE_CALLS = 400


class _Enumeration:
    """A finite group handle with its elements numbered 0..n-1.

    Index i stands for ``members[i]``; ``keys[i]`` holds the arguments that a
    product takes for it: its payloads on a ``QuotientGroup``, whose products
    run on the level-M kernels, and ``(members[i],)`` on any other handle,
    whose products run on its own ``mul``/``inv``.  Every product value (a
    payload tuple, or an element) is looked up in one dict of indices, whose
    failed lookup is the closure check.  ``tabulate`` swaps in the flat n^2
    product table.  A quotient's enumeration keeps its last 16 compiled word
    series, and ``hook``, whose encode reduces an argument by the product e·x.
    """

    def __init__(self, group):
        self._quotient = quotient = group if isinstance(group, QuotientGroup) else None
        if quotient is not None:
            keys, members = zip(*quotient._by_payload.items())
            values, mul, inv = keys, quotient._F, quotient._I
            identity = tuple(map(_payload, quotient.identity))
        else:
            values = members = tuple(group.elements)
            keys, mul, inv = [(m,) for m in members], group.mul, group.inv
            identity = group.identity
        index = {v: i for i, v in enumerate(values)}

        def index_of(v):
            i = index.get(v)
            if i is None:
                if quotient is not None:
                    quotient._element(v)  # raises the quotient's own closure error
                raise ValueError(f"{v!r} is not among the group's {len(values)} elements; "
                                 "the handle is not closed under mul and inv")
            return i

        self.keys, self.members, self._index_of = keys, members, index_of
        self.elements = range(len(values))
        self.identity = index_of(identity)
        self.mul = lambda a, b: index_of(mul(*keys[a], *keys[b]))
        self.inv = lambda a: index_of(inv(*keys[a]))
        if quotient is not None:
            self.hook = (self, lambda x: index_of(mul(*identity, *map(_payload, x))),
                         members.__getitem__)
        self.table = self._inverses = self._all = None
        self._series = {}  # word -> compiled W mod m^M: the 16 last used, latest last

    def tabulate(self) -> _Enumeration:
        """Replace mul and inv by lookups in the flat n^2 table."""
        els, n, mul = self.elements, len(self.elements), self.mul
        table = [mul(a, b) for a in els for b in els]
        inverses = list(map(self.inv, els))
        self.table, self._inverses, self.inv = table, inverses, inverses.__getitem__
        self.mul = lambda a, b: table[a * n + b]
        return self

    def evaluator(self, w: WordExpr, bound: int):
        """w as a function of an index tuple, on the route that counts the
        fewest products (ties go to the table, then the fold): the n^2 table,
        free once built and tabulated here when within the bound; W mod m^M,
        one composition per letter plus one for x1^-1 if it occurs, and n
        calls, for one-generator words on a quotient with M <= D*N, where
        truncation at degree D drops only terms of valuation >= D*N >= M; or
        the letter fold, n^k*|w|.  For k >= 2 the table never costs more than
        the n^k tuples."""
        n, Q = len(self.elements), self._quotient
        costs = {"table": 0 if self.table is not None else n * n if n * n <= bound else math.inf,
                 "fold": n**w.k * len(w.letters), "series": math.inf}
        if w.k == 1 and Q is not None and Q.M <= Q.group.law.D * Q.group.N:
            inverted = any(sign < 0 for _, sign in w.letters)
            costs["series"] = _COMPOSE_CALLS * (len(w.letters) + inverted) + n
        route = min(costs, key=costs.get)
        if route == "fold":
            return functools.partial(w._fold, self)
        if route == "series":
            keys, index_of = self.keys, self._index_of
            W = self._series[w] = (self._series.pop(w, None)
                                   or word_series(w, Q.group.law).W.kernel(Q.M))
            if len(self._series) > 16:
                del self._series[next(iter(self._series))]
            return lambda args: index_of(W(*keys[args[0]]))
        table = self.table or self.tabulate().table
        inv, identity = self._inverses, self.identity
        letters = [(gen - 1, sign > 0) for gen, sign in w.letters]

        def evaluate(args):
            acc = identity
            for slot, positive in letters:
                acc = table[acc * n + (args[slot] if positive else inv[args[slot]])]
            return acc

        return evaluate

    def closure(self, candidates) -> tuple[set, list]:
        """The indices reached from the identity by right products with the
        candidates, and the candidates kept as generators, in order.  A
        candidate is kept only when it lies outside the set reached so far,
        which it then at least doubles in a group, so at most log2 n are
        kept.  Every reached index is a left-bracketed product
        ((e·s1)·s2)·..·sk of kept generators, read off ``mul`` alone."""
        mul, seen, gens = self.mul, {self.identity}, []
        for g in candidates:
            if g in seen:
                continue
            # what was reached needs only g, and what g reaches needs every generator
            gens.append(g)
            frontier, step = seen, [g]
            while frontier:
                reached = {mul(a, s) for a in frontier for s in step} - seen
                seen |= reached
                frontier, step = reached, gens
        return seen, gens

    def associative(self) -> bool:
        """Light's associativity test on the tabulated product: True proves
        that all n^3 triples associate.  False means a check failed, or the
        closure of all indices missed an element, so that the kept
        generators are not held to log2 n; only the full scan tells which
        triples fail.

        The middles g with (x·g)·z = x·(g·z) for every x, z form a closed
        set.  Every reached element is a product of the identity and the
        kept generators S, so when these pass their n^2·(|S| + 1) checks,
        every element passes (Clifford & Preston, The Algebraic Theory of
        Semigroups, vol. I, 1961)."""
        n, table = len(self.elements), self.table
        reached, gens = self.closure(self.elements)
        if len(reached) < n:
            return False
        rows = [tuple(table[x * n:(x + 1) * n]) for x in self.elements]
        for g in (self.identity, *gens):
            right = rows[g]  # g·z for every z
            # row x·g lists (x·g)·z; x·(g·z) picks the entries g·z of row x
            if any(rows[row[g]] != tuple(map(row.__getitem__, right)) for row in rows):
                return False
        return True

    def lift(self, indices: set) -> set:
        """A fresh set of the members at these indices, hashing min(k, n - k)
        members: most of them are a copy of all (stored hashes) less the rest."""
        members, n = self.members, len(self.members)
        if 2 * len(indices) > n:
            self._all = self._all or frozenset(members)
            if len(self._all) == n:  # distinct members: the complement is exact
                out = set(self._all)
                out -= set(map(members.__getitem__, indices.symmetric_difference(self.elements)))
                return out
        return set(map(members.__getitem__, indices))


def _view(group) -> _Enumeration:
    """The handle's enumeration, cached on the handle."""
    view = getattr(group, "_enumeration", None)
    if view is None:
        view = _Enumeration(group)
        try:
            group._enumeration = view
        except AttributeError:  # slotted or frozen handles rebuild it per call
            pass
    return view


def _image(w: WordExpr, view, bound: int) -> set:
    evaluate = view.evaluator(w, bound)
    return {evaluate(args) for args in itertools.product(view.elements, repeat=w.k)}


def word_image(w: WordExpr, group, bound: int | None = None) -> set:
    """w{G} = all word values over a finite group handle."""
    bound = _enumeration_guard(len(group.elements) ** w.k, bound)
    view = _view(group)
    return view.lift(_image(w, view, bound))


def verbal_subgroup(w: WordExpr, group, bound: int | None = None) -> set:
    """The subgroup generated by the word image."""
    bound = _enumeration_guard(len(group.elements) ** w.k, bound)
    view = _view(group)
    reached, _ = view.closure(_image(w, view, bound))
    return view.lift(reached)


def marginal_subgroup(w: WordExpr, group, bound: int | None = None) -> set:
    """Elements g with w(.., g*x_i, ..) = w(.., x_i, ..) in every slot, always."""
    bound = _enumeration_guard(len(group.elements) ** (w.k + 1), bound)
    view = _view(group)
    evaluate = view.evaluator(w, bound)
    mul = view.mul  # read after the route may tabulate
    # each argument tuple is evaluated once; a shift is a lookup of its value
    values = {args: evaluate(args) for args in itertools.product(view.elements, repeat=w.k)}

    def marginal(g) -> bool:
        for args, value in values.items():
            for i in range(w.k):
                if values[args[:i] + (mul(g, args[i]),) + args[i + 1:]] != value:
                    return False
        return True

    return view.lift({g for g in view.elements if marginal(g)})
