"""Seeded query generation for the four benchmark workloads.

Nothing here imports prostd or reads a clock: a plan is plain JSON data made
from the workload name and the seed alone, so the same seed always gives the
same queries.  A plan lists its queries in rounds of fixed composition; the
seed picks the words and elements inside each round, the order in which each
family of costly settings (words, exponents, laws, depths) is walked, and the
order of the round.  Fixing the composition keeps the mix of cheap and
expensive queries, and so the latency percentiles, the same from seed to seed.
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("quotient-dense", "quotient-sparse", "symbolic", "cli-tour")

# Heisenberg law over Z/2^5, group level N = 1 (coordinates in 2Z/32).
HEIS_P, HEIS_K, HEIS_N = 2, 5, 1
DENSE_M = 3
SPARSE_M = 5

# Rounds generated per plan: more than a 60 s run gets through, so the query
# list only wraps around on unusually fast hosts.
ROUNDS = {"quotient-dense": 96, "quotient-sparse": 600, "symbolic": 300, "cli-tour": 40}


def padic(p, K):
    return {"kind": "p-adic", "p": p, "K": K}


def eqchar(p, K):
    return {"kind": "eq-char", "p": p, "K": K}


def nested(base, m, Dt):
    return {"kind": "nested", "p": base["p"], "K": base["K"], "base": base, "m": m, "Dt": Dt}


# -- words ---------------------------------------------------------------------


def reduce_letters(letters):
    out = []
    for gen, sign in letters:
        if out and out[-1] == (gen, -sign):
            out.pop()
        else:
            out.append((gen, sign))
    return out


def word_text(letters) -> str:
    return " ".join(f"x{g}" if s > 0 else f"x{g}^-1" for g, s in letters)


def random_word(rng, k: int, length: int):
    """A freely reduced word of exactly `length` letters mentioning x1..xk."""
    while True:
        letters = []
        while len(letters) < length:
            letter = (rng.randint(1, k), rng.choice((1, -1)))
            if not letters or letters[-1] != (letter[0], -letter[1]):
                letters.append(letter)
        if {g for g, _ in letters} == set(range(1, k + 1)):
            return letters


def power_word(e: int):
    return [(1, 1 if e > 0 else -1)] * abs(e)


def commutator(u, v):
    inv = lambda w: [(g, -s) for g, s in reversed(w)]
    return reduce_letters(inv(u) + inv(v) + u + v)


def squares_commutator(rng):
    """[u^2, v^2] for short words u, v: constant zero on all three extensions
    of the symbolic workload (squares land in the abelian base L)."""
    u, v = _short_pair(rng)
    return commutator(u + u, v + v)


def _short_pair(rng):
    """A power of x1 with one or two letters and a two-letter word in x1, x2;
    they never commute in the free group, so commutators stay nontrivial."""
    return random_word(rng, 1, rng.randint(1, 2)), random_word(rng, 2, 2)


def word_query(op: str, letters, **extra) -> dict:
    return {"op": op, "word": word_text(letters), **extra}


# -- quotient workloads --------------------------------------------------------


def _element(rng, M: int):
    """Coordinates of a level-N element modulo 2^M, as integers."""
    step, q = HEIS_P**HEIS_N, HEIS_P**M
    return [step * rng.randrange(q // step) for _ in range(3)]


# Word families of the quotient workloads.  Each run walks every family in a
# seeded order, so every run sees each member about equally often and the
# seed changes the order, not the mix of costs; short families keep the last,
# partial walk small.
DENSE_WORDS = (
    commutator([(1, 1)], [(2, 1)]),                  # [x1, x2]
    [(1, 1), (1, 1), (2, 1), (2, 1)],                # x1^2 x2^2
    commutator([(1, 1), (1, 1)], [(2, 1)]),          # [x1^2, x2]
    [(1, 1), (2, 1), (1, -1)],                       # x1 x2 x1^-1
)
DENSE_MARGINAL_EXPONENTS = (2, 3, -5, 6)
SPARSE_IMAGE_EXPONENTS = (2, 3, -2, -3)


def _shuffled(rng, family) -> list:
    order = list(family)
    rng.shuffle(order)
    return order


def _walk(order, start=0):
    """An endless walk through `order`, beginning at index `start`."""
    return itertools.cycle(order[start:] + order[:start])


def _dense_rounds(rng):
    # image and closure walk one seeded order half a family apart
    words = _shuffled(rng, DENSE_WORDS)
    images, verbals = _walk(words), _walk(words, len(words) // 2)
    marginals = _walk(_shuffled(rng, DENSE_MARGINAL_EXPONENTS))
    while True:
        # three heavy enumerations, one marginal scan and eleven 256-letter
        # evaluations: the median lands inside the evaluations and the 90th
        # percentile in the middle of the enumerations
        qs = [
            word_query("image", next(images)),
            word_query("verbal", next(verbals)),
            {"op": "validate", "level": 4},
            word_query("marginal", power_word(next(marginals))),
        ]
        for _ in range(11):
            qs.append(word_query("evaluate", random_word(rng, 2, 256),
                                 args=[_element(rng, DENSE_M) for _ in range(2)]))
        rng.shuffle(qs)
        yield qs


def _sparse_rounds(rng):
    images = _walk(_shuffled(rng, SPARSE_IMAGE_EXPONENTS))
    singles = _walk(_shuffled(rng, ("group_mul", "group_inv", "group_power")))
    while True:
        # one M=5 image (the 90th percentile), three 64-letter evaluations (the
        # median) and one cheap product, inverse or power (powers of these
        # elements reach the identity after a few squarings)
        op = next(singles)
        single = {"op": op, "x": _element(rng, HEIS_K)}
        if op == "group_mul":
            single["y"] = _element(rng, HEIS_K)
        elif op == "group_power":
            single["n"] = rng.randrange(2**40, 2**41) * rng.choice((1, -1))
        qs = [word_query("image", power_word(next(images))), single]
        for _ in range(3):
            k = rng.randint(2, 3)
            qs.append(word_query("group_evaluate", random_word(rng, k, 64),
                                 args=[_element(rng, HEIS_K) for _ in range(k)]))
        rng.shuffle(qs)
        yield qs


# -- symbolic workload ---------------------------------------------------------

# Catalogue laws for verify / formal_inverse: (name, ring, D, dim).
CATALOGUE = (
    ("additive", padic(3, 4), 6, 1),
    ("additive", padic(2, 5), 5, 2),
    ("additive", eqchar(2, 4), 4, 3),
    ("multiplicative", padic(2, 6), 8, 1),
    ("multiplicative", eqchar(3, 4), 6, 1),
    ("multiplicative", nested(padic(2, 6), 1, 4), 8, 1),
    ("multiplicative", nested(padic(2, 6), 2, 4), 10, 1),
    ("heisenberg", padic(2, 5), 5, 1),
    ("heisenberg", nested(eqchar(2, 3), 1, 3), 5, 1),
    ("heisenberg", nested(padic(3, 3), 1, 3), 5, 1),
)

# Transversal extensions built in set-up; the reference model in refmodel.py
# mirrors each one.
EXTENSIONS = ("inversion_p2", "inversion_p3", "direct_product")


def _point(rng, base: dict) -> str:
    if base["kind"] == "p-adic":
        return str(base["p"] * rng.randrange(1, base["p"] ** (base["K"] - 1)))
    return rng.choice(("t", "t^2", "t + t^2"))


def _law_refs() -> list:
    """Every catalogue law with each transport it admits: none, a precision
    reduction, and for nested rings a specialisation (its point is seeded)."""
    refs = []
    for name, ring, D, dim in CATALOGUE:
        base = {"law": name, "ring": ring, "D": D, "dim": dim}
        refs.append({**base, "transport": None})
        refs.append({**base, "transport": {"kind": "precision", "K": ring["K"] - 1}})
        if ring["kind"] == "nested":
            refs.append({**base, "transport": {"kind": "point"}})
    return refs


def _law_query(rng, op: str, ref: dict) -> dict:
    q = {"op": op, **ref}
    if ref["transport"] and ref["transport"]["kind"] == "point":
        ring = ref["ring"]
        q["transport"] = {"kind": "point",
                          "point": [_point(rng, ring["base"]) for _ in range(ring["m"])]}
    return q


# Words whose map is constant on every coset tuple of each extension: [u^2, v^2]
# on all three, [u, v] where the quotient is abelian, and u v u v (every
# generator an even number of times) on inversion_p2.
MARGINAL_KINDS = {
    "inversion_p2": ("squares", "commutator", "even"),
    "inversion_p3": ("squares",),
    "direct_product": ("squares", "commutator"),
}


def _marginal_word(rng, kind: str):
    if kind == "squares":
        return squares_commutator(rng)
    u, v = _short_pair(rng)
    if kind == "even":
        return reduce_letters(u + v + u + v)
    return commutator(u, v)


def _symbolic_rounds(rng):
    # The parameters that set a query's cost (depth, law, ring, extension,
    # word kind, grid, number of generators) are walked as full grids in a
    # seeded order, so every run holds each setting about equally often and
    # the seed moves the order and the letters of the words, not the mix of
    # costs.
    heis = _walk(_shuffled(rng, list(itertools.product(range(5, 9), (2, 3)))))
    mult = _walk(_shuffled(rng, list(itertools.product((1, 2), (8, 10, 12, 14, 16), (2, 3)))))
    verifies = _walk(_shuffled(rng, _law_refs()))
    inverses = _walk(_shuffled(rng, _law_refs()))
    kinds = [(ext, kind) for ext in EXTENSIONS for kind in MARGINAL_KINDS[ext]]
    marginals = _walk(_shuffled(rng, kinds + [(ext, None) for ext in EXTENSIONS]))
    probes = _walk(_shuffled(rng, list(itertools.product(EXTENSIONS, range(1, 5), (2, 3)))))
    coherences = _walk(_shuffled(rng, [(ext, kind, depth) for ext, kind in kinds
                                       for depth in (2, 3)]))
    while True:
        # twelve 8-letter Heisenberg word series, whose cost hardly depends on
        # the letters, hold the median; four coherence checks, the most
        # expensive queries, hold the 90th percentile inside their cost range
        qs = []
        for _ in range(12):
            D, k = next(heis)
            qs.append(word_query("word_series_heis", random_word(rng, k, 8), D=D))
        for _ in range(2):
            m, D, k = next(mult)
            qs.append(word_query("word_series_mult", random_word(rng, k, rng.randint(3, 8)),
                                 m=m, D=D))
        qs.append(_law_query(rng, "verify", next(verifies)))
        qs.append(_law_query(rng, "formal_inverse", next(inverses)))
        for _ in range(2):
            ext, kind = next(marginals)
            if kind:
                letters = _marginal_word(rng, kind)
            else:
                k = rng.randint(1, 3)
                letters = random_word(rng, k, rng.randint(max(2, k), 5))
            qs.append(word_query("marginality", letters, ext=ext))
        ext, lmax, depth = next(probes)
        letters = random_word(rng, rng.randint(1, 2), rng.randint(2, 4))
        qs.append(word_query("probe", letters, ext=ext, lmax=lmax, depth=depth))
        for _ in range(4):
            ext, kind, depth = next(coherences)
            qs.append(word_query("coherence", _marginal_word(rng, kind), ext=ext, depth=depth))
        rng.shuffle(qs)
        yield qs


# -- CLI tour ------------------------------------------------------------------

# The README's command-line tour; `sample-data` is set-up, the rest are the
# queries.  Broken-law checks exit 1 by design.
SAMPLE_DATA = ["sample-data", "data"]
CLI_TOUR = (
    ["fgl", "check", "additive", "--p", "3", "--K", "4", "--D", "6"],
    ["fgl", "check", "data/broken.json"],
    ["fgl", "inverse", "multiplicative", "--K", "6", "--D", "8", "--format", "json"],
    ["fgl", "transport", "data/mult_deformed.json", "--point", "2"],
    ["fgl", "transport", "heisenberg", "--K", "5", "--D", "5", "--precision", "2"],
    ["group", "mul", "--group", "data/heisenberg_group.json", "--x", "2,4,8", "--y", "6,2,4"],
    ["group", "inv", "--group", "data/heisenberg_group.json", "--x", "2,4,8"],
    ["group", "pow", "--group", "data/heisenberg_group.json", "--x", "2,4,8", "--n", "-3"],
    ["group", "conj", "--group", "data/heisenberg_group.json", "--g", "2,6,4"],
    ["group", "quotient", "--M", "2", "--law", "additive", "--p", "3", "--K", "3"],
    ["word", "eval", "--word", "[x1, x2]", "--group", "data/heisenberg_group.json",
     "--args", "2,4,8; 6,2,4"],
    ["word", "series", "--word", "[x1, x2]", "--law", "heisenberg", "--K", "5", "--D", "5"],
    ["word", "image", "--word", "x1^2", "--law", "heisenberg", "--K", "5", "--D", "5",
     "--M", "3", "--closure", "verbal", "--format", "json"],
    ["atlas", "validate", "--extension", "data/dirprod.json", "--level", "2"],
    ["atlas", "marginal", "--word", "[x1, x2]", "--extension", "data/dirprod.json"],
    ["atlas", "marginal", "--word", "x1^2", "--extension", "data/inversion_p3.json"],
    ["atlas", "wordmap", "--word", "x1^2", "--extension", "data/inversion_p2.json",
     "--cosets", "s"],
    ["probe", "--word", "x1^2", "--extension", "data/inversion_p2.json", "--lmax", "2",
     "--grid-depth", "3"],
    ["probe", "--word", "x1^2", "--extension", "data/inversion_p3.json", "--lmax", "3",
     "--grid-depth", "2", "--format", "json"],
)


def cli_expected_exit(argv) -> int:
    return 1 if argv[:2] == ["fgl", "check"] and "broken" in argv[2] else 0


def _cli_rounds(rng):
    while True:
        qs = [{"op": "cli", "argv": list(argv)} for argv in CLI_TOUR]
        rng.shuffle(qs)
        yield qs


# -- plans -----------------------------------------------------------------------

_ROUNDS = {
    "quotient-dense": _dense_rounds,
    "quotient-sparse": _sparse_rounds,
    "symbolic": _symbolic_rounds,
    "cli-tour": _cli_rounds,
}


def make_plan(workload: str, seed: int) -> dict:
    """The whole generated input of one run: set-up parameters and queries."""
    if workload not in _ROUNDS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    rounds = list(itertools.islice(_ROUNDS[workload](rng), ROUNDS[workload]))
    return {
        "workload": workload,
        "seed": seed,
        "round_size": len(rounds[0]),
        "queries": [q for r in rounds for q in r],
    }
