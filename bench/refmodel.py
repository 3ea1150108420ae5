"""Reference answers for the benchmark, computed without importing prostd.

Everything is plain integer arithmetic:

* the Heisenberg group as integer triples, (a, b, c)(a', b', c') =
  (a + a', b + b', c + c' + a b') mod q, which is the product of upper
  unitriangular 3x3 matrices (the `HeisQuotient` model of tests/oracles.py;
  the self-tests check the two agree);
* exact integer polynomials {exponents: int} for word series, formal
  inverses and the word maps of the order-2 extensions;
* closed forms: (1 + W) = prod (1 + x_i)^(n_i) for the multiplicative law,
  the geometric series for its inverse, known verdicts of criterion 08/09.

`expected(workload, query)` returns the answer the program must give, in the
normalised form the worker produces (see worker.normalise).
"""

from __future__ import annotations

import itertools

from plan import DENSE_M, HEIS_K, HEIS_N, HEIS_P, SPARSE_M, reduce_letters

# -- words -----------------------------------------------------------------------


def parse_letters(text: str):
    """Letters of word text written as plan.word_text writes it."""
    out = []
    for tok in text.split():
        gen, _, exp = tok[1:].partition("^")
        out.append((int(gen), -1 if exp == "-1" else 1))
    return out


def word_k(letters) -> int:
    return max(g for g, _ in letters)


def prostd_text(letters) -> str:
    """WordExpr.text(): runs of one letter collapse into powers."""
    parts = []
    for letter in letters:
        if parts and parts[-1][0] == letter:
            parts[-1][1] += 1
        else:
            parts.append([letter, 1])
    out = []
    for (gen, sign), n in parts:
        e = sign * n
        out.append(f"x{gen}" if e == 1 else f"x{gen}^{e}")
    return " ".join(out) if out else "1"


# -- Heisenberg integer model ----------------------------------------------------


def heis_mul(x, y, q):
    return ((x[0] + y[0]) % q, (x[1] + y[1]) % q, (x[2] + y[2] + x[0] * y[1]) % q)


def heis_inv(x, q):
    return ((-x[0]) % q, (-x[1]) % q, (x[0] * x[1] - x[2]) % q)


def heis_word(letters, args, q):
    acc = (0, 0, 0)
    for gen, sign in letters:
        v = args[gen - 1]
        acc = heis_mul(acc, v if sign > 0 else heis_inv(v, q), q)
    return acc


def heis_power(x, n, q):
    if n < 0:
        x, n = heis_inv(x, q), -n
    acc, base = (0, 0, 0), x
    while n:
        if n & 1:
            acc = heis_mul(acc, base, q)
        base = heis_mul(base, base, q)
        n >>= 1
    return acc


def heis_elements(M: int):
    vals = range(0, HEIS_P**M, HEIS_P**HEIS_N)
    return [(a, b, c) for a in vals for b in vals for c in vals]


def heis_image(letters, M):
    q, els = HEIS_P**M, heis_elements(M)
    return {heis_word(letters, args, q) for args in itertools.product(els, repeat=word_k(letters))}


def heis_verbal(letters, M):
    q = HEIS_P**M
    image = heis_image(letters, M)
    gens = image | {heis_inv(g, q) for g in image}
    seen, frontier = {(0, 0, 0)}, [(0, 0, 0)]
    while frontier:
        cur = frontier.pop()
        for g in gens:
            nxt = heis_mul(cur, g, q)
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def heis_marginal(letters, M):
    """Naive enumeration: g with w(.., g x_i, ..) = w(.., x_i, ..) always."""
    q, els, k = HEIS_P**M, heis_elements(M), word_k(letters)
    tuples = list(itertools.product(els, repeat=k))
    values = [heis_word(letters, args, q) for args in tuples]
    out = set()
    for g in els:
        if all(heis_word(letters, args[:i] + (heis_mul(g, args[i], q),) + args[i + 1:], q) == base
               for args, base in zip(tuples, values) for i in range(k)):
            out.add(g)
    return out


def sorted_elements(els):
    return sorted(list(e) for e in els)


# -- integer polynomials ---------------------------------------------------------


def grlex_key(alpha):
    return (sum(alpha), tuple(-a for a in alpha))


def monomial_name(alpha) -> str:
    factors = []
    for i, e in enumerate(alpha):
        if e == 1:
            factors.append(f"X{i + 1}")
        elif e > 1:
            factors.append(f"X{i + 1}^{e}")
    return "*".join(factors) if factors else "1"


def unit(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def p_add(*polys):
    out: dict = {}
    for a in polys:
        for alpha, c in a.items():
            out[alpha] = out.get(alpha, 0) + c
    return {alpha: c for alpha, c in out.items() if c}


def p_scale(a, s):
    return {alpha: c * s for alpha, c in a.items() if c * s}


def p_mul(a, b, D):
    out: dict = {}
    for alpha, c in a.items():
        for beta, e in b.items():
            if sum(alpha) + sum(beta) < D:
                gamma = tuple(x + y for x, y in zip(alpha, beta))
                out[gamma] = out.get(gamma, 0) + c * e
    return {alpha: c for alpha, c in out.items() if c}


def p_mod(a, q):
    return {alpha: c % q for alpha, c in a.items() if c % q}


def geometric_inverse(nvars, i, D):
    """(1 + x_i)^-1 - 1 below degree D."""
    return {tuple(j if t == i else 0 for t in range(nvars)): (-1) ** j for j in range(1, D)}


def binomial_series(n, D):
    """Coefficients of (1 + x)^n below degree D, n any integer."""
    out, c = [1], 1
    for j in range(1, D):
        c = c * (n - j + 1) // j
        out.append(c)
    return out


# -- coefficient strings ---------------------------------------------------------


def coefficient_text(c: int, ring: dict) -> str | None:
    """The printed form of the integer constant c in `ring`; None for zero."""
    base = ring["base"] if ring["kind"] == "nested" else ring
    q = base["p"] ** base["K"] if base["kind"] == "p-adic" else base["p"]
    v = c % q
    if not v:
        return None
    if ring["kind"] == "nested" and base["kind"] == "eq-char":
        return f"({v})"
    return str(v)


def series_json(components, nvars, D, ring):
    out = []
    for comp in components:
        terms = []
        for alpha, c in sorted(comp.items(), key=lambda it: grlex_key(it[0])):
            text = coefficient_text(c, ring)
            if text is not None and sum(alpha) < D:
                terms.append([list(alpha), text])
        out.append({"nvars": nvars, "D": D, "terms": terms})
    return out


# -- laws ------------------------------------------------------------------------


def transported_ring(ref: dict) -> dict:
    ring, tr = ref["ring"], ref["transport"]
    if tr is None:
        return ring
    if tr["kind"] == "point":
        return ring["base"]
    if ring["kind"] == "nested":
        base = {**ring["base"], "K": tr["K"]}
        return {**ring, "K": tr["K"], "base": base}
    return {**ring, "K": tr["K"]}


def law_inverse(name: str, d: int, D: int):
    """The formal inverse of a catalogue law as integer polynomials."""
    if name == "additive":
        return [{unit(d, j): -1} for j in range(d)]
    if name == "multiplicative":
        return [geometric_inverse(1, 0, D)]
    return [{unit(3, 0): -1}, {unit(3, 1): -1}, {unit(3, 2): -1, (1, 1, 0): 1}]


VERIFY_OK = {"ok": True, "axioms": [
    {"name": "unit-right", "ok": True, "witness": None},
    {"name": "unit-left", "ok": True, "witness": None},
    {"name": "associativity", "ok": True, "witness": None},
]}


def heis_word_series(letters, D):
    """Fold F(x, y) = (x1 + y1, x2 + y2, x3 + y3 + x1 y2) over the word; the
    inverse is (-x1, -x2, -x3 + x1 x2).  Degree stays below 3, so exact."""
    nv = 3 * word_k(letters)
    acc = [{}, {}, {}]
    for gen, sign in letters:
        x = [{unit(nv, 3 * (gen - 1) + j): 1} for j in range(3)]
        if sign > 0:
            u = x
        else:
            u = [p_scale(x[0], -1), p_scale(x[1], -1), p_add(p_scale(x[2], -1), p_mul(x[0], x[1], D))]
        acc = [p_add(acc[0], u[0]), p_add(acc[1], u[1]),
               p_add(acc[2], u[2], p_mul(acc[0], u[1], D))]
    return acc


def mult_word_series(letters, D):
    """1 + W = prod (1 + x_i)^(n_i), n_i the exponent sum of x_i."""
    k = word_k(letters)
    sums = [0] * k
    for gen, sign in letters:
        sums[gen - 1] += sign
    acc = {(0,) * k: 1}
    for i, n in enumerate(sums):
        series = binomial_series(n, D)
        nxt: dict = {}
        for alpha, c in acc.items():
            for j, b in enumerate(series):
                if b and sum(alpha) + j < D:
                    beta = alpha[:i] + (alpha[i] + j,) + alpha[i + 1:]
                    nxt[beta] = nxt.get(beta, 0) + c * b
        acc = nxt
    acc[(0,) * k] = acc.get((0,) * k, 0) - 1
    return [{alpha: c for alpha, c in acc.items() if c}]


MULT_RING = {"kind": "nested", "p": 2, "K": 6, "base": {"kind": "p-adic", "p": 2, "K": 6},
             "m": 1, "Dt": 4}


# -- order-2 extensions ----------------------------------------------------------

# law, action of the coset s, coefficient modulus, truncation D, base ring of the
# nested coefficient ring, as worker.Library._extensions builds them
EXTENSIONS = {
    "inversion_p2": ("additive", "inversion", 2, 4, {"kind": "eq-char", "p": 2, "K": 3}),
    "inversion_p3": ("additive", "inversion", 27, 4, {"kind": "p-adic", "p": 3, "K": 3}),
    "direct_product": ("multiplicative", "trivial", 16, 7, {"kind": "p-adic", "p": 2, "K": 4}),
}
COSETS = ("1", "s")


def _c2(t, r):
    return "1" if t == r else "s"


def ext_word_map(letters, cosets, ext):
    """Target coset and word-map polynomial with argument i in coset cosets[i],
    folding (t, l)(r, m) = (t r, F(C_r(l), m)) as atlas.coset_word_series does."""
    law, action, q, D, _ = EXTENSIONS[ext]
    k = len(cosets)
    if law == "additive":
        F = lambda a, b: p_add(a, b)
        I = lambda i: {unit(k, i): -1}
        C = (lambda r, a: p_scale(a, -1) if r == "s" else a) if action == "inversion" else (lambda r, a: a)
    else:
        F = lambda a, b: p_add(a, b, p_mul(a, b, D))
        I = lambda i: geometric_inverse(k, i, D)
        C = lambda r, a: a
    acc, cur = {}, "1"
    for gen, sign in letters:
        r = cosets[gen - 1]            # C2: every coset is its own inverse
        u = {unit(k, gen - 1): 1} if sign > 0 else C(r, I(gen - 1))
        acc = p_mod(F(C(r, acc), u), q)
        cur = _c2(cur, r)
    return cur, acc


def marginality(letters, k, ext):
    rows = []
    for cosets in itertools.product(COSETS, repeat=k):
        target, W = ext_word_map(letters, cosets, ext)
        moving = [alpha for alpha in W if sum(alpha)]
        if moving:
            alpha = min(moving, key=grlex_key)
            return {"all_constant": False, "witness_cosets": list(cosets),
                    "witness": f"component 1: {monomial_name(alpha)}"}
        if W:
            raise AssertionError("reference model: nonzero constant word map")
        rows.append({"cosets": list(cosets), "target": target, "constants": ["0"]})
    return {"all_constant": True, "image_bound": 2**k, "rows": rows}


def grid_points(ext, depth):
    """ideal_grid(spec, depth) for m = 1: representatives of m_P mod m_P^depth."""
    base = EXTENSIONS[ext][4]
    p, width = base["p"], depth - 1
    out = []
    for j in range(p**width):
        if base["kind"] == "p-adic":
            out.append([str(p * j)])
            continue
        parts, x = [], j
        for i in range(width):
            digit, x = x % p, x // p
            e = i + 1
            if digit:
                parts.append(f"{digit}*t" if e == 1 else f"{digit}*t^{e}")
        out.append(["+".join(parts) if parts else "0"])
    return out


def probe(letters, ext, lmax, depth):
    grid = grid_points(ext, depth)
    levels, m_l, min_l = [], {}, None
    for l in range(1, lmax + 1):
        rep = marginality(reduce_letters(letters * l), word_k(letters), ext)
        if not rep["all_constant"]:
            levels.append({"l": l, "status": "witness", "cosets": rep["witness_cosets"],
                           "witness": rep["witness"]})
            continue
        trivial = all(r["target"] == "1" for r in rep["rows"])
        levels.append({"l": l, "status": "constant", "trivial": trivial, "rows": rep["rows"]})
        m_l[str(l)] = list(range(len(grid)))       # zero constants vanish everywhere
        if trivial and min_l is None:
            min_l = l
    return {"word": prostd_text(letters), "lmax": lmax, "levels": levels, "grid": grid,
            "m_l": m_l, "min_l": min_l}


# -- per-query answers -----------------------------------------------------------


def expected(workload: str, query: dict):
    op = query["op"]
    letters = parse_letters(query["word"]) if "word" in query else None
    if workload == "quotient-dense":
        M = DENSE_M
        if op == "image":
            return sorted_elements(heis_image(letters, M))
        if op == "verbal":
            return sorted_elements(heis_verbal(letters, M))
        if op == "marginal":
            return sorted_elements(heis_marginal(letters, M))
        if op == "evaluate":
            return list(heis_word(letters, [tuple(a) for a in query["args"]], 2**M))
        if op == "validate":
            # the inversion extension of the additive law over Z/2^4 is a group;
            # level 4 has 2 * 8 elements, so 16^3 triples are checked
            return {"ok": True, "mode": f"exhaustive level {query['level']}",
                    "checked": (2 * 2 ** (query["level"] - 1)) ** 3, "failures": []}
    if workload == "quotient-sparse":
        q = HEIS_P**HEIS_K
        if op == "image":
            return sorted_elements(heis_image(letters, SPARSE_M))
        if op == "group_mul":
            return list(heis_mul(tuple(query["x"]), tuple(query["y"]), q))
        if op == "group_inv":
            return list(heis_inv(tuple(query["x"]), q))
        if op == "group_power":
            return list(heis_power(tuple(query["x"]), query["n"], q))
        if op == "group_evaluate":
            return list(heis_word(letters, [tuple(a) for a in query["args"]], q))
    if workload == "symbolic":
        if op == "word_series_heis":
            ring = {"kind": "p-adic", "p": HEIS_P, "K": HEIS_K}
            return series_json(heis_word_series(letters, query["D"]), 3 * word_k(letters),
                               query["D"], ring)
        if op == "word_series_mult":
            return series_json(mult_word_series(letters, query["D"]), word_k(letters),
                               query["D"], MULT_RING)
        if op == "verify":
            return VERIFY_OK
        if op == "formal_inverse":
            d = 3 if query["law"] == "heisenberg" else query["dim"]
            return series_json(law_inverse(query["law"], d, query["D"]), d, query["D"],
                               transported_ring(query))
        if op == "marginality":
            return marginality(letters, word_k(letters), query["ext"])
        if op == "probe":
            return probe(letters, query["ext"], query["lmax"], query["depth"])
        if op == "coherence":
            n = len(grid_points(query["ext"], query["depth"]))
            return [{"index": i, "ok": True, "detail": None} for i in range(n)]
    raise ValueError(f"no reference answer for {workload} op {op!r}")

