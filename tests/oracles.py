"""Independent oracles for the test suite.

Everything here is recomputed from first principles with plain integers:
exact dict polynomials, honest 3x3 matrix products, and a mod-p^M integer
model of the upper unitriangular group.  Nothing but the last section
uses the package, so agreement between these and the library is meaningful
evidence; that section keeps the former coefficient parsers, which build
the package's Coefficient values, as the reference of a differential test.
"""

import itertools
import re

from prostd.rings import Coefficient

# -- exact integer polynomials: dict[(e1,..,em)] -> int ----------------------


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for alpha, c in b.items():
        v = out.get(alpha, 0) + c
        if v:
            out[alpha] = v
        else:
            out.pop(alpha, None)
    return out


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for alpha, c in a.items():
        for beta, e in b.items():
            gamma = tuple(x + y for x, y in zip(alpha, beta))
            v = out.get(gamma, 0) + c * e
            if v:
                out[gamma] = v
            else:
                out.pop(gamma, None)
    return out


def poly_eval(a: dict, point) -> int:
    acc = 0
    for alpha, c in a.items():
        term = c
        for q, e in zip(point, alpha):
            term *= q**e
        acc += term
    return acc


def poly_truncate(a: dict, D: int) -> dict:
    return {alpha: c for alpha, c in a.items() if sum(alpha) < D}


def geometric_inverse(D: int) -> dict:
    """y with x + y + x*y = 0, solved by iterating y = -x - x*y; the fixed
    point below degree D is reached after D rounds."""
    x = {(1,): -1}
    y: dict = {}
    for _ in range(D):
        y = poly_truncate(poly_add(x, poly_mul(x, y)), D)
    return y


# -- honest 3x3 matrix arithmetic mod q ---------------------------------------


def mat_mul(A, B, q):
    return tuple(
        tuple(sum(A[i][k] * B[k][j] for k in range(3)) % q for j in range(3))
        for i in range(3))


def heis_mat(a, b, c, q):
    return ((1, a % q, c % q), (0, 1, b % q), (0, 0, 1))


def heis_coords(A):
    return (A[0][1], A[1][2], A[0][2])


def heis_inv_mat(A, q):
    # (I + N)^-1 = I - N + N^2 for strictly upper triangular N
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    N = tuple(tuple((A[i][j] - ident[i][j]) % q for j in range(3)) for i in range(3))
    N2 = mat_mul(N, N, q)
    return tuple(
        tuple((ident[i][j] - N[i][j] + N2[i][j]) % q for j in range(3))
        for i in range(3))


# -- integer model of the Heisenberg standard group quotient ------------------


class HeisQuotient:
    """Triples (a, b, c) of multiples of p^N mod p^M under matrix product."""

    def __init__(self, p: int, N: int, M: int):
        self.q = p**M
        vals = range(0, p**M, p**N)
        self.elements = [(a, b, c) for a in vals for b in vals for c in vals]
        self.identity = (0, 0, 0)
        self._images: dict = {}

    def mul(self, x, y):
        A = mat_mul(heis_mat(*x, self.q), heis_mat(*y, self.q), self.q)
        return heis_coords(A)

    def inv(self, x):
        return heis_coords(heis_inv_mat(heis_mat(*x, self.q), self.q))

    def word_value(self, letters, args):
        acc = self.identity
        for gen, sign in letters:
            g = args[gen - 1]
            acc = self.mul(acc, g if sign > 0 else self.inv(g))
        return acc

    def image(self, letters, k):
        # memoised per word, so verbal() after image() enumerates only once
        key = (tuple(letters), k)
        if key not in self._images:
            self._images[key] = frozenset(
                self.word_value(letters, combo)
                for combo in itertools.product(self.elements, repeat=k))
        return set(self._images[key])

    def verbal(self, letters, k):
        image = self.image(letters, k)
        gens = image | {self.inv(g) for g in image}
        seen = {self.identity}
        frontier = [self.identity]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                nxt = self.mul(cur, g)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen


# -- the former coefficient parsers -----------------------------------------
#
# The token-loop-and-regex eq-char parser and the split-and-recurse nested
# parser that the one coefficient grammar replaced, kept as they were.

_EQ_TERM = re.compile(r"^(\d+)?(?:\*?t(?:\^(\d+))?)?$")


def _parse_eqchar(spec, text: str):
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty coefficient string")
    digits = [0] * spec.K
    sign = 1
    token = ""

    def flush(token, sign):
        m = _EQ_TERM.match(token)
        if not m or not token:
            raise ValueError(f"bad eq-char term {token!r}")
        coeff = int(m.group(1)) if m.group(1) is not None else 1
        if "t" in token:
            e = int(m.group(2)) if m.group(2) is not None else 1
        else:
            e = 0
        if e >= spec.K:
            raise ValueError(f"term degree {e} outside precision K={spec.K}")
        digits[e] = (digits[e] + sign * coeff) % spec.p

    i = 0
    if s[0] in "+-":
        sign = -1 if s[0] == "-" else 1
        i = 1
    while i < len(s):
        ch = s[i]
        if ch in "+-":
            flush(token, sign)
            token = ""
            sign = -1 if ch == "-" else 1
        else:
            token += ch
        i += 1
    flush(token, sign)
    return Coefficient(spec, tuple(digits))


def _split_top(s: str, seps: str) -> list[str]:
    """Split on separators at paren depth 0, keeping separators as items."""
    out, depth, cur = [], 0, ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        if depth == 0 and ch in seps:
            out.append(cur)
            out.append(ch)
            cur = ""
        else:
            cur += ch
    if depth:
        raise ValueError("unbalanced parentheses")
    out.append(cur)
    return out


_NESTED_VAR = re.compile(r"^t(\d+)(?:\^(\d+))?$")


def _parse_nested_term(spec, term: str, sign: int):
    pieces = [q for q in _split_top(term, "*") if q not in ("*",)]
    pieces = [q.strip() for q in pieces if q.strip()]
    if not pieces:
        raise ValueError("empty nested term")
    alpha = [0] * spec.m
    coeff = None
    for q in pieces:
        mvar = _NESTED_VAR.match(q)
        if mvar:
            idx = int(mvar.group(1))
            if not 1 <= idx <= spec.m:
                raise ValueError(f"variable t{idx} outside 1..{spec.m}")
            alpha[idx - 1] += int(mvar.group(2)) if mvar.group(2) else 1
            continue
        if q.startswith("(") and q.endswith(")"):
            inner = q[1:-1]
        else:
            inner = q
        part = reference_parse_coefficient(spec.base, inner)
        coeff = part if coeff is None else coeff * part
    if coeff is None:
        coeff = Coefficient.one(spec.base)
    if sign < 0:
        coeff = -coeff
    if sum(alpha) >= spec.Dt:
        raise ValueError(f"term t-degree {sum(alpha)} outside truncation Dt={spec.Dt}")
    return Coefficient.make(spec, {tuple(alpha): coeff})


def reference_parse_coefficient(spec, text: str):
    """The former ``parse_coefficient``."""
    s = text.strip()
    if not s:
        raise ValueError("empty coefficient string")
    if spec.kind == "p-adic":
        try:
            return Coefficient.from_int(spec, int(s))
        except ValueError:
            raise ValueError(f"bad p-adic integer {text!r}") from None
    if spec.kind == "eq-char":
        return _parse_eqchar(spec, s)
    chunks = _split_top(s, "+-")
    acc = Coefficient.zero(spec)
    carry = 1
    first = chunks[0].strip()
    if first:
        acc = acc + _parse_nested_term(spec, first, 1)
    for sep, text in zip(chunks[1::2], chunks[2::2]):
        carry *= -1 if sep == "-" else 1
        text = text.strip()
        if not text:
            continue
        acc = acc + _parse_nested_term(spec, text, carry)
        carry = 1
    if carry != 1 or (len(chunks) > 1 and not chunks[-1].strip()):
        raise ValueError(f"dangling sign in {s!r}")
    return acc
