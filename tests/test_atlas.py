import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import pytest

import prostd
from prostd import atlas
from prostd.cli import _sample_objects
from prostd.atlas import (
    CosetTable,
    HElement,
    HQuotient,
    TransversalData,
    check_marginality,
    coset_table,
    coset_word_series,
    cyclic_table,
    direct_product,
    extension_from_json,
    extension_to_json,
    inversion_extension,
    split_extension,
    validate_transversal,
)
from prostd.errors import EnumerationBoundError, ExtensionDataError, MaximalIdealError, ShapeError
from prostd.fgl import builtin
from prostd.rings import Coefficient, eqchar, padic, random_ideal_element
from prostd.series import Series, SeriesTuple, compose
from prostd.specialise import Specialisation, ideal_grid
from prostd.rings import PrecisionReduction, nested
from prostd.stdgrp import StandardGroup
from prostd.words import _Enumeration, parse_word, word_series
from test_kernel import corrected_extensions


def additive_group(p=2, K=4, D=4, N=1):
    return StandardGroup(builtin("additive", padic(p, K), D), N)


def identity_series(spec, d, D):
    return SeriesTuple.block(spec, d, D, 0, d)


# -- coset tables ----------------------------------------------------------------------


def test_cyclic_table():
    T = cyclic_table(3)
    assert T.elements == ("1", "s", "s2")
    assert T.mul[("s", "s2")] == "1" and T.inv["s"] == "s2"


def test_coset_table_check():
    T = cyclic_table(2)
    bad = dict(T.mul)
    bad[("s", "s")] = "s"
    with pytest.raises(ExtensionDataError, match="identity fails|inverse fails"):
        coset_table(T.elements, "1", bad, T.inv)
    with pytest.raises(ExtensionDataError):
        CosetTable(T.elements, "1", bad, T.inv).check()
    # identity and inverses hold, but (a a) a = 1 while a (a a) = b
    els = ("1", "a", "b")
    mul = {("1", t): t for t in els} | {(t, "1"): t for t in els}
    mul |= {("a", "a"): "b", ("a", "b"): "b", ("b", "a"): "1", ("b", "b"): "a"}
    with pytest.raises(ExtensionDataError, match=r"^associativity fails at \(a, a, a\)$"):
        coset_table(els, "1", mul, {"1": "1", "a": "b", "b": "a"})


# -- construction guards -----------------------------------------------------------------


def test_transversal_structure_guards():
    L = additive_group()
    T = cyclic_table(2)
    ident = identity_series(L.law.spec, 1, 4)
    with pytest.raises(ExtensionDataError, match="cover exactly T"):
        TransversalData(L=L, T=T, C={"1": ident})
    with pytest.raises(ExtensionDataError, match="bad correction key"):
        TransversalData(L=L, T=T, C={"1": ident, "s": ident},
                        A={("mul", "s"): ident})
    shifted = SeriesTuple.of(ident[0] + Series.constant(L.law.spec, 1, 4, 1))
    with pytest.raises(ExtensionDataError, match="constant"):
        TransversalData(L=L, T=T, C={"1": ident, "s": shifted})


def test_split_extension_rejections():
    L = additive_group()
    T = cyclic_table(2)
    spec, D = L.law.spec, L.law.D
    ident = identity_series(spec, 1, D)
    with pytest.raises(ExtensionDataError, match="cover exactly T"):
        split_extension(L, T, {"1": ident})
    with pytest.raises(ExtensionDataError, match="identity coset"):
        split_extension(L, T, {"1": L.law.I, "s": L.law.I})
    # x -> 2x respects the additive law but squares to 4x, not the identity
    two = Coefficient.make(spec, 2)
    doubling = SeriesTuple.of(ident[0].scale(two))
    with pytest.raises(ExtensionDataError, match=r"associativity fails at \(1, s, s\)"):
        split_extension(L, T, {"1": ident, "s": doubling})
    # the formal inverse of a nonabelian law is not a law automorphism
    H = StandardGroup(builtin("heisenberg", padic(2, 4), 4), 1)
    with pytest.raises(ExtensionDataError, match=r"associativity fails at \(1, 1, s\)"):
        split_extension(H, T, {"1": identity_series(H.law.spec, 3, 4), "s": H.law.I})


def split_oracle(L, T, action) -> bool:
    """The former split proof: C_1 is the identity, each C_t is a law
    automorphism, and C_t(C_r(X)) = C_{rt}(X)."""
    law, d, D = L.law, L.d, L.law.D
    X = SeriesTuple.block(law.spec, 2 * d, D, 0, d)
    Y = SeriesTuple.block(law.spec, 2 * d, D, d, d)
    automorphisms = all(
        compose(S, law.F) == compose(law.F, compose(S, X).concat(compose(S, Y)))
        for S in action.values())
    compatible = all(compose(action[t], action[r]) == action[T.mul[(r, t)]]
                     for t, r in itertools.product(T.elements, repeat=2))
    identity = action[T.identity] == identity_series(law.spec, d, D)
    return identity and automorphisms and compatible


def split_actions():
    """(L, T, action, accepted by the former proof), named."""
    rings = {"p-adic": padic(3, 3), "eq-char": eqchar(2, 3), "nested": nested(padic(2, 3), 1, 2)}
    C2, C3, C4 = cyclic_table(2), cyclic_table(3), cyclic_table(4)
    for kind, spec in rings.items():
        L = StandardGroup(builtin("multiplicative", spec, 4), 1)
        ident = identity_series(spec, 1, 4)
        yield pytest.param(L, C2, dict.fromkeys(C2.elements, ident), True, id=f"identity-{kind}")
        for name in ("additive", "multiplicative"):
            L = StandardGroup(builtin(name, spec, 4), 1)
            yield pytest.param(L, C2, {"1": ident, "s": L.law.I}, True,
                               id=f"inverse-{name}-{kind}")
    L = additive_group(p=3, K=3, D=3)
    ident, inverse = identity_series(L.law.spec, 1, 3), L.law.I
    yield pytest.param(L, C3, dict.fromkeys(C3.elements, ident), True, id="identity-C3")
    yield pytest.param(L, C3, {"1": ident, "s": inverse, "s2": inverse}, False, id="inverse-C3")
    yield pytest.param(L, C4, {"1": ident, "s": inverse, "s2": ident, "s3": inverse}, True,
                       id="inverse-through-C2-C4")
    L = additive_group()
    ident = identity_series(L.law.spec, 1, L.law.D)
    doubling = SeriesTuple.of(ident[0].scale(Coefficient.make(L.law.spec, 2)))
    yield pytest.param(L, C2, {"1": ident, "s": doubling}, False, id="doubling")
    H = StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1)
    ident = identity_series(H.law.spec, 3, 5)
    for g, ok in (((16, 0, 0), True), ((2, 4, 8), False)):
        yield pytest.param(H, C2, {"1": ident, "s": H.conj_series(H.element(g))}, ok,
                           id=f"conj-{g}")
    yield pytest.param(H, C2, {"1": ident, "s": H.law.I}, False, id="inverse-heisenberg")


@pytest.mark.parametrize("L,T,action,accepted", list(split_actions()))
def test_split_extension_matches_the_former_split_proof(L, T, action, accepted):
    # one associativity proof accepts exactly the actions that the automorphism
    # and compatibility identities accept
    assert split_oracle(L, T, action) is accepted
    if accepted:
        data = split_extension(L, T, action)
        assert data.split and data.C == action
    else:
        with pytest.raises(ExtensionDataError, match="fails at"):
            split_extension(L, T, action)


def test_check_accepts_non_split_and_sample_data():
    data = inversion_extension(StandardGroup(builtin("multiplicative", padic(3, 3), 4), 1))
    ident = data.C["1"]
    noisy = TransversalData(L=data.L, T=data.T, C=dict(data.C),
                            A={("mul", "s", "s"): ident, ("inv", "s"): ident})
    assert not noisy.split and noisy.check() is noisy
    for obj in _sample_objects().values():
        if "C" in obj:
            extension_from_json(obj).check()


def test_check_proves_inverses():
    # an inverse correction enters no product, so only the inverse check on
    # the (t, X) block can refuse it
    data = inversion_extension(StandardGroup(builtin("multiplicative", padic(3, 3), 4), 1))
    wrong = TransversalData(L=data.L, T=data.T, C=dict(data.C), A={("inv", "s"): data.C["s"]})
    with pytest.raises(ExtensionDataError, match=r"^inverse fails at s$"):
        wrong.check()


@pytest.mark.parametrize("data", list(corrected_extensions()),
                         ids=lambda d: d.L.law.spec.kind)
def test_check_refuses_the_corrected_fixtures(data):
    # the corrections of the kernel fixtures do not make a group; exhaustive
    # validation and the symbolic proof both say so
    report = validate_transversal(data)
    assert report.mode.startswith("exhaustive") and not report.ok
    with pytest.raises(ExtensionDataError, match="fails at"):
        data.check()


# -- group operations against an integer oracle ---------------------------------------------


def test_inversion_extension_matches_unit_group_model():
    # C2 acting on 1 + 3Z/27 by unit inversion, computed on plain integers
    q = 27
    L = StandardGroup(builtin("multiplicative", padic(3, 3), 6), 1)
    data = inversion_extension(L)
    hq = HQuotient(data, 3)
    assert len(hq) == 18

    def to_model(x):
        return (x[0], (1 + int(x[1][0])) % q)

    def model_mul(a, b):
        u = pow(a[1], -1, q) if b[0] == "s" else a[1]
        return (hq.data.T.mul[(a[0], b[0])], u * b[1] % q)

    def model_inv(a):
        u = pow(a[1], -1, q)
        return (hq.data.T.inv[a[0]], u if a[0] == "s" else pow(u, 1, q))

    for x in hq.elements:
        got = to_model(hq.inv(x))
        # inv lands in coset inv(t); conjugate the payload accordingly
        expect = (hq.data.T.inv[x[0]], None)
        assert got[0] == expect[0]
        # two-sided check instead of re-deriving the payload formula
        assert hq.mul(x, hq.inv(x)) == hq.identity
        assert hq.mul(hq.inv(x), x) == hq.identity
        for y in hq.elements:
            assert to_model(hq.mul(x, y)) == model_mul(to_model(x), to_model(y))


def test_validate_exhaustive_inversion_additive():
    data = inversion_extension(additive_group(p=2, K=4))
    report = validate_transversal(data, level=3)
    assert report.ok and report.mode == "exhaustive level 3"
    assert report.checked == 8**3
    auto = validate_transversal(data)
    assert auto.ok and auto.mode == "exhaustive level 3"


def test_validate_sampled_mode():
    L = StandardGroup(builtin("heisenberg", padic(2, 5), 5), 1)
    data = direct_product(L, cyclic_table(2))
    report = validate_transversal(data, samples=40, seed=2)
    assert report.ok and report.mode == "sampled 40" and report.checked == 40
    auto = validate_transversal(data)
    assert auto.ok and auto.mode == "sampled 1000"
    for samples in (0, -5):
        with pytest.raises(ValueError, match="at least 1 sample"):
            validate_transversal(data, samples=samples)


def _skew():
    # x + x^2 is a homomorphism mod m^3 (the cross term 2xy has valuation 3)
    # but not mod m^4, so the level-4 sweep must flag it
    L = additive_group()
    x = identity_series(L.law.spec, 1, 4)[0]
    return TransversalData(L=L, T=cyclic_table(2),
                           C={"1": SeriesTuple.of(x), "s": SeriesTuple.of(x + x * x)})


def test_validate_flags_corrupt_data():
    L = additive_group()
    T = cyclic_table(2)
    good = direct_product(L, T)
    bad_mul = dict(T.mul)
    bad_mul[("s", "s")] = "s"
    broken_T = CosetTable(T.elements, "1", bad_mul, T.inv)
    broken = TransversalData(L=L, T=broken_T, C=dict(good.C))
    report = validate_transversal(broken)
    assert not report.ok and report.failures[0].startswith("coset table:")

    report = validate_transversal(_skew(), level=4)
    assert not report.ok and report.checked == 16**3
    assert report.failures == (
        "associativity fails at ((1; 2), (1; 2), (s; 0))",
        "associativity fails at ((1; 2), (1; 2), (s; 2))",
        "associativity fails at ((1; 2), (1; 2), (s; 4))",
    )


SAMPLED_SKEW = """
from prostd.atlas import TransversalData, cyclic_table, validate_transversal
from prostd.fgl import builtin
from prostd.rings import padic
from prostd.series import SeriesTuple
from prostd.stdgrp import StandardGroup

L = StandardGroup(builtin("additive", padic(2, 4), 4), 1)
x = SeriesTuple.block(L.law.spec, 1, 4, 0, 1)[0]
data = TransversalData(L=L, T=cyclic_table(2),
                       C={"1": SeriesTuple.of(x), "s": SeriesTuple.of(x)},
                       A={("inv", "s"): SeriesTuple.of(x + x * x)})
print(validate_transversal(data, samples=30, seed=0).failures)
"""


def test_validate_sampled_failures_ignore_hash_seed():
    # the ("inv", s) correction x + x^2 breaks inverses; the report must list
    # them in the same order whatever the interpreter's string hashing
    env = dict(os.environ)
    package_root = str(pathlib.Path(prostd.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    outputs = set()
    for hash_seed in ("1", "4"):
        env["PYTHONHASHSEED"] = hash_seed
        proc = subprocess.run([sys.executable, "-c", SAMPLED_SKEW], env=env,
                              capture_output=True, text=True, check=True)
        outputs.add(proc.stdout)
    assert len(outputs) == 1 and "inverse fails" in outputs.pop()


def test_pointwise_failures_stop_at_limit():
    # both unit checks of an element may fail before the limit is checked
    failures = atlas._pointwise_failures([(0, 0, 0), (2, 2, 2)], lambda a, b: (a + b) % 3,
                                         lambda a: -a % 3, 1, str, limit=3)
    assert failures == ["identity fails at 0", "inverse fails at 0", "identity fails at 2"]
    # through the public API: the third failure is an identity failure
    data = list(corrected_extensions())[1]
    report = validate_transversal(data, samples=5, seed=0)
    assert report.failures == ("identity fails at (s; 1*t)", "inverse fails at (s; 1*t)",
                               "identity fails at (s; 2*t+1*t^2)")


# -- Light's associativity test against the full scan ----------------------------------


def _broken_inverse():
    L = additive_group()
    x = identity_series(L.law.spec, 1, 4)[0]
    return TransversalData(L=L, T=cyclic_table(2),
                           C={"1": SeriesTuple.of(x), "s": SeriesTuple.of(x)},
                           A={("inv", "s"): SeriesTuple.of(x + x * x)})


def extension_fixtures():
    """(name, data, exhaustive levels): the extensions of these tests, of the
    kernel tests and of the sample data, with skew and broken ones."""
    mult = StandardGroup(builtin("multiplicative", padic(3, 3), 6), 1)
    heis = StandardGroup(builtin("heisenberg", padic(2, 4), 4), 1)
    yield "inversion-additive", inversion_extension(additive_group()), (2, 3, 4)
    yield "inversion-multiplicative", inversion_extension(mult), (2, 3)
    yield "inversion-eqchar", inversion_extension(
        StandardGroup(builtin("additive", eqchar(2, 3), 4), 1)), (2, 3)
    yield "direct-heisenberg", direct_product(heis, cyclic_table(3)), (2,)
    yield "skew", _skew(), (3, 4)
    yield "broken-inverse", _broken_inverse(), (3, 4)
    for i, data in enumerate(corrected_extensions()):
        yield f"corrected-{i}", data, (2, 3)
    for name in ("inversion_p2.json", "inversion_p3.json", "dirprod.json"):
        yield name, extension_from_json(_sample_objects()[name]), (2,)


def _associates(table, n) -> bool:
    return all(table[table[x * n + y] * n + z] == table[x * n + table[y * n + z]]
               for x in range(n) for y in range(n) for z in range(n))


def _full_scan_report(monkeypatch, data, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(_Enumeration, "associative", lambda self: False)
        return validate_transversal(data, **kwargs)


def _sampled_reference(data, samples, seed):
    """The sampled check through TransversalData.mul and inv on HElements."""
    rng = random.Random(seed)
    spec, d = data.L.law.spec, data.L.d
    triples = [tuple(HElement(rng.choice(data.T.elements),
                              tuple(random_ideal_element(spec, data.L.N, rng) for _ in range(d)))
                     for _ in range(3))
               for _ in range(samples)]
    return tuple(atlas._pointwise_failures(triples, data.mul, data.inv, data.identity, str))


@pytest.mark.parametrize("data, levels", [pytest.param(data, levels, id=name)
                                          for name, data, levels in extension_fixtures()])
def test_light_test_matches_full_scan_on_fixtures(monkeypatch, data, levels):
    for level in levels:
        table = _Enumeration(HQuotient(data, level)).tabulate()
        n = len(table.elements)
        reached, gens = table.closure(table.elements)
        assert table.associative() == (_associates(table.table, n) and len(reached) == n)
        assert len(gens) <= math.log2(n) or not table.associative()
        assert validate_transversal(data, level=level) == \
            _full_scan_report(monkeypatch, data, level=level)
    assert validate_transversal(data) == _full_scan_report(monkeypatch, data)
    for seed in (0, 3):
        report = validate_transversal(data, samples=12, seed=seed)
        assert report.failures == _sampled_reference(data, 12, seed)


def _corrupting(monkeypatch, edits):
    """Overwrite table entries (flat index, value) right after tabulation."""
    tabulate = _Enumeration.tabulate

    def corrupted(self):
        tabulate(self)
        for i, v in edits:
            self.table[i] = v
        return self

    monkeypatch.setattr(_Enumeration, "tabulate", corrupted)


def test_light_test_matches_full_scan_on_corrupted_tables(monkeypatch):
    # one or two entries of the level-4 inversion table (n = 16) overwritten
    data = inversion_extension(additive_group())
    clean = _Enumeration(HQuotient(data, 4)).tabulate()
    n = len(clean.elements)
    rng = random.Random(12)
    verdicts = []
    for _ in range(200):
        edits = [(rng.randrange(n * n), rng.randrange(n)) for _ in range(rng.choice((1, 2)))]
        table = _Enumeration(HQuotient(data, 4)).tabulate()
        for i, v in edits:
            table.table[i] = v
        reached, _ = table.closure(table.elements)
        verdict = table.associative()
        assert verdict == (_associates(table.table, n) and len(reached) == n)
        verdicts.append(verdict)
        with monkeypatch.context() as m:
            _corrupting(m, edits)
            fast = validate_transversal(data, level=4)
            assert fast == _full_scan_report(m, data, level=4)
    # most draws break associativity; the rest overwrite an entry with itself
    assert 0 < verdicts.count(True) < 20


class _Magma:
    """A finite handle on a given product table, for tables no extension makes."""

    def __init__(self, n, identity, product):
        self.elements, self.identity = list(range(n)), identity
        self.mul, self.inv = product, lambda a: a


def _extended_z15(y_squared):
    """Z/15 and a sixteenth element y that acts as the identity on Z/15
    from both sides, with y*y given."""
    y = 15

    def product(a, b):
        if a == b == y:
            return y_squared
        if a == y or b == y:
            return a + b - y
        return (a + b) % 15

    return y, product


def _bad_middles(product, n):
    return {m for x, m, z in itertools.product(range(n), repeat=3)
            if product(product(x, m), z) != product(x, product(m, z))}


def test_light_test_falls_back_when_the_closure_falls_short():
    # y*y = 0 is associative, but no right product from 0 reaches y
    y, product = _extended_z15(0)
    table = _Enumeration(_Magma(16, 0, product)).tabulate()
    reached, gens = table.closure(table.elements)
    assert y not in reached and len(reached) == 15 and gens == [1, y]
    assert _associates(table.table, 16) and not table.associative()
    # y*y = 1: the only bad middle is y, which nothing reaches
    y, product = _extended_z15(1)
    table = _Enumeration(_Magma(16, 0, product)).tabulate()
    assert _bad_middles(product, 16) == {y} and not table.associative()


def test_light_test_checks_the_identity_as_a_middle():
    # the same table with y as the handle's identity: the closure reaches
    # every element with kept generators 0 and 1, and the only bad middle is
    # y, outside them; the identity's own checks must find it
    y, product = _extended_z15(1)
    table = _Enumeration(_Magma(16, y, product)).tabulate()
    reached, gens = table.closure(table.elements)
    assert len(reached) == 16 and gens == [0, 1]
    assert _bad_middles(product, 16) == {y} and not table.associative()


def _counting(monkeypatch, owner, name):
    calls = []
    method = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return method(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_exhaustive_validation_route(monkeypatch):
    # criterion 07's extension: the n^2 table is every product made, and the
    # n^3 scan never runs; on skew the checks fail and the scan names triples
    data = inversion_extension(additive_group())
    products = _counting(monkeypatch, HQuotient, "mul")
    calls = _counting(monkeypatch, atlas, "_pointwise_failures")
    # the scan of the indexed table, not the coset table's own check
    scans = lambda: [args for args in calls if isinstance(args[3], int)]
    report = validate_transversal(data, level=4)
    assert report.ok and report.checked == 16**3
    assert len(products) == 16**2 and scans() == []
    products.clear()
    report = validate_transversal(_skew(), level=4)
    assert not report.ok and len(products) == 16**2 and len(scans()) == 1


def test_quotient_bound():
    data = inversion_extension(additive_group())
    with pytest.raises(EnumerationBoundError):
        HQuotient(data, 4, bound=10)


def test_quotient_checks_closure():
    # coordinates reduce through the L-quotient, which checks membership
    hq = HQuotient(inversion_extension(additive_group()), 3)
    x = hq.elements[1]
    del hq._lq._by_payload[tuple(c.payload for c in hq.mul(x, x)[1])]
    with pytest.raises(MaximalIdealError, match="not closed under mul and inv"):
        hq.mul(x, x)


def test_products_stay_at_level_n():
    # as StandardGroup.mul and inv: a result below L's level N is refused
    data = inversion_extension(additive_group(N=2))
    spec = data.L.law.spec
    below = HElement("s", (Coefficient.make(spec, 2),))
    with pytest.raises(MaximalIdealError, match="left level N=2"):
        data.inv(below)
    with pytest.raises(MaximalIdealError, match="left level N=2"):
        data.mul(data.identity, below)
    x, y = data.element("s", [4]), data.element("1", [4])
    # C_s is the formal inverse: (s, l)^-1 = (s, l) and (1, m)·(s, l) = (s, l - m)
    assert data.inv(x) == x and data.mul(x, x) == data.identity
    assert data.mul(y, x) == data.element("s", [0])


def test_mul_checks_coordinate_counts():
    # the identity chart of coset 1 is skipped, so x's count is checked apart
    L = StandardGroup(builtin("heisenberg", padic(2, 4), 4), 1)
    data = direct_product(L, cyclic_table(2))
    two = Coefficient.make(L.law.spec, 2)
    with pytest.raises(ShapeError, match="expected 3 arguments, got 2"):
        data.mul(HElement("1", (two,) * 2), HElement("1", (two,) * 4))


# -- coset word series -------------------------------------------------------------------


def test_coset_word_series_guards():
    data = inversion_extension(additive_group())
    w = parse_word("[x1, x2]")
    with pytest.raises(ShapeError, match="2 cosets"):
        coset_word_series(w, data, ("1",))
    with pytest.raises(ExtensionDataError, match="unknown coset"):
        coset_word_series(w, data, ("1", "t"))


def test_coset_word_series_pointwise():
    L = StandardGroup(builtin("multiplicative", padic(3, 3), 6), 1)
    split = inversion_extension(L)
    # the identity chart C[1], the inversion chart C[s] and the ("inv", s)
    # correction x + x^2 together (not a group, but both folds iterate the
    # same product formula)
    x = identity_series(L.law.spec, 1, 6)[0]
    corrected = TransversalData(L=L, T=split.T, C=dict(split.C),
                                A={("inv", "s"): SeriesTuple.of(x + x * x)})
    assert set(split.charts) == set(corrected.charts) == {"s"}
    rng = random.Random(23)
    spec = L.law.spec
    for data in (split, corrected):
        for text in ["x1^2", "[x1, x2]", "x1 x2^-1 x1"]:
            w = parse_word(text)
            for cosets in [("1",) * w.k, ("s",) * w.k, ("s", "1")[: w.k]]:
                cs = coset_word_series(w, data, cosets)
                for _ in range(6):
                    args = [HElement(t, (random_ideal_element(spec, 1, rng),))
                            for t in cosets]
                    folded = w.evaluate(data, args)
                    assert folded.t == cs.target
                    flat = tuple(c for h in args for c in h.coords)
                    assert cs.W.evaluate(flat) == folded.coords


def test_coset_word_series_on_trivial_extension_is_word_series():
    for law, texts in [(builtin("heisenberg", padic(2, 4), 4), ["[x1, x2]", "x1^-2 x2 x1"]),
                       (builtin("multiplicative", padic(3, 3), 6),
                        ["x1^2", "x1 x2^-1 x3^-1 x1", "[x1, x2]^2"])]:
        trivial = direct_product(StandardGroup(law, 1), cyclic_table(1))
        for text in texts:
            w = parse_word(text)
            cs = coset_word_series(w, trivial, ("1",) * w.k)
            assert cs.target == "1" and cs.W == word_series(w, law).W


def _letter_fold(w, law, T, C, A, cosets):
    """The extension product written out on series and folded letter by
    letter, inverting afresh at every inverted letter: (t, l)·(r, m) =
    (t·r, A_mul[t,r](F(C_r(l), m))) and (t, l)^-1 = (t^-1, A_inv[t](C_{t^-1}(I(l))))
    with every chart applied, the identity ones included."""
    spec, d, D = law.spec, law.d, law.D
    nv = d * w.k
    run = lambda S, x: x if S is None else compose(S, x)
    cur, acc = T.identity, SeriesTuple.zeros(spec, d, nv, D)
    for gen, sign in w.letters:
        r = cosets[gen - 1]
        u = SeriesTuple.block(spec, nv, D, (gen - 1) * d, d)
        if sign < 0:
            t, r = r, T.inv[r]
            u = run(A.get(("inv", t)), run(C.get(r), compose(law.I, u)))
        acc = run(A.get(("mul", cur, r)), compose(law.F, run(C.get(r), acc).concat(u)))
        cur = T.mul[(cur, r)]
    return cur, acc


ORACLE_WORDS = ["x1^-3 x2^-2 [x1, x2]^2", "[x1, x2]", "x1^-1 x2 x1^-2", "x1^2 x2^-1"]


def test_word_series_match_the_letter_fold():
    trivial = cyclic_table(1)
    for law in (builtin("heisenberg", padic(2, 4), 4), builtin("multiplicative", padic(3, 3), 6)):
        for text in ORACLE_WORDS:
            w = parse_word(text)
            target, W = _letter_fold(w, law, trivial, {}, {}, ("1",) * w.k)
            assert target == "1" and word_series(w, law).W == W, text
    extensions = [extension_from_json(_sample_objects()[name])
                  for name in ("inversion_p2.json", "inversion_p3.json", "dirprod.json")]
    corrected = next(corrected_extensions())
    assert not corrected.split and corrected.charts
    for data in (*extensions, corrected):
        for text in ORACLE_WORDS:
            w = parse_word(text)
            for cosets in itertools.product(data.T.elements, repeat=w.k):
                cs = coset_word_series(w, data, cosets)
                assert (cs.target, cs.W) == _letter_fold(w, data.L.law, data.T, data.C, data.A,
                                                         cosets), (text, cosets)


def _count_compositions(monkeypatch):
    calls = []

    def counting(outer, inner):
        calls.append(None)
        return compose(outer, inner)

    for module in (prostd.words, prostd.atlas):
        monkeypatch.setattr(module, "compose", counting)
    return calls


def test_word_fold_skips_identity_charts(monkeypatch):
    # the extensions of the sample data: identity charts cost no composition
    inversion_p2 = inversion_extension(
        StandardGroup(builtin("additive", nested(eqchar(2, 3), 1, 3), 4), 1))
    inversion_p3 = inversion_extension(
        StandardGroup(builtin("additive", nested(padic(3, 3), 1, 3), 4), 1))
    dirprod = direct_product(
        StandardGroup(builtin("multiplicative", nested(padic(2, 4), 1, 4), 7), 1),
        cyclic_table(2))
    w = parse_word("[x1, x2]^3")
    calls = _count_compositions(monkeypatch)
    counts = []
    for data in (inversion_p2, dirprod, inversion_p3):
        calls.clear()
        check_marginality(w, data)
        counts.append(len(calls))
    # 12 letters and 2 inverted generators: 12 + 2 = 14 compositions per
    # coset tuple, so 4 * 14 = 56 without charts.  inversion_p3 stops at its
    # second tuple, (1, s): 14 at (1, 1), then at (1, s) 14 plus one for the
    # chart C_s in the one inverse of x2 (s^-1 = s) and one for each of the
    # 6 products with x2 or x2^-1, whose coset is s: 14 + 21 = 35
    assert counts == [56, 56, 35]
    # -x = x in characteristic 2, so both charts of inversion_p2 are the identity
    assert inversion_p2.charts == dirprod.charts == {} and set(inversion_p3.charts) == {"s"}


def test_word_series_composition_count(monkeypatch):
    law = builtin("heisenberg", padic(2, 4), 4)
    calls = _count_compositions(monkeypatch)
    # one composition of F per letter, one of I per inverted generator
    for text, n in [("x1^2", 2), ("x1 x2^-1 x1", 4), ("[x1, x2]", 6), ("[x1, x2]^3", 14),
                    ("x1^-3 x2", 5)]:
        calls.clear()
        w = parse_word(text)
        word_series(w, law)
        assert len(calls) == n == len(w.letters) + len({g for g, s in w.letters if s < 0})


# -- marginality --------------------------------------------------------------------------


def test_marginality_constant_direct_product():
    L = StandardGroup(builtin("multiplicative", padic(2, 4), 4), 1)
    data = direct_product(L, cyclic_table(2))
    report = check_marginality(parse_word("[x1, x2]"), data)
    assert report.all_constant and report.image_bound == 4
    assert len(report.rows) == 4
    assert all(r.target == "1" for r in report.rows)
    assert all(c.is_zero for r in report.rows for c in r.constants)
    js = report.to_json()
    assert js["all_constant"] and len(js["rows"]) == 4


def test_marginality_witness_inversion_odd_p():
    data = inversion_extension(StandardGroup(builtin("additive", padic(3, 3), 4), 1))
    report = check_marginality(parse_word("x1^2"), data)
    assert not report.all_constant
    assert report.witness_cosets == ("1",)
    assert report.witness == "component 1: X1"
    js = report.to_json()
    assert js == {"all_constant": False, "witness_cosets": ["1"],
                  "witness": "component 1: X1"}


def test_marginality_constant_inversion_even_p():
    data = inversion_extension(StandardGroup(builtin("additive", eqchar(2, 3), 4), 1))
    report = check_marginality(parse_word("x1^2"), data)
    assert report.all_constant
    assert [r.target for r in report.rows] == ["1", "1"]


def test_marginality_bound():
    data = inversion_extension(additive_group())
    with pytest.raises(EnumerationBoundError):
        check_marginality(parse_word("[x1, x2]"), data, bound=3)


# -- transport and json -------------------------------------------------------------------


def test_map_coefficients_transport():
    spec = nested(padic(2, 4), 1, 4)
    L = StandardGroup(builtin("multiplicative", spec, 4), 1)
    data = inversion_extension(L)
    at0 = data.map_coefficients(Specialisation(spec, ("0",)))
    base = inversion_extension(StandardGroup(builtin("multiplicative", padic(2, 4), 4), 1))
    assert at0.L.law.F == base.L.law.F
    assert at0.C == base.C
    low = data.map_coefficients(PrecisionReduction(spec, 2, 2))
    assert low.L.law.spec == nested(padic(2, 2), 1, 2)


def test_proven_transport_stays_a_group(monkeypatch):
    # transport along a homomorphism with D*N at least the target's zero
    # valuation keeps the proof: no sampled re-check, and check() agrees
    calls = _counting(monkeypatch, atlas, "validate_transversal")
    for name in ("inversion_p2.json", "inversion_p3.json", "dirprod.json"):
        data = extension_from_json(_sample_objects()[name])
        assert not data.proven and data.check().proven
        spec = data.L.law.spec
        maps = [Specialisation(spec, pt) for depth in (2, 3) for pt in ideal_grid(spec, depth)]
        maps.append(PrecisionReduction(spec, spec.K - 1, spec.Dt - 1))
        for phi in maps:
            out = data.map_coefficients(phi)
            assert out.proven and out.L.law.spec == phi.target
            assert out.check() is out
    assert calls == []


def test_transport_route(monkeypatch):
    # a map that is no homomorphism, a truncation visible at full precision
    # and unproven data each take the sampled re-check once per transport
    calls = _counting(monkeypatch, atlas, "validate_transversal")
    spec = nested(eqchar(2, 3), 1, 3)
    data = inversion_extension(StandardGroup(builtin("additive", spec, 4), 1))
    unproven = TransversalData(L=data.L, T=data.T, C=dict(data.C))
    assert not unproven.proven
    out = unproven.map_coefficients(Specialisation(spec, ("t",)))
    assert len(calls) == 1 and not out.proven

    spec = nested(padic(2, 6), 1, 4)
    data = inversion_extension(StandardGroup(builtin("additive", spec, 4), 1))
    for point, homomorphism in (("2", False), ("4", True)):  # Dt*v: 4 < 6 <= 8
        calls.clear()
        phi = Specialisation(spec, (point,))
        assert phi.homomorphism is homomorphism
        # D*N = 4 < 6, the zero valuation of Z/2^6
        assert not data.map_coefficients(phi).proven and len(calls) == 1


def test_visible_truncation_fails_transport():
    # proven at D = 4, but on level-1 points the terms cut at degree 4 have
    # valuation 4 and up, below the ring's zero valuation 7: the re-check
    # catches the cut inverse, so the proof must not be kept
    spec = nested(padic(2, 4), 1, 4)
    data = inversion_extension(StandardGroup(builtin("multiplicative", spec, 4), 1))
    assert data.proven
    with pytest.raises(ExtensionDataError, match="transported data fails validation"):
        data.map_coefficients(PrecisionReduction(spec, 4, 4))


def test_extension_json_roundtrip():
    L = StandardGroup(builtin("multiplicative", padic(3, 3), 4), 1)
    data = inversion_extension(L)
    back = extension_from_json(extension_to_json(data))
    assert back.T.elements == data.T.elements
    assert back.C == data.C and back.A == data.A and back.split
    assert back.L.law.F == data.L.law.F

    # corrections survive the round trip, keys and all
    ident = identity_series(L.law.spec, 1, 4)
    noisy = TransversalData(L=L, T=data.T, C=dict(data.C),
                            A={("mul", "s", "s"): ident, ("inv", "s"): ident})
    obj = extension_to_json(noisy)
    assert obj["split"] is False
    back = extension_from_json(obj)
    assert set(back.A) == {("mul", "s", "s"), ("inv", "s")}
    assert not back.split
    obj["split"] = True
    with pytest.raises(ExtensionDataError, match="must not carry corrections"):
        extension_from_json(obj)
