"""Checks on the package source itself."""

import ast
import pathlib

import prostd


def _sources():
    for path in sorted(pathlib.Path(prostd.__file__).resolve().parent.glob("*.py")):
        yield path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def test_no_assert_statements_in_src():
    # invariants that protect exactness must survive python -O, which strips
    # assert statements; raise an errors.py exception instead
    found = []
    for name, tree in _sources():
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the package: {found}"


def _calls(tree, kinds=ast.Call):
    """(enclosing function, node) of every call (or node of the given kinds)
    in the tree; a method is named Class.method."""
    found = []

    def visit(node, owner, cls=None):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner, cls = (f"{cls}.{node.name}" if cls else node.name), None
        if isinstance(node, kinds):
            found.append((owner, node))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, cls)

    visit(tree, None)
    return found


def _callee(call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)


_GRLEX_NAMES = {"grlex_key", "_GRLEX_KEYS", "_GrlexKeys"}


def _grlex_sorts(tree):
    """(enclosing function, line) of every sorted(...)/.sort(...) whose key
    mentions grlex_key or its memo."""
    found = []
    for owner, node in _calls(tree):
        if _callee(node) in ("sorted", "sort"):
            names = {n.id if isinstance(n, ast.Name) else n.attr
                     for kw in node.keywords if kw.arg == "key"
                     for n in ast.walk(kw.value) if isinstance(n, (ast.Name, ast.Attribute))}
            if names & _GRLEX_NAMES:
                found.append((owner, node.lineno))
    return found


def test_grlex_sorts_only_in_the_polynomial_kernel():
    # the canonical polynomial form (summed, zero-free, truncated, graded-lex)
    # is built by rings.collect alone; a second sort is a second copy of it
    allowed = {("rings.py", "collect"), ("rings.py", "bounded_exponents")}
    found = [f"{name}:{line} ({owner})" for name, tree in _sources()
             for owner, line in _grlex_sorts(tree) if (name, owner) not in allowed]
    assert not found, f"graded-lex sorts outside rings.collect: {found}"


def test_grlex_pin_sees_the_memo():
    copied = ast.parse("def f(acc):\n    return sorted(acc, key=_GRLEX_KEYS.__getitem__)\n")
    assert _grlex_sorts(copied) == [("f", 2)]


def test_series_builds_coefficients_only_at_the_boundary():
    # series terms are payloads; a Coefficient is built only where a caller
    # reads one (Coefficient.make canonicalises caller input and stays free)
    readers = {"Series.terms", "Series.constant_term", "Series.coefficient",
               "Series.evaluate", "SeriesTuple.evaluate", "constancy"}
    tree = dict(_sources())["series.py"]
    found = []
    for owner, node in _calls(tree):
        func = node.func
        direct = isinstance(func, ast.Name) and func.id == "Coefficient"
        factory = (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                   and func.value.id == "Coefficient" and func.attr != "make")
        if (direct or factory) and owner not in readers:
            found.append(f"series.py:{node.lineno} ({owner})")
    assert not found, f"Coefficients built inside series arithmetic: {found}"


def test_enumeration_bound_raised_only_by_the_shared_guard():
    # "resolve the default bound, compare, raise" lives in one place;
    # rings.representatives keeps its own check, since there None means no bound
    allowed = {("stdgrp.py", "_enumeration_guard"), ("rings.py", "representatives")}
    found = [f"{name}:{node.lineno} ({owner})" for name, tree in _sources()
             for owner, node in _calls(tree)
             if _callee(node) == "EnumerationBoundError" and (name, owner) not in allowed]
    assert not found, f"EnumerationBoundError raised outside the shared guard: {found}"


def test_one_word_fold():
    # word_series and coset_word_series are WordExpr.evaluate on a series
    # handle, and the extension product and inverse are written once, in
    # TransversalData; a function that loops over .letters and composes
    # series is a second fold, and a fold helper in words a second formula
    sources = dict(_sources())
    folds = set()
    for name, tree in sources.items():
        composers = {owner for owner, node in _calls(tree) if _callee(node) == "compose"}
        folds |= {(name, owner) for owner, node in _calls(tree, (ast.For, ast.comprehension))
                  if isinstance(node.iter, ast.Attribute) and node.iter.attr == "letters"
                  and owner in composers}
    assert not folds, f"word folds: {sorted(folds)}"
    evaluators = {(name, owner) for name, tree in sources.items()
                  for owner, node in _calls(tree) if _callee(node) == "evaluate"}
    assert {("words.py", "word_series"), ("atlas.py", "coset_word_series")} <= evaluators
    words = sources["words.py"]
    defined = {node.name for node in words.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {t.id for node in words.body if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)}
    assert not defined & {"_fold", "_apply", "_TRIVIAL"}, sorted(defined)
    imported = {alias.name for node in sources["atlas.py"].body
                if isinstance(node, ast.ImportFrom) and node.module == "words"
                for alias in node.names}
    assert imported == {"WordExpr", "_Enumeration"}, sorted(imported)
    formulas = {(name, owner) for name, tree in sources.items()
                for owner, node in _calls(tree) if _callee(node) == "_apply"}
    assert formulas == {("atlas.py", "TransversalData._mul"),
                        ("atlas.py", "TransversalData._inv")}, sorted(formulas)


def test_one_extension_proof():
    # split_extension proves its action through TransversalData.check, the
    # product and inverse formulas on series; composing charts or comparing
    # series of its own would be a second proof
    calls = {_callee(node) for owner, node in _calls(dict(_sources())["atlas.py"])
             if owner == "split_extension"}
    assert "check" in calls, sorted(calls)
    assert not calls & {"compose", "constancy"}, sorted(calls)


def test_one_enumeration():
    # finite handles are enumerated by one indexed class, which picks the
    # table, series or letter fold itself; a second class with evaluator and
    # lift is a second enumeration, and a comprehension of products in atlas
    # is a second Cayley table
    views = {(name, node.name) for name, tree in _sources() for node in ast.walk(tree)
             if isinstance(node, ast.ClassDef)
             and {"evaluator", "lift"} & {f.name for f in node.body
                                          if isinstance(f, ast.FunctionDef)}}
    assert views == {("words.py", "_Enumeration")}, f"enumeration classes: {sorted(views)}"
    atlas = dict(_sources())["atlas.py"]
    comprehensions = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    tables = [f"atlas.py:{node.lineno} ({owner})" for owner, node in _calls(atlas, comprehensions)
              if any(_callee(c) in ("mul", "_mul") for c in ast.walk(node)
                     if isinstance(c, ast.Call))]
    assert not tables, f"product tables built in atlas: {tables}"
    assert ("validate_transversal", "_Enumeration") in {
        (owner, _callee(node)) for owner, node in _calls(atlas)}


def test_one_closure():
    # the doubling closure is one method: verbal_subgroup closes a word image
    # with it and Light's test finds its generators with it, which atlas
    # validation calls; a second "while frontier" loop is a second copy
    sources = dict(_sources())
    callers = {(name, owner) for name, tree in sources.items()
               for owner, node in _calls(tree) if _callee(node) == "closure"}
    assert callers == {("words.py", "verbal_subgroup"),
                       ("words.py", "_Enumeration.associative")}, sorted(callers)
    assert ("validate_transversal", "associative") in {
        (owner, _callee(node)) for owner, node in _calls(sources["atlas.py"])}
    loops = [(name, owner) for name, tree in sources.items()
             for owner, node in _calls(tree, ast.While)
             if isinstance(node.test, ast.Name) and node.test.id == "frontier"]
    assert loops == [("words.py", "_Enumeration.closure")], loops


def test_one_specialisation_path():
    # t-variables are evaluated by Specialisation alone (rings.specialise is
    # its one-shot form), and polynomial evaluation is shared only with series
    allowed = {("series.py", "Series._evaluate_unchecked"),
               ("rings.py", "Specialisation._map")}
    found = {(name, owner) for name, tree in _sources()
             for owner, node in _calls(tree) if _callee(node) == "evaluate_terms"}
    assert found == allowed, f"evaluate_terms callers: {sorted(found)}"


def test_group_products_run_on_kernels():
    # every finite and standard-group product runs on compiled law kernels;
    # the series path stays the reference that the kernel tests compare with
    classes = {"StandardGroup", "QuotientGroup", "TransversalData", "HQuotient"}
    series_path = {"evaluate", "_evaluate_unchecked", "_evaluate_trusted", "evaluate_terms"}
    found = [f"{name}:{node.lineno} ({owner})" for name, tree in _sources()
             if name in ("stdgrp.py", "atlas.py")
             for owner, node in _calls(tree)
             if owner and owner.split(".")[0] in classes and _callee(node) in series_path]
    assert not found, f"group methods on the series path: {found}"


_KERNEL_NODES = (ast.Expression, ast.Lambda, ast.arguments, ast.arg, ast.Tuple, ast.Load,
                 ast.BinOp, ast.Add, ast.Mult, ast.Mod, ast.Sub, ast.UnaryOp, ast.USub,
                 ast.Call, ast.Name, ast.Constant)


def _check_kernel_source(T, source: str, names: dict) -> None:
    ops = T.spec.ops
    assert set(names) <= {"add", "mul", "red"}
    assert names.get("add", ops.add) is ops.add and names.get("mul", ops.mul) is ops.mul
    tree = ast.parse(source, mode="eval")
    assert isinstance(tree.body, ast.Lambda)
    args = [a.arg for a in tree.body.args.args]
    assert args == [f"a{i}" for i in range(T.nvars)]
    for node in ast.walk(tree):
        assert isinstance(node, _KERNEL_NODES), f"{type(node).__name__} in {source}"
        if isinstance(node, ast.Constant):
            assert type(node.value) is int, source
        elif isinstance(node, ast.Name):
            assert node.id in args or node.id in names, source
        elif isinstance(node, ast.Call):
            assert isinstance(node.func, ast.Name) and node.func.id in names, source
            assert not node.keywords, source


def test_kernel_sources_hold_only_ints_names_operators_and_closures(monkeypatch):
    from prostd import series
    from prostd.atlas import HElement, HQuotient, TransversalData, inversion_extension
    from prostd.fgl import builtin
    from prostd.rings import eqchar, nested, padic
    from prostd.stdgrp import StandardGroup

    emitted = []
    emit = series._kernel_source

    def recording(T, M):
        source, names = emit(T, M)
        emitted.append((T, source, names))
        return source, names

    monkeypatch.setattr(series, "_kernel_source", recording)
    for name, spec, D in [("heisenberg", padic(2, 4), 4), ("heisenberg", eqchar(3, 3), 4),
                          ("multiplicative", padic(3, 3), 6), ("additive", eqchar(3, 3), 3),
                          ("multiplicative", nested(padic(2, 3), 1, 3), 6),
                          ("additive", nested(eqchar(3, 2), 1, 2), 3)]:
        G = StandardGroup(builtin(name, spec, D), 1)
        Q = G.quotient(2)
        x = Q.elements[-1]
        g = G.element(x)
        G.power(g, 5)
        G.inv(g)
        Q.inv(Q.mul(x, x))
        if G.d == 1:  # abelian: the inversion charts plus corrections
            split = inversion_extension(G)
            ident = split.C[split.T.identity]
            data = TransversalData(L=G, T=split.T, C=dict(split.C),
                                   A={("inv", "s"): ident, ("mul", "s", "s"): ident})
            h = HElement("s", x)
            data.inv(data.mul(h, h))
            hq = HQuotient(data, 2)
            hq.inv(hq.mul(("s", x), ("s", x)))
    assert {T.spec.kind for T, _, _ in emitted} == {"p-adic", "eq-char", "nested"}
    assert len(emitted) >= 20
    for T, source, names in emitted:
        _check_kernel_source(T, source, names)


def test_one_route_rule():
    # the table, the word series and the letter fold are chosen in one place,
    # _Enumeration.evaluator, by counted products; atlas validation is the one
    # other caller that tabulates, and no argument payloads are concatenated
    sources = dict(_sources())
    tabulators = {(name, owner) for name, tree in sources.items()
                  for owner, node in _calls(tree) if _callee(node) == "tabulate"}
    assert tabulators == {("words.py", "_Enumeration.evaluator"),
                          ("atlas.py", "validate_transversal")}, sorted(tabulators)
    words = sources["words.py"]
    route_names = {(owner, node.id) for owner, node in _calls(words, ast.Name)
                   if node.id in ("_COMPOSE_CALLS", "word_series")
                   and isinstance(node.ctx, ast.Load)}
    assert route_names == {("_Enumeration.evaluator", "_COMPOSE_CALLS"),
                           ("_Enumeration.evaluator", "word_series")}, sorted(route_names)
    package = pathlib.Path(prostd.__file__).resolve().parent
    assert "sum(map(" not in (package / "words.py").read_text(encoding="utf-8")


def test_one_coefficient_grammar():
    # coefficient text of every ring shape is read by one recursive-descent
    # parser, on the cursor that the word parser shares; a regex or a
    # split-and-recurse helper would be a second grammar
    sources = dict(_sources())
    rings, words = sources["rings.py"], sources["words.py"]
    imported = {alias.name for node in ast.walk(rings) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(rings) if isinstance(node, ast.ImportFrom)}
    assert "re" not in imported, sorted(imported)
    classes = {node.name: node for tree in (rings, words) for node in tree.body
               if isinstance(node, ast.ClassDef)}
    defined = {node.name for node in ast.walk(rings)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_split_top", "_parse_eqchar", "_parse_nested_term"}, sorted(defined)
    for name in ("_CoefficientParser", "_Parser"):
        parser = classes[name]
        assert [base.id for base in parser.bases] == ["_Cursor"], name
        methods = {f.name for f in parser.body if isinstance(f, ast.FunctionDef)}
        assert not methods & {"peek", "skip_ws", "integer"}, (name, sorted(methods))


def test_homomorphism_decided_only_by_the_maps():
    # whether a coefficient map is a ring homomorphism is decided in rings.py,
    # once per map; transport reads the map's answer and tells no map classes
    # apart, so a second copy of the condition cannot drift from the first
    sources = dict(_sources())
    setters = {(name, owner) for name, tree in sources.items()
               for owner, node in _calls(tree, (ast.Assign, ast.AnnAssign))
               for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
               if getattr(target, "attr", getattr(target, "id", None)) == "homomorphism"}
    assert setters and {name for name, _ in setters} == {"rings.py"}, sorted(setters)
    atlas = sources["atlas.py"]
    readers = {owner for owner, node in _calls(atlas)
               if _callee(node) == "getattr" and len(node.args) >= 2
               and isinstance(node.args[1], ast.Constant) and node.args[1].value == "homomorphism"}
    readers |= {owner for owner, node in _calls(atlas, ast.Attribute)
                if node.attr == "homomorphism"}
    assert readers == {"TransversalData.map_coefficients"}, sorted(readers)
    maps = {"CoefficientMap", "IdentityMap", "PrecisionReduction", "Specialisation"}
    named = {node.id for node in ast.walk(atlas) if isinstance(node, ast.Name)}
    named |= {alias.name for node in ast.walk(atlas) if isinstance(node, ast.ImportFrom)
              for alias in node.names}
    assert not named & maps, sorted(named & maps)
    assert "isinstance" not in {_callee(node) for owner, node in _calls(atlas)
                                if owner == "TransversalData.map_coefficients"}


def _membership_tests(sources):
    """(readers of .valuation(), comparisons with a .valuation() call,
    raisers of MaximalIdealError), each as (file, function) pairs."""
    readers, compares, raisers = set(), set(), set()
    for name, tree in sources.items():
        for owner, node in _calls(tree):
            if _callee(node) == "valuation":
                readers.add((name, owner))
            elif _callee(node) == "MaximalIdealError":
                raisers.add((name, owner))
        compares |= {(name, owner) for owner, node in _calls(tree, ast.Compare)
                     if any(isinstance(side, ast.Call) and _callee(side) == "valuation"
                            for side in (node.left, *node.comparators))}
    return readers, compares, raisers


def test_one_membership_test():
    # "is x in m^N?" is one reduction: Coefficient._checked refuses caller
    # input outside m^level, StandardGroup._level refuses products, and the
    # quotient's lookup is its closure check; comparing with .valuation() is
    # a second test, and only Specialisation reads a valuation, for its bound
    readers, compares, raisers = _membership_tests(dict(_sources()))
    assert readers == {("rings.py", "Specialisation.__init__")}, sorted(readers)
    assert not compares, sorted(compares)
    assert raisers == {("rings.py", "Coefficient._checked"), ("stdgrp.py", "StandardGroup._level"),
                       ("stdgrp.py", "QuotientGroup._element")}, sorted(raisers)


def test_membership_pin_sees_a_copied_check():
    copied = ast.parse("class G:\n    def element(self, c):\n        if c.valuation() < self.N:\n"
                       "            raise MaximalIdealError('below N')\n")
    readers, compares, raisers = _membership_tests({"stdgrp.py": copied})
    assert readers == compares == raisers == {("stdgrp.py", "G.element")}


def test_one_coefficient_map_entry():
    # CoefficientMap.__call__ checks the source ring once; the maps supply
    # only _map (Specialisation binds the inherited __call__ in its own
    # namespace, which is not a second definition)
    maps = {(name, node.name): node for name, tree in _sources() for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef)
            and any(getattr(base, "id", None) == "CoefficientMap" for base in node.bases)}
    assert set(maps) == {("rings.py", "IdentityMap"), ("rings.py", "PrecisionReduction"),
                         ("rings.py", "Specialisation")}, sorted(maps)
    for name, node in maps.items():
        methods = {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
        assert "_map" in methods and "__call__" not in methods, (name, sorted(methods))


def test_coefficient_text_is_read_at_one_door():
    # caller coefficients, text included, go through Coefficient.make; JSON
    # files stay text-only through Series.from_json, and the cli builds one
    # sample coefficient from text
    callers = {(name, owner) for name, tree in _sources()
               for owner, node in _calls(tree) if _callee(node) == "parse_coefficient"}
    assert callers == {("rings.py", "Coefficient.make"), ("series.py", "Series.from_json"),
                       ("cli.py", "_deformed_law_json")}, sorted(callers)
