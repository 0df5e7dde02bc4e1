import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "evosteer"
BENCH = ROOT / "bench"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_every_bench_probe_names_a_package_attribute():
    """The benchmark's probes (``PROBES`` in ``bench/spans.py``, read as
    source) name modules and attributes that exist: a renamed function
    fails here, not only in a traced bench run."""
    import importlib
    tree = ast.parse((BENCH / "spans.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "PROBES"
                         for t in node.targets))
    probes = [(row.elts[1].value, row.elts[2].value) for row in table.elts]
    assert len(probes) > 20
    missing = []
    for module, attr in probes:
        try:
            owner = importlib.import_module(f"evosteer.{module}")
            for part in attr.split("."):
                owner = getattr(owner, part)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
        else:
            if not callable(owner):
                missing.append(f"{module}.{attr} (not callable)")
    assert not missing, f"bench probes naming nothing: {missing}"


def test_package_imports_no_scipy():
    """The package runs on numpy alone; scipy is a test-side reference."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom)
                     else [])
            found += [f"{path.name}:{node.lineno} {n}" for n in names
                      if n.split(".")[0] == "scipy"]
    assert not found, f"scipy imported by the package: {found}"


_CROSS_REFERENCE = re.compile(r":(?:meth|func|class):`([\w.]+)`")


def _docstrings(tree):
    """The docstrings of a module, its classes and its functions, each as
    (text, name of the enclosing class or None)."""
    def visit(node, cls):
        doc = ast.get_docstring(node, clean=False)
        if doc:
            yield doc, cls
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from visit(child, cls)
    yield from visit(tree, None)


def _names_a_definition(owner, dotted):
    """Whether the dotted name is an attribute chain from ``owner``; a part
    that is a submodule of a module owner is imported."""
    import importlib
    import types
    for part in dotted.split("."):
        if not hasattr(owner, part) and isinstance(owner, types.ModuleType):
            try:
                importlib.import_module(f"{owner.__name__}.{part}")
            except ImportError:
                return False
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_every_docstring_cross_reference_names_a_definition():
    """Each :meth:, :func: and :class: reference in a package docstring
    names a definition that exists, a bare name resolved against the
    enclosing class first, then the module, then the package: a deleted or
    renamed function leaves no reference pointing at nothing."""
    import importlib
    package = importlib.import_module("evosteer")
    found, dangling = 0, []
    for path in sorted(PACKAGE.glob("*.py")):
        module = importlib.import_module(f"evosteer.{path.stem}")
        for doc, cls in _docstrings(ast.parse(path.read_text())):
            for name in _CROSS_REFERENCE.findall(doc):
                found += 1
                owners = ([getattr(module, cls)] if cls else []) + [module, package]
                if not any(_names_a_definition(o, name) for o in owners):
                    dangling.append(f"{path.name} {cls or ''} {name}")
    assert found >= 40
    assert not dangling, f"docstring references naming nothing: {dangling}"


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """Module-level functions, classes and constants, and non-dunder
    methods, as (name, line)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not _dunder(item.name):
                    yield f"{node.name}.{item.name}", item.lineno


# Methods that only the tests call, kept on purpose: the independent
# reference for transport runs that the acceptance corpus still lacks
# evaluates T(t) and the feedback law u(t) = B* T(end - t)* y through them,
# without the solver's lag tables.
_TEST_ONLY_METHODS = {"ControlSignal.value", "ShiftSemigroup.apply",
                      "ShiftSemigroup.apply_adjoint"}


def _scopes(tree):
    """(key, class, node): each top-level function under its name and each
    non-dunder method under "Class.method", with the class whose ``self``
    it reads; every other statement, dunder methods among them, under the
    key None."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, None, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, ast.FunctionDef) and not _dunder(item.name)
                yield (f"{node.name}.{item.name}" if method else None), node.name, item
        else:
            yield None, None, node


def _last_name(expr):
    """The name an expression reads: x for x, b for x.a.b, and x's for x[i]."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    return (expr.id if isinstance(expr, ast.Name)
            else expr.attr if isinstance(expr, ast.Attribute) else None)


def _held_classes(trees, methods):
    """A function giving the package classes an expression may hold, as far
    as names show it: a constructor call, a call of a method annotated to
    return one, or a name (a variable, attribute, parameter or keyword)
    that holds one by annotation or by assignment from such an expression."""
    def named(annotation):
        return {n.id for n in ast.walk(annotation)
                if isinstance(n, ast.Name) and n.id in methods}
    returns, held = {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                # a property's name holds what it returns
                owner = held if node.decorator_list else returns
                owner.setdefault(node.name, set()).update(named(node.returns))

    def classes_of(expr):
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return {expr.func.id} & methods.keys()
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            return returns.get(expr.func.attr, set())
        return held.get(_last_name(expr), set())
    def bind(target, classes):
        name = target if isinstance(target, str) else _last_name(target)
        if name and classes:
            held.setdefault(name, set()).update(classes)
    while True:    # until no class passes further along a chain of names
        size = sum(map(len, held.values()))
        for tree in trees:
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        bind(target, classes_of(node.value))
                elif isinstance(node, ast.keyword):
                    bind(node.arg, classes_of(node.value))
                elif isinstance(node, ast.arg) and node.annotation is not None:
                    bind(node.arg, named(node.annotation))
                elif isinstance(node, ast.AnnAssign):
                    bind(node.target, named(node.annotation))
        if sum(map(len, held.values())) == size:
            return classes_of


def _reads(node, cls, methods, classes_of):
    """What a scope reads: identifiers and attribute names, each attribute
    read of a method as "Class.method" for every class it may resolve to
    (``self``'s, a named class's, or those its receiver may hold, else every
    class defining it), and the dotted strings of a ``PROBES`` table."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
            owners = {c for c, ms in methods.items() if n.attr in ms}
            recv = n.value
            if isinstance(recv, ast.Name) and recv.id == "self" and cls in owners:
                owners = {cls}
            elif isinstance(recv, ast.Name) and recv.id in owners:
                owners = {recv.id}
            else:
                owners = owners & classes_of(recv) or owners
            out.update(f"{c}.{n.attr}" for c in owners)
        elif isinstance(n, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PROBES" for t in n.targets):
            for c in ast.walk(n.value):
                if isinstance(c, ast.Constant) and isinstance(c.value, str):
                    out.add(c.value)
                    out.update(c.value.split("."))
    return out


def test_every_definition_is_referenced():
    """No definition in the package exists only for the tests: each is named
    somewhere in the package or the benchmark, by code that is itself
    reached, and a method through a receiver that may hold its class, so
    a method shares no reference with a namesake of another class.  Only
    ``_TEST_ONLY_METHODS`` are exempt, and each of them must still be
    unreferenced."""
    trees = {p: ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))}
    methods = {node.name: {f.name for f in node.body if isinstance(f, ast.FunctionDef)}
               for p, tree in trees.items() if p.parent == PACKAGE
               for node in tree.body if isinstance(node, ast.ClassDef)}
    classes_of = _held_classes(trees.values(), methods)
    reads = {}
    for p, tree in trees.items():
        for key, cls, node in _scopes(tree):
            key = key if p.parent == PACKAGE else None    # the benchmark is all root
            reads.setdefault(key, set()).update(_reads(node, cls, methods, classes_of))
    roots = reads.pop(None)

    def unreferenced(*kept):
        """The definitions named nowhere, where code that nothing reaches
        reads nothing, and ``kept`` is reached."""
        used = set(roots).union(*(reads[k] for k in kept))
        pending = {k: v for k, v in reads.items() if k not in kept}
        while reached := [k for k in pending if k in used]:
            for key in reached:
                used |= pending.pop(key)
        return {name: f"{p.name}:{line} {name}"
                for p, tree in trees.items() if p.parent == PACKAGE
                for name, line in _definitions(tree)
                if name not in used and name not in kept}
    stale = _TEST_ONLY_METHODS - unreferenced().keys()
    assert not stale, f"exempt methods now referenced: {sorted(stale)}"
    unused = unreferenced(*_TEST_ONLY_METHODS)
    assert not unused, f"definitions named nowhere: {sorted(unused.values())}"


def _defaulted_parameters(tree):
    """Every parameter with a default of every function and method, as
    (callee name, position or None, parameter, line); the position counts
    from the first argument a caller passes, so ``self`` is not counted and
    an ``__init__`` is named by its class."""
    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, ast.FunctionDef):
                method = cls is not None and not any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in child.decorator_list)
                name = cls if method and child.name == "__init__" else child.name
                positional = child.args.posonlyargs + child.args.args
                offset = 1 if method else 0
                first = len(positional) - len(child.args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    yield name, i - offset, arg.arg, child.lineno
                for arg, default in zip(child.args.kwonlyargs,
                                        child.args.kw_defaults):
                    if default is not None:
                        yield name, None, arg.arg, child.lineno
                yield from visit(child, None)
            else:
                yield from visit(child, cls)
    yield from visit(tree, None)


def _calls(tree):
    """Per called name: (positional count, keywords, passes * or **) of every
    call site."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = (func.id if isinstance(func, ast.Name)
                else func.attr if isinstance(func, ast.Attribute) else None)
        if name is None:
            continue
        spread = (any(isinstance(a, ast.Starred) for a in node.args)
                  or any(k.arg is None for k in node.keywords))
        yield name, len(node.args), {k.arg for k in node.keywords}, spread


def test_every_default_is_overridden_somewhere():
    """A defaulted parameter that no call in the package, the tests or the
    benchmark ever sets is a constant in disguise."""
    sources = (sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py"))
               + sorted((ROOT / "tests").glob("*.py")))
    trees = {p: ast.parse(p.read_text()) for p in sources}
    calls = {}
    for tree in trees.values():
        for name, npos, keywords, spread in _calls(tree):
            calls.setdefault(name, []).append((npos, keywords, spread))
    unset = sorted(
        f"{p.name}:{line} {name}({param})"
        for p, tree in trees.items() if p.parent == PACKAGE
        for name, pos, param, line in _defaulted_parameters(tree)
        if not any(spread or param in keywords or (pos is not None and npos > pos)
                   for npos, keywords, spread in calls.get(name, ())))
    assert not unset, f"defaulted parameters no call sets: {unset}"


# Numerics fields no run sets, by design: ``target_tol`` is the verdict's
# hit tolerance, which the benchmark mirrors as its own ``TARGET_TOL``.
_DEFAULT_ONLY_FIELDS = {"Numerics.target_tol"}


def test_every_problem_and_numerics_field_is_set_outside_the_tests(tmp_path,
                                                                  monkeypatch):
    """A field of ``Problem`` or ``Numerics`` that only tests set is a knob
    no run can turn: each is passed by name to its class in the package or
    the benchmark (``[problem]`` keys reach ``Problem`` through the
    package's calls), or, for ``Numerics``, set by a ``[numerics]`` key of
    a shipped config or of one generated input per benchmark workload.  A
    key the parser merely accepts sets nothing."""
    import configparser
    import dataclasses
    import importlib
    from evosteer.problems import Numerics, Problem
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    texts = [p.read_text() for p in sorted((ROOT / "configs").glob("*.ini"))]
    texts += [w.instance(1, 0, tmp_path).ini
              for _, w in sorted(workloads.WORKLOADS.items())]
    passed = {"Problem": set(), "Numerics": set()}
    for text in texts:
        parser = configparser.ConfigParser(inline_comment_prefixes=("#",))
        parser.read_string(text)
        if parser.has_section("numerics"):
            passed["Numerics"] |= set(parser["numerics"])
    for path in sorted(PACKAGE.glob("*.py")) + sorted(BENCH.glob("*.py")):
        for name, _, keywords, _ in _calls(ast.parse(path.read_text())):
            if name in passed:
                passed[name] |= keywords
    unset = [f"{cls.__name__}.{f.name}" for cls in (Problem, Numerics)
             for f in dataclasses.fields(cls) if f.name not in passed[cls.__name__]]
    assert sorted(unset) == sorted(_DEFAULT_ONLY_FIELDS), \
        f"fields only the tests set: {sorted(set(unset) - _DEFAULT_ONLY_FIELDS)}"


def test_shipped_and_benchmark_configs_load(tmp_path, monkeypatch):
    """Every shipped config and one generated input per benchmark workload
    loads under the config's unknown-key check: a parser change cannot turn
    a benchmark run into a failed one.  ``bench/workloads.py`` is imported
    as the benchmark imports it, and only read."""
    import importlib
    from evosteer.config import load_config
    monkeypatch.syspath_prepend(str(BENCH))
    workloads = importlib.import_module("workloads")
    monkeypatch.setenv("EVOSTEER_OUTDIR", str(tmp_path / "out"))
    paths = sorted((ROOT / "configs").glob("*.ini"))
    assert len(paths) == 3
    for name, workload in sorted(workloads.WORKLOADS.items()):
        path = tmp_path / f"{name}.ini"
        path.write_text(workload.instance(1, 0, tmp_path).ini)
        paths.append(path)
    for path in paths:
        load_config(str(path))


@pytest.mark.parametrize("preset", ["transport-case1", "transport-case2"])
def test_a_preset_accepts_exactly_the_keys_its_builder_reads(tmp_path, preset):
    """A ``[problem]`` key the loader takes for a preset changes its run:
    the keys the loader does not refuse as unknown, less ``preset`` and
    ``targets``, are the ``TransportConfig`` fields the preset's builder
    reads, ``n`` standing for ``N`` and ``mesh`` set from ``[mesh]``."""
    import dataclasses
    from evosteer import transport
    from evosteer.config import ConfigError, load_config

    class Recording(transport.TransportConfig):
        def __getattribute__(self, name):
            state = object.__getattribute__(self, "__dict__")
            if "reads" in state:
                state["reads"].add(name)
            return object.__getattribute__(self, name)

    cfg = Recording()
    cfg.reads = set()
    getattr(transport, "build_" + preset.split("-")[1])(cfg)
    names = {f.name for f in dataclasses.fields(transport.TransportConfig)}
    read = {"n" if f == "N" else f for f in cfg.reads & names} - {"mesh"}

    base = (ROOT / "configs" / f"{preset}.ini").read_text()
    accepted = set()
    for key in sorted({n.lower() for n in names}):
        path = tmp_path / f"{key}.ini"
        path.write_text(base.replace("[problem]\n", f"[problem]\n{key} = 1\n"))
        try:
            load_config(str(path))
        except ConfigError as exc:
            if str(exc) == f"problem.{key}: unknown key":
                continue
        accepted.add(key)
    assert accepted - {"targets"} == read
