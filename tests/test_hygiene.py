import ast
import inspect
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


def _bench_probes() -> tuple:
    """The benchmark's probe table (``PROBES`` in ``bench/spans.py``, read
    as source) as (module, attribute, work counter name or None) rows, and
    the source tree."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Name) and t.id == "PROBES"
                         for t in node.targets))
    return [(row.elts[1].value, row.elts[2].value, getattr(row.elts[3], "id", None))
            for row in table.elts], tree


def _probed(module: str, attr: str):
    import importlib
    owner = importlib.import_module(f"evosteer.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_bench_probe_names_a_package_attribute():
    """The benchmark's probes name modules and attributes that exist: a
    renamed function fails here, not only in a traced bench run."""
    probes, _ = _bench_probes()
    assert len(probes) > 20
    missing = []
    for module, attr, _ in probes:
        try:
            owner = _probed(module, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module}.{attr}")
        else:
            if not callable(owner):
                missing.append(f"{module}.{attr} (not callable)")
    assert not missing, f"bench probes naming nothing: {missing}"


def test_every_bench_work_counter_reads_parameters_of_its_function():
    """A probe's work counter reads the probed call's bound arguments as
    ``args["<parameter>"]``; each key it reads is a parameter of every
    function it counts, so a changed signature fails here, not only in a
    traced bench run."""
    probes, tree = _bench_probes()
    reads = {node.name: {sub.slice.value for sub in ast.walk(node)
                         if isinstance(sub, ast.Subscript)
                         and isinstance(sub.value, ast.Name) and sub.value.id == "args"
                         and isinstance(sub.slice, ast.Constant)}
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"path", "control", "numerics", "self"} <= set().union(*reads.values())
    unknown = []
    for module, attr, counter in probes:
        if counter is not None:
            params = inspect.signature(_probed(module, attr)).parameters
            unknown += [f"{counter} reads {key!r} of {module}.{attr}"
                        for key in sorted(reads[counter] - set(params))]
    assert not unknown, f"work counters reading missing parameters: {unknown}"


def test_bench_gate_judges_the_program_hit_tolerance():
    """The benchmark's correctness gate (``TARGET_TOL`` in
    ``bench/workloads.py``, read as source) judges a window end by the
    verdict's own hit tolerance, so the gate cannot pass a miss the verdict
    refuses or refuse a hit it passes."""
    from evosteer import solver
    tree = ast.parse((BENCH / "workloads.py").read_text())
    gate = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "TARGET_TOL"
                        for t in node.targets))
    assert ast.literal_eval(gate) == solver.TARGET_TOL


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


def _binding_scopes(tree):
    """(scope, statement) for every top-level statement of ``tree`` and of
    its classes' bodies: a function or method binds names in its own scope
    (tree, function), nested functions included; module statements bind
    them in (tree, None); a class body binds fields, scope None."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                yield ((tree, item) if isinstance(item, ast.FunctionDef) else None), item
        else:
            yield (tree, node if isinstance(node, ast.FunctionDef) else None), node


def _scope_of(tree, node):
    """The binding scope whose names ``node``, a scope of ``_scopes``, reads."""
    return (tree, node if isinstance(node, ast.FunctionDef) else None)


def _held_classes(trees, methods):
    """A function ``classes_of(expr, scope)`` giving the package classes an
    expression may hold, as far as names show it: a constructor call, a
    call of a method annotated to return one, an attribute, property or
    keyword name that holds one anywhere in the package, or a bare name
    that holds one in ``scope`` (see ``_binding_scopes``) or at its
    module's level, each by annotation or by assignment from such an
    expression."""
    def named(annotation):
        return {n.id for n in ast.walk(annotation)
                if isinstance(n, ast.Name) and n.id in methods}
    returns, fields, names = {}, {}, {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.returns is not None:
                # a property's name holds what it returns
                owner = fields if node.decorator_list else returns
                owner.setdefault(node.name, set()).update(named(node.returns))

    def classes_of(expr, scope):
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            return {expr.func.id} & methods.keys()
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            return returns.get(expr.func.attr, set())
        while isinstance(expr, ast.Subscript):
            expr = expr.value
        if isinstance(expr, ast.Name):
            return (names.get((scope, expr.id), set())
                    | names.get(((scope[0], None), expr.id), set()))
        return fields.get(_last_name(expr), set())

    def bind(target, classes, scope):
        while isinstance(target, ast.Subscript):
            target = target.value
        if isinstance(target, ast.Name) and scope is not None:
            names.setdefault((scope, target.id), set()).update(classes)
            return
        name = target if isinstance(target, str) else _last_name(target)
        if name:
            fields.setdefault(name, set()).update(classes)
    while True:    # until no class passes further along a chain of names
        size = sum(map(len, names.values())) + sum(map(len, fields.values()))
        for tree in trees:
            for scope, statement in _binding_scopes(tree):
                read = scope or (tree, None)
                for node in ast.walk(statement):
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            bind(target, classes_of(node.value, read), scope)
                    elif isinstance(node, ast.keyword) and node.arg:
                        bind(node.arg, classes_of(node.value, read), scope)
                    elif isinstance(node, ast.arg) and node.annotation is not None:
                        bind(ast.Name(node.arg), named(node.annotation), scope)
                    elif isinstance(node, ast.AnnAssign):
                        bind(node.target, named(node.annotation), scope)
        if sum(map(len, names.values())) + sum(map(len, fields.values())) == size:
            return classes_of


def _reads(node, cls, methods, classes_of, scope):
    """What a scope reads: identifiers and attribute names, each attribute
    read of a method as "Class.method" for every class it may resolve to
    (``self``'s, a named class's, or those its receiver may hold in the
    binding ``scope``, else every class defining it), and the dotted
    strings of a ``PROBES`` table."""
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
                owners = owners & classes_of(recv, scope) or owners
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
            reads.setdefault(key, set()).update(
                _reads(node, cls, methods, classes_of, _scope_of(tree, node)))
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


def test_held_classes_are_scoped_per_function():
    """A bare name binds its class in its own function only: two ``table``
    parameters annotated with different classes each resolve ``table.apply``
    to their own class, and a name bound in neither resolves to none."""
    tree = ast.parse(
        "class A:\n    def apply(self): pass\n"
        "class B:\n    def apply(self): pass\n"
        "def f(table: A):\n    return table.apply()\n"
        "def g(table: B):\n    return table.apply()\n"
        "def h(table):\n    return table.apply()\n")
    methods = {"A": {"apply"}, "B": {"apply"}}
    classes_of = _held_classes([tree], methods)
    reads = {node.name: {r for r in _reads(node, None, methods, classes_of,
                                           _scope_of(tree, node)) if "." in r}
             for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert reads == {"f": {"A.apply"}, "g": {"B.apply"}, "h": {"A.apply", "B.apply"}}


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
    assert not unset, f"fields only the tests set: {sorted(unset)}"


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
    ``targets``, are the parameters of the preset's builder, ``n`` standing
    for ``N`` and ``mesh`` set from ``[mesh]``, and the builder's body
    reads each of them.  Every builder's parameters, ``seed`` and ``mesh``
    are tried, so a key of the other preset is refused here."""
    import inspect
    import textwrap
    from evosteer import transport
    from evosteer.config import ConfigError, load_config

    builder = getattr(transport, "build_" + preset.split("-")[1])
    params = set(inspect.signature(builder).parameters)
    body = ast.parse(textwrap.dedent(inspect.getsource(builder))).body[0].body
    read = {node.id for stmt in body for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert params <= read, f"parameters the body never reads: {params - read}"

    tried = {"seed", "targets"}.union(*(
        {p.lower() for p in inspect.signature(build).parameters}
        for build in (transport.build_case1, transport.build_case2)))
    base = (ROOT / "configs" / f"{preset}.ini").read_text()
    accepted = set()
    for key in sorted(tried):
        path = tmp_path / f"{key}.ini"
        path.write_text(base.replace("[problem]\n", f"[problem]\n{key} = 1\n"))
        try:
            load_config(str(path))
        except ConfigError as exc:
            if str(exc) == f"problem.{key}: unknown key":
                continue
        accepted.add(key)
    assert accepted - {"targets"} == {p.lower() for p in params} - {"mesh"}


# per module, the names of the impulse model formed there alone
_FORMED_IN = {"problems.py": {"impulse_lipschitz", "nonlocal_lipschitz", "outer"},
              "certificates.py": {"impulse_sup", "nonlocal_sup", "ball_radius"}}


def test_the_impulse_model_is_formed_only_in_problems():
    """The impulse product ``theta * x`` (``np.outer``) and the Lipschitz
    constants of the impulse and of nu are formed in ``problems.py`` alone,
    and their sup constants and the ball those hold on in
    ``certificates.py`` alone: elsewhere in the package these names are
    only read, never assigned, passed by keyword, taken as a parameter or
    defined, and nothing calls ``outer``."""
    def formed(path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "outer":
                yield node.lineno, "outer"
            names = ([(node.arg, node.lineno)]
                     if isinstance(node, (ast.keyword, ast.arg)) else
                     [(node.name, node.lineno)]
                     if isinstance(node, ast.FunctionDef) else
                     [(getattr(node, "id", None) or node.attr, node.lineno)]
                     if isinstance(node, (ast.Name, ast.Attribute))
                     and isinstance(node.ctx, ast.Store) else [])
            for name, line in names:
                yield line, name

    found = [f"{path.name}:{line} {name}" for owner, names in _FORMED_IN.items()
             for path in sorted(PACKAGE.glob("*.py")) if path.name != owner
             for line, name in formed(path) if name in names]
    assert not found, f"impulse model formed outside its module: {found}"
    for owner, names in _FORMED_IN.items():
        assert {name for _, name in formed(PACKAGE / owner)} >= names, owner


def test_the_gramian_format_is_read_only_by_factor_gramian():
    """A window Gramian is a dense array or a (diagonal, off-diagonal) pair
    until ``gramian.factor_gramian`` factors it: no other code in the
    package tests for a tuple, and no module but ``gramian.py`` reads a
    private attribute of the blocks it returns."""
    gramian = ast.parse((PACKAGE / "gramian.py").read_text())
    private = {node.name for cls in gramian.body if isinstance(cls, ast.ClassDef)
               for node in ast.walk(cls) if isinstance(node, ast.FunctionDef)}
    private |= {node.attr for node in ast.walk(gramian)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    private = {name for name in private if name.startswith("_") and not _dunder(name)}
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for key, _, scope in _scopes(ast.parse(path.read_text())):
            for node in ast.walk(scope):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance"
                        and "tuple" in {n.id for n in ast.walk(node.args[1])
                                        if isinstance(n, ast.Name)}
                        and (path.name, key) != ("gramian.py", "factor_gramian")):
                    found.append(f"{path.name}:{node.lineno} isinstance tuple")
                if (isinstance(node, ast.Attribute) and node.attr in private
                        and path.name != "gramian.py"):
                    found.append(f"{path.name}:{node.lineno} {node.attr}")
    assert not found, f"the Gramian format read outside factor_gramian: {found}"
