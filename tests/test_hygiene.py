"""Source hygiene: every name a module imports is used in that module,
every local a function assigns is read by that function, every
parameter of a package function is read by it, the package holds no
assert statement, every gateway method that charges rounds is
counted by the tests' spy, every instance kind and test fake speaks
the same three-method protocol, the continuous driver reads only the
oracle protocol MultilinearOracle answers, and every package name the
benchmark hooks into still exists.

The checks walk the AST of the package and of the tests.  An imported
name counts as used when the module reads it anywhere (an attribute
chain such as np.zeros reads np) or lists it in __all__, which is how
the package re-exports its public names.
"""

import ast
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "subpar").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    """Names bound by the imports in `source` that it never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_unused_imports_detected():
    src = "import math\nimport numpy as np\nfrom os import path, sep\n__all__ = ['sep']\nnp.zeros(1)\n"
    assert unused_imports(src) == ["math", "path"]


def test_no_unused_imports():
    found = [f"{p.relative_to(ROOT)}: {name}"
             for p in SOURCES for name in unused_imports(p.read_text())]
    assert not found, "unused imports:\n" + "\n".join(found)


def _own_scope(fn):
    """Every node of a function body outside its nested functions and classes."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def dead_locals(source):
    """`function: name` for each `name = expr` in a function body whose
    function, nested functions included, never reads that name.  An
    assignment in a class body nested in a function binds an attribute,
    not a local, and is not checked."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                read.add(node.target.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                read.update(node.names)
        found.extend(f"{fn.name}: {node.targets[0].id}" for node in _own_scope(fn)
                     if isinstance(node, ast.Assign) and len(node.targets) == 1
                     and isinstance(node.targets[0], ast.Name)
                     and node.targets[0].id not in read)
    return sorted(found)


def test_dead_locals_detected():
    src = ("def f(a):\n"
           "    k = a.size\n"
           "    n = a.n\n"
           "    t = 0\n"
           "    t += 1\n"
           "    def g():\n"
           "        return n\n"
           "    class Spy:\n"
           "        m = 1\n"
           "    return g, Spy\n")
    assert dead_locals(src) == ["f: k"]


def test_no_dead_locals():
    found = [f"{p.relative_to(ROOT)}: {site}"
             for p in SOURCES for site in dead_locals(p.read_text())]
    assert not found, "locals assigned and never read:\n" + "\n".join(found)


def dead_params(source):
    """`function: name` for each parameter that its function, nested
    functions included, never reads; self, cls and _-prefixed names are
    exempt."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {node.id for node in ast.walk(fn)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        found.extend(f"{fn.name}: {p.arg}" for p in params
                     if p.arg not in read and p.arg not in ("self", "cls")
                     and not p.arg.startswith("_"))
    return sorted(found)


def test_dead_params_detected():
    src = ("class C:\n"
           "    def m(self, cls, _spare, used, unused, *rest, flag=1, **kw):\n"
           "        def g():\n"
           "            return used, kw\n"
           "        return g\n")
    assert dead_params(src) == ["m: flag", "m: rest", "m: unused"]


def test_no_dead_params_in_package():
    found = [f"{p.relative_to(ROOT)}: {site}"
             for p in PACKAGE for site in dead_params(p.read_text())]
    assert not found, "parameters never read:\n" + "\n".join(found)


def test_no_asserts_in_package():
    # python -O strips assert statements; a check must raise a typed error
    found = [f"{p.relative_to(ROOT)}:{node.lineno}"
             for p in PACKAGE
             for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.Assert)]
    assert not found, "assert statements:\n" + "\n".join(found)


def test_spy_counts_every_charging_gateway_method():
    # the round audits compare the accounting with SpySetOracle's counts;
    # a public entry point the spy does not override would slip past them
    from conftest import SpySetOracle
    from subpar import SetOracle
    charging = [name for name, fn in vars(SetOracle).items()
                if not name.startswith("_") and callable(fn)
                and "self.accounting.charge(" in inspect.getsource(fn)]
    assert {"eval_batch", "eval_gains", "eval_marginals", "eval_extension"} <= set(charging)
    missing = [name for name in charging if name not in vars(SpySetOracle)]
    assert not missing, f"SpySetOracle does not count: {missing}"
    # an override must take every argument the gateway method takes
    drift = [name for name in charging
             if inspect.signature(getattr(SpySetOracle, name))
             != inspect.signature(getattr(SetOracle, name))]
    assert not drift, f"SpySetOracle signatures differ: {drift}"


INSTANCE_PROTOCOL = {"evaluate_batch", "value_batch", "gradient_batch"}


def test_instances_speak_one_protocol():
    # f at 0/1 rows, F and its gradient at float points: a marginal is the
    # gradient at a vertex, so a kind that grows another closed form of
    # it, by any name, fails here
    from subpar import CoverageInstance, CutInstance, MultilinearQuadraticInstance
    from test_oracles import PoisonedInstance
    for cls in (CutInstance, CoverageInstance, MultilinearQuadraticInstance, PoisonedInstance):
        public = {name for name, fn in vars(cls).items()
                  if callable(fn) and not name.startswith("_")} - {"to_json_dict"}
        assert public == INSTANCE_PROTOCOL, f"{cls.__name__}: {sorted(public)}"
    # the gateway reads the instance through those three methods and n
    tree = ast.parse((ROOT / "src" / "subpar" / "oracles.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "instance"
            and isinstance(node.value.value, ast.Name) and node.value.value.id == "self"}
    assert read == INSTANCE_PROTOCOL | {"n"}, sorted(read)


ORACLE_PROTOCOL = {"n", "value_batch", "gradient_batch", "grad_and_value_batch",
                   "rounds_meter"}


def test_the_continuous_driver_reads_one_oracle_protocol():
    # no base class states what the core loop reads of its oracle, so a
    # read of anything else (the mode, the set oracle) fails here, and a
    # MultilinearOracle, the only oracle the drivers build, answers it all
    from subpar import CutInstance, MultilinearOracle, SetOracle
    tree = ast.parse((ROOT / "src" / "subpar" / "continuous.py").read_text())
    read = {node.attr for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and fn.name in ("pre_process", "update", "run_core")
            for node in ast.walk(fn)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "oracle"}
    assert read == ORACLE_PROTOCOL, sorted(read)
    oracle = MultilinearOracle(SetOracle(CutInstance(2, [])), mode="direct")
    missing = [name for name in ORACLE_PROTOCOL if not hasattr(oracle, name)]
    assert not missing, missing


def test_benchmark_hooks_resolve():
    # perfbench wraps ENTRY_POINTS by name and imports names from subpar;
    # a rename would otherwise surface only when the benchmark runs
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)         # stdlib only: it imports no subpar
    for layer, owner_path, attr in spans.ENTRY_POINTS:
        mod_path, _, name = owner_path.rpartition(".")
        owner = getattr(importlib.import_module(mod_path), name)
        assert callable(getattr(owner, attr, None)), f"{owner_path}.{attr}"
        if layer in ("oracles", "instances"):     # wrapped as fn(self, rows)
            inspect.signature(getattr(owner, attr)).bind(None, None)
    tree = ast.parse((ROOT / "perfbench" / "workloads.py").read_text())
    names = [a.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "subpar"
             for a in node.names]
    subpar = importlib.import_module("subpar")
    missing = [name for name in names if not hasattr(subpar, name)]
    assert names and not missing, f"not in subpar: {missing}"
    # every call the benchmark makes into subpar still binds: the same
    # number of positional arguments and the same keyword names
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in names]
    assert {c.func.id for c in calls} >= {"MultilinearOracle", "run_continuous",
                                          "run_discrete", "DiscreteParams",
                                          "generate_random_instance"}
    for call in calls:
        args = [None] * len(call.args)
        kwargs = {kw.arg: None for kw in call.keywords}
        try:
            inspect.signature(getattr(subpar, call.func.id)).bind(*args, **kwargs)
        except TypeError as e:
            raise AssertionError(f"perfbench/workloads.py:{call.lineno} "
                                 f"{ast.unparse(call)}: {e}") from None
    assert callable(importlib.import_module("subpar.oracles").default_threads)
