"""Import hygiene: every name a package module imports is used in that module,
every definition is reached, and commands without quadrature leave scipy unloaded."""

import ast
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "multifinsler"
SCRIPTS = PACKAGE.parent.parent / "scripts"
PERFBENCH = PACKAGE.parent.parent / "perfbench"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in imported if name not in used)
    assert not unused, f"{path.name} imports unused names: {unused}"


def _module_level_private_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        yield name.id


def test_no_unreferenced_private_definitions():
    """Every module-level private def, class or assignment is read somewhere in the package."""
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(PACKAGE.glob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    dead = sorted(
        f"{stem}.{name}"
        for stem, tree in trees.items()
        for name in _module_level_private_names(tree)
        if name.startswith("_") and not name.startswith("__") and name not in read
    )
    assert not dead, f"private definitions nothing references: {dead}"


def test_no_unread_parameters():
    """Every parameter of a module-level package function is read in its body."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
            read = {n.id for stmt in node.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            unread += [f"{path.stem}.{node.name}({p})" for p in params if p not in read]
    assert not unread, f"parameters nothing reads: {unread}"


# Paper objects, oracles and methods that only tests call; each waits for a suite that
# checks it or for its move into tests/
TEST_ONLY_FUNCTIONS = {
    "connection.chern_connection",
    "connection.landsberg_berwald",
    "riemann.christoffels_and_spray",
    "riemann.MetricField.second_derivative",
    "finsler.RiemannianVerdict.effective_metric",
}


def _imported_from(tree, stem):
    """The names a tree imports from package module stem, relatively or by full name."""
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and (node.module == stem and node.level == 1 or node.module == f"multifinsler.{stem}")
            for alias in node.names}


def _attribute_reads(node):
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_public_function_is_reached():
    """Every public module-level function of the package is imported by another package
    module or by scripts/, or read in its own module outside its own body, and every
    public method of a package class is read as an attribute, by name, in a package
    module or a script outside its own body; except the test-only ones listed above,
    and the list names only such functions and methods.  The re-exports of __init__ do
    not count, and test_no_unused_imports keeps every import read."""
    trees = {p.stem: ast.parse(p.read_text()) for p in MODULES}
    importers = [*trees.values(), *(ast.parse(p.read_text()) for p in sorted(SCRIPTS.glob("*.py")))]
    attributes = sum((_attribute_reads(t) for t in importers), Counter())
    unreached = set()
    for stem, tree in trees.items():
        imported = set().union(*(_imported_from(t, stem) for t in importers))
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                unreached |= {f"{stem}.{node.name}.{f.name}" for f in node.body
                              if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")
                              and attributes[f.name] == _attribute_reads(f)[f.name]}
            if not isinstance(node, ast.FunctionDef) or node.name.startswith("_") or node.name in imported:
                continue
            rest = [n for n in tree.body if n is not node]
            if not any(isinstance(n, ast.Name) and n.id == node.name for r in rest for n in ast.walk(r)):
                unreached.add(f"{stem}.{node.name}")
    assert unreached == TEST_ONLY_FUNCTIONS, (
        f"reached by no command, suite or script: {sorted(unreached - TEST_ONLY_FUNCTIONS)}; "
        f"listed but reached: {sorted(TEST_ONLY_FUNCTIONS - unreached)}")


# The functions outside MetricField that evaluate its component tables: the sector data of
# the routes, the per-row tables of the 2D norm and spray kernels, the variational oracle's
# own stencil and a test-only oracle
COMPONENT_READERS = {
    "finsler.MultiMetricSpace._sector_data",
    "finsler.kernel_row",
    "connection._variational_spray_rows",
    "riemann.christoffels_and_spray",
}
COMPONENT_METHODS = {"evaluator", "value", "derivative", "second_derivative", "_evaluate", "spd_value"}


def test_metric_components_are_read_through_the_space():
    """Sector metric data at points comes from MultiMetricSpace; no other package function
    calls a MetricField evaluation method, except the ones listed above."""
    readers = set()
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            scopes = [node] if isinstance(node, ast.FunctionDef) else []
            if isinstance(node, ast.ClassDef) and node.name != "MetricField":
                scopes = [f for f in node.body if isinstance(f, ast.FunctionDef)]
            for scope in scopes:
                if any(isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                       and n.func.attr in COMPONENT_METHODS for n in ast.walk(scope)):
                    owner = f"{node.name}." if scope is not node else ""
                    readers.add(f"{path.stem}.{owner}{scope.name}")
    assert readers == COMPONENT_READERS, (
        f"new readers: {sorted(readers - COMPONENT_READERS)}; listed but gone: {sorted(COMPONENT_READERS - readers)}")


def test_geodesics_take_the_spray_and_the_norms_from_the_row_kernels():
    """geodesic.py takes G only through connection.spray_row, in the RK4 step of a ray, and
    the sector norms only through finsler.norm_row at each step's end and finsler.norm_rows
    in the action: it imports nothing else from connection, no other route to the norm
    from finsler, and reads no field of a connection or finsler state and no metric data
    of a space.  Only the ray loop of integrate_geodesic catches a per-sample error."""
    path = PACKAGE / "geodesic.py"
    tree = ast.parse(path.read_text())
    assert not [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level and not n.module]
    assert _imported_from(tree, "connection") == {"spray_row"}
    routes = {"connection_state", "finsler_state", "finsler_norm", "sector_norms", "kernel_row"}
    assert not _imported_from(tree, "finsler") & routes
    reads = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    assert not reads & {"G", "F_mu", "state", "metrics", "metric_values", "metric_derivatives"}

    def calls(name):
        return _scopes(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name,
                       [path])

    assert calls("spray_row") == {"geodesic._rk4_step"}
    assert calls("norm_row") == {"geodesic.integrate_geodesic"}
    assert calls("norm_rows") == {"geodesic.action_of_path"}

    def catches_sample_errors(n):
        return isinstance(n, ast.ExceptHandler) and any(
            isinstance(m, ast.Name) and m.id == "SAMPLE_ERRORS" for m in ast.walk(n.type or ast.Pass()))

    assert _scopes(catches_sample_errors, [path]) == {"geodesic.integrate_geodesic"}


def _scopes(match, paths):
    """Each scope ('module.function', 'module.Class.method', or 'module' at its top level)
    of the files paths that holds a node for which match is true."""
    scopes = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if match(child):
                scopes.add(scope)
            visit(child, scope)

    for path in paths:
        visit(ast.parse(path.read_text()), path.stem)
    return scopes


def _callers(attr, paths):
    """Each scope of the files paths that calls an attribute named attr."""
    return _scopes(lambda n: isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and n.func.attr == attr,
                   paths)


def test_metric_fields_are_built_by_parse_config_alone():
    """A config's metrics are parsed and symmetry-probed once, by parse_config, into the
    space the config carries; no other function of the package or a script builds them."""
    assert _callers("from_strings", [*MODULES, *sorted(SCRIPTS.glob("*.py"))]) == {"config.parse_config"}


def test_configs_are_parsed_by_the_cached_reader_alone():
    """parse_config is called by config._config_of_text alone, so every config of the
    package and its scripts comes through load_config's cache and no second, uncached
    path builds a space beside it."""
    def calls_parse_config(n):
        return isinstance(n, ast.Call) and (
            isinstance(n.func, ast.Name) and n.func.id == "parse_config"
            or isinstance(n.func, ast.Attribute) and n.func.attr == "parse_config")

    assert _scopes(calls_parse_config, [*MODULES, *sorted(SCRIPTS.glob("*.py"))]) == {"config._config_of_text"}


def test_the_norm_of_a_vector_is_written_once():
    """|v| comes from finsler.row_norm alone: no module calls numpy's norm, and only
    row_norm takes a dot product of a vector with itself."""
    norm_calls = {f"{path.stem}: {line.strip()}" for path in MODULES for line in path.read_text().splitlines()
                  if "linalg.norm" in line}
    assert not norm_calls, f"numpy norms outside row_norm: {sorted(norm_calls)}"

    def self_dot(n):
        return (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr in ("vecdot", "dot", "vdot", "inner") and len(n.args) == 2
                and ast.dump(n.args[0]) == ast.dump(n.args[1]))

    assert _scopes(self_dot, MODULES) == {"finsler.row_norm"}


def test_the_finite_difference_step_is_written_once():
    """The step base * (1 + |v|) comes from connection.fd_step alone, and dim2 imports no
    step constant, so its oracles take their steps from fd_step."""
    def one_plus_norm(n):
        return (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Add)
                and any(isinstance(a, ast.Call) and isinstance(a.func, ast.Name)
                        and a.func.id in ("row_norm", "step_norm") for a in (n.left, n.right)))

    assert _scopes(one_plus_norm, MODULES) == {"connection.fd_step"}
    dim2 = ast.parse((PACKAGE / "dim2.py").read_text())
    constants = sorted(alias.name for node in ast.walk(dim2) if isinstance(node, ast.ImportFrom)
                       for alias in node.names if alias.name.endswith("_STEP"))
    assert not constants, f"dim2 imports step constants: {constants}"


def test_the_central_stencil_is_built_once():
    """The points v + h e_i and v - h e_i are stacked by connection._stencil alone, which
    central_difference and the variational spray oracle share."""
    def plus_minus_stack(n):
        if not (isinstance(n, ast.Call) and n.args and isinstance(n.args[0], (ast.List, ast.Tuple))):
            return False
        terms = [(type(e.op), ast.dump(e.left), ast.dump(e.right)) for e in n.args[0].elts if isinstance(e, ast.BinOp)]
        return any((ast.Sub, left, right) in terms for op, left, right in terms if op is ast.Add)

    assert _scopes(plus_minus_stack, MODULES) == {"connection._stencil"}


def test_generated_code_is_compiled_by_the_emitter_alone():
    """The builtin compile runs in expr._Emitter.function alone, once per generated table."""
    def calls_compile(n):
        return isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "compile"

    assert _scopes(calls_compile, sorted(PACKAGE.glob("*.py"))) == {"expr._Emitter.function"}


# The process-level caches of the package, each with the traffic it serves.  A cache pays
# only where one process repeats a call; a new one is listed here with the repeats it
# serves and their measured cost.
PROCESS_CACHES = {
    "cli.build_parser": "in-process repeats of cli.main (the benchmark harness runs its items "
                        "in one process); a command-line run builds the parser once",
    "config._config_of_text": "in-process repeats of load_config on one file content (the "
                              "benchmark harness's items); a command-line run loads its config once",
}


def test_process_level_caches_are_the_listed_ones():
    """The functions of src/ that functools.cache or functools.lru_cache decorate are
    exactly the ones PROCESS_CACHES lists, and no module imports either by its bare name."""
    def functools_cache(n):
        return (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "functools"
                and n.attr in ("cache", "lru_cache"))

    paths = sorted(PACKAGE.glob("*.py"))
    bare = [f"{path.stem}: {alias.name}" for path in paths for n in ast.walk(ast.parse(path.read_text()))
            if isinstance(n, ast.ImportFrom) and n.module == "functools" for alias in n.names]
    assert not bare, f"functools names imported bare: {bare}"
    assert _scopes(functools_cache, paths) == set(PROCESS_CACHES)


def test_the_benchmark_names_resolve_in_the_package():
    """The methods and functions perfbench/tracer.py wraps by name (METHODS and
    EXTRA_FUNCTIONS), and the expr functions perfbench/run.py calls, exist in the
    package.  The tracer skips a missing target without a word, so a rename would
    drop its counters unnoticed."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)

    def module(layer):
        return importlib.import_module(f"multifinsler.{layer}")

    missing = [f"{layer}.{cls}.{meth}" for layer, cls, meth in tracer.METHODS
               if not inspect.isfunction(vars(getattr(module(layer), cls, object)).get(meth))]
    missing += [f"{layer}.{name}" for layer, name in tracer.EXTRA_FUNCTIONS
                if not inspect.isfunction(getattr(module(layer), name, None))]
    run = ast.parse((PERFBENCH / "run.py").read_text())
    expr_calls = {n.func.attr for n in ast.walk(run) if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                  and isinstance(n.func.value, ast.Name) and n.func.value.id == "expr"}
    assert expr_calls >= {"compile_expression", "parse_expression"}
    missing += [f"expr.{name}" for name in sorted(expr_calls) if not inspect.isfunction(getattr(module("expr"), name, None))]
    assert not missing, f"the benchmark names what the package lacks: {missing}"


def test_sample_and_validate_do_not_load_scipy_integrate(tmp_path):
    """scipy.integrate is imported where a quadrature runs, so a fresh interpreter
    that runs sample and validate never loads it."""
    config = str(PACKAGE.parent.parent / "configs" / "bimetric.json")
    code = "\n".join([
        "import json, sys",
        "from multifinsler.cli import main",
        f"assert main(['sample', '--config', {config!r}, '--grid', '1', '--directions', '1',"
        f" '--out', {str(tmp_path / 'sample.csv')!r}]) == 0",
        f"assert main(['validate', '--config', {config!r}, '--out', {str(tmp_path / 'valid.json')!r}]) == 0",
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "scipy.integrate" not in loaded, loaded


def test_geodesic_commands_do_not_load_scipy_integrate(tmp_path):
    """The action's Simpson rule is written out (geodesic.simpson_rows), so the geodesic
    command, the geodesics suite and the fan script, which all compute actions, never
    load scipy.integrate, about 50 MB resident."""
    config = str(PACKAGE.parent.parent / "configs" / "bimetric.json")
    code = "\n".join([
        "import json, runpy, sys",
        "from multifinsler.cli import main",
        f"assert main(['geodesic', '--config', {config!r}, '--t-end', '0.02', '--format', 'json',"
        f" '--out', {str(tmp_path / 'path.json')!r}]) == 0",
        f"assert main(['check', '--config', {config!r}, '--suite', 'geodesics',"
        f" '--out', {str(tmp_path / 'report.json')!r}]) == 0",
        f"sys.argv = ['geodesic_fan.py', {config!r}, '--rays', '2', '--t-end', '0.01',"
        f" '--out-dir', {str(tmp_path / 'fan')!r}]",
        f"runpy.run_path({str(SCRIPTS / 'geodesic_fan.py')!r}, run_name='__main__')",
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "scipy.integrate" not in loaded, loaded
