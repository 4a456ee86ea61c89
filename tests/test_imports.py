"""Package modules import only from lower layers."""
import ast
import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import densiflock

# Lowest first; a module may import only from layers before its own.
LAYERS = [
    {"errors", "analytic"},
    {"domains"},
    {"dynamics"},
    {"graph"},
    {"integrate"},
    {"scenarios"},
    {"config"},
    {"experiments"},
    {"cli"},
]
RANK = {name: rank for rank, layer in enumerate(LAYERS) for name in layer}
PACKAGE = Path(densiflock.__file__).parent


def _runtime_imports(tree):
    """Package modules named by relative imports outside `if TYPE_CHECKING:` blocks."""
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and getattr(node.test, "id", None) == "TYPE_CHECKING":
            node.body = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module is None:  # from . import module
                yield from (alias.name for alias in node.names)
            else:
                yield node.module.split(".")[0]


def test_imports_point_to_lower_layers():
    upward = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":  # the facade re-exports every layer
            continue
        tree = ast.parse(path.read_text())
        for target in _runtime_imports(tree):
            if RANK[target] >= RANK[path.stem]:
                upward.append(f"{path.stem} -> {target}")
    assert RANK.keys() == {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert upward == []


UNREFERENCED_ALLOWED = {
    # The exact contact-loss times; the three-body event checks and the exact
    # regime map will be its production callers.
    "detach_times",
}


def _definitions(tree):
    """Every function and class in tree, methods as Class.method; dunder
    methods, which Python calls itself, aside."""
    methods = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            yield node.name
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"):
                    methods.add(item)
                    yield f"{node.name}.{item.name}"
        elif isinstance(node, ast.FunctionDef) and node not in methods:
            if not node.name.startswith("__"):
                yield node.name


def test_every_src_definition_has_a_src_reference():
    # Code that only tests call belongs in tests/ (an oracle there) or nowhere.
    references, defined = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                references.add(node.id)
            elif isinstance(node, ast.Attribute):
                references.add(node.attr)
        defined.extend(_definitions(tree))
    unreferenced = [
        name for name in defined
        if name.rsplit(".", 1)[-1] not in references and name not in UNREFERENCED_ALLOWED
    ]
    assert unreferenced == []


# Benchmark tracer targets whose code has moved or gone; the tracer records
# them as absent.  Every other target must resolve, so a refactor cannot drop
# a per-layer span unnoticed.
DEAD_TRACER_TARGETS = {
    "densiflock.domains:Domain.shortest_displacement",
    "densiflock.cli:build_digraph",
    "densiflock.cli:is_r_densely_packed",
    "densiflock.integrate:initial_state",
}


def test_benchmark_tracer_targets_resolve():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Tracer() as tracer:
        pass
    assert set(tracer.absent) <= DEAD_TRACER_TARGETS


def test_import_leaves_scipy_optimize_unloaded():
    # Only the analytic contact-loss root search needs it; every cold
    # `import densiflock` (the CLI, each sweep worker) would pay for it.
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r}); import densiflock; "
            "print('scipy.optimize' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# The oracle_n11 and observe_n64 benchmark configs, a cs run at N = 64, a di
# run at N = 200 and the di_scale_n2048 benchmark config at seeds 3 and 7331,
# each as config text.
DI_SCALE_N2048 = (
    "scenario = random_clusters\nmodel = di\nn = 2048\nm = 3\ndelta = 2.0\nkappa = 1.0\n"
    f"L = {25.0 * math.sqrt(32.0)!r}\nmargin = 2.0\ndt = 0.01\nt_end = 0.04\nsample_every = 4\n"
)
SPATIAL_RUNS = (
    "scenario = three_body\nmodel = di\nn = 10\nm = 3\ndelta = 8.7\nm_policy = constant\n"
    "beta = 7.5\ngamma = 8.75\nv_c = 1.0\ndt = 0.001\nt_end = 10.0\nsample_every = 100\n",
    "scenario = random_clusters\nmodel = di\nn = 64\nm = 3\ndelta = 2.0\nL = 25.0\n"
    "dt = 0.01\nt_end = 5.0\nsample_every = 1\nseed = 3\n",
    "scenario = random_clusters\nmodel = cs\nn = 64\nL = 25.0\n"
    "dt = 0.01\nt_end = 0.5\nsample_every = 10\nseed = 3\n",
    "scenario = random_clusters\nmodel = di\nn = 200\nm = 3\ndelta = 2.0\nL = 35.0\n"
    "dt = 0.01\nt_end = 0.02\nsample_every = 1\nseed = 3\n",
    DI_SCALE_N2048 + "seed = 3\n",
    DI_SCALE_N2048 + "seed = 7331\n",
)


def test_runs_leave_scipy_spatial_unloaded():
    # The di shell's cell list and the velocity diameter's cut replace the
    # kd-tree and the hull, so no run of these configs, at N = 2048 either,
    # loads scipy.spatial; the import, the small runs and the cs stages never
    # did.  The diameters above PAIR_DIAMETER_MAX_N points are still pdist's.
    code = f"""
import json, sys
sys.path.insert(0, {str(PACKAGE.parent)!r})
import densiflock, densiflock.cli
loaded, records = ["scipy.spatial" in sys.modules], []
for text in {SPATIAL_RUNS!r}:
    records.append(densiflock.run_simulation(densiflock.parse_config(text).spec))
    loaded.append("scipy.spatial" in sys.modules)
from scipy.spatial.distance import pdist
large = sorted({{
    (s.state.n, bool(s.vmax == pdist(s.state.velocities).max()))
    for record in records for s in record.samples if s.state.n > 128
}})
print(json.dumps([loaded, large]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert json.loads(out.stdout) == [[False] * 7, [[200, True], [2048, True]]]


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _call_scopes(tree, wanted, kind=ast.Call):
    """Name of the innermost function around each node of the kind (a call
    by default) for which wanted(node) holds; "<module>" at the top level."""
    owner = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            owner[child] = node
    for node in ast.walk(tree):
        if isinstance(node, kind) and wanted(node):
            scope = owner.get(node)
            while scope is not None and not isinstance(scope, FUNCTIONS):
                scope = owner.get(scope)
            yield scope.name if scope is not None else "<module>"


def _opens_to_write(call):
    """True for an open(...) or x.open(...) call whose mode writes."""
    name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
    if name != "open":
        return False
    # open(path, mode) takes the mode second; Path.open(mode) first.
    position = 1 if isinstance(call.func, ast.Name) else 0
    modes = call.args[position:position + 1] + [k.value for k in call.keywords if k.arg == "mode"]
    return any(isinstance(m, ast.Constant) and set(str(m.value)) & set("wax+") for m in modes)


def _scopes_in_package(wanted, kind=ast.Call):
    return [
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _call_scopes(ast.parse(path.read_text()), wanted, kind)
    ]


def test_every_output_file_is_written_by_one_row_writer():
    # One format rule (header line, `_fmt` cells, "\n" line ends) lives in
    # cli._write_rows; a new output file goes through it, not a copy of it.
    assert _scopes_in_package(_opens_to_write) == ["cli._write_rows"]


def test_only_the_fiedler_value_densifies_a_sparse_matrix():
    # One topology representation, CSR: the spectral gap needs its cluster's
    # dense block, and no other code turns a sparse matrix dense.
    def densifies(call):
        return getattr(call.func, "attr", None) in {"toarray", "todense"}

    assert _scopes_in_package(densifies) == ["graph.fiedler_value"]


def _raises_a_schedule_message(call):
    """True for a ConfigError(...) or ValueError(...) whose message, a plain
    or an f-string, starts with "dt must" or "sample_every must"."""
    if getattr(call.func, "id", None) not in {"ConfigError", "ValueError"} or not call.args:
        return False
    message = call.args[0]
    if isinstance(message, ast.JoinedStr) and message.values:
        message = message.values[0]
    return isinstance(message, ast.Constant) and str(message.value).startswith(
        ("dt must", "sample_every must")
    )


def test_only_step_count_checks_the_run_schedule():
    # One rule for a run's schedule: simulate and ScenarioSpec call
    # integrate.step_count, not copies of its dt and sample_every checks.
    assert set(_scopes_in_package(_raises_a_schedule_message)) == {"integrate.step_count"}


def test_integrate_asks_the_search_only_for_tables_and_idle_calls():
    # The search owns its half of the stretch rule (margin, slack, ref and
    # the rounding of its own displacement); integrate reads none of it.
    tree = ast.parse((PACKAGE / "integrate.py").read_text())
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "search"
    }
    assert read == {"table", "idle_calls"}


IMPORTS = (ast.Import, ast.ImportFrom)


def _imports_scipy_spatial(node):
    if isinstance(node, ast.ImportFrom):
        modules = [node.module or ""]
    else:
        modules = [alias.name for alias in node.names]
    return any(module.startswith("scipy.spatial") for module in modules)


def _imports_pdist(node):
    return isinstance(node, ast.ImportFrom) and node.module == "scipy.spatial.distance" and [
        alias.name for alias in node.names
    ] == ["pdist"]


def test_only_the_pdist_fallback_imports_scipy_spatial():
    # The shell's cell list and the diameter's cut keep scipy.spatial off the
    # run path; pdist stays the diameter's fallback for large survivor sets.
    assert (
        _scopes_in_package(_imports_scipy_spatial, IMPORTS)
        == _scopes_in_package(_imports_pdist, IMPORTS)
        == ["dynamics.velocity_diameter"]
    )
