"""Leftovers that no linter catches here: an import that its module never
uses, a private function or method that nothing calls, a public function,
method or property that only tests call, and a name in README.md that the
code no longer has.

The first two checks read the syntax trees only.  An import counts as
used when its name appears anywhere in its module (or in the module's
__all__); lines marked ``# noqa`` and ``from __future__`` imports are
exempt.  A private function counts as referenced when its name appears,
outside its own body, as a name, an attribute or a string in src/,
bench/*.py or tests/ (the benchmark patches some functions by their name
as a string).  A public top-level function must be named the same way in
src/ or bench/*.py: one that only tests call lives in those tests.  So must
a public method or property of a src/ class, as an attribute (obj.name)."""

import ast
import importlib
import re
from collections import Counter
from functools import reduce
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "baradapt"
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def names_in(tree) -> Counter:
    """Every identifier a tree mentions: names, attributes, imported names
    and strings that are identifiers."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rpartition(".")[2]] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found[node.value] += 1
    return found


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_syntax_holds_the_declared_python_floor(path):
    """pyproject.toml declares requires-python >= 3.10, and no interpreter
    that old may be at hand to run the suite: the parser, told to accept
    3.10's grammar only, rejects newer syntax such as except*."""
    floor = re.search(r'requires-python = ">=3\.(\d+)"',
                      (ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert floor and floor.group(1) == "10"
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    tree = parse(path)
    lines = path.read_text(encoding="utf-8").splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {bound}")
    assert not unused, f"unused imports: {unused}"


def name_counts(paths) -> Counter:
    return sum((names_in(parse(path)) for path in paths), Counter())


def attributes_in(tree) -> Counter:
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def unreferenced(functions, counts: Counter, found=names_in) -> list[str]:
    """'file:line name' of each (path, def) pair whose name counts holds
    nowhere outside the function's own body (a recursive call is no
    reference from outside); found counts the names of a tree."""
    return [f"{path.name}:{node.lineno} {node.name}" for path, node in functions
            if counts[node.name] - found(node)[node.name] <= 0]


def test_every_private_function_is_referenced():
    functions = [
        (path, node) for path in MODULES for node in ast.walk(parse(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    counts = name_counts([*MODULES, *(ROOT / "bench").glob("*.py"),
                          *(ROOT / "tests").glob("*.py")])
    missing = unreferenced(functions, counts)
    assert not missing, f"private functions nothing references: {missing}"


def test_every_public_function_is_used_outside_the_tests():
    """A public top-level function that only tests call belongs in those
    tests."""
    functions = [
        (path, node) for path in MODULES for node in parse(path).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]
    counts = name_counts([*MODULES, *(ROOT / "bench").glob("*.py")])
    missing = unreferenced(functions, counts)
    assert not missing, f"public functions only tests use: {missing}"


def test_every_public_member_is_used_outside_the_tests():
    """A public method or property of a src/ class must be reached as an
    attribute from src/ or bench/*.py; one that only tests call belongs in
    those tests, which may read the private state it wraps."""
    members = [
        (path, node) for path in MODULES for cls in parse(path).body
        if isinstance(cls, ast.ClassDef) for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    ]
    counts = sum((attributes_in(parse(path))
                  for path in [*MODULES, *(ROOT / "bench").glob("*.py")]), Counter())
    missing = unreferenced(members, counts, attributes_in)
    assert not missing, f"public methods and properties only tests use: {missing}"


def test_readme_names_resolve():
    """Every backticked dotted name in README.md whose head is a baradapt
    module or a class defined in src/ (`sim._compile`,
    `ConstraintGroup._slacks`) resolves by getattr."""
    heads = {}
    for path in MODULES:
        name = "baradapt" if path.stem == "__init__" else f"baradapt.{path.stem}"
        module = importlib.import_module(name)
        heads[name.rpartition(".")[2]] = module
        heads.update((node.name, getattr(module, node.name))
                     for node in parse(path).body if isinstance(node, ast.ClassDef))
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    missing = []
    for name in sorted(set(re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)", text))):
        head, *attrs = name.split(".")
        if head in heads:
            try:
                reduce(getattr, attrs, heads[head])
            except AttributeError:
                missing.append(name)
    assert not missing, f"README.md names what the code does not have: {missing}"


def own_number_checks(tree) -> list:
    """Nodes of tree that check a number by hand: isinstance(..., bool), any
    use of np.bool_, and a comparison with math.inf or np.inf."""
    def is_inf(node):
        return (isinstance(node, ast.Attribute) and node.attr == "inf"
                and isinstance(node.value, ast.Name) and node.value.id in ("math", "np"))

    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "isinstance" and len(node.args) == 2
        and any(isinstance(n, ast.Name) and n.id == "bool" for n in ast.walk(node.args[1]))
        or isinstance(node, ast.Attribute) and node.attr == "bool_"
        or isinstance(node, ast.Compare) and any(map(is_inf, [node.left, *node.comparators]))
    ]


def test_number_rules_live_in_errors():
    """A bool is no number and a gain is finite: errors._integral, _real and
    _vector say so once.  A module that writes its own bool or infinity
    check has a copy that can drift from them."""
    sites = sorted({(path.name, node.lineno) for path in MODULES if path.name != "errors.py"
                    for node in own_number_checks(parse(path))})
    assert not sites, f"number checks outside errors.py: {[f'{n}:{i}' for n, i in sites]}"


def test_cli_makes_directories_only_in_plan():
    """cli._plan checks every path a command writes before it makes any
    directory.  A mkdir elsewhere in cli.py could make one after a lane
    has run and written, and leave a half-written tree behind."""
    tree = parse(PACKAGE / "cli.py")
    [plan] = [node for node in tree.body
              if isinstance(node, ast.FunctionDef) and node.name == "_plan"]
    planned = set(map(id, ast.walk(plan)))
    stray = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("mkdir", "makedirs") and id(node) not in planned]
    assert not stray, f"cli.py makes directories outside _plan, at lines {stray}"


def test_lane_worker_catches_nothing():
    """A forked worker stops at the first lane that raises and sends
    nothing for it; cli._run_lanes runs that lane again in its own process,
    which raises the error with a serial run's traceback.  A handler in the
    worker would bring back a second path for a lane's error."""
    [worker] = [node for node in parse(PACKAGE / "cli.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "_lane_worker"]
    handlers = [node.lineno for node in ast.walk(worker) if isinstance(node, ast.ExceptHandler)]
    assert not handlers, f"cli._lane_worker catches errors, at lines {handlers}"


def test_noqa_reexports_name_the_bench_file_that_uses_them():
    """An import kept only for the benchmark (`# noqa: F401`) names in its
    comment the bench/<file>.py that wraps it, and that file mentions the
    name.  When the benchmark stops wrapping it, this names the re-export
    to delete."""
    stale = []
    for path in MODULES:
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.walk(parse(path)):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                line = lines[alias.lineno - 1]
                if "# noqa: F401" not in line:
                    continue
                bound = alias.asname or alias.name.partition(".")[0]
                named = re.search(r"bench/(\w+\.py)", line.partition("# noqa: F401")[2])
                user = ROOT / "bench" / named.group(1) if named else None
                if not (user and user.is_file() and names_in(parse(user))[bound]):
                    stale.append(f"{path.name}:{alias.lineno} {bound}")
    assert not stale, f"noqa re-exports no bench file uses: {stale}"


#: the functions of each module that an RK4 step runs through
STEP_PATH = {
    "sim.py": {"_attempt", "_step_flat", "rhs_flat", "_bind_stage"},
    "adaptation.py": {"_control", "_flow_terms", "_lambda_dot", "_project"},
    "barrier.py": {"_slacks", "_core"},
    "history.py": {"try_insert"},
}


def step_path_defs():
    """(module file name, function name, def node) of each STEP_PATH
    function, nested ones included in their parent's node."""
    found = []
    for name, wanted in STEP_PATH.items():
        defs = {node.name: node for node in ast.walk(parse(PACKAGE / name))
                if isinstance(node, ast.FunctionDef) and node.name in wanted}
        assert set(defs) == wanted, f"{name} lacks {sorted(wanted - set(defs))}"
        found += [(name, fn, body) for fn, body in defs.items()]
    return found


def test_step_path_takes_small_products_through_np_dot():
    """The dot product (ndarray.dot, np.dot's routine) gives `@`'s bits on
    the step path's small 1-D and 2-D products (tests/test_dispatch.py
    checks that) at a lower per-call cost.  A `@` written back into one of
    these functions undoes the rule in one place.  Stacked 3-D products,
    such as HistoryStack._recompute's, keep `@`: a dot means another
    product there."""
    sites = [f"{name}:{node.lineno} {fn}" for name, fn, body in step_path_defs()
             for node in ast.walk(body)
             if isinstance(node, (ast.BinOp, ast.AugAssign))
             and isinstance(node.op, ast.MatMult)]
    assert not sites, f"`@` on the step path, where a.dot(b) is the rule: {sites}"


def test_step_path_calls_no_numpy_dispatcher_and_reads_no_law_member_per_stage():
    """np.dot, np.vdot and np.argmax pay numpy's __array_function__
    dispatch on every call before they reach the routine that the ndarray
    methods a.dot(b) and a.argmax() call directly, for the same result
    (tests/test_dispatch.py checks the bits); np.vdot(Y, Y) is
    Y.ravel().dot(Y.ravel()).  And the nested stage and flow, which run
    four times a step, bind every UpdateLaw member they test outside
    themselves: UpdateLaw.<member> is a class attribute lookup per call."""
    sites = [f"{name}:{node.lineno} {fn}" for name, fn, body in step_path_defs()
             for node in ast.walk(body)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in ("dot", "vdot", "argmax")
             and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"]
    assert not sites, f"numpy dispatchers on the step path, where methods are the rule: {sites}"
    nested = [(name, node) for name in ("sim.py", "adaptation.py")
              for node in ast.walk(parse(PACKAGE / name))
              if isinstance(node, ast.FunctionDef) and node.name in ("stage", "flow")]
    assert sorted(node.name for _, node in nested) == ["flow", "stage"]
    loads = [f"{name}:{node.lineno} {fn.name}" for name, fn in nested for node in ast.walk(fn)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "UpdateLaw"]
    assert not loads, f"UpdateLaw members read on every stage: {loads}"


def test_the_stage_alone_follows_the_stack():
    """The active law depends on the stack alone, and the bound stage
    refreshes it, with the memory terms, at the first call after a stack
    change.  A refresh or a revision test written back into the run loop
    or rk4_step is a second owner that can drift from the first."""
    defs = {node.name: node for node in ast.walk(parse(PACKAGE / "sim.py"))
            if isinstance(node, ast.FunctionDef)}

    def reads(name):
        return {node.attr for node in ast.walk(defs[name]) if isinstance(node, ast.Attribute)}

    assert {"refresh_active_law", "_revision"} <= reads("_bind_stage")
    for name in ("run_scenario", "rk4_step"):
        assert not {"refresh_active_law", "_revision"} & reads(name), name


def test_cli_imports_no_private_name():
    """cli starts every command from a canonical config, so it needs no
    module's private helpers to read raw input."""
    private = [f"{node.module}.{alias.name}" for node in ast.walk(parse(PACKAGE / "cli.py"))
               if isinstance(node, ast.ImportFrom)
               and (node.level > 0 or node.module.partition(".")[0] == "baradapt")
               for alias in node.names if alias.name.startswith("_")]
    assert not private, f"cli imports private names: {private}"
