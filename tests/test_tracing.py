"""The benchmark tracer's bindings into the library.

``bench/tracing.py`` wraps about 35 library attributes, looked up by
name, for ``bench/run.py --trace 1``.  No other test runs it, so a
library change that unbinds a traced name would break the per-layer
benchmark silently; this test installs and uninstalls the tracer.  The
names it patches are also the only imports a library module may keep
without reading them.  The last test guards, by AST, the sampler's
independence of the exact walk that the chi-square tests rely on.
"""

from __future__ import annotations

import ast
import importlib.util
import inspect
import types
from pathlib import Path

import paritydistill
import paritydistill.cli

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_namespaces():
    """Every namespace the tracer patches, with a snapshot of its entries."""
    pd = paritydistill
    owners = [
        pd.qstate,
        pd.photonics,
        pd.protocol,
        pd.analytics,
        pd.cli,
        pd.qstate.DensityMatrix,
        pd.photonics.HeraldedPair,
        pd.protocol.SampleStats,
        pd.protocol.ExactTree,
    ]
    snapshot = [(owner, dict(vars(owner))) for owner in owners]
    snapshot.append((pd.cli._COMMANDS, dict(pd.cli._COMMANDS)))
    return snapshot


def changed(snapshot) -> set[tuple[int, str]]:
    out = set()
    for k, (owner, before) in enumerate(snapshot):
        now = owner if isinstance(owner, dict) else vars(owner)
        assert now.keys() == before.keys()
        out |= {(k, name) for name, value in now.items() if value is not before[name]}
    return out


def test_tracer_installs_and_restores_every_binding():
    tracing = load_tracing()
    snapshot = traced_namespaces()
    tracer = tracing.Tracer()
    try:
        tracer.install(paritydistill)
        patched = changed(snapshot)
        installed = len(tracer._patches)
    finally:
        tracer.uninstall()
    assert installed >= 35
    assert len(patched) == installed
    assert not changed(snapshot)


def test_tracer_counts_the_loop_jobs_tree(tmp_path):
    # the exact-loop job's tree work counts, which the benchmark requires
    # to repeat between jobs: its cap-12 tree at T = 1e-2 and the
    # chain-rate angle has 336 leaves in 324 (first parity, outcome
    # counts) classes, the two success leaves of a parity and depth
    # sharing one
    tracing = load_tracing()
    tracer = tracing.Tracer()
    argv = ["simulate", "--strategy", "loop", "--max-iterates", "12", "--t", "0.01"]
    argv += ["--trials", "100", "--outdir", str(tmp_path)]
    try:
        tracer.install(paritydistill)
        tracer.start_job(0)
        assert paritydistill.cli.main(argv) == 0
        metrics = tracer.job_metrics(0)
    finally:
        tracer.uninstall()
    [tree] = tracer.trees
    assert tree.cap == 12
    assert len(tree.leaves) == metrics["protocol.tree.leaves"] == 336
    assert tracing._count_classes(tree) == metrics["protocol.tree.count_classes"] == 324


def imported_but_unread(path: Path) -> set[str]:
    """Names a module binds by ``import`` and never loads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.partition(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return imported - read


def test_library_modules_read_every_import_the_tracer_does_not_patch():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    try:
        tracer.install(paritydistill)
        patched = {
            (owner.__name__, attr)
            for owner, attr, _ in tracer._patches
            if isinstance(owner, types.ModuleType)
        }
    finally:
        tracer.uninstall()
    package = Path(paritydistill.__file__).parent
    unread = {
        (f"paritydistill.{path.stem}", name)
        for path in package.glob("*.py")
        if path.name != "__init__.py"
        for name in imported_but_unread(path)
    }
    assert unread - patched == set()


def divisions_by_tau(path: Path) -> set[tuple[str, int]]:
    """(innermost enclosing function, line) of each ``/ tau`` or ``/ x.tau``."""
    found = set()

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            divisor = None
            if isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div):
                divisor = child.right
            elif isinstance(child, ast.AugAssign) and isinstance(child.op, ast.Div):
                divisor = child.value
            name = getattr(divisor, "id", None) or getattr(divisor, "attr", None)
            if name == "tau":
                found.add((where, child.lineno))
            visit(child, where)

    visit(ast.parse(path.read_text(), filename=str(path)), "<module>")
    return found


def test_only_the_photonics_helper_divides_by_tau():
    # every rate is per window, divided by tau last through one helper
    # that keeps one overflow rule; a bare division would bypass it
    package = Path(paritydistill.__file__).parent
    divisions = {
        (path.stem, where)
        for path in package.glob("*.py")
        for where, _ in divisions_by_tau(path)
    }
    assert divisions == {("photonics", "_per_tau")}


def definitions_reached(path: Path, roots: list[str], stop: frozenset = frozenset()) -> set[str]:
    """Every name the module-level definitions ``roots`` load, followed
    through the module's own functions and classes but those in ``stop``,
    which are reached and not followed."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {
        node.name: node
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        if name in defined and name not in stop:
            todo += [
                node.id
                for node in ast.walk(defined[name])
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            ]
    return reached


def test_the_sampler_reaches_no_exact_evaluator():
    # the chi-square tests pit the sampled cells against the exact walk,
    # which checks the sampler only while it shares no evaluator with the
    # walk: the two routes meet in the outcome masks and the success
    # fidelity law alone
    path = Path(paritydistill.protocol.__file__)
    sampler = definitions_reached(path, ["_run_tables", "_sample_chunk", "run_trajectories"])
    exact = definitions_reached(path, ["run_strategy_exact", "ExactTree"])
    evaluators = {"_walk", "_fold", "_first_passage", "_drop_light", "run_strategy_exact"}
    assert not sampler & (evaluators | {"ExactTree"})
    protocol = paritydistill.protocol
    shared = {
        name
        for name in sampler & exact
        if inspect.isfunction(value := getattr(protocol, name, None))
        and value.__module__ == protocol.__name__
    }
    assert shared == {"_outcome_masks", "_success_fidelities"}


def test_the_exact_statistics_never_walk():
    # a tree's statistics and the region grid come from the first-passage
    # law alone; the walk serves only ``ExactTree.leaves``, so the tree's
    # class is reached here but not followed
    path = Path(paritydistill.protocol.__file__)
    fold = definitions_reached(path, ["_fold", "run_strategy_exact"], frozenset({"ExactTree"}))
    assert "_first_passage" in fold and "ExactTree" in fold
    assert not fold & {"_walk", "_drop_light"}
    analytics = definitions_reached(
        Path(paritydistill.analytics.__file__), ["dark_count_fidelity_region"]
    )
    assert "_fold" in analytics and not analytics & {"_walk", "_drop_light", "run_strategy_exact"}
    # across src/ the one definition that loads the walk is the tree's class,
    # for its ``leaves`` of one broker: no route walks a stack
    walkers = set()
    for module in Path(paritydistill.__file__).parent.glob("*.py"):
        tree = ast.parse(module.read_text(), filename=str(module))
        names = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
        for name in names:
            if "_walk" in definitions_reached(module, [name], frozenset(names - {name})) - {name}:
                walkers.add((module.stem, name))
    assert walkers == {("protocol", "ExactTree")}
