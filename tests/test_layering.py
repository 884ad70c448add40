"""Layering guards: no module reaches into another module's privates.

The energy LP used to import ``_extract_schedule`` from
``fixed_order_lp`` — a private helper crossing a module boundary, which
is how formulation internals leak into each other.  Schedule extraction
is public now (:func:`repro.core.model.extract_schedule`); this test
keeps the door shut by walking every module under ``src/repro`` and
rejecting any ``from X import _private`` whose target is a leading
underscore name (dunders excluded) and whose source is another repro
module — relative imports or absolute ``repro.*`` ones.  Imports of
private names from *external* packages (e.g. the guarded use of SciPy's
bundled HiGHS bindings in ``core/solver.py``) are a dependency-pinning
concern, not a layering one, and are left to code review.

The module also keeps the consumer guard: every module under
``src/repro`` must be reached by a static import walk from the
``repro-experiments`` entry point, perfbench or a benchmark claim.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def _private_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (
            node.module is not None
            and (node.module == "repro" or node.module.startswith("repro."))
        )
        if not internal:
            continue
        for alias in node.names:
            name = alias.name
            if name.startswith("_") and not (
                name.startswith("__") and name.endswith("__")
            ):
                where = (
                    path.relative_to(SRC.parent)
                    if path.is_relative_to(SRC.parent)
                    else path
                )
                bad.append(
                    f"{where}:{node.lineno}: "
                    f"from {'.' * node.level}{node.module or ''} import {name}"
                )
    return bad


def test_no_cross_module_private_imports():
    assert SRC.is_dir(), SRC
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        offenders.extend(_private_imports(path))
    assert not offenders, (
        "private names imported across module boundaries:\n"
        + "\n".join(offenders)
    )


def test_guard_catches_the_original_offense(tmp_path):
    # The exact import this guard exists to prevent must trip it.
    mod = tmp_path / "offender.py"
    mod.write_text("from .fixed_order_lp import _extract_schedule\n")
    assert _private_imports(mod)


def test_guard_catches_absolute_repro_imports(tmp_path):
    mod = tmp_path / "offender.py"
    mod.write_text("from repro.core.fixed_order_lp import _extract_schedule\n")
    assert _private_imports(mod)


def test_guard_allows_dunder_public_and_external(tmp_path):
    mod = tmp_path / "fine.py"
    mod.write_text(
        "from __future__ import annotations\n"
        "from .model import extract_schedule\n"
        "from scipy.optimize._highspy import _core\n"
    )
    assert not _private_imports(mod)


def test_every_runtime_policy_is_registered():
    """Every policy class exported by ``repro.runtime`` has a scenario
    registry entry whose ``policy_class`` matches — a new runtime cannot
    silently stay unreachable from the CLI/scenario layer."""
    import repro.runtime as runtime
    from repro.scenarios.registry import default_registry

    registry = default_registry()
    registered = {
        e.policy_class for e in registry.entries() if e.policy_class is not None
    }
    missing = [
        name
        for name in runtime.__all__
        if name.endswith("Policy")
        and isinstance(getattr(runtime, name), type)
        and getattr(runtime, name) not in registered
    ]
    assert not missing, (
        f"runtime policies with no scenario registry entry: {missing}; "
        "register them in repro/scenarios/registry.py"
    )


def test_machine_layer_stays_at_the_bottom():
    """``repro.machine`` is the substrate every layer builds on; it must
    not import the simulator, formulations, runtimes, or the
    scenario/experiment layers.  Only the cross-cutting observability
    package is allowed upward."""
    upper = (
        "simulator", "core", "scenarios", "exec", "experiments",
        "runtime", "workloads", "dag",
    )
    offenders = []
    for path in sorted((SRC / "machine").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            mod = getattr(node, "module", None)
            names = []
            if isinstance(node, ast.ImportFrom) and mod:
                # Resolve relative imports: level 2 ("..core") escapes
                # the machine package into another repro subpackage.
                names = [mod] if node.level != 1 else []
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            for name in names:
                parts = name.split(".")
                if any(p in upper for p in parts):
                    offenders.append(f"{path.name}:{node.lineno}: {name}")
    assert not offenders, (
        f"repro.machine imports an upper layer: {offenders}"
    )


def test_exec_does_not_import_scenarios():
    """``repro.exec`` sits below the scenario layer: cell keys take the
    spec hash as a plain argument, never the spec object."""
    offenders = []
    for path in sorted((SRC / "exec").rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            mod = getattr(node, "module", None)
            if isinstance(node, ast.ImportFrom) and mod and "scenarios" in mod:
                offenders.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.Import) and any(
                "scenarios" in a.name for a in node.names
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"repro.exec imports the scenario layer: {offenders}"


def _test_imports(path: Path) -> list[str]:
    """``import tests...`` / ``from tests... import`` lines in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bad = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        else:
            continue
        if any(n == "tests" or n.startswith("tests.") for n in names):
            bad.append(f"{path.name}:{node.lineno}")
    return bad


def test_product_does_not_import_tests():
    """The scalar oracles live under ``tests/``; the product must never
    reach back for them (``tests`` is not shipped with the package)."""
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        offenders.extend(_test_imports(path))
    assert not offenders, f"src/repro imports from tests: {offenders}"


def test_test_import_guard_trips(tmp_path):
    mod = tmp_path / "offender.py"
    mod.write_text(
        "import numpy\n"
        "from tests.simulator.oracles import run_scalar\n"
        "import tests.simulator.oracles as o\n"
        "from testsuite import x\n"
    )
    assert _test_imports(mod) == ["offender.py:2", "offender.py:3"]


# ----------------------------------------------------------------------
# Consumer guard: every module has a consumer in the product.

REPO = SRC.parent.parent

#: Modules allowed to stay without a consumer, each with the reason.
NO_CONSUMER_YET = {
    "repro.core.validate_schedule": (
        "names the constraint a schedule breaks; its consumer is the "
        "per-cell bound check on the ROADMAP"
    ),
}


def _modules() -> dict[str, Path]:
    out = {}
    for path in SRC.rglob("*.py"):
        parts = list(path.relative_to(SRC.parent).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts.pop()
        out[".".join(parts)] = path
    return out


class _ImportGraph:
    """Static ``import`` / ``from ... import`` graph of ``src/repro``.

    A name imported from a package resolves to the submodule that
    defines it: through the package ``__init__``'s own ``from .x import
    name`` re-exports, else to the submodules defining ``name`` at top
    level (``repro.exec`` exports lazily through ``__getattr__``).  So
    ``from repro.core import solve_fixed_order_lp`` reaches
    ``repro.core.fixed_order_lp`` and nothing else the package imports.
    """

    def __init__(self) -> None:
        self.paths = _modules()
        self.trees = {
            m: ast.parse(p.read_text(), filename=str(p))
            for m, p in self.paths.items()
        }

    def is_package(self, module: str) -> bool:
        return self.paths[module].name == "__init__.py"

    def _absolute(self, module: str | None, node: ast.ImportFrom) -> str | None:
        if node.level == 0:
            return node.module
        base = module if self.is_package(module) else module.rpartition(".")[0]
        for _ in range(node.level - 1):
            base = base.rpartition(".")[0]
        return f"{base}.{node.module}" if node.module else base

    def _defines(self, module: str, name: str) -> bool:
        for node in self.trees[module].body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if node.name == name:
                    return True
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name) and n.id == name:
                            return True
        return False

    def resolve(self, package: str, name: str) -> set[str]:
        """The modules ``from package import name`` reaches."""
        if f"{package}.{name}" in self.paths:
            return {f"{package}.{name}"}
        for node in self.trees[package].body:
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                if (alias.asname or alias.name) != name:
                    continue
                source = self._absolute(package, node)
                if source not in self.paths:
                    return set()
                if self.is_package(source):
                    return self.resolve(source, alias.name)
                return {source}
        return {
            m
            for m in self.paths
            if m.startswith(package + ".")
            and not self.is_package(m)
            and self._defines(m, name)
        }

    def imports(self, tree: ast.AST, module: str | None = None) -> set[str]:
        """Modules of ``src/repro`` that ``tree`` imports anywhere in it."""
        out: set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                out.update(a.name for a in node.names if a.name in self.paths)
            elif isinstance(node, ast.ImportFrom):
                source = self._absolute(module, node)
                if source not in self.paths:
                    continue
                if self.is_package(source):
                    for alias in node.names:
                        out |= self.resolve(source, alias.name)
                else:
                    out.add(source)
        return out

    def reached_from(self, roots: set[str]) -> set[str]:
        reached: set[str] = set()
        todo = list(roots)
        while todo:
            module = todo.pop()
            if module in reached:
                continue
            reached.add(module)
            todo.extend(self.imports(self.trees[module], module) - reached)
        return reached


def _consumer_roots(graph: _ImportGraph) -> set[str]:
    """The CLI entry point plus what perfbench and the benchmark
    claims import."""
    roots = {"repro.experiments.cli"}
    for pattern in ("perfbench/*.py", "benchmarks/test_bench_*.py"):
        for path in sorted(REPO.glob(pattern)):
            roots |= graph.imports(ast.parse(path.read_text(), filename=str(path)))
    return roots


def test_every_module_has_a_consumer():
    """Every module under ``src/repro`` is reached from the
    ``repro-experiments`` entry point, perfbench or a
    ``benchmarks/test_bench_*`` claim, not only from its own tests."""
    graph = _ImportGraph()
    reached = graph.reached_from(_consumer_roots(graph))
    orphans = sorted(
        m
        for m in graph.paths
        if not graph.is_package(m) and m not in reached and m not in NO_CONSUMER_YET
    )
    assert not orphans, (
        "modules no entry point, perfbench or benchmark claim imports: "
        f"{orphans}; give each a consumer or delete it"
    )
    stale = sorted(m for m in NO_CONSUMER_YET if m in reached or m not in graph.paths)
    assert not stale, f"allowlisted modules that have a consumer or are gone: {stale}"


def test_consumer_graph_resolves_through_packages():
    graph = _ImportGraph()
    tree = ast.parse(
        "from repro.core import solve_fixed_order_lp\n"
        "from repro.exec import ParallelRunner\n"
        "from repro.scenarios import run\n"
    )
    assert graph.imports(tree) == {
        "repro.core.fixed_order_lp",
        "repro.exec.parallel",
        "repro.scenarios.run",
    }
