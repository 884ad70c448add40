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
    """``repro.machine`` (including the typed-device module) is the
    substrate every layer builds on; it must not import the simulator,
    formulations, runtimes, or the scenario/experiment layers.  Only the
    cross-cutting observability package is allowed upward."""
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
