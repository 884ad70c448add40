"""PolicyRegistry: built-in entries, config resolution, error paths."""

import pytest

from repro.runtime import (
    ConductorConfig,
    ConductorPolicy,
    ConfigSearchPolicy,
    DvfsEnergyPolicy,
    StaticPolicy,
)
from repro.scenarios.registry import (
    BoundResult,
    PolicyEntry,
    PolicyRegistry,
    default_registry,
)


class TestDefaultRegistry:
    def test_all_builtins_registered(self):
        reg = default_registry()
        assert reg.names() == [
            "adagio", "conductor", "config-search", "dvfs-energy",
            "energy-lp", "flow-ilp", "lp", "selection-only", "static",
        ]

    def test_singleton(self):
        assert default_registry() is default_registry()

    def test_runtime_entries_carry_policy_classes(self):
        reg = default_registry()
        assert reg.get("static").policy_class is StaticPolicy
        assert reg.get("conductor").policy_class is ConductorPolicy
        # Adagio and selection-only are Conductor configurations.
        assert reg.get("adagio").policy_class is ConductorPolicy
        assert reg.get("selection-only").policy_class is ConductorPolicy
        assert reg.get("dvfs-energy").policy_class is DvfsEnergyPolicy
        assert reg.get("config-search").policy_class is ConfigSearchPolicy

    def test_kinds(self):
        reg = default_registry()
        for name in ("static", "conductor", "adagio", "selection-only",
                     "dvfs-energy", "config-search"):
            assert reg.get(name).kind == "runtime"
        for name in ("lp", "flow-ilp", "energy-lp"):
            assert reg.get(name).kind == "bound"

    def test_measurement_windows(self):
        reg = default_registry()
        # Non-adaptive policies measure after the discard window.
        for fixed in ("static", "config-search"):
            assert reg.get(fixed).measure == "discard"
        for adaptive in ("conductor", "adagio", "selection-only",
                         "dvfs-energy"):
            assert reg.get(adaptive).measure == "steady"

    def test_conductor_defaults_match_config_dataclass(self):
        import dataclasses

        entry = default_registry().get("conductor")
        assert entry.default_config == dataclasses.asdict(ConductorConfig())

    def test_unknown_name_names_the_registry(self):
        with pytest.raises(KeyError, match="registered"):
            default_registry().get("magic")

    def test_contains_and_len(self):
        reg = default_registry()
        assert "lp" in reg and "magic" not in reg
        assert len(reg) == 9


class TestConfigResolution:
    def test_defaults_returned_untouched(self):
        entry = default_registry().get("lp")
        cfg = entry.resolve_config(None)
        assert cfg == entry.default_config
        assert cfg is not entry.default_config  # caller-safe copy

    def test_overrides_merge(self):
        entry = default_registry().get("conductor")
        cfg = entry.resolve_config({"step_w": 5.0})
        assert cfg["step_w"] == 5.0
        assert cfg["realloc_period"] == ConductorConfig().realloc_period

    def test_unknown_keys_rejected(self):
        entry = default_registry().get("static")
        with pytest.raises(ValueError, match="unknown config keys"):
            entry.resolve_config({"not_a_knob": 1})


class TestRegistryMechanics:
    def test_duplicate_registration_rejected(self):
        reg = PolicyRegistry()
        entry = PolicyEntry(
            name="x", kind="bound", summary="s", default_config={},
            solve=lambda ctx, cfg, scope: BoundResult(time_s=1.0),
        )
        reg.register(entry)
        with pytest.raises(ValueError, match="already registered"):
            reg.register(entry)

    def test_entry_validation(self):
        with pytest.raises(ValueError, match="kind"):
            PolicyEntry(name="x", kind="nope", summary="s", default_config={})
        with pytest.raises(ValueError, match="build"):
            PolicyEntry(name="x", kind="runtime", summary="s", default_config={})
        with pytest.raises(ValueError, match="solve"):
            PolicyEntry(name="x", kind="bound", summary="s", default_config={})
        with pytest.raises(ValueError, match="measure"):
            PolicyEntry(
                name="x", kind="runtime", summary="s", default_config={},
                measure="sometimes", build=lambda ctx, cfg: None,
            )

    def test_entries_in_registration_order(self):
        names = [e.name for e in default_registry().entries()]
        assert names[0] == "static"  # the paper's baseline registers first
        assert sorted(names) == default_registry().names()
