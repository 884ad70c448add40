"""Property-based tests for scenario specs and the policy registry."""

import dataclasses

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.exec.keys import digest, scenario_cell_key
from repro.scenarios.registry import default_registry
from repro.scenarios.spec import (
    SCENARIO_BENCHMARKS,
    SCENARIO_LAYER_VERSION,
    PolicySpec,
    ScenarioSpec,
)

registry_names = st.sampled_from(default_registry().names())

policy_specs = st.builds(
    PolicySpec,
    policy=registry_names,
    name=st.one_of(
        st.none(),
        st.text(
            alphabet=st.characters(whitelist_categories=("Ll", "Nd")),
            min_size=1, max_size=12,
        ),
    ),
    config=st.dictionaries(
        st.sampled_from(["a", "b", "c"]),
        st.one_of(st.integers(-10, 10), st.floats(0.1, 9.9), st.booleans()),
        max_size=2,
    ),
)


@st.composite
def scenario_specs(draw):
    """Valid scenario specs: distinct labels, coherent windows."""
    policies = draw(
        st.lists(policy_specs, min_size=1, max_size=4,
                 unique_by=lambda p: p.label)
    )
    run_iters = draw(st.integers(4, 24))
    discard = draw(st.integers(0, run_iters - 1))
    steady = draw(st.integers(1, run_iters - discard))
    return ScenarioSpec(
        benchmark=draw(st.sampled_from(sorted(SCENARIO_BENCHMARKS))),
        caps_per_socket_w=tuple(
            draw(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=5,
                          unique=True))
        ),
        policies=tuple(policies),
        n_ranks=draw(st.integers(1, 16)),
        run_iterations=run_iters,
        lp_iterations=draw(st.integers(1, 8)),
        discard_iterations=discard,
        steady_window=steady,
        seed=draw(st.integers(0, 2**31 - 1)),
        efficiency_seed=draw(st.integers(0, 2**31 - 1)),
        efficiency_sigma=draw(st.floats(0.0, 0.2)),
    )


class TestSpecProperties:
    @given(spec=scenario_specs())
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_identity(self, spec):
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()

    @given(spec=scenario_specs())
    @settings(max_examples=60, deadline=None)
    def test_hashes_deterministic_and_consistent(self, spec):
        again = ScenarioSpec.from_json(spec.to_json())
        assert again.spec_hash() == spec.spec_hash()
        assert again.cell_hash() == spec.cell_hash()

    @given(
        spec=scenario_specs(),
        seed=st.integers(0, 2**31 - 1),
        cap=st.floats(1.0, 100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_kept_hashes_are_the_document_digests(self, spec, seed, cap):
        def assert_digests(s):
            cell_doc = s.to_doc()
            del cell_doc["caps_per_socket_w"]
            for _ in range(2):  # computed, then kept
                assert s.spec_hash() == digest(s.to_doc())
                assert s.cell_hash() == digest(cell_doc)
                assert s.cell_key(cap) == scenario_cell_key(
                    digest(cell_doc), cap, SCENARIO_LAYER_VERSION
                )

        assert_digests(spec)
        # New instances hash their own documents, not the kept digests.
        reseeded = dataclasses.replace(spec, seed=seed)
        assert_digests(reseeded)
        if seed != spec.seed:
            assert reseeded.spec_hash() != spec.spec_hash()
            assert reseeded.cell_hash() != spec.cell_hash()
            assert reseeded.cell_key(cap) != spec.cell_key(cap)
        regridded = dataclasses.replace(
            spec, caps_per_socket_w=spec.caps_per_socket_w + (cap + 100.0,)
        )
        assert_digests(regridded)
        assert regridded.spec_hash() != spec.spec_hash()
        assert regridded.cell_key(cap) == spec.cell_key(cap)
        assert_digests(ScenarioSpec.from_json(reseeded.to_json()))

    @given(spec=scenario_specs(), extra_cap=st.floats(101.0, 200.0))
    @settings(max_examples=60, deadline=None)
    def test_cell_hash_invariant_under_grid_extension(self, spec, extra_cap):
        doc = spec.to_doc()
        doc["caps_per_socket_w"] = doc["caps_per_socket_w"] + [extra_cap]
        wider = ScenarioSpec.from_doc(doc)
        assert wider.cell_hash() == spec.cell_hash()
        assert wider.spec_hash() != spec.spec_hash()

    @given(spec=scenario_specs())
    @settings(max_examples=60, deadline=None)
    def test_labels_unique_and_ordered(self, spec):
        labels = spec.policy_labels()
        assert len(labels) == len(set(labels))
        assert labels == [p.label for p in spec.policies]


class TestRegistryProperties:
    def test_names_unique(self):
        reg = default_registry()
        names = [e.name for e in reg.entries()]
        assert len(names) == len(set(names))
        assert sorted(names) == reg.names()

    @given(name=registry_names)
    def test_every_entry_resolvable_with_defaults(self, name):
        entry = default_registry().get(name)
        cfg = entry.resolve_config(None)
        assert set(cfg) == set(entry.default_config)

    @given(name=registry_names)
    def test_default_config_is_json_safe(self, name):
        import json

        entry = default_registry().get(name)
        assert json.loads(json.dumps(entry.default_config)) == entry.default_config
