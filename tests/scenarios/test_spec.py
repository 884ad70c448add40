"""ScenarioSpec / PolicySpec: validation, canonical JSON, hashing."""

import json

import pytest

from repro.scenarios.spec import (
    SCENARIO_BENCHMARKS,
    PolicySpec,
    ScenarioSpec,
)


def make_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        benchmark="synthetic",
        caps_per_socket_w=(40.0, 60.0),
        policies=(PolicySpec("static"), PolicySpec("lp")),
        n_ranks=4,
        run_iterations=8,
        lp_iterations=2,
        discard_iterations=2,
        steady_window=4,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestPolicySpec:
    def test_label_defaults_to_policy_name(self):
        assert PolicySpec("static").label == "static"

    def test_explicit_name_wins(self):
        assert PolicySpec("conductor", name="cond-fast").label == "cond-fast"

    def test_doc_round_trip(self):
        p = PolicySpec("conductor", name="c2", config={"step_w": 3.0})
        again = PolicySpec.from_doc(p.to_doc())
        assert again.policy == "conductor"
        assert again.label == "c2"
        assert again.config == {"step_w": 3.0}

    def test_empty_policy_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec("")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            PolicySpec("static", name="")


class TestValidation:
    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="unknown benchmark"):
            make_spec(benchmark="nope")

    def test_synthetic_is_a_scenario_benchmark(self):
        assert "synthetic" in SCENARIO_BENCHMARKS
        assert make_spec().benchmark == "synthetic"

    def test_paper_benchmarks_present(self):
        for b in ("comd", "lulesh", "bt", "sp"):
            assert b in SCENARIO_BENCHMARKS

    def test_empty_caps(self):
        with pytest.raises(ValueError, match="at least one cap"):
            make_spec(caps_per_socket_w=())

    def test_negative_cap(self):
        with pytest.raises(ValueError, match="positive"):
            make_spec(caps_per_socket_w=(40.0, -1.0))

    def test_empty_policies(self):
        with pytest.raises(ValueError, match="at least one policy"):
            make_spec(policies=())

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_spec(policies=(PolicySpec("static"), PolicySpec("static")))

    def test_duplicate_policy_with_distinct_names_ok(self):
        spec = make_spec(policies=(
            PolicySpec("conductor", name="a"), PolicySpec("conductor", name="b"),
        ))
        assert spec.policy_labels() == ["a", "b"]

    def test_window_constraints(self):
        with pytest.raises(ValueError):
            make_spec(run_iterations=4, discard_iterations=4)
        with pytest.raises(ValueError):
            make_spec(steady_window=100)

    def test_caps_coerced_to_float_tuple(self):
        spec = make_spec(caps_per_socket_w=[40, 60])
        assert spec.caps_per_socket_w == (40.0, 60.0)
        assert all(isinstance(c, float) for c in spec.caps_per_socket_w)


class TestSerialization:
    def test_json_round_trip_is_identity(self):
        spec = make_spec(policies=(
            PolicySpec("static"),
            PolicySpec("conductor", name="c", config={"realloc_period": 3}),
            PolicySpec("lp", config={"include_discrete": True}),
        ))
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.to_json() == spec.to_json()

    def test_canonical_json_is_sorted_and_compact(self):
        text = make_spec().to_json()
        doc = json.loads(text)
        assert ": " not in text and ", " not in text
        assert list(doc) == sorted(doc)

    def test_unknown_field_rejected(self):
        doc = make_spec().to_doc()
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown scenario fields"):
            ScenarioSpec.from_doc(doc)

    def test_hand_written_json_parses(self):
        text = json.dumps({
            "benchmark": "comd",
            "caps_per_socket_w": [50],
            "policies": [{"policy": "static"}],
        })
        spec = ScenarioSpec.from_json(text)
        assert spec.n_ranks == 32  # defaults fill in
        assert spec.policy_labels() == ["static"]


class TestHashing:
    def test_spec_hash_covers_caps(self):
        a = make_spec(caps_per_socket_w=(40.0,))
        b = make_spec(caps_per_socket_w=(40.0, 60.0))
        assert a.spec_hash() != b.spec_hash()

    def test_cell_hash_ignores_caps(self):
        a = make_spec(caps_per_socket_w=(40.0,))
        b = make_spec(caps_per_socket_w=(40.0, 60.0))
        assert a.cell_hash() == b.cell_hash()

    def test_cell_hash_covers_everything_else(self):
        base = make_spec()
        assert base.cell_hash() != make_spec(seed=1).cell_hash()
        assert base.cell_hash() != make_spec(n_ranks=8).cell_hash()
        assert base.cell_hash() != make_spec(policies=(
            PolicySpec("static"), PolicySpec("lp", config={"time_limit_s": 5}),
        )).cell_hash()

    def test_legacy_hashes_are_pinned(self):
        """Digests pinned from the manifests and cell caches written
        before: the homogeneous-socket document must hash the same."""
        spec = make_spec()
        assert spec.spec_hash() == (
            "9325d505392608153a9f1713baec7b573c54b91921cd3376662b187860fa0d90"
        )
        assert spec.cell_hash() == (
            "5248a7a0f5861c2836ae53f003cfff591ac95361291a0e35b067389d05194fd8"
        )

    def test_hashes_stable_across_instances(self):
        assert make_spec().spec_hash() == make_spec().spec_hash()
