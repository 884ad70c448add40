"""Heterogeneous nodes through the scenario layer.

Two contracts guard the refactor:

* **Golden equivalence** — the legacy homogeneous pipeline and the same
  machine expressed as a one-device :class:`NodeSpec` produce bit-identical
  traces, LP schedules, and engine runs.  The typed-device layer is a
  strict generalisation, not a reimplementation.
* **Cache-key separation** — a heterogeneous spec can never collide with a
  legacy spec in hashes, cell keys, or manifests, while legacy documents
  stay byte-for-byte what they were before nodes existed.
"""

from repro.core.fixed_order_lp import solve_fixed_order_lp
from repro.core.model import build_problem_instance
from repro.core.serialize import schedule_to_dict
from repro.exec.keys import scenario_cell_key
from repro.exec.parallel import ParallelExecutionError
from repro.machine.device import LEGACY_NODE, get_node, rank_nodes, single_socket_node
from repro.machine.frontiers import FrontierStore, NodeFrontierStore
from repro.machine.variability import make_power_models
from repro.runtime.conductor import ConductorPolicy
from repro.runtime.static import StaticPolicy
from repro.scenarios.run import run_scenarios
from repro.scenarios.spec import SCENARIO_LAYER_VERSION, PolicySpec, ScenarioSpec
from repro.simulator.engine import Engine
from repro.simulator.trace import trace_application
from repro.workloads import WorkloadSpec, make_comd

from ..core.lp_oracles import frontier_family

N_RANKS = 4
CAP_W = 50.0 * N_RANKS


def _pipelines():
    """The legacy pipeline and its wrapped one-device-node twin."""
    app = make_comd(WorkloadSpec(n_ranks=N_RANKS, iterations=3))
    pm = make_power_models(N_RANKS, efficiency_seed=42)

    legacy_store = FrontierStore(pm)
    legacy_trace = trace_application(app, pm, frontier_store=legacy_store)
    legacy_engine = Engine(pm)

    nodes = rank_nodes(single_socket_node(), pm)
    node_store = NodeFrontierStore(nodes)
    node_trace = trace_application(app, pm, frontier_store=node_store)
    node_engine = Engine(pm, nodes=nodes)

    return app, pm, (legacy_trace, legacy_engine), (node_trace, node_engine)


class TestGoldenEquivalence:
    """A one-device node is the legacy machine, bit for bit."""

    def test_traces_are_identical(self):
        _, _, (legacy_trace, _), (node_trace, _) = _pipelines()
        assert node_trace.pareto == legacy_trace.pareto
        assert node_trace.frontiers == legacy_trace.frontiers
        assert node_trace.task_edges == legacy_trace.task_edges
        assert not node_trace.uses_devices  # the legacy empty device id

    def test_lp_schedules_are_identical(self):
        _, _, (legacy_trace, _), (node_trace, _) = _pipelines()
        a = solve_fixed_order_lp(legacy_trace, CAP_W)
        b = solve_fixed_order_lp(node_trace, CAP_W)
        assert a.feasible and b.feasible
        assert a.makespan_s == b.makespan_s
        assert schedule_to_dict(a.schedule) == schedule_to_dict(b.schedule)

    def test_instances_are_identical(self):
        _, _, (legacy_trace, _), (node_trace, _) = _pipelines()
        a = build_problem_instance(legacy_trace)
        b = build_problem_instance(node_trace)
        for discrete in (False, True):
            mine = frontier_family(a, discrete)
            twin = frontier_family(b, discrete)
            assert {e: f.points for e, f in mine.items()} == {
                e: f.points for e, f in twin.items()
            }, discrete

    def test_static_runs_are_identical(self):
        app, pm, (_, legacy_engine), (_, node_engine) = _pipelines()
        a = legacy_engine.run(app, StaticPolicy(pm, CAP_W))
        b = node_engine.run(app, StaticPolicy(pm, CAP_W))
        assert a.makespan_s == b.makespan_s
        assert a.records == b.records

    def test_conductor_runs_are_identical(self):
        app, pm, (legacy_trace, legacy_engine), (node_trace, node_engine) = (
            _pipelines()
        )
        del legacy_trace, node_trace
        legacy_store = FrontierStore(pm)
        node_store = NodeFrontierStore(rank_nodes(single_socket_node(), pm))
        a = legacy_engine.run(
            app, ConductorPolicy(pm, CAP_W, app, frontier_store=legacy_store)
        )
        b = node_engine.run(
            app, ConductorPolicy(pm, CAP_W, app, frontier_store=node_store)
        )
        assert a.makespan_s == b.makespan_s
        assert a.records == b.records


def _legacy_spec(**overrides) -> ScenarioSpec:
    kwargs = dict(
        benchmark="phased-offload",
        caps_per_socket_w=(50.0,),
        policies=(PolicySpec("static"), PolicySpec("lp")),
        n_ranks=2,
        run_iterations=6,
        lp_iterations=2,
        discard_iterations=2,
        steady_window=3,
    )
    kwargs.update(overrides)
    return ScenarioSpec(**kwargs)


class TestCacheKeySeparation:
    """Satellite: heterogeneous and legacy cells can never collide."""

    def test_legacy_doc_omits_node(self):
        doc = _legacy_spec().to_doc()
        assert "node" not in doc  # pre-node documents stay byte-identical

    def test_heterogeneous_doc_carries_node(self):
        doc = _legacy_spec(node="cpu-gpu").to_doc()
        assert doc["node"] == "cpu-gpu"

    def test_node_round_trips(self):
        spec = _legacy_spec(node="cpu-gpu")
        assert ScenarioSpec.from_doc(spec.to_doc()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        # A node-less document resolves to the legacy machine.
        assert ScenarioSpec.from_doc(_legacy_spec().to_doc()).node == LEGACY_NODE

    def test_hashes_differ_between_nodes(self):
        legacy = _legacy_spec()
        het = _legacy_spec(node="cpu-gpu")
        assert legacy.spec_hash() != het.spec_hash()
        assert legacy.cell_hash() != het.cell_hash()

    def test_cell_keys_differ_between_nodes(self):
        legacy = _legacy_spec()
        het = _legacy_spec(node="cpu-gpu")
        assert scenario_cell_key(
            legacy.cell_hash(), 50.0, SCENARIO_LAYER_VERSION
        ) != scenario_cell_key(het.cell_hash(), 50.0, SCENARIO_LAYER_VERSION)


class TestHeterogeneousScenarioRuns:
    """The power-shifting exhibit's machinery, end to end but small."""

    def test_lp_split_between_static_and_lp(self):
        spec = _legacy_spec(
            node="cpu-gpu",
            policies=(
                PolicySpec("static"),
                PolicySpec("lp-split", config={"cpu_shares": [0.4, 0.6, 0.8]}),
                PolicySpec("lp"),
            ),
        )
        cell = run_scenarios(spec).cells[0]
        assert cell.schedulable
        lp = cell.outcomes["lp"].time_s
        split = cell.outcomes["lp-split"].time_s
        assert lp is not None and split is not None
        # Any static split restricts the LP's feasible region.
        assert lp <= split + 1e-9
        assert cell.outcomes["lp-split"].extra["best_cpu_share"] in (
            0.4, 0.6, 0.8,
        )

    def test_lp_split_requires_heterogeneous_node(self):
        import pytest

        spec = _legacy_spec(policies=(PolicySpec("lp-split"),))
        with pytest.raises(ParallelExecutionError, match="heterogeneous node"):
            run_scenarios(spec)

    def test_same_spec_different_node_changes_results(self):
        legacy = run_scenarios(_legacy_spec()).cells[0]
        het = run_scenarios(_legacy_spec(node="cpu-gpu")).cells[0]
        # The GPU opens a faster frontier for the offload phase.
        assert het.outcomes["lp"].time_s < legacy.outcomes["lp"].time_s

    def test_cpu_gpu_node_is_in_registry_default(self):
        assert get_node("cpu-gpu").is_heterogeneous
