"""Property tests: RAPL's vectorized settle is ``decide``, bit for bit.

Random kernels, socket efficiencies, thread counts and control noise,
with caps drawn around each kernel's own operating range so that every
regime of the firmware loop is hit: above P0, between two P-states, in
the duty-cycle regime below ``fmin``, and below the floor where the cap
cannot be met.  :meth:`RaplController.settle` must pick the same
configuration, report the same power and ``cap_met``, and emit the same
cap-overshoot events, in the same order, as one
:meth:`RaplController.decide` per (kernel, cap).
"""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.machine import (
    Configuration,
    RaplController,
    SocketPowerModel,
    TaskKernel,
    XEON_E5_2670,
)
from repro.obs import TraceRecorder
from repro.obs.recorder import use_recorder

SPEC = XEON_E5_2670

kernels = st.lists(
    st.builds(
        TaskKernel,
        cpu_seconds=st.just(1.0),
        activity=st.floats(0.3, 2.0),
        mem_intensity=st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=5,
)

#: Where in a kernel's range a cap falls, as (regime, position in it).
regimes = st.lists(
    st.tuples(
        st.sampled_from(["above-p0", "pstates", "duty", "below-floor"]),
        st.floats(0.0, 1.0),
    ),
    min_size=1,
    max_size=6,
)


def regime_cap(pm, kernel, threads, regime, u):
    """A cap inside one regime of ``kernel``'s firmware loop."""

    def power(freq, duty=1.0):
        return pm.power(
            freq, threads, kernel.activity, kernel.mem_intensity, duty
        )

    p0 = power(SPEC.fmax_ghz)
    pmin = power(SPEC.fmin_ghz)
    floor = power(SPEC.fmin_ghz, SPEC.duty_cycles[-1])
    lo, hi = {
        "above-p0": (p0, 2.0 * p0),
        "pstates": (pmin, p0),
        "duty": (floor, pmin),
        "below-floor": (0.5 * floor, floor),
    }[regime]
    return lo + u * (hi - lo)


def overshoots(recorder):
    return [
        (e["args"]["cap_w"], e["args"]["power_w"])
        for e in recorder.snapshot()
        if e["kind"] == "cap_exceeded"
    ]


class TestSettleIsDecide:
    @settings(max_examples=60, deadline=None)
    @given(
        ks=kernels,
        efficiency=st.floats(0.85, 1.2),
        threads=st.integers(1, SPEC.cores),
        noise=st.sampled_from([0.0, 0.01, 0.05]),
        where=regimes,
    )
    def test_every_cap_and_kernel(self, ks, efficiency, threads, noise, where):
        pm = SocketPowerModel(efficiency=efficiency)
        rapl = RaplController(pm, control_noise=noise)
        caps = [
            regime_cap(pm, k, threads, regime, u)
            for k in ks
            for regime, u in where
        ]
        settled_rec, decided_rec = TraceRecorder(), TraceRecorder()
        with use_recorder(settled_rec):
            settled = rapl.settle(
                np.array([k.activity for k in ks]),
                np.array([k.mem_intensity for k in ks]),
                threads,
                caps,
            )
        assert settled.choice.shape == (len(ks), len(caps))
        with use_recorder(decided_rec):
            for i, kernel in enumerate(ks):
                for c, cap in enumerate(caps):
                    decision = rapl.decide(kernel, threads, cap)
                    config = settled.candidates[settled.choice[i, c]]
                    assert config == decision.config
                    assert settled.power_w[i, c] == decision.power_w
                    assert bool(settled.cap_met[i, c]) == decision.cap_met
        assert overshoots(settled_rec) == overshoots(decided_rec)

    def test_candidate_order(self):
        rapl = RaplController(SocketPowerModel())
        settled = rapl.settle(np.array([1.0]), np.array([0.5]), 8, [40.0])
        expected = [Configuration(f, 8) for f in SPEC.pstates]
        expected += [
            Configuration(SPEC.fmin_ghz, 8, d) for d in SPEC.duty_cycles
        ]
        expected.append(Configuration(SPEC.fmin_ghz, 8, SPEC.duty_cycles[-1]))
        assert settled.candidates == expected
