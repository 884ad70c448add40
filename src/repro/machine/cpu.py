"""CPU specification: cores, DVFS states, and clock-modulation levels.

The paper's test system (LLNL's *Cab*) uses dual-socket Xeon E5-2670 nodes:
8 cores per socket, socket-level DVFS spanning 1.2-2.6 GHz in 0.1 GHz steps
(15 P-states), and RAPL power capping per socket.  When RAPL cannot satisfy
a cap even at the lowest P-state it falls back to duty-cycle clock
modulation (T-states), which is how the paper's Static baseline ends up
running BT at "22% of max clock" under a 30 W cap.

:class:`CpuSpec` is a frozen value object; every other machine-model module
takes one as input so alternative processors can be modeled by constructing
a different spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["CpuSpec", "XEON_E5_2670", "effective_frequency"]


@dataclass(frozen=True)
class CpuSpec:
    """Static description of one processor socket.

    Attributes
    ----------
    name:
        Human-readable model name.
    cores:
        Number of physical cores per socket (the paper runs one
        multithreaded MPI process per socket, up to ``cores`` OpenMP
        threads).
    fmin_ghz, fmax_ghz:
        Lowest and highest non-boosted DVFS frequencies.
    fstep_ghz:
        DVFS granularity; P-states are ``fmin, fmin+step, ..., fmax``.
    modulation_levels:
        Number of duty-cycle clock-modulation levels available *below* the
        lowest P-state (Intel T-states expose 12.5%..100% duty in 1/8
        steps; we expose the sub-100% ones).
    """

    name: str = "Xeon E5-2670"
    cores: int = 8
    fmin_ghz: float = 1.2
    fmax_ghz: float = 2.6
    fstep_ghz: float = 0.1
    modulation_levels: int = 7

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError(f"cores must be >= 1, got {self.cores}")
        if not (0.0 < self.fmin_ghz <= self.fmax_ghz):
            raise ValueError(
                f"need 0 < fmin <= fmax, got fmin={self.fmin_ghz} fmax={self.fmax_ghz}"
            )
        if self.fstep_ghz <= 0:
            raise ValueError(f"fstep must be positive, got {self.fstep_ghz}")
        if self.modulation_levels < 0:
            raise ValueError("modulation_levels must be >= 0")

    @cached_property
    def pstates(self) -> tuple[float, ...]:
        """All DVFS frequencies in GHz, descending (P0 first, like Intel).

        Cached on the (frozen) spec: RAPL's control loop and every
        configuration-grid lookup read it per task.
        """
        n = int(round((self.fmax_ghz - self.fmin_ghz) / self.fstep_ghz)) + 1
        freqs = self.fmax_ghz - self.fstep_ghz * np.arange(n)
        # Guard against floating-point drift so the lowest state is exact.
        freqs[-1] = self.fmin_ghz
        return tuple(float(round(f, 6)) for f in freqs)

    @property
    def n_pstates(self) -> int:
        return len(self.pstates)

    @cached_property
    def duty_cycles(self) -> tuple[float, ...]:
        """Clock-modulation duty cycles below the lowest P-state, descending.

        Intel T-states quantize duty in 1/(levels+1) steps; at duty ``d``
        the core effectively runs at ``d * fmin``.
        """
        n = self.modulation_levels
        return tuple((n - k) / (n + 1) for k in range(n))

    def thread_counts(self) -> tuple[int, ...]:
        """Admissible OpenMP thread counts, ascending (1..cores)."""
        return tuple(range(1, self.cores + 1))

    def nearest_pstate(self, freq_ghz: float) -> float:
        """Snap an arbitrary frequency onto the closest available P-state."""
        states = np.asarray(self.pstates)
        return float(states[np.argmin(np.abs(states - freq_ghz))])

    def clamp_frequency(self, freq_ghz: float) -> float:
        """Clamp a frequency into the continuous DVFS range."""
        return float(min(self.fmax_ghz, max(self.fmin_ghz, freq_ghz)))


def effective_frequency(spec: CpuSpec, pstate_ghz: float, duty: float = 1.0) -> float:
    """Effective clock rate with optional duty-cycle modulation applied.

    ``duty=1`` means no modulation.  Modulation is only meaningful at the
    lowest P-state (that is how RAPL firmware uses it), but the arithmetic
    is duty * pstate regardless.
    """
    if not (0.0 < duty <= 1.0):
        raise ValueError(f"duty must be in (0, 1], got {duty}")
    return pstate_ghz * duty


#: The default socket model used throughout the reproduction — parameters of
#: the paper's Cab nodes.
XEON_E5_2670 = CpuSpec()
