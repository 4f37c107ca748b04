"""On-die current-sensor model (Sections 2.1.4 and 4.1).

The paper senses processor core current directly (not voltage): a few
coarse sensors at the roots of the supply network report each cycle's
current to the nearest whole amp.  We model exactly that: quantization to a
configurable quantum, an optional reporting delay (wire/sensor latency),
and optional peak-to-peak uniform noise for sensitivity studies.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["CurrentSensor"]


class CurrentSensor:
    """Quantizing, optionally delayed and noisy, per-cycle current sensor."""

    def __init__(
        self,
        quantum_amps: float = 1.0,
        delay_cycles: int = 0,
        noise_pp_amps: float = 0.0,
        seed: Optional[int] = 0,
    ):
        if quantum_amps <= 0:
            raise ConfigurationError("quantum_amps must be positive")
        if delay_cycles < 0:
            raise ConfigurationError("delay_cycles must be non-negative")
        if noise_pp_amps < 0:
            raise ConfigurationError("noise_pp_amps must be non-negative")
        self.quantum_amps = quantum_amps
        self.delay_cycles = delay_cycles
        self.noise_pp_amps = noise_pp_amps
        self._rng = np.random.default_rng(seed) if noise_pp_amps else None
        # The delay line holds the most recent `delay` true readings; before
        # it fills, the sensor reports the oldest value it has seen.
        self._delay_line = deque(maxlen=delay_cycles + 1)

    def read(self, true_current_amps: float) -> float:
        """Report this cycle's sensed current (quantized, delayed, noisy)."""
        if self.delay_cycles:
            self._delay_line.append(true_current_amps)
            value = self._delay_line[0]
        else:
            value = true_current_amps
        if self._rng is not None:
            value += self._rng.uniform(
                -0.5 * self.noise_pp_amps, 0.5 * self.noise_pp_amps
            )
        if not math.isfinite(value):
            # A faulted input cannot be quantized (round() raises on NaN or
            # inf); pass it through so the detector's own hold-last-finite
            # guard decides, instead of crashing inside the sensor.
            return value
        return self.quantum_amps * round(value / self.quantum_amps)

    def reset(self) -> None:
        self._delay_line.clear()
