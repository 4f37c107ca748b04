"""The paper's contribution: current sensing, resonant-event detection and
the two-tier resonance-tuning controller.

Public surface:

* :class:`~repro.core.sensor.CurrentSensor` -- whole-amp on-die sensing.
* :class:`~repro.core.detector.ResonanceDetector` -- band-wide detection of
  nascent resonance via quarter-period current sums and event histories.
* :class:`~repro.core.tuning.ResonanceTuningController` -- the two-tier
  response that tunes current variations out of the resonance band.
* :class:`~repro.core.controller.NoiseController` -- the interface all
  techniques (including the baselines) implement.
"""

from repro.core.controller import NoiseController, NullController
from repro.core.detector import Polarity, ResonanceDetector, ResonantEvent
from repro.core.history import CurrentHistoryRegister, EventHistoryRegister
from repro.core.kernel import run_detector, run_supply, run_supply_batch
from repro.core.overheads import DetectorOverheads, estimate_overheads
from repro.core.sensor import CurrentSensor
from repro.core.tuning import ResonanceTuningController
from repro.core.wavelet import WaveletDetector, dyadic_scales_for_band

__all__ = [
    "NoiseController",
    "NullController",
    "run_detector",
    "run_supply",
    "run_supply_batch",
    "Polarity",
    "ResonanceDetector",
    "ResonantEvent",
    "CurrentHistoryRegister",
    "EventHistoryRegister",
    "CurrentSensor",
    "DetectorOverheads",
    "estimate_overheads",
    "ResonanceTuningController",
    "WaveletDetector",
    "dyadic_scales_for_band",
]
