"""Characterize workload profiles on the base processor.

For each profile prints the fields of
:func:`repro.uarch.diagnostics.characterize`: the measured IPC (next to
the paper's), the 2nd/98th-percentile and mean current, the swing, the
dominant oscillation period (``*`` inside the resonance band) and the
violation fraction of the measured cycles -- plus whether the paper
classes the application as violating.

Usage::

    PYTHONPATH=src python tools/probe_workloads.py              # all, 30k cycles
    PYTHONPATH=src python tools/probe_workloads.py swim,gzip 10000
"""
import sys
import time

from repro.config import TABLE1_SUPPLY
from repro.power import RLCAnalysis
from repro.uarch import PAPER_IPC, SPEC2K, VIOLATING_NAMES
from repro.uarch.diagnostics import characterize

N_CYCLES = int(sys.argv[2]) if len(sys.argv) > 2 else 30000
names = sys.argv[1].split(",") if len(sys.argv) > 1 and sys.argv[1] != "all" else list(SPEC2K)

band = RLCAnalysis(TABLE1_SUPPLY).band
print(f"band {band.min_period_cycles}-{band.max_period_cycles} cycles; {N_CYCLES} measured cycles each")
print(f"{'name':9s} {'IPC':>5s} {'tgt':>5s} {'Imin':>6s} {'Imax':>6s} {'Imean':>6s} {'swing':>6s} {'period':>7s} {'violfrac':>9s} {'paper?':>7s}")
for name in names:
    t0 = time.time()
    w = characterize(SPEC2K[name], n_cycles=N_CYCLES)
    inband = "*" if w.period_in_band else " "
    flag = "VIOL" if name in VIOLATING_NAMES else "ok"
    print(f"{name:9s} {w.ipc:5.2f} {PAPER_IPC[name]:5.2f} {w.current_low_amps:6.1f} {w.current_high_amps:6.1f}"
          f" {w.current_mean_amps:6.1f} {w.current_swing_amps:6.1f} {w.dominant_period_cycles:6.1f}{inband}"
          f" {w.violation_fraction:9.2e} {flag:>7s}  ({time.time()-t0:.1f}s)")
