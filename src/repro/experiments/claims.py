"""The paper's checkable claims, as one table over the registry's results.

Each :class:`Claim` names an artifact (a registry name), the paper section
it reproduces, the scale it holds at, a measure over the artifact's result
object and a test of the measured value against a bound.  A ``quick``
claim is checked at ``--quick`` and at full scale; a ``full`` claim at
full scale only, where it needs more cycles or benchmarks than
``--quick`` runs.

``python -m repro experiment NAME... --out DIR`` evaluates every claim
whose artifact the command produced and writes ``DIR/claims.txt``: one
line per claim with its verdict, the measured value and its bound, then
one aggregate line.  Verdicts do not change the command's exit status.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from typing import Any, Callable, List, Mapping, Optional

from repro.config import TABLE1_TUNING

__all__ = ["CLAIMS", "Claim", "Verdict", "evaluate", "summary_line", "write"]

QUICK = "quick"
FULL = "full"

HELD = "held"
FAILED = "FAILED"
SKIPPED = "skipped"

_TESTS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    # bound is a (low, high) pair, both inclusive
    "in": lambda value, bound: bound[0] <= value <= bound[1],
}


@dataclass(frozen=True)
class Claim:
    """One checkable statement about one artifact.

    ``measure`` maps the artifact's result object to the value printed in
    ``claims.txt``; the claim holds when ``value <op> bound``.  ``bound``
    is a value or a function of the result (a bound that scales with the
    run); with ``tolerance``, the claim holds when the value lies within
    ``tolerance`` of the bound.
    """

    artifact: str
    section: str
    scale: str
    quantity: str
    measure: Callable[[Any], Any]
    op: str
    bound: Any
    tolerance: Optional[float] = None

    def bound_for(self, result) -> Any:
        return self.bound(result) if callable(self.bound) else self.bound

    def holds(self, value, bound) -> bool:
        if self.tolerance is not None:
            return abs(value - bound) <= self.tolerance
        return bool(_TESTS[self.op](value, bound))

    def expectation(self, bound) -> str:
        if self.tolerance is not None:
            return f"= {_format(bound)} +/- {_format(self.tolerance)}"
        if self.op == "in":
            return f"in [{_format(bound[0])}, {_format(bound[1])}]"
        return f"{self.op} {_format(bound)}"


@dataclass(frozen=True)
class Verdict:
    claim: Claim
    status: str
    bound: Any
    value: Any = None

    def line(self) -> str:
        claim = self.claim
        measured = (
            "not checked at --quick" if self.status == SKIPPED
            else _format(self.value)
        )
        return (
            f"{self.status:7s}  {claim.scale:5s}  {claim.artifact:22s}"
            f"  {claim.section:9s}  {claim.quantity}"
            f" {claim.expectation(self.bound)}: {measured}"
        )


def _format(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4g}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_format(item) for item in value) + "]"
    return str(value)


def evaluate(results: Mapping[str, object], quick: bool) -> List[Verdict]:
    """Verdicts of every claim on the artifacts in ``results``.

    ``results`` maps registry names to result objects, in the order the
    command ran them; the verdicts follow that order, then the table's.
    At ``quick`` scale a ``full`` claim is skipped, not measured.
    """
    verdicts = []
    for name, result in results.items():
        for claim in CLAIMS:
            if claim.artifact != name:
                continue
            bound = claim.bound_for(result)
            if quick and claim.scale == FULL:
                verdicts.append(Verdict(claim, SKIPPED, bound))
                continue
            value = claim.measure(result)
            status = HELD if claim.holds(value, bound) else FAILED
            verdicts.append(Verdict(claim, status, bound, value))
    return verdicts


def summary_line(verdicts: List[Verdict]) -> str:
    """One aggregate verdict over ``verdicts``."""
    counts = {status: 0 for status in (HELD, FAILED, SKIPPED)}
    for verdict in verdicts:
        counts[verdict.status] += 1
    line = (
        f"{len(verdicts)} claims: {counts[HELD]} held,"
        f" {counts[FAILED]} failed"
    )
    if counts[SKIPPED]:
        line += f", {counts[SKIPPED]} full-scale claims not checked at --quick"
    return line


def write(verdicts: List[Verdict], directory: str) -> str:
    """Write ``claims.txt`` in ``directory``; returns its path."""
    path = os.path.join(directory, "claims.txt")
    lines = [verdict.line() for verdict in verdicts]
    lines.append(summary_line(verdicts))
    with open(path, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    return path


# ----------------------------------------------------------------------
# Measures shared by several claims
# ----------------------------------------------------------------------

def _stat(key, name="total_violation_cycles"):
    """Measure: field ``name`` of the row or variant ``key``."""
    return lambda result: getattr(result.summary_for(key), name)


def _gap(name, key_a, key_b):
    """Measure: field ``name`` of ``key_a`` minus that of ``key_b``."""
    first, second = _stat(key_a, name), _stat(key_b, name)
    return lambda result: first(result) - second(result)


def _rows(result):
    return [summary for _, summary in result.summaries]


def _residual_bound(result) -> int:
    """Table 3's residual: 1e-5 of a row's cycles, at least one cycle."""
    cycles = result.n_cycles * len(result.summaries[0][1].per_benchmark)
    return max(1, round(1e-5 * cycles))


def _variants(prefix):
    """Measure: summaries of the variants whose label starts ``prefix``."""
    return lambda result: [
        summary for label, summary in result.summaries
        if label.startswith(prefix)
    ]


def _detector(prefix, name):
    """Measure: field ``name`` of the detector variant ``prefix`` (the
    labels carry the adder counts)."""
    return lambda result: getattr(_variants(prefix)(result)[0], name)


_quanta = _variants("quantum")


def _open_loop_counts(result, variant: int):
    return [counts[variant] for counts in result.open_loop.values()]


def _multiwindow_gains(result):
    """Violation cycles removed from the single 1.0x window by tightening
    delta to 0.5x, less those removed (or added) by band windows."""
    single = result.summary_for("single window, delta 1.0x")
    multi = result.summary_for("band windows, delta 1.0x")
    tight = result.summary_for("single window, delta 0.5x")
    tightening = single.total_violation_cycles - tight.total_violation_cycles
    windows = single.total_violation_cycles - multi.total_violation_cycles
    return tightening - abs(windows)


def _residual_claim(time_value: int, scale: str) -> Claim:
    return Claim(
        "table3", "Table 3", scale,
        f"violation cycles at initial response time {time_value}"
        f" (1e-5 of the row's cycles, at least 1)",
        _stat(time_value), "<=", _residual_bound,
    )


CLAIMS = (
    # Figure 1(c): the Section 2 example supply.
    Claim("figure1", "Fig. 1(c)", QUICK, "resonant frequency (MHz)",
          lambda r: r.resonant_frequency_hz / 1e6, "~", 100.0, 2.0),
    Claim("figure1", "Fig. 1(c)", QUICK, "band low edge (MHz)",
          lambda r: r.band_low_hz / 1e6, "~", 92.0, 1.84),
    Claim("figure1", "Fig. 1(c)", QUICK, "band high edge (MHz)",
          lambda r: r.band_high_hz / 1e6, "~", 108.0, 2.16),
    Claim("figure1", "Fig. 1(c)", QUICK,
          "peak impedance over the impedance at 40 MHz",
          lambda r: float(r.peak_impedance_ohms / r.impedance_ohms[0]),
          ">", 5),
    # Table 1: derived rows exact, calibrated rows on the paper's scale.
    Claim("table1", "Table 1", QUICK, "resonant frequency (MHz)",
          lambda r: r.calibration.resonant_frequency_hz / 1e6,
          "~", 100.0, 1.0),
    Claim("table1", "Table 1", QUICK, "resonance band low edge (cycles)",
          lambda r: r.calibration.band_min_period_cycles, "==", 84),
    Claim("table1", "Table 1", QUICK, "resonance band high edge (cycles)",
          lambda r: r.calibration.band_max_period_cycles, "==", 119),
    Claim("table1", "Table 1", QUICK, "quality factor Q",
          lambda r: r.quality_factor, "~", 2.83, 0.01),
    Claim("table1", "Table 1", QUICK, "max repetition tolerance",
          lambda r: r.calibration.max_repetition_tolerance, "in", (3, 6)),
    Claim("table1", "Table 1", QUICK, "resonant current threshold (A)",
          lambda r: r.calibration.threshold_amps, "in", (20, 40)),
    # Figure 3: a 34 A wave at the resonant period, cycles 100-500.
    Claim("figure3", "Fig. 3", QUICK, "first violation cycle",
          lambda r: r.first_violation_cycle, "!=", None),
    Claim("figure3", "Fig. 3", QUICK, "event count at the first violation",
          lambda r: r.count_at_violation, "==", 4),
    Claim("figure3", "Fig. 3", QUICK, "dissipation per period after the wave",
          lambda r: r.measured_dissipation_per_period, "~", 0.66, 0.05),
    Claim("figure3", "Fig. 3", QUICK, "cycles from count 2 to count 3",
          lambda r: dict(r.count_milestones)[3] - dict(r.count_milestones)[2],
          "~", 50, 15),
    Claim("figure3", "Fig. 3", QUICK, "first violation cycle of a 20 A wave",
          lambda r: r.below_threshold_violation_cycle, "==", None),
    # Figure 4: the count warns of a violation in parser's base run.
    Claim("figure4", "Fig. 4", QUICK, "violation cycle in the base run",
          lambda r: r.violation_cycle, "!=", None),
    Claim("figure4", "Fig. 4", QUICK,
          "count 2 reached in the violation's build-up",
          lambda r: 2 in r.advance_warning_cycles, "==", True),
    Claim("figure4", "Fig. 4", QUICK,
          "cycles from count 2 to the violation",
          lambda r: r.advance_warning_cycles.get(2, 0), ">", 0),
    Claim("figure4", "Fig. 4", QUICK, "largest event count in the window",
          lambda r: int(r.event_counts.max()), ">=", 2),
    # Table 2: the violating / non-violating split.
    Claim("table2", "Table 2", QUICK,
          "classified violating but non-violating in the paper",
          lambda r: [row.benchmark for row in r.rows
                     if row.violating and not row.paper_violating],
          "==", []),
    Claim("table2", "Table 2", FULL, "benchmarks classified violating",
          lambda r: len(r.violating), ">=", 12),
    Claim("table2", "Table 2", FULL, "classifications unlike the paper's",
          lambda r: r.mismatches, "==", []),
    # Table 3: resonance tuning keeps violations near zero, cheaply.
    _residual_claim(75, QUICK),
    _residual_claim(100, QUICK),
    _residual_claim(125, FULL),
    _residual_claim(150, FULL),
    _residual_claim(200, FULL),
    Claim("table3", "Table 3", QUICK,
          "largest per-benchmark violation fraction at 100 cycles",
          lambda r: max(m.violation_fraction
                        for m in r.summary_for(100).per_benchmark),
          "<=", 2e-5),
    Claim("table3", "Table 3", QUICK,
          "smallest first- minus second-level fraction over rows",
          lambda r: min(s.avg_first_level_fraction
                        - s.avg_second_level_fraction for s in _rows(r)),
          ">", 0),
    Claim("table3", "Table 3", QUICK, "largest average slowdown over rows",
          lambda r: max(s.avg_slowdown for s in _rows(r)), "<", 1.15),
    Claim("table3", "Table 3", QUICK,
          "first-level fraction, last row minus first row",
          lambda r: (_rows(r)[-1].avg_first_level_fraction
                     - _rows(r)[0].avg_first_level_fraction),
          ">", 0),
    # Table 4: [10] is cheap with ideal sensors, costly with real ones.
    Claim("table4", "Table 4", QUICK, "average slowdown at 30/0/0",
          _stat("30/0/0", "avg_slowdown"), "<", 1.05),
    Claim("table4", "Table 4", QUICK, "average slowdown, 20/15/3 minus 30/0/0",
          _gap("avg_slowdown", "20/15/3", "30/0/0"), ">", 0.05),
    Claim("table4", "Table 4", QUICK, "average E*D, 20/15/3 minus 30/0/0",
          _gap("avg_energy_delay", "20/15/3", "30/0/0"), ">", 0.10),
    Claim("table4", "Table 4", QUICK,
          "response fraction, 20/15/3 minus 30/0/0",
          _gap("avg_second_level_fraction", "20/15/3", "30/0/0"), ">", 0),
    # Table 5: damping's cost rises as delta tightens; 1x leaks.
    Claim("table5", "Table 5", QUICK,
          "smallest rise in average slowdown, delta 1 -> 0.5 -> 0.25",
          lambda r: min(_gap("avg_slowdown", 0.5, 1.0)(r),
                        _gap("avg_slowdown", 0.25, 0.5)(r)),
          ">=", 0),
    Claim("table5", "Table 5", QUICK, "average E*D, delta 0.25 minus 1.0",
          _gap("avg_energy_delay", 0.25, 1.0), ">", 0),
    Claim("table5", "Table 5", QUICK, "violation cycles at delta 1.0",
          _stat(1.0), ">", 0),
    Claim("table5", "Table 5", QUICK, "violation cycles at delta 0.25",
          _stat(0.25), "==", 0),
    # Figure 5: the headline ranking.
    Claim("figure5", "Fig. 5", QUICK,
          "tuning beats the realistic alternatives C, D and F",
          lambda r: r.tuning_wins_realistic, "==", True),
    Claim("figure5", "Fig. 5", FULL, "tuning beats every design point",
          lambda r: r.tuning_wins, "==", True),
    # Extensions: why both response tiers.
    Claim("ablation-two-tier", "Sec. 3.2", QUICK,
          "violation cycles, both tiers", _stat("both"), "==", 0),
    Claim("ablation-two-tier", "Sec. 3.2", FULL,
          "violation cycles, first level only",
          _stat("first-only"), ">", 0),
    Claim("ablation-two-tier", "Sec. 3.2", QUICK,
          "second-level fraction, second-only minus both",
          _gap("avg_second_level_fraction", "second-only", "both"), ">", 0),
    Claim("ablation-two-tier", "Sec. 3.2", QUICK,
          "violation cycles, second-only minus both",
          _gap("total_violation_cycles", "second-only", "both"), ">=", 0),
    # Detection must cover the band, not only the resonant frequency.
    Claim("ablation-band-coverage", "Sec. 3.1.3", QUICK,
          "smallest open-loop count of the band-wide detector",
          lambda r: min(_open_loop_counts(r, 0)), ">=", 4),
    Claim("ablation-band-coverage", "Sec. 3.1.3", QUICK,
          "open-loop count of the single-frequency detector at 86 cycles",
          lambda r: r.open_loop[86][1],
          "<", TABLE1_TUNING.second_level_threshold),
    Claim("ablation-band-coverage", "Sec. 3.1.3", QUICK,
          "violation cycles, band-wide", _stat("band-wide"), "==", 0),
    # Coarse sensors and short delays suffice.
    Claim("ablation-sensing", "Sec. 2.1.4", QUICK,
          "largest violation cycles over sensor quanta 1, 4 and 8 A",
          lambda r: max(s.total_violation_cycles for s in _quanta(r)),
          "==", 0),
    Claim("ablation-sensing", "Sec. 2.1.4", QUICK,
          "average slowdown spread over sensor quanta",
          lambda r: (max(s.avg_slowdown for s in _quanta(r))
                     - min(s.avg_slowdown for s in _quanta(r))),
          "<", 0.05),
    Claim("ablation-sensing", "Sec. 5.2", QUICK,
          "violation cycles, 5-cycle delay",
          _stat("delay 5 cycles"), "==", 0),
    Claim("ablation-sensing", "Sec. 5.2", QUICK,
          "|average slowdown, 5-cycle minus no delay|",
          lambda r: abs(_gap("avg_slowdown", "delay 5 cycles",
                             "delay 0 cycles")(r)),
          "<", 0.03),
    Claim("ablation-sensing", "Sec. 5.2", QUICK,
          "|average E*D, 5-cycle minus no delay|",
          lambda r: abs(_gap("avg_energy_delay", "delay 5 cycles",
                             "delay 0 cycles")(r)),
          "<", 0.06),
    Claim("ablation-sensing", "Sec. 3.2", QUICK,
          "violation cycles, 12-cycle delay",
          _stat("delay 12 cycles"), "<=", 5),
    # The wavelet detector of [11]: cheaper, less selective.
    Claim("ablation-detectors", "Sec. 6", QUICK,
          "violation cycles, quarter-period detector",
          _detector("quarter-period", "total_violation_cycles"), "==", 0),
    Claim("ablation-detectors", "Sec. 6", QUICK,
          "violation cycles, wavelet detector",
          _detector("wavelet", "total_violation_cycles"), "==", 0),
    Claim("ablation-detectors", "Sec. 6", QUICK,
          "adders of the wavelet detector, below the quarter-period's",
          lambda r: r.adders["wavelet dyadic"],
          "<", lambda r: r.adders["quarter-period"]),
    Claim("ablation-detectors", "Sec. 6", QUICK,
          "average E*D, wavelet minus quarter-period",
          lambda r: (_detector("wavelet", "avg_energy_delay")(r)
                     - _detector("quarter-period", "avg_energy_delay")(r)),
          ">=", 0),
    # Section 2.2: the low-frequency resonance.
    Claim("lowfreq-resonance", "Sec. 2.2", QUICK,
          "low-frequency impedance peak (mOhm), below the medium one",
          lambda r: r.low_peak_mohm, "<", lambda r: r.mid_peak_mohm),
    Claim("lowfreq-resonance", "Sec. 2.2", QUICK,
          "violating cycles, 60 A at the low resonance",
          lambda r: r.violations_at(60.0), ">", 0),
    Claim("lowfreq-resonance", "Sec. 2.2", QUICK,
          "violating cycles, 25 A at the low resonance",
          lambda r: r.violations_at(25.0), "==", 0),
    Claim("lowfreq-resonance", "Sec. 2.2", QUICK,
          "largest event count on the low band, 60 A",
          lambda r: r.max_event_count, ">=", 3),
    Claim("lowfreq-resonance", "Sec. 2.2", QUICK,
          "reaction slack per quarter period (cycles)",
          lambda r: r.period_cycles // 4, ">", 1000),
    # The convolution technique of [8] needs accurate estimates.
    Claim("convolution-baseline", "Sec. 3 [8]", QUICK,
          "violation cycles, accurate estimates",
          _stat("accurate"), "==", 0),
    Claim("convolution-baseline", "Sec. 3 [8]", QUICK,
          "average slowdown, accurate estimates",
          _stat("accurate", "avg_slowdown"), "<", 1.05),
    Claim("convolution-baseline", "Sec. 3 [8]", FULL,
          "violation cycles, 0.6x under-estimates",
          _stat("under-estimate 0.6x"), ">", 0),
    Claim("convolution-baseline", "Sec. 3 [8]", QUICK,
          "violation cycles, 1.3x over-estimates",
          _stat("over-estimate 1.3x"), "==", 0),
    Claim("convolution-baseline", "Sec. 3 [8]", QUICK,
          "response fraction, over- minus accurate estimates",
          _gap("avg_second_level_fraction", "over-estimate 1.3x", "accurate"),
          ">", 0),
    # Section 5.3.2: tighten delta rather than cover the band.
    Claim("multiwindow-damping", "Sec. 5.3.2", FULL,
          "violation cycles, single window at delta 1.0x",
          _stat("single window, delta 1.0x"), ">", 0),
    Claim("multiwindow-damping", "Sec. 5.3.2", FULL,
          "violation cycles, band windows at delta 1.0x",
          _stat("band windows, delta 1.0x"), ">", 0),
    Claim("multiwindow-damping", "Sec. 5.3.2", FULL,
          "violation cycles removed by tightening, less |by band windows|",
          _multiwindow_gains, ">", 0),
    Claim("multiwindow-damping", "Sec. 5.3.2", QUICK,
          "violation cycles, single window at delta 0.5x",
          _stat("single window, delta 0.5x"), "==", 0),
    Claim("multiwindow-damping", "Sec. 5.3.2", QUICK,
          "average slowdown, band windows minus single window",
          _gap("avg_slowdown", "band windows, delta 1.0x",
               "single window, delta 1.0x"),
          ">=", -0.005),
    # The design-time flow, applied to other supplies.
    Claim("design-space", "Sec. 2.1.3", QUICK,
          "designs whose base violation fraction exceeds 1e-4",
          lambda r: len(r.stressed), ">=", 2),
    Claim("design-space", "Sec. 2.1.3", QUICK,
          "largest tuned over base violation fraction, stressed designs",
          lambda r: max(p.tuned_violation_fraction / p.base_violation_fraction
                        for p in r.stressed),
          "<=", 0.03),
    Claim("design-space", "Sec. 2.1.3", QUICK,
          "largest slowdown, stressed designs",
          lambda r: max(p.slowdown for p in r.stressed), "<", 1.20),
    Claim("design-space", "Sec. 2.1.3", QUICK,
          "smallest calibrated threshold (A), robust designs",
          lambda r: min((p.threshold_amps for p in r.robust),
                        default=math.inf),
          ">", 35.0),
    Claim("design-space", "Sec. 2.1.3", QUICK,
          "largest tuned minus base violation fraction, robust designs",
          lambda r: max((p.tuned_violation_fraction - p.base_violation_fraction
                         for p in r.robust), default=0.0),
          "<=", 0.0),
)
