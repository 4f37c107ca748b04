"""Tests for the claims table (repro.experiments.claims).

One session runs the nine paper artifacts and every extension at
``--quick`` once; every ``quick`` claim must be evaluated on those results
and hold, and every artifact must render the bytes pinned under
``tests/goldens/quick``.  Full-scale claims are checked by the full run,
which writes them to ``claims.txt``.
"""

import dataclasses
import pathlib

import pytest

from repro.cli import main
from repro.experiments import claims, registry
from repro.sim import Session

NAMES = registry.select(["all", *registry.EXTENSIONS])
QUICK_GOLDENS = pathlib.Path(__file__).parent / "goldens" / "quick"
REGENERATE_QUICK = (
    "PYTHONPATH=src python -m repro experiment all "
    + " ".join(registry.EXTENSIONS) + " --quick --out tests/goldens/quick"
)


@pytest.fixture(scope="module")
def quick_results():
    with Session() as session:
        return {
            name: registry.run_experiment(name, quick=True, session=session)
            for name in NAMES
        }


def test_every_claim_names_a_registered_artifact():
    assert {claim.artifact for claim in claims.CLAIMS} <= set(NAMES)
    assert {claim.scale for claim in claims.CLAIMS} <= {
        claims.QUICK, claims.FULL,
    }


def test_every_quick_claim_is_evaluated_and_holds(quick_results):
    verdicts = claims.evaluate(quick_results, quick=True)
    assert len(verdicts) == len(claims.CLAIMS)
    checked = [v for v in verdicts if v.status != claims.SKIPPED]
    assert all(v.claim.scale == claims.QUICK for v in checked)
    assert len(checked) == sum(
        claim.scale == claims.QUICK for claim in claims.CLAIMS
    )
    assert [v.line() for v in checked if v.status != claims.HELD] == []


def test_quick_artifacts_match_their_goldens(quick_results):
    moved = [
        name for name in NAMES
        if quick_results[name].render() + "\n"
        != (QUICK_GOLDENS / f"{name}.txt").read_text(encoding="utf-8")
    ]
    assert moved == [], (
        f"quick artifacts differ from tests/goldens/quick: {moved}; if the"
        f" change is meant, regenerate them with `{REGENERATE_QUICK}`"
    )


def test_a_changed_result_value_fails_its_claim(quick_results):
    table5 = quick_results["table5"]
    leak_free = dataclasses.replace(table5, summaries=tuple(
        (delta, dataclasses.replace(summary, total_violation_cycles=0)
         if delta == 1.0 else summary)
        for delta, summary in table5.summaries
    ))
    verdicts = claims.evaluate({"table5": leak_free}, quick=True)
    failed = [v for v in verdicts if v.status == claims.FAILED]
    assert [v.claim.quantity for v in failed] == [
        "violation cycles at delta 1.0"
    ]
    assert failed[0].line().startswith("FAILED   quick  table5 ")
    assert failed[0].line().endswith("violation cycles at delta 1.0 > 0: 0")


def test_out_writes_the_claims_of_the_artifacts_it_ran(tmp_path, capsys):
    assert main(
        ["experiment", "table1", "figure1", "--out", str(tmp_path)]
    ) == 0
    lines = (tmp_path / "claims.txt").read_text().splitlines()
    ran = [claim for name in ("table1", "figure1")
           for claim in claims.CLAIMS if claim.artifact == name]
    assert [line.split()[:3] for line in lines[:-1]] == [
        ["held", claim.scale, claim.artifact] for claim in ran
    ]
    assert lines[-1] == f"{len(ran)} claims: {len(ran)} held, 0 failed"
    assert f"=== {lines[-1]} ===" in capsys.readouterr().err
