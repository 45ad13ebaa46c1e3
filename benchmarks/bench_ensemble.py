"""Benchmark EN — the ensemble solver and trial kernels, judged by counters.

EN1: the acceptance workload for the ensemble solver's sequential early
stopping.  Bisecting φ on ``quantile_0.5(critical_range) ≤ target`` under
a tight log-normal fade concentrates each probe's trial outcomes near 0
or 1, so the Wilson interval clears the bound after one or two chunks at
every decisive probe — only probes whose critical-range distribution
straddles the target pay the full M = 240 budget.  Per the single-core CI
convention the claim is stated in *work* counters (coverage kernel calls
and the ``ensemble_trials`` / ``ensemble_trials_saved`` counters), not
wall-clock: both paths run the same kernels through the same cache, so
the counter ratio is exactly the chunk ratio.

The two requests differ only in ``early_stop`` (a fingerprinted field —
they are distinct plans with distinct ledgers), and both draw each trial
from the counter stream keyed by (fingerprint-independent) instance slot
and trial index, so the fixed-M run replays the exact trial outcomes the
early stopper saw before it stopped.

EN2: the chunk-shared work of a rotation-free curve with critical ranges
on.  Every trial of a chunk aims its beams the same way, so a chunk costs
exactly two coverage launches per grid cell (the faded cover for all its
trials, and the angular-only cover they share), and the trials' critical
range bisections run in lockstep: one ``csgraph`` call per step answers
every still-searching trial.  The gate compares the run against the same
request with the per-instance search loop the lockstep replaced
(:func:`repro.kernels.reference.packed_critical_loop`): identical rows,
identical ``connectivity_probes``, and at least 10 probes per
``csgraph`` call.
"""

from __future__ import annotations

import math

import repro.ensemble.trials as trials
from repro.engine import GridCell, Scenario
from repro.ensemble import EnsembleRequest, Perturbation, execute_ensemble
from repro.kernels.instrument import recording
from repro.kernels.reference import packed_critical_loop
from repro.utils.tables import format_ascii_table
from repro.utils.timing import measure

TRIALS, CHUNK = 240, 10


def _request(early_stop: bool) -> EnsembleRequest:
    return EnsembleRequest(
        scenarios=(Scenario("uniform", 32, seeds=2, tag="bench-ensemble"),),
        ks=(1,),
        metric="critical_range",
        quantile=0.5,
        target=1.2,
        phi_lo=2.0,
        phi_hi=2.0 * math.pi,
        tol=1e-2,
        trials=TRIALS,
        chunk=CHUNK,
        perturbation=Perturbation(fade_sigma=0.03),
        early_stop=early_stop,
    )


def test_early_stopping_beats_fixed_budget(capsys):
    """EN1 — same predicate, same trial streams, >= 3x fewer kernel calls."""
    with recording() as rec_early:
        t_early, early = measure(lambda: execute_ensemble(_request(True)))
    with recording() as rec_fixed:
        t_fixed, fixed = measure(lambda: execute_ensemble(_request(False)))

    used_early, saved_early = early.trial_totals()
    used_fixed, saved_fixed = fixed.trial_totals()
    assert saved_fixed == 0 and saved_early > 0

    # Counter-level accounting: the recorded ensemble_trials counters are
    # the batches' own totals, and every evaluated probe of the early run
    # either spent or saved each of its M budgeted trials.
    assert rec_early.ensemble_trials == used_early
    assert rec_early.ensemble_trials_saved == saved_early
    assert rec_fixed.ensemble_trials == used_fixed
    for _, frontiers in early.frontiers():
        for f in frontiers:
            assert f.trials_used + f.trials_saved == f.evaluated_count * TRIALS

    # The acceptance bar: >= 3x fewer coverage kernel launches.  The
    # decisive probes stop after 1-2 chunks of the 24, so the observed
    # ratio is ~6x; 3x is the regression floor.
    assert rec_fixed.coverage_calls >= 3 * rec_early.coverage_calls, (
        f"early stopping regressed: {rec_fixed.coverage_calls} fixed-M "
        f"coverage calls vs {rec_early.coverage_calls} early-stopped (< 3x)"
    )

    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["path", "coverage kernel calls", "trials run", "trials saved",
             "seconds"],
            [
                ["sequential (Wilson)", rec_early.coverage_calls,
                 used_early, saved_early, round(t_early, 3)],
                [f"fixed M={TRIALS}", rec_fixed.coverage_calls,
                 used_fixed, saved_fixed, round(t_fixed, 3)],
                ["ratio", round(rec_fixed.coverage_calls /
                                max(1, rec_early.coverage_calls), 1),
                 round(used_fixed / max(1, used_early), 1), "", ""],
            ],
            title="[EN1] quantile_0.5(critical_range) <= 1.2 under "
                  "fade_sigma=0.03, k=1",
        ))


def test_rotation_free_chunks_share_coverage_and_bisect_in_lockstep(
    capsys, monkeypatch
):
    """EN2 — two coverage launches per chunk and cell; lockstep bisection."""
    request = EnsembleRequest(
        scenarios=(Scenario("uniform", 40, seeds=2, tag="bench-lockstep"),),
        grid=(GridCell(2, math.pi), GridCell(3, 1.5 * math.pi)),
        trials=40,
        chunk=20,
        perturbation=Perturbation(fade_sigma=0.2, edge_fail=0.002),
    )
    with recording() as rec:
        t_lockstep, lockstep = measure(lambda: execute_ensemble(request))
    monkeypatch.setattr(
        trials, "packed_critical",
        lambda tables, cover_ang, eps=1e-9: packed_critical_loop(
            tables, cover_ang, eps=eps
        ),
    )
    with recording() as ref:
        t_loop, loop = measure(lambda: execute_ensemble(request))

    chunks = request.total_instances * request.n_chunks
    assert lockstep.aggregate_rows() == loop.aggregate_rows()
    assert rec.coverage_calls == 2 * chunks * len(request.grid)
    assert rec.connectivity_probes == ref.connectivity_probes
    assert rec.critical_searches == ref.critical_searches
    assert rec.scipy_scc_calls * 10 <= rec.connectivity_probes, (
        f"bisections no longer in lockstep: {rec.scipy_scc_calls} csgraph "
        f"calls for {rec.connectivity_probes} probes"
    )

    with capsys.disabled():
        print()
        print(format_ascii_table(
            ["critical search", "coverage calls", "probes", "csgraph calls",
             "seconds"],
            [
                ["lockstep", rec.coverage_calls, rec.connectivity_probes,
                 rec.scipy_scc_calls, round(t_lockstep, 3)],
                ["per-instance loop", ref.coverage_calls,
                 ref.connectivity_probes, ref.scipy_scc_calls,
                 round(t_loop, 3)],
            ],
            title="[EN2] rotation-free fading curve, n=40, 2 x 2 chunks of "
                  "20 trials, k in {2, 3}",
        ))

