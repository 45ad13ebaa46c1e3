"""Durable, shardable executor for :class:`~repro.engine.spec.FrontierRequest`.

Mirrors :func:`repro.engine.execute_plan` end-to-end: work is chunked by
*instance* (one unit of work solves the instance's frontier at every
requested ``k``, sharing its artifacts through a per-worker
:class:`~repro.engine.cache.ArtifactCache`), dispatched to a
``ProcessPoolExecutor`` when ``jobs > 1`` and run inline otherwise, and —
with a :class:`~repro.store.RunStore` — checkpointed per instance into the
plan's shard ledger.  ``resume=True`` replays ledgered instances with zero
kernel re-execution; ``shard=(i, m)`` executes one of ``m`` deterministic
partitions whose union is bit-identical to an unsharded run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.engine.cache import ArtifactCache, CacheStats
from repro.engine.executor import (
    InstanceReport,
    _execute_durable,
    _report,
    _tombstone_check,
)
from repro.engine._spec import FrontierRequest, Shard
from repro.frontier._solver import KFrontier, solve_instance_frontier
from repro.kernels.backend import resolve_backend, use_backend

__all__ = [
    "InstanceOutcome",
    "FrontierBatch",
    "execute_frontier",
    "assemble_frontier",
]


@dataclass(frozen=True)
class InstanceOutcome:
    """One instance's solved frontiers (one :class:`KFrontier` per k)."""

    scenario_index: int
    instance_index: int
    frontiers: list[KFrontier]


#: One unit of work: (slot, scenario_index, instance_index, coords).
_Task = tuple[int, int, int, Any]

#: One completed unit: (per-k frontier dicts, facts, elapsed, cache delta,
#: backend name).
_Payload = tuple[list[dict], dict[str, float], float, dict[str, int], str]


def _run_task(
    coords, request: FrontierRequest, cache: ArtifactCache, backend_name: str
) -> _Payload:
    before = cache.stats.as_dict()
    t0 = time.perf_counter()
    frontiers, facts = solve_instance_frontier(coords, request, cache=cache)
    dt = time.perf_counter() - t0
    after = cache.stats.as_dict()
    delta = {k: after[k] - before[k] for k in after}
    return [f.as_dict() for f in frontiers], facts, dt, delta, backend_name


def _run_chunk(
    chunk: list[_Task],
    request: FrontierRequest,
    backend_name: str,
    cache: ArtifactCache | None = None,
) -> list[tuple[int, _Payload]]:
    """Worker entry point: solve a chunk of instances with a local cache."""
    cache = cache if cache is not None else ArtifactCache()
    with use_backend(backend_name):
        return [
            (slot, _run_task(coords, request, cache, backend_name))
            for slot, _si, _ii, coords in chunk
        ]


def _iter_chunk_serial(
    chunk: list[_Task],
    request: FrontierRequest,
    backend_name: str,
    cache: ArtifactCache,
):
    """Serial twin of :func:`_run_chunk` that yields per instance.

    Frontier solving stays per-instance (the adaptive bisection is
    inherently sequential per ``(instance, k)``), so yielding lazily keeps
    the durable skeleton's per-instance checkpointing behaviour.
    """
    with use_backend(backend_name):
        for slot, _si, _ii, coords in chunk:
            yield slot, _run_task(coords, request, cache, backend_name)


@dataclass
class FrontierBatch:
    """All solved frontiers of a request, in deterministic plan order."""

    request: FrontierRequest
    outcomes: list[InstanceOutcome]
    instance_reports: list[InstanceReport]
    cache_stats: CacheStats
    jobs_used: int
    elapsed: float
    fallback_reason: str | None = None
    replayed_instances: int = 0
    shard: Shard = field(default_factory=Shard)
    backend: str | None = None

    def probe_totals(self) -> tuple[int, int]:
        """``(total probes, reused probes)`` over every (instance, k)."""
        total = reused = 0
        for outcome in self.outcomes:
            for f in outcome.frontiers:
                total += f.probe_count
                reused += f.reused_count
        return total, reused

    def aggregate_rows(self) -> list[dict[str, Any]]:
        """One row per (scenario, k) over every instance present.

        Threshold mode reports where the φ* landed (over the instances whose
        frontier was located or already met at ``phi_lo``); staircase mode
        reports plateau counts.  Scenarios with no instances in this shard
        are skipped.  Probe counts separate warm-start hits (``reused``)
        from planner+kernel evaluations.
        """
        buckets: dict[tuple[int, int], list[KFrontier]] = {}
        for outcome in self.outcomes:
            for ki, f in enumerate(outcome.frontiers):
                buckets.setdefault((outcome.scenario_index, ki), []).append(f)
        rows: list[dict[str, Any]] = []
        for si, ki in sorted(buckets):
            scenario = self.request.scenarios[si]
            fs = buckets[(si, ki)]
            row: dict[str, Any] = {
                "workload": scenario.workload,
                "n": scenario.n,
                "k": self.request.ks[ki],
                "metric": self.request.metric,
                "runs": len(fs),
            }
            if self.request.search_mode == "threshold":
                stars = [f.phi_star for f in fs if f.phi_star is not None]
                row["target"] = self.request.target
                row["found"] = len(stars)
                row["phi_star_mean"] = (
                    sum(stars) / len(stars) if stars else None
                )
                row["phi_star_min"] = min(stars) if stars else None
                row["phi_star_max"] = max(stars) if stars else None
            else:
                levels = [len(f.steps) for f in fs]
                row["levels_mean"] = sum(levels) / len(levels)
                row["transitions_mean"] = sum(x - 1 for x in levels) / len(levels)
            row["probes"] = sum(f.probe_count for f in fs)
            row["evaluated"] = sum(f.evaluated_count for f in fs)
            row["reused"] = sum(f.reused_count for f in fs)
            rows.append(row)
        return rows

    def summary(self) -> str:
        mode = f"{self.jobs_used} workers" if self.jobs_used > 1 else "serial"
        total, reused = self.probe_totals()
        parts = [
            f"{len(self.outcomes)} instances × k∈{list(self.request.ks)}: "
            f"{total} probes ({reused} warm-start reuses, "
            f"{total - reused} evaluated)"
        ]
        if not self.shard.is_whole:
            parts.append(f"shard {self.shard.label}")
        if self.replayed_instances:
            parts.append(f"{self.replayed_instances} instances from ledger")
        return f"{'; '.join(parts)} ({mode}, {self.elapsed:.2f}s)"


def _outcome(si: int, ii: int, frontier_dicts: list[dict]) -> InstanceOutcome:
    return InstanceOutcome(
        scenario_index=si,
        instance_index=ii,
        frontiers=[KFrontier.from_dict(d) for d in frontier_dicts],
    )


def execute_frontier(
    request: FrontierRequest,
    *,
    jobs: int = 1,
    cache: ArtifactCache | None = None,
    on_instance: Callable[[InstanceReport], None] | None = None,
    store: Any = None,
    shard: "Shard | tuple[int, int] | None" = None,
    resume: bool = False,
    backend: str | None = None,
) -> FrontierBatch:
    """Solve every (instance × k) frontier of ``request``.

    The parameters mirror :func:`repro.engine.execute_plan`: ``jobs`` for
    process-pool fan-out (serial fallback recorded in ``fallback_reason``),
    ``store``/``shard``/``resume`` for durable, partitioned, replayable
    execution, ``backend`` to pick the kernel backend (``None`` defers to
    ``request.backend``, then ``REPRO_BACKEND``, then numpy).  Results are
    reassembled in plan order, so serial, parallel, sharded-and-merged and
    resumed runs are all bit-identical.
    """
    t_start = time.perf_counter()
    backend_name = resolve_backend(backend or request.backend)
    shard = Shard.of(shard)
    all_tasks: list[_Task] = [
        (slot, si, ii, coords)
        for slot, (si, ii, coords) in enumerate(request.instances())
    ]

    def payload_of_row(slot: int, row: Any) -> _Payload:
        from repro.store.ledger import StoreError  # lazy: avoids cycle

        if len(row.frontiers) != len(request.ks):
            raise StoreError(
                f"ledger row for slot {slot} has {len(row.frontiers)} "
                f"k-frontiers, request has {len(request.ks)} ks"
            )
        return (
            list(row.frontiers),
            dict(row.facts),
            row.elapsed,
            row.cache,
            getattr(row, "backend", "numpy"),
        )

    def row_of_payload(slot: int, si: int, ii: int, payload: _Payload) -> Any:
        from repro.store.ledger import FrontierRow  # lazy: avoids cycle

        frontier_dicts, facts, dt, delta, row_backend = payload
        return FrontierRow(
            slot=slot,
            scenario_index=si,
            instance_index=ii,
            elapsed=dt,
            facts=facts,
            frontiers=frontier_dicts,
            cache=delta,
            backend=row_backend,
            mode=request.mode,
        )

    payloads, replayed, jobs_used, fallback_reason, ledger = _execute_durable(
        request, all_tasks, shard,
        jobs=jobs, cache=cache, on_instance=on_instance,
        store=store, resume=resume,
        run_chunk_serial=lambda chunk, c: _iter_chunk_serial(
            chunk, request, backend_name, c
        ),
        submit_chunk=lambda pool, chunk: pool.submit(
            _run_chunk, chunk, request, backend_name
        ),
        rows_for_resume=lambda s, key: s.load_frontier_rows(key),
        payload_of_row=payload_of_row,
        row_of_payload=row_of_payload,
        should_stop=_tombstone_check(store, request),
    )

    outcomes: list[InstanceOutcome] = []
    reports: list[InstanceReport] = []
    stats = CacheStats()
    for slot, si, ii, _coords in all_tasks:
        if not shard.owns(slot):
            continue
        payload = payloads.get(slot)
        assert payload is not None, f"missing result for task slot {slot}"
        frontier_dicts, facts, dt, delta, _row_backend = payload
        outcomes.append(_outcome(si, ii, frontier_dicts))
        reports.append(_report(si, ii, facts, dt))
        stats.merge(CacheStats.from_dict(delta))
    elapsed = time.perf_counter() - t_start
    if ledger is not None:
        ledger.finish(stats, elapsed)
        ledger.close()
    return FrontierBatch(
        request=request,
        outcomes=outcomes,
        instance_reports=reports,
        cache_stats=stats,
        jobs_used=jobs_used,
        elapsed=elapsed,
        fallback_reason=fallback_reason,
        replayed_instances=replayed,
        shard=shard,
        backend=backend_name,
    )


def assemble_frontier(
    request: FrontierRequest,
    rows: dict[int, Any],
    *,
    allow_partial: bool = False,
) -> FrontierBatch:
    """Reconstruct a :class:`FrontierBatch` purely from ledger rows.

    The frontier twin of :func:`repro.store.assemble_batch`: outcomes come
    back in plan order, so the aggregate tables are bit-identical to an
    in-process :func:`execute_frontier` of the same request.
    """
    from repro.store.ledger import StoreError  # lazy: avoids cycle

    expected = request.total_instances
    missing = [slot for slot in range(expected) if slot not in rows]
    if missing and not allow_partial:
        raise StoreError(
            f"ledger covers {expected - len(missing)}/{expected} instances "
            f"(first missing plan slot: {missing[0]}); run the remaining "
            "shards or pass allow_partial"
        )
    outcomes: list[InstanceOutcome] = []
    reports: list[InstanceReport] = []
    stats = CacheStats()
    elapsed = 0.0
    for slot in sorted(rows):
        row = rows[slot]
        if not 0 <= row.slot < expected:
            raise StoreError(f"ledger row slot {row.slot} outside the plan")
        if len(row.frontiers) != len(request.ks):
            raise StoreError(
                f"ledger row for slot {row.slot} has {len(row.frontiers)} "
                f"k-frontiers, request has {len(request.ks)} ks"
            )
        outcomes.append(
            _outcome(row.scenario_index, row.instance_index, row.frontiers)
        )
        reports.append(row.report())
        stats.merge(CacheStats.from_dict(row.cache))
        elapsed += row.elapsed
    return FrontierBatch(
        request=request,
        outcomes=outcomes,
        instance_reports=reports,
        cache_stats=stats,
        jobs_used=1,
        elapsed=elapsed,
        replayed_instances=len(rows),
    )
