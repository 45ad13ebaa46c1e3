"""Child process of the benchmark: run one CLI invocation and report it.

Usage: ``python3 perfbench/harness.py SPEC.json`` where the spec names the
source tree, the ``repro`` CLI argv, whether to trace, and an output path.
The harness imports the CLI and wraps the executor entry points with a
:class:`~tracer.Tracer` (to time the measured phase and keep the executors'
own counters).  A traced run adds wrappers around each layer's public
functions to the same tracer.  It then runs ``repro.__main__.main(argv)``,
removes every wrapper again and writes one JSON report.

``repro serve`` runs until SIGINT; the report is written on the way out.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from measure import median  # noqa: E402
from tracer import Tracer, layer_times  # noqa: E402

#: The executor entry points, wrapped in every run: their spans time the
#: measured phase, and their results carry the executors' own counters.
EXECUTORS = [
    ("repro.engine.executor", "execute_plan"),
    ("repro.frontier.executor", "execute_frontier"),
    ("repro.ensemble.executor", "execute_ensemble"),
]


def _batch_info(args, kwargs, batch):
    """Facts an executor's result carries: cache counters, run records and,
    for a frontier batch, its probe totals and every solved staircase."""
    if batch is None:  # the executor raised
        return {}
    info = {"cache": batch.cache_stats.as_dict()}
    if hasattr(batch, "records"):
        info["runs"] = len(batch.records)
    if hasattr(batch, "probe_totals"):
        info["probes"], info["reused"] = batch.probe_totals()
        info["frontiers"] = [
            dict(f.as_dict(), scenario=outcome.scenario_index,
                 instance=outcome.instance_index)
            for outcome in batch.outcomes for f in outcome.frontiers
        ]
    return info


def install_executors(tracer: Tracer) -> None:
    for module_name, attr in EXECUTORS:
        tracer.install(importlib.import_module(module_name), attr, "engine",
                       info=_batch_info)


def executor_facts(spans) -> dict:
    """The measured phase (first executor entry to last exit, wall and
    CPU) and the counters summed over every executor call."""
    calls = [s for s in spans if s.layer == "engine"]
    facts = {"executor_calls": len(calls), "cache": {}, "runs": 0,
             "probes": 0, "reused": 0, "frontiers": []}
    for span in calls:
        for key, value in span.info.get("cache", {}).items():
            facts["cache"][key] = facts["cache"].get(key, 0) + int(value)
        facts["runs"] += span.info.get("runs", 0)
        facts["probes"] += span.info.get("probes", 0)
        facts["reused"] += span.info.get("reused", 0)
        facts["frontiers"] += span.info.get("frontiers", [])
    if calls:
        first = min(calls, key=lambda s: s.t0)
        last = max(calls, key=lambda s: s.t1)
        facts.update(t_exec=first.t0, t_exec_end=last.t1,
                     cpu_exec=last.c1 - first.c0)
    else:
        facts.update(t_exec=None, t_exec_end=None, cpu_exec=None)
    return facts


# -- the traced layers -------------------------------------------------------------


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _packed_units(args, kwargs, result):
    return len(_arg(args, kwargs, 1, "counts"))


def _packed_searches(args, kwargs, result):
    return {"searches": len(_arg(args, kwargs, 0, "tables").counts)}


def _trial_units(args, kwargs, result):
    return len(list(_arg(args, kwargs, 6, "trial_indices")))


def _probe_info(args, kwargs, result):
    return {"reused": bool(result.reused)} if result is not None else {}


def _submit_info(args, kwargs, result):
    return {"key": result["id"], "attached": result["attached"]} if result else {}


def _drain_info(args, kwargs, result):
    return {"key": _arg(args, kwargs, 1, "plan_key")}


#: (module, class or None, attribute, layer, hooks), traced on top of the
#: executors (layer ``engine``).  Kernel entry points are the module-level
#: functions the backends delegate to, so every backend method and direct
#: caller lands in the same span.
LAYERS = [
    ("repro.btsp.heuristic", None, "best_tour", "btsp", {}),
    ("repro.spanning.emst", None, "euclidean_mst", "spanning", {}),
    ("repro.core.symmetric", None, "orient_for_mode", "core", {}),
    ("repro.core.planner", None, "orient_antennae", "core", {}),
    ("repro.frontier._solver", "ProbeEngine", "__call__", "frontier",
     {"info": _probe_info}),
    ("repro.kernels.geometry", None, "polar_tables", "kernels.polar", {}),
    ("repro.kernels.batch", None, "packed_polar_tables", "kernels.polar", {}),
    ("repro.kernels.sparse", None, "sparse_polar_tables", "kernels.polar", {}),
    ("repro.kernels.coverage", None, "batched_coverage", "kernels.coverage", {}),
    ("repro.kernels.batch", None, "packed_coverage", "kernels.coverage", {}),
    ("repro.kernels.sparse", None, "sparse_covered_edges", "kernels.coverage", {}),
    ("repro.kernels.sparse", None, "sparse_trial_coverage", "kernels.coverage", {}),
    ("repro.kernels.connectivity", None, "strongly_connected_csr",
     "kernels.connectivity", {}),
    ("repro.kernels.connectivity", None, "symmetric_connected_csr",
     "kernels.connectivity", {}),
    ("repro.kernels.batch", None, "packed_strongly_connected",
     "kernels.connectivity", {"units": _packed_units}),
    ("repro.kernels.batch", None, "packed_symmetric_connected",
     "kernels.connectivity", {"units": _packed_units}),
    ("repro.kernels.critical", None, "critical_range_search",
     "kernels.critical", {}),
    ("repro.kernels.critical", None, "symmetric_critical_range_search",
     "kernels.critical", {}),
    ("repro.kernels.batch", None, "packed_critical", "kernels.critical",
     {"info": _packed_searches}),
    ("repro.kernels.batch", None, "packed_symmetric_critical", "kernels.critical",
     {"info": _packed_searches}),
    ("repro.analysis.metrics", None, "orientation_metrics", "analysis", {}),
    ("repro.analysis.metrics", None, "batched_orientation_metrics", "analysis", {}),
    ("repro.ensemble.trials", None, "measure_trials", "ensemble",
     {"units": _trial_units}),
    ("repro.store.ledger", "RunStore", "write_plan", "store.write", {}),
    ("repro.store.ledger", "ShardLedger", "append", "store.write", {}),
    ("repro.store.coordination", None, "enqueue", "store.write", {}),
    ("repro.store.coordination", None, "dequeue", "store.write", {}),
    ("repro.store.coordination", None, "claim_shard", "store.write", {}),
    ("repro.store.coordination", None, "release_shard", "store.write", {}),
    ("repro.store.ledger", "ShardLedger", "finish", "store.fsync", {}),
    ("repro.store.ledger", "RunStore", "ledger_paths", "store.scan", {}),
    ("repro.store.ledger", "RunStore", "plan_keys", "store.scan", {}),
    ("repro.store.coordination", None, "claims_for", "store.scan", {}),
    ("repro.store.coordination", None, "queued_plans", "store.scan", {}),
    ("repro.store.ledger", "RunStore", "load_request", "store.read", {}),
    ("repro.store.ledger", "RunStore", "load_typed_rows", "store.read", {}),
    ("repro.store.coordination", None, "plan_progress", "store.read", {}),
    ("repro.store.coordination", None, "queue_entry", "store.read", {}),
    ("repro.service.jobs", "JobManager", "submit", "service.submit",
     {"info": _submit_info}),
    ("repro.service.jobs", "JobManager", "result", "service.result", {}),
    ("repro.service.worker", None, "drain_plan", "service.drain",
     {"info": _drain_info}),
    ("repro.service._wire", None, "parse_submit", "service.wire", {}),
    ("repro.service._wire", None, "dump_json", "service.wire", {}),
    ("repro.service._wire", None, "load_json", "service.wire", {}),
]


def install_layers(tracer: Tracer) -> None:
    for module_name, cls, attr, layer, hooks in LAYERS:
        owner = importlib.import_module(module_name)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.install(owner, attr, layer, **hooks)


def layer_report(spans, kernels: dict, facts: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of one traced process, plus every count mismatch
    between the wrappers and the program's own counters."""
    times = layer_times(spans)

    def get(layer, key):
        return times.get(layer, {}).get(key, 0.0)

    def self_of(prefix):
        return sum(row["self"] for name, row in times.items()
                   if name == prefix or name.startswith(prefix + "."))

    by_id = {s.id: s for s in spans}

    def under(span, layer):
        parent = span.parent
        while parent is not None:
            up = by_id[parent]
            if up.layer == layer:
                return True
            parent = up.parent
        return False

    probes = [s for s in spans if s.layer == "frontier"]
    evaluated = sum(1 for s in probes if not s.info.get("reused", True))
    critical = [s for s in spans if s.layer == "kernels.critical"]
    searches = sum(s.info.get("searches", 1) for s in critical)
    critical_probes = sum(
        s.units for s in spans
        if s.layer == "kernels.connectivity" and under(s, "kernels.critical")
    )
    conn_probes = get("kernels.connectivity", "units")
    cache = facts["cache"]
    lookups = cache.get("hits", 0) + cache.get("misses", 0)

    submitted: dict[str, float] = {}
    for s in spans:
        if s.layer == "service.submit" and s.info and not s.info["attached"]:
            submitted.setdefault(s.info["key"], s.t1)
    # The drain thread is started inside submit, so it may begin before
    # submit returns: that counts as no wait.
    waits = [max(0.0, s.t0 - submitted[s.info["key"]]) for s in spans
             if s.layer == "service.drain" and s.info.get("key") in submitted]

    metrics = {
        "btsp.busy_s": get("btsp", "busy"),
        "btsp.calls": get("btsp", "calls"),
        "spanning.busy_s": get("spanning", "busy"),
        "core.self_s": get("core", "self"),
        "core.calls": get("core", "calls"),
        "frontier.self_s": get("frontier", "self"),
        "frontier.probes": len(probes),
        "frontier.evaluated": evaluated,
        "frontier.reuse_ratio": (len(probes) - evaluated) / len(probes) if probes else 0.0,
        "kernels.polar.busy_s": get("kernels.polar", "busy"),
        "kernels.trig_evals": kernels["trig_evals"],
        "kernels.coverage.busy_s": get("kernels.coverage", "busy"),
        "kernels.coverage_calls": get("kernels.coverage", "spans"),
        "kernels.sector_evals": kernels["sector_evals"],
        "kernels.connectivity.busy_s": get("kernels.connectivity", "busy"),
        "kernels.connectivity_probes": conn_probes,
        "kernels.connectivity.us_per_probe": (
            1e6 * get("kernels.connectivity", "busy") / conn_probes if conn_probes else 0.0
        ),
        "kernels.critical.busy_s": get("kernels.critical", "busy"),
        "kernels.critical_searches": get("kernels.critical", "spans"),
        "kernels.probes_per_search": critical_probes / searches if searches else 0.0,
        "analysis.self_s": get("analysis", "self"),
        "engine.self_s": get("engine", "self"),
        "engine.cache_hit_ratio": cache.get("hits", 0) / lookups if lookups else 0.0,
        "engine.tree_builds": cache.get("tree_builds", 0),
        "ensemble.self_s": get("ensemble", "self"),
        "ensemble.trials": get("ensemble", "units"),
        "ensemble.trials_saved": kernels["ensemble_trials_saved"],
        "store.write_busy_s": get("store.write", "busy"),
        "store.fsync_busy_s": get("store.fsync", "busy"),
        "store.scan_busy_s": get("store.scan", "busy"),
        "store.scan_calls": get("store.scan", "spans"),
        "store.read_busy_s": get("store.read", "busy"),
        "store.rows_appended": sum(
            1 for s in spans if s.name == "ShardLedger.append"
        ),
        "service.submit_busy_s": get("service.submit", "busy"),
        "service.result_busy_s": get("service.result", "busy"),
        "service.drain_busy_s": get("service.drain", "busy"),
        "service.queue_wait_s": median(waits) if waits else 0.0,
        "service.wire_busy_s": get("service.wire", "busy"),
        "trace.spans": len(spans),
    }
    module_self = {
        module: self_of(module)
        for module in ("btsp", "spanning", "core", "frontier", "kernels",
                       "analysis", "engine", "ensemble", "store", "service")
    }

    checks = [
        ("kernels.polar spans", get("kernels.polar", "spans"),
         "polar_builds + packed_polar_builds + sparse_polar_builds",
         kernels["polar_builds"] + kernels["packed_polar_builds"]
         + kernels["sparse_polar_builds"]),
        ("kernels.coverage spans", get("kernels.coverage", "spans"),
         "coverage_calls", kernels["coverage_calls"]),
        ("kernels.critical spans", get("kernels.critical", "spans"),
         "critical_searches", kernels["critical_searches"]),
        ("kernels.connectivity probes", conn_probes,
         "connectivity_probes", kernels["connectivity_probes"]),
        ("ensemble trials", get("ensemble", "units"),
         "ensemble_trials", kernels["ensemble_trials"]),
        ("spanning spans", get("spanning", "spans"),
         "CacheStats.tree_builds", cache.get("tree_builds", 0)),
        ("frontier probe spans", len(probes),
         "FrontierBatch probes", facts["probes"]),
        ("frontier evaluated spans", evaluated,
         "FrontierBatch probes - reused", facts["probes"] - facts["reused"]),
    ]
    mismatches = [
        f"{what} = {int(ours)} but {name} = {int(theirs)}"
        for what, ours, name, theirs in checks if int(ours) != int(theirs)
    ]
    return {"metrics": metrics, "module_self": module_self}, mismatches


def main() -> int:
    with open(sys.argv[1], encoding="utf8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import repro.__main__ as cli
    from repro.kernels.instrument import kernel_counters

    tracer = Tracer()
    install_executors(tracer)
    if spec["trace"]:
        install_layers(tracer)
    before = kernel_counters().copy()
    report: dict = {}
    try:
        report["rc"] = cli.main(spec["argv"])
    finally:
        tracer.uninstall()
        kernels = kernel_counters().delta_since(before).as_dict()
        facts = executor_facts(tracer.spans)
        report.update(facts, kernels=kernels)
        if spec["trace"]:
            layers, mismatches = layer_report(tracer.spans, kernels, facts)
            report.update(layers=layers, mismatches=mismatches)
        tmp = spec["out"] + ".tmp"
        with open(tmp, "w", encoding="utf8") as fh:
            json.dump(report, fh)
        os.replace(tmp, spec["out"])
    return 0 if report.get("rc") == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
