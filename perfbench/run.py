"""Repository benchmark: four named workloads against the public surfaces.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --holdout          # certificates on a 2nd seed
    python3 perfbench/run.py --pin              # rewrite digests.json

Run from the repository root.  Workloads (see NOTE.md for why each one):

* ``sweep-paper-grid``   — ``repro sweep`` over the paper's Table-1 grid;
* ``frontier-staircase`` — ``repro frontier`` critical-range staircases;
* ``ensemble-fading``    — ``repro ensemble`` connection-probability curves;
* ``service-plan-stream`` — ``repro serve`` driven by one closed-loop client
  alternating new small sweep plans with re-submissions (attaches).

A batch run repeats one fixed unit of work ("rep"), each in a fresh
process, as many times as fill ``--seconds`` at its nominal duration; rep
``r`` of seed ``s`` runs the instances of Scenario tag ``pb<s>-r<r>``, so
the seed reaches the program only as that tag.  A service run drives
fixed-length streams ("blocks"), each against a fresh server and run
directory, with client and server confined to one CPU.  ``--trace 1``
alternates untraced and traced reps on the same inputs and reports
per-layer metrics from spans recorded by wrappers installed in the child
(``harness.py``).

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  Every output is checked (pinned digests for
the default seed, the program's own certificates for every seed); any
failure exits non-zero.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from measure import digest, median, quantile, tail_percentile  # noqa: E402

DEFAULT_SEED = 1
DEFAULT_SECONDS = 30.0  # BENCHMARK.json's run_seconds
HOLDOUT_SEED = 7919
DIGESTS = HERE / "digests.json"
WORK = ROOT / ".perfbench_work"
REP_TIMEOUT_S = 150.0
HEALTHY_TIMEOUT_S = 60.0

#: Child environment: one process, one BLAS thread, the source tree on the
#: path, no inherited backend override.
CHILD_ENV_DROP = ("REPRO_BACKEND", "REPRO_SPARSE_AUTO_N", "REPRO_DENSE_LIMIT")
CHILD_ENV_SET = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "throughput": "1/s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a wrong output)."""


# -- workloads ---------------------------------------------------------------------


def _sweep_certs(rows: list[dict]) -> list[str]:
    return [
        f"row k={r['k']} phi={r['phi']}: bound_ok={r['bound_ok']} "
        f"all_connected={r['all_connected']}"
        for r in rows if not (r["bound_ok"] and r["all_connected"])
    ]


#: The frontier workload's staircase: φ over the CLI's default range
#: [0, 2π], refined until adjacent plateaus are at most ``FRONTIER_TOL`` apart.
FRONTIER_TOL = 0.01
FRONTIER_RANGE = (0.0, 2 * math.pi)


def _staircase_problems(f: dict) -> list[str]:
    """The documented invariants of one solved staircase (``KFrontier``):
    plateaus in φ order that cover the range, adjacent ones separated by a
    gap of at most tol with different values, and every probe lying on a
    plateau whose value it reports."""
    steps, probes = f["steps"], f["probes"]
    if f["status"] != "mapped" or not steps:
        return [f"status {f['status']} with {len(steps)} plateaus"]
    wrong = []
    if (steps[0]["phi_lo"], steps[-1]["phi_hi"]) != FRONTIER_RANGE:
        wrong.append(f"plateaus span [{steps[0]['phi_lo']}, {steps[-1]['phi_hi']}]")
    if (steps[0]["value"], steps[-1]["value"]) != (f["value_lo"], f["value_hi"]):
        wrong.append("end plateaus disagree with value_lo/value_hi")
    for step in steps:
        if not step["phi_lo"] <= step["phi_hi"]:
            wrong.append(f"plateau [{step['phi_lo']}, {step['phi_hi']}] is reversed")
    for left, right in zip(steps, steps[1:]):
        gap = right["phi_lo"] - left["phi_hi"]
        if not 0.0 < gap <= FRONTIER_TOL or left["value"] == right["value"]:
            wrong.append(f"transition at {left['phi_hi']}: gap {gap}, "
                         f"values {left['value']} -> {right['value']}")
    for phi, value, _algorithm, _reused in probes:
        step = next((s for s in steps if s["phi_lo"] <= phi <= s["phi_hi"]), None)
        if step is None or step["value"] != value:
            wrong.append(f"probe at phi={phi} (value {value}) is on no plateau "
                         "of that value")
    ends = {step[end] for step in steps for end in ("phi_lo", "phi_hi")}
    if not ends <= {p[0] for p in probes}:
        wrong.append("a plateau end is not a probed phi")
    return wrong


def _frontier_certs(rows: list[dict], frontiers: list[dict]) -> list[str]:
    """One problem per failing output: a staircase that breaks its
    invariants, or a table row whose counts differ from those recomputed
    from the staircases of its k."""
    wrong = []
    for f in frontiers:
        problems = _staircase_problems(f)
        if problems:
            wrong.append(f"instance {f['scenario']}/{f['instance']} k={f['k']}: "
                         + "; ".join(problems))
    for row in rows:
        fs = [f for f in frontiers if f["k"] == row["k"]]
        probes = [p for f in fs for p in f["probes"]]
        reused = sum(1 for p in probes if p[3])
        expected = {
            "runs": len(fs),
            "levels_mean": sum(len(f["steps"]) for f in fs) / len(fs) if fs else None,
            "probes": len(probes),
            "evaluated": len(probes) - reused,
            "reused": reused,
        }
        differ = [f"{key} {row[key]} but the staircases give {value}"
                  for key, value in expected.items() if row[key] != value]
        if differ:
            wrong.append(f"row k={row['k']}: " + "; ".join(differ))
    return wrong


#: Absolute slack on the Wilson check: at p = 0 the program's lower bound
#: evaluates to ~1.7e-18 instead of 0 (floating-point rounding), which is
#: not a statistical violation.  Anything wider than rounding still fails.
WILSON_SLACK = 1e-12


def _ensemble_certs(rows: list[dict]) -> list[str]:
    return [
        f"row k={r['k']} phi={r['phi']}: p={r['p_connected']} outside "
        f"Wilson [{r['p_lo']}, {r['p_hi']}]"
        for r in rows
        if not (r["p_lo"] - WILSON_SLACK <= r["p_connected"] <= r["p_hi"] + WILSON_SLACK)
    ]


@dataclass(frozen=True)
class BatchWorkload:
    name: str
    argv: tuple[str, ...]
    unit: str
    units: Callable[[dict, list[dict]], float]  # (harness report, rows)
    certificates: Callable[[list[dict], list[dict]], list[str]]  # (rows, frontiers)
    dominant: tuple[str, ...]
    rep_s: float  # one rep with its start-up, measured on 2 shared cores


WORKLOADS: dict[str, Any] = {
    "sweep-paper-grid": BatchWorkload(
        "sweep-paper-grid",
        ("sweep", "--workload", "uniform", "--n", "128", "--seeds", "4",
         "--k", "1", "2", "3", "4", "5", "--phi", "0", "pi/2", "pi", "3pi/2",
         "--mode", "strong", "--backend", "numpy", "--jobs", "1"),
        unit="runs",
        units=lambda report, rows: report["runs"],
        certificates=lambda rows, frontiers: _sweep_certs(rows),
        dominant=("btsp",),
        rep_s=4.3,
    ),
    "frontier-staircase": BatchWorkload(
        "frontier-staircase",
        ("frontier", "--workload", "grid", "--n", "48", "--seeds", "4",
         "--k", "1", "2", "--tol", str(FRONTIER_TOL), "--backend", "numpy",
         "--jobs", "1"),
        # Staircases, one per (instance, k): an instance's time is set by the
        # 10 tour rebuilds of its k=1 staircase, not by its probe count.
        unit="staircases",
        units=lambda report, rows: len(report["frontiers"]),
        certificates=_frontier_certs,
        dominant=("btsp",),
        rep_s=5.0,
    ),
    "ensemble-fading": BatchWorkload(
        "ensemble-fading",
        ("ensemble", "--workload", "uniform", "--n", "96", "--seeds", "2",
         "--k", "2", "3", "--phi", "pi", "3pi/2", "--trials", "100",
         "--fade-sigma", "0.1", "--edge-fail", "0.002",
         "--backend", "numpy", "--jobs", "1"),
        unit="trials",
        units=lambda report, rows: report["kernels"]["ensemble_trials"],
        certificates=lambda rows, frontiers: _ensemble_certs(rows),
        dominant=("kernels",),
        rep_s=3.9,
    ),
    "service-plan-stream": None,  # driven by run_service, not a CLI rep
}

#: The service stream: ``STREAM_PLANS`` new plans alternating with as many
#: attaches against one fresh server, the client polling every ``POLL_S``.
#: ``BLOCK_S`` is one such block with its server start-up, measured on 2
#: shared vCPUs.
STREAM_PLANS = 50
POLL_S = 0.01
BLOCK_S = 5.5


def unit_count(nominal_s: float, seconds: float, trace: bool) -> int:
    """Reps (or blocks) of a run: as many as fill ``seconds`` at the nominal
    duration (measured on 2 shared vCPUs), at least 3.  Fixing the count from the
    arguments, not from the clock, keeps the measured inputs a function of
    the seed and ``seconds`` alone.  A traced run pairs each traced rep
    with an untraced one, so it runs half as many pairs."""
    count = max(3, round(seconds / nominal_s))
    return max(2, round(count / 2)) if trace else count


SERVICE_DOMINANT = ("store", "service")


def _service_plan(seed: int, block: int, index: int) -> dict:
    """Wire body of new plan ``index``: uniform n=32, 2 seeds, k∈{1,2},
    φ∈{π, 2π}, under its own Scenario tag."""
    pi = 3.141592653589793
    return {
        "wire_version": 1,
        "kind": "sweep",
        "request": {
            "scenarios": [{"workload": "uniform", "n": 32, "seeds": 2,
                           "tag": f"pb{seed}-b{block}-p{index}",
                           "seed_offset": 0}],
            "grid": [{"k": k, "phi": phi} for k in (1, 2) for phi in (pi, 2 * pi)],
            "compute_critical": True,
        },
    }


# -- child processes ---------------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CHILD_ENV_DROP}
    env.update(CHILD_ENV_SET)
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    proc: subprocess.Popen
    t_spawn: float
    out: Path
    log: Path
    rusage: Any = None

    def wait(self, timeout: float = REP_TIMEOUT_S) -> int:
        """Reap the child with its own rusage (peak RSS of this process only)."""
        deadline = time.perf_counter() + timeout
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                self.rusage = usage
                self.proc.returncode = os.waitstatus_to_exitcode(status)
                return self.proc.returncode
            if time.perf_counter() > deadline:
                self.kill()
                raise BenchError(f"child timed out; log: {self.tail()}")
            time.sleep(0.005)

    def kill(self) -> None:
        if self.proc.returncode is None:
            try:
                self.proc.kill()
            except ProcessLookupError:
                pass
            _, status, self.rusage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)

    def tail(self) -> str:
        try:
            return self.log.read_text(encoding="utf8")[-2000:]
        except OSError:
            return "(no log)"

    def report(self) -> dict:
        try:
            return json.loads(self.out.read_text(encoding="utf8"))
        except (OSError, ValueError):
            raise BenchError(f"child wrote no report; log: {self.tail()}") from None


def spawn(workdir: Path, name: str, argv: list[str], trace: bool) -> Child:
    out = workdir / f"{name}.report.json"
    log = workdir / f"{name}.log"
    spec = workdir / f"{name}.spec.json"
    spec.write_text(json.dumps({
        "src": str(SRC), "argv": argv, "trace": trace, "out": str(out),
    }), encoding="utf8")
    with open(log, "wb") as fh:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "harness.py"), str(spec)],
            stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT,
            env=_child_env(), cwd=str(ROOT),
        )
    return Child(proc, t_spawn, out, log)


# -- results -----------------------------------------------------------------------


@dataclass
class Outcome:
    """One run's samples and checks."""

    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    layers: list[dict] = field(default_factory=list)
    module_self: list[dict] = field(default_factory=list)
    overheads: list[tuple[float, float]] = field(default_factory=list)
    extra: dict[str, Any] = field(default_factory=dict)

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(float(value))

    def check(self, ok: bool, problem: str) -> None:
        self.outputs(1, [] if ok else [problem])

    def outputs(self, count: int, problems: list[str]) -> None:
        """``count`` checked outputs, of which ``problems`` failed."""
        self.attempted += count
        self.failed += len(problems)
        self.problems.extend(problems)


def load_pins() -> dict:
    if DIGESTS.exists():
        return json.loads(DIGESTS.read_text(encoding="utf8"))
    return {}


def check_digest(outcome: Outcome, pins: dict, workload: str, seed: int,
                 index: int, value: str) -> None:
    """Compare with the pinned digest (default seed, pinned indexes only)."""
    if seed != DEFAULT_SEED:
        return
    pinned = pins.get(workload, {}).get(str(index))
    if pinned is None:
        return
    outcome.check(pinned == value,
                  f"{workload} rep {index}: digest {value} != pinned {pinned}")


# -- batch workloads ---------------------------------------------------------------


def batch_rep(wl: BatchWorkload, seed: int, rep: int, trace: bool,
              workdir: Path, name: str) -> tuple[dict, list[dict]]:
    table = workdir / f"{name}.table.json"
    argv = list(wl.argv) + ["--tag", f"pb{seed}-r{rep}", "--format", "json",
                            "--output", str(table)]
    child = spawn(workdir, name, argv, trace)
    rc = child.wait()
    if rc != 0:
        raise BenchError(f"{wl.name} rep {rep} exited {rc}: {child.tail()}")
    report = child.report()
    report["t_spawn"] = child.t_spawn
    report["peak_rss_mb"] = child.rusage.ru_maxrss / 1024.0
    rows = json.loads(table.read_text(encoding="utf8"))["rows"]
    return report, rows


def outputs(report: dict, rows: list[dict]) -> list[dict]:
    """A rep's checked outputs: its table rows, then every solved staircase
    (frontier only), as the digest covers them."""
    return rows + report["frontiers"]


def run_batch(wl: BatchWorkload, seed: int, seconds: float, trace: bool,
              workdir: Path, pins: dict) -> Outcome:
    outcome = Outcome()
    for rep in range(unit_count(wl.rep_s, seconds, trace)):
        report, rows = batch_rep(wl, seed, rep, False, workdir, f"r{rep}")
        record_batch(outcome, wl, seed, rep, report, rows, pins)
        if trace:
            traced, traced_rows = batch_rep(wl, seed, rep, True, workdir, f"t{rep}")
            outcome.check(digest(outputs(traced, traced_rows))
                          == digest(outputs(report, rows)),
                          f"{wl.name} rep {rep}: traced rows differ from untraced rows")
            record_trace(outcome, traced, report["t_exec_end"] - report["t_exec"],
                         traced["t_exec_end"] - traced["t_exec"])
    return outcome


def record_batch(outcome: Outcome, wl: BatchWorkload, seed: int, rep: int,
                 report: dict, rows: list[dict], pins: dict) -> None:
    wall = report["t_exec_end"] - report["t_exec"]
    outcome.add("setup_s", report["t_exec"] - report["t_spawn"])
    outcome.add("wall_s", wall)
    outcome.add("cpu_s", report["cpu_exec"])
    outcome.add("peak_rss_mb", report["peak_rss_mb"])
    outcome.add("units", wl.units(report, rows))
    outcome.check(report["executor_calls"] == 1,
                  f"{wl.name} rep {rep}: {report['executor_calls']} executor calls")
    checked = outputs(report, rows)
    problems = wl.certificates(rows, report["frontiers"])
    outcome.outputs(len(checked), [f"{wl.name} rep {rep}: {p}" for p in problems])
    outcome.extra.setdefault("digests", {})[str(rep)] = digest(checked)
    check_digest(outcome, pins, wl.name, seed, rep, digest(checked))


def record_trace(outcome: Outcome, traced: dict, plain_wall: float,
                 traced_wall: float) -> None:
    mismatches = traced["mismatches"]
    outcome.check(not mismatches, f"trace missed calls: {'; '.join(mismatches)}")
    outcome.layers.append(traced["layers"]["metrics"])
    outcome.module_self.append(traced["layers"]["module_self"])
    outcome.overheads.append((plain_wall, traced_wall))


# -- the service stream ------------------------------------------------------------


def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _http(port: int, method: str, path: str, body: Any = None) -> tuple[int, Any]:
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    try:
        payload = None if body is None else json.dumps(body).encode("utf8")
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        resp = conn.getresponse()
        data = resp.read()
        return resp.status, json.loads(data) if data else None
    finally:
        conn.close()


class Server:
    """One ``repro serve`` child over a fresh run directory."""

    def __init__(self, workdir: Path, name: str, trace: bool) -> None:
        self.run_dir = workdir / f"{name}.rundir"
        shutil.rmtree(self.run_dir, ignore_errors=True)
        self.port = _free_port()
        self.child = spawn(
            workdir, name,
            ["serve", "--run-dir", str(self.run_dir), "--host", "127.0.0.1",
             "--port", str(self.port), "--jobs", "1", "--backend", "numpy"],
            trace,
        )
        self.setup_s = self._wait_healthy()

    def _wait_healthy(self) -> float:
        deadline = time.perf_counter() + HEALTHY_TIMEOUT_S
        while time.perf_counter() < deadline:
            if self.child.proc.poll() is not None:
                raise BenchError(f"server exited early: {self.child.tail()}")
            try:
                status, _ = _http(self.port, "GET", "/healthz")
                if status == 200:
                    return time.perf_counter() - self.child.t_spawn
            except OSError:
                pass
            time.sleep(0.002)
        self.child.kill()
        raise BenchError("server never became healthy")

    def stop(self) -> dict:
        self.child.proc.send_signal(signal.SIGINT)
        rc = self.child.wait(60.0)
        if rc != 0:
            raise BenchError(f"server exited {rc}: {self.child.tail()}")
        report = self.child.report()
        report["peak_rss_mb"] = self.child.rusage.ru_maxrss / 1024.0
        return report


def _cpu_of(pid: int) -> float:
    """User + system CPU seconds of process ``pid``, over all its threads."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()  # fields 3.. of stat
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _confine(pid: int, cpus: set[int]) -> None:
    """Move every thread of process ``pid`` onto ``cpus``; threads it starts
    later inherit the mask from their creator."""
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            os.sched_setaffinity(int(tid), cpus)
        except ProcessLookupError:
            pass  # the thread ended meanwhile


def _await_result(port: int, key: str) -> tuple[dict, int]:
    polls = 0
    while True:
        polls += 1
        status, body = _http(port, "GET", f"/plans/{key}/result")
        if status == 200:
            return body, polls
        if status != 409:
            raise BenchError(f"result of {key[:12]}: HTTP {status} {body}")
        time.sleep(POLL_S)


def service_block(seed: int, block: int, trace: bool, workdir: Path) -> dict:
    """Drive one stream; returns latencies, rows and the server's report."""
    server = Server(workdir, f"{'t' if trace else 'b'}{block}", trace)
    rng = random.Random(f"{seed}-{block}")
    done: list[tuple[int, str, list]] = []
    new_lat, attach_lat, polls, problems = [], [], [], []
    digests = []
    # Client and server share one CPU over the stream.  Every request is a
    # hand-off between them; across two CPUs each hand-off wakes an idle
    # virtual CPU, and on a shared host that wake-up latency, not the
    # program, set the stream time.
    own_cpus = os.sched_getaffinity(0)
    stream_cpus = {min(own_cpus)}
    try:
        _confine(server.child.proc.pid, stream_cpus)
        os.sched_setaffinity(0, stream_cpus)
        cpu_start = _cpu_of(server.child.proc.pid)
        t_start = time.perf_counter()
        for index in range(STREAM_PLANS):
            t0 = time.perf_counter()
            status, sub = _http(server.port, "POST", "/plans",
                                _service_plan(seed, block, index))
            if status != 200:
                raise BenchError(f"submit plan {index}: HTTP {status} {sub}")
            body, n_polls = _await_result(server.port, sub["id"])
            new_lat.append(time.perf_counter() - t0)
            polls.append(n_polls)
            wrong = _sweep_certs(body["rows"])
            if sub["attached"]:
                wrong.append("reported attached")
            if wrong:
                problems.append(f"new plan {index}: {'; '.join(wrong)}")
            done.append((index, sub["id"], body["rows"]))
            digests.append(digest(body["rows"]))

            earlier, key, rows = done[rng.randrange(len(done))]
            t0 = time.perf_counter()
            status, sub = _http(server.port, "POST", "/plans",
                                _service_plan(seed, block, earlier))
            if status != 200:
                raise BenchError(f"attach {key[:12]}: HTTP {status} {sub}")
            body, _ = _await_result(server.port, sub["id"])
            attach_lat.append(time.perf_counter() - t0)
            if not sub["attached"] or sub["id"] != key or body["rows"] != rows:
                problems.append(f"re-submission of plan {earlier} did not attach "
                                "to it and return its rows")
        wall = time.perf_counter() - t_start
        cpu = _cpu_of(server.child.proc.pid) - cpu_start
    finally:
        os.sched_setaffinity(0, own_cpus)
        if server.child.proc.returncode is None and server.child.proc.poll() is None:
            report = server.stop()
        else:
            server.child.kill()
            raise BenchError(f"server died: {server.child.tail()}")
    files = sorted(os.listdir(server.run_dir))
    ledger_rows = 0
    ledger_bytes = 0
    for name in files:
        if name.startswith("ledger-"):
            data = (server.run_dir / name).read_bytes()
            ledger_bytes += len(data)
            ledger_rows += sum(
                1 for line in data.splitlines()
                if json.loads(line).get("type") != "shard_done"
            )
    return {
        "setup_s": server.setup_s, "wall_s": wall, "cpu_s": cpu, "report": report,
        "new": new_lat, "attach": attach_lat, "polls": polls,
        "problems": problems, "digest": digest(digests),
        "files": len(files), "ledger_rows": ledger_rows,
        "ledger_bytes": ledger_bytes,
    }


def run_service(seed: int, seconds: float, trace: bool, workdir: Path,
                pins: dict) -> Outcome:
    outcome = Outcome()
    for block in range(unit_count(BLOCK_S, seconds, trace)):
        plain = service_block(seed, block, False, workdir)
        record_service(outcome, seed, block, plain, pins)
        if trace:
            traced = service_block(seed, block, True, workdir)
            outcome.check(traced["digest"] == plain["digest"],
                          f"block {block}: traced results differ from untraced")
            record_trace(outcome, traced["report"], plain["wall_s"], traced["wall_s"])
            layers = outcome.layers[-1]
            layers["store.bytes_appended"] = traced["ledger_bytes"]
            outcome.check(
                layers["store.rows_appended"] == traced["ledger_rows"],
                f"trace missed calls: ShardLedger.append spans = "
                f"{layers['store.rows_appended']} but ledger rows = "
                f"{traced['ledger_rows']}",
            )
            outcome.samples.setdefault("traced_new_s", []).extend(traced["new"])
            outcome.samples.setdefault("traced_attach_s", []).extend(traced["attach"])
            layers["service.polls_per_plan"] = sum(traced["polls"]) / len(traced["polls"])
            layers["service.run_dir_files"] = traced["files"]
    return outcome


def record_service(outcome: Outcome, seed: int, block: int, res: dict,
                   pins: dict) -> None:
    requests = len(res["new"]) + len(res["attach"])
    outcome.add("setup_s", res["setup_s"])
    outcome.add("wall_s", res["wall_s"])
    outcome.add("cpu_s", res["cpu_s"])
    outcome.add("peak_rss_mb", res["report"]["peak_rss_mb"])
    outcome.add("units", requests)
    outcome.samples.setdefault("new_plan_s", []).extend(res["new"])
    outcome.samples.setdefault("attach_s", []).extend(res["attach"])
    outcome.samples.setdefault("run_dir_files", []).append(res["files"])
    outcome.extra.setdefault("new_by_block", []).append(res["new"])
    outcome.samples.setdefault("polls_per_plan", []).append(
        sum(res["polls"]) / len(res["polls"]))
    outcome.outputs(requests, [f"block {block}: {p}" for p in res["problems"]])
    outcome.extra.setdefault("digests", {})[str(block)] = res["digest"]
    check_digest(outcome, pins, "service-plan-stream", seed, block, res["digest"])


# -- reporting ---------------------------------------------------------------------


PER_LAYER_UNITS = {
    "btsp.busy_s": "s", "btsp.calls": "count", "spanning.busy_s": "s",
    "core.self_s": "s", "core.calls": "count",
    "frontier.self_s": "s", "frontier.probes": "count",
    "frontier.evaluated": "count", "frontier.reuse_ratio": "ratio",
    "kernels.polar.busy_s": "s", "kernels.trig_evals": "count",
    "kernels.coverage.busy_s": "s", "kernels.coverage_calls": "count",
    "kernels.sector_evals": "count",
    "kernels.connectivity.busy_s": "s", "kernels.connectivity_probes": "count",
    "kernels.connectivity.us_per_probe": "us",
    "kernels.critical.busy_s": "s", "kernels.critical_searches": "count",
    "kernels.probes_per_search": "count",
    "analysis.self_s": "s", "engine.self_s": "s",
    "engine.cache_hit_ratio": "ratio", "engine.tree_builds": "count",
    "ensemble.self_s": "s", "ensemble.trials": "count",
    "ensemble.trials_saved": "count",
    "store.write_busy_s": "s", "store.fsync_busy_s": "s",
    "store.scan_busy_s": "s", "store.scan_calls": "count",
    "store.read_busy_s": "s", "store.rows_appended": "count",
    "store.bytes_appended": "bytes",
    "service.submit_busy_s": "s", "service.result_busy_s": "s",
    "service.drain_busy_s": "s", "service.queue_wait_s": "s",
    "service.wire_busy_s": "s", "service.polls_per_plan": "count",
    "service.new_plan_p50_s": "s", "service.new_plan_p90_s": "s",
    "service.attach_p50_s": "s", "service.attach_p90_s": "s",
    "service.run_dir_files": "count",
    "trace.overhead_s": "s", "trace.overhead_frac": "ratio",
    "trace.spans": "count",
}


def end_to_end(outcome: Outcome) -> dict:
    """Start-up and memory: medians.  Time and throughput: pooled over the
    run's fixed set of reps, because reps differ in their instances and a
    pooled mean weighs each instance once."""
    s = outcome.samples
    values = {
        "setup_s": median(s["setup_s"]),
        "wall_s": sum(s["wall_s"]) / len(s["wall_s"]),
        "cpu_s": sum(s["cpu_s"]) / len(s["cpu_s"]),
        "throughput": sum(s["units"]) / sum(s["wall_s"]),
        "peak_rss_mb": median(s["peak_rss_mb"]),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END.items()}


def per_layer(outcome: Outcome) -> dict:
    """Per-layer metrics: mean per traced rep (block, for the service)."""
    out = {}
    for name, unit in PER_LAYER_UNITS.items():
        values = [layers.get(name, 0.0) for layers in outcome.layers]
        out[name] = {"value": sum(values) / len(values), "unit": unit}
    for kind, key in (("new_plan", "traced_new_s"), ("attach", "traced_attach_s")):
        if key in outcome.samples:  # latencies pooled over the traced blocks
            out[f"service.{kind}_p50_s"]["value"] = median(outcome.samples[key])
            out[f"service.{kind}_p90_s"]["value"] = quantile(outcome.samples[key], 90)
    diffs = [t - p for p, t in outcome.overheads]
    out["trace.overhead_s"]["value"] = median(diffs)
    out["trace.overhead_frac"]["value"] = median(
        [(t - p) / p for p, t in outcome.overheads])
    return out


WORKLOAD_UNITS = {
    **{name: wl.unit for name, wl in WORKLOADS.items() if wl is not None},
    "service-plan-stream": "requests",
}


def print_report(workload: str, seed: int, outcome: Outcome, trace: bool) -> None:
    n = len(outcome.samples["wall_s"])
    what = "blocks" if workload == "service-plan-stream" else "reps"
    print(f"# {workload}  seed={seed}  {what}={n}  "
          f"units/{what[:-1]}={median(outcome.samples['units']):g}")
    how = {"setup_s": "median", "peak_rss_mb": "median",
           "throughput": f"{WORKLOAD_UNITS[workload]} per second, pooled"}
    for name, entry in end_to_end(outcome).items():
        print(f"  {name:<16} {entry['value']:>12.6g} {entry['unit']:<5} "
              f"({how.get(name, 'mean')}, n={len(outcome.samples['wall_s'])})")
    print(f"  {'wall_s per ' + what[:-1]:<16} "
          + " ".join(f"{v:.3g}" for v in outcome.samples["wall_s"]))
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"  {'failed_frac':<16} {frac:>12.6g} {'1':<5} "
          f"(n={outcome.attempted} checked outputs)")
    if workload == "service-plan-stream":
        for label, key in (("new_plan", "new_plan_s"), ("attach", "attach_s")):
            values = outcome.samples[key]
            tail = tail_percentile(values)
            print(f"  {label + '_p50_s':<16} {median(values):>12.6g} s     "
                  f"(n={len(values)})")
            if tail is not None and tail > 50:
                print(f"  {label + f'_p{tail:g}_s':<16} "
                      f"{quantile(values, tail):>12.6g} s     (n={len(values)})")
        print(f"  {'stream':<16} {STREAM_PLANS} new + {STREAM_PLANS} attach "
              f"requests, 1 closed-loop client, poll {POLL_S * 1000:g} ms")
        quarter = STREAM_PLANS // 4
        first = [v for lat in outcome.extra["new_by_block"] for v in lat[:quarter]]
        last = [v for lat in outcome.extra["new_by_block"] for v in lat[-quarter:]]
        print(f"  {'run_dir_growth':<16} new_plan p50 {median(first):.4g} s over "
              f"the first {quarter} plans, {median(last):.4g} s over the last "
              f"{quarter}")
        print(f"  {'run_dir_files':<16} "
              f"{median(outcome.samples['run_dir_files']):>12g} files at "
              f"stream end (n={len(outcome.samples['run_dir_files'])})")
    if trace and outcome.layers:
        shares: dict[str, float] = {}
        for row in outcome.module_self:
            for module, value in row.items():
                shares[module] = shares.get(module, 0.0) + value
        total = sum(shares.values()) or 1.0
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        print("  self time by module (traced): " + ", ".join(
            f"{m} {v / total:.0%}" for m, v in ranked if v > 0))
        expected = (SERVICE_DOMINANT if workload == "service-plan-stream"
                    else WORKLOADS[workload].dominant)
        top = max(shares, key=lambda m: shares[m])
        grouped = sum(shares[m] for m in expected)
        ok = top in expected or grouped >= max(shares.values())
        print(f"  dominant layer: {top} (expected {' + '.join(expected)}): "
              f"{'confirmed' if ok else 'NOT confirmed'}")
        if "btsp" not in expected:
            btsp = per_layer(outcome)["btsp.busy_s"]["value"]
            print(f"  btsp.busy_s = {btsp:.3g} s per traced "
                  f"{what[:-1]}: {'~0 as predicted' if btsp < 0.01 else 'NOT ~0'}")
    for problem in outcome.problems[:20]:
        print(f"  FAILED: {problem}")


# -- entry points ------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path, pins: dict) -> Outcome:
    if workload == "service-plan-stream":
        return run_service(seed, seconds, trace, workdir, pins)
    return run_batch(WORKLOADS[workload], seed, seconds, trace, workdir, pins)


def _workdir() -> Path:
    path = WORK / f"{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def _require_source() -> None:
    if not (SRC / "repro" / "__main__.py").is_file():
        raise BenchError(f"program source not found under {SRC}; run the "
                         "benchmark from a checkout of the repository")


def cmd_run(args) -> int:
    workdir = _workdir()
    try:
        outcome = measure(args.workload, args.seed, args.seconds,
                          bool(args.trace), workdir, load_pins())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print_report(args.workload, args.seed, outcome, bool(args.trace))
    metrics = per_layer(outcome) if args.trace else end_to_end(outcome)
    correct = outcome.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def cmd_holdout(args) -> int:
    """Every workload on the default and the holdout seed; certificates
    must pass on both, digests on the default seed."""
    pins = load_pins()
    bad = 0
    for workload in WORKLOADS:
        for seed in (DEFAULT_SEED, HOLDOUT_SEED):
            workdir = _workdir()
            try:
                outcome = measure(workload, seed, 0.0, False, workdir, pins)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print_report(workload, seed, outcome, False)
            bad += outcome.failed
    print(f"holdout: {'all certificates pass' if bad == 0 else f'{bad} failed'}")
    return 0 if bad == 0 else 1


def cmd_pin(args) -> int:
    """Recompute the default-seed digests of every rep/block that a run of
    ``DEFAULT_SECONDS`` measures."""
    pins = {}
    for workload in WORKLOADS:
        workdir = _workdir()
        try:
            outcome = measure(workload, DEFAULT_SEED, DEFAULT_SECONDS, False,
                              workdir, {})
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if outcome.failed:
            print(f"{workload}: certificates fail, not pinning: {outcome.problems}")
            return 1
        pins[workload] = outcome.extra["digests"]
        print(f"{workload}: pinned {len(pins[workload])} digests", flush=True)
    DIGESTS.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n",
                       encoding="utf8")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--holdout", action="store_true",
                        help="run every workload on a second seed too")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json for the default seed")
    args = parser.parse_args()
    try:
        _require_source()
        if args.pin:
            return cmd_pin(args)
        if args.holdout:
            return cmd_holdout(args)
        if args.workload is None:
            parser.error("--workload is required")
        return cmd_run(args)
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
