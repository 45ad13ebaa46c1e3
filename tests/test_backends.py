"""Backend tests: name registry, selection precedence, sparse routing.

A backend is a validated name (``numpy``, ``sparse``, ``auto``) that picks
when an instance takes the radius-bounded sparse path; the kernels are one
implementation.  Each routing rule must be *bit-exact* against the
reference loop kernels (:mod:`repro.kernels.reference`) — including on
degenerate inputs (single-point instances, collinear layouts, full-circle
sectors, more antennae than sensors) — and the pinned name must stay
private to the thread that pinned it.

The batched multi-instance path is validated the repository's usual way:
kernel *work counters* (one packed launch per chunk instead of one launch
per instance), never wall-clock.
"""

import json
import threading

import numpy as np
import pytest

from repro.antenna.model import AntennaAssignment
from repro.engine import GridCell, PlanRequest, Scenario, execute_plan
from repro.engine._spec import FrontierRequest
from repro.errors import InvalidParameterError
from repro.geometry.sectors import Sector
from repro.graph.digraph import DiGraph
from repro.kernels import (
    KNOWN_BACKENDS,
    BackendUnavailable,
    active_backend,
    pack_instances,
    packed_coverage,
    packed_critical,
    packed_polar_tables,
    packed_strongly_connected,
    resolve_backend,
    sparse_metrics,
    use_backend,
    use_sparse,
)
from repro.kernels.backend import SPARSE_AUTO_ENV_VAR
from repro.kernels.coverage import batched_coverage
from repro.kernels.critical import critical_range_search
from repro.kernels.geometry import polar_tables
from repro.kernels.connectivity import strongly_connected_csr
from repro.kernels.instrument import recording
from repro.kernels.reference import (
    bfs_strongly_connected,
    coverage_matrix_loop,
    critical_range_rebuild,
)
from repro.store import RunStore, plan_fingerprint, request_to_dict

TWO_PI = 2.0 * np.pi


# -- degenerate + adversarial instances --------------------------------------------


def random_instance(seed, n=None):
    rng = np.random.default_rng(seed)
    if n is None:
        n = int(rng.integers(2, 24))
    coords = rng.uniform(-5, 5, size=(n, 2))
    # duplicate / coincident points stress the dist > 0 exclusion
    if n >= 4 and rng.random() < 0.5:
        coords[1] = coords[0]
    return coords


def degenerate_instances():
    t = np.linspace(0.0, 3.0, 7)
    return {
        "single-point": np.array([[0.3, 0.7]]),
        "two-points": np.array([[0.0, 0.0], [1.0, 0.0]]),
        "collinear": np.stack([t, 2.0 * t + 0.5], axis=1),
        "random-9": random_instance(91, n=9),
        "random-17": random_instance(17),
    }


def make_sectors(rng, n, per_sensor):
    """Random sectors, ``per_sensor`` antennae each: mixed degenerate cases.

    Includes zero spreads, full-circle (2π) spreads, zero / finite / infinite
    radii — the boundary semantics every routing rule must reproduce exactly.
    """
    a = n * per_sensor
    idx = np.repeat(np.arange(n, dtype=np.int64), per_sensor)
    start = rng.uniform(0.0, TWO_PI, size=a)
    spread = rng.uniform(0.0, TWO_PI, size=a)
    spread[rng.random(a) < 0.2] = 0.0
    spread[rng.random(a) < 0.2] = TWO_PI  # full circles
    radius = rng.uniform(0.5, 8.0, size=a)
    radius[rng.random(a) < 0.3] = np.inf
    radius[rng.random(a) < 0.1] = 0.0
    return idx, start, spread, radius


def csr_of(cover):
    n = cover.shape[0]
    src, dst = np.nonzero(cover)
    indptr = np.concatenate(
        [[0], np.cumsum(np.bincount(src, minlength=n))]
    ).astype(np.int64)
    return indptr, dst.astype(np.int64)


def reference_outputs(coords, idx, start, spread, radius):
    """Per-instance kernel results the packed kernels are judged against."""
    tables = polar_tables(coords)
    n = coords.shape[0]
    cover = batched_coverage(tables, idx, start, spread, radius)
    cover_ang = batched_coverage(
        tables, idx, start, spread, radius, ignore_radius=True
    )
    src, dst = np.nonzero(cover_ang)
    critical = critical_range_search(n, np.stack([src, dst], axis=1),
                                     tables.dist[src, dst])
    sc = strongly_connected_csr(n, *csr_of(cover_ang))
    return tables, cover, cover_ang, critical, sc


def routed_outputs(coords, idx, start, spread, radius):
    """``(edges, connected, critical)`` measured the way the engine routes
    an instance under the pinned backend: sparse path or dense kernels."""
    n = coords.shape[0]
    if use_sparse(n):
        edges, connected, critical, _ = sparse_metrics(
            coords, idx, start, spread, radius
        )
        return edges, connected, critical
    _, cover, _, critical, _ = reference_outputs(
        coords, idx, start, spread, radius
    )
    connected = strongly_connected_csr(n, *csr_of(cover))
    return int(cover.sum()), connected, critical


def oracle_outputs(coords, idx, start, spread, radius):
    """The same triple from the reference loop kernels."""
    n = coords.shape[0]
    assignment = AntennaAssignment(n)
    for u, s, w, r in zip(idx, start, spread, radius):
        assignment.add(int(u), Sector(float(s), float(w), float(r)))
    cover = coverage_matrix_loop(coords, assignment)
    src, dst = np.nonzero(cover)
    connected = bfs_strongly_connected(DiGraph(n, np.stack([src, dst], axis=1)))
    return int(cover.sum()), connected, critical_range_rebuild(coords, assignment)


@pytest.mark.parametrize("backend_name", KNOWN_BACKENDS)
class TestBackendParity:
    """Every routing rule, bit-exact against the reference kernels.

    The ``auto`` threshold is lowered to 8 points so that rule sends the
    small cases dense and the larger ones sparse within one parametrization.
    """

    @pytest.fixture(autouse=True)
    def _low_auto_threshold(self, monkeypatch):
        monkeypatch.setenv(SPARSE_AUTO_ENV_VAR, "8")

    @pytest.mark.parametrize("case", sorted(degenerate_instances()))
    @pytest.mark.parametrize("per_sensor", [1, 3])
    def test_per_instance_kernels_match_reference(
        self, backend_name, case, per_sensor
    ):
        coords = degenerate_instances()[case]
        n = coords.shape[0]
        rng = np.random.default_rng(sum(map(ord, case)) * 31 + per_sensor)
        sectors = make_sectors(rng, n, per_sensor)
        with use_backend(backend_name):
            got = routed_outputs(coords, *sectors)
        assert got == oracle_outputs(coords, *sectors)

    @pytest.mark.parametrize("per_sensor", [1, 2])
    def test_packed_kernels_match_per_instance(self, backend_name, per_sensor):
        """The packed kernels ignore the pinned routing rule: under every
        pin they equal the per-instance kernels."""
        coords_list = list(degenerate_instances().values())
        batch = pack_instances(coords_list)

        inst_parts, idx_parts, st_parts, sp_parts, ra_parts = [], [], [], [], []
        refs = []
        for i, coords in enumerate(coords_list):
            n = coords.shape[0]
            rng = np.random.default_rng(1000 + 7 * i + per_sensor)
            idx, start, spread, radius = make_sectors(rng, n, per_sensor)
            refs.append(reference_outputs(coords, idx, start, spread, radius))
            inst_parts.append(np.full(idx.shape[0], i, dtype=np.int64))
            idx_parts.append(idx)
            st_parts.append(start)
            sp_parts.append(spread)
            ra_parts.append(radius)
        inst_idx = np.concatenate(inst_parts)
        sensor_idx = np.concatenate(idx_parts)
        start = np.concatenate(st_parts)
        spread = np.concatenate(sp_parts)
        radius = np.concatenate(ra_parts)

        with use_backend(backend_name):
            tables = packed_polar_tables(batch)
            cover = packed_coverage(
                tables, inst_idx, sensor_idx, start, spread, radius
            )
            cover_ang = packed_coverage(
                tables, inst_idx, sensor_idx, start, spread, radius,
                ignore_radius=True,
            )
            connected = packed_strongly_connected(cover_ang, batch.counts)
            critical = packed_critical(tables, cover_ang)

        for i, coords in enumerate(coords_list):
            n = coords.shape[0]
            ref_tables, ref_cover, ref_cover_ang, ref_cr, ref_sc = refs[i]
            assert np.array_equal(tables.dist[i, :n, :n], ref_tables.dist)
            assert np.array_equal(tables.ang[i, :n, :n], ref_tables.ang)
            assert np.array_equal(cover[i, :n, :n], ref_cover)
            assert not cover[i, n:, :].any() and not cover[i, :, n:].any()
            assert np.array_equal(cover_ang[i, :n, :n], ref_cover_ang)
            assert bool(connected[i]) == ref_sc
            cr = float(critical[i])
            assert cr == ref_cr or (cr != cr and ref_cr != ref_cr)


# -- registry and selection precedence ---------------------------------------------


class TestBackendSelection:
    def test_numpy_always_available(self):
        assert "numpy" in KNOWN_BACKENDS
        assert resolve_backend(None) == "numpy"

    def test_unknown_backend_rejected(self):
        with pytest.raises(BackendUnavailable, match="bogus"):
            resolve_backend("bogus")

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        assert resolve_backend(None) == "numpy"
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(BackendUnavailable):
            resolve_backend(None)
        # an explicit name beats a broken environment
        assert resolve_backend("numpy") == "numpy"

    def test_use_backend_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with use_backend("numpy"):
            assert active_backend() == "numpy"

    def test_use_backend_nests_and_restores(self):
        outer = active_backend()
        with use_backend("numpy"):
            inner = active_backend()
            assert inner == "numpy"
            with use_backend("sparse"):
                assert active_backend() == "sparse"
            assert active_backend() == inner
        assert active_backend() == outer

    def test_spec_flag_validated(self):
        with pytest.raises(InvalidParameterError):
            PlanRequest.sweep(
                workloads=["uniform"], sizes=[8], seeds=1,
                ks=[1], phis=[np.pi], backend="bogus",
            )
        with pytest.raises(InvalidParameterError):
            FrontierRequest(
                scenarios=(Scenario("uniform", 8, seeds=1),),
                ks=(1,), metric="critical_range", backend="bogus",
            )

    def test_backend_flag_stays_out_of_fingerprint(self):
        plain = PlanRequest.sweep(
            workloads=["uniform"], sizes=[8], seeds=1, ks=[1], phis=[np.pi]
        )
        flagged = PlanRequest.sweep(
            workloads=["uniform"], sizes=[8], seeds=1, ks=[1], phis=[np.pi],
            backend="numpy",
        )
        assert plan_fingerprint(plain) == plan_fingerprint(flagged)
        assert "backend" not in request_to_dict(flagged)


class TestRetiredNumbaName:
    """``numba`` is no longer a backend: selecting it is a clean error, but
    ledgers an older version tagged with it stay readable and mergeable."""

    SWEEP = ["sweep", "--workload", "uniform", "--n", "12", "--seeds", "4",
             "--k", "1", "2", "--phi", "pi", "--tag", "retired-numba"]

    def test_selecting_numba_fails_cleanly(self, monkeypatch, capsys):
        from repro.__main__ import main

        request = many_instance_request(seeds=1)
        with pytest.raises(InvalidParameterError, match="numba"):
            PlanRequest(request.scenarios, request.grid, backend="numba")
        with pytest.raises(BackendUnavailable, match="numba"):
            execute_plan(request, backend="numba")
        assert main([*self.SWEEP, "--backend", "numba"]) == 2
        assert "numba" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_BACKEND", "numba")
        with pytest.raises(BackendUnavailable, match="numba"):
            execute_plan(request)
        assert main(self.SWEEP) == 2
        assert "numba" in capsys.readouterr().err

    def test_numba_tagged_ledger_loads_and_merges(self, tmp_path, capsys):
        from repro.__main__ import main

        ref, merged = tmp_path / "ref.md", tmp_path / "merged.md"
        assert main([*self.SWEEP, "--output", str(ref)]) == 0
        dirs = [tmp_path / f"shard{i}" for i in range(2)]
        for i, run_dir in enumerate(dirs):
            assert main([*self.SWEEP, "--run-dir", str(run_dir),
                         "--shard", f"{i}/2"]) == 0
        # Re-tag one shard's rows as an older numba run wrote them.
        store = RunStore(dirs[1])
        (key,) = store.plan_keys()
        for path in store.ledger_paths(key):
            lines = path.read_text().splitlines()
            objs = [json.loads(line) for line in lines]
            for obj in objs:
                if "backend" in obj:
                    obj["backend"] = "numba"
            path.write_text("".join(json.dumps(o) + "\n" for o in objs))
        rows = RunStore(dirs[1]).load_rows(key)
        assert rows and {row.backend for row in rows.values()} == {"numba"}
        assert main(["merge", "--run-dir", *map(str, dirs),
                     "--output", str(merged)]) == 0
        assert merged.read_text() == ref.read_text()


class TestThreadIsolation:
    """A pinned backend is private to the thread (context) that pinned it:
    the service drains concurrent plans on separate threads."""

    def test_two_threads_read_back_their_own_pin(self):
        barrier = threading.Barrier(2, timeout=30)
        seen = {}

        def pin(name):
            with use_backend(name):
                barrier.wait()  # both pins are active now
                seen[name] = active_backend()
                barrier.wait()

        threads = [threading.Thread(target=pin, args=(name,))
                   for name in ("numpy", "sparse")]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert seen == {"numpy": "numpy", "sparse": "sparse"}

    def test_concurrent_plans_ledger_their_own_backend(self, tmp_path, monkeypatch):
        from repro.engine import executor

        barrier = threading.Barrier(2, timeout=60)
        artifacts = executor.instance_artifacts

        def synced(cache, coords):
            barrier.wait()  # both plans are inside their backend pin
            return artifacts(cache, coords)

        monkeypatch.setattr(executor, "instance_artifacts", synced)
        store = RunStore(tmp_path)
        plans = {
            name: PlanRequest(
                (Scenario("uniform", 10, seeds=3, tag=f"thread-{name}"),),
                (GridCell(1, np.pi),),
            )
            for name in ("numpy", "sparse")
        }
        errors = []

        def run(name):
            try:
                execute_plan(plans[name], store=store, backend=name,
                             batch_instances=False)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=run, args=(name,)) for name in plans]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for name, plan in plans.items():
            rows = store.load_rows(plan_fingerprint(plan))
            assert len(rows) == 3
            for row in rows.values():
                assert row.backend == name
                # The ledgered cache delta shows which route actually ran.
                if name == "sparse":
                    assert row.cache["sparse_polar_builds"] == 1
                    assert row.cache["polar_builds"] == 0
                else:
                    assert row.cache["sparse_polar_builds"] == 0
                    assert row.cache["polar_builds"] == 1


# -- the batched multi-instance path -----------------------------------------------


def many_instance_request(seeds=200):
    return PlanRequest(
        (Scenario("uniform", 10, seeds=seeds, tag="batch-path"),),
        (GridCell(1, np.pi),),
    )


class TestBatchedExecution:
    def test_batched_matches_per_instance_bit_exactly(self):
        request = many_instance_request(seeds=24)
        batched = execute_plan(request)
        loop = execute_plan(request, batch_instances=False)
        assert len(batched.records) == len(loop.records)
        for ra, rb in zip(batched.records, loop.records):
            assert ra.metrics.identical(rb.metrics)
        assert batched.backend == loop.backend == "numpy"
        for rep_a, rep_b in zip(
            batched.instance_reports, loop.instance_reports
        ):
            assert rep_a.lmax == rep_b.lmax
            assert rep_a.diameter == rep_b.diameter
            assert rep_a.mst_weight == rep_b.mst_weight

    def test_batched_path_needs_10x_fewer_kernel_launches(self):
        request = many_instance_request(seeds=200)
        with recording() as rec_batched:
            execute_plan(request)
        with recording() as rec_loop:
            execute_plan(request, batch_instances=False)
        batched_c, loop_c = rec_batched.as_dict(), rec_loop.as_dict()
        assert batched_c["batched_instances"] == 200
        assert batched_c["packed_polar_builds"] >= 1
        # the acceptance bar: >= 10x fewer Python-level kernel launches
        assert loop_c["coverage_calls"] >= 10 * batched_c["coverage_calls"]
        assert loop_c["critical_searches"] >= 10 * batched_c["critical_searches"]

    def test_ledger_rows_carry_backend_tag(self, tmp_path):
        request = many_instance_request(seeds=3)
        store = RunStore(tmp_path)
        execute_plan(request, store=store)
        rows = store.load_rows(plan_fingerprint(request))
        assert rows and all(row.backend == "numpy" for row in rows.values())


# -- the sparse backend and the auto rule ------------------------------------------


class TestSparseBackendSelection:
    def test_sparse_and_auto_always_available(self):
        assert resolve_backend("sparse") == "sparse"
        assert resolve_backend("auto") == "auto"

    def test_use_sparse_rules(self):
        with use_backend("numpy"):
            assert not use_sparse(10**6)
        with use_backend("sparse"):
            assert not use_sparse(1)
            assert use_sparse(2)

    def test_auto_threshold_default_boundary(self, monkeypatch):
        from repro.kernels.backend import (
            DEFAULT_SPARSE_AUTO_N,
            sparse_auto_threshold,
        )

        monkeypatch.delenv(SPARSE_AUTO_ENV_VAR, raising=False)
        assert sparse_auto_threshold() == DEFAULT_SPARSE_AUTO_N
        with use_backend("auto"):
            assert not use_sparse(DEFAULT_SPARSE_AUTO_N - 1)
            assert use_sparse(DEFAULT_SPARSE_AUTO_N)

    def test_auto_threshold_env_override(self, monkeypatch):
        from repro.kernels.backend import DEFAULT_SPARSE_AUTO_N

        with use_backend("auto"):
            monkeypatch.setenv(SPARSE_AUTO_ENV_VAR, "10")
            assert use_sparse(10) and not use_sparse(9)
            monkeypatch.setenv(SPARSE_AUTO_ENV_VAR, "garbage")
            assert not use_sparse(DEFAULT_SPARSE_AUTO_N - 1)

    def test_explicit_override_beats_env_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "auto")
        assert active_backend() == "auto"
        with use_backend("sparse"):
            assert active_backend() == "sparse"

    def test_spec_accepts_sparse_and_auto(self):
        for name in ("sparse", "auto"):
            PlanRequest.sweep(
                workloads=["uniform"], sizes=[8], seeds=1,
                ks=[1], phis=[np.pi], backend=name,
            )


class TestSparseExecution:
    def test_execute_plan_sparse_bit_identical_to_numpy(self, tmp_path):
        request = many_instance_request(seeds=6)
        baseline = execute_plan(request)
        sparse_req = PlanRequest(
            request.scenarios, request.grid, backend="sparse"
        )
        store = RunStore(tmp_path)
        got = execute_plan(sparse_req, store=store)
        assert got.backend == "sparse"
        assert len(got.records) == len(baseline.records)
        for ra, rb in zip(baseline.records, got.records):
            assert ra.metrics.identical(rb.metrics)
        for rep_a, rep_b in zip(
            baseline.instance_reports, got.instance_reports
        ):
            assert rep_a.lmax == rep_b.lmax
            assert rep_a.diameter == rep_b.diameter
            assert rep_a.mst_weight == rep_b.mst_weight
        rows = store.load_rows(plan_fingerprint(sparse_req))
        assert rows and all(row.backend == "sparse" for row in rows.values())

    def test_sparse_skips_dense_table_builds(self):
        request = many_instance_request(seeds=4)
        with recording() as rec:
            execute_plan(PlanRequest(request.scenarios, request.grid,
                                     backend="sparse"))
        assert rec.polar_builds == 0
        assert rec.packed_polar_builds == 0
        assert rec.sparse_polar_builds >= 4

    def test_auto_rule_routes_mixed_sizes_in_one_plan(self, monkeypatch):
        request = PlanRequest(
            (
                Scenario("uniform", 8, seeds=3, tag="small"),
                Scenario("uniform", 24, seeds=3, tag="large"),
            ),
            (GridCell(1, np.pi),),
        )
        baseline = execute_plan(request)
        monkeypatch.setenv(SPARSE_AUTO_ENV_VAR, "16")
        with recording() as rec:
            got = execute_plan(
                PlanRequest(request.scenarios, request.grid, backend="auto")
            )
        for ra, rb in zip(baseline.records, got.records):
            assert ra.metrics.identical(rb.metrics)
        # both routes ran: packed dense for n=8, sparse for n=24
        assert rec.sparse_polar_builds >= 3
        assert rec.packed_polar_builds + rec.polar_builds >= 1
