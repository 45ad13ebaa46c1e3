"""Tests for the vectorized kernel layer (repro.kernels).

Three concerns:

* **Equivalence** — the batched coverage kernel and the rebuild-free
  critical-range search must be *bit-identical* to the original loop
  kernels preserved in :mod:`repro.kernels.reference`, on randomized
  instances mixing finite/infinite radii, full-circle sectors and
  zero-spread rays.
* **Edge cases** — deficient orientations (``inf``), single candidate
  distance, exact distance ties at the bottleneck.
* **Perf regression by counters** — wall-clock is meaningless on the
  single-core CI container, so we assert work counts: ``critical_range``
  performs exactly one covered-pairs computation and O(log m) connectivity
  probes with zero per-probe ``DiGraph`` constructions.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.antenna.coverage import (
    coverage_matrix,
    covered_pairs,
    critical_range,
)
from repro.antenna.model import AntennaAssignment
from repro.geometry.points import PointSet
from repro.geometry.sectors import Sector, radius_tolerance, sector_toward
from repro.graph.connectivity import is_strongly_connected
from repro.graph.digraph import DiGraph
from repro.graph.scc import scc_count, strongly_connected_components
from repro.kernels import (
    polar_tables,
    recording,
    reverse_csr,
    strongly_connected_csr,
    strongly_connected_edges,
)
from repro.kernels.batch import (
    PackedPolarTables,
    packed_critical,
    packed_strongly_connected,
    packed_symmetric_connected,
    packed_symmetric_critical,
)
from repro.kernels.connectivity import (
    _bfs_covers_all,
    symmetric_connected_csr,
)
from repro.kernels.coverage import batched_coverage
from repro.kernels.critical import (
    critical_range_search,
    symmetric_critical_range_search,
)
from repro.kernels.reference import (
    bfs_strongly_connected,
    coverage_matrix_loop,
    critical_range_rebuild,
    packed_critical_loop,
)


def random_instance(seed: int, n: int | None = None):
    """A random point set plus a random antenna assignment (adversarial mix)."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 36)) if n is None else n
    ps = PointSet(rng.random((n, 2)) * 10.0)
    a = AntennaAssignment(n)
    for i in range(n):
        for _ in range(int(rng.integers(0, 4))):
            spread = float(rng.choice([0.0, rng.random() * 2 * np.pi, 2 * np.pi]))
            radius = float(rng.choice([np.inf, rng.random() * 8.0]))
            a.add(i, Sector(float(rng.random() * 7.0), spread, radius))
    return ps, a


def square_ring(radius: float = 100.0):
    """Unit square, each sensor aiming a zero-spread ray at the next."""
    ps = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
    a = AntennaAssignment(4)
    for i in range(4):
        a.add(i, sector_toward(ps[i], ps[(i + 1) % 4], radius=radius))
    return ps, a


class TestCoverageEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("ignore_radius", [False, True])
    def test_bit_identical_to_loop(self, seed, ignore_radius):
        ps, a = random_instance(seed)
        new = coverage_matrix(ps, a, ignore_radius=ignore_radius)
        old = coverage_matrix_loop(ps, a, ignore_radius=ignore_radius)
        assert np.array_equal(new, old)

    def test_precomputed_tables_same_result(self):
        ps, a = random_instance(99)
        tables = polar_tables(ps.coords)
        assert np.array_equal(
            coverage_matrix(ps, a, tables=tables), coverage_matrix(ps, a)
        )

    def test_tables_size_mismatch_rejected(self):
        ps, a = random_instance(7)
        wrong = polar_tables(np.random.default_rng(0).random((len(ps) + 1, 2)))
        with pytest.raises(ValueError):
            coverage_matrix(ps, a, tables=wrong)

    def test_empty_assignment(self):
        ps, _ = random_instance(3)
        cover = coverage_matrix(ps, AntennaAssignment(len(ps)))
        assert cover.shape == (len(ps), len(ps)) and not cover.any()

    def test_covered_pairs_distances_from_tables(self):
        ps, a = random_instance(5)
        pairs, dists = covered_pairs(ps, a)
        if pairs.size:
            diff = ps.coords[pairs[:, 0]] - ps.coords[pairs[:, 1]]
            assert np.array_equal(dists, np.hypot(diff[:, 0], diff[:, 1]))


class TestCriticalEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_bit_identical_to_rebuild(self, seed):
        ps, a = random_instance(seed)
        new = critical_range(ps, a)
        old = critical_range_rebuild(ps, a)
        assert new == old or (math.isinf(new) and math.isinf(old))

    def test_deficient_orientation_is_inf(self):
        # One antenna total: nobody can reach sensor 0, at any radius.
        ps = PointSet([[0, 0], [1, 0], [1, 1], [0, 1]])
        a = AntennaAssignment(4)
        a.add(0, sector_toward(ps[0], ps[1]))
        assert critical_range(ps, a) == np.inf

    def test_no_antennae_is_inf(self):
        ps = PointSet([[0, 0], [1, 0]])
        assert critical_range(ps, AntennaAssignment(2)) == np.inf

    def test_single_candidate_distance(self):
        # Two sensors aiming rays at each other: exactly one candidate.
        ps = PointSet([[0, 0], [3, 4]])
        a = AntennaAssignment(2)
        a.add(0, sector_toward(ps[0], ps[1]))
        a.add(1, sector_toward(ps[1], ps[0]))
        with recording() as rec:
            assert critical_range(ps, a) == 5.0
        # One candidate => the top-of-range feasibility probe is the search.
        assert rec.connectivity_probes == 1

    def test_exact_tie_distances_at_bottleneck(self):
        # All four ring edges have length exactly 1: the bottleneck is a
        # 4-way tie and must collapse to a single candidate value.
        ps, a = square_ring()
        assert critical_range(ps, a) == 1.0

    def test_single_point_zero(self):
        assert critical_range(PointSet([[0.0, 0.0]]), AntennaAssignment(1)) == 0.0

    def test_scales_with_instance(self):
        ps, _ = square_ring()
        big = PointSet(ps.coords * 7.0)
        a = AntennaAssignment(4)
        for i in range(4):
            a.add(i, sector_toward(big[i], big[(i + 1) % 4]))
        assert critical_range(big, a) == pytest.approx(7.0)


class TestCriticalCounters:
    """The acceptance criterion: 1 covered-pairs pass, O(log m) probes, 0 builds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rebuild_free_search(self, seed):
        ps, a = random_instance(seed, n=30)
        pairs, dists = covered_pairs(ps, a)
        if pairs.shape[0] == 0:
            pytest.skip("degenerate draw: no covered pairs")
        ncand = np.unique(dists).size
        with recording() as rec:
            critical_range(ps, a)
        assert rec.graph_builds == 0  # zero per-probe DiGraph constructions
        assert rec.coverage_calls == 1  # exactly one covered-pairs computation
        assert rec.polar_builds == 1
        assert rec.critical_searches == 1
        # 1 feasibility probe + ceil(log2(ncand)) bisection probes at most.
        assert rec.connectivity_probes <= 1 + math.ceil(math.log2(max(ncand, 1))) + 1

    def test_shared_tables_skip_trig(self):
        ps, a = random_instance(4, n=20)
        tables = polar_tables(ps.coords)
        with recording() as rec:
            critical_range(ps, a, tables=tables)
            coverage_matrix(ps, a, tables=tables)
        assert rec.polar_builds == 0
        assert rec.trig_evals == 0

    def test_reference_kernel_rebuilds_per_probe(self):
        # The old search really did build one DiGraph per probe — the
        # counter contrast the benchmarks report.
        ps, a = square_ring()
        with recording() as rec:
            critical_range_rebuild(ps, a)
        assert rec.graph_builds >= 1
        with recording() as rec:
            critical_range(ps, a)
        assert rec.graph_builds == 0


class TestConnectivityKernels:
    @pytest.mark.parametrize("seed", range(8))
    def test_edges_kernel_matches_digraph_check(self, seed):
        rng = np.random.default_rng(seed)
        n = 25
        e = rng.integers(0, n, size=(int(rng.integers(0, 120)), 2))
        e = e[e[:, 0] != e[:, 1]]
        e = np.unique(e, axis=0) if e.size else e.reshape(0, 2)
        g = DiGraph(n, e)
        assert strongly_connected_edges(n, e[:, 0], e[:, 1]) == is_strongly_connected(g)

    def test_bfs_fallback_agrees_with_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            e = rng.integers(0, 12, size=(40, 2))
            e = e[e[:, 0] != e[:, 1]]
            g = DiGraph(12, e)
            indptr, indices = g.csr()
            scipy_ans = strongly_connected_csr(12, indptr, indices)
            rptr, ridx = reverse_csr(12, indptr, indices)
            bfs_ans = _bfs_covers_all(12, indptr, indices) and _bfs_covers_all(
                12, rptr, ridx
            )
            assert scipy_ans == bfs_ans == bfs_strongly_connected(g)

    def test_trivial_sizes(self):
        assert strongly_connected_csr(0, np.zeros(1, np.int64), np.zeros(0, np.int64))
        assert strongly_connected_csr(1, np.zeros(2, np.int64), np.zeros(0, np.int64))
        assert strongly_connected_edges(2, np.array([0, 1]), np.array([1, 0]))
        assert not strongly_connected_edges(2, np.array([0]), np.array([1]))

    @pytest.mark.parametrize("seed", range(5))
    def test_scc_count_matches_tarjan(self, seed):
        rng = np.random.default_rng(seed)
        e = rng.integers(0, 30, size=(70, 2))
        e = e[e[:, 0] != e[:, 1]]
        g = DiGraph(30, e)
        tarjan = int(strongly_connected_components(g).max()) + 1
        assert scc_count(g) == tarjan

    def test_scc_count_empty(self):
        assert scc_count(DiGraph(0)) == 0


class TestRadiusTolerance:
    def test_matches_legacy_scalar_rule(self):
        eps = 1e-9
        assert radius_tolerance(0.5, eps) == eps * 1.0
        assert radius_tolerance(3.0, eps) == eps * 3.0
        assert radius_tolerance(np.inf, eps) == eps  # inf contributes no scaling

    def test_vectorized(self):
        out = radius_tolerance(np.array([0.25, 2.0, np.inf]), 1e-6)
        assert np.allclose(out, [1e-6, 2e-6, 1e-6])

    def test_sector_and_kernel_agree_at_boundary(self):
        # A point exactly at radius + tol/2 must be covered by both paths.
        eps = 1e-9
        r = 2.0
        ps = PointSet([[0.0, 0.0], [r + radius_tolerance(r, eps) / 2, 0.0]])
        a = AntennaAssignment(2)
        sec = Sector(-0.1, 0.2, r)
        a.add(0, sec)
        cover = coverage_matrix(ps, a, eps=eps)
        assert bool(cover[0, 1]) == sec.covers_point(ps[0], ps[1], eps=eps) == True  # noqa: E712


class TestPolarTables:
    def test_tables_match_rowwise_geometry(self):
        rng = np.random.default_rng(2)
        c = rng.random((17, 2)) * 5
        t = polar_tables(c)
        ps = PointSet(c)
        for u in (0, 7, 16):
            assert np.array_equal(t.dist[u], ps.distances_from(u))
            assert np.array_equal(t.ang[u], ps.angles_from(u))

    def test_read_only(self):
        t = polar_tables(np.random.default_rng(0).random((5, 2)))
        with pytest.raises(ValueError):
            t.dist[0, 0] = 1.0

    def test_counts_one_build(self):
        with recording() as rec:
            polar_tables(np.random.default_rng(1).random((9, 2)))
        assert rec.polar_builds == 1
        assert rec.trig_evals == 81


# -- packed chunks: lockstep search and one-launch connectivity ----------------------


@st.composite
def ragged_chunks(draw, symmetric: bool):
    """A packed chunk of ragged instances with adversarial edge distances.

    Sizes include 0, 1 and 2; densities include empty instances (critical
    range ``inf``) and sparse ones that are usually deficient.  Distances
    come from a small pool with exact ties and pairs sitting exactly on,
    and one ulp past, the ``radius_tolerance`` boundary of another pool
    value.  Pad entries of ``dist`` hold garbage (they must never be read);
    pad and diagonal entries of ``cover`` are False, as every producer
    guarantees.
    """
    sizes = draw(st.lists(st.sampled_from([0, 1, 2, 3, 5, 9]), min_size=1, max_size=6))
    density = draw(st.sampled_from([0.0, 0.15, 0.5, 0.9, 1.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, n_max = len(sizes), max(max(sizes), 1)
    base = [0.5, 1.0, 2.0, 3.0, 7.25]
    pool = base + [b + radius_tolerance(b) for b in base]
    pool += [np.nextafter(b + radius_tolerance(b), np.inf) for b in base]
    dist = rng.uniform(-5.0, 50.0, size=(m, n_max, n_max))
    cover = np.zeros((m, n_max, n_max), dtype=bool)
    for i, n in enumerate(sizes):
        d = np.where(rng.random((n, n)) < 0.6, rng.choice(pool, size=(n, n)),
                     rng.uniform(0.1, 8.0, size=(n, n)))
        if symmetric:
            d = np.triu(d) + np.triu(d, 1).T
        dist[i, :n, :n] = d
        c = rng.random((n, n)) < density
        np.fill_diagonal(c, False)
        cover[i, :n, :n] = c
    counts = np.array(sizes, dtype=np.int64)
    return PackedPolarTables(dist, dist, counts), cover


class TestLockstepSearch:
    """The lockstep packed search against the per-instance searches."""

    @staticmethod
    def _compare(tables, cover, packed, symmetric):
        with recording() as got_rec:
            got = packed(tables, cover)
        with recording() as ref_rec:
            ref = packed_critical_loop(tables, cover, symmetric=symmetric)
        assert got.tobytes() == ref.tobytes()
        assert got_rec.connectivity_probes == ref_rec.connectivity_probes
        assert got_rec.critical_searches == ref_rec.critical_searches == 1
        assert got_rec.scipy_scc_calls <= ref_rec.scipy_scc_calls
        search = (symmetric_critical_range_search if symmetric
                  else critical_range_search)
        for i, n in enumerate(tables.counts):
            src, dst = np.nonzero(cover[i, :n, :n])
            value = search(int(n), np.stack([src, dst], axis=1),
                           tables.dist[i][src, dst])
            assert np.float64(value).tobytes() == got[i].tobytes()

    @settings(max_examples=150, deadline=None)
    @given(ragged_chunks(symmetric=False))
    def test_strong_matches_per_instance(self, chunk):
        self._compare(*chunk, packed_critical, symmetric=False)

    @settings(max_examples=150, deadline=None)
    @given(ragged_chunks(symmetric=True))
    def test_symmetric_matches_per_instance(self, chunk):
        self._compare(*chunk, packed_symmetric_critical, symmetric=True)

    def test_one_csgraph_call_per_step(self):
        """25 instances that bisect together share each step's csgraph call."""
        rng = np.random.default_rng(5)
        n, m = 12, 25
        dist = rng.uniform(0.1, 9.0, size=(m, n, n))
        cover = ~np.eye(n, dtype=bool)[None].repeat(m, axis=0)
        tables = PackedPolarTables(dist, dist, np.full(m, n, dtype=np.int64))
        with recording() as rec:
            packed_critical(tables, cover)
        steps = 1 + math.ceil(math.log2(n * (n - 1)))
        assert rec.connectivity_probes >= m * (steps - 1)
        assert rec.scipy_scc_calls <= steps


class TestPackedConnectivity:
    """One-launch connectivity against the per-instance CSR kernels."""

    @staticmethod
    def _csr(block):
        src, dst = np.nonzero(block)
        n = block.shape[0]
        indptr = np.concatenate([[0], np.cumsum(np.bincount(src, minlength=n))])
        return indptr.astype(np.int64), dst.astype(np.int64)

    @settings(max_examples=150, deadline=None)
    @given(ragged_chunks(symmetric=False))
    def test_strong_matches_per_instance(self, chunk):
        tables, cover = chunk
        with recording() as got_rec:
            got = packed_strongly_connected(cover, tables.counts)
        with recording() as ref_rec:
            ref = [strongly_connected_csr(int(n), *self._csr(cover[i, :n, :n]))
                   for i, n in enumerate(tables.counts)]
        assert got.tolist() == ref
        assert got_rec.connectivity_probes == ref_rec.connectivity_probes
        assert got_rec.scipy_scc_calls <= min(1, ref_rec.scipy_scc_calls)

    @settings(max_examples=150, deadline=None)
    @given(ragged_chunks(symmetric=False))
    def test_symmetric_matches_per_instance(self, chunk):
        tables, cover = chunk
        with recording() as got_rec:
            got = packed_symmetric_connected(cover, tables.counts)
        ref = []
        with recording() as ref_rec:
            for i, n in enumerate(tables.counts):
                sub = cover[i, :n, :n]
                ref.append(symmetric_connected_csr(int(n), *self._csr(sub & sub.T)))
        assert got.tolist() == ref
        assert got_rec.connectivity_probes == ref_rec.connectivity_probes
        assert got_rec.scipy_scc_calls <= min(1, ref_rec.scipy_scc_calls)

    def test_all_rejected_skips_csgraph(self):
        cover = np.zeros((3, 4, 4), dtype=bool)
        cover[0, 0, 1] = True
        with recording() as rec:
            got = packed_strongly_connected(cover, np.array([4, 4, 1]))
        assert got.tolist() == [False, False, True]
        assert rec.connectivity_probes == 3 and rec.scipy_scc_calls == 0


class TestTrialRadiusCoverage:
    """A ``(T, A)`` radius array == T stacked single-radius calls."""

    @staticmethod
    def _antennae(rng, n, per_sensor):
        a = n * per_sensor
        idx = np.repeat(np.arange(n, dtype=np.int64), per_sensor)
        start = rng.uniform(0.0, 2 * np.pi, size=a)
        spread = rng.uniform(0.0, 2 * np.pi, size=a)
        spread[rng.random(a) < 0.2] = 0.0
        spread[rng.random(a) < 0.2] = 2 * np.pi
        return idx, start, spread

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("grouped", [True, False])
    def test_matches_stacked_single_radius_calls(self, seed, grouped):
        rng = np.random.default_rng(seed)
        n, trials = int(rng.integers(2, 14)), 5
        coords = rng.uniform(-3.0, 3.0, size=(n, 2))
        if n >= 4:
            coords[1] = coords[0]  # coincident points: dist == 0 excluded
            coords[3, 0] = coords[2, 0]  # a zero-spread ray through a point
        tables = polar_tables(coords)
        idx, start, spread = self._antennae(rng, n, int(rng.integers(1, 4)))
        if not grouped:
            order = rng.permutation(idx.shape[0])
            idx, start, spread = idx[order], start[order], spread[order]
        a = idx.shape[0]
        radius = rng.uniform(0.0, 6.0, size=(trials, a))
        radius[rng.random((trials, a)) < 0.2] = np.inf
        # Radii exactly at dist - tol of the pair each antenna points at.
        target = rng.integers(0, n, size=a)
        d = tables.dist[idx, target]
        radius[0] = d - radius_tolerance(d)
        radius[1] = d
        with recording() as rec:
            got = batched_coverage(tables, idx, start, spread, radius)
        want = np.stack([
            batched_coverage(tables, idx, start, spread, radius[t])
            for t in range(trials)
        ])
        assert got.shape == (trials, n, n)
        assert np.array_equal(got, want)
        assert rec.coverage_calls == 1
        assert rec.sector_evals == a * n * (1 + trials)

    def test_ignore_radius_is_one_matrix(self):
        rng = np.random.default_rng(3)
        tables = polar_tables(rng.random((7, 2)))
        idx, start, spread = self._antennae(rng, 7, 2)
        radius = rng.uniform(0.0, 1.0, size=(4, idx.shape[0]))
        got = batched_coverage(tables, idx, start, spread, radius,
                               ignore_radius=True)
        assert np.array_equal(got, batched_coverage(
            tables, idx, start, spread, radius[0], ignore_radius=True))

    def test_no_antennae(self):
        tables = polar_tables(np.random.default_rng(0).random((4, 2)))
        empty = np.zeros(0)
        with recording() as rec:
            got = batched_coverage(tables, np.zeros(0, dtype=np.int64), empty,
                                   empty, np.zeros((3, 0)))
        assert got.shape == (3, 4, 4) and not got.any()
        assert rec.coverage_calls == 0

