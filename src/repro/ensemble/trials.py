"""Batched Monte-Carlo trial measurement over cached geometry.

A trial never rebuilds geometry: it is a *mask and rescale* of the
instance's cached polar tables.

* **Dense path** — the instance's ``(n, n)`` :class:`PolarTables` serve
  every trial of a chunk.  Without rotation every trial aims its beams
  the same way, so one :func:`~repro.kernels.coverage.batched_coverage`
  launch with a ``(T, A)`` radius array tests angular containment once
  on the A antenna rows and only the faded radius per trial, and one
  ``ignore_radius`` launch gives the angular-only cover the whole chunk
  shares (when the critical range is wanted).  With rotation the tables
  are broadcast (zero-copy) into a trials-as-instances
  :class:`~repro.kernels.batch.PackedPolarTables` for one
  :func:`~repro.kernels.batch.packed_coverage` launch (two with the
  angular cover).  Either way the chunk then costs one
  :func:`~repro.kernels.batch.packed_strongly_connected` launch and one
  :func:`~repro.kernels.batch.packed_critical` launch, whose bisections
  run in lockstep — no extra trig, no per-trial Python coverage loops.
* **Sparse path** — the cached radius-bounded
  :class:`~repro.kernels.sparse.SparsePolarTables` serve every trial
  through :func:`~repro.kernels.sparse.sparse_trial_coverage` (again one
  coverage launch per chunk); per-trial connectivity/critical run on the
  masked candidate arrays.  Fading can push the needed candidate radius
  past the cached ``r_cut``; the chunk then widens the cutoff through the
  shared :class:`~repro.engine.cache.ArtifactCache` and re-derives itself
  — results are *certified*, never silently truncated, mirroring
  :func:`repro.kernels.sparse.sparse_metrics`.

Randomness is drawn from counter-based streams keyed by
``(run key, instance slot, trial index)`` — see :func:`draw_trials` — and
edge failures from the random-access table
:func:`repro.utils.rng.indexed_uniforms` keyed by the directed pair id
``u·n + v``.  The dense path evaluates all ``n²`` pair ids and the sparse
path only the candidate ids, yet both see identical draws, so backend
routing, sharding, resume order and cutoff widening never change a trial's
outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.batch import (
    PackedPolarTables,
    packed_coverage,
    packed_critical,
    packed_strongly_connected,
    packed_symmetric_connected,
    packed_symmetric_critical,
)
from repro.kernels.connectivity import (
    strongly_connected_edges,
    symmetric_connected_edges,
)
from repro.kernels.coverage import batched_coverage
from repro.kernels.critical import (
    critical_range_search,
    symmetric_critical_range_search,
)
from repro.kernels.instrument import COUNTERS
from repro.kernels.sparse import (
    SparsePolarTables,
    complete_cutoff,
    required_cutoff,
    sparse_trial_coverage,
)
from repro.utils.rng import counter_rng, indexed_uniforms, stable_seed

__all__ = ["TrialDraws", "TrialMeasurements", "draw_trials", "measure_trials"]

_TWO_PI = 2.0 * np.pi


@dataclass
class TrialDraws:
    """The random state of a chunk of trials (``None`` = perturbation off).

    Shapes are ``(T, n)`` over trials × sensors.  ``edge_seeds`` holds one
    :func:`~repro.utils.rng.indexed_uniforms` seed per trial; the failure
    draw of directed pair ``(u, v)`` lives at index ``u·n + v`` of that
    trial's virtual table, independent of which pairs ever get evaluated.
    """

    rotation: np.ndarray | None
    fade: np.ndarray | None
    alive: np.ndarray | None
    edge_seeds: np.ndarray


def draw_trials(key: str, instance_slot: int, trial_indices, n: int, pert) -> TrialDraws:
    """Materialize the perturbation draws of the given global trial indices.

    Per trial, the draw order within the stream
    ``counter_rng(key, slot, trial)`` is fixed: rotation uniforms (n), fade
    normals (n), knockout uniforms (n) — each drawn only when its
    perturbation is active, which is deterministic because the
    perturbation is part of the fingerprinted request identity.
    """
    trial_indices = [int(t) for t in trial_indices]
    count = len(trial_indices)
    rotation = np.zeros((count, n)) if pert.rotate else None
    fade = np.ones((count, n)) if pert.fade_sigma > 0.0 else None
    alive = np.ones((count, n), dtype=bool) if pert.node_fail > 0.0 else None
    edge_seeds = np.zeros(count, dtype=np.uint64)
    for j, t in enumerate(trial_indices):
        rng = counter_rng(key, int(instance_slot), t)
        if rotation is not None:
            rotation[j] = rng.uniform(0.0, _TWO_PI, n)
        if fade is not None:
            fade[j] = np.exp(pert.fade_sigma * rng.standard_normal(n))
        if alive is not None:
            alive[j] = rng.uniform(size=n) >= pert.node_fail
        edge_seeds[j] = np.uint64(stable_seed(key, int(instance_slot), t, "edges"))
    return TrialDraws(rotation, fade, alive, edge_seeds)


@dataclass
class TrialMeasurements:
    """Per-trial observables of one chunk (``None`` = not requested).

    ``critical`` and ``realized`` are in lmax units — the same
    normalization :class:`~repro.analysis.metrics.OrientationMetrics`
    reports and :class:`~repro.engine._spec.FrontierRequest` targets use,
    so ensemble quantile targets are directly comparable to deterministic
    frontier targets.  ``critical`` is ``inf`` when a trial's surviving
    network is deficient at every radius.
    """

    connected: np.ndarray | None
    critical: np.ndarray | None
    realized: np.ndarray | None


def _edge_fail_keep(seed: np.uint64, ids: np.ndarray, edge_fail: float) -> np.ndarray:
    """Survival mask of the directed pair ids for one trial."""
    return indexed_uniforms(seed, ids) >= edge_fail


def _alive_permutation(alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(perm, counts)`` compacting each trial's alive sensors to the front.

    A stable argsort of ``~alive`` keeps alive sensors in index order, so
    the compacted block is a relabeling the packed connectivity/critical
    kernels (which assume vertices ``0..counts-1``) can consume directly.
    """
    perm = np.argsort(~alive, axis=1, kind="stable")
    counts = alive.sum(axis=1).astype(np.int64)
    return perm, counts


def _realized_ranges(result, draws: TrialDraws, count: int) -> np.ndarray:
    """Per-trial realized range (lmax units): the nominal uniform radius at
    which every intended edge works despite the fading — knockouts and edge
    failures do not change what the construction *intended* to build."""
    edges = result.intended_edges
    if edges.size == 0 or count == 0:
        return np.zeros(count)
    c = result.points.coords
    diff = c[edges[:, 0]] - c[edges[:, 1]]
    d = np.hypot(diff[:, 0], diff[:, 1])
    if draws.fade is not None:
        required = (d[None, :] / draws.fade[:, edges[:, 0]]).max(axis=1)
    else:
        required = np.full(count, float(d.max()))
    if result.lmax > 0:
        required = required / result.lmax
    return required


def measure_trials(
    ps,
    tables,
    result,
    pert,
    key: str,
    instance_slot: int,
    trial_indices,
    *,
    cache=None,
    want_connectivity: bool = True,
    want_critical: bool = False,
    want_realized: bool = False,
    eps: float = 1e-9,
    mode: str = "strong",
) -> TrialMeasurements:
    """Measure one chunk of trials of one oriented instance.

    ``tables`` is the instance's cached dense :class:`PolarTables` or
    sparse :class:`SparsePolarTables` (whichever
    :func:`~repro.engine.executor.instance_artifacts` returned); ``result``
    is the deterministic :class:`~repro.core.result.OrientationResult` the
    perturbation is applied to.  ``cache`` is required on the sparse path
    when fading may widen the candidate cutoff.  ``mode`` selects the
    per-trial connectivity objective; under ``"symmetric"`` a link works
    only when both directions survive the perturbation, so fading (which
    skews the two directions' effective distances apart) is judged at the
    pair's *worse* direction.
    """
    trial_list = [int(t) for t in trial_indices]
    count = len(trial_list)
    n = len(ps)
    COUNTERS.ensemble_trials += count
    draws = draw_trials(key, instance_slot, trial_list, n, pert)
    realized = _realized_ranges(result, draws, count) if want_realized else None
    if count == 0 or not (want_connectivity or want_critical):
        empty = np.zeros(count, dtype=bool) if want_connectivity else None
        crit = np.zeros(count) if want_critical else None
        return TrialMeasurements(empty, crit, realized)

    sensor_idx, start, spread, radius = result.assignment.flattened()
    if draws.rotation is not None:
        start_t = np.mod(start[None, :] + draws.rotation[:, sensor_idx], _TWO_PI)
    else:
        start_t = np.broadcast_to(start, (count, start.shape[0]))
    if draws.fade is not None:
        radius_t = radius[None, :] * draws.fade[:, sensor_idx]
    else:
        radius_t = np.broadcast_to(radius, (count, radius.shape[0]))

    if isinstance(tables, SparsePolarTables):
        connected, critical = _measure_sparse(
            ps, tables, pert, draws, sensor_idx, start_t, spread, radius_t,
            cache=cache, want_connectivity=want_connectivity,
            want_critical=want_critical, eps=eps, mode=mode,
        )
    else:
        connected, critical = _measure_dense(
            tables, pert, draws, sensor_idx, start_t, spread, radius_t,
            want_connectivity=want_connectivity, want_critical=want_critical,
            eps=eps, mode=mode,
        )
    if critical is not None and result.lmax > 0:
        critical = critical / result.lmax
    return TrialMeasurements(connected, critical, realized)


# -- dense path ------------------------------------------------------------


def _rotated_coverage(
    tables, sensor_idx, start_t, spread, radius_t, counts, *, want_critical, eps
):
    """Coverage of trials whose beams point differently in every trial.

    The instance's ``(n, n)`` tables are broadcast (zero-copy) into a
    trials-as-instances :class:`PackedPolarTables`, so the chunk costs one
    :func:`packed_coverage` launch (two with the angular-only cover).
    """
    count, n = start_t.shape[0], tables.dist.shape[0]
    antennae = sensor_idx.shape[0]
    packed = PackedPolarTables(
        np.broadcast_to(tables.dist, (count, n, n)),
        np.broadcast_to(tables.ang, (count, n, n)),
        counts,
    )
    inst_idx = np.repeat(np.arange(count, dtype=np.int64), antennae)
    sensor_f = np.tile(sensor_idx, count)
    spread_f = np.tile(spread, count)
    start_f = np.ascontiguousarray(start_t).ravel()
    radius_f = np.ascontiguousarray(radius_t).ravel()
    cover = packed_coverage(
        packed, inst_idx, sensor_f, start_f, spread_f, radius_f, eps=eps
    )
    cover_ang = None
    if want_critical:
        cover_ang = packed_coverage(
            packed, inst_idx, sensor_f, start_f, spread_f, radius_f,
            eps=eps, ignore_radius=True,
        )
    return cover, cover_ang


def _measure_dense(
    tables, pert, draws, sensor_idx, start_t, spread, radius_t,
    *, want_connectivity, want_critical, eps, mode="strong",
):
    count, n = start_t.shape[0], tables.dist.shape[0]
    counts = np.full(count, n, dtype=np.int64)
    if draws.rotation is None:
        # Every trial aims its beams the same way: one launch evaluates the
        # angular half once and the per-trial radius test for all trials,
        # and the angular-only coverage is shared by the whole chunk.
        cover = batched_coverage(
            tables, sensor_idx, start_t[0], spread, radius_t, eps=eps
        )
        cover_ang = None
        if want_critical:
            cover_ang = np.repeat(
                batched_coverage(
                    tables, sensor_idx, start_t[0], spread, radius_t[0],
                    eps=eps, ignore_radius=True,
                )[None],
                count, axis=0,
            )
    else:
        cover, cover_ang = _rotated_coverage(
            tables, sensor_idx, start_t, spread, radius_t, counts,
            want_critical=want_critical, eps=eps,
        )
    if pert.edge_fail > 0.0:
        ids = np.arange(n, dtype=np.uint64)[:, None] * np.uint64(n) + np.arange(
            n, dtype=np.uint64
        )
        for j in range(count):
            keep = _edge_fail_keep(draws.edge_seeds[j], ids, pert.edge_fail)
            cover[j] &= keep
            if cover_ang is not None:
                cover_ang[j] &= keep
    if draws.alive is not None:
        pair_alive = draws.alive[:, :, None] & draws.alive[:, None, :]
        cover &= pair_alive
        if cover_ang is not None:
            cover_ang &= pair_alive

    if draws.alive is not None:
        perm, counts = _alive_permutation(draws.alive)
        ti = np.arange(count)[:, None, None]
        rows = perm[:, :, None]
        cols = perm[:, None, :]
        cover = cover[ti, rows, cols]
        if cover_ang is not None:
            cover_ang = cover_ang[ti, rows, cols]

    if not want_connectivity:
        connected = None
    elif mode == "symmetric":
        connected = packed_symmetric_connected(cover, counts)
    else:
        connected = packed_strongly_connected(cover, counts)
    critical = None
    if want_critical:
        if draws.fade is not None:
            dist_eff = tables.dist[None, :, :] / draws.fade[:, :, None]
            if mode == "symmetric":
                # A symmetric link needs BOTH directions under the radius;
                # fading makes the two effective distances differ, so the
                # pair is judged at the worse one.  Without fading the
                # matrix is already symmetric and this branch never runs.
                dist_eff = np.maximum(dist_eff, dist_eff.swapaxes(1, 2))
        else:
            dist_eff = np.broadcast_to(tables.dist, (count, n, n))
        if draws.alive is not None:
            dist_eff = dist_eff[
                np.arange(count)[:, None, None], perm[:, :, None], perm[:, None, :]
            ]
        eff = PackedPolarTables(dist_eff, dist_eff, counts)
        if mode == "symmetric":
            critical = packed_symmetric_critical(eff, cover_ang, eps=eps)
        else:
            critical = packed_critical(eff, cover_ang, eps=eps)
    return connected, critical


# -- sparse path -----------------------------------------------------------


def _pair_max_dists(n: int, src, dst, dists) -> np.ndarray:
    """Per-directed-edge max of its own and its reverse edge's distance.

    Edges whose reverse is absent keep their own distance (they are dropped
    by the mutual filter downstream anyway).  Same packed-key pairing as
    :func:`~repro.kernels.connectivity.mutual_mask`.
    """
    if src.shape[0] == 0:
        return np.asarray(dists, dtype=float)
    key = src.astype(np.int64) * np.int64(n) + dst.astype(np.int64)
    rkey = dst.astype(np.int64) * np.int64(n) + src.astype(np.int64)
    order = np.argsort(key, kind="stable")
    skey = key[order]
    pos = np.searchsorted(skey, rkey)
    pos[pos == skey.shape[0]] = 0  # any in-range slot; equality check decides
    has = skey[pos] == rkey
    out = np.asarray(dists, dtype=float).copy()
    out[has] = np.maximum(out[has], out[order[pos[has]]])
    return out


def _measure_sparse(
    ps, tables, pert, draws, sensor_idx, start_t, spread, radius_t,
    *, cache, want_connectivity, want_critical, eps, mode="strong",
):
    count, n = start_t.shape[0], tables.n
    antennae = sensor_idx.shape[0]
    cap = complete_cutoff(ps.coords, eps)
    finite_r = radius_t[np.isfinite(radius_t)]
    need = required_cutoff(float(finite_r.max()), eps) if finite_r.size else 0.0
    tables = _widen(ps, tables, min(max(need, tables.r_cut), cap), cache)

    tid = np.repeat(np.arange(count, dtype=np.int64), antennae)
    sensor_f = np.tile(sensor_idx, count)
    spread_f = np.tile(spread, count)

    while True:
        start_f = np.ascontiguousarray(start_t).ravel()
        radius_f = np.ascontiguousarray(radius_t).ravel()
        cov = sparse_trial_coverage(
            tables, tid, sensor_f, start_f, spread_f, radius_f,
            trials=count, eps=eps,
        )
        cov_ang = None
        if want_critical:
            cov_ang = sparse_trial_coverage(
                tables, tid, sensor_f, start_f, spread_f, radius_f,
                trials=count, eps=eps, ignore_radius=True,
            )
        ids = (
            tables.src.astype(np.uint64) * np.uint64(n)
            + tables.indices.astype(np.uint64)
        )
        if pert.edge_fail > 0.0:
            for j in range(count):
                keep = _edge_fail_keep(draws.edge_seeds[j], ids, pert.edge_fail)
                cov[j] &= keep
                if cov_ang is not None:
                    cov_ang[j] &= keep
        if draws.alive is not None:
            pair_alive = draws.alive[:, tables.src] & draws.alive[:, tables.indices]
            cov &= pair_alive
            if cov_ang is not None:
                cov_ang &= pair_alive

        connected = np.zeros(count, dtype=bool) if want_connectivity else None
        critical = np.zeros(count) if want_critical else None
        widen_to = None
        for j in range(count):
            if draws.alive is not None:
                alive_j = draws.alive[j]
                n_eff = int(alive_j.sum())
                relabel = np.cumsum(alive_j) - 1
            else:
                n_eff, relabel = n, None
            if connected is not None:
                mask = cov[j]
                src = tables.src[mask]
                dst = tables.indices[mask]
                if relabel is not None:
                    src, dst = relabel[src], relabel[dst]
                if n_eff <= 1:
                    connected[j] = True
                elif mode == "symmetric":
                    connected[j] = symmetric_connected_edges(n_eff, src, dst)
                else:
                    connected[j] = strongly_connected_edges(n_eff, src, dst)
            if critical is None:
                continue
            mask = cov_ang[j]
            src = tables.src[mask]
            dst = tables.indices[mask]
            dists = tables.dist[mask]
            fade_src = draws.fade[j, src] if draws.fade is not None else None
            if fade_src is not None:
                dists = dists / fade_src
                if mode == "symmetric":
                    # Judge each mutual pair at its worse direction (see
                    # measure_trials); pairing uses the pre-relabel ids.
                    dists = _pair_max_dists(n, src, dst, dists)
            if relabel is not None:
                src, dst = relabel[src], relabel[dst]
            if mode == "symmetric":
                value = symmetric_critical_range_search(
                    n_eff, np.column_stack([src, dst]), dists, eps=eps
                )
            else:
                value = critical_range_search(
                    n_eff, np.column_stack([src, dst]), dists, eps=eps
                )
            critical[j] = value
            # Certify: every edge the accepting dense probe could use has
            # physical length <= value * max fade, so the candidate set is
            # provably complete iff that radius fits under r_cut.
            if np.isfinite(value) and value > 0.0:
                fade_max = (
                    float(draws.fade[j].max()) if draws.fade is not None else 1.0
                )
                needed = required_cutoff(value * fade_max, eps)
                if needed > tables.r_cut and tables.r_cut < cap:
                    widen_to = max(widen_to or 0.0, needed)
        if widen_to is None:
            return connected, critical
        COUNTERS.rcut_widenings += 1
        tables = _widen(ps, tables, min(max(widen_to, 2.0 * tables.r_cut), cap), cache)


def _widen(ps, tables, r_cut: float, cache):
    """Fetch tables at a (possibly) wider cutoff through the shared cache."""
    if r_cut <= tables.r_cut:
        return tables
    if cache is None:
        from repro.kernels.sparse import sparse_polar_tables

        return sparse_polar_tables(ps.coords, r_cut)
    return cache.sparse_polar(ps, r_cut)
