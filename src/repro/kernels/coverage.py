"""Batched sector-coverage kernel: all ``k·n`` antennae in pure array ops.

Replaces the per-antenna Python loop in ``coverage_matrix``: every sector
is evaluated against every point at once, reading angles and distances from
the shared :class:`~repro.kernels.geometry.PolarTables` instead of
recomputing trig per antenna.  Processed in antenna blocks so float
temporaries stay bounded; sectors of one sensor are OR-reduced with a
single ``logical_or.reduceat``.

A containment test has two halves, each its own block function: the
*angular* half (:func:`_angular_hits`: is the point inside the beam's
ccw interval, and distinct from the apex) and the *radial* half
(:func:`_radial_hits`: is it within the radius plus
:func:`~repro.geometry.sectors.radius_tolerance`).  A single-radius call
ANDs both per antenna block.  A call with a ``(T, A)`` radius array — T
trials that share the beams' directions but not their reach, as in a
rotation-free Monte-Carlo chunk — runs the angular half once over the A
antenna rows and only the radial half per trial, returning ``(T, n, n)``.

The kernel is bit-identical to the loop it replaces (same elementwise
expressions in the same dtype; boolean AND/OR are exact, so splitting the
test into halves changes no bit) — the equivalence suite in
``tests/test_kernels.py`` asserts this on randomized instances against
:mod:`repro.kernels.reference`.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.angles import TWO_PI
from repro.geometry.sectors import radius_tolerance
from repro.kernels.geometry import PolarTables
from repro.kernels.instrument import COUNTERS

__all__ = ["batched_coverage"]

#: Elements per ``(block, n)`` float temporary inside the kernel.  Small on
#: purpose: ~2 MB blocks stay cache-resident, so the kernel's many cheap
#: elementwise passes do not become memory-bandwidth bound (the mistake
#: that would make it *slower* than the old cache-hot per-antenna loop).
_BLOCK_ELEMS = 262_144

#: Elements per ``(trials, antennae, n)`` boolean block of the per-trial
#: radius test (one byte each, no float temporaries).
_TRIAL_BLOCK_ELEMS = 1_048_576


def _ccw_from_start(ang: np.ndarray, start: np.ndarray) -> np.ndarray:
    """``ccw_angle(start, ang)`` specialised to inputs already in [0, 2π).

    The difference then lies in (-2π, 2π), where ``np.mod(d, 2π)`` equals
    ``d + 2π if d < 0 else d`` *bit-exactly* (``fmod(d, 2π) == d`` for
    ``|d| < 2π``, and numpy's mod adds the modulus when signs differ), so
    this skips the expensive fmod.  The final wrap-fix mirrors
    :func:`~repro.geometry.angles.normalize_angle`: a tiny negative ``d``
    can round to exactly 2π.
    """
    d = ang - start
    out = np.where(d < 0.0, d + TWO_PI, d)
    return np.where(out >= TWO_PI, out - TWO_PI, out)


def batched_coverage(
    tables: PolarTables,
    sensor_idx: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    radius: np.ndarray,
    *,
    eps: float = 1e-9,
    ignore_radius: bool = False,
) -> np.ndarray:
    """Boolean coverage matrix of a flattened antenna set.

    Parameters
    ----------
    tables:
        Shared polar geometry of the point set.
    sensor_idx, start, spread, radius:
        Flat per-antenna arrays (``AntennaAssignment.flattened()`` order).
        ``radius`` may instead be a ``(T, A)`` array of per-trial radii:
        the result is then the ``(T, n, n)`` stack of the T single-radius
        matrices, with the angular half evaluated once for all trials.
    ignore_radius:
        Test angular containment only (candidate-edge enumeration); the
        result is ``(n, n)`` whatever the shape of ``radius``.
    """
    n = tables.n
    radius = np.asarray(radius, dtype=float)
    trials = radius.shape[0] if radius.ndim == 2 and not ignore_radius else None
    cover = np.zeros((n, n) if trials is None else (trials, n, n), dtype=bool)
    a = int(sensor_idx.shape[0])
    if a == 0 or n == 0:
        return cover
    COUNTERS.coverage_calls += 1
    # Per-trial radii: the A·n angular tests run once, the radius test T times.
    COUNTERS.sector_evals += a * n if trials is None else a * n * (1 + trials)

    # ``flattened()`` yields antennae grouped by sensor already; re-sort only
    # if a caller hands us an ungrouped set (reduceat needs contiguous runs).
    if np.any(np.diff(sensor_idx) < 0):
        order = np.argsort(sensor_idx, kind="stable")
        sensor_idx = sensor_idx[order]
        start, spread, radius = start[order], spread[order], radius[..., order]
    sensors, first = np.unique(sensor_idx, return_index=True)

    hit = np.empty((a, n), dtype=bool)
    block = max(1, _BLOCK_ELEMS // max(n, 1))
    for lo in range(0, a, block):
        hi = min(lo + block, a)
        idx = sensor_idx[lo:hi]
        if trials is None:
            _fill_block(tables.ang[idx], tables.dist[idx], start[lo:hi],
                        spread[lo:hi], radius[lo:hi], eps, ignore_radius,
                        hit[lo:hi])
        else:
            _angular_hits(tables.ang[idx], tables.dist[idx], start[lo:hi],
                          spread[lo:hi], eps, hit[lo:hi])
    if trials is None:
        cover[sensors] = np.logical_or.reduceat(hit, first, axis=0)
        np.fill_diagonal(cover, False)
        return cover

    dist = tables.dist[sensor_idx]
    block = max(1, _TRIAL_BLOCK_ELEMS // (a * n))
    for lo in range(0, trials, block):
        hi = min(lo + block, trials)
        rows = _radial_hits(dist, radius[lo:hi], eps)
        rows &= hit
        cover[lo:hi, sensors] = np.logical_or.reduceat(rows, first, axis=1)
    diag = np.arange(n)
    cover[:, diag, diag] = False
    return cover


def _fill_block(
    ang: np.ndarray,
    dist: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    radius: np.ndarray,
    eps: float,
    ignore_radius: bool,
    out: np.ndarray,
) -> None:
    """The block body on pre-gathered ``(b, n)`` angle/distance rows.

    Shared with the packed multi-instance kernel in
    :mod:`repro.kernels.batch` — one set of elementwise expressions keeps
    the two paths bit-identical by construction (elementwise float ops are
    shape-independent).
    """
    _angular_hits(ang, dist, start, spread, eps, out)
    if not ignore_radius:
        out &= _radial_hits(dist, radius, eps)


def _angular_hits(
    ang: np.ndarray,
    dist: np.ndarray,
    start: np.ndarray,
    spread: np.ndarray,
    eps: float,
    out: np.ndarray,
) -> None:
    """``out[i, v]`` = point ``v`` lies in beam ``i``'s ccw interval and is
    not the apex (``dist > 0``), on pre-gathered ``(b, n)`` rows."""
    # Full-circle sectors short-circuit before any angular arithmetic: an
    # omnidirectional antenna needs no ccw sweep at all.
    full = spread >= TWO_PI - eps
    out[full] = True
    nf = ~full
    if nf.any():
        rel = _ccw_from_start(ang[nf], start[nf, None])
        out[nf] = (rel <= spread[nf, None] + eps) | (rel >= TWO_PI - eps)
    out &= dist > 0.0


def _radial_hits(dist: np.ndarray, radius: np.ndarray, eps: float) -> np.ndarray:
    """``dist[i, v] <= radius[..., i]`` plus its tolerance, shape
    ``radius.shape + (n,)``; an infinite radius reaches every point."""
    reach = np.full(radius.shape, np.inf)
    fin = np.isfinite(radius)
    if fin.any():
        reach[fin] = radius[fin] + radius_tolerance(radius[fin], eps)
    return dist <= reach[..., None]
