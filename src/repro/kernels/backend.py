"""Kernel backend names: which sparse-routing rule a run measures under.

Every measurement runs on one set of numpy kernels (polar tables, batched
coverage, CSR connectivity, the critical-range bisection and their packed
multi-instance variants); call sites import those functions directly.  A
*backend* is only a validated name from :data:`KNOWN_BACKENDS` that picks
when an instance takes the radius-bounded sparse path
(:mod:`repro.kernels.sparse`) instead of the dense ``(n, n)`` tables — see
:func:`use_sparse`:

* ``numpy`` — never;
* ``sparse`` — every instance with ``n >= 2``;
* ``auto`` — instances with at least :func:`sparse_auto_threshold` points
  (``REPRO_SPARSE_AUTO_N``, default 4096 — roughly where the dense tables
  stop fitting in cache and their O(n²) build dominates).

Selection precedence (first match wins):

1. an explicit name handed to :func:`use_backend` / :func:`resolve_backend`
   (the CLI ``--backend`` flag and the engine executors land here);
2. the ``backend`` field on a :class:`~repro.engine.spec.PlanRequest` /
   ``FrontierRequest`` (the executor resolves it and wraps execution in
   :func:`use_backend`);
3. the ``REPRO_BACKEND`` environment variable;
4. the default ``numpy``.

The pinned name lives in a :class:`contextvars.ContextVar`, so concurrent
plans on the service's drain threads each see their own pin.

Exactness contract: the sparse path is certified bit-identical to the
dense kernels, so every rule yields the same results and ledgers written
under one are valid resume/merge material for any other — the per-row
``backend`` tag records provenance, not meaning.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from repro.errors import ReproError

__all__ = [
    "KNOWN_BACKENDS",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "SPARSE_AUTO_ENV_VAR",
    "DEFAULT_SPARSE_AUTO_N",
    "BackendUnavailable",
    "active_backend",
    "resolve_backend",
    "sparse_auto_threshold",
    "use_backend",
    "use_sparse",
]

KNOWN_BACKENDS = ("numpy", "sparse", "auto")
DEFAULT_BACKEND = "numpy"
BACKEND_ENV_VAR = "REPRO_BACKEND"

#: Environment variable overriding the ``auto`` rule's instance-size
#: threshold; instances with at least this many points take the sparse
#: radius-bounded path under the ``auto`` backend.
SPARSE_AUTO_ENV_VAR = "REPRO_SPARSE_AUTO_N"
DEFAULT_SPARSE_AUTO_N = 4096


def sparse_auto_threshold() -> int:
    """The instance size at which the ``auto`` backend goes sparse."""
    raw = os.environ.get(SPARSE_AUTO_ENV_VAR)
    if raw:
        try:
            return int(raw)
        except ValueError:
            pass
    return DEFAULT_SPARSE_AUTO_N


class BackendUnavailable(ReproError):
    """The requested kernel backend name is unknown."""


#: The name pinned by the innermost :func:`use_backend` in this context.
_pinned: ContextVar[str | None] = ContextVar("repro_backend", default=None)


def resolve_backend(name: str | None = None) -> str:
    """Validate ``name`` and return it.

    ``None`` falls back to ``$REPRO_BACKEND`` and then to the default
    ``numpy``.  Raises :class:`BackendUnavailable` for unknown names.
    """
    if name is None:
        name = os.environ.get(BACKEND_ENV_VAR) or DEFAULT_BACKEND
    if name not in KNOWN_BACKENDS:
        raise BackendUnavailable(
            f"unknown kernel backend {name!r}; known backends: "
            f"{', '.join(KNOWN_BACKENDS)}"
        )
    return name


def active_backend() -> str:
    """The backend name in force right now.

    The innermost :func:`use_backend` pin of the current context wins;
    otherwise the env var / default resolution of :func:`resolve_backend`
    applies per call.
    """
    pinned = _pinned.get()
    return pinned if pinned is not None else resolve_backend(None)


@contextmanager
def use_backend(name: str | None) -> Iterator[str]:
    """Pin :func:`active_backend` to ``name`` within the ``with`` body.

    ``None`` resolves env/default now and pins that — useful to freeze the
    choice for a whole run even if the environment changes midway.  The
    pin is scoped to the current context (thread), never shared.
    """
    name = resolve_backend(name)
    token = _pinned.set(name)
    try:
        yield name
    finally:
        _pinned.reset(token)


def use_sparse(n: int) -> bool:
    """Should an ``n``-point instance take the radius-bounded sparse path
    under the active backend's routing rule?"""
    backend = active_backend()
    if backend == "sparse":
        return n >= 2
    if backend == "auto":
        return n >= sparse_auto_threshold()
    return False
