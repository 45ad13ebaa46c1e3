"""Vectorized measurement kernels shared by every layer above geometry.

The three kernels every experiment funnels through — sector coverage,
strong connectivity, and the measured critical range — live here as pure
array programs over shared per-instance geometry:

* :mod:`repro.kernels.geometry` — :class:`PolarTables`, the ``(n, n)``
  per-source angle/distance tables computed once per point set (cacheable
  via :class:`repro.engine.cache.ArtifactCache`);
* :mod:`repro.kernels.coverage` — :func:`batched_coverage`, all ``k·n``
  sectors evaluated against the tables in one pass;
* :mod:`repro.kernels.connectivity` — CSR strong connectivity
  (``scipy.sparse.csgraph`` fast path, two-pass BFS fallback) on raw
  arrays, no graph objects;
* :mod:`repro.kernels.critical` — :func:`critical_range_search`, the
  rebuild-free bottleneck-radius bisection over a once-sorted edge list;
* :mod:`repro.kernels.batch` — packed multi-instance kernels: a whole
  chunk of instances (:class:`BatchedInstances` + packed polar tables)
  evaluated per Python-level launch;
* :mod:`repro.kernels.backend` — backend *names* (``numpy``, ``sparse``,
  ``auto``): the sparse-routing rule a run measures under, selected by
  ``REPRO_BACKEND``, a request flag, or ``--backend`` and pinned per
  context by :func:`use_backend`;
* :mod:`repro.kernels.sparse` — :class:`SparsePolarTables`, the CSR
  radius-bounded candidate geometry and the certified-exact
  :func:`sparse_metrics` measurement loop that scales instances to
  n = 10⁵ without the ``(n, n)`` tables;
* :mod:`repro.kernels.instrument` — process-wide work counters (graph
  builds, connectivity probes, trig evaluations) that perf-regression
  tests assert on instead of wall-clock;
* :mod:`repro.kernels.reference` — the replaced loop kernels, kept
  verbatim as bit-exactness oracles (import it explicitly; it is not
  re-exported here because it depends on the graph layer above).

Layering: ``repro.kernels`` imports only :mod:`repro.geometry` (and
numpy/scipy); :mod:`repro.graph`, :mod:`repro.antenna` and everything
above import the kernels, never the other way around.
"""

from repro.kernels.backend import (
    KNOWN_BACKENDS,
    BackendUnavailable,
    active_backend,
    resolve_backend,
    use_backend,
    use_sparse,
)
from repro.kernels.batch import (
    BatchedInstances,
    PackedPolarTables,
    pack_instances,
    packed_coverage,
    packed_critical,
    packed_polar_tables,
    packed_strongly_connected,
)
from repro.kernels.connectivity import (
    reverse_csr,
    scc_count_csr,
    strongly_connected_csr,
    strongly_connected_edges,
)
from repro.kernels.coverage import batched_coverage
from repro.kernels.critical import critical_range_search
from repro.kernels.geometry import PolarTables, polar_tables
from repro.kernels.instrument import (
    KernelCounters,
    kernel_counters,
    recording,
    reset_kernel_counters,
)
from repro.kernels.sparse import (
    SparsePolarTables,
    bbox_diameter_bound,
    complete_cutoff,
    covered_edge_arrays,
    default_instance_cutoff,
    required_cutoff,
    sparse_covered_edges,
    sparse_metrics,
    sparse_polar_tables,
    strongly_connected_sparse,
)

__all__ = [
    "KNOWN_BACKENDS",
    "BackendUnavailable",
    "BatchedInstances",
    "KernelCounters",
    "PackedPolarTables",
    "PolarTables",
    "SparsePolarTables",
    "active_backend",
    "batched_coverage",
    "bbox_diameter_bound",
    "complete_cutoff",
    "covered_edge_arrays",
    "critical_range_search",
    "default_instance_cutoff",
    "kernel_counters",
    "pack_instances",
    "packed_coverage",
    "packed_critical",
    "packed_polar_tables",
    "packed_strongly_connected",
    "polar_tables",
    "recording",
    "required_cutoff",
    "reset_kernel_counters",
    "resolve_backend",
    "sparse_covered_edges",
    "sparse_metrics",
    "sparse_polar_tables",
    "strongly_connected_csr",
    "strongly_connected_edges",
    "strongly_connected_sparse",
    "reverse_csr",
    "scc_count_csr",
    "use_backend",
    "use_sparse",
]
