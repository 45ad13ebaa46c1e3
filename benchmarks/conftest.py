"""Benchmark-suite configuration.

Every benchmark both times its driver (pytest-benchmark) and asserts the
paper-reproduction claims, so `pytest benchmarks/ --benchmark-only` is a
correctness gate as well as a performance report.  Run with ``-s`` to see
the reproduced tables.

``--backend <name>`` runs the backend-aware benchmarks (bench_kernels)
under that sparse-routing rule; an unknown name is an error.
"""

from __future__ import annotations

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--backend",
        action="store",
        default="numpy",
        help="sparse-routing rule for backend-aware benchmarks "
             "(numpy, sparse, auto)",
    )


@pytest.fixture(scope="session")
def kernel_backend(request):
    """The selected backend name, pinned for the using test's duration."""
    from repro.kernels import use_backend

    with use_backend(request.config.getoption("--backend")) as name:
        yield name


def run_once(benchmark, fn, **kwargs):
    """Run an experiment driver exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)
