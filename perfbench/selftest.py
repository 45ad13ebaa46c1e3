"""Self-tests of the benchmark's own machinery: ``python3 perfbench/selftest.py``.

Covers the span arithmetic (self time over nested spans), the percentile
rule, digest stability under float formatting, wrapper install /
uninstall across every kind of binding the tracer rewrites, and the
frontier staircase certificates.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import types
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from measure import canonical, digest, median, quantile, tail_percentile  # noqa: E402
from tracer import Span, Tracer, layer_times, references  # noqa: E402


def _span(id, parent, layer, t0, t1):
    return Span(id, parent, layer, f"{layer}.fn", 1, t0, t1)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # engine [0, 10] > core [1, 6] > btsp [2, 5]; engine > kernels [7, 9]
        spans = [
            _span(0, None, "engine", 0.0, 10.0),
            _span(1, 0, "core", 1.0, 6.0),
            _span(2, 1, "btsp", 2.0, 5.0),
            _span(3, 0, "kernels", 7.0, 9.0),
        ]
        t = layer_times(spans)
        self.assertAlmostEqual(t["engine"]["self"], 10 - 5 - 2)
        self.assertAlmostEqual(t["core"]["self"], 5 - 3)
        self.assertAlmostEqual(t["btsp"]["self"], 3)
        self.assertAlmostEqual(t["kernels"]["busy"], 2)
        total_self = sum(row["self"] for row in t.values())
        self.assertAlmostEqual(total_self, 10.0)  # each instant charged once

    def test_same_layer_nesting_counts_busy_once(self):
        spans = [
            _span(0, None, "core", 0.0, 4.0),
            _span(1, 0, "core", 1.0, 3.0),
        ]
        t = layer_times(spans)
        self.assertAlmostEqual(t["core"]["busy"], 4.0)
        self.assertEqual(t["core"]["calls"], 1)
        self.assertEqual(t["core"]["spans"], 2)
        self.assertAlmostEqual(t["core"]["self"], 4.0)

    def test_overlapping_children_are_a_union(self):
        # two threads' children can overlap in wall time under one parent
        spans = [
            _span(0, None, "service", 0.0, 10.0),
            _span(1, 0, "store", 1.0, 5.0),
            _span(2, 0, "store", 3.0, 7.0),
            _span(3, 0, "store", 9.0, 12.0),  # clipped to the parent
        ]
        t = layer_times(spans)
        self.assertAlmostEqual(t["service"]["self"], 10 - 6 - 1)


class PercentileTest(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(tail_percentile(range(19)))
        self.assertEqual(tail_percentile(range(20)), 50.0)
        self.assertEqual(tail_percentile(range(99)), 50.0)
        self.assertEqual(tail_percentile(range(100)), 90.0)
        self.assertEqual(tail_percentile(range(999)), 90.0)
        self.assertEqual(tail_percentile(range(1000)), 99.0)
        self.assertEqual(tail_percentile(range(10000)), 99.9)

    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(quantile(values, 90), 90)
        self.assertEqual(quantile(values, 50), 50)
        self.assertEqual(median([3, 1, 2, 4]), 2.5)


class DigestTest(unittest.TestCase):
    ROWS = [{"k": 1, "phi": 3.141592653589793, "bound": 2.0, "ok": True,
             "critical": float("inf"), "q": float("nan")}]

    def test_float_formatting_does_not_matter(self):
        printed = [{"k": 1, "phi": float("3.1415926535897931"), "bound": 2,
                    "ok": True, "critical": float("inf"), "q": float("nan")}]
        self.assertEqual(digest(self.ROWS), digest(printed))
        nudged = [dict(self.ROWS[0], phi=3.141592653589793 + 4e-16)]
        self.assertEqual(digest(self.ROWS), digest(nudged))
        self.assertEqual(canonical(-0.0), canonical(0.0))
        self.assertEqual(digest([{"a": 1, "b": 2}]), digest([{"b": 2, "a": 1}]))

    def test_real_changes_do_matter(self):
        changed = [dict(self.ROWS[0], phi=3.1416)]
        self.assertNotEqual(digest(self.ROWS), digest(changed))
        flipped = [dict(self.ROWS[0], ok=False)]
        self.assertNotEqual(digest(self.ROWS), digest(flipped))


@dataclasses.dataclass(frozen=True)
class _Entry:
    execute: object


def _fake_program():
    """``fakeprog.a`` defines ``probe``; the other modules bind it the ways
    the real program does."""
    a = types.ModuleType("fakeprog.a")
    exec(
        "def probe(x):\n    return x + 1\n"
        "class Engine:\n"
        "    def step(self, x):\n        return probe(x) * 2\n",
        a.__dict__,
    )
    b = types.ModuleType("fakeprog.b")
    b.probe = a.probe  # from fakeprog.a import probe
    exec(
        "def search(x, probe=probe):\n    return probe(x)\n"
        "def make():\n    p = probe\n"
        "    def inner(x):\n        return p(x)\n    return inner\n"
        "inner = make()\n",
        b.__dict__,
    )
    _Entry.__module__ = b.__name__  # a registry entry class of the program
    b.REGISTRY = {"plain": a.probe, "entry": _Entry(a.probe)}
    for mod in (a, b):
        for value in vars(mod).values():
            if isinstance(value, (types.FunctionType, type)):
                value.__module__ = mod.__name__
    pkg = types.ModuleType("fakeprog")
    return {"fakeprog": pkg, "fakeprog.a": a, "fakeprog.b": b}


class WrapperTest(unittest.TestCase):
    def setUp(self):
        self.modules = _fake_program()
        sys.modules.update(self.modules)

    def tearDown(self):
        for name in self.modules:
            sys.modules.pop(name, None)

    def test_install_reaches_every_binding_and_uninstall_restores(self):
        a, b = self.modules["fakeprog.a"], self.modules["fakeprog.b"]
        original = a.probe
        tracer = Tracer(prefix="fakeprog")
        bindings = tracer.install(a, "probe", "kernels")
        # a.probe, b.probe, search default, inner closure, 2 registry slots
        self.assertEqual(bindings, 6)
        self.assertEqual(b.search(1), 2)
        self.assertEqual(b.inner(1), 2)
        self.assertEqual(a.Engine().step(1), 4)
        self.assertEqual(b.REGISTRY["plain"](1), 2)
        self.assertEqual(b.REGISTRY["entry"].execute(1), 2)
        self.assertEqual(len(tracer.spans), 5)

        method_bindings = tracer.install(a.Engine, "step", "engine")
        self.assertEqual(method_bindings, 1)
        a.Engine().step(1)
        outer, inner = tracer.spans[-1], tracer.spans[-2]
        self.assertEqual((outer.layer, inner.layer), ("engine", "kernels"))
        self.assertEqual(inner.parent, outer.id)

        wrappers = [e.wrapper for e in tracer._installed]
        original_step = tracer._installed[1].original
        tracer.uninstall()
        self.assertIs(a.probe, original)
        self.assertIs(b.probe, original)
        self.assertIs(b.search.__defaults__[0], original)
        self.assertIs(b.REGISTRY["plain"], original)
        self.assertIs(b.REGISTRY["entry"].execute, original)
        self.assertIs(vars(a.Engine)["step"], original_step)
        for wrapper in wrappers:
            self.assertEqual(references(wrapper, "fakeprog"), 0)
        self.assertEqual(references(original, "fakeprog"), 6)

    def test_missing_binding_fails_loudly(self):
        tracer = Tracer(prefix="nothing-loaded")
        with self.assertRaises(RuntimeError):
            tracer.install(self.modules["fakeprog.a"], "probe", "kernels")


def _staircase(tol):
    """A staircase of a step from 1 to 2 at φ = 1, bisected to ``tol`` the
    way the program maps one, and the table row that counts it."""
    lo, hi = run.FRONTIER_RANGE
    value = lambda phi: 1.0 if phi < 1.0 else 2.0  # noqa: E731
    probes = [[lo, 1.0, "alg", False], [hi, 2.0, "alg", False]]
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        probes.append([mid, value(mid), "alg", False])
        a, b = (mid, b) if value(mid) == 1.0 else (a, mid)
    frontier = {
        "k": 1, "status": "mapped", "phi_star": None, "value_lo": 1.0,
        "value_hi": 2.0, "probes": probes, "scenario": 0, "instance": 0,
        "steps": [{"phi_lo": lo, "phi_hi": a, "value": 1.0},
                  {"phi_lo": b, "phi_hi": hi, "value": 2.0}],
    }
    row = {"k": 1, "runs": 1, "levels_mean": 2.0, "probes": len(probes),
           "evaluated": len(probes), "reused": 0}
    return row, frontier


class StaircaseCertificateTest(unittest.TestCase):
    def test_well_formed_staircase_passes(self):
        row, frontier = _staircase(run.FRONTIER_TOL)
        self.assertEqual(run._frontier_certs([row], [frontier]), [])

    def test_wrong_plateau_value_fails(self):
        row, frontier = _staircase(run.FRONTIER_TOL)
        frontier["steps"][1]["value"] = 2.5
        self.assertEqual(len(run._frontier_certs([row], [frontier])), 1)

    def test_transition_wider_than_tol_fails(self):
        row, frontier = _staircase(4 * run.FRONTIER_TOL)
        self.assertEqual(len(run._frontier_certs([row], [frontier])), 1)

    def test_row_counts_must_match_the_staircases(self):
        row, frontier = _staircase(run.FRONTIER_TOL)
        frontier["probes"][2][3] = True  # one probe reused, row says none
        self.assertEqual(len(run._frontier_certs([row], [frontier])), 1)


if __name__ == "__main__":
    unittest.main()
