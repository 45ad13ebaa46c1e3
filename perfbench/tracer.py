"""Spans around calls into the program's layers, installed from outside.

A :class:`Tracer` wraps public functions of the program (``best_tour``,
``euclidean_mst``, the kernel entry points, ``JobManager.submit``, ...)
and records one span per call: layer, name, thread, start, end and the
span that caused it.  Nothing under ``src/`` is edited: each wrapper is
written into every binding a caller can resolve — module globals (``from
x import f`` copies the function object into the importing module), class
attributes, default arguments, closure cells and registry entries — and
:meth:`Tracer.uninstall` writes the original objects back.

Span arithmetic lives in :func:`layer_times`: a layer's *busy* time is
the wall time covered by its outermost spans (nested calls of the same
layer count once), its *self* time is span time minus the part covered by
child spans of any layer.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
import types
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "Span",
    "Tracer",
    "layer_times",
    "replace_everywhere",
    "references",
]


# -- finding and rewriting bindings ------------------------------------------------


def _program_modules(prefix: str):
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == prefix or name.startswith(prefix + ".")):
            yield name, mod


def _own(obj: Any, prefix: str) -> bool:
    module = getattr(obj, "__module__", None) or ""
    return module == prefix or module.startswith(prefix + ".")


def _rewrite_function(fn: types.FunctionType, old: Any, new: Any) -> int:
    """Replace ``old`` in ``fn``'s default arguments and closure cells."""
    count = 0
    if fn.__defaults__ and any(d is old for d in fn.__defaults__):
        fn.__defaults__ = tuple(new if d is old else d for d in fn.__defaults__)
        count += 1
    if fn.__kwdefaults__:
        for key, value in list(fn.__kwdefaults__.items()):
            if value is old:
                fn.__kwdefaults__[key] = new
                count += 1
    for cell in fn.__closure__ or ():
        try:
            if cell.cell_contents is old:
                cell.cell_contents = new
                count += 1
        except ValueError:  # empty cell
            pass
    return count


def _rewrite_mapping(mapping: dict, old: Any, new: Any, prefix: str) -> int:
    """Replace ``old`` among a registry's values and their attributes."""
    count = 0
    for key, value in list(mapping.items()):
        if value is old:
            mapping[key] = new
            count += 1
        elif _own(type(value), prefix) and hasattr(value, "__dict__"):
            for attr, inner in list(vars(value).items()):
                if inner is old:
                    # frozen dataclasses refuse setattr; the entry is ours
                    # to restore, so bypass it the way dataclasses do.
                    object.__setattr__(value, attr, new)
                    count += 1
    return count


def _rewrite_class(cls: type, old: Any, new: Any) -> int:
    count = 0
    for attr, value in list(vars(cls).items()):
        if value is old:
            setattr(cls, attr, new)
            count += 1
        elif isinstance(value, types.FunctionType):
            count += _rewrite_function(value, old, new)
    return count


def replace_everywhere(old: Any, new: Any, prefix: str) -> int:
    """Rebind every reference to ``old`` inside the program to ``new``.

    Scans each loaded module under ``prefix``: its globals, the classes
    and functions it defines (attributes, defaults, closures) and its
    module-level registries.  Returns how many bindings were rewritten.
    """
    count = 0
    for name, mod in _program_modules(prefix):
        namespace = vars(mod)
        for key, value in list(namespace.items()):
            if value is old:
                namespace[key] = new
                count += 1
            elif isinstance(value, type) and value.__module__ == name:
                count += _rewrite_class(value, old, new)
            elif isinstance(value, types.FunctionType) and _own(value, prefix):
                count += _rewrite_function(value, old, new)
            elif isinstance(value, dict):
                count += _rewrite_mapping(value, old, new, prefix)
    return count


def references(obj: Any, prefix: str) -> int:
    """How many bindings inside the program hold ``obj`` (rewrite to self)."""
    return replace_everywhere(obj, obj, prefix)


# -- spans ---------------------------------------------------------------------------


@dataclass
class Span:
    """One traced call: wall clock (``t0``, ``t1``) and process CPU (``c0``,
    ``c1``) at its ends; ``units`` is the work it did (e.g. probes)."""

    id: int
    parent: int | None
    layer: str
    name: str
    thread: int
    t0: float
    t1: float
    c0: float = 0.0
    c1: float = 0.0
    units: float = 1.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


@dataclass
class _Installed:
    owner: Any
    attr: str
    original: Any
    wrapper: Any


class Tracer:
    """Records spans from wrappers it installs into the program.

    ``install(owner, attr, layer)`` wraps ``getattr(owner, attr)`` — a
    module-level function or a method on a class — and rebinds the
    wrapper everywhere the original is referenced.  ``units(args, kwargs,
    result)`` and ``info(args, kwargs, result)`` optionally attach a work
    count and facts to each span.
    """

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._installed: list[_Installed] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, original: Callable, layer: str, name: str, *,
             units: Callable | None = None,
             info: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            c0, t0 = time.process_time(), time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                t1, c1 = time.perf_counter(), time.process_time()
                stack.pop()
                span = Span(span_id, parent, layer, name,
                            threading.get_ident(), t0, t1, c0, c1)
                if units is not None:
                    span.units = float(units(args, kwargs, result))
                if info is not None:
                    span.info = info(args, kwargs, result)
                tracer.spans.append(span)

        return traced

    def install(self, owner: Any, attr: str, layer: str, **hooks) -> int:
        """Wrap ``owner.attr`` at every binding; returns the binding count."""
        original = vars(owner)[attr]
        label = f"{getattr(owner, '__name__', owner)}.{attr}"
        wrapper = self.wrap(original, layer, label, **hooks)
        count = replace_everywhere(original, wrapper, self.prefix)
        if count == 0:
            raise RuntimeError(f"no binding of {label} found to trace")
        self._installed.append(_Installed(owner, attr, original, wrapper))
        return count

    def uninstall(self) -> None:
        """Restore every original object; raise if any wrapper survives."""
        for entry in reversed(self._installed):
            replace_everywhere(entry.wrapper, entry.original, self.prefix)
        leftovers = [
            f"{getattr(e.owner, '__name__', e.owner)}.{e.attr}"
            for e in self._installed
            if references(e.wrapper, self.prefix)
            or vars(e.owner)[e.attr] is not e.original
        ]
        self._installed.clear()
        if leftovers:
            raise RuntimeError(f"wrappers not removed: {', '.join(leftovers)}")


# -- span arithmetic ---------------------------------------------------------------


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_times(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per-layer ``busy``, ``self``, ``calls`` (outermost spans), ``spans``
    and ``units`` from a flat span list.

    ``busy``: summed duration of spans with no ancestor of the same layer.
    ``self``: summed span duration minus the union of its children's
    intervals — each instant is charged to the innermost span covering it.
    """
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        row = out.setdefault(
            s.layer, {"busy": 0.0, "self": 0.0, "calls": 0, "spans": 0, "units": 0.0}
        )
        kids = [(c.t0, c.t1) for c in children.get(s.id, ())]
        row["self"] += s.duration - _covered(kids, s.t0, s.t1)
        row["spans"] += 1
        row["units"] += s.units
        ancestor, nested = s.parent, False
        while ancestor is not None:
            up = by_id.get(ancestor)
            if up is None:
                break
            if up.layer == s.layer:
                nested = True
                break
            ancestor = up.parent
        if not nested:
            row["busy"] += s.duration
            row["calls"] += 1
    return out
