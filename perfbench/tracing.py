"""In-memory spans around the public calls into each toriceig layer.

The wrappers are installed from outside the package:

* a function is wrapped under every name a toriceig module binds it to, so
  `spectral.build_quadrature` and `cli.lambda1_invariant` (bound by
  `from ... import`) are traced as well as the defining module's name;
* a method is wrapped on each class that defines it;
* a name that no longer exists marks its layer absent instead of failing.

Each span records a name, start, end and parent.  Spans opened in a worker
thread with no open span of their own take the main thread's innermost open
span as parent, because the benchmark drives one operation at a time.
"""

from __future__ import annotations

import importlib
import json
import math
import sys
import threading
import time
from dataclasses import dataclass, field

# (module, function, span name)
FUNCTIONS = (
    ("quadrature", "build_quadrature", "quadrature.build"),
    ("spectral", "lambda1_invariant", "spectral.lambda1"),
    ("spectral", "sweep_uc", "spectral.sweep"),
    ("spectral", "sweep_dilation", "spectral.sweep"),
    ("parallel", "pmap_chunks", "parallel.pmap"),
    ("projective", "balance", "projective.balance"),
    ("projective", "saturation_check", "projective.saturation"),
    ("projective", "bound_report", "projective.bound_report"),
    ("geometry", "ke_check", "geometry.ke_check"),
    ("geometry", "laplacian_invariant", "geometry.laplacian"),
)

# (module, root class, method, span name); subclasses that override the
# method are wrapped too.
METHODS = (
    ("potential", "SymplecticPotential", "sample", "potential.sample"),
    ("potential", "SymplecticPotential", "hessian_derivative", "potential.deriv"),
    ("potential", "SymplecticPotential", "hessian_second_derivative", "potential.deriv"),
    ("polytope", "LabelledPolytope", "lattice_points", "polytope.lattice_points"),
    ("polytope", "LabelledPolytope", "k0", "polytope.k0"),
)

# per-layer metric -> (unit, "higher" | "lower")
PER_LAYER = {
    "import.toriceig_s": ("s", "lower"),
    "import.scipy_special_s": ("s", "lower"),
    "import.scipy_linalg_s": ("s", "lower"),
    "cli.main_s": ("s", "lower"),
    "quadrature.build_s": ("s", "lower"),
    "quadrature.calls": ("count", "lower"),
    "quadrature.nodes": ("count", "lower"),
    "potential.sample_calls": ("count", "lower"),
    "potential.sample_s": ("s", "lower"),
    "potential.deriv_calls": ("count", "lower"),
    "potential.deriv_s": ("s", "lower"),
    "spectral.lambda1_calls": ("count", "lower"),
    "spectral.lambda1_self_s": ("s", "lower"),
    "spectral.basis_kept": ("count", "higher"),
    "spectral.sweep_s": ("s", "lower"),
    "polytope.lattice_points_calls": ("count", "lower"),
    "polytope.lattice_points_s": ("s", "lower"),
    "polytope.k0_calls": ("count", "lower"),
    "polytope.candidates": ("count.computed", "lower"),
    "polytope.hit_ratio": ("ratio", "higher"),
    "parallel.pmap_calls": ("count", "lower"),
    "parallel.pmap_s": ("s", "lower"),
    "parallel.workers": ("count", "lower"),
    "projective.balance_s": ("s", "lower"),
    "projective.balance_iters": ("count", "lower"),
    "projective.saturation_s": ("s", "lower"),
    "projective.bound_report_s": ("s", "lower"),
    "geometry.ke_check_s": ("s", "lower"),
    "geometry.laplacian_calls": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name, start, parent, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.thread = thread


@dataclass
class Tracer:
    """Records spans and counters while installed; `uninstall` restores
    every original binding."""

    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)
    absent: list = field(default_factory=list)
    _undo: list = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _main_stack: list = field(default_factory=list)

    # -- recording -------------------------------------------------------

    def _stack(self) -> list:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is not self._main_stack and self._main_stack:
            return self._main_stack[-1]
        return None

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, fn, span_name, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = tracer._parent(stack)
            if parent is not None and parent.name == span_name:
                return fn(*args, **kwargs)  # re-entrant call: one span
            span = Span(span_name, 0.0, parent, threading.get_ident())
            stack.append(span)
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", span_name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    # -- installation ----------------------------------------------------

    def install(self) -> "Tracer":
        importlib.import_module("toriceig")
        try:
            importlib.import_module("toriceig.cli")
        except ImportError:
            self.absent.append("cli")
        loaded = [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "toriceig" or name.startswith("toriceig."))
        ]
        for module_name, attr, span_name in FUNCTIONS:
            module = sys.modules.get(f"toriceig.{module_name}")
            fn = getattr(module, attr, None) if module is not None else None
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(fn, span_name, _ON_RESULT.get(attr))
            for mod in loaded:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, name, value))
                        setattr(mod, name, wrapper)
        for module_name, class_name, method, span_name in METHODS:
            module = sys.modules.get(f"toriceig.{module_name}")
            root = getattr(module, class_name, None) if module is not None else None
            owners = [cls for cls in _class_tree(root) if method in vars(cls)] if root else []
            if not owners:
                self.absent.append(f"{module_name}.{class_name}.{method}")
                continue
            for cls in owners:
                original = vars(cls)[method]
                self._undo.append((cls, method, original))
                setattr(cls, method, self._wrap(original, span_name, _ON_RESULT.get(method)))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset(self) -> None:
        self.spans = []
        self.counters = {}

    # -- output ----------------------------------------------------------

    def records(self) -> list:
        """Spans as [name, start, end, parent index or -1, thread id]."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        return [
            [s.name, s.start, s.end, index.get(id(s.parent), -1), s.thread]
            for s in self.spans
        ]

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.records(), "counters": self.counters, "absent": self.absent}, fh
            )


def _class_tree(root):
    seen, todo = [], [root]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _on_build(tracer, args, rule):
    tracer.count("quadrature.nodes", len(rule))


def _on_lambda1(tracer, args, result):
    tracer.count("spectral.basis_kept", result.basis_size)


def _on_balance(tracer, args, weights):
    tracer.count("projective.balance_iters", weights.iterations)


def _on_pmap(tracer, args, result):
    parallel = sys.modules.get("toriceig.parallel")
    if parallel is not None and hasattr(parallel, "worker_count"):
        workers = parallel.worker_count()
        tracer.counters["parallel.workers"] = max(tracer.counters.get("parallel.workers", 0), workers)


def _on_lattice(tracer, args, data):
    P, k = args[0], args[1]
    lo, hi = P.bounding_box()
    tracer.count(
        "polytope.candidates",
        math.prod(math.floor(k * h) - math.ceil(k * l) + 1 for l, h in zip(lo, hi)),
    )
    tracer.count("polytope.points", len(data.points))


_ON_RESULT = {
    "build_quadrature": _on_build,
    "lambda1_invariant": _on_lambda1,
    "balance": _on_balance,
    "pmap_chunks": _on_pmap,
    "lattice_points": _on_lattice,
}


# -- analysis ----------------------------------------------------------------


def load_records(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _union(intervals) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(records: list, counters: dict) -> dict:
    """Per-layer values of one pass from span records and counters.

    Times are the union of the intervals a layer's spans cover, so work
    spread over worker threads is not counted twice.  Self time is a span's
    duration minus the union of its child spans.
    """
    by_name: dict = {}
    children: dict = {}
    for i, (name, start, end, parent, _thread) in enumerate(records):
        by_name.setdefault(name, []).append((start, end))
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))

    def busy(name):
        return _union(by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    self_time = 0.0
    for i, (name, start, end, _parent, _thread) in enumerate(records):
        if name == "spectral.lambda1":
            inner = [(max(s, start), min(e, end)) for s, e in children.get(i, ()) if e > start and s < end]
            self_time += (end - start) - _union(inner)
    candidates = counters.get("polytope.candidates", 0)
    return {
        "quadrature.build_s": busy("quadrature.build"),
        "quadrature.calls": calls("quadrature.build"),
        "quadrature.nodes": counters.get("quadrature.nodes", 0),
        "potential.sample_calls": calls("potential.sample"),
        "potential.sample_s": busy("potential.sample"),
        "potential.deriv_calls": calls("potential.deriv"),
        "potential.deriv_s": busy("potential.deriv"),
        "spectral.lambda1_calls": calls("spectral.lambda1"),
        "spectral.lambda1_self_s": self_time,
        "spectral.basis_kept": counters.get("spectral.basis_kept", 0),
        "spectral.sweep_s": busy("spectral.sweep"),
        "polytope.lattice_points_calls": calls("polytope.lattice_points"),
        "polytope.lattice_points_s": busy("polytope.lattice_points"),
        "polytope.k0_calls": calls("polytope.k0"),
        "polytope.candidates": candidates,
        "polytope.hit_ratio": counters.get("polytope.points", 0) / candidates if candidates else 0.0,
        "parallel.pmap_calls": calls("parallel.pmap"),
        "parallel.pmap_s": busy("parallel.pmap"),
        "parallel.workers": counters.get("parallel.workers", 0),
        "projective.balance_s": busy("projective.balance"),
        "projective.balance_iters": counters.get("projective.balance_iters", 0),
        "projective.saturation_s": busy("projective.saturation"),
        "projective.bound_report_s": busy("projective.bound_report"),
        "geometry.ke_check_s": busy("geometry.ke_check"),
        "geometry.laplacian_calls": calls("geometry.laplacian"),
    }


def merge_counters(parts) -> dict:
    out: dict = {}
    for part in parts:
        for key, value in part.items():
            if key == "parallel.workers":
                out[key] = max(out.get(key, 0), value)
            else:
                out[key] = out.get(key, 0) + value
    return out
