"""Span tracer installed from outside the package.

Each public function of the traced modules is replaced, as a module
attribute, by a wrapper that records one span: name, start, end, parent span
and the result it belongs to.  Calls inside a module resolve their callees
through the module's globals, which are the module attributes, so internal
calls are traced too.  Spans live in flat arrays while the run lasts and are
written once, when it ends.  `Batch` and `Network` constructions are counted,
not spanned, by wrapping the classes' `__post_init__`.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("cli", "pipeline", "nnet", "fisher", "matching", "tasks", "theorem")

# theorem.gradient runs once per noisy-SGD step; a wrapper there would change
# the loop it is meant to measure.
UNWRAPPED = {"theorem.gradient"}

COUNTED_CLASSES = {
    "nnet.batch_objects": ("nnet", "Batch"),
    "nnet.network_objects": ("nnet", "Network"),
}


def public_functions(module) -> list[str]:
    """Names of the functions a module defines itself and does not mark private."""
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    )


class Tracer:
    """Records spans and counters for the calls made while it is installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.result = array("i")
        self.result_id = -1
        self.counters: dict[tuple[str, int], float] = {}
        self.eps_records: list[tuple[int, bool, int]] = []
        self.grad_bytes: list[tuple[int, int]] = []
        self.sgd_steps: list[tuple[int, int]] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, modules: dict[str, object]) -> None:
        for layer in LAYERS:
            mod = modules[layer]
            for name in public_functions(mod):
                qual = f"{layer}.{name}"
                if qual not in UNWRAPPED:
                    self._patch(mod, name, self._wrap(qual, getattr(mod, name)))
        for counter, (layer, cls_name) in COUNTED_CLASSES.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, "__post_init__", self._count(counter, cls.__post_init__))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, replacement) -> None:
        self._restore.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    def _wrap(self, qual: str, fn):
        nid = self.name_ids.setdefault(qual, len(self.names))
        if nid == len(self.names):
            self.names.append(qual)
        observe = {
            "pipeline.build_eps_approx": self._observe_eps,
            "fisher.empirical_fisher_diag": self._observe_fisher,
            "theorem.noisy_sgd": self._observe_sgd,
        }.get(qual)
        name_id, start, end, parent, result, stack = (
            self.name_id, self.start, self.end, self.parent, self.result, self._stack
        )
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            result.append(tracer.result_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return wrapper

    def _count(self, counter: str, fn):
        counters = self.counters
        tracer = self

        def post_init(obj):
            key = (counter, tracer.result_id)
            counters[key] = counters.get(key, 0) + 1
            return fn(obj)

        return post_init

    # -- observers: read what a call was given or returned -------------------

    def _observe_eps(self, args, kwargs, out) -> None:
        record = out[1]
        self.eps_records.append(
            (self.result_id, bool(record.reached_target), int(record.epochs_used))
        )

    def _observe_fisher(self, args, kwargs, out) -> None:
        # Computed, not measured: the (n, P) float64 per-sample gradient stack
        # that empirical_fisher_diag builds before squaring it.
        net, data = args[0], args[1]
        self.grad_bytes.append((self.result_id, int(data.n) * int(net.param_count) * 8))

    def _observe_sgd(self, args, kwargs, out) -> None:
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        self.sgd_steps.append((self.result_id, int(cfg.total_steps)))

    # -- reading the spans back --------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": start.copy(),
            "end": end.copy(),
            "parent": parent,
            "result": np.frombuffer(self.result, dtype=np.int32).copy(),
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path: str) -> None:
        a = self.arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=a["name_id"],
            start=a["start"],
            end=a["end"],
            parent=a["parent"],
            result=a["result"],
        )
