"""Spans at the boundaries between the package's layers.

The traced run replaces each public function of one layer, as another
layer's module binds it (``simulate.std_normal_quantile``,
``power_engine.erfc``, ``cli.pe.ratio_report``), with a wrapper that
records a span: name, parent span, operation, start and end in ns, and
the number of values passed. The benchmark opens one span per operation
around its own call into the package. Spans stay in memory and are
written once, when the run ends; the checking process derives the layer
metrics from them.
"""

from __future__ import annotations

import inspect
import time
import types
from array import array

import numpy as np

__all__ = ["Tracer"]

# public functions a layer calls in its own module, not through a binding
_OWN_FUNCTIONS = {"simulate": ("student_t_critical",), "cli": ("build_parser",)}


class Tracer:
    def __init__(self, modules: dict):
        """``modules`` maps layer name -> module, e.g. {"simulate": ...}."""
        self._modules = modules
        self._layer_of = {m.__name__: layer for layer, m in modules.items()}
        self.names: list = []
        self.layers: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("q")
        self.end = array("q")
        self.size = array("q")
        self.ndim = array("b")
        self._stack = [-1]
        self._op = -1

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _open(self, name_id: int, arg) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op)
        self.size.append(int(np.size(arg)))
        self.ndim.append(int(np.ndim(arg)))
        self._stack.append(idx)
        self.end.append(0)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, layer: str, fn):
        """``fn`` with a span named ``name`` around every call."""
        name_id = self._name_id(name, layer)

        def traced(*args, **kwargs):
            idx = self._open(name_id, args[0] if args else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def operation(self, index: int, name: str, layer: str, fn, *args):
        """Call ``fn(*args)`` as operation ``index``, inside its own span."""
        self._op = index
        idx = self._open(self._name_id(name, layer), 0.0)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self._op = -1

    def install(self) -> None:
        """Wrap every layer function that another layer's module binds."""
        for caller, module in self._modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.ModuleType) and value.__name__ in self._layer_of:
                    setattr(module, attr, self._proxy(f"{caller}.{attr}", value))
                elif self._is_foreign(value, module):
                    layer = self._layer_of[value.__module__]
                    setattr(module, attr, self.wrap(f"{caller}.{attr}", layer, value))
            for attr in _OWN_FUNCTIONS.get(caller, ()):
                setattr(module, attr, self.wrap(f"{caller}.{attr}", caller,
                                                getattr(module, attr)))

    def _is_foreign(self, value, module) -> bool:
        return (inspect.isfunction(value) and value.__module__ in self._layer_of
                and value.__module__ != module.__name__)

    def _proxy(self, prefix: str, module):
        """A stand-in for a layer module bound by name (``cli.pe``)."""
        layer = self._layer_of[module.__name__]
        proxy = types.SimpleNamespace(**vars(module))
        for attr, value in vars(module).items():
            if not attr.startswith("_") and inspect.isfunction(value) \
                    and value.__module__ == module.__name__:
                setattr(proxy, attr, self.wrap(f"{prefix}.{attr}", layer, value))
        return proxy

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), layers=np.array(self.layers),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            op=np.frombuffer(self.op, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
            size=np.frombuffer(self.size, dtype=np.int64),
            ndim=np.frombuffer(self.ndim, dtype=np.int8),
        )
