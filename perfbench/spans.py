"""Per-layer spans and counters, recorded from outside the library.

`install()` replaces every function and method defined in a qmdl layer module
with a wrapper that opens a span for the call. The wrapper is put in place in
every qmdl namespace that holds the original, so names imported into consumer
modules (`projlat.op_norm`, `xplab.word_distribution`, the runner table in
`cli`) are traced where they are called. Nothing under `src/` changes.

A layer's self time is the time of its outermost spans minus the part covered
by child spans of other layers. Spans stay in memory as running sums; the
worker reads and resets them once per batch.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter

# module -> layer; serial (JSON in and out) is reported with the CLI
LAYERS = {
    "qmdl.typeclasses": "typeclasses",
    "qmdl.qsource": "qsource",
    "qmdl.estim": "estim",
    "qmdl.xplab": "xplab",
    "qmdl.infodist": "infodist",
    "qmdl.projlat": "projlat",
    "qmdl.opcore": "opcore",
    "qmdl.cli": "cli",
    "qmdl.serial": "cli",
}

# per-layer metric names in the order the benchmark reports them
COUNT_METRICS = (
    "typeclasses.classes",
    "qsource.calls",
    "qsource.word_prob.calls",
    "estim.calls",
    "estim.member_scores",
    "xplab.calls",
    "infodist.calls",
    "projlat.calls",
    "projlat.systems_built",
    "opcore.calls",
    "opcore.op_norm.calls",
    "opcore.eigh.calls",
    "cli.calls",
)
SELF_LAYERS = ("typeclasses", "qsource", "estim", "xplab", "infodist", "projlat", "opcore", "cli")


class Tracer:
    """Span stack plus running per-layer sums for the current batch."""

    def __init__(self):
        self.stack: list[list] = []  # [layer, start, time covered by other-layer children]
        self.reset()

    def reset(self) -> None:
        self.self_s = {layer: 0.0 for layer in SELF_LAYERS}
        self.counts = Counter({name: 0 for name in COUNT_METRICS})
        self.max_dense_dim = 0

    def enter(self, layer: str) -> None:
        self.counts[layer + ".calls"] += 1
        self.stack.append([layer, time.perf_counter(), 0.0])

    def leave(self) -> None:
        end = time.perf_counter()
        layer, start, covered = self.stack.pop()
        elapsed = end - start
        if self.stack and self.stack[-1][0] == layer:
            # the enclosing span of the same layer covers this one
            self.stack[-1][2] += covered
            return
        if self.stack:
            self.stack[-1][2] += elapsed
        self.self_s[layer] += elapsed - covered

    def snapshot(self) -> dict:
        out = {name: float(self.counts[name]) for name in COUNT_METRICS}
        out.update({f"{layer}.self_s": self.self_s[layer] for layer in SELF_LAYERS})
        out["opcore.max_dense_dim"] = float(self.max_dense_dim)
        return out


def _count_hook(tracer: Tracer, module: str, qualname: str):
    """Extra counters taken from a call's arguments; None when there are none."""
    name = qualname.rsplit(".", 1)[-1]
    if module == "qmdl.estim" and name == "_two_part_scores":
        return lambda args, kwargs, result: tracer.counts.update({"estim.member_scores": len(args[0])})
    if module == "qmdl.estim" and name == "mle":
        return lambda args, kwargs, result: tracer.counts.update({"estim.member_scores": len(args[0].states)})
    if module == "qmdl.qsource" and name == "word_prob":
        return lambda args, kwargs, result: tracer.counts.update({"qsource.word_prob.calls": 1})
    if module == "qmdl.projlat" and qualname == "ProjSystem.__init__":
        return lambda args, kwargs, result: tracer.counts.update({"projlat.systems_built": 1})
    if module == "qmdl.opcore" and name in ("op_norm", "eigh"):
        key = f"opcore.{name}.calls"
        return lambda args, kwargs, result: tracer.counts.update({key: 1})
    if module == "qmdl.opcore" and name == "check_cap":
        def cap(args, kwargs, result):
            tracer.max_dense_dim = max(tracer.max_dense_dim, int(args[0]))
        return cap
    if module == "qmdl.opcore" and name == "as_operator":
        def shape(args, kwargs, result):
            tracer.max_dense_dim = max(tracer.max_dense_dim, int(result.shape[0]))
        return shape
    return None


def _wrap_function(tracer: Tracer, fn, layer: str, module: str, qualname: str):
    hook = _count_hook(tracer, module, qualname)

    def traced(*args, **kwargs):
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave()
        if hook is not None:
            hook(args, kwargs, result)
        return result

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    traced.__qualname__ = fn.__qualname__
    return traced


def _wrap_generator(tracer: Tracer, fn, layer: str):
    """Each step of the generator is a span; yields of the outermost count as classes."""

    def traced(*args, **kwargs):
        outermost = not (tracer.stack and tracer.stack[-1][0] == layer)
        tracer.enter(layer)
        try:
            gen = fn(*args, **kwargs)
        finally:
            tracer.leave()
        while True:
            tracer.stack.append([layer, time.perf_counter(), 0.0])
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                tracer.leave()
            if outermost:
                tracer.counts["typeclasses.classes"] += 1
            yield item

    traced.__wrapped__ = fn
    traced.__name__ = fn.__name__
    return traced


def install() -> Tracer:
    """Wrap every qmdl layer function and method; returns the live tracer."""
    tracer = Tracer()
    modules = {name: importlib.import_module(name) for name in LAYERS}
    package = importlib.import_module("qmdl")
    replaced: dict[int, object] = {}  # id(original function) -> wrapper

    for mod_name, mod in modules.items():
        layer = LAYERS[mod_name]
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod_name:
                if inspect.isgeneratorfunction(obj):
                    wrapper = _wrap_generator(tracer, obj, layer)
                else:
                    wrapper = _wrap_function(tracer, obj, layer, mod_name, obj.__qualname__)
                replaced[id(obj)] = wrapper
            elif inspect.isclass(obj) and obj.__module__ == mod_name:
                _wrap_class(tracer, obj, layer, mod_name)

    # swap originals for wrappers wherever qmdl code looks them up
    for mod in list(modules.values()) + [package] + [
        importlib.import_module(n) for n in ("qmdl.models", "qmdl.config")
    ]:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in replaced:
                setattr(mod, attr, replaced[id(obj)])
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    if isinstance(value, tuple) and any(id(v) in replaced for v in value):
                        obj[key] = tuple(replaced.get(id(v), v) for v in value)
    return tracer


def _wrap_class(tracer: Tracer, cls, layer: str, mod_name: str) -> None:
    for attr, member in list(vars(cls).items()):
        if attr.startswith("__") and attr != "__init__":
            continue
        qualname = f"{cls.__name__}.{attr}"
        if inspect.isfunction(member):
            setattr(cls, attr, _wrap_function(tracer, member, layer, mod_name, qualname))
        elif isinstance(member, classmethod):
            inner = _wrap_function(tracer, member.__func__, layer, mod_name, qualname)
            setattr(cls, attr, classmethod(inner))
        elif isinstance(member, staticmethod):
            inner = _wrap_function(tracer, member.__func__, layer, mod_name, qualname)
            setattr(cls, attr, staticmethod(inner))
