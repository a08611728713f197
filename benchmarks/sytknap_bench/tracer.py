"""Outside-in tracing of sytknap's modules.

`Tracer.install` wraps every public function of each layer module (plus the
public methods of the classes those modules define, and the arithmetic
operators of the polynomial classes) and rebinds each wrapped name wherever
the package holds a reference to it: the defining module, every module that
imported the name, and module-level registries such as
`certificates.CERTIFICATES`.  The program itself is not edited.

While an op is active each call records a span (name, layer, start, end,
parent span, op id) in memory.  Generator functions get one span per
resumption, so time spent producing items is charged to their layer.  A
layer's self time is its spans' durations minus the time their direct child
spans cover; time inside an op that no span covers is unattributed.
"""

import dataclasses
import enum
import importlib
import inspect
from collections import defaultdict
from time import perf_counter

from . import LAYERS

# Operators whose bodies do real polynomial work; dataclass-generated
# dunders are left alone so that Term/Report bookkeeping is not traced.
_OPERATORS = (
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
    "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__eq__",
)

NO_PARENT = -1

# Every counter a traced round reports; ones a workload never moves read 0.
COUNTERS = tuple(f"{layer}.calls" for layer in LAYERS if layer != "polynomials") + (
    "partitions.yielded",
    "polynomials.mul_calls",
    "certificates.failed",
    "identities.reports",
    "identities.terms",
    "identities.failed",
    "search.subsets_enumerated",
    "search.pairs_emitted",
    "search.truncated_calls",
    "render.bytes",
)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, layer, start, end, parent index, op id)
        self.counters: dict = defaultdict(int)
        self._stack: list = []  # (span index, layer) of open spans
        self._op = None
        self._undo: list = []
        self._results: dict = {}  # layer -> the result type its counters read

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"sytknap.{layer}") for layer in LAYERS}
        self._results = {
            "identities": modules["identities"].Report,
            "certificates": modules["certificates"].CertificateReport,
            "search": modules["search"].SearchResult,
            "render": str,
        }
        replaced: dict[int, object] = {}  # id(original) -> wrapper
        for layer, module in modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    replaced[id(obj)] = self._wrap(layer, obj.__qualname__, obj)
                elif _traceable_class(obj, module):
                    self._wrap_class(layer, obj)
        package = importlib.import_module("sytknap")
        for module in [package, *modules.values()]:
            for name, obj in list(vars(module).items()):
                if id(obj) in replaced:
                    self._set(module, name, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if id(value) in replaced:
                            self._undo.append((obj.__setitem__, key, value))
                            obj[key] = replaced[id(value)]

    def uninstall(self) -> None:
        while self._undo:
            setter, name, original = self._undo.pop()
            setter(name, original)

    def _set(self, owner, name, value) -> None:
        self._undo.append((lambda n, v, o=owner: setattr(o, n, v), name, vars(owner)[name]))
        setattr(owner, name, value)

    def _wrap_class(self, layer: str, cls) -> None:
        plain = dataclasses.is_dataclass(cls)
        wrapped_here: dict[int, object] = {}
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and (plain or name not in _OPERATORS):
                continue
            if id(attr) in wrapped_here:  # e.g. __radd__ = __add__
                self._set(cls, name, wrapped_here[id(attr)])
                continue
            if inspect.isfunction(attr):
                new = self._wrap(layer, attr.__qualname__, attr)
            elif isinstance(attr, classmethod):
                new = classmethod(self._wrap(layer, attr.__func__.__qualname__, attr.__func__))
            else:
                continue
            wrapped_here[id(attr)] = new
            self._set(cls, name, new)

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        is_generator = inspect.isgeneratorfunction(fn)
        counter = f"{layer}.calls"
        extra = "polynomials.mul_calls" if name == "Poly.__mul__" else None

        def wrapper(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            tracer.counters[counter] += 1
            if extra:
                tracer.counters[extra] += 1
            if is_generator:
                return tracer._resumptions(layer, name, fn(*args, **kwargs))
            outer = not tracer._stack or tracer._stack[-1][1] != layer
            result = tracer._timed(layer, name, fn, args, kwargs)
            if outer:
                tracer._count_result(layer, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- recording ----------------------------------------------------------

    def _timed(self, layer, name, fn, args, kwargs):
        spans, stack = self.spans, self._stack
        index = len(spans)
        parent = stack[-1][0] if stack else NO_PARENT
        spans.append(None)
        stack.append((index, layer))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            spans[index] = (name, layer, start, end, parent, self._op)

    def _resumptions(self, layer, name, generator):
        counter = f"{layer}.yielded"
        while True:
            try:
                item = self._timed(layer, name, next, (generator,), {})
            except StopIteration:
                return
            self.counters[counter] += 1
            yield item

    def _count_result(self, layer: str, result) -> None:
        """Layer counters read off the value an outside caller received."""
        kind = self._results.get(layer)
        items = result if isinstance(result, (list, tuple)) else [result]
        items = [item for item in items if kind is not None and isinstance(item, kind)]
        if not items:
            return
        op, self._op = self._op, None  # reading results must not be traced
        try:
            c = self.counters
            for item in items:
                if layer == "identities":
                    c["identities.reports"] += 1
                    c["identities.terms"] += len(item.terms)
                    c["identities.failed"] += not item.passed
                elif layer == "certificates":
                    c["certificates.failed"] += not item.passed
                elif layer == "search":
                    c["search.subsets_enumerated"] += item.subsets_enumerated
                    c["search.pairs_emitted"] += len(item.pairs)
                    c["search.truncated_calls"] += item.truncated
                else:
                    c["render.bytes"] += len(item.encode())
        finally:
            self._op = op

    def start_op(self, op_id) -> None:
        self._op = op_id

    def stop_op(self) -> None:
        self._op = None

    def take(self):
        """Return and clear the spans and counters recorded so far."""
        spans, counters = self.spans, dict(self.counters)
        self.spans, self.counters = [], defaultdict(int)
        return spans, counters


def _traceable_class(obj, module) -> bool:
    return (
        inspect.isclass(obj)
        and obj.__module__ == module.__name__
        and not issubclass(obj, (enum.Enum, BaseException))
    )


def self_times(spans) -> tuple[dict, float]:
    """Per-layer self time, and the total duration of top-level spans.

    A span's self time is its duration minus its direct children's
    durations; in one thread children nest inside their parent, so the sum
    of self times equals the top-level total.
    """
    child = [0.0] * len(spans)
    top = 0.0
    for name, layer, start, end, parent, op in spans:
        if parent == NO_PARENT:
            top += end - start
        else:
            child[parent] += end - start
    per_layer = {layer: 0.0 for layer in LAYERS}
    for index, (name, layer, start, end, parent, op) in enumerate(spans):
        per_layer[layer] += (end - start) - child[index]
    return per_layer, top
