"""Per-layer spans recorded from outside the package.

The layers are the modules of ``qgft``.  :class:`Tracer` wraps each
module's public functions (plus the few methods and cached tables named in
``EXTRA``) and installs every wrapper at each place where callers look the
original up: module globals of every ``qgft`` module, the dispatch tables
that hold function objects, and class attributes.  Nothing inside the
package is edited, and :meth:`Tracer.uninstall` restores every original.

A span's self time is its duration minus the time of the spans it called
directly.  Spans are kept in memory as per-name lists of (duration, self)
pairs; counters are exact integers that depend only on the work done.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "fileio", "qft", "signal", "kernels", "group", "quat", "verify")

# Methods and cached tables traced besides module-level public functions:
# (module, class, attribute, span name).
EXTRA = (
    ("signal", "_QGrid", "__init__", "signal.grid_init"),
    ("group", "FiniteAbelianGroup", "__init__", "group.init"),
    ("group", "FiniteAbelianGroup", "elements", "group.elements"),
    ("group", "FiniteAbelianGroup", "coords_matrix", "group.table.coords_matrix"),
    ("group", "FiniteAbelianGroup", "neg_perm", "group.table.neg_perm"),
    ("group", "FiniteAbelianGroup", "angle_table", "group.table.angle_table"),
    ("group", "FiniteAbelianGroup", "difference_table", "group.table.difference_table"),
    ("quat", "AxisPair", "to_frame", "quat.to_frame"),
    ("quat", "AxisPair", "from_frame", "quat.from_frame"),
    ("qft", "TransformSelection", "forward", "qft.forward"),
    ("qft", "TransformSelection", "inverse", "qft.inverse"),
    ("kernels", "KernelFamily", "envelope", "kernels.envelope"),
    ("verify", "VerifyReport", "format_text", "verify.format_text"),
    ("verify", "VerifyReport", "to_json", "verify.to_json"),
)

def _count_bytes(*keys):
    """Count the length of the last argument (the bytes handed over)."""
    def on_call(counters, args, kwargs, out):
        data = args[-1] if args else next(iter(kwargs.values()))
        for key in keys:
            counters[key] += len(data)
    return on_call


def _count_encoded(counters, args, kwargs, out):
    counters["fileio.qsig_bytes"] += len(out)


def _count_qmul(counters, args, kwargs, out):
    counters["quat.qmul.products"] += out.size // 4


def _spatial_kernel_probe(counters, args, kwargs):
    """Count a cache hit when the family already holds this (level, group)."""
    family, level, group = (list(args) + list(kwargs.values()))[:3]
    if (level, group) in getattr(family, "_cache", {}):
        counters["kernels.spatial_kernel.hits"] += 1


def _count_checks(counters, args, kwargs, out):
    counters["verify.checks"] += len(out.checks)


# Byte counts come from the sizes of the buffers handed to the codecs.
ON_CALL = {
    "fileio.decode_qsig": _count_bytes("fileio.bytes_in", "fileio.qsig_bytes"),
    "fileio.encode_qsig": _count_encoded,
    "fileio.decode_ppm": _count_bytes("fileio.bytes_in"),
    "fileio.atomic_write_bytes": _count_bytes("fileio.bytes_out"),
    "quat.qmul": _count_qmul,
    "verify.run_verification": _count_checks,
}
BEFORE_CALL = {"kernels.spatial_kernel": _spatial_kernel_probe}


class Tracer:
    """Span recorder for one process; :meth:`install` switches it on."""

    def __init__(self):
        self.spans = defaultdict(list)  # name -> [(duration_ns, self_ns)]
        self.counters = Counter()
        self._stack = []
        self._undo = []

    def wrap(self, name: str, fn):
        stack, rec, counters = self._stack, self.spans[name], self.counters
        before, after = BEFORE_CALL.get(name), ON_CALL.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(counters, args, kwargs)
            stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                child = stack.pop()
                rec.append((dt, dt - child))
                if stack:
                    stack[-1] += dt
            if after is not None:
                after(counters, args, kwargs, out)
            return out

        return traced

    def _targets(self):
        """(span name, target): a module function, a cached_property, or
        (class, attribute, function) for a method."""
        for layer in LAYERS:
            mod = sys.modules[f"qgft.{layer}"]
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    yield f"{layer}.{attr}", fn
        for layer, cls_name, attr, name in EXTRA:
            cls = getattr(sys.modules[f"qgft.{layer}"], cls_name, None)
            member = None if cls is None else cls.__dict__.get(attr)
            if isinstance(member, functools.cached_property):
                yield name, member
            elif inspect.isfunction(member):
                yield name, (cls, attr, member)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        plain = {}
        for name, target in self._targets():
            if isinstance(target, functools.cached_property):
                self._set(target, "func", self.wrap(name, target.func))
            elif isinstance(target, tuple):
                cls, attr, fn = target
                self._set(cls, attr, self.wrap(name, fn))
            else:
                plain[id(target)] = self.wrap(name, target)
        # Replace every reference to a wrapped function: module globals of
        # the whole package (callers import names directly) and the values
        # of module-level dispatch tables.
        for modname, mod in list(sys.modules.items()):
            if modname != "qgft" and not modname.startswith("qgft."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in plain:
                    self._set(mod, attr, plain[id(val)])
                elif isinstance(val, dict):
                    for key, item in list(val.items()):
                        if id(item) in plain:
                            self._set_item(val, key, plain[id(item)])

    def _set(self, obj, attr, value):
        old = vars(obj)[attr]
        self._undo.append(lambda: setattr(obj, attr, old))
        setattr(obj, attr, value)

    def _set_item(self, table, key, value):
        old = table[key]
        self._undo.append(lambda: table.__setitem__(key, old))
        table[key] = value

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- aggregation ---------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(len(self.spans.get(n, ())) for n in names)

    def self_ns(self, prefix: str) -> int:
        return sum(s for name, recs in self.spans.items() if name.startswith(prefix)
                   for _, s in recs)

    def p50_ns(self, name: str) -> float:
        recs = self.spans.get(name)
        return float(statistics.median(d for d, _ in recs)) if recs else 0.0

    def total_ns(self, name: str) -> int:
        return sum(d for d, _ in self.spans.get(name, ()))
