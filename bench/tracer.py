"""Span tracer that wraps the blocktoeplitz layers at runtime.

`Tracer.install()` replaces every public module-level function of the
layer modules, a fixed set of methods, and the numpy/scipy linear
algebra entry points that `operators` and `decide` call, with wrappers
that record one span per call: name, start, end and parent. A function
imported by name into another module (`from .symbols import
is_normal_symbol`) is replaced there too. Spans stay in memory until
`write()`. A span's self time is its duration minus the time its child
spans cover; time between the benchmark's own top-level spans is
reported as unattributed.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("cli", "decide", "operators", "modelspace", "blaschke", "rational", "symbols")

# Methods traced in addition to module-level functions: (module, class, attribute) -> span.
METHODS = {
    ("symbols", "Symbol", "__mul__"): "symbols.mul",
    ("symbols", "Symbol", "__add__"): "symbols.add",
    ("symbols", "Symbol", "__sub__"): "symbols.sub",
    ("symbols", "Symbol", "star"): "symbols.star",
    ("symbols", "Symbol", "eval_circle"): "symbols.eval_circle",
    ("symbols", "RationalSymbol", "to_symbol"): "symbols.to_symbol",
    ("symbols", "RationalSymbol", "from_symbol"): "symbols.from_symbol",
    ("rational", "RationalFn", "__init__"): "rational.init",
    ("rational", "RationalFn", "__add__"): "rational.add",
    ("rational", "RationalFn", "__mul__"): "rational.mul",
    ("rational", "RationalFn", "__call__"): "rational.eval",
    ("rational", "RationalFn", "fourier_coeffs"): "rational.fourier_coeffs",
    ("rational", "RationalFn", "taylor_jets"): "rational.taylor_jets",
    ("rational", "RationalFn", "reflect"): "rational.reflect",
    ("blaschke", "BlaschkeProduct", "__post_init__"): "blaschke.init",
    ("blaschke", "BlaschkeProduct", "as_rational"): "blaschke.as_rational",
    ("blaschke", "BlaschkeProduct", "quotient"): "blaschke.quotient",
}

# numpy/scipy linear algebra reached from these modules is the `linalg` layer.
LINALG_CALLERS = ("operators", "decide")
LINALG_FUNCS = ("eigh", "eigvalsh", "svd", "norm", "matrix_rank")

ASSEMBLY = ("operators.toeplitz_window", "operators.hankel_window")
DOUBLING = ("operators.selfcommutator_exact", "operators.k_hypo_window",
            "operators.square_hypo_window")
VERDICTS = ("operators.k_hypo_window", "operators.square_hypo_window")


class _Shadow(types.ModuleType):
    """A module copy with some attributes replaced; the rest falls through."""

    def __init__(self, real, **replaced):
        super().__init__(real.__name__)
        self.__dict__.update(real.__dict__)
        self.__dict__.update(replaced)
        self._real = real

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    def __init__(self):
        self.names = []
        self._ids = {}
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.enabled = True
        self._undo = []
        self.assembled = {}  # span id -> (entries, bytes) of a window assembly
        self.verdicts = 0  # PSD/NotPSD reports from the window tests
        self.exact_verdicts = 0
        self.modes = 0  # Fourier modes emitted by RationalSymbol.to_symbol
        self.eigh_max_order = 0

    # -- recording -----------------------------------------------------------------
    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, hook=None):
        nid = self._name_id(name)
        name_of, parent, start, end, stack = self.name_of, self.parent, self.start, self.end, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if hook is not None:
                hook(sid, args, out)
            return out

        return traced

    @contextlib.contextmanager
    def span(self, name):
        """A span around benchmark code (its self time is harness time)."""
        if not self.enabled:
            yield
            return
        sid = len(self.start)
        self.name_of.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.end[sid] = time.perf_counter()

    @contextlib.contextmanager
    def paused(self):
        """Run library calls (input generation) without recording them."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    # -- counters read from return values ---------------------------------------------
    def _on_assembly(self, sid, args, out):
        self.assembled[sid] = (out.block.size, out.block.nbytes)

    def _on_verdict(self, sid, args, out):
        if out.verdict in ("PSD", "NotPSD"):
            self.verdicts += 1
            self.exact_verdicts += bool(out.exact)

    def _on_to_symbol(self, sid, args, out):
        self.modes += len(out.support())

    def _on_eigh(self, sid, args, out):  # eigh and eigvalsh: the largest order solved
        self.eigh_max_order = max(self.eigh_max_order, int(np.shape(args[0])[0]))

    def _hook(self, name):
        if name in ASSEMBLY:
            return self._on_assembly
        if name in VERDICTS:
            return self._on_verdict
        if name == "symbols.to_symbol":
            return self._on_to_symbol
        if name in ("linalg.eigh", "linalg.eigvalsh"):
            return self._on_eigh
        return None

    # -- patching -------------------------------------------------------------------
    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {layer: sys.modules[f"blocktoeplitz.{layer}"] for layer in LAYERS}
        importers = [m for n, m in list(sys.modules.items())
                     if m is not None and (n == "blocktoeplitz" or n.startswith("blocktoeplitz."))]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, types.FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                traced = self.wrap(name, fn, self._hook(name))
                for imp in importers:
                    for alias, obj in list(vars(imp).items()):
                        if obj is fn:
                            self._set(imp, alias, traced)
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(mods[layer], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self.wrap(name, raw.__func__, self._hook(name)))
            else:
                new = self.wrap(name, raw, self._hook(name))
            for alias, obj in list(cls.__dict__.items()):
                if obj is raw:  # e.g. __radd__ = __add__
                    self._set(cls, alias, new)
        wrapped = {}
        for layer in LINALG_CALLERS:
            mod = mods[layer]
            for pkg_attr in ("np", "scipy"):
                pkg = vars(mod).get(pkg_attr)
                if pkg is None:
                    continue
                funcs = {}
                for f in LINALG_FUNCS:
                    real = getattr(pkg.linalg, f, None)
                    if real is None:
                        continue
                    if real not in wrapped:
                        wrapped[real] = self.wrap(f"linalg.{f}", real, self._hook(f"linalg.{f}"))
                    funcs[f] = wrapped[real]
                self._set(mod, pkg_attr, _Shadow(pkg, linalg=_Shadow(pkg.linalg, **funcs)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- analysis -------------------------------------------------------------------------
    def _arrays(self):
        return (np.array(self.name_of, dtype=np.int32), np.array(self.parent, dtype=np.int32),
                np.array(self.start, dtype=float), np.array(self.end, dtype=float))

    def self_times(self):
        name_of, parent, start, end = self._arrays()
        dur = end - start
        child = np.zeros(len(dur))
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        return name_of, parent, dur - child

    @staticmethod
    def _ancestor(sid, parent, name_of, targets):
        """Nearest ancestor span whose name is in `targets`, or -1."""
        p = parent[sid]
        while p >= 0:
            if name_of[p] in targets:
                return int(p)
            p = parent[p]
        return -1

    def summary(self, traced_wall):
        """Per-name self time and calls, per-layer totals and the layer counters."""
        name_of, parent, self_t = self.self_times()
        k = len(self.names)
        self_by = np.bincount(name_of, weights=self_t, minlength=k)
        calls_by = np.bincount(name_of, minlength=k)
        per_name = {n: {"self_s": float(self_by[i]), "calls": int(calls_by[i])}
                    for i, n in enumerate(self.names)}
        per_layer = {}
        for n, v in per_name.items():
            layer = n.split(".")[0]
            per_layer[layer] = per_layer.get(layer, 0.0) + v["self_s"]

        # window entries assembled for a doubling test: within one call of a
        # doubling function, the assemblies at windows larger than its
        # smallest one
        ids = {self._ids[n] for n in DOUBLING if n in self._ids}
        groups = {}
        for sid, (entries, _) in self.assembled.items():
            groups.setdefault(self._ancestor(sid, parent, name_of, ids), []).append(entries)
        total = sum(e for es in groups.values() for e in es)
        doubled = sum(e for g, es in groups.items() if g >= 0 for e in es if e > min(es))
        tm = self._ids.get("modelspace.tm_basis")
        oracle = self._ids.get("modelspace.compression_oracle")
        oracle_calls = int(calls_by[oracle]) if oracle is not None else 0
        grids = 0
        if tm is not None and oracle is not None:
            grids = sum(1 for sid in np.nonzero(name_of == tm)[0]
                        if self._ancestor(sid, parent, name_of, {oracle}) >= 0)
        return {
            "per_name": per_name,
            "per_layer": per_layer,
            "spans": int(len(name_of)),
            "unattributed_s": traced_wall - float(self_t.sum()),
            "window_bytes": int(sum(b for _, b in self.assembled.values())),
            "doubling_share": doubled / total if total else 0.0,
            "exact_frac": self.exact_verdicts / self.verdicts if self.verdicts else 0.0,
            "to_symbol_modes": self.modes,
            "eigh_max_order": self.eigh_max_order,
            "grids_per_oracle": grids / oracle_calls if oracle_calls else 0.0,
        }

    def write(self, path):
        """Write every span (name table, name index, parent, start, end) to an .npz file."""
        name_of, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name=name_of, parent=parent,
                 start=start, end=end)
