"""Span tracer installed from outside the program.

``Tracer.install()`` wraps the public functions of each mockforms module
(module-level functions and public methods of the module's classes, plus the
operators of ``FormalSeries``, the formal layer's kernel) and rebinds every
module attribute that refers to an original function.  The rebinding is
needed because modules import by name: ``modification`` holds its own
``theta_jm``, ``family_d21a`` holds ``phi_tilde_reduced`` as ``phi_tilde``.

Per wrapped function the tracer counts calls, errors (calls that raised),
self time, and distinct inputs (a set of argument hashes; the ratio
distinct / calls is the share of calls a per-point memo could not save).
A ``ThetaIndex`` argument is keyed by its residue (j mod 2m, m), since
equivalent indices give the same value.  ``sum_bilateral`` additionally
counts the terms it sums, by wrapping the ``term`` callable passed to it.

Every span (name, op, parent, start, end) is kept in compact arrays, about
28 bytes a span, and written out at the end of the run.  Self time is a
span's duration minus the time covered by its child spans.
"""

from __future__ import annotations

import inspect
import itertools
import json
import sys
import time
from array import array

MODULES = ("qkernel", "theta", "mock", "modification", "formal", "family_n3",
           "family_n4", "family_d21a", "verifier", "cli")

# The numeric kernels whose repeated inputs a per-point memo would save.
KERNELS = frozenset({
    "theta.theta_jm", "theta.dedekind_eta", "theta.jacobi_theta",
    "theta.theta_pair_diff", "mock.phi1", "mock.phi", "mock.phi_signed",
    "mock.phi_d0", "mock.psi", "modification.r_correction",
    "modification.r_correction_dv", "modification.phi_add",
    "modification.phi_add_d0", "modification.phi_tilde",
    "modification.phi_tilde_d0", "modification.phi1_add",
    "modification.phi1_tilde", "modification.phi_tilde_reduced",
    "modification.psi_tilde", "modification.psi_tilde_reduced",
    "modification.psi_tilde_d0",
})

# The series operators are where the exact formal layer spends its time.
EXTRA_METHODS = {("formal", "FormalSeries"): ("__add__", "__sub__", "__mul__")}


class Stat:
    __slots__ = ("calls", "errors", "self_s", "keys", "terms")

    def __init__(self):
        self.calls = self.errors = self.terms = 0
        self.self_s = 0.0
        self.keys = set()


_UNIQUE = itertools.count()


def _residue(idx):
    """Key of a ThetaIndex: j matters only modulo 2m."""
    return ("ThetaIndex", idx.j.twice % (2 * idx.m.twice), idx.m.twice)


def _arg_key(args, kwargs, theta_index):
    """Hash of the call's arguments.  An argument compared by identity (a
    callable, a FormalSeries) makes the call count as distinct: ids are
    reused after objects die, so hashing them would invent repeats.  None
    also hashes by identity, but there is only one, so it is a value."""
    values = args + tuple(kwargs.values())
    if any(v is not None and type(v).__hash__ is object.__hash__ for v in values):
        return ("unique", next(_UNIQUE))
    if any(type(v) is theta_index for v in values):
        args = tuple(_residue(v) if type(v) is theta_index else v for v in args)
        kwargs = {k: _residue(v) if type(v) is theta_index else v
                  for k, v in kwargs.items()}
    key = (args, tuple(sorted(kwargs.items()))) if kwargs else args
    try:
        return hash(key)
    except TypeError:           # unhashable argument (a list, a mutable object)
        return hash(repr(key))


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.names: list[str] = []
        self.op = -1
        self.half = None                      # kernel (calls, distinct) at mark_half
        self._theta_index = None
        self._stack: list[list] = []          # [span index, child time]
        self._sp_name = array("i")
        self._sp_op = array("i")
        self._sp_parent = array("i")
        self._sp_start = array("d")
        self._sp_end = array("d")
        self._restore: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.stats[name] = Stat()
        return len(self.names) - 1

    def span(self, name_id: int, stat: Stat, fn, args, kwargs, count_terms=False):
        stat.calls += 1
        stat.keys.add(_arg_key(args, kwargs, self._theta_index))
        stack = self._stack
        idx = len(self._sp_start)
        self._sp_name.append(name_id)
        self._sp_op.append(self.op)
        self._sp_parent.append(stack[-1][0] if stack else -1)
        self._sp_start.append(0.0)
        self._sp_end.append(0.0)
        frame = [idx, 0.0]
        stack.append(frame)
        if count_terms:
            term = args[0]

            def counted(k):
                stat.terms += 1
                return term(k)

            args = (counted,) + args[1:]
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException:
            stat.errors += 1
            raise
        finally:
            t1 = time.perf_counter()
            stack.pop()
            dur = t1 - t0
            stat.self_s += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            self._sp_start[idx] = t0
            self._sp_end[idx] = t1

    def run_op(self, op_index: int, call):
        """Run one benchmark op inside a root span ``bench.op``."""
        self.op = op_index
        return self.span(self._bench_id, self._bench_stat, call, (), {})

    # -- installation --------------------------------------------------------

    def _wrapper(self, name: str, fn):
        nid = self._name_id(name)
        stat = self.stats[name]
        count_terms = name == "qkernel.sum_bilateral"
        span = self.span

        def wrapper(*args, **kwargs):
            return span(nid, stat, fn, args, kwargs, count_terms)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self):
        self._theta_index = sys.modules["mockforms.theta"].ThetaIndex
        self._bench_id = self._name_id("bench.op")
        self._bench_stat = self.stats["bench.op"]
        replaced = {}                         # id(original) -> wrapper
        for short in MODULES:
            mod = sys.modules[f"mockforms.{short}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = (obj, self._wrapper(f"{short}.{attr}", obj))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(short, obj)
        for mod_name, mod in list(sys.modules.items()):
            if not (mod_name == "mockforms" or mod_name.startswith("mockforms.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def _wrap_class(self, short: str, cls):
        extra = EXTRA_METHODS.get((short, cls.__name__), ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrapper(f"{short}.{cls.__name__}.{attr}",
                                                 raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrapper(f"{short}.{cls.__name__}.{attr}",
                                                raw.__func__))
            elif inspect.isfunction(raw):
                new = self._wrapper(f"{short}.{cls.__name__}.{attr}", raw)
            else:
                continue
            setattr(cls, attr, new)
            self._restore.append((cls, attr, raw))

    def uninstall(self):
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    # -- results -------------------------------------------------------------

    def _kernel_counts(self):
        """Numeric kernel calls so far and their distinct inputs."""
        kernels = [st for name, st in self.stats.items() if name in KERNELS]
        return sum(st.calls for st in kernels), sum(len(st.keys) for st in kernels)

    def mark_half(self):
        """Note the kernel counts at the middle of the traced stream."""
        self.half = self._kernel_counts()

    def metrics(self) -> dict:
        """Per-function and per-module aggregates, keyed by metric name."""
        out = {}
        module_self = {m: 0.0 for m in MODULES}
        for name, st in self.stats.items():
            short = name.split(".", 1)[0]
            if short in module_self:
                module_self[short] += st.self_s
            if name == "bench.op":
                continue
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
            out[f"{name}.distinct_ratio"] = len(st.keys) / st.calls if st.calls else 0.0
            out[f"{name}.errors"] = st.errors
        out["qkernel.sum_bilateral.terms"] = self.stats["qkernel.sum_bilateral"].terms
        for m, v in module_self.items():
            out[f"{m}.self_s"] = v
        out["bench.self_s"] = self.stats["bench.op"].self_s
        calls, distinct = self._kernel_counts()
        out["kernels.calls"] = calls
        out["kernels.distinct_ratio"] = distinct / calls if calls else 0.0
        half_calls, half_distinct = self.half or (0, 0)
        out["kernels.first_half_distinct_ratio"] = (half_distinct / half_calls
                                                    if half_calls else 0.0)
        out["trace.spans"] = len(self._sp_start)
        return out

    def write_spans(self, path: str):
        """Write every span: a JSON header line (span count, name table, and
        the layout), then the columns as raw native-endian arrays, span i at
        index i of each."""
        columns = (("name", self._sp_name), ("op", self._sp_op),
                   ("parent", self._sp_parent), ("start", self._sp_start),
                   ("end", self._sp_end))
        header = {"spans": len(self._sp_start), "names": self.names,
                  "byteorder": sys.byteorder,
                  "columns": [[c, a.typecode, a.itemsize] for c, a in columns]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in columns:
                a.tofile(fh)

