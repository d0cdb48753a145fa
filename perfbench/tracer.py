"""Span recorder and layer wrappers for the traced benchmark run.

``install`` wraps the layer functions of the package from the outside:
each wrapper replaces the original at every import site inside the
package (module globals that hold the same object, or the class that
defines a method), so no source file changes.  Untraced runs never call
``install``.

Spans are kept in memory as parallel arrays (name, start, end, parent,
job) and written out once with ``Recorder.dump``.  A span's self time is
its duration minus the durations of its direct child spans; counts of
work (cells, points, edges, ...) are accumulated at the same wrappers.
``lru_cache`` hit ratios are read from ``cache_info()`` before and after
the traced phase.
"""

from __future__ import annotations

import array
import functools
import gc
import inspect
import sys
import time
import weakref

PACKAGE = "stretched_gasket"

#: ParamSeq methods that make up the ``params`` layer.
PARAM_METHODS = (
    "log_eps",
    "eps",
    "one_minus_eps",
    "lam",
    "lam_tilde",
    "eps_tilde",
    "eps_tilde_inf",
    "log_eps_tilde_inf",
    "sum_one_minus_eps_from",
    "delta",
    "shift",
)

#: lru-cached functions whose hit ratio is reported: (module, attribute, metric).
CACHES = (
    ("geometry", "word_table", "geometry.word_table.cache_hit_ratio"),
    ("energy", "_tableau", "energy.tableau.cache_hit_ratio"),
    ("kusuoka", "_scaled_linears", "kusuoka.scaled_linears.cache_hit_ratio"),
)


def _count_word_table(args, kwargs, result):
    return 3 ** (kwargs["l"] if "l" in kwargs else args[1])


#: (module, attribute or Class.method, span name, counter name, counter fn).
#: A counter fn receives (args, kwargs, result) and returns the work count.
TARGETS = [
    ("geometry", "word_table", "geometry.word_table", "geometry.word_table.cells", _count_word_table),
    ("geometry", "prefractal_edges", "geometry.prefractal_edges", "geometry.prefractal_edges.edges", None),
    ("scalarfield", "Poly2.eval_batch", "scalarfield.eval_batch", "scalarfield.eval_batch.points", lambda a, k, r: r.size),
    ("scalarfield", "compose_with_segment", "scalarfield.compose_with_segment", None, None),
    ("energy", "energy_total", "energy.energy_total", None, None),
    ("energy", "_tableau", "energy.tableau", None, None),
    ("energy", "convergence_rows", "energy.sweeps.convergence_rows", None, None),
    ("energy", "selfsimilar_residual", "energy.sweeps.selfsimilar_residual", None, None),
    ("energy", "recurrence_residual", "energy.sweeps.recurrence_residual", None, None),
    ("harmonicity", "vertex_stars", "harmonicity.vertex_stars", "harmonicity.vertex_stars.vertices", lambda a, k, r: len(r)),
    ("harmonicity", "weak_pairing", "harmonicity.weak_pairing", None, None),
    ("harmonicity", "nd_gamma", "harmonicity.nd_gamma", None, None),
    ("kusuoka", "cable_mass", "kusuoka.cable_mass", None, None),
    ("kusuoka", "tau_table", "kusuoka.tau_table", "kusuoka.tau_table.cells", lambda a, k, r: r.shape[0]),
    ("laplacian", "laplacian_samples", "laplacian.laplacian_samples", "laplacian.laplacian_samples.samples", lambda a, k, r: len(r)),
    ("laplacian", "ibp_table", "laplacian.ibp_table", None, None),
] + [("params", f"ParamSeq.{m}", f"params.{m}", None, None) for m in PARAM_METHODS]


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.parent = array.array("i")
        self.job = array.array("i")
        self._stack = [-1]
        self.job_id = -1
        self.counts: dict[str, int] = {}
        self._tableaus: weakref.WeakSet = weakref.WeakSet()
        self.cache_bytes_peak = 0

    def name(self, text: str) -> int:
        if text not in self._name_ids:
            self._name_ids[text] = len(self.names)
            self.names.append(text)
        return self._name_ids[text]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    # -- tableau cache bytes ------------------------------------------------

    def keep_tableau(self, tab) -> None:
        self._tableaus.add(tab)

    def sample_cache_bytes(self) -> int:
        """Bytes of the traced tableaus the cache still holds; tracks the peak."""
        gc.collect()
        total = 0
        for tab in list(self._tableaus):
            arrays = (tab.tri_p0, tab.tri_dv, *tab.cab_p0, *tab.cab_dv)
            total += sum(a.nbytes for a in arrays)
        self.cache_bytes_peak = max(self.cache_bytes_peak, total)
        return total

    # -- results ------------------------------------------------------------

    def _columns(self):
        import numpy as np

        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32),
            "start_ns": np.frombuffer(self.start, dtype=np.int64),
            "end_ns": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "job": np.frombuffer(self.job, dtype=np.int32),
        }

    def totals(self) -> dict[str, list[int]]:
        """[calls, self ns] per span name; self = duration minus direct children."""
        import numpy as np

        if not self.start:
            return {}
        col = self._columns()
        dur = col["end_ns"] - col["start_ns"]
        has_parent = col["parent"] >= 0
        child = np.bincount(col["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        own = dur - child
        calls = np.bincount(col["name"], minlength=len(self.names))
        self_ns = np.bincount(col["name"], weights=own, minlength=len(self.names))
        return {n: [int(calls[i]), int(self_ns[i])] for i, n in enumerate(self.names)}

    def dump(self, path) -> None:
        """Write every span: parallel columns plus the name table."""
        import numpy as np

        np.savez(path, names=np.array(self.names), **self._columns())


def _wrap(rec: Recorder, fn, span: str, counter: str | None, count_fn):
    nid = rec.name(span)
    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            # One span per resumption, so the consumer's work between
            # items is not charged to the generator.
            it = fn(*args, **kwargs)
            while True:
                idx = rec.open(nid)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    rec.close(idx)
                if counter is not None:
                    rec.add(counter, 1)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count_fn is not None:
            rec.add(counter, count_fn(args, kwargs, result))
        if span == "energy.tableau":
            rec.keep_tableau(result)
        return result

    return wrapper


def _package_modules():
    return [m for name, m in list(sys.modules.items()) if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def install(rec: Recorder):
    """Wrap every target at each of its import sites; returns an undo function."""
    modules = _package_modules()
    undo = []
    for mod_name, attr, span, counter, count_fn in TARGETS:
        owner_mod = sys.modules[f"{PACKAGE}.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner_mod, cls_name)
            orig = cls.__dict__[meth]
            setattr(cls, meth, _wrap(rec, orig, span, counter, count_fn))
            undo.append((cls, meth, orig))
            continue
        orig = getattr(owner_mod, attr)
        wrapped = _wrap(rec, orig, span, counter, count_fn)
        for mod in modules:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
                    undo.append((mod, key, orig))

    def restore():
        for owner, key, orig in reversed(undo):
            setattr(owner, key, orig)

    return restore


def cache_counts() -> dict[str, tuple[int, int]]:
    """(hits, misses) of each reported lru cache, read from the originals."""
    out = {}
    for mod_name, attr, metric in CACHES:
        fn = getattr(sys.modules[f"{PACKAGE}.{mod_name}"], attr)
        while not hasattr(fn, "cache_info"):
            fn = fn.__wrapped__
        info = fn.cache_info()
        out[metric] = (info.hits, info.misses)
    return out


def cache_delta(before: dict, after: dict) -> dict[str, tuple[int, int]]:
    return {k: (after[k][0] - before[k][0], after[k][1] - before[k][1]) for k in after}
