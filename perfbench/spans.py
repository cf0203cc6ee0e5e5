"""Per-layer spans recorded from outside the program.

The traced run wraps the public functions of each orbitref module.  Many
functions are imported by name into other modules (`cli.block_profile`,
`spectra.char_poly`, ...), so each original function object is replaced
wherever any orbitref module holds a reference to it; callers then reach
the wrapper through the name they look up.  `Matrix.__matmul__` is wrapped
on the class.  Private helpers (leading underscore) are left alone, and
work inside forked scan workers is not seen.

A span is (name, start, end, parent).  Spans stay in memory while the
workload runs; self time is a span's duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import Counter

# (module, attribute) pairs to wrap, by layer; "Matrix.__matmul__" is a method
TARGETS = {
    "cli": ["main"],
    "fileio": ["load_matrix_file", "render_report", "escalate_field"],
    "linalg": ["char_poly", "rank", "Matrix.__matmul__", "commutator_is_zero",
               "matpow", "embed_matrix", "to_ndarray"],
    "spectra": ["eigenvalues", "block_profile", "radius_selection"],
    "deciders": ["decide_reflexive", "decide_orbit_reflexive",
                 "decide_c_orbit_reflexive", "decide_algebraic_f_orbit_reflexive",
                 "upgrade_algebraic_verdict", "max_modulus_gap"],
    "witness": ["validate_witness", "build_c_orbit_witness", "canonical_jordan"],
    "oracle": ["enumerate_orbref0", "orbref0_contains", "scan_space", "power_orbit"],
}
LAYERS = tuple(TARGETS)
SPAN_NAME = {"Matrix.__matmul__": "matmul"}


class Tracer:
    """Span recorder plus the counters the per-layer metrics need."""

    def __init__(self):
        self.spans: list[list] = []         # [name, start, end, parent, child_time]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._installed: list[tuple] = []   # (owner, attribute, original)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        before, after = hook if hook is not None else (None, None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(self, args, kwargs) if before is not None else None
            idx = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1, 0.0]
            spans.append(span)
            stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                end = clock()
                stack.pop()
                span[2] = end
                if stack:
                    spans[stack[-1]][4] += end - span[1]
                if after is not None:
                    after(self, args, kwargs, result, exc, state, end - span[1])

        return wrapper

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "orbitref" or n.startswith("orbitref.")]
        for layer, attrs in TARGETS.items():
            module = sys.modules[f"orbitref.{layer}"]
            for attr in attrs:
                label = f"{layer}.{SPAN_NAME.get(attr, attr)}"
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[meth]
                    self._set(owner, meth, self._wrap(label, original, HOOKS.get(label)),
                              original)
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(label, original, HOOKS.get(label))
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, name, wrapper, original)

    def _set(self, owner, name, value, original):
        self._installed.append((owner, name, original))
        setattr(owner, name, value)

    def uninstall(self):
        for owner, name, original in reversed(self._installed):
            setattr(owner, name, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def dump(self, path: str):
        """Write the spans as JSON lines (seconds relative to the first)."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": round(start - t0, 9),
                                     "end": round(end - t0, 9)}) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, outermost inclusive time, self time; per
        layer: outermost inclusive time and self time."""
        spans = self.spans
        by_name: dict[str, list] = {}
        by_layer: dict[str, list] = {layer: [0.0, 0.0] for layer in LAYERS}
        for name, start, end, parent, child in spans:
            dur = end - start
            layer = name.split(".")[0]
            nested_name = nested_layer = False
            p = parent
            while p >= 0:
                pname = spans[p][0]
                nested_name = nested_name or pname == name
                nested_layer = nested_layer or pname.split(".")[0] == layer
                p = spans[p][3]
            agg = by_name.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[2] += dur - child
            if not nested_name:
                agg[1] += dur
            by_layer[layer][1] += dur - child
            if not nested_layer:
                by_layer[layer][0] += dur
        return {"names": by_name, "layers": by_layer}


# ---------------------------------------------------------------------------
# counters taken at the layer boundaries
# ---------------------------------------------------------------------------

def _render(tr, args, kwargs, result, exc, state, dur):
    if exc is None:
        tr.counts["fileio.report_bytes"] += len(result.encode())


def _profile(tr, args, kwargs, result, exc, state, dur):
    if exc is not None and type(exc).__name__ != "NotSplit":
        tr.counts["spectra.profile_failures"] += 1


def _answer(tr, args, kwargs, result, exc, state, dur):
    if exc is None:
        key = {True: "true", False: "false", None: "unknown"}[result.answer]
        tr.counts[f"deciders.answers_{key}"] += 1


def _upgrade(tr, args, kwargs, result, exc, state, dur):
    # an unknown verdict handed to the oracle is re-counted as its answer
    verdict = args[0] if args else kwargs["verdict"]
    if verdict.answer is None:
        tr.counts["deciders.oracle_routed"] += 1
        tr.counts["deciders.answers_unknown"] -= 1
        _answer(tr, args, kwargs, result, exc, state, dur)


def _validate(tr, args, kwargs, result, exc, state, dur):
    from orbitref import witness

    bound = inspect.signature(witness.validate_witness).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    tr.counts["witness.residual_steps"] += (a["T"].n + a["samples"]) * (a["horizon"] + 1)


def _enumerate(tr, args, kwargs, result, exc, state, dur):
    T = args[0] if args else kwargs["T"]
    tr.counts["oracle.candidates"] += T.field.q ** (T.n * T.n)
    if exc is None:
        tr.counts["oracle.members"] += result.orbref0_size


def _cache_size(tr, args, kwargs):
    path = kwargs.get("cache_path")
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _scan(tr, args, kwargs, result, exc, size_before, dur):
    """The whole cache file is read when it exists; its growth is what the
    call wrote.  A call the cache served in full is a re-query."""
    if exc is not None:
        return
    tr.counts["oracle.cache.bytes_read"] += size_before
    tr.counts["oracle.cache.bytes_written"] += _cache_size(tr, args, kwargs) - size_before
    tr.counts["oracle.scan.matrices"] += result.scanned
    tr.counts["oracle.scan.from_cache"] += result.from_cache
    served = result.scanned > 0 and result.from_cache == result.scanned
    tr.counts["oracle.scan_space.requery_s" if served else "oracle.scan_space.sweep_s"] += dur


HOOKS = {
    "fileio.render_report": (None, _render),
    "spectra.block_profile": (None, _profile),
    "deciders.decide_reflexive": (None, _answer),
    "deciders.decide_orbit_reflexive": (None, _answer),
    "deciders.decide_c_orbit_reflexive": (None, _answer),
    "deciders.decide_algebraic_f_orbit_reflexive": (None, _answer),
    "deciders.upgrade_algebraic_verdict": (None, _upgrade),
    "witness.validate_witness": (None, _validate),
    "oracle.enumerate_orbref0": (None, _enumerate),
    "oracle.scan_space": (_cache_size, _scan),
}
