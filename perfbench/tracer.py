"""Per-layer tracing for the benchmark's traced run.

Each layer function is replaced, in every latcover module that looks it up,
by a wrapper that records its calls, its busy time (outermost activations
only) and its self time (duration minus the time covered by traced
children). Functions called rarely also leave a span with the id of the
span that caused it and of its command, the enclosing `cli.main` span; the
hot arithmetic methods only count, so the span list stays small. Nothing in
latcover changes: the wrappers live here and are removed by `uninstall`.
"""

from __future__ import annotations

import importlib
import sys
import time
from typing import Callable, Dict, List, Optional


def _max(stat: Dict, key: str, value: int) -> None:
    stat[key] = max(stat.get(key, 0), value)


def _path_samples(stat, args, kwargs, result) -> None:
    default = sys.modules["latcover.pathlift"].DEFAULT_SAMPLES_PER_LETTER
    spl = args[2] if len(args) > 2 else kwargs.get("samples_per_letter", default)
    stat["samples"] = stat.get("samples", 0) + len(result.s) - 1
    stat["nominal"] = stat.get("nominal", 0) + max(len(args[0]), 1) * spl


def _tietze_sizes(stat, args, kwargs, result) -> None:
    pres_in = args[0] if args else kwargs["pres"]
    pres_out = result[0] if isinstance(result, tuple) else result
    for tag, pres in (("in", pres_in), ("out", pres_out)):
        _max(stat, f"{tag}_gens", len(pres.gens))
        _max(stat, f"{tag}_relators", len(pres.relators))
        _max(stat, f"{tag}_length", sum(len(r) for r in pres.relators))


def _schreier_sizes(stat, args, kwargs, result) -> None:
    _max(stat, "gens", len(result.presentation.gens))
    _max(stat, "relators", len(result.presentation.relators))


def _coset_index(stat, args, kwargs, result) -> None:
    _max(stat, "index", result.index)


def _wedge(stat, args, kwargs, result) -> None:
    _max(stat, "wedge_size", result.n * (result.n - 1) // 2)


def _cells(stat, args, kwargs, result) -> None:
    m = args[0]
    if hasattr(m, "rows"):
        cells = m.rows * m.cols
    else:
        cells = len(m) * (len(m[0]) if len(m) else 0)
    _max(stat, "max_cells", cells)


# (metric prefix, module, attribute, keeps spans, observer). A dotted
# attribute is a method, patched on its class; a plain one is a function,
# patched wherever a latcover module binds it.
TARGETS = [
    ("cli.main", "latcover.cli", "main", True, None),
    ("presets.dm_lattice", "latcover.presets", "dm_lattice", True, None),
    ("presets.verify_preset", "latcover.presets", "verify_preset", True, None),
    ("su21.GroupMatrix.mul", "latcover.su21", "GroupMatrix.__mul__", False, None),
    ("su21.scale_to_su", "latcover.su21", "scale_to_su", True, None),
    ("exactnum.CycloElt.mul", "latcover.exactnum", "CycloElt.__mul__", False, None),
    ("exactnum.CycloElt.add", "latcover.exactnum", "CycloElt.__add__", False, None),
    ("pathlift.lift_presentation", "latcover.pathlift", "lift_presentation", True, None),
    ("pathlift.elliptic_log", "latcover.pathlift", "elliptic_log", True, None),
    ("pathlift.relator_path", "latcover.pathlift", "relator_path", True, _path_samples),
    ("fpgroups.todd_coxeter", "latcover.fpgroups", "todd_coxeter", True, _coset_index),
    ("fpgroups.CosetTable.validates", "latcover.fpgroups", "CosetTable.validates", True, None),
    ("fpgroups.CosetTable.fixes_all_cosets", "latcover.fpgroups",
     "CosetTable.fixes_all_cosets", True, None),
    ("fpgroups.schreier_system", "latcover.fpgroups", "schreier_system", True, _schreier_sizes),
    ("fpgroups.tietze_reduce", "latcover.fpgroups", "tietze_reduce", True, _tietze_sizes),
    ("nq2.class2_quotient", "latcover.nq2", "class2_quotient", True, _wedge),
    ("nq2.rf_certificate", "latcover.nq2", "rf_certificate", True, None),
    ("intlinalg.hnf", "latcover.intlinalg", "hnf", True, _cells),
    ("intlinalg.snf_diagonal", "latcover.intlinalg", "snf_diagonal", True, None),
]

# stats that are sizes (largest call) rather than totals
SIZE_STATS = {"in_gens", "in_relators", "in_length", "out_gens", "out_relators",
              "out_length", "gens", "relators", "index", "wedge_size", "max_cells"}


class Tracer:
    """Spans and counts for one traced run, kept in memory until the end."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, Dict] = {}
        self.spans: List[List] = []  # [id, parent id, command id, name, start, end]
        self._stack: List[List] = []  # [start, child seconds, span id, command id]
        self._next_id = 1
        self._patches: List = []

    def _wrap(self, name: str, fn, keep_span: bool, observe: Optional[Callable]):
        stat = self.stats.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        stack, clock, spans = self._stack, self.clock, self.spans
        active = [0]

        def traced(*args, **kwargs):
            parent, command = (stack[-1][2], stack[-1][3]) if stack else (0, 0)
            span_id = parent
            if keep_span:
                span_id = self._next_id
                self._next_id += 1
            frame = [0.0, 0.0, span_id, command or span_id]
            stack.append(frame)
            active[0] += 1
            frame[0] = start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[0] -= 1
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                stat["calls"] += 1
                stat["self_s"] += duration - frame[1]
                if active[0] == 0:
                    stat["busy_s"] += duration
                if keep_span:
                    spans.append([span_id, parent, frame[3], name, start, end])
            if observe is not None:
                observe(stat, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for prefix, modname, attr, keep_span, observe in TARGETS:
            module = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                wrapper = self._wrap(prefix, original, keep_span, observe)
                # covers aliases such as __rmul__ = __mul__
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(prefix, original, keep_span, observe)
                for modname2, mod in list(sys.modules.items()):
                    if modname2 == "latcover" or modname2.startswith("latcover."):
                        for key, value in list(vars(mod).items()):
                            if value is original:
                                self._patch(mod, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()
