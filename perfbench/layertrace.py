"""Per-layer tracing of concdim from outside the package.

:class:`Tracer` wraps the public functions of each concdim module, and the
distance methods of ``MMSpace``, wherever callers look the names up: in
the defining module, in every concdim module that imported the name, and
on the class.  Each wrapped call records a span (name, start, end, parent
span, phase) and the work counters of its layer.  Spans stay in memory and
are written out by :meth:`Tracer.dump` when the run ends; nothing under
``src/`` changes.

A layer's self time is the duration of its spans minus the time covered by
their child spans.  Metrics are computed per phase ("setup", then one
phase per round) and reported as the setup value plus the median over the
rounds.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict

MB = float(1 << 20)

#: wrapped functions per concdim module.
FUNCTIONS = {
    "mmspace": ["generate", "diameter", "char_size", "char_size_interval",
                "product_distance_moments"],
    "features": ["dictionary", "distance_feature", "check_lipschitz"],
    "concentration": ["alpha_lower", "sep_lower", "greedy_separated_subset",
                      "observable_diameter", "alpha_exact_profile",
                      "sep_exact_profile", "alpha_exact", "sep_exact",
                      "sep_hamming_profile", "sep_hamming_analytic"],
    "covering": ["covering_profile", "greedy_net"],
    "transport": ["emd"],
    "experiments": ["run"],
    "cli": ["main"],
}

#: wrapped MMSpace distance accessors (``dist`` is a property).
DIST_METHODS = ["dist", "dist_row", "dist_block", "submatrix", "distance"]

_DIST = [f"mmspace.MMSpace.{m}" for m in DIST_METHODS]

#: timed per-layer metrics: name -> (self or total time, span names).
TIMES = {
    "mmspace.dist_s": ("self", _DIST),
    "mmspace.stats_s": ("self", ["mmspace.diameter", "mmspace.char_size",
                                 "mmspace.char_size_interval",
                                 "mmspace.product_distance_moments"]),
    "mmspace.generate_s": ("total", ["mmspace.generate"]),
    "features.dictionary_s": ("self", ["features.dictionary",
                                       "features.distance_feature",
                                       "features.check_lipschitz"]),
    "concentration.alpha_lower_s": ("self", ["concentration.alpha_lower"]),
    "concentration.sep_lower_s": ("self", ["concentration.sep_lower"]),
    "concentration.greedy_subset_s": ("self", ["concentration.greedy_separated_subset"]),
    "concentration.obsdiam_s": ("self", ["concentration.observable_diameter"]),
    "concentration.oracle_s": ("self", ["concentration.alpha_exact_profile",
                                        "concentration.sep_exact_profile",
                                        "concentration.alpha_exact",
                                        "concentration.sep_exact"]),
    "concentration.hamming_s": ("total", ["concentration.sep_hamming_profile",
                                          "concentration.sep_hamming_analytic"]),
    "covering.sweep_s": ("self", ["covering.covering_profile", "covering.greedy_net"]),
    "transport.emd_s": ("total", ["transport.emd"]),
    "experiments.self_s": ("self", ["experiments.run", "cli.main"]),
}

#: counted per-layer metrics: name -> (unit, how phases combine).
COUNTS = {
    "mmspace.dist_rows": ("count", "sum"),
    "mmspace.materialized_mb": ("MB", "sum"),
    "concentration.oracle_masks": ("count", "sum"),
    "transport.lp_vars": ("count", "sum"),
    "transport.alloc_peak_mb": ("MB", "max"),
}

_ORACLES = {"alpha_exact_profile", "sep_exact_profile", "alpha_exact", "sep_exact"}


class Tracer:
    """Spans and counters of the calls made into concdim while active."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, phase]
        self.counters: dict[str, defaultdict] = {}
        self.phase = "setup"
        self.active = False
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def start_phase(self, phase: str) -> None:
        self.phase = phase
        self.counters.setdefault(phase, defaultdict(float))

    def _count(self, name: str, amount: float) -> None:
        self.counters[self.phase][name] += amount

    def _peak(self, name: str, value: float) -> None:
        c = self.counters[self.phase]
        c[name] = max(c[name], value)

    def _wrap(self, name: str, fn, around=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.phase]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                if around is None:
                    return fn(*args, **kwargs)
                return around(tracer, fn, args, kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        return wrapper

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced name wherever a concdim module holds it."""
        from concdim import mmspace

        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "concdim" or k.startswith("concdim.")) and m is not None]
        for short, names in FUNCTIONS.items():
            home = sys.modules[f"concdim.{short}"]
            for fname in names:
                orig = getattr(home, fname)
                around = _around_emd if fname == "emd" else \
                    _around_oracle if fname in _ORACLES else None
                wrapped = self._wrap(f"{short}.{fname}", orig, around)
                for mod in modules:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, attr, wrapped)
        cls = mmspace.MMSpace
        for meth in DIST_METHODS:
            orig = vars(cls)[meth]
            name = f"mmspace.MMSpace.{meth}"
            if isinstance(orig, property):
                wrapped = property(self._wrap(name, orig.fget, _around_materialize))
            else:
                wrapped = self._wrap(name, orig, _ROW_COUNTERS[meth])
            self._patch(cls, meth, wrapped)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- metrics -----------------------------------------------------------------

    def phase_metrics(self) -> dict[str, dict[str, float]]:
        """Every per-layer metric for each phase."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out = {p: {m: 0.0 for m in list(TIMES) + list(COUNTS)} for p in self.counters}
        for metric, (how, names) in TIMES.items():
            names = set(names)
            for i, s in enumerate(self.spans):
                if s[0] not in names:
                    continue
                if how == "self":
                    out[s[4]][metric] += (s[2] - s[1]) - child[i]
                elif not self._has_ancestor_in(i, names):
                    out[s[4]][metric] += s[2] - s[1]
        for phase, counts in self.counters.items():
            out[phase].update(counts)
        return out

    def _has_ancestor_in(self, i: int, names: set) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def layer_metrics(self) -> dict[str, dict]:
        """Setup value plus the median over rounds, with units."""
        per = self.phase_metrics()
        setup = per.pop("setup", {})
        rounds = list(per.values())
        out = {}
        for metric in list(TIMES) + list(COUNTS):
            unit, combine = COUNTS.get(metric, ("s", "sum"))
            med = statistics.median(r[metric] for r in rounds) if rounds else 0.0
            base = setup.get(metric, 0.0)
            value = max(base, med) if combine == "max" else base + med
            if unit == "count":
                value = int(round(value))
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path, **header) -> None:
        payload = dict(header)
        payload["span_fields"] = ["name", "start_s", "end_s", "parent", "phase"]
        payload["spans"] = self.spans
        payload["counters"] = {p: dict(c) for p, c in self.counters.items()}
        payload["phase_metrics"] = self.phase_metrics()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


# -- counters attached to particular calls -------------------------------------------


def _rows_one(tracer, fn, args, kwargs):
    tracer._count("mmspace.dist_rows", 1)
    return fn(*args, **kwargs)


def _rows_ids(tracer, fn, args, kwargs):
    ids = args[1] if len(args) > 1 else kwargs["ids"]
    tracer._count("mmspace.dist_rows", len(ids))
    return fn(*args, **kwargs)


_ROW_COUNTERS = {"dist_row": _rows_one, "dist_block": _rows_ids,
                 "submatrix": _rows_ids, "distance": None}


def _around_materialize(tracer, fn, args, kwargs):
    space = args[0]
    before = space.is_dense
    out = fn(*args, **kwargs)
    if not before and space.is_dense:
        tracer._count("mmspace.dist_rows", space.n)
        tracer._count("mmspace.materialized_mb", space.n * space.n * 8 / MB)
    return out


def _around_oracle(tracer, fn, args, kwargs):
    space = args[0] if args else kwargs["space"]
    tracer._count("concentration.oracle_masks", 2 ** space.n)
    return fn(*args, **kwargs)


def _around_emd(tracer, fn, args, kwargs):
    import numpy as np

    mu = args[1] if len(args) > 1 else kwargs["mu"]
    nu = args[2] if len(args) > 2 else kwargs["nu"]
    m = int(np.count_nonzero(np.asarray(mu, dtype=float) > 0))
    k = int(np.count_nonzero(np.asarray(nu, dtype=float) > 0))
    if m > 1 and k > 1:
        tracer._count("transport.lp_vars", m * k)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        return fn(*args, **kwargs)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        if started:
            tracemalloc.stop()
        tracer._peak("transport.alloc_peak_mb", peak / MB)
