"""Per-layer spans and counters for one `ges` CLI run, taken from outside.

Nothing under src/ges is changed: `install` wraps each layer's public
functions and rebinds every module-level name (and class attribute) that
refers to them, so calls made through any import path are seen.  A span
records its duration; a layer's self time is that duration minus the time
of the spans nested inside it, so the self times of all layers add up to
the wall time of the outermost span (`cli`).

Runs are single-threaded (`--threads 1`), so one span stack suffices.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

SPANS = ("cli", "seed", "evolution.pullback", "evolution.evolve",
         "evolution.energy_check", "evolution.compose", "solver",
         "kernels.advection", "space.state", "space.pack", "kernels.cross",
         "omega.net", "omega.survive", "serialize", "verify", "symbols",
         "util.pool")

COUNTS = ("cli.artifact_bytes", "seed.calls", "evolution.pullback.calls",
          "evolution.pullback.states", "evolution.evolve.calls",
          "evolution.compose.calls", "solver.solves", "solver.nfev",
          "solver.span_time", "solver.t_eval_points", "kernels.advection.calls",
          "kernels.advection.terms", "space.state.calls", "space.pack.calls",
          "space.pack.states", "space.pack.bytes", "kernels.cross.calls",
          "kernels.cross.pairs", "kernels.cross.cells", "omega.net.candidates",
          "omega.net.kept", "omega.survive.survivors", "serialize.states",
          "symbols.per_symbol_calls", "util.pool.calls", "util.pool.jobs")


class Tracer:
    """Self time per layer and named counters, kept in memory."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._child = [0.0]  # time covered by finished child spans, per open span

    def span(self, layer, fn, count=None):
        """fn wrapped in a span of `layer`; count(counts, result, *args) adds counters."""

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            self._child.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    count(self.counts, result, *args, **kwargs)
                return result
            finally:
                dur = perf_counter() - t0
                self.self_s[layer] += dur - self._child.pop()
                self._child[-1] += dur

        return wrapped

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric, the trace's own two excepted."""
        c = self.counts
        out = {name: c[name] for name in COUNTS}
        out.update({f"{layer}.self_s": self.self_s[layer] for layer in SPANS})
        out["kernels.cross.pairs_per_call"] = (
            c["kernels.cross.pairs"] / c["kernels.cross.calls"]
            if c["kernels.cross.calls"] else 0.0)
        out["omega.survive.yield"] = (
            c["omega.survive.survivors"] / c["omega.net.kept"]
            if c["omega.net.kept"] else 0.0)
        out["trace.coverage"] = sum(self.self_s.values()) / wall_s
        return out


def _rebind(orig, wrapped) -> None:
    """Point every `ges.*` module-level name bound to orig at wrapped."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ges" or name.startswith("ges.")):
            continue
        for key, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, key, wrapped)


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


def _wrap_methods(tracer, layer, classes, names, count=None) -> None:
    for cls in classes:
        for name in names:
            if name in vars(cls):
                setattr(cls, name, tracer.span(layer, vars(cls)[name], count))


# -- counters -----------------------------------------------------------------


def _calls(key):
    def count(c, result, *args, **kwargs):
        c[key] += 1
    return count


def _count_pullback(c, ens, *args, **kwargs):
    c["evolution.pullback.calls"] += 1
    c["evolution.pullback.states"] += len(ens.entries)


def _count_solve(c, sol, fun, t_span, y0, **kwargs):
    c["solver.solves"] += 1
    c["solver.nfev"] += int(sol.nfev)
    c["solver.span_time"] += float(t_span[1]) - float(t_span[0])
    t_eval = kwargs.get("t_eval")
    c["solver.t_eval_points"] += 0 if t_eval is None else len(t_eval)


def _count_advection(c, out, vals, kvec, pair_out, *args):
    c["kernels.advection.calls"] += 1
    c["kernels.advection.terms"] += len(pair_out)


def _count_pack(c, packed, space, states, *args, **kwargs):
    c["space.pack.calls"] += 1
    c["space.pack.states"] += packed.n_states
    c["space.pack.bytes"] += sum(a.nbytes for a in (packed.idx, packed.vals, packed.qw,
                                                    packed.ww, packed.norms))


def _count_cross(c, out, av, bv, w):
    c["kernels.cross.calls"] += 1
    c["kernels.cross.pairs"] += av.shape[0] * bv.shape[0]
    c["kernels.cross.cells"] += av.shape[0] * bv.shape[0] * av.shape[1] * av.shape[2]


def _count_net(c, kept, packed, order, *args):
    c["omega.net.candidates"] += len(order)
    c["omega.net.kept"] += len(kept)


def _count_survive(c, survivors, *args):
    c["omega.survive.survivors"] += len(survivors)


def _count_pool(c, results, fn, items, *args, **kwargs):
    c["util.pool.calls"] += 1
    c["util.pool.jobs"] += len(results)


def install(tracer: Tracer):
    """Wrap every traced layer of the imported `ges` package; returns the
    wrapped `ges.cli.main`, the root span."""
    import ges.cli
    import ges.evolution
    import ges.kernels
    import ges.omega
    import ges.space
    import ges.symbols
    import ges.systems.nse
    import ges.util
    import ges.verify

    functions = [
        (ges.evolution, "pullback_image", "evolution.pullback", _count_pullback),
        (ges.evolution, "energy_inequality_check", "evolution.energy_check", None),
        (ges.evolution, "compose_check", "evolution.compose",
         _calls("evolution.compose.calls")),
        (ges.systems.nse, "solve_ivp", "solver", _count_solve),
        (ges.kernels, "nse_bilinear", "kernels.advection", _count_advection),
        (ges.kernels, "strong_cross", "kernels.cross", _count_cross),
        (ges.kernels, "weak_cross", "kernels.cross", _count_cross),
        (ges.space, "pack_states", "space.pack", _count_pack),
        (ges.space, "net_rows", "omega.net", _count_net),
        (ges.omega, "_net_and_survive", "omega.survive", _count_survive),
        (ges.space, "state_to_json", "serialize", _calls("serialize.states")),
        (ges.verify, "run_suite", "verify", None),
        (ges.symbols, "per_symbol_pullback", "symbols",
         _calls("symbols.per_symbol_calls")),
        (ges.symbols, "uniform_omega", "symbols", None),
        (ges.util, "parallel_map", "util.pool", _count_pool),
    ]
    for mod, name, layer, count in functions:
        fn = getattr(mod, name, None)
        if fn is None:  # a renamed layer reads 0 rather than breaking the run
            print(f"trace: {mod.__name__}.{name} not found", file=sys.stderr)
            continue
        _rebind(fn, tracer.span(layer, fn, count))

    families = _subclasses(ges.evolution.TrajectoryFamily)
    _wrap_methods(tracer, "evolution.evolve", families, ("evolve",),
                  _calls("evolution.evolve.calls"))
    _wrap_methods(tracer, "seed", families,
                  ("sample_states", "seed_labels", "seed_for"), _calls("seed.calls"))
    _wrap_methods(tracer, "space.state", [ges.space.DualMetricSpace], ("state",),
                  _calls("space.state.calls"))
    reports = [obj for mod in (ges.omega, ges.verify) for obj in vars(mod).values()
               if isinstance(obj, type) and obj.__module__ == mod.__name__]
    _wrap_methods(tracer, "serialize", reports, ("to_json",))
    return tracer.span("cli", ges.cli.main)
