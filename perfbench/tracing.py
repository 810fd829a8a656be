"""Span tracer for the homesale benchmark.

Spans are taken from outside the package: each public function that one
layer calls in another is replaced, at the name the *calling* module
binds, by a wrapper that records (span name, start, end, parent span).
A layer is the homesale module a span's name starts with.  Counts that
the package computes and then drops (solver evaluations, NHPP
candidates, MC replications) are read from arguments and return values
at the same boundaries.

Spans stay in memory during the call and are written out once, by
Tracer.save, after it.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

LAYERS = ("cli", "closed_form", "owt", "stochastic", "path_payoff",
          "quadrature", "market_sim", "oracle")


class Tracer:
    def __init__(self):
        self.names: list[str] = []     # span id -> name
        self._ids: dict[str, int] = {}
        self.kind: list[int] = []      # per span: index into names
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self._stack = [-1]
        self.counters: Counter = Counter()
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, span: str, observe=None, prepare=None) -> None:
        """Replace owner.attr (or owner[attr] for a dict) with a span wrapper.

        prepare(args, kwargs) may return replacement arguments;
        observe(result, args) reads counts off the call.  A binding that
        no longer exists is recorded in self.missing, not raised.
        """
        is_dict = isinstance(owner, dict)
        fn = owner.get(attr) if is_dict else getattr(owner, attr, None)
        if fn is None:
            where = "dict" if is_dict else getattr(owner, "__name__", "?")
            self.missing.append(f"{where}.{attr}")
            return
        kid = self._ids.setdefault(span, len(self._ids))
        if kid == len(self.names):
            self.names.append(span)
        kind, parent, start, end, stack = (self.kind, self.parent, self.start,
                                           self.end, self._stack)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(args, kwargs)
            idx = len(kind)
            kind.append(kid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                observe(result, args)
            return result

        wrapper.__wrapped__ = fn
        if is_dict:
            owner[attr] = wrapper
        else:
            setattr(owner, attr, wrapper)

    def span_table(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (count, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        child spans.
        """
        kind = np.asarray(self.kind, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end) - np.asarray(self.start)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child
        out = {}
        for kid, name in enumerate(self.names):
            sel = kind == kid
            out[name] = (int(sel.sum()), float(dur[sel].sum()), float(self_t[sel].sum()))
        return out

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), kind=np.asarray(self.kind),
                            parent=np.asarray(self.parent), start=np.asarray(self.start),
                            end=np.asarray(self.end))


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the CLI commands cross."""
    from homesale import cli, market_sim, oracle, owt, path_payoff

    c = tracer.counters

    def on_solve(res, _args):
        c["owt.solves"] += 1
        c["owt.evals"] += res.evaluations
        c["owt.boundary_hits"] += int(res.boundary)
        c["owt.unimodality_violations"] += int(res.diff_sign_changes > 1)

    def on_cir(path, _args):
        c["stochastic.cir_steps"] += path.values.size - 1

    def count_candidates(args, kwargs):
        # the thinning sampler calls intensity() on its candidate array
        def counting(f):
            def counted(x):
                c["stochastic.nhpp_candidates"] += int(np.size(x))
                return f(x)
            return counted
        if args:
            return (counting(args[0]),) + tuple(args[1:]), kwargs
        return args, {**kwargs, "intensity": counting(kwargs["intensity"])}

    def on_nhpp(arrivals, _args):
        c["stochastic.nhpp_accepted"] += int(np.size(arrivals))

    def on_attempt(att, _args):
        c["market_sim.offers"] += len(att.offers)
        c["market_sim.sales"] += int(att.outcome.sold)

    def on_mc(est, _args):
        c["oracle.replications"] += est.n

    def on_report(report, _args):
        c["oracle.checks_failed_3sigma"] += len(report.failures)
        c["oracle.low_power_rows"] += sum(1 for r in report.rows if r.low_power)

    w = tracer.wrap
    w(cli, "main", "cli.main")
    w(cli, "sweep_owt", "owt.sweep")
    for mod in (cli, owt, market_sim):
        w(mod, "optimal_waiting_time", "owt.solve", observe=on_solve)
    for mod, names in ((owt, ["expected_utility"]), (market_sim, ["expected_utility"]),
                       (cli, ["expected_utility", "listed_payoff", "listed_payoff_exact",
                              "thinned_payoff"]),
                       (oracle, ["auxiliary_payoff", "thinned_payoff", "listed_payoff",
                                 "listed_payoff_exact"])):
        for name in names:
            w(mod, name, "closed_form.call")
    for mod in (cli, market_sim, path_payoff, oracle):
        w(mod, "simulate_cir", "stochastic.cir", observe=on_cir)
    w(market_sim, "sample_nhpp", "stochastic.nhpp", observe=on_nhpp,
      prepare=count_candidates)
    w(market_sim, "run_sale_attempt", "market_sim.attempt", observe=on_attempt)
    w(market_sim, "run_evolution", "market_sim.evolution")
    w(market_sim, "expected_price_curve", "market_sim.price_curve")
    w(path_payoff, "expected_payoff", "path_payoff.expected")
    w(path_payoff, "conditional_payoff", "path_payoff.dispatch")
    modes = getattr(path_payoff, "_MODES", {})
    for mode in ("changing", "constant", "none"):
        w(modes, mode, "path_payoff.conditional")
    for name in ("conditional_payoff_changing_list", "conditional_payoff_constant_list",
                 "conditional_payoff_no_list"):
        w(oracle, name, "path_payoff.conditional")
    w(path_payoff, "simpson_nodes", "quadrature.simpson_nodes")
    w(oracle, "mc_auxiliary_payoff", "oracle.aux", observe=on_mc)
    w(oracle, "mc_listed_payoff", "oracle.listed", observe=on_mc)
    w(oracle, "mc_path_payoff", "oracle.path", observe=on_mc)
    w(oracle, "validate_all", "oracle.validate_all", observe=on_report)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced call (cli.rows_written excepted)."""
    table = tracer.span_table()
    c = tracer.counters

    def count(span):
        return table.get(span, (0, 0.0, 0.0))[0]

    def incl(span):
        return table.get(span, (0, 0.0, 0.0))[1]

    def self_s(span):
        return table.get(span, (0, 0.0, 0.0))[2]

    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, (_, _, s) in table.items():
        layer_self[name.split(".", 1)[0]] += s
    mc_s = incl("oracle.aux") + incl("oracle.listed") + incl("oracle.path")
    m = {f"{layer}.self_s": layer_self[layer] for layer in LAYERS}
    m.update({
        "closed_form.calls": count("closed_form.call"),
        "owt.solves": c["owt.solves"],
        "owt.evals": c["owt.evals"],
        "owt.boundary_hits": c["owt.boundary_hits"],
        "owt.unimodality_violations": c["owt.unimodality_violations"],
        "stochastic.cir_calls": count("stochastic.cir"),
        "stochastic.cir_steps": c["stochastic.cir_steps"],
        "stochastic.cir_s": incl("stochastic.cir"),
        "stochastic.cir_ns_per_step": 1e9 * _ratio(incl("stochastic.cir"),
                                                   c["stochastic.cir_steps"]),
        "stochastic.nhpp_calls": count("stochastic.nhpp"),
        "stochastic.nhpp_candidates": c["stochastic.nhpp_candidates"],
        "stochastic.nhpp_accepted": c["stochastic.nhpp_accepted"],
        "stochastic.nhpp_accept_ratio": _ratio(c["stochastic.nhpp_accepted"],
                                               c["stochastic.nhpp_candidates"]),
        "stochastic.nhpp_s": incl("stochastic.nhpp"),
        "path_payoff.conditional_calls": count("path_payoff.conditional"),
        "path_payoff.conditional_s": incl("path_payoff.conditional"),
        "path_payoff.expected_self_s": self_s("path_payoff.expected"),
        "quadrature.simpson_nodes_calls": count("quadrature.simpson_nodes"),
        "market_sim.attempts": count("market_sim.attempt"),
        "market_sim.attempt_self_s": self_s("market_sim.attempt"),
        "market_sim.offers": c["market_sim.offers"],
        "market_sim.sale_ratio": _ratio(c["market_sim.sales"], count("market_sim.attempt")),
        "market_sim.evolution_self_s": self_s("market_sim.evolution"),
        "oracle.replications": c["oracle.replications"],
        "oracle.aux_s": incl("oracle.aux"),
        "oracle.listed_s": incl("oracle.listed"),
        "oracle.path_s": incl("oracle.path"),
        "oracle.replications_per_s": _ratio(c["oracle.replications"], mc_s),
        "oracle.checks_failed_3sigma": c["oracle.checks_failed_3sigma"],
        "oracle.low_power_rows": c["oracle.low_power_rows"],
        "trace.spans": len(tracer.kind),
        "trace.missing_bindings": len(tracer.missing),
    })
    return m
