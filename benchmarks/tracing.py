"""In-memory span recorder and the wrappers that trace swapreg from outside.

The library has no hooks of its own, so every layer is observed by replacing
the names its callers look up with wrappers that open a span around the call.
The package imports with ``from .x import y``; a function patched only on its
home module would be missed by every module that bound its own copy, so each
wrapper is installed on the consumer's name (``saddle.solve_lp``,
``evaluate.solve_lp``, ``engine.solve_exact``, ``polydim.solve_matrix_game``,
...).  `install` raises if one of those names has gone, so a refactor that
moves a call fails loudly instead of reporting 0 s.

A span records its name, start, end, parent span and the run it belongs to.
A span is not opened while another span of the same name is open: nested
`Product` / `LinearImage` LMO closures, and set oracles that call their
factors' oracles, are counted once, at the outermost call.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections.abc import Callable
from pathlib import Path

import numpy as np


class Tracer:
    """Spans and counters of one run, kept in memory until `save`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        self.code = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._open: set[str] = set()
        self.counts: dict[str, float] = {}
        self.sites: list[str] = []  # installed wrappers, as "<module or class>.<name>"
        self.site_calls: dict[str, int] = {}  # every wrapped call, nested ones too
        self.gaps: list[float] = []

    def add(self, key: str, value: float = 1.0):
        self.counts[key] = self.counts.get(key, 0.0) + value

    def maximum(self, key: str, value: float):
        self.counts[key] = max(self.counts.get(key, value), value)

    def is_open(self, name: str) -> bool:
        return name in self._open

    def call(self, name: str, fn, args, kwargs):
        if name in self._open:
            return fn(*args, **kwargs)
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.code.append(code)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(sid)
        self._open.add(name)
        self.start.append(time.monotonic())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[sid] = time.monotonic()
            self._stack.pop()
            self._open.discard(name)

    def arrays(self):
        """(code, parent, duration, self time, start) as numpy arrays."""
        code = np.frombuffer(self.code, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return code, parent, dur, dur - child, start

    def save(self, path: Path):
        """Write every span (name, start, end, parent, run id) to one .npz file."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path, names=np.array(self.names), run_id=np.array(self.run_id),
            code=np.frombuffer(self.code, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64))


def _arg(args, kwargs, index: int, key: str, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(key, default)


def install(tracer: Tracer, modules: dict) -> Callable[[], None]:
    """Wrap swapreg's layer boundaries; returns a function that undoes it.

    `modules` maps short names ("lp", "sets", ...) to the imported modules.
    """
    lp, sets, saddle = modules["lp"], modules["sets"], modules["saddle"]
    john, engine, polydim = modules["john"], modules["engine"], modules["polydim"]
    evaluate, adversary = modules["evaluate"], modules["adversary"]
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, make):
        site = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        if attr not in vars(owner):
            raise AttributeError(f"{site} is gone; the trace wrapper has nothing to wrap")
        orig = vars(owner)[attr]
        setattr(owner, attr, functools.wraps(orig)(make(orig, site)))
        undo.append((owner, attr, orig))
        tracer.sites.append(site)

    def span(name: str, after=None):
        def make(orig, site):
            def wrapper(*args, **kwargs):
                tracer.site_calls[site] = tracer.site_calls.get(site, 0) + 1
                out = tracer.call(name, orig, args, kwargs)
                if after is not None:
                    after(out, args, kwargs)
                return out
            return wrapper
        return make

    # lp ---------------------------------------------------------------
    def after_lp(sol, args, kwargs):
        tracer.add("lp.pivots", sol.iterations)
        if not sol.optimal:
            tracer.add("lp.non_optimal")
        problem = _arg(args, kwargs, 0, "problem")
        rows = sum(m.shape[0] for m in (problem.a_ub, problem.a_eq) if m is not None)
        tracer.maximum("lp.rows_max", rows)

    for consumer in (lp, saddle, evaluate, sets):
        patch(consumer, "solve_lp", span("lp.solve", after_lp))

    def once(orig, site):
        # solve_lp retries a NumericalFailure once with strict=True; from
        # outside, that retry is visible only as this call with strict set.
        def wrapper(*args, **kwargs):
            tracer.site_calls[site] = tracer.site_calls.get(site, 0) + 1
            if _arg(args, kwargs, 2, "strict", False):
                tracer.add("lp.strict_retries")
            return orig(*args, **kwargs)
        return wrapper

    patch(lp, "_solve_lp_once", once)

    # saddle -----------------------------------------------------------
    def after_exact(sp, args, kwargs):
        tracer.gaps.append(float(sp.gap))

    def after_fpl(sp, args, kwargs):
        tracer.gaps.append(float(sp.gap))
        tracer.add("saddle.fpl_iters", int(_arg(args, kwargs, 1, "iters")))

    def after_restricted(out, args, kwargs):
        tracer.add("polydim.restricted_games")

    patch(saddle, "solve_matrix_game", span("saddle.matrix_game"))
    patch(polydim, "solve_matrix_game", span("saddle.matrix_game", after_restricted))
    patch(engine, "solve_exact", span("saddle.exact", after_exact))
    patch(engine, "solve_fpl", span("saddle.fpl", after_fpl))

    # sets: methods are looked up on the class, so one patch per class
    # covers every consumer; fast_lmo closures get a wrapper of their own.
    def fast_lmo(orig, site):
        def wrapper(self):
            tracer.site_calls[site] = tracer.site_calls.get(site, 0) + 1
            closure = orig(self)
            return lambda c: tracer.call("sets.lmo", closure, (c,), {})
        return wrapper

    classes = [sets.ConvexSet]
    for cls in classes:
        classes.extend(c for c in cls.__subclasses__() if c not in classes)
    for cls in classes:
        for attr, name in (("lmo", "sets.lmo"), ("contains", "sets.contains"),
                           ("vertex_array", "sets.vertex_array")):
            if attr in vars(cls):
                patch(cls, attr, span(name))
        if "fast_lmo" in vars(cls):
            patch(cls, "fast_lmo", fast_lmo)

    # john -------------------------------------------------------------
    patch(engine, "john_precondition", span("john.precondition"))
    patch(john, "mvee_symmetric", span("john.mvee"))

    # engine and polydim loops -----------------------------------------
    patch(engine, "step", span("engine.step"))
    patch(polydim, "poly_step", span("polydim.step"))
    patch(polydim, "best_response_point", span("polydim.best_response"))

    def feature_eval(orig, site):
        def wrapper(*args, **kwargs):
            tracer.site_calls[site] = tracer.site_calls.get(site, 0) + 1
            if tracer.is_open("polydim.step"):
                tracer.add("polydim.feature_evals")
            return orig(*args, **kwargs)
        return wrapper

    patch(polydim.FeatureMap, "evaluate", feature_eval)

    # evaluate and adversary -------------------------------------------
    patch(evaluate, "linear_swap_regret", span("evaluate.lsr"))
    patch(adversary, "linear_swap_regret", span("evaluate.lsr"))
    patch(evaluate, "polydim_regret_lower", span("evaluate.polydim_lower"))
    patch(evaluate, "make_report", span("evaluate.report"))
    patch(adversary, "combined_certified_regret", span("adversary.certified_regret"))

    def uninstall():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        undo.clear()

    return uninstall


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def layer_metrics(tracer: Tracer, loop_start: float, loop_end: float, T: int,
                  do_iters: int | None = None, pool_final: int | None = None) -> dict:
    """Per-layer metrics of one traced run (seconds, counts, milliseconds)."""
    code, _, dur, self_t, start = tracer.arrays()
    codes = {name: i for i, name in enumerate(tracer.names)}

    def mask(name):
        return code == codes.get(name, -1)

    def count(name):
        return int(mask(name).sum())

    def self_s(name, within_loop=False):
        m = mask(name)
        if within_loop:
            m &= (start >= loop_start) & (start < loop_end)
        return float(self_t[m].sum())

    def total_s(name):
        return float(dur[mask(name)].sum())

    def ms(name, q):
        return 1e3 * _pct(dur[mask(name)], q)

    c = tracer.counts
    solves = count("lp.solve")
    rounds = count("polydim.step")
    loop_s = loop_end - loop_start
    out = {
        "lp.solves": solves,
        "lp.self_s": self_s("lp.solve"),
        "lp.pivots": int(c.get("lp.pivots", 0)),
        "lp.pivots_per_solve": c.get("lp.pivots", 0) / solves if solves else 0.0,
        "lp.solve_ms_p50": ms("lp.solve", 50),
        "lp.solve_ms_p99": ms("lp.solve", 99),
        "lp.rows_max": int(c.get("lp.rows_max", 0)),
        "lp.strict_retries": int(c.get("lp.strict_retries", 0)),
        "lp.non_optimal": int(c.get("lp.non_optimal", 0)),
        "saddle.matrix_games": count("saddle.matrix_game"),
        "saddle.matrix_game_self_s": self_s("saddle.matrix_game"),
        "saddle.exact_self_s": self_s("saddle.exact"),
        "saddle.fpl_solves": count("saddle.fpl"),
        "saddle.fpl_iters": int(c.get("saddle.fpl_iters", 0)),
        "saddle.fpl_self_s": self_s("saddle.fpl"),
        "saddle.gap_mean": float(np.mean(tracer.gaps)) if tracer.gaps else 0.0,
        "sets.lmo_calls": count("sets.lmo"),
        "sets.lmo_self_s": self_s("sets.lmo"),
        "sets.contains_calls": count("sets.contains"),
        "sets.contains_self_s": self_s("sets.contains"),
        "sets.vertex_array_calls": count("sets.vertex_array"),
        "sets.vertex_array_self_s": self_s("sets.vertex_array"),
        "john.precondition_s": total_s("john.precondition"),
        "john.mvee_calls": count("john.mvee"),
        "john.mvee_s": total_s("john.mvee"),
        "engine.rounds": count("engine.step"),
        "engine.step_self_s": self_s("engine.step"),
        "engine.step_ms_p50": ms("engine.step", 50),
        "engine.step_ms_p99": ms("engine.step", 99),
        "polydim.rounds": rounds,
        "polydim.step_self_s": self_s("polydim.step"),
        "polydim.best_response_calls": count("polydim.best_response"),
        "polydim.best_response_self_s": self_s("polydim.best_response"),
        "polydim.feature_evals": int(c.get("polydim.feature_evals", 0)),
        "polydim.do_iters_per_round": (c.get("polydim.restricted_games", 0) / (rounds * do_iters)
                                       if rounds and do_iters else 0.0),
        "polydim.pool_final": int(pool_final or 0),
        "evaluate.lsr_calls": count("evaluate.lsr"),
        "evaluate.lsr_self_s": self_s("evaluate.lsr"),
        "evaluate.polydim_lower_self_s": self_s("evaluate.polydim_lower"),
        "evaluate.report_s": total_s("evaluate.report"),
        "adversary.calls": count("adversary.call"),
        "adversary.self_s": self_s("adversary.call"),
        "adversary.certified_regret_s": total_s("adversary.certified_regret"),
        "trace.loop_s": loop_s,
        "trace.rounds_per_s": T / loop_s,
    }
    saddle_lp = sum(self_s(n, True) for n in
                    ("lp.solve", "saddle.matrix_game", "saddle.exact", "saddle.fpl"))
    lmo_fpl = self_s("sets.lmo", True) + self_s("saddle.fpl", True)
    out["trace.saddle_lp_loop_share"] = saddle_lp / loop_s
    out["trace.lmo_fpl_loop_share"] = lmo_fpl / loop_s
    return out
