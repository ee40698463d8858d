"""Self-test of the benchmark harness; exits nonzero if a check fails.

    python3 benchmarks/selftest.py

1. Every wrapped call site records at least one call on the workloads that
   use it, so a refactor that moves a call fails here instead of reporting
   0 s in the traced run.
2. Nested `Product` / `LinearImage` LMO closures and nested set oracles are
   counted once per outermost call.
3. Traced and untraced runs of each workload give the same fingerprint (the
   history and the final certificate): tracing observes, it does not steer.

Each workload runs twice at its benchmark size, so this takes about a minute.
"""

from __future__ import annotations

import math
import sys
import time

import numpy as np

import tracing
from workload import MODULES, WORKLOADS, input_seed, run_workload, sets

# Call sites each workload must reach.  Class sites are per set type: the
# preconditioned loops see their loss set as a LinearImage.
EXPECTED_SITES = {
    "exact_cube4": [
        "lp._solve_lp_once", "saddle.solve_lp", "evaluate.solve_lp",
        "saddle.solve_matrix_game", "engine.solve_exact", "engine.john_precondition",
        "engine.step", "evaluate.linear_swap_regret", "evaluate.make_report",
        "Ball.lmo", "Ball.contains", "Ball.vertex_array", "LinearImage.lmo",
        "LinearImage.contains", "LinearImage.vertex_array"],
    "fpl_combined3": [
        "lp._solve_lp_once", "evaluate.solve_lp", "engine.solve_fpl",
        "engine.john_precondition", "john.mvee_symmetric", "engine.step",
        "evaluate.linear_swap_regret", "adversary.linear_swap_regret",
        "adversary.combined_certified_regret", "Ball.fast_lmo", "Product.fast_lmo",
        "LinearImage.fast_lmo", "Product.lmo", "Product.contains", "LinearImage.contains"],
    "poly_square2": [
        "lp._solve_lp_once", "saddle.solve_lp", "evaluate.solve_lp",
        "polydim.solve_matrix_game", "polydim.poly_step", "polydim.best_response_point",
        "FeatureMap.evaluate", "evaluate.polydim_regret_lower", "evaluate.make_report",
        "evaluate.linear_swap_regret", "Ball.lmo", "Ball.contains", "Ball.vertex_array"],
}
# Module-level sites no workload reaches today; they are wrapped so that a
# caller switching to them is still traced.
UNUSED_MODULE_SITES = {"lp.solve_lp", "sets.solve_lp"}


def check_call_sites(traced: dict) -> list[str]:
    errors = []
    for name, tracer in traced.items():
        for site in EXPECTED_SITES[name]:
            if site not in tracer.sites:
                errors.append(f"{name}: {site} is not wrapped")
            elif not tracer.site_calls.get(site):
                errors.append(f"{name}: {site} recorded no call")
    any_tracer = next(iter(traced.values()))
    expected = {s for sites in EXPECTED_SITES.values() for s in sites}
    for site in any_tracer.sites:
        if site[0].islower() and site not in expected | UNUSED_MODULE_SITES:
            errors.append(f"{site} is wrapped but no workload is expected to reach it")
    return errors


def check_nested_lmo() -> list[str]:
    tracer = tracing.Tracer("nested-lmo")
    uninstall = tracing.install(tracer, MODULES)
    try:
        inner = sets.Product((sets.Ball(1.0, 2), sets.Ball(math.inf, 2)))
        image = sets.LinearImage(np.diag([2.0, 1.0, 0.5, 3.0]), inner)
        outer = sets.Product((image, sets.Ball(math.inf, 1)))
        closure = outer.fast_lmo()
        c = np.array([0.3, -1.0, 0.2, 0.7, -0.4])
        for _ in range(25):
            closure(c)
        for _ in range(7):
            outer.lmo(c)
            outer.contains(c)
    finally:
        uninstall()
    code, _, _, _, _ = tracer.arrays()
    counts = {name: int((code == i).sum()) for i, name in enumerate(tracer.names)}
    errors = []
    if counts.get("sets.lmo") != 32:
        errors.append(f"nested LMO counted {counts.get('sets.lmo')} times, expected 32")
    if counts.get("sets.contains") != 7:
        errors.append(f"nested contains counted {counts.get('sets.contains')} times, "
                      "expected 7")
    return errors


def main() -> int:
    failures = 0

    def report(name: str, errors: list[str]):
        nonlocal failures
        print(f"{'PASS' if not errors else 'FAIL'} {name}")
        for e in errors:
            print(f"    {e}")
        failures += bool(errors)

    report("nested LMO closures and set oracles counted once", check_nested_lmo())

    traced, fingerprint_errors = {}, []
    for name in WORKLOADS:
        seed = input_seed(name, None)
        plain = run_workload(name, seed, time.monotonic())
        tracer = tracing.Tracer(f"selftest-{name}")
        uninstall = tracing.install(tracer, MODULES)
        try:
            traced_run = run_workload(name, seed, time.monotonic(), tracer)
        finally:
            uninstall()
        traced[name] = tracer
        for rec in (plain, traced_run):
            if not rec["correct"]:
                fingerprint_errors.append(f"{name}: a run failed its checks: "
                                          f"{rec.get('error', rec.get('checks'))}")
        pair = [(r.get("fingerprint"), r.get("certificate_17g")) for r in (plain, traced_run)]
        if pair[0] != pair[1]:
            fingerprint_errors.append(f"{name}: untraced {pair[0]} != traced {pair[1]}")
        print(f"     {name}: fingerprint {pair[0][0]} certificate {pair[0][1]}")
    report("traced and untraced runs give the same fingerprint", fingerprint_errors)
    report("every wrapped call site is reached by the workloads that use it",
           check_call_sites(traced))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
