"""swapreg benchmark: one workload, repeated in fresh processes for --seconds.

    python3 benchmarks/run.py --workload exact_cube4 --seed 4 --seconds 35 --trace 0

Run from the root of a source checkout; the library is imported from
./src.  Each repetition is a fresh `workload.py` process with one BLAS
thread, run one at a time.  Repetitions continue while the next one is
expected to finish within --seconds (at least one runs).  Every repetition
uses the same seed, hence the same inputs; timings are medians over the
repetitions, and round latencies are pooled over them before taking
percentiles.  Round latencies are main-thread CPU time (unit `cpu_ms`);
their wall-clock percentiles go to the record only.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The exit code is 0 only if
every repetition passed every correctness check.  A full record (machine,
per-repetition verdicts and fingerprints) goes to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_RUNS = 5  # extra set-up-only processes per untraced run, for setup_s

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "rounds_per_s": "1/s", "round_ms_p50": "cpu_ms",
    "round_ms_p99": "cpu_ms", "eval_s": "s", "peak_rss_mb": "MB", "mean_eps": "payoff",
}


def layer_unit(name: str) -> str:
    if name.endswith("rounds_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith(("_share", "_per_round", "_per_solve")):
        return "ratio"
    if name == "saddle.gap_mean":
        return "payoff"
    return "count"


def run_rep(args, rep: int, deadline: float, setup_only: bool = False) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", args.workload,
           "--trace", str(args.trace), "--rep", str(rep)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=env, cwd=ROOT, capture_output=True,
                          text=True, timeout=max(deadline - t0, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["process_s"] = time.monotonic() - t0
    return rec


def p50_p99(reps: list[dict], key: str) -> tuple[float, float]:
    """Percentiles of the round latencies of all repetitions, pooled."""
    cuts = statistics.quantiles([x for r in reps for x in r[key]], n=100, method="inclusive")
    return cuts[49], cuts[98]


def summarize(reps: list[dict], setups: list[dict], trace: int) -> dict:
    timed = [r for r in reps if "metrics" in r]
    if trace:
        names = timed[0]["layers"]
        return {k: {"value": statistics.median(r["layers"][k] for r in timed),
                    "unit": layer_unit(k)} for k in names}
    metrics = {k: statistics.median(r["metrics"][k] for r in timed)
               for k in timed[0]["metrics"]}
    metrics["setup_s"] = statistics.median(
        [r["metrics"]["setup_s"] for r in timed] + [s["setup_s"] for s in setups])
    metrics["round_ms_p50"], metrics["round_ms_p99"] = p50_p99(timed, "round_ms")
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "swapreg" / "__init__.py").is_file():
        print(f"no swapreg sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    reps: list[dict] = []
    setups: list[dict] = []
    try:
        if not args.trace:
            for i in range(SETUP_RUNS):
                setups.append(run_rep(args, i, start + DEADLINE_S, setup_only=True))
        while True:
            reps.append(run_rep(args, len(reps), start + DEADLINE_S))
            elapsed = time.monotonic() - start
            typical = statistics.median(r["process_s"] for r in reps)
            if elapsed + typical > args.seconds or elapsed + 2 * typical > DEADLINE_S:
                break
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark aborted: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    first = reps[0]
    print(f"machine: {json.dumps(first['machine'])}")
    for i, r in enumerate(reps):
        verdict = "PASS" if r["correct"] else "FAIL"
        print(f"rep {i}: {verdict} seed={r['seed']} T={r['T']} failed={r['failed']}/"
              f"{r['attempted']} checks={json.dumps(r.get('checks', {}))} "
              f"error={r.get('error', '')!s}")
        if "fingerprint" in r:
            print(f"rep {i}: fingerprint sha256={r['fingerprint']} "
                  f"certificate={r['certificate_17g']} bound={r['certificate_bound']:.17g}")
    result = {
        "correct": all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
    }
    timed = [r for r in reps if "metrics" in r]
    if not timed:
        print("no repetition completed its run", file=sys.stderr)
    result["metrics"] = summarize(reps, setups, args.trace) if timed else {}
    rounds = sum(len(r["round_ms"]) for r in timed)
    print(f"{args.workload}: {len(timed)} repetitions (medians), {rounds} round latencies pooled"
          + ("" if args.trace else f", setup_s over {len(timed) + len(setups)} set-ups"))
    for k, m in result["metrics"].items():
        print(f"  {k:34s} {m['value']:.6g} {m['unit']}")
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, requested_seed=args.seed, trace=args.trace,
                  machine=first["machine"],
                  reps=[{k: v for k, v in r.items() if k not in ("round_ms", "round_wall_ms")}
                        for r in reps])
    if timed:
        record["round_wall_ms_p50"], record["round_wall_ms_p99"] = p50_p99(timed, "round_wall_ms")
    (OUT / f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] and timed else 1


if __name__ == "__main__":
    sys.exit(main())
