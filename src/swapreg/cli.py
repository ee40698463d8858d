"""Experiment runner CLI.

Subcommands:
  run        -- execute a configured run; write trajectory/history CSVs,
                checkpoint regrets, and the final regret report JSON
  eval       -- recompute the regret report offline from a history CSV
  lowerbound -- preset: preconditioned learner vs the combined adversary
  selftest   -- fast invariant suite, one PASS/FAIL line each

Exit codes: 0 success, 2 config error, 3 runtime fault.  CSV floats use 17
significant digits so identical configs reproduce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import functools
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import adversary as adv_mod
from . import engine, evaluate, john, polydim
from .errors import SwapregError, UnsupportedSet
from .sets import ConvexSet, set_from_spec

log = logging.getLogger("swapreg")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _setup_logging():
    level = os.environ.get("SWAPREG_LOG", "error").upper()
    logging.basicConfig(level=getattr(logging, level, logging.ERROR),
                        format="%(levelname)s %(name)s: %(message)s")


class ConfigError(Exception):
    pass


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc


def _default_checkpoints(T: int) -> list[int]:
    pts = []
    k = 1
    while k < T:
        pts.append(k)
        k *= 2
    pts.append(T)
    return pts


def _build_adversary(spec: dict, lset: ConvexSet, T: int, seed: int):
    name = spec.get("name", spec.get("adversary", "iid_vertex"))
    aseed = int(spec.get("seed", seed))
    if name in ("iid", "iid_vertex"):
        return adv_mod.IidVertexAdversary(lset, aseed)
    if name == "iid_interior":
        return adv_mod.IidInteriorAdversary(lset, aseed)
    if name == "replay":
        return adv_mod.ReplayAdversary(np.array(spec["losses"], dtype=float))
    if name == "movement":
        return adv_mod.MovementAdversary(int(spec["d"]), T)
    if name == "punishment":
        return adv_mod.PunishmentAdversary(int(spec["d"]), aseed)
    if name == "combined":
        return adv_mod.CombinedAdversary(int(spec["d"]), T, aseed)
    raise ConfigError(f"unknown adversary {name!r}")


def _eps_to_iters(eps_schedule, base_iters: int, T: int):
    """Map an eps schedule to per-round FPL budgets (heuristic 1/eps^2)."""
    if eps_schedule is None:
        return None
    if isinstance(eps_schedule, (int, float)):
        eps_list = [float(eps_schedule)] * T
    else:
        eps_list = [float(e) for e in eps_schedule]
        if len(eps_list) != T:
            raise ConfigError("eps_schedule must be scalar or length T")

    def schedule(t: int) -> int:
        e = max(eps_list[t - 1], 1e-6)
        return max(16, min(int(math.ceil(1.0 / (e * e))), 10 ** 6))

    return schedule


def _run_from_config(cfg: dict):
    """Validate a run config before any round is played.

    Returns (start, adversary, checkpoints, name), where start() runs the
    configured learner and returns its Trajectory.
    """
    try:
        pset = set_from_spec(cfg["set"])
        loss_spec = cfg.get("loss_set", "polar")
        lset = pset.polar() if loss_spec == "polar" else set_from_spec(loss_spec)
        T = int(cfg["T"])
        if T < 1:
            raise ConfigError("T must be >= 1")
        seed = int(cfg.get("seed", 0))
        alg = cfg.get("algorithm", {"name": "alg1"})
        if isinstance(alg, str):
            alg = {"name": alg}
        name = alg.get("name", "alg1")
        checkpoints = cfg.get("checkpoints", "auto")
        if checkpoints == "auto":
            checkpoints = _default_checkpoints(T)
        elif checkpoints is None:
            checkpoints = []
        checkpoints = sorted(set(int(c) for c in checkpoints))
        if checkpoints and (checkpoints[0] < 1 or checkpoints[-1] > T):
            raise ConfigError("checkpoints must lie in [1, T]")
        if name in ("alg2", "alg2_preconditioned"):
            john.john_precondition(pset)  # validate support before running
        adversary = _build_adversary(cfg.get("adversary", {}), lset, T, seed)

        exact = False
        if name == "alg1":
            exact = True
            start = functools.partial(engine.run, pset, lset, T, adversary,
                                      solver="exact", seed=seed)
        elif name in ("alg2", "alg2_preconditioned"):
            solver = alg.get("solver", "exact")
            exact = solver == "exact"
            start = functools.partial(
                engine.run_preconditioned, pset, lset, T, adversary, solver=solver,
                fpl_iters=int(alg.get("iters", 1000)),
                normalized=alg.get("normalized"), seed=seed)
        elif name in ("alg4", "alg4_approx"):
            iters = int(alg.get("iters", 1000))
            schedule = _eps_to_iters(alg.get("eps_schedule"), iters, T)
            start = functools.partial(engine.run, pset, lset, T, adversary, solver="fpl",
                                      fpl_iters=iters, seed=seed,
                                      fpl_iters_schedule=schedule)
        elif name in ("alg3", "alg3_poly"):
            fmap = polydim.monomial_map(pset.dim, int(alg.get("degree", 2)))
            pset.vertex_array(cap=256)  # poly_step seeds its pool with these
            start = functools.partial(polydim.poly_run, pset, lset, T, adversary, fmap,
                                      do_iters=int(alg.get("do_iters", 8)), seed=seed)
        else:
            raise ConfigError(f"unknown algorithm {name!r}")
        if exact:
            # saddle.solve_exact enumerates both sets (at the default cap)
            pset.vertex_array()
            lset.vertex_array()
    except (KeyError, ValueError, UnsupportedSet, SwapregError) as exc:
        raise ConfigError(f"{type(exc).__name__}: {exc}") from exc
    return start, adversary, checkpoints, name


def _write_trajectory_csv(traj, path: Path, truncated: bool = False,
                          adversary=None):
    cols = ["t", "invariant_value", "game_gap", "game_value", "inst_loss", "cert_norm"]
    poly = traj.pool_sizes is not None
    if poly:
        cols.append("pool_size")
    adv_seed = getattr(adversary, "seed", None)
    adv_name = type(adversary).__name__ if adversary is not None else "unknown"
    with open(path, "w") as fh:
        fh.write(f"# seed={traj.seed} adversary={adv_name} adversary_seed={adv_seed} "
                 f"mode={traj.mode}\n")
        fh.write(",".join(cols) + "\n")
        for i, r in enumerate(traj.rounds):
            row = [str(r.t), _fmt(r.invariant_value), _fmt(r.game_gap),
                   _fmt(r.game_value), _fmt(r.inst_loss), _fmt(r.cert_norm)]
            if poly:
                row.append(str(traj.pool_sizes[i]))
            fh.write(",".join(row) + "\n")
        if truncated:
            fh.write("truncated\n")


def _write_history_csv(traj, path: Path, truncated: bool = False):
    _, plays, losses = traj.original_frame()
    d = plays.shape[1]
    cols = ["t"] + [f"p_{i + 1}" for i in range(d)] + [f"l_{i + 1}" for i in range(d)]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for t in range(plays.shape[0]):
            row = [str(t + 1)] + [_fmt(v) for v in plays[t]] + [_fmt(v) for v in losses[t]]
            fh.write(",".join(row) + "\n")
        if truncated:
            fh.write("truncated\n")


def _write_checkpoints_csv(traj, checkpoints, path: Path):
    pset, plays, losses = traj.original_frame()
    with open(path, "w") as fh:
        fh.write("t,linear_swap_regret,external_regret,app_loss_cert\n")
        for t in checkpoints:
            hist = evaluate.PlayHistory(pset, traj.lset_original or traj.lset,
                                        plays[:t], losses[:t])
            try:
                lsr, _ = evaluate.linear_swap_regret(hist, validate=False)
            except SwapregError:
                lsr = float("nan")
            ext = evaluate.external_regret(hist)
            cert = traj.rounds[t - 1].cert_norm
            fh.write(f"{t},{_fmt(lsr)},{_fmt(ext)},{_fmt(cert)}\n")


def _report_dict(report: evaluate.RegretReport) -> dict:
    return {
        "linear_swap": report.linear_swap,
        "external": report.external,
        "app_loss_cert": report.app_loss_cert,
        "profile_swap_dist_cert": report.profile_swap_dist_cert,
        "bound_8d_sqrtT": report.bound_8d_sqrtT,
        "frobenius_max_observed": report.frobenius_max_observed,
        "deviation": {"M": report.deviation.M.tolist(),
                      "a": report.deviation.a.tolist()},
    }


def _verdict_line(name: str, traj, report=None) -> str:
    if report is not None and name in ("alg2", "alg2_preconditioned"):
        margin = report.bound_8d_sqrtT - report.linear_swap
        status = "SATISFIED" if margin >= 0 else "VIOLATED"
        return f"8d√T bound: {status} margin={_fmt(margin)}"
    margin = traj.certificate_bound - traj.certificate
    status = "SATISFIED" if margin >= -1e-9 else "VIOLATED"
    return f"2B/√T certificate: {status} margin={_fmt(margin)}"


def cmd_run(args) -> int:
    try:
        cfg = _load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        start, adversary, checkpoints, name = _run_from_config(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        traj = start()
    except SwapregError as exc:
        if exc.partial is not None:
            _write_trajectory_csv(exc.partial, out / "trajectory.csv", truncated=True,
                                  adversary=adversary)
            _write_history_csv(exc.partial, out / "history.csv", truncated=True)
        print(f"runtime fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    log.info("run complete: T=%d mode=%s certificate=%.6g", traj.T, traj.mode,
             traj.certificate)
    _write_trajectory_csv(traj, out / "trajectory.csv", adversary=adversary)
    _write_history_csv(traj, out / "history.csv")
    try:
        _write_checkpoints_csv(traj, checkpoints, out / "checkpoints.csv")
        pset, plays, losses = traj.original_frame()
        hist = evaluate.PlayHistory(pset, traj.lset_original or traj.lset, plays, losses,
                                    mixtures=traj.mixtures)
        report = evaluate.make_report(hist, traj)
        (out / "report.json").write_text(json.dumps(_report_dict(report), indent=2))
        print(_verdict_line(name, traj, report))
    except (SwapregError, ValueError) as exc:  # ValueError: the history check failed
        print(f"runtime fault during evaluation: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def cmd_eval(args) -> int:
    try:
        cfg = _load_config(args.config)
        pset = set_from_spec(cfg["set"])
        loss_spec = cfg.get("loss_set", "polar")
        lset = pset.polar() if loss_spec == "polar" else set_from_spec(loss_spec)
    except (ConfigError, KeyError, ValueError, SwapregError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    d = pset.dim
    try:
        rows = [line.strip() for line in open(args.history) if line.strip()]
        header = rows[0].split(",")
        expected = ["t"] + [f"p_{i + 1}" for i in range(d)] + [f"l_{i + 1}" for i in range(d)]
        if header != expected:
            print("config error: history schema mismatch", file=sys.stderr)
            return EXIT_CONFIG
        data = np.array([[float(v) for v in r.split(",")[1:]] for r in rows[1:]
                         if not r.startswith("truncated")])
        plays, losses = data[:, :d], data[:, d:]
    except (OSError, ValueError, IndexError) as exc:
        print(f"config error: bad history csv: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    hist = evaluate.PlayHistory(pset, lset, plays, losses)
    try:
        hist.validate()
    except ValueError as exc:
        print(f"runtime fault: AdversaryFault: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    try:
        report = evaluate.make_report(hist)
    except SwapregError as exc:
        print(f"runtime fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    payload = json.dumps(_report_dict(report), indent=2)
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "report.json").write_text(payload)
    print(payload)
    return EXIT_OK


def cmd_lowerbound(args) -> int:
    d = args.d
    T = 16 * d * d * (d + 1) * (d + 1)
    pset = adv_mod.CombinedAdversary.strategy_set(d)
    lset = adv_mod.CombinedAdversary.loss_set(d)
    adversary = adv_mod.CombinedAdversary(d, T, seed=args.seed or 0)
    iters = args.iters or max(96, 384 // max(d // 4, 1))
    try:
        traj = engine.run_preconditioned(pset, lset, T, adversary, solver="fpl",
                                         fpl_iters=iters, seed=args.seed or 0)
    except SwapregError as exc:
        print(f"runtime fault: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    result = adv_mod.combined_certified_regret(adversary)
    _, plays, losses = traj.original_frame()
    hist = evaluate.PlayHistory(pset, lset, plays, losses)
    ext = evaluate.external_regret(hist)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    _write_trajectory_csv(traj, out / "trajectory.csv", adversary=adversary)
    _write_history_csv(traj, out / "history.csv")
    payload = {
        "d": d, "T": T,
        "certified_regret": result["value"],
        "x_part": result["x_part"],
        "p_part": result["p_part"],
        "punishment_part": result["punishment_part"],
        "external_regret": ext,
        "terminated": result["terminated"],
        "certificate": traj.certificate,
        "deviation": {"M": result["deviation"].M.tolist(),
                      "a": result["deviation"].a.tolist()},
    }
    (out / "lowerbound.json").write_text(json.dumps(payload, indent=2))
    print(f"certified linear swap regret: {_fmt(result['value'])} "
          f"(external {_fmt(ext)}, d√T={_fmt(d * math.sqrt(T))})")
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import selftest
    return selftest.run_selftest()


def _run_sweep_cell(cell: dict) -> int:
    ns = argparse.Namespace(config=cell["config"], out=cell["out"],
                            seed=cell.get("seed"))
    return cmd_run(ns)


def cmd_sweep(args) -> int:
    try:
        cells = _load_config(args.sweep)
        if not isinstance(cells, list):
            raise ConfigError("sweep file must hold a list of cells")
        for i, cell in enumerate(cells):
            if "config" not in cell or "out" not in cell:
                raise ConfigError(f"sweep cell {i} needs 'config' and 'out'")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    workers = min(len(cells), os.cpu_count() or 1)
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        codes = list(pool.map(_run_sweep_cell, cells))
    for cell, code in zip(cells, codes):
        print(f"{cell['out']}: exit {code}")
    return EXIT_OK if all(c == EXIT_OK for c in codes) else EXIT_RUNTIME


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="swapreg",
                                     description="swap-regret experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured run")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", required=True)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_eval = sub.add_parser("eval", help="re-evaluate a recorded history")
    p_eval.add_argument("--history", required=True)
    p_eval.add_argument("--config", required=True, help="JSON with set/loss_set specs")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_lb = sub.add_parser("lowerbound", help="combined-adversary preset")
    p_lb.add_argument("--d", type=int, default=4)
    p_lb.add_argument("--out", required=True)
    p_lb.add_argument("--seed", type=int, default=0)
    p_lb.add_argument("--iters", type=int, default=None)
    p_lb.set_defaults(func=cmd_lowerbound)

    p_self = sub.add_parser("selftest", help="run the invariant suites")
    p_self.set_defaults(func=cmd_selftest)

    p_sweep = sub.add_parser("sweep", help="run independent cells concurrently")
    p_sweep.add_argument("--sweep", required=True)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
