"""Command-line driver: optimization, simulation, and the benchmark study.

Exit codes: 0 success, 2 infeasible or divergent problem or malformed,
non-finite or out-of-range input, 3 file errors, 4 property-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys as _sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import properties
from .baseline import best_deterministic, write_candidates_csv
from .decompose import decompose, write_distribution_csv
from .errors import InvalidInput, SchedulingError
from .lowerbound import bound_sequence
from .model import indicator, load_model, save_model
from .polytope import FeasibleSet
from .protocol import simulate_run
from .riccati import asymptotic_expected_trace, expected_trace_curve, sample_path
from .scheduler import greedy_optimize, write_greedy_csv
from .testbed import (
    DiffusionConfig,
    config_from_dict,
    random_instance,
    write_positions_csv,
)

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_IO = 3
EXIT_PROPERTIES = 4


def _parse_marginals(text: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in text.split(",") if tok.strip() != ""])
    except ValueError:
        raise InvalidInput(f"marginals must be comma-separated numbers, got {text!r}") from None


def _fmt(x: float) -> str:
    return repr(float(x))


def cmd_optimize(args) -> int:
    sys_, tree = load_model(args.model)
    fs = FeasibleSet(tree, args.budget)
    gt = greedy_optimize(sys_, fs)
    if args.out:
        write_greedy_csv(args.out, gt)
    print("p_star", ",".join(_fmt(v) for v in gt.p_star))
    print("trace_L_inf", _fmt(gt.trace_L_inf))
    print("outer_iterations", len(gt.iterates) - 1)
    print("converged", gt.converged)
    return EXIT_OK


def cmd_decompose(args) -> int:
    _, tree = load_model(args.model)
    dist = decompose(tree, _parse_marginals(args.p))
    if args.out:
        write_distribution_csv(args.out, dist)
    for members, prob in dist:
        print("tree", ";".join(str(i) for i in sorted(members)) or "-", _fmt(prob))
    return EXIT_OK


def cmd_simulate(args) -> int:
    _, tree = load_model(args.model)
    run = simulate_run(tree, _parse_marginals(args.p), args.seed, args.rounds, log_path=args.out)
    print("rounds", run.rounds)
    print("empirical_marginals", ",".join(_fmt(v) for v in run.empirical_marginals))
    print("mean_energy", _fmt(run.mean_energy))
    print("control_messages", run.control_messages)
    print("distinct_trees", len(run.tree_counts))
    return EXIT_OK


def cmd_baseline(args) -> int:
    sys_, tree = load_model(args.model)
    result = best_deterministic(sys_, tree, args.budget)
    if args.out:
        write_candidates_csv(args.out, result)
    print("members", ";".join(str(i) for i in sorted(result.members)) or "-")
    print("energy", _fmt(result.energy))
    print("trace_P_inf", _fmt(result.trace))
    return EXIT_OK


def cmd_diffusion(args) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        cfg = config_from_dict(doc.get("diffusion", doc))
    else:
        cfg = DiffusionConfig(seed=args.seed)
    inst = random_instance(cfg)
    save_model(args.out, inst.system, inst.tree)
    if args.positions:
        write_positions_csv(args.positions, inst.positions)
    print("n", inst.system.n)
    print("m", inst.system.m)
    print("attempts", inst.attempts)
    print("total_cost", _fmt(float(inst.tree.cost.sum())))
    return EXIT_OK


def _experiment_trial(payload) -> dict:
    """One benchmark trial; must stay module-level for process pools."""
    doc, trial = payload
    base_seed = int(doc.get("seed", 0))
    mc_trials = int(doc.get("mc_trials", 1000))
    burn_in = int(doc.get("burn_in", 80))
    horizon = int(doc.get("horizon", 160))
    rounds = int(doc.get("rounds", 2000))
    diffusion = dict(doc.get("diffusion", {}))
    last_error = "unknown"
    for attempt in range(3):
        try:
            diffusion["seed"] = base_seed + trial + 1_000_003 * attempt
            cfg = config_from_dict(diffusion)
            inst = random_instance(cfg)
            fs = FeasibleSet(inst.tree, cfg.budget)
            gt = greedy_optimize(inst.system, fs)
            dist = decompose(inst.tree, gt.p_star)
            run = simulate_run(inst.tree, gt.p_star, seed=base_seed + trial, rounds=rounds)
            if run.control_messages != 0:
                raise SchedulingError("protocol sent coordination traffic")
            stoch = asymptotic_expected_trace(
                inst.system, inst.tree, dist, burn_in, horizon, mc_trials, seed=base_seed + trial
            )
            det = best_deterministic(inst.system, inst.tree, cfg.budget)
            return {
                "trial": trial,
                "ok": True,
                "ratio": det.trace / stoch,
                "trace_deterministic": det.trace,
                "trace_stochastic": stoch,
                "mean_energy": run.mean_energy,
                "cfg_seed": diffusion["seed"],
                "p_star": gt.p_star.tolist(),
                "det_members": sorted(det.members),
            }
        except SchedulingError as exc:
            last_error = f"{type(exc).__name__}: {exc}"
    return {"trial": trial, "ok": False, "error": last_error}


def _figure_paths(doc: dict, trial_row: dict, out_dir) -> None:
    """Covariance-trace evolution for the instance of one ok trial row: its
    deterministic schedule, one random sample path, and the Monte Carlo mean
    under its optimized schedule, per step."""
    diffusion = dict(doc.get("diffusion", {}))
    diffusion["seed"] = trial_row["cfg_seed"]
    inst = random_instance(config_from_dict(diffusion))
    dist = decompose(inst.tree, trial_row["p_star"])
    steps = int(doc.get("path_steps", 200))
    path_trials = int(doc.get("path_mc_trials", 400))
    seed = int(doc.get("seed", 0))

    weights = indicator(trial_row["det_members"], inst.system.m)
    det_traces = [float(np.trace(Lk)) for Lk in bound_sequence(inst.system, [weights] * steps)[1:]]
    sample = sample_path(inst.system, inst.tree, dist, seed=seed, steps=steps)
    mc_mean, _ = expected_trace_curve(inst.system, inst.tree, dist, steps, path_trials, seed=seed + 1)

    with open(f"{out_dir}/trace_path.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "trace_deterministic", "trace_sample_path", "trace_mc_mean"])
        for k in range(steps):
            writer.writerow([k + 1, _fmt(det_traces[k]), _fmt(sample.traces[k]), _fmt(mc_mean[k])])


def cmd_experiment(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    trials = int(doc.get("trials", 100))
    payloads = [(doc, t) for t in range(trials)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_experiment_trial, payloads))
    else:
        rows = [_experiment_trial(p) for p in payloads]
    rows.sort(key=lambda r: r["trial"])

    ok_rows = [r for r in rows if r["ok"]]
    skipped = [r for r in rows if not r["ok"]]
    for r in skipped:
        print(f"trial {r['trial']} skipped: {r['error']}", file=_sys.stderr)

    with open(f"{args.out_dir}/ratios.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "ratio", "trace_deterministic", "trace_stochastic", "mean_energy"])
        for r in ok_rows:
            writer.writerow(
                [
                    r["trial"],
                    _fmt(r["ratio"]),
                    _fmt(r["trace_deterministic"]),
                    _fmt(r["trace_stochastic"]),
                    _fmt(r["mean_energy"]),
                ]
            )
    if ok_rows:
        _figure_paths(doc, ok_rows[0], args.out_dir)
        ratios = np.array([r["ratio"] for r in ok_rows])
        print("trials_ok", len(ok_rows))
        print("trials_skipped", len(skipped))
        print("mean_ratio", _fmt(ratios.mean()))
        print("fraction_ratio_ge_1", _fmt(float((ratios >= 1.0).mean())))
    if len(skipped) > 0.1 * trials:
        print("too many skipped trials", file=_sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = properties.run_all(verbose=True)
    failures = [name for name, err in results if err is not None]
    if failures:
        print(f"{len(failures)} checks failed", file=_sys.stderr)
        return EXIT_PROPERTIES
    print(f"all {len(results)} checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treesched",
        description="Stochastic sensor-selection scheduling on tree networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="optimize marginal selection probabilities")
    p.add_argument("model", help="model JSON file")
    p.add_argument("--budget", type=float, required=True, help="expected energy budget per round")
    p.add_argument("--out", help="CSV of bound traces and iterates")
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("decompose", help="marginals -> distribution over subtrees")
    p.add_argument("model")
    p.add_argument("--p", required=True, help="comma-separated marginals")
    p.add_argument("--out", help="CSV of support trees and probabilities")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("simulate", help="run the shared-seed selection protocol")
    p.add_argument("model")
    p.add_argument("--p", required=True, help="comma-separated marginals")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rounds", type=int, default=10000)
    p.add_argument("--out", help="per-round CSV log")
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("baseline", help="exhaustive best fixed deterministic tree")
    p.add_argument("model")
    p.add_argument("--budget", type=float, required=True)
    p.add_argument("--out", help="CSV of all evaluated candidates")
    p.set_defaults(fn=cmd_baseline)

    p = sub.add_parser("diffusion", help="generate a diffusion benchmark model")
    p.add_argument("--config", help="JSON config (diffusion parameters)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="model JSON output path")
    p.add_argument("--positions", help="sensor positions CSV output path")
    p.set_defaults(fn=cmd_diffusion)

    p = sub.add_parser("experiment", help="full stochastic-vs-deterministic study")
    p.add_argument("--config", required=True, help="JSON experiment config")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--jobs", type=int, default=1, help="concurrent trial workers")
    p.set_defaults(fn=cmd_experiment)

    p = sub.add_parser("selftest", help="run the numeric property suite")
    p.set_defaults(fn=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SchedulingError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_INFEASIBLE
    except (OSError, json.JSONDecodeError) as exc:
        print(f"file error: {exc}", file=_sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    raise SystemExit(main())
