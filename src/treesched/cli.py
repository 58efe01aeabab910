"""Command-line driver: optimization, simulation, and the benchmark study.

Exit codes: 0 success, 2 infeasible or divergent problem or malformed,
non-finite or out-of-range input, 3 file errors, 4 property-suite failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys as _sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import replace
from types import SimpleNamespace

import numpy as np

from . import properties
from .baseline import best_deterministic
from .decompose import decompose
from .errors import InvalidInput, SchedulingError
from .lowerbound import bound_sequence
from .model import as_integer, indicator, load_model, save_model
from .polytope import FeasibleSet
from .protocol import simulate_run
from .riccati import asymptotic_expected_trace, expected_trace_curve, sample_path
from .scheduler import greedy_optimize
from .testbed import DiffusionConfig, config_from_dict, random_instance

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


def _members(members) -> str:
    return ";".join(str(i) for i in sorted(members))


@contextmanager
def _table(path, header):
    """Open the CSV table at ``path``, write its header row and yield the
    writer. If the body raises, the file is removed, so a failed command
    leaves no partial table."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        try:
            writer = csv.writer(fh)
            writer.writerow(header)
            yield writer
        except BaseException:
            fh.close()
            os.remove(path)
            raise


def cmd_optimize(args) -> int:
    sys_, tree = load_model(args.model)
    fs = FeasibleSet(tree, args.budget)
    gt = greedy_optimize(sys_, fs)
    if args.out:
        with _table(args.out, ["outer_iter", "trace_L", *(f"p_{i}" for i in range(1, tree.m + 1))]) as w:
            w.writerows([k, _fmt(it.trace), *map(_fmt, it.p)] for k, it in enumerate(gt.iterates))
    print("p_star", ",".join(_fmt(v) for v in gt.p_star))
    print("trace_L_inf", _fmt(gt.trace_L_inf))
    print("outer_iterations", len(gt.iterates) - 1)
    print("converged", gt.converged)
    return EXIT_OK


def cmd_decompose(args) -> int:
    _, tree = load_model(args.model)
    dist = decompose(tree, _parse_marginals(args.p))
    if args.out:
        with _table(args.out, ["tree_id", "member_list", "probability"]) as w:
            w.writerows([j, _members(members), _fmt(prob)] for j, (members, prob) in enumerate(dist))
    for members, prob in dist:
        print("tree", _members(members) or "-", _fmt(prob))
    return EXIT_OK


def cmd_simulate(args) -> int:
    _, tree = load_model(args.model)
    p = _parse_marginals(args.p)
    if args.out:
        with _table(args.out, ["round", "alpha", "selected_members", "energy", "packet_count"]) as w:
            def log(k, o):
                w.writerow([k, _fmt(o.alpha), _members(o.selected), _fmt(o.energy), len(o.transmissions)])

            run = simulate_run(tree, p, args.seed, args.rounds, on_round=log)
    else:
        run = simulate_run(tree, p, args.seed, args.rounds)
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
        with _table(args.out, ["tree_members", "energy", "trace_P_inf"]) as w:
            w.writerows(
                [_members(members), _fmt(energy), "" if tr is None else _fmt(tr)]
                for members, energy, tr in result.candidates
            )
    print("members", _members(result.members) or "-")
    print("energy", _fmt(result.energy))
    print("trace_P_inf", _fmt(result.trace))
    return EXIT_OK


def _read_config(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise InvalidInput(f"a config must be a JSON object, got {type(doc).__name__}")
    return doc


def cmd_diffusion(args) -> int:
    if args.config:
        doc = _read_config(args.config)
        cfg = config_from_dict(doc.get("diffusion", doc))
    else:
        cfg = DiffusionConfig(seed=args.seed)
    inst = random_instance(cfg)
    save_model(args.out, inst.system, inst.tree)
    if args.positions:
        with _table(args.positions, ["sensor", "x1", "x2"]) as w:
            w.writerows([i, _fmt(x), _fmt(y)] for i, (x, y) in enumerate(inst.positions, start=1))
    print("n", inst.system.n)
    print("m", inst.system.m)
    print("attempts", inst.attempts)
    print("total_cost", _fmt(float(inst.tree.cost.sum())))
    return EXIT_OK


# Integer fields of an experiment config: (default, smallest allowed value).
_EXPERIMENT_INTS = dict(
    trials=(100, 0), seed=(0, 0), mc_trials=(1000, 1), burn_in=(80, 0), horizon=(160, 1),
    rounds=(2000, 0), path_steps=(200, 0), path_mc_trials=(400, 2),
)


def _experiment_settings(doc) -> SimpleNamespace:
    """Parse and range-check an experiment config once, before any trial runs:
    its integer fields plus ``diffusion``, the DiffusionConfig of every trial."""
    ints = {}
    for name, (default, low) in _EXPERIMENT_INTS.items():
        value = doc.get(name, default)
        ints[name] = as_integer(value, name)
        if ints[name] < low:
            raise InvalidInput(f"{name} must be >= {low}, got {value!r}")
    if ints["seed"] + ints["trials"] > 2**64:
        raise InvalidInput(f"need seed + trials <= 2**64, got {ints['seed']} + {ints['trials']}")
    if ints["burn_in"] >= ints["horizon"]:
        raise InvalidInput(f"need burn_in < horizon, got {ints['burn_in']} >= {ints['horizon']}")
    return SimpleNamespace(**ints, diffusion=config_from_dict(doc.get("diffusion", {})))


def _experiment_trial(payload) -> dict:
    """One benchmark trial; must stay module-level for process pools."""
    settings, trial = payload
    seed = settings.seed + trial
    last_error = "unknown"
    for attempt in range(3):
        try:
            cfg = replace(settings.diffusion, seed=seed + 1_000_003 * attempt)
            inst = random_instance(cfg)
            fs = FeasibleSet(inst.tree, cfg.budget)
            gt = greedy_optimize(inst.system, fs)
            dist = decompose(inst.tree, gt.p_star)
            run = simulate_run(inst.tree, gt.p_star, seed=seed, rounds=settings.rounds)
            stoch = asymptotic_expected_trace(
                inst.system, inst.tree, dist, settings.burn_in, settings.horizon, settings.mc_trials, seed
            )
            det = best_deterministic(inst.system, inst.tree, cfg.budget)
            return {
                "trial": trial,
                "ok": True,
                "ratio": det.trace / stoch,
                "trace_deterministic": det.trace,
                "trace_stochastic": stoch,
                "mean_energy": run.mean_energy,
                "cfg_seed": cfg.seed,
                "p_star": gt.p_star.tolist(),
                "det_members": sorted(det.members),
            }
        except SchedulingError as exc:
            last_error = f"{type(exc).__name__}: {exc}"
    return {"trial": trial, "ok": False, "error": last_error}


def _figure_paths(settings: SimpleNamespace, trial_row: dict, out_dir) -> None:
    """Covariance-trace evolution for the instance of one ok trial row: its
    deterministic schedule, one random sample path, and the Monte Carlo mean
    under its optimized schedule, per step."""
    inst = random_instance(replace(settings.diffusion, seed=trial_row["cfg_seed"]))
    dist = decompose(inst.tree, trial_row["p_star"])
    steps, seed = settings.path_steps, settings.seed

    weights = indicator(trial_row["det_members"], inst.system.m)
    det_traces = [float(np.trace(Lk)) for Lk in bound_sequence(inst.system, [weights] * steps)[1:]]
    sample = sample_path(inst.system, inst.tree, dist, seed=seed, steps=steps)
    mc_mean, _ = expected_trace_curve(inst.system, inst.tree, dist, steps, settings.path_mc_trials, seed + 1)

    header = ["step", "trace_deterministic", "trace_sample_path", "trace_mc_mean"]
    with _table(f"{out_dir}/trace_path.csv", header) as w:
        w.writerows([k, *map(_fmt, row)] for k, row in enumerate(zip(det_traces, sample.traces, mc_mean), 1))


def cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise InvalidInput(f"--jobs must be >= 1, got {args.jobs}")
    settings = _experiment_settings(_read_config(args.config))
    payloads = [(settings, t) for t in range(settings.trials)]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_experiment_trial, payloads))
    else:
        rows = [_experiment_trial(p) for p in payloads]

    ok_rows = [r for r in rows if r["ok"]]
    skipped = [r for r in rows if not r["ok"]]
    for r in skipped:
        print(f"trial {r['trial']} skipped: {r['error']}", file=_sys.stderr)

    columns = ["ratio", "trace_deterministic", "trace_stochastic", "mean_energy"]
    with _table(f"{args.out_dir}/ratios.csv", ["trial", *columns]) as w:
        w.writerows([r["trial"], *(_fmt(r[c]) for c in columns)] for r in ok_rows)
    if ok_rows:
        _figure_paths(settings, ok_rows[0], args.out_dir)
        ratios = np.array([r["ratio"] for r in ok_rows])
        print("trials_ok", len(ok_rows))
        print("trials_skipped", len(skipped))
        print("mean_ratio", _fmt(ratios.mean()))
        print("fraction_ratio_ge_1", _fmt(float((ratios >= 1.0).mean())))
    if len(skipped) > 0.1 * settings.trials:
        print("too many skipped trials", file=_sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = properties.run_all()
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
