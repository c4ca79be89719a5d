"""Command-line surface: check, recalibrate, simulate, oracle.

Exit codes for `check`: 0 when the PPC passes, 2 when it fails (p-value is
exactly 0 or 1), 1 on any error. Other commands: 0 on success, 1 on error.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys

import numpy as np

from . import __version__, analytic, io, oracle, ppc, recalibrate
from . import statistics as st
from .predictive import InvalidParameterError


def _build_statistic(args, kind: str):
    name = args.statistic
    if name == "ece":
        stat = ppc.EceStatistic(bins=st.BinningConfig(num_bins=args.bins))
    elif name == "accuracy":
        stat = ppc.AccuracyStatistic()
    elif name == "calibration":
        levels = st.QuantileSet.default_levels(args.quantiles)
        stat = ppc.CalibrationErrorStatistic(quantiles=st.QuantileSet(levels))
    elif name == "picp":
        stat = ppc.PicpStatistic(lower=args.picp_low, upper=args.picp_high)
    else:
        raise InvalidParameterError(f"unknown statistic {name!r}")
    if stat.kind != kind:
        raise st.KindMismatchError(
            f"statistic {name!r} needs {stat.kind} predictions, file is {kind}")
    return stat


def cmd_check(args) -> int:
    preds, header = io.load_predictions(args.predictions)
    labels = io.load_labels(args.labels, preds.kind)
    if labels.size != preds.num_rows:
        raise io.FileFormatError(
            f"label count {labels.size} does not match {preds.num_rows} rows")
    statistic = _build_statistic(args, preds.kind)
    mode = ppc.parse_mode(args.mode)
    report = ppc.run_ppc(preds, None, labels, statistic, mode,
                         num_replicates=args.replications, seed=args.seed)
    payload = report.to_dict()
    payload["version"] = __version__
    payload["inputs"] = {"predictions": io.file_digest(args.predictions),
                         "labels": io.file_digest(args.labels)}
    if args.out:
        io.save_report(args.out, payload)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} statistic={report.statistic} mode={report.mode} "
          f"observed={report.observed:.6g} p_value={report.p_value:.6g} "
          f"sharpness={report.sharpness:.6g}")
    pct = report.percentiles
    print(f"  replicated percentiles: p5={pct['p5']:.6g} p25={pct['p25']:.6g} "
          f"p50={pct['p50']:.6g} p75={pct['p75']:.6g} p95={pct['p95']:.6g}")
    return 0 if report.passed else 2


def cmd_recalibrate(args) -> int:
    preds, header = io.load_predictions(args.predictions)
    if preds.kind != st.CLASSIFICATION:
        raise st.KindMismatchError("recalibration needs classification predictions")
    labels = io.load_labels(args.labels, preds.kind)
    if header["values"] == "logits":
        logits = preds.logits
    elif args.allow_log_probs:
        logits = np.log(np.clip(preds.class_probs(), 1e-300, None))
    else:
        raise recalibrate.UnsupportedInputError(
            "prediction file carries probabilities; temperature fitting needs "
            "logits (pass --allow-log-probs to use log-probabilities instead)")
    (recal_preds, recal_labels), (eval_preds, eval_labels) = \
        recalibrate.split_recalibration(
            st.EnsemblePredictions.from_logits(logits), labels, args.fraction)
    temps = recalibrate.fit_temperatures(recal_preds.logits, recal_labels)
    io.atomic_write_text(args.out_temps, json.dumps(
        {"temperatures": list(temps.values)}, indent=2) + "\n")
    scaled = recalibrate.apply_temperatures(eval_preds.logits, temps)
    io.save_predictions(args.out_predictions,
                        st.EnsemblePredictions.from_probs(scaled))
    print(f"fitted {len(temps.values)} temperatures on "
          f"{recal_labels.size} rows; wrote {eval_labels.size} recalibrated rows")
    return 0


def _simulate_location(args, out_dir: str) -> None:
    rng = np.random.default_rng(args.seed)
    m = args.models
    theta_draws = rng.standard_normal(m)              # prior over the location
    labels = args.theta_true + rng.standard_normal(args.n)
    means = np.tile(theta_draws, (args.n, 1))
    stds = np.ones_like(means)
    io.save_predictions(os.path.join(out_dir, "predictions_bayes.jsonl"),
                        st.EnsemblePredictions.from_gaussians(means, stds))
    marginal = st.EnsemblePredictions.from_gaussians(
        np.zeros((args.n, 1)), np.full((args.n, 1), math.sqrt(2.0)))
    io.save_predictions(os.path.join(out_dir, "predictions_marginal.jsonl"), marginal)
    io.save_labels(os.path.join(out_dir, "labels.csv"), labels)


def _simulate_quadratic(args, out_dir: str) -> None:
    cfg = analytic.QuadraticDatasetConfig(n=args.n, seed=args.seed,
                                          noise_is_std=args.noise_as_std)
    x_train, y_train, x_ood, y_ood = analytic.generate_quadratic_dataset(cfg)
    io.atomic_write_text(os.path.join(out_dir, "train_inputs.csv"),
                         "x\n" + "\n".join(repr(float(v)) for v in x_train) + "\n")
    io.save_labels(os.path.join(out_dir, "train_labels.csv"), y_train)
    ens_cfg = analytic.BayesianLinearEnsembleConfig(
        num_models=args.models, noise_var=cfg.noise_std ** 2, seed=args.seed)
    x_id, y_id, _, _ = analytic.generate_quadratic_dataset(
        dataclasses.replace(cfg, n=200, seed=args.seed + 1))
    for tag, xs, ys in (("id", x_id, y_id), ("ood", x_ood, y_ood)):
        preds = analytic.bayesian_linear_ensemble(ens_cfg, x_train, y_train, xs)
        io.save_predictions(os.path.join(out_dir, f"{tag}_predictions.jsonl"), preds)
        io.save_labels(os.path.join(out_dir, f"{tag}_labels.csv"), ys)


def _simulate_conjugate(args, out_dir: str) -> None:
    model = analytic.ConjugateNormalModel()
    rng = np.random.default_rng(args.seed)
    if args.data is not None:
        observed = np.asarray([float(v) for v in args.data.split(",")])
    else:
        observed = args.theta_true + rng.standard_normal(args.n)
    mu, tau2 = analytic.conjugate_posterior(model, observed)
    predictive = analytic.posterior_predictive(mu, tau2, model.noise_var)
    labels = args.theta_true + math.sqrt(model.noise_var) * rng.standard_normal(args.n)
    exact = st.EnsemblePredictions.from_gaussians(
        np.full((args.n, 1), predictive.mean), np.full((args.n, 1), predictive.stddev))
    io.save_predictions(os.path.join(out_dir, "predictions.jsonl"), exact)
    theta_draws = mu + math.sqrt(tau2) * rng.standard_normal(args.models)
    ensemble = st.EnsemblePredictions.from_gaussians(
        np.tile(theta_draws, (args.n, 1)),
        np.full((args.n, args.models), math.sqrt(model.noise_var)))
    io.save_predictions(os.path.join(out_dir, "ensemble_predictions.jsonl"), ensemble)
    io.save_labels(os.path.join(out_dir, "labels.csv"), labels)


def cmd_simulate(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    if args.scenario == "location":
        _simulate_location(args, args.out_dir)
    elif args.scenario == "quadratic":
        _simulate_quadratic(args, args.out_dir)
    elif args.scenario == "conjugate":
        _simulate_conjugate(args, args.out_dir)
    else:
        raise InvalidParameterError(f"unknown scenario {args.scenario!r}")
    print(f"wrote {args.scenario} scenario files to {args.out_dir}")
    return 0


def cmd_oracle(args) -> int:
    preds, _ = io.load_predictions(args.predictions)
    labels = io.load_labels(args.labels, preds.kind)
    statistic = _build_statistic(args, preds.kind)
    mode = ppc.parse_mode(args.mode)
    pmf = oracle.exact_statistic_distribution(
        preds, None, statistic, mode,
        budget=oracle.EnumerationBudget(max_outcomes=args.budget))
    observed = float(statistic.evaluate(st.validate_labels(preds, labels),
                                        pmf.context))
    print(json.dumps({"values": pmf.values.tolist(),
                      "masses": pmf.masses.tolist(),
                      "observed": observed}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppc-uq",
        description="Posterior predictive checks for models with model uncertainty")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_statistic_flags(p):
        p.add_argument("--statistic", required=True,
                       choices=["ece", "calibration", "picp", "accuracy"])
        p.add_argument("--mode", required=True,
                       help="bayesian | independent | point:IDX")
        p.add_argument("--bins", type=int, default=15)
        p.add_argument("--quantiles", type=int, default=100)
        p.add_argument("--picp-low", type=float, default=0.025)
        p.add_argument("--picp-high", type=float, default=0.975)

    check = sub.add_parser("check", help="run a posterior predictive check")
    check.add_argument("--predictions", required=True)
    check.add_argument("--labels", required=True)
    add_statistic_flags(check)
    check.add_argument("--replications", type=int, default=1000)
    check.add_argument("--seed", type=int, default=0)
    check.add_argument("--out", default=None)
    check.set_defaults(func=cmd_check)

    recal = sub.add_parser("recalibrate", help="fit per-model temperatures")
    recal.add_argument("--predictions", required=True)
    recal.add_argument("--labels", required=True)
    recal.add_argument("--fraction", type=float, default=0.2)
    recal.add_argument("--out-temps", required=True)
    recal.add_argument("--out-predictions", required=True)
    recal.add_argument("--allow-log-probs", action="store_true")
    recal.set_defaults(func=cmd_recalibrate)

    sim = sub.add_parser("simulate", help="emit synthetic scenario files")
    sim.add_argument("--scenario", required=True,
                     choices=["location", "quadratic", "conjugate"])
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--models", type=int, default=1000)
    sim.add_argument("--theta-true", type=float, default=0.5)
    sim.add_argument("--data", default=None,
                     help="conjugate scenario: comma-separated observations")
    sim.add_argument("--noise-as-std", action="store_true",
                     help="treat the quadratic noise constant as a stddev")
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=cmd_simulate)

    orc = sub.add_parser("oracle", help="exact statistic PMF by enumeration")
    orc.add_argument("--predictions", required=True)
    orc.add_argument("--labels", required=True)
    add_statistic_flags(orc)
    orc.add_argument("--budget", type=int, default=1_000_000)
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except oracle.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (io.FileFormatError, InvalidParameterError, st.KindMismatchError,
            st.EmptyInputError, recalibrate.UnsupportedInputError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
