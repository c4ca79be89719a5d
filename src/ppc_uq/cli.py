"""Command-line surface: check, recalibrate, simulate, oracle.

Exit codes for `check`: 0 when the PPC passes, 2 when it fails (p-value is
exactly 0 or 1), 1 on any error. Other commands: 0 on success, 1 on error.
A command imports only the modules it runs; `main` has every object frozen at exit.
"""
from __future__ import annotations

import argparse
import atexit
import gc
import json
import math
import os
import sys

import numpy as np

from . import __version__, io, ppc
from . import statistics as st
from .predictive import parse_number


STATISTICS = {
    "ece": lambda args: ppc.EceStatistic(bins=st.BinningConfig(num_bins=args.bins)),
    "calibration": lambda args: ppc.CalibrationErrorStatistic(
        quantiles=st.QuantileSet(st.QuantileSet.default_levels(args.quantiles))),
    "picp": lambda args: ppc.PicpStatistic(lower=args.picp_low, upper=args.picp_high),
    "accuracy": lambda args: ppc.AccuracyStatistic(),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):   # a usage error exits 1 through `main`, not 2 (FAIL)
        raise ValueError(message)


# argparse types, named for argparse's messages
def integer(text: str) -> int:
    return parse_number(text, integer=True)


def number(text: str) -> float:
    return parse_number(text, finite=True)


def numbers(text: str) -> list:
    """Comma-separated `number`s; the error names the first bad one."""
    try:
        return [number(v) for v in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _load_run(args) -> tuple:
    """Statistic and mode from the flags, then predictions and labels, of a `check`
    or `oracle` run. Labels are checked against the predictions as they are read;
    whether the statistic and the mode fit, by the library calls they go to, before
    any work."""
    statistic, mode = STATISTICS[args.statistic](args), ppc.parse_mode(args.mode)
    preds, _ = io.load_predictions(args.predictions)
    return preds, io.load_labels(args.labels, preds), statistic, mode


def cmd_check(args) -> int:
    preds, labels, statistic, mode = _load_run(args)
    report = ppc.run_ppc(preds, None, labels, statistic, mode,
                         num_replicates=args.replications, seed=args.seed)
    payload = dict(report.to_dict(), version=__version__,
                   inputs={"predictions": io.file_digest(args.predictions),
                           "labels": io.file_digest(args.labels)})
    if args.out:
        io.save_report(args.out, payload)
    print(f"{'PASS' if report.passed else 'FAIL'} statistic={report.statistic} "
          f"mode={report.mode} observed={report.observed:.6g} "
          f"p_value={report.p_value:.6g} sharpness={report.sharpness:.6g}")
    print("  replicated percentiles: "
          + " ".join(f"{k}={v:.6g}" for k, v in report.percentiles.items()))
    return 0 if report.passed else 2


def cmd_recalibrate(args) -> int:
    from . import recalibrate
    preds, _ = io.load_predictions(args.predictions)
    labels = io.load_labels(args.labels, preds)
    if preds.probs is not None:   # softmax(log p / T) is softmax(z / T) for p = softmax(z)
        preds = st.EnsemblePredictions.from_logits(
            np.log(np.clip(preds.probs, 1e-300, None)))
    (recal_preds, recal_labels), (eval_preds, eval_labels) = \
        recalibrate.split_recalibration(preds, labels, args.fraction)
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
    theta_draws = rng.standard_normal(args.models)    # prior over the location
    labels = args.theta_true + rng.standard_normal(args.n)
    means = np.tile(theta_draws, (args.n, 1))
    io.save_predictions(os.path.join(out_dir, "predictions_bayes.jsonl"),
                        st.EnsemblePredictions.from_gaussians(means, np.ones_like(means)))
    marginal = st.EnsemblePredictions.from_gaussians(
        np.zeros((args.n, 1)), np.full((args.n, 1), math.sqrt(2.0)))
    io.save_predictions(os.path.join(out_dir, "predictions_marginal.jsonl"), marginal)
    io.save_labels(os.path.join(out_dir, "labels.csv"), labels)


def _simulate_quadratic(args, out_dir: str) -> None:
    from . import analytic
    noise = {} if args.noise_var is None else {"noise_var": args.noise_var}
    cfg = analytic.QuadraticDatasetConfig(n=args.n, seed=args.seed, **noise)
    x_train, y_train, x_ood, y_ood = analytic.generate_quadratic_dataset(cfg)
    io.atomic_write_text(os.path.join(out_dir, "train_inputs.csv"),
                         "x\n" + "\n".join(repr(float(v)) for v in x_train) + "\n")
    io.save_labels(os.path.join(out_dir, "train_labels.csv"), y_train)
    ens_cfg = analytic.BayesianLinearEnsembleConfig(
        num_models=args.models, noise_var=cfg.noise_var, seed=args.seed)
    x_id, y_id, _, _ = analytic.generate_quadratic_dataset(
        analytic.QuadraticDatasetConfig(n=200, seed=args.seed + 1, **noise))
    for tag, xs, ys in (("id", x_id, y_id), ("ood", x_ood, y_ood)):
        preds = analytic.bayesian_linear_ensemble(ens_cfg, x_train, y_train, xs)
        io.save_predictions(os.path.join(out_dir, f"{tag}_predictions.jsonl"), preds)
        io.save_labels(os.path.join(out_dir, f"{tag}_labels.csv"), ys)


def _simulate_conjugate(args, out_dir: str) -> None:
    from . import analytic
    model = analytic.ConjugateNormalModel()
    rng = np.random.default_rng(args.seed)
    observed = args.theta_true + rng.standard_normal(args.n) if args.data is None else args.data
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


SCENARIOS = {"location": _simulate_location, "quadratic": _simulate_quadratic,
             "conjugate": _simulate_conjugate}


def cmd_simulate(args) -> int:
    os.makedirs(args.out_dir, exist_ok=True)
    SCENARIOS[args.scenario](args, args.out_dir)
    print(f"wrote {args.scenario} scenario files to {args.out_dir}")
    return 0


def cmd_oracle(args) -> int:
    from . import oracle
    preds, labels, statistic, mode = _load_run(args)
    budget = {} if args.budget is None else {"budget": args.budget}   # else the oracle's
    pmf = oracle.exact_statistic_distribution(preds, None, statistic, mode, **budget)
    observed = float(ppc.statistic_values(statistic, pmf.context)(labels[None])[0])
    print(json.dumps({"values": pmf.values.tolist(), "masses": pmf.masses.tolist(),
                      "observed": observed}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ppc-uq",
        description="Posterior predictive checks for models with model uncertainty")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_statistic_flags(p):
        p.add_argument("--statistic", required=True, choices=list(STATISTICS))
        p.add_argument("--mode", required=True,
                       help="bayesian | independent | point:IDX")
        p.add_argument("--bins", type=integer, default=st.BinningConfig.num_bins)
        p.add_argument("--quantiles", type=integer, default=len(st.QuantileSet().levels))
        p.add_argument("--picp-low", type=number, default=ppc.PicpStatistic.lower)
        p.add_argument("--picp-high", type=number, default=ppc.PicpStatistic.upper)

    check = sub.add_parser("check", help="run a posterior predictive check")
    check.add_argument("--predictions", required=True)
    check.add_argument("--labels", required=True)
    add_statistic_flags(check)
    check.add_argument("--replications", type=integer, default=1000)
    check.add_argument("--seed", type=integer, default=0)
    check.add_argument("--out", default=None)
    check.set_defaults(func=cmd_check)

    recal = sub.add_parser("recalibrate", help="fit per-model temperatures")
    recal.add_argument("--predictions", required=True)
    recal.add_argument("--labels", required=True)
    recal.add_argument("--fraction", type=number, default=0.2)
    recal.add_argument("--out-temps", required=True)
    recal.add_argument("--out-predictions", required=True)
    recal.set_defaults(func=cmd_recalibrate)

    sim = sub.add_parser("simulate", help="emit synthetic scenario files")
    sim.add_argument("--scenario", required=True, choices=list(SCENARIOS))
    sim.add_argument("--seed", type=integer, default=0)
    sim.add_argument("--n", type=integer, default=1000)
    sim.add_argument("--models", type=integer, default=1000)
    sim.add_argument("--theta-true", type=number, default=0.5)
    sim.add_argument("--data", type=numbers, default=None,
                     help="conjugate scenario: comma-separated observations")
    sim.add_argument("--noise-as-std", dest="noise_var", action="store_const", const=0.25,
                     help="the noise constant 0.5 is a standard deviation (variance 0.25)")
    sim.add_argument("--out-dir", required=True)
    sim.set_defaults(func=cmd_simulate)

    orc = sub.add_parser("oracle", help="exact statistic PMF")
    orc.add_argument("--predictions", required=True)
    orc.add_argument("--labels", required=True)
    add_statistic_flags(orc)
    orc.add_argument("--budget", type=integer, default=None)
    orc.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None) -> int:
    atexit.unregister(gc.freeze)   # once, before the parse: at exit, files closed and
    atexit.register(gc.freeze)     # threads joined, the last collections traverse nothing
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    # a MemoryError: numpy refusing an array that a count asks for, or Python's own (no text)
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
