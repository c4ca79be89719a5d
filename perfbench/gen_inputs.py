"""Workload inputs for the ppc-uq benchmark, made from a workload seed.

Everything here is plain numpy plus a JSONL/CSV writer of its own: nothing
is imported from ``ppc_uq``, so a change to the program cannot change the
bytes the program is given. Floats are written with ``repr``, which round
trips exactly, so the arrays returned by :func:`generate` are the values the
program reads back.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

import reference as ref

WORKLOADS = ("regression-ood", "classification-large", "recalibrate-roundtrip")

# Sizes of each workload, read at call time; the tests make them smaller.
REGRESSION_ROWS, REGRESSION_MODELS, REGRESSION_TRAIN = 2000, 50, 20
CLASS_ROWS, CLASS_MODELS, CLASS_CLASSES = 10_000, 10, 10
REGRESSION_REPLICATES = 500
CLASS_REPLICATES = 500
# The ensemble is overconfident by this factor: labels come from the
# members' logits divided by it, so ECE fails and temperatures near it fit.
CLASS_OVERCONFIDENCE = 2.0


@dataclass
class Workload:
    """Generated inputs of one workload, with the arrays they encode."""

    name: str
    seed: int
    files: dict                      # role -> file text (predictions, labels)
    arrays: dict = field(default_factory=dict)
    replicates: int = 0

    def digests(self) -> dict:
        """role -> [sha256, size in bytes] of each file."""
        out = {}
        for role, text in self.files.items():
            data = text.encode("utf-8")
            out[role] = [hashlib.sha256(data).hexdigest(), len(data)]
        return out

    def write(self, directory: str) -> dict:
        """Write the files; returns role -> (path, sha256, size in bytes)."""
        os.makedirs(directory, exist_ok=True)
        out = {}
        for role, (sha, size) in self.digests().items():
            path = os.path.join(directory, f"{role}{_SUFFIX[role]}")
            with open(path, "wb") as fh:
                fh.write(self.files[role].encode("utf-8"))
            out[role] = (path, sha, size)
        return out


_SUFFIX = {"predictions": ".jsonl", "labels": ".csv"}


def _rng(name: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), WORKLOADS.index(name)]))


def _floats(values) -> str:
    return "[" + ", ".join(map(repr, values)) + "]"


def classification_jsonl(data: np.ndarray, values: str) -> str:
    n, m, c = data.shape
    header = ('{"kind": "classification", "rows": %d, "models": %d, '
              '"classes": %d, "values": "%s"}' % (n, m, c, values))
    lines = [header]
    for row in data.tolist():
        lines.append('{"preds": [' + ", ".join(map(_floats, row)) + "]}")
    return "\n".join(lines) + "\n"


def regression_jsonl(means: np.ndarray, stds: np.ndarray) -> str:
    n, m = means.shape
    lines = ['{"kind": "regression", "rows": %d, "models": %d, '
             '"values": "gaussian"}' % (n, m)]
    for mu_row, sd_row in zip(means.tolist(), stds.tolist()):
        lines.append('{"preds": [' + ", ".join(
            '{"mean": %r, "std": %r}' % (mu, sd)
            for mu, sd in zip(mu_row, sd_row)) + "]}")
    return "\n".join(lines) + "\n"


def labels_csv(labels: np.ndarray) -> str:
    if np.issubdtype(labels.dtype, np.integer):
        body = map(str, labels.tolist())
    else:
        body = map(repr, labels.tolist())
    return "label\n" + "\n".join(body) + "\n"


def _quadratic(x):
    return (x - 1.0) ** 2


def regression_ood(seed: int) -> Workload:
    """Quadratic data with inputs in (-1.5, 0) held out of training; a cubic
    Bayesian linear posterior (prior precision 0.5, noise variance 0.5, M
    exact posterior draws) predicts on an even grid inside the hole.

    Datasets are drawn until the reference statistics show the paper's
    contrast with a wide margin (see `_contrast_is_clear`). About one raw
    draw in forty sits near the verdict boundary. There the expected
    verdict would be a coin flip, not a property of the input.
    """
    rng = _rng("regression-ood", seed)
    for _ in range(100):
        means, stds, y_ood = _quadratic_ensemble(rng, REGRESSION_ROWS,
                                                 REGRESSION_MODELS)
        if _contrast_is_clear(means, stds, y_ood, rng):
            return Workload("regression-ood", seed,
                            {"predictions": regression_jsonl(means, stds),
                             "labels": labels_csv(y_ood)},
                            {"means": means, "stds": stds, "labels": y_ood},
                            REGRESSION_REPLICATES)
    raise RuntimeError(f"no clear regression-ood dataset for seed {seed}")


def _quadratic_ensemble(rng, n_ood: int, m: int):
    lo, hi, noise_var, prior_prec, degree = -1.5, 0.0, 0.5, 0.5, 3
    noise_std = math.sqrt(noise_var)
    x_train = np.empty(REGRESSION_TRAIN)
    filled = 0
    while filled < REGRESSION_TRAIN:
        draw = rng.standard_normal(REGRESSION_TRAIN - filled)
        keep = draw[(draw <= lo) | (draw >= hi)]
        x_train[filled:filled + keep.size] = keep
        filled += keep.size
    y_train = _quadratic(x_train) + noise_std * rng.standard_normal(x_train.size)
    x_ood = np.linspace(lo, hi, n_ood + 2)[1:-1]
    y_ood = _quadratic(x_ood) + noise_std * rng.standard_normal(n_ood)

    phi = np.vander(x_train, degree + 1, increasing=True)
    cov = np.linalg.inv(prior_prec * np.eye(degree + 1) + phi.T @ phi / noise_var)
    mean = cov @ (phi.T @ y_train / noise_var)
    draws = mean + rng.standard_normal((m, degree + 1)) @ np.linalg.cholesky(cov).T
    means = np.vander(x_ood, degree + 1, increasing=True) @ draws.T
    return means, np.full_like(means, noise_std), y_ood


def _contrast_is_clear(means, stds, y, rng) -> bool:
    """Whether both expected verdicts hold with a wide margin.

    Independent mode: its replicated PIT values are i.i.d. uniform, so N/L
    times their calibration error over L levels is close to a Cramer-von
    Mises statistic, which exceeds 4 with probability about 5e-10. An
    observed error above 4 L / N therefore gives p = 1.
    Bayesian mode: a replicate is one member's data. With the observed
    error between the 10% and 90% quantiles of one draw per member, some
    replicates fall on each side, so 0 < p < 1.
    """
    n, m = means.shape
    observed = ref.calibration_error(ref.pit(means, stds, y))
    members = [ref.calibration_error(ref.pit(
        means, stds, means[:, j] + stds[:, j] * rng.standard_normal(n)))
        for j in range(m)]
    low, high = np.quantile(members, [0.1, 0.9])
    return observed > 4 * ref.CALIBRATION_LEVELS.size / n and low < observed < high


def class_ensemble(seed: int):
    """Shared [N, M, C] logits and labels of both classification workloads."""
    rng = _rng("classification-large", seed)
    n, m, c = CLASS_ROWS, CLASS_MODELS, CLASS_CLASSES
    logits = rng.normal(0.0, 2.0, (n, 1, c)) + rng.normal(0.0, 1.0, (n, m, c))
    truth = ref.softmax(logits / CLASS_OVERCONFIDENCE).mean(axis=1)
    cums = np.cumsum(truth, axis=1)
    labels = np.minimum((rng.random(n)[:, None] > cums).sum(axis=1), c - 1)
    return logits, labels.astype(np.int64)


def classification_large(seed: int) -> Workload:
    logits, labels = class_ensemble(seed)
    probs = ref.softmax(logits)
    return Workload("classification-large", seed,
                    {"predictions": classification_jsonl(probs, "probs"),
                     "labels": labels_csv(labels)},
                    {"probs": probs, "labels": labels}, CLASS_REPLICATES)


def recalibrate_roundtrip(seed: int) -> Workload:
    logits, labels = class_ensemble(seed)
    return Workload("recalibrate-roundtrip", seed,
                    {"predictions": classification_jsonl(logits, "logits"),
                     "labels": labels_csv(labels)},
                    {"logits": logits, "labels": labels})


_GENERATORS = {
    "regression-ood": regression_ood,
    "classification-large": classification_large,
    "recalibrate-roundtrip": recalibrate_roundtrip,
}


def generate(name: str, seed: int) -> Workload:
    return _GENERATORS[name](seed)


def write_lock(path: str, seeds) -> None:
    """Record the sha256 and size of every workload's inputs for `seeds`."""
    table = {name: {str(seed): generate(name, seed).digests() for seed in seeds}
             for name in WORKLOADS}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"about": "sha256 and byte size of each generated input, by "
                            "workload and seed; run.py refuses to time a "
                            "listed seed whose inputs differ. Rewrite with: "
                            "python3 perfbench/gen_inputs.py FIRST LAST",
                   "inputs": table}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    first, last = int(sys.argv[1]), int(sys.argv[2])
    write_lock(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            "inputs.lock.json"), range(first, last + 1))
