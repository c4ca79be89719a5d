"""The CLI invocations of each workload and the checks on their outputs.

Each check returns a list of problems; an empty list means the invocation
produced what the benchmark's own reference says it must.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

import gen_inputs
import reference as ref

EXIT_PASS, EXIT_FAIL = 0, 2    # `check` exit codes for a PASS and a FAIL verdict


@dataclass
class Invocation:
    """One CLI call of a workload and what its result must be."""

    label: str                 # names the call within the workload
    args: list                 # CLI arguments after the program name
    outputs: list              # files whose bytes are the call's report
    expect: dict = field(default_factory=dict)


@dataclass
class Result:
    returncode: int
    stdout: str
    outputs: dict              # path -> bytes


def invocations(wl: gen_inputs.Workload, inputs: dict, out_dir: str,
                tag: str = "") -> list:
    """The workload's CLI calls; `tag` keeps output names of runs apart."""
    pred, labels = inputs["predictions"][0], inputs["labels"][0]
    common = ["--predictions", pred, "--labels", labels]

    def out(name):
        return os.path.join(out_dir, f"{name}{tag}")

    def check(statistic, mode, expect):
        report = out(f"report-{mode}.json")
        args = ["check", *common, "--statistic", statistic, "--mode", mode,
                "--replications", str(wl.replicates), "--seed", str(wl.seed),
                "--out", report]
        expect = dict(expect, statistic=statistic, mode=mode, kind="check",
                      code=EXIT_PASS if expect["passed"] else EXIT_FAIL,
                      digests={"predictions": inputs["predictions"][1],
                               "labels": inputs["labels"][1]})
        return Invocation(mode, args, [report], expect)

    a = wl.arrays
    if wl.name == "regression-ood":
        observed = ref.calibration_error(ref.pit(a["means"], a["stds"], a["labels"]))
        return [check("calibration", "independent",
                      {"observed": observed, "p_value": 1.0, "passed": False}),
                check("calibration", "bayesian",
                      {"observed": observed, "passed": True})]
    if wl.name == "classification-large":
        integrated = a["probs"].mean(axis=1)
        observed = ref.ece(integrated, a["labels"])
        # Labels follow logits tempered by CLASS_OVERCONFIDENCE, so the
        # observed ECE sits far above anything the model replicates.
        return [check("ece", "independent",
                      {"observed": observed, "p_value": 1.0, "passed": False})]
    if wl.name == "recalibrate-roundtrip":
        temps, recal = out("temps.json"), out("recalibrated.jsonl")
        args = ["recalibrate", *common, "--out-temps", temps,
                "--out-predictions", recal]
        return [Invocation("recalibrate", args, [temps, recal],
                           {"kind": "recalibrate", "code": 0})]
    raise ValueError(f"unknown workload {wl.name!r}")


def check_result(inv: Invocation, res: Result, wl: gen_inputs.Workload) -> list:
    """Problems with one invocation's exit code, stdout and output files."""
    missing = [p for p in inv.outputs if p not in res.outputs]
    if missing:
        return [f"{inv.label}: missing output {m}" for m in missing]
    if inv.expect["kind"] == "check":
        return _check_report(inv, res)
    return _check_recalibration(inv, res, wl)


def check_repeat(inv: Invocation, res: Result) -> list:
    """Problems with a result whose output bytes repeat a checked one."""
    problems = []
    if res.returncode != inv.expect["code"]:
        problems.append(f"exit code {res.returncode}, expected {inv.expect['code']}")
    if "passed" in inv.expect:
        verdict = "PASS" if inv.expect["passed"] else "FAIL"
        if not res.stdout.startswith(verdict + " "):
            problems.append(f"stdout verdict {res.stdout[:4]!r}, expected {verdict}")
    return [f"{inv.label}: {p}" for p in problems]


def _check_report(inv: Invocation, res: Result) -> list:
    exp = inv.expect
    problems = []
    try:
        rep = json.loads(res.outputs[inv.outputs[0]])
    except ValueError as exc:
        return check_repeat(inv, res) + [f"{inv.label}: report is not JSON ({exc})"]
    try:
        if rep["passed"] is not exp["passed"]:
            problems.append(f"report passed={rep['passed']}, expected {exp['passed']}")
        for key in ("statistic", "mode"):
            if rep[key] != exp[key]:
                problems.append(f"report {key}={rep[key]!r}, expected {exp[key]!r}")
        if not ref.close(rep["observed"], exp["observed"]):
            problems.append(f"observed {rep['observed']!r}, reference "
                            f"{exp['observed']!r}")
        p = rep["p_value"]
        if not 0.0 <= p <= 1.0 or (0.0 < p < 1.0) is not exp["passed"]:
            problems.append(f"p_value {p!r} contradicts passed={exp['passed']}")
        if "p_value" in exp and p != exp["p_value"]:
            problems.append(f"p_value {p!r}, expected {exp['p_value']!r}")
        if rep["inputs"] != exp["digests"]:
            problems.append(f"input digests {rep['inputs']} differ from the "
                            f"generated {exp['digests']}")
    except (KeyError, TypeError) as exc:
        problems.append(f"report lacks a field: {exc!r}")
    return check_repeat(inv, res) + [f"{inv.label}: {p}" for p in problems]


def _check_recalibration(inv: Invocation, res: Result,
                         wl: gen_inputs.Workload) -> list:
    if res.returncode != 0:
        return check_repeat(inv, res)
    logits, labels = wl.arrays["logits"], wl.arrays["labels"]
    n, m, c = logits.shape
    first = int(math.floor(n * 0.2))     # the CLI's default --fraction
    problems = []
    try:
        temps = np.asarray(json.loads(res.outputs[inv.outputs[0]])["temperatures"],
                           dtype=float)
        header, probs = read_predictions(res.outputs[inv.outputs[1]])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{inv.label}: unreadable output ({exc!r})"]
    if temps.shape != (m,) or not np.all(np.isfinite(temps)) or np.any(temps <= 0):
        problems.append(f"temperatures {temps.tolist()} are not {m} finite positives")
    if header.get("values") != "probs" or header.get("rows") != n - first:
        problems.append(f"header {header} does not describe {n - first} prob rows")
    if probs.shape != (n - first, m, c):
        return [f"{inv.label}: {p}" for p in problems +
                [f"recalibrated shape {probs.shape}, expected {(n - first, m, c)}"]]
    rest, y = logits[first:], labels[first:]
    fitted, unscaled = ref.ensemble_nll(probs, y), ref.ensemble_nll(ref.softmax(rest), y)
    if not fitted < unscaled:
        problems.append(f"evaluation NLL {fitted} not below unscaled {unscaled}")
    if not np.array_equal(probs.argmax(axis=2), rest.argmax(axis=2)):
        problems.append("recalibration changed a member's argmax class")
    return [f"{inv.label}: {p}" for p in problems]


def read_predictions(data: bytes):
    """Header and [N, M, C] array of a classification prediction file."""
    lines = data.decode("utf-8").splitlines()
    rows = [json.loads(line)["preds"] for line in lines[1:]]
    return json.loads(lines[0]), np.array(rows, dtype=float)


def recalibrated_nll(path: str, wl: gen_inputs.Workload) -> float:
    """Evaluation-split NLL of a recalibrated prediction file."""
    with open(path, "rb") as fh:
        _, probs = read_predictions(fh.read())
    return ref.ensemble_nll(probs, wl.arrays["labels"][-probs.shape[0]:])
