import json
import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from ppc_uq import analytic, cli, io, oracle, ppc, predictive, recalibrate
from ppc_uq import statistics as st

from conftest import OVERFLOWING_Z


def write_fixture(tmp_path, preds, labels):
    pred_path = tmp_path / "preds.jsonl"
    label_path = tmp_path / "labels.csv"
    io.save_predictions(pred_path, preds)
    io.save_labels(label_path, labels)
    return str(pred_path), str(label_path)


def preds_of(kind, n, num_classes=3):
    """Uniform predictions of `kind`, n rows and one model, to read labels against."""
    if kind == st.CLASSIFICATION:
        return st.EnsemblePredictions.from_probs(
            np.full((n, 1, num_classes), 1.0 / num_classes))
    return st.EnsemblePredictions.from_gaussians(np.zeros((n, 1)), np.ones((n, 1)))


@pytest.fixture
def context_builds(monkeypatch):
    """The arguments of every `ppc.build_context` call the test makes."""
    calls = []
    build = ppc.build_context

    def counting_build(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(ppc, "build_context", counting_build)
    return calls


def self_generated_regression(seed, n=300):
    rng = np.random.default_rng(seed)
    means = rng.normal(0, 1, n)
    stds = np.full(n, 1.1)
    y = means + stds * rng.standard_normal(n)
    preds = st.EnsemblePredictions.from_gaussians(means[:, None], stds[:, None])
    return preds, y


class TestRoundTrips:
    def test_classification_probs(self, tmp_path, rng):
        raw = rng.random((5, 3, 4))
        probs = raw / raw.sum(axis=2, keepdims=True)
        preds = st.EnsemblePredictions.from_probs(probs)
        path = tmp_path / "p.jsonl"
        io.save_predictions(path, preds)
        loaded, header = io.load_predictions(path)
        assert header["values"] == "probs"
        np.testing.assert_allclose(loaded.probs, probs)

    def test_classification_logits(self, tmp_path, rng):
        logits = rng.normal(size=(4, 2, 3))
        preds = st.EnsemblePredictions.from_logits(logits)
        path = tmp_path / "p.jsonl"
        io.save_predictions(path, preds)
        loaded, header = io.load_predictions(path)
        assert header["values"] == "logits"
        np.testing.assert_allclose(loaded.logits, logits)

    def test_regression(self, tmp_path, rng):
        means = rng.normal(size=(6, 2))
        stds = 0.1 + rng.random((6, 2))
        preds = st.EnsemblePredictions.from_gaussians(means, stds)
        path = tmp_path / "p.jsonl"
        io.save_predictions(path, preds)
        loaded, _ = io.load_predictions(path)
        np.testing.assert_allclose(loaded.means, means)
        np.testing.assert_allclose(loaded.stds, stds)

    def test_labels_classification(self, tmp_path):
        path = tmp_path / "labels.csv"
        io.save_labels(path, np.array([0, 2, 1]))
        np.testing.assert_array_equal(
            io.load_labels(path, preds_of(st.CLASSIFICATION, 3)), [0, 2, 1])

    def test_labels_regression(self, tmp_path):
        path = tmp_path / "labels.csv"
        vals = np.array([0.25, -1.5, 3.125])
        io.save_labels(path, vals)
        np.testing.assert_array_equal(
            io.load_labels(path, preds_of(st.REGRESSION, 3)), vals)

    def test_label_spellings_float_reads_are_kept(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("LABEL\n 1e3 \n+2.5\n-0\n.5\n5.\n")
        np.testing.assert_array_equal(
            io.load_labels(path, preds_of(st.REGRESSION, 5)),
            [1000.0, 2.5, -0.0, 0.5, 5.0])

    @pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
    def test_output_mode_matches_plain_open(self, tmp_path, umask):
        old = os.umask(umask)
        try:
            with open(tmp_path / "plain.csv", "w") as fh:
                fh.write("label\n")
            io.save_labels(tmp_path / "written.csv", np.array([1, 2]))
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("plain.csv", "written.csv")]
        assert modes[1] == modes[0] == 0o666 & ~umask

    def test_rewrite_keeps_existing_mode(self, tmp_path):
        path = tmp_path / "labels.csv"
        io.save_labels(path, np.array([0]))
        os.chmod(path, 0o640)
        io.save_labels(path, np.array([1]))
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert io.load_labels(path, preds_of(st.CLASSIFICATION, 1)).tolist() == [1]

    def test_bad_label_names_its_file_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label\n0.5\nabc\n")
        with pytest.raises(io.FileFormatError, match=r"^line 3: bad label 'abc'"):
            io.load_labels(path, preds_of(st.REGRESSION, 2))

    def test_bad_prediction_row_names_its_file_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        header = {"kind": "classification", "rows": 2, "models": 1,
                  "classes": 2, "values": "probs"}
        path.write_text(json.dumps(header) + '\n\n{"preds": [[0.5, 0.5]]}\n'
                        '{"preds": [[1.0]]}\n')
        with pytest.raises(io.FileFormatError, match=r"^line 4: expected 1x2"):
            io.load_predictions(path)

    @pytest.mark.parametrize("text,kind,message", [
        ("label\n0\n1.5\n", st.CLASSIFICATION, "classification labels must be integers"),
        ("label\n0.5\nnan\n", st.REGRESSION, "labels must be finite"),
    ], ids=["non-integer", "non-finite"])
    def test_bad_label_value_names_its_file_line(self, tmp_path, text, kind, message):
        path = tmp_path / "labels.csv"
        path.write_text(text)
        with pytest.raises(io.FileFormatError, match=f"^line 3: {message}$"):
            io.load_labels(path, preds_of(kind, 2))

    @pytest.mark.parametrize("header,rows,message", [
        ({"kind": "regression", "rows": 2, "models": 1, "values": "gaussian"},
         ['[{"mean": 0.0, "std": 1.0}]', '[{"mean": NaN, "std": 1.0}]'],
         "means must be finite"),
        ({"kind": "classification", "rows": 2, "models": 1, "classes": 2,
          "values": "probs"},
         ["[[0.5, 0.5]]", "[[NaN, 0.5]]"], "probs must be finite"),
    ], ids=["gaussian", "probs"])
    def test_non_finite_prediction_names_its_file_line(self, tmp_path, header,
                                                       rows, message):
        path = tmp_path / "preds.jsonl"
        path.write_text("\n".join([json.dumps(header)]
                                  + ['{"preds": %s}' % r for r in rows]) + "\n")
        with pytest.raises(io.FileFormatError, match=f"^line 3: {message}$"):
            io.load_predictions(path)

    def test_temp_file_is_synced_before_replace(self, tmp_path, monkeypatch):
        events = []
        fsync, replace = os.fsync, os.replace

        def recording_fsync(fd):
            events.append(("fsync", os.fstat(fd).st_ino))
            fsync(fd)

        def recording_replace(src, dst):
            events.append(("replace", os.stat(src).st_ino))
            replace(src, dst)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        monkeypatch.setattr(os, "replace", recording_replace)
        io.save_labels(tmp_path / "labels.csv", np.array([0, 1]))
        assert [name for name, _ in events] == ["fsync", "replace"]
        assert events[0][1] == events[1][1]

    def test_report_round_trip(self, tmp_path):
        path = tmp_path / "report.json"
        payload = {"p_value": 1 / 3, "sharpness": 0.123456789012345}
        io.save_report(path, payload)
        assert io.load_report(path) == payload


class TestCheckCommand:
    def test_self_generated_passes(self, tmp_path):
        for seed in range(5):
            preds, y = self_generated_regression(seed)
            p, l = write_fixture(tmp_path, preds, y)
            code = cli.main(["check", "--predictions", p, "--labels", l,
                             "--statistic", "calibration", "--mode", "point:0",
                             "--replications", "300", "--seed", str(seed)])
            assert code == 0

    def test_impossible_observation_fails(self, tmp_path):
        # one-hot two-model ensemble: a mixed label pair is impossible under
        # shared-model replicates, so the ECE check lands outside the samples
        probs = np.zeros((2, 2, 2))
        probs[:, 0, 0] = 1.0
        probs[:, 1, 1] = 1.0
        preds = st.EnsemblePredictions.from_probs(probs)
        p, l = write_fixture(tmp_path, preds, np.array([0, 1]))
        code = cli.main(["check", "--predictions", p, "--labels", l,
                         "--statistic", "ece", "--mode", "bayesian",
                         "--replications", "200", "--seed", "0"])
        assert code == 2

    @pytest.mark.parametrize("statistic", ["calibration", "picp"])
    @pytest.mark.parametrize("mode", ["independent", "bayesian"])
    def test_label_above_every_member_is_a_valid_check(self, tmp_path, capsys,
                                                       statistic, mode):
        # 29 uniform weights of 1/29 sum to more than 1 in the matvec, so the
        # mixture CDF at a label above every member must be capped at 1
        preds = st.EnsemblePredictions.from_gaussians(np.zeros((3, 29)), np.ones((3, 29)))
        p, l = write_fixture(tmp_path, preds, np.array([0.1, -0.3, 40.0]))
        code = cli.main(["check", "--predictions", p, "--labels", l,
                         "--statistic", statistic, "--mode", mode,
                         "--replications", "50", "--seed", "0"])
        assert code in (0, 2)
        assert capsys.readouterr().err == ""

    def test_z_past_the_largest_double_is_a_verdict_under_warnings_as_errors(
            self, tmp_path):
        # an overflow in (label - mean) / std warned; under -W error that was a
        # RuntimeWarning traceback and exit 1, not a verdict
        runs = []
        for case, (means, stds, labels) in OVERFLOWING_Z.items():
            (tmp_path / case).mkdir()
            p, l = write_fixture(tmp_path / case, st.EnsemblePredictions.from_gaussians(
                means, stds), np.array(labels))
            runs += [["check", "--predictions", p, "--labels", l, "--statistic", statistic,
                      "--mode", mode, "--replications", "50", "--seed", "0"]
                     for statistic in ("calibration", "picp")
                     for mode in ("bayesian", "independent", "point:0")]
        script = f"""
import contextlib, io, json
from ppc_uq import cli
results = []
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        child = subprocess.run([sys.executable, "-W", "error", "-c", script],
                               env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                               capture_output=True, text=True)
        assert (child.returncode, child.stderr) == (0, "")
        results = json.loads(child.stdout)
        assert len(results) == 12
        for code, out in results:
            assert code in (0, 2)
            assert [line.split()[0] for line in out.splitlines()
                    if line.startswith(("PASS", "FAIL"))] == ["PASS" if code == 0 else "FAIL"]

    def test_corrupt_header(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "classification", "rows": 1}\n{"preds": []}\n')
        labels = tmp_path / "labels.csv"
        labels.write_text("0\n")
        code = cli.main(["check", "--predictions", str(path),
                         "--labels", str(labels),
                         "--statistic", "ece", "--mode", "bayesian"])
        assert code == 1
        assert "models" in capsys.readouterr().err

    @pytest.mark.parametrize("token,field", [("NaN", "mean"), ("Infinity", "std")])
    def test_non_finite_prediction_file_is_error(self, tmp_path, capsys, token, field):
        preds, y = self_generated_regression(0, n=5)
        p, l = write_fixture(tmp_path, preds, y)
        with open(p) as fh:
            lines = fh.read().splitlines()
        row = json.loads(lines[3])
        lines[3] = json.dumps(row).replace(
            f'"{field}": {row["preds"][0][field]!r}', f'"{field}": {token}', 1)
        assert token in lines[3]
        with open(p, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(io.FileFormatError, match="must be finite"):
            io.load_predictions(p)
        code = cli.main(["check", "--predictions", p, "--labels", l,
                         "--statistic", "calibration", "--mode", "bayesian",
                         "--replications", "20"])
        assert code == 1
        assert "must be finite" in capsys.readouterr().err

    def test_kind_mismatch_is_error(self, tmp_path):
        preds, y = self_generated_regression(0, n=5)
        p, l = write_fixture(tmp_path, preds, y)
        code = cli.main(["check", "--predictions", p, "--labels", l,
                         "--statistic", "ece", "--mode", "bayesian"])
        assert code == 1

    def test_point_zero_equals_bayesian_on_single_model(self, tmp_path):
        preds, y = self_generated_regression(1, n=50)
        p, l = write_fixture(tmp_path, preds, y)
        reports = {}
        for mode in ("point:0", "bayesian"):
            out = tmp_path / f"{mode.replace(':', '_')}.json"
            cli.main(["check", "--predictions", p, "--labels", l,
                      "--statistic", "calibration", "--mode", mode,
                      "--replications", "100", "--seed", "3",
                      "--out", str(out)])
            reports[mode] = io.load_report(out)
        # identical in every field except the mode descriptor itself
        for rep in reports.values():
            rep.pop("mode")
        assert reports["point:0"] == reports["bayesian"]

    def test_reports_byte_identical_across_threads(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli.ppc, "_usable_cpus", lambda: 4)   # 4 real workers
        preds, y = self_generated_regression(2, n=40)
        p, l = write_fixture(tmp_path, preds, y)
        payloads = []
        for threads in ("1", "4"):
            out = tmp_path / f"report_{threads}.json"
            os.environ[cli.ppc.THREADS_ENV_VAR] = threads
            try:
                cli.main(["check", "--predictions", p, "--labels", l,
                          "--statistic", "picp", "--mode", "bayesian",
                          "--replications", "200", "--seed", "7",
                          "--out", str(out)])
            finally:
                del os.environ[cli.ppc.THREADS_ENV_VAR]
            payloads.append(out.read_bytes())
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", "1_0", " 2", "+1",
                                       "\u0663"])
    def test_invalid_thread_count_is_error(self, tmp_path, capsys, monkeypatch, value):
        preds, y = self_generated_regression(0, n=5)
        p, l = write_fixture(tmp_path, preds, y)
        monkeypatch.setenv(cli.ppc.THREADS_ENV_VAR, value)
        code = cli.main(["check", "--predictions", p, "--labels", l,
                         "--statistic", "calibration", "--mode", "bayesian",
                         "--replications", "20"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: PPC_UQ_THREADS must be a positive integer, got {value!r}\n")

    @pytest.mark.parametrize("flags,message", [
        (["--statistic", "picp", "--picp-low", "0.9", "--picp-high", "0.1"],
         "need 0 <= lower < upper <= 1"),
        (["--statistic", "calibration", "--replications", "1"],
         "a check needs at least two replicates"),
        (["--statistic", "calibration", "--seed", "-1"],
         "seed must be a non-negative integer, got -1"),
        (["--statistic", "calibration", "--replications", "1_0"],
         "argument --replications: invalid integer value: '1_0'"),
        (["--statistic", "calibration", "--replications", "\u0663\u0660"],
         "argument --replications: invalid integer value: '\u0663\u0660'"),
        (["--statistic", "calibration", "--seed", "+1"],
         "argument --seed: invalid integer value: '+1'"),
        (["--statistic", "ece", "--bins", "1_5"],
         "argument --bins: invalid integer value: '1_5'"),
        (["--statistic", "ece", "--bins", str(2 ** 63)],
         "num_bins must be an integer in [1, 2**53]"),
        (["--statistic", "ece", "--bins", str(2 ** 70)],
         "num_bins must be an integer in [1, 2**53]"),
        (["--statistic", "picp", "--picp-low", "nan"],
         "argument --picp-low: invalid number value: 'nan'"),
        (["--statistic", "calibration", "--quantiles", "0"],
         "quantile count must be >= 1, got 0"),
        # num + 1 is not a double exactly: refused before any level is made
        (["--statistic", "calibration", "--quantiles", str(2 ** 53)],
         f"quantile count must be at most 2**53 - 1, got {2 ** 53}"),
        (["--statistic", "calibration", "--quantiles", str(2 ** 63)],
         f"quantile count must be at most 2**53 - 1, got {2 ** 63}"),
        (["--statistic", "calibration", "--quantiles", str(10 ** 17)],
         f"quantile count must be at most 2**53 - 1, got {10 ** 17}"),
    ], ids=["picp-bounds", "one-replicate", "negative-seed", "replications-digit-group",
            "replications-arabic-indic", "seed-plus-sign", "bins-digit-group",
            "bins-2**63", "bins-2**70", "picp-nan", "zero-quantiles", "quantiles-2**53",
            "quantiles-2**63", "quantiles-10**17"])
    def test_bad_parameters_fail_before_any_work(self, tmp_path, capsys, context_builds,
                                                 flags, message):
        preds, y = self_generated_regression(0, n=5)
        p, l = write_fixture(tmp_path, preds, y)
        code = cli.main(["check", "--predictions", p, "--labels", l,
                         "--mode", "bayesian"] + flags)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert context_builds == []

    @pytest.mark.parametrize("command", ["check", "oracle"])
    @pytest.mark.parametrize("flags,message", [
        (["--statistic", "calibration", "--mode", "bayesian", "--quantiles", "0"],
         "quantile count must be >= 1, got 0"),
        (["--statistic", "calibration", "--mode", "bogus"], "unknown mode: 'bogus'"),
        (["--statistic", "picp", "--mode", "bayesian", "--picp-low", "0.9",
          "--picp-high", "0.1"], "need 0 <= lower < upper <= 1"),
    ], ids=["zero-quantiles", "unknown-mode", "picp-bounds"])
    def test_bad_flag_fails_before_any_file_is_read(self, tmp_path, capsys, command,
                                                    flags, message):
        missing = str(tmp_path / "missing")
        code = cli.main([command, "--predictions", missing, "--labels", missing] + flags)
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_replicate_count_past_memory_is_one_error_line(self, tmp_path, capsys):
        # 10**17 replicates ask numpy for 8e17 bytes, past any 57-bit address
        # space, so the allocation is refused at once and touches no memory
        preds, y = self_generated_regression(0, n=5)
        p, l = write_fixture(tmp_path, preds, y)
        code = cli.main(["check", "--predictions", p, "--labels", l, "--mode", "bayesian",
                         "--statistic", "calibration", "--replications", str(10 ** 17)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: Unable to allocate ")
        assert captured.err.count("\n") == 1

    def test_memory_error_without_text_is_named(self, tmp_path, capsys, monkeypatch):
        # Python's own MemoryError, as from growing a tuple, has an empty message
        def out_of_memory(args):
            raise MemoryError()

        monkeypatch.setattr(cli, "cmd_check", out_of_memory)
        preds, y = self_generated_regression(0, n=5)
        p, l = write_fixture(tmp_path, preds, y)
        code = cli.main(["check", "--predictions", p, "--labels", l, "--mode", "bayesian",
                         "--statistic", "calibration"])
        assert (code, capsys.readouterr().err) == (1, "error: out of memory\n")

    def test_every_package_error_is_a_value_error(self):
        # so that `main` catches each of them without naming one
        errors = {obj for module in (analytic, cli, io, oracle, ppc, predictive,
                                     recalibrate, st) for obj in vars(module).values()
                  if isinstance(obj, type) and issubclass(obj, Exception)
                  and obj.__module__.startswith("ppc_uq.")}
        assert st.KindMismatchError in errors and io.FileFormatError in errors
        assert all(issubclass(error, ValueError) for error in errors)
        assert issubclass(st.KindMismatchError, TypeError)   # as it is to every caller

    def test_defaults_are_the_librarys(self, tmp_path, capsys):
        check = cli.build_parser().parse_args(
            ["check", "--predictions", "P", "--labels", "L", "--statistic", "ece",
             "--mode", "bayesian"])
        assert check.bins == st.BinningConfig().num_bins
        assert (check.picp_low, check.picp_high) == (ppc.PicpStatistic().lower,
                                                     ppc.PicpStatistic().upper)
        assert (st.QuantileSet.default_levels(check.quantiles)
                == st.QuantileSet().levels)
        # the oracle's budget, read by behaviour: 2^20 outcomes of one member exceed it
        # as the library states it, and `--budget 0` is refused by the library's rule
        p, l = write_fixture(tmp_path, st.EnsemblePredictions.from_probs(
            np.full((20, 1, 2), 0.5)), np.zeros(20, dtype=int))
        flags = ["oracle", "--predictions", p, "--labels", l, "--statistic", "ece",
                 "--mode", "bayesian"]
        assert cli.main(flags) == 1
        assert capsys.readouterr().err == (
            f"error: enumeration needs {2 ** 20} joint outcomes, budget is "
            f"{oracle.EnumerationBudget().max_outcomes}\n")
        assert cli.main(flags + ["--budget", "0"]) == 1
        assert capsys.readouterr().err == "error: budget must be a positive integer\n"

    @pytest.mark.parametrize("flags,message", [
        (["--predictions", "PREDS", "--statistic", "calibration", "--replications", "abc"],
         "error: argument --replications: invalid integer value: 'abc'"),
        (["--predictions", "PREDS", "--statistic", "nope"],
         "error: argument --statistic: invalid choice: 'nope'"),
        (["--statistic", "calibration"],
         "error: the following arguments are required: --predictions"),
    ], ids=["bad-integer", "unknown-statistic", "missing-predictions"])
    def test_usage_errors_exit_1_not_the_fail_code(self, tmp_path, capsys, flags,
                                                   message):
        preds, y = self_generated_regression(0, n=5)
        p, l = write_fixture(tmp_path, preds, y)
        flags = [p if f == "PREDS" else f for f in flags]
        assert cli.main(["check", "--labels", l, "--mode", "bayesian"] + flags) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(message)
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["--version"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == 0
        assert capsys.readouterr().out

    def test_no_command_loads_scipy(self, tmp_path):
        # a fresh interpreter: the test process has scipy loaded already. The
        # Gaussian CDF is numpy's own, so regression checks do not load it either.
        # Neither `--version` nor a check loads the modules only other commands run,
        # nor the thread pool's `concurrent.futures` and the `logging` it imports, and
        # `--version` loads no `hashlib` (the input digests and `numpy.random`, through
        # `secrets`, do); `recalibrate` and `simulate` then load what they run, and no
        # `ppc_uq.oracle`, in the same process
        probs = np.full((4, 2, 3), 1.0 / 3.0)
        cls_p, cls_l = write_fixture(tmp_path, st.EnsemblePredictions.from_probs(probs),
                                     np.array([0, 1, 2, 0]))
        (tmp_path / "reg").mkdir()
        preds, y = self_generated_regression(0, n=20)
        reg_p, reg_l = write_fixture(tmp_path / "reg", preds, y)
        out_dir = str(tmp_path / "out")
        script = f"""
import contextlib, io, json, os, sys
from ppc_uq import cli
UNUSED = ("concurrent.futures", "logging", "ppc_uq.analytic", "ppc_uq.oracle",
          "ppc_uq.recalibrate")
def unused(names=UNUSED):
    return [name for name in names if name in sys.modules]
try:
    cli.main(["--version"])
except SystemExit:
    pass
version_loaded = ["orjson" in sys.modules, "scipy" in sys.modules]
unused_loaded = [unused(UNUSED + ("hashlib",))]
codes = [cli.main(["check", "--predictions", {cls_p!r}, "--labels", {cls_l!r},
                   "--statistic", "ece", "--mode", "independent",
                   "--replications", "20"])]
loaded = ["scipy" in sys.modules]
unused_loaded.append(unused())
codes.append(cli.main(["check", "--predictions", {reg_p!r}, "--labels", {reg_l!r},
                       "--statistic", "calibration", "--mode", "bayesian",
                       "--replications", "20"]))
loaded.append("scipy" in sys.modules)
unused_loaded.append(unused())
with contextlib.redirect_stdout(io.StringIO()):
    later = [cli.main(["recalibrate", "--predictions", {cls_p!r}, "--labels", {cls_l!r},
                       "--fraction", "0.5",
                       "--out-temps", os.path.join({out_dir!r}, "t.json"),
                       "--out-predictions", os.path.join({out_dir!r}, "r.jsonl")])]
    for flags in ([], ["--noise-as-std"]):
        later.append(cli.main(["simulate", "--scenario", "quadratic", "--n", "20",
                               "--models", "3", "--out-dir",
                               os.path.join({out_dir!r}, "q" + str(len(flags)))] + flags))
unused_loaded.append(unused(("ppc_uq.oracle",)))
print(json.dumps({{"codes": codes, "loaded": loaded, "version_loaded": version_loaded,
                  "unused_loaded": unused_loaded, "later": later}}))
"""
        os.mkdir(out_dir)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                             check=True,
                             capture_output=True, text=True).stdout
        result = json.loads(out.splitlines()[-1])
        assert result["version_loaded"] == [False, False]
        assert result["loaded"] == [False, False]
        assert all(code in (0, 2) for code in result["codes"])
        assert result["unused_loaded"] == [[], [], [], []]
        assert result["later"] == [0, 0, 0]
        assert json.loads((tmp_path / "out" / "t.json").read_text())["temperatures"]
        # the noise constant read as a variance (0.5) and as a standard deviation (0.25)
        for noise_var, flags in ((0.5, "q0"), (0.25, "q1")):
            x_train, y_train, _, _ = analytic.generate_quadratic_dataset(
                analytic.QuadraticDatasetConfig(n=20, noise_var=noise_var))
            preds, _ = io.load_predictions(tmp_path / "out" / flags / "id_predictions.jsonl")
            written = io.load_labels(tmp_path / "out" / flags / "train_labels.csv",
                                     st.EnsemblePredictions.from_gaussians(
                                         np.zeros((20, 1)), np.ones((20, 1))))
            assert written.tobytes() == y_train.tobytes()
            assert preds.num_models == 3

    @pytest.mark.parametrize("statistic", list(cli.STATISTICS) + ["calibration-tiny-std"])
    def test_check_does_not_load_numpy_ma(self, tmp_path, statistic):
        # each statistic in a fresh interpreter; `np.quantile` or `np.union1d` would
        # load it, and a std of 1e-310 takes the bracket's one path as any other
        if statistic in ("ece", "accuracy"):
            preds, y = preds_of(st.CLASSIFICATION, 20), np.arange(20) % 3
        elif statistic == "calibration-tiny-std":
            stds = np.ones((20, 2))
            stds[3, 1] = 1e-310
            statistic, y = "calibration", np.linspace(-1.0, 1.0, 20)
            preds = st.EnsemblePredictions.from_gaussians(np.stack([y, -y], axis=1), stds)
        else:
            preds, y = self_generated_regression(0, n=20)
        p, l = write_fixture(tmp_path, preds, y)
        script = f"""
import contextlib, io, sys
from ppc_uq import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["check", "--predictions", {p!r}, "--labels", {l!r}, "--statistic",
                     {statistic!r}, "--mode", "bayesian", "--replications", "20"])
print(code, "numpy.ma" in sys.modules)
"""
        src = os.path.dirname(os.path.dirname(cli.__file__))
        out = subprocess.run([sys.executable, "-W", "error", "-c", script],
                             env=dict(os.environ, PYTHONPATH=src), check=True,
                             capture_output=True, text=True).stdout
        assert out.split()[1] == "False" and out.split()[0] in ("0", "2")


class TestCheckAndOracleAgree:
    """Both commands reject bad input through the same library checks."""

    @pytest.mark.parametrize("statistic,mode,num_labels", [
        ("calibration", "bayesian", 2),
        ("ece", "bayesian", 3),
        ("ece", "point:-1", 2),
        ("ece", "point:2", 2),
        ("ece", "point:x", 2),
    ], ids=["kind-mismatch", "label-count", "point:-1", "point:M", "point:x"])
    def test_same_single_error_line(self, tmp_path, capsys, statistic, mode,
                                    num_labels):
        probs = np.full((2, 2, 2), 0.5)
        p, l = write_fixture(tmp_path, st.EnsemblePredictions.from_probs(probs),
                             np.zeros(num_labels, dtype=int))
        errors = []
        for command in ("check", "oracle"):
            code = cli.main([command, "--predictions", p, "--labels", l,
                             "--statistic", statistic, "--mode", mode])
            assert code == 1
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and errors[0].count("\n") == 1

    @pytest.mark.parametrize("mode", ["point:1_0", "point: 2", "point:+1",
                                      "point:\u0663", "point:2 ", "point:"])
    def test_point_index_is_plain_ascii_digits(self, tmp_path, capsys, mode):
        # with 11 members, int() would read each of these as a valid index
        probs = np.full((2, 11, 2), 0.5)
        p, l = write_fixture(tmp_path, st.EnsemblePredictions.from_probs(probs),
                             np.zeros(2, dtype=int))
        for command in ("check", "oracle"):
            code = cli.main([command, "--predictions", p, "--labels", l,
                             "--statistic", "ece", "--mode", mode])
            assert code == 1
            assert capsys.readouterr().err == f"error: unknown mode: {mode!r}\n"


GOOD_ROWS = {"probs": "[[0.5, 0.5]]", "logits": "[[0.5, 0.5]]",
             "gaussian": '[{"mean": 0.0, "std": 1.0}]'}

# id: (values, header changes, prediction row, label, message after "line 3: ").
# The fault is the prediction row or the label when one is given, else the header.
LINE_3_FAULTS = {
    "probs-nan": ("probs", {}, "[[NaN, 0.5]]", None, "probs must be finite"),
    "logits-inf": ("logits", {}, "[[Infinity, 0.0]]", None, "logits must be finite"),
    "means-nan": ("gaussian", {}, '[{"mean": NaN, "std": 1.0}]', None,
                  "means must be finite"),
    "stds-inf": ("gaussian", {}, '[{"mean": 0.0, "std": Infinity}]', None,
                 "stds must be finite"),
    "probs-negative": ("probs", {}, "[[-0.5, 1.5]]", None, "probs must be >= 0"),
    "probs-sum-1.1": ("probs", {}, "[[0.6, 0.5]]", None,
                      "per-model probability rows must sum to 1"),
    "std-zero": ("gaussian", {}, '[{"mean": 0.0, "std": 0.0}]', None,
                 "stds must be > 0"),
    "probs-string": ("probs", {}, '[["0.5", "0.5"]]', None,
                     "expected 1x2 preds of JSON numbers"),
    "probs-boolean": ("probs", {}, "[[true, false]]", None,
                      "expected 1x2 preds of JSON numbers"),
    "probs-boolean-among-numbers": ("probs", {}, "[[true, 0.0]]", None,
                                    "expected 1x2 preds of JSON numbers"),
    "logits-boolean-among-numbers": ("logits", {}, "[[0.5, false]]", None,
                                     "expected 1x2 preds of JSON numbers"),
    "gaussian-string": ("gaussian", {}, '[{"mean": "0", "std": "1"}]', None,
                        "expected 1 gaussian entries of numbers 'mean' and 'std'"),
    "gaussian-boolean": ("gaussian", {}, '[{"mean": 0.0, "std": true}]', None,
                         "expected 1 gaussian entries of numbers 'mean' and 'std'"),
    "label-nan": ("gaussian", {}, None, "nan", "labels must be finite"),
    "label-non-integer": ("probs", {}, None, "0.5",
                          "classification labels must be integers"),
    "label-out-of-range": ("probs", {}, None, "2", "class labels must be in [0, 2)"),
    "label-digit-group": ("gaussian", {}, None, "1_0", "bad label '1_0'"),
    "label-arabic-indic-digit": ("probs", {}, None, "\u0660", "bad label '\u0660'"),
    "rows-string": ("probs", {"rows": "2"}, None, None,
                    "header field 'rows' must be a positive integer, got '2'"),
    "rows-boolean": ("probs", {"rows": True}, None, None,
                     "header field 'rows' must be a positive integer, got True"),
    "rows-fraction": ("probs", {"rows": 1.9}, None, None,
                      "header field 'rows' must be a positive integer, got 1.9"),
    "models-negative": ("probs", {"models": -1}, None, None,
                        "header field 'models' must be a positive integer, got -1"),
    "classes-zero": ("probs", {"classes": 0}, None, None,
                     "header field 'classes' must be a positive integer, got 0"),
}


class TestFaultsNameLineThree:
    """Every value and header fault is reported at its file line, here line 3
    after a blank line, by the loader and by both commands that read a run."""

    @staticmethod
    def write_files(tmp_path, values, changes, row, label):
        header = {"kind": "regression" if values == "gaussian" else "classification",
                  "rows": 2, "models": 1, "values": values}
        if values != "gaussian":
            header["classes"] = 2
        header.update(changes)
        good = '{"preds": %s}' % GOOD_ROWS[values]
        if row is not None:
            lines = [json.dumps(header), "", '{"preds": %s}' % row, good]
        elif label is not None:
            lines = [json.dumps(header), good, good]
        else:
            lines = ["", "", json.dumps(header), good, good]
        pred_path, label_path = tmp_path / "preds.jsonl", tmp_path / "labels.csv"
        pred_path.write_text("\n".join(lines) + "\n")
        # the label on line 3 is row 1: row 0 is on line 1
        label_path.write_text("0\n1\n" if label is None else f"0\n\n{label}\n")
        return str(pred_path), str(label_path)

    @pytest.mark.parametrize("case", list(LINE_3_FAULTS))
    def test_loader_and_commands_name_line_3(self, tmp_path, capsys, case):
        values, changes, row, label, message = LINE_3_FAULTS[case]
        p, l = self.write_files(tmp_path, values, changes, row, label)
        with pytest.raises(io.FileFormatError, match=f"^line 3: {re.escape(message)}$"):
            preds, _ = io.load_predictions(p)
            io.load_labels(l, preds)
        statistic = "calibration" if values == "gaussian" else "ece"
        for command in ("check", "oracle"):
            code = cli.main([command, "--predictions", p, "--labels", l,
                             "--statistic", statistic, "--mode", "bayesian"])
            assert code == 1
            assert capsys.readouterr().err == f"error: line 3: {message}\n"


class TestWrites:
    """A file a command cannot write is named as asked for, never as the hidden
    file that `io.atomic_write` writes first, and no hidden file is left."""

    @pytest.mark.parametrize("target", ["check", "out-temps", "out-predictions",
                                        "simulate"])
    def test_a_write_error_names_the_path_asked_for(self, tmp_path, capsys, target):
        probs = np.full((4, 2, 3), 1.0 / 3.0)
        p, l = write_fixture(tmp_path, st.EnsemblePredictions.from_probs(probs),
                             np.array([0, 1, 2, 0]))
        missing = str(tmp_path / "missing" / "out")
        ok = str(tmp_path / "ok")
        argv = {
            "check": ["check", "--predictions", p, "--labels", l, "--statistic", "ece",
                      "--mode", "bayesian", "--replications", "20", "--out", missing],
            "out-temps": ["recalibrate", "--predictions", p, "--labels", l,
                          "--fraction", "0.5", "--out-temps", missing,
                          "--out-predictions", ok],
            "out-predictions": ["recalibrate", "--predictions", p, "--labels", l,
                                "--fraction", "0.5", "--out-temps", ok,
                                "--out-predictions", missing],
            "simulate": ["simulate", "--scenario", "location", "--n", "3",
                         "--models", "2", "--out-dir", str(tmp_path / "sim")],
        }[target]
        errno, path = 2, missing
        if target == "simulate":   # its first file's name is taken by a directory
            path = str(tmp_path / "sim" / "predictions_bayes.jsonl")
            os.makedirs(path)
            errno = 21
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"error: [Errno {errno}] {os.strerror(errno)}: {path!r}\n")
        assert not [f for _, _, files in os.walk(tmp_path) for f in files
                    if f.startswith(".ppc-uq-")]


class TestExit:
    """`main` has `gc.freeze` run at exit, once per process, so the interpreter's
    final collections traverse nothing; a CLI process writes what `main` in this
    process writes, so no file depends on those collections."""

    def run(self, script, *args):
        src = os.path.dirname(os.path.dirname(cli.__file__))
        return subprocess.run([sys.executable, "-c", script, *args], check=True,
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True).stdout.splitlines()

    def test_two_main_calls_register_one_freeze(self):
        # a fresh interpreter, with `gc.freeze` counted, registered before `main` runs
        # so that it reports after the freeze at exit (atexit runs last in, first out)
        script = """
import atexit, gc, json
freeze, calls = gc.freeze, []
def counted():
    calls.append(1)
    freeze()
gc.freeze = counted
atexit.register(lambda: print(json.dumps([len(calls), gc.get_freeze_count() > 0])))
from ppc_uq import cli
try:
    cli.main(["--version"])
except SystemExit:
    pass
print(json.dumps([cli.main(["check"]), len(calls)]))   # a usage error returns
"""
        assert [json.loads(line) for line in self.run(script)[-2:]] == [[1, 0], [1, True]]

    def test_a_cli_process_writes_main_s_bytes_and_freezes_at_exit(self, tmp_path, capsys):
        probs = np.random.default_rng(3).dirichlet(np.ones(3), size=(40, 4))
        p, l = write_fixture(tmp_path, st.EnsemblePredictions.from_probs(probs),
                             np.arange(40) % 3)

        def argvs(tag):
            out = str(tmp_path / tag)
            return [["check", "--predictions", p, "--labels", l, "--statistic", "ece",
                     "--mode", "bayesian", "--replications", "50",
                     "--out", out + "-report.json"],
                    ["recalibrate", "--predictions", p, "--labels", l, "--fraction", "0.5",
                     "--out-temps", out + "-temps.json",
                     "--out-predictions", out + "-preds.jsonl"]]

        for argv in argvs("here"):
            assert cli.main(argv) in (0, 2)
        capsys.readouterr()
        # registered before `main`, so it runs after the freeze (atexit runs last in first)
        script = """
import atexit, gc, sys
atexit.register(lambda: print("frozen at exit:", gc.get_freeze_count() > 0))
from ppc_uq.cli import main
code = main(sys.argv[1:])
print("frozen on return:", gc.get_freeze_count() > 0)
sys.exit(code)
"""
        for argv in argvs("child"):
            assert self.run(script, *argv)[-2:] == ["frozen on return: False",
                                                    "frozen at exit: True"]
        for name in ("report.json", "temps.json", "preds.jsonl"):
            assert ((tmp_path / f"child-{name}").read_bytes()
                    == (tmp_path / f"here-{name}").read_bytes())


class TestRecalibrateCommand:
    def _overconfident_files(self, tmp_path, n=2000):
        rng = np.random.default_rng(5)
        z = rng.normal(0, 2.0, size=(n, 2, 4))
        true_probs = st.softmax(z / 2.0).mean(axis=1)
        labels = (rng.random(n)[:, None] > np.cumsum(true_probs, axis=1)).sum(axis=1)
        preds = st.EnsemblePredictions.from_logits(z)
        return write_fixture(tmp_path, preds, labels) + (z, labels)

    def test_outputs_and_row_count(self, tmp_path):
        p, l, z, labels = self._overconfident_files(tmp_path)
        temps_path = tmp_path / "temps.json"
        out_preds = tmp_path / "recal.jsonl"
        code = cli.main(["recalibrate", "--predictions", p, "--labels", l,
                         "--out-temps", str(temps_path),
                         "--out-predictions", str(out_preds)])
        assert code == 0
        temps = json.loads(temps_path.read_text())["temperatures"]
        assert len(temps) == 2 and all(t > 0 for t in temps)
        loaded, _ = io.load_predictions(out_preds)
        assert loaded.num_rows == 2000 - int(math.floor(0.2 * 2000))

    def test_probabilities_fit_as_the_logits_they_came_from(self, tmp_path, rng):
        """A probs file is fitted through log p, a per-row shift of the logits
        that softmax ignores: same temperatures, same recalibrated rows."""
        labels = rng.integers(0, 4, 500)
        logits = 2.0 * rng.standard_normal((500, 3, 4))
        logits[np.arange(500), :, labels] += rng.random((500, 3)) * [1.0, 2.0, 3.0]
        out = {}
        for name, preds in (("logits", st.EnsemblePredictions.from_logits(logits)),
                            ("probs", st.EnsemblePredictions.from_probs(
                                st.softmax(logits)))):
            (tmp_path / name).mkdir()
            p, l = write_fixture(tmp_path / name, preds, labels)
            temps, recal = tmp_path / name / "t.json", tmp_path / name / "o.jsonl"
            assert cli.main(["recalibrate", "--predictions", p, "--labels", l,
                             "--out-temps", str(temps),
                             "--out-predictions", str(recal)]) == 0
            out[name] = (json.loads(temps.read_text())["temperatures"],
                         io.load_predictions(recal)[0].probs)
        np.testing.assert_allclose(out["probs"][0], out["logits"][0], rtol=1e-12, atol=0)
        assert len(set(out["logits"][0])) == 3     # three members, three temperatures
        np.testing.assert_allclose(out["probs"][1], out["logits"][1], rtol=0, atol=1e-12)

    def test_gaussian_predictions_are_one_error_line(self, tmp_path, capsys):
        preds, y = self_generated_regression(0, n=20)
        p, l = write_fixture(tmp_path, preds, y)
        code = cli.main(["recalibrate", "--predictions", p, "--labels", l,
                         "--out-temps", str(tmp_path / "t.json"),
                         "--out-predictions", str(tmp_path / "o.jsonl")])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == "error: recalibration needs classification predictions\n"
        assert sorted(os.listdir(tmp_path)) == ["labels.csv", "preds.jsonl"]


class TestSimulateCommand:
    def test_location_files(self, tmp_path):
        out = tmp_path / "loc"
        code = cli.main(["simulate", "--scenario", "location", "--seed", "1",
                         "--n", "200", "--models", "1000",
                         "--out-dir", str(out)])
        assert code == 0
        preds, _ = io.load_predictions(out / "predictions_bayes.jsonl")
        # mixture variance: spread of component means plus unit noise
        assert preds.means[0].var() + 1.0 == pytest.approx(2.0, abs=0.15)
        marginal, _ = io.load_predictions(out / "predictions_marginal.jsonl")
        assert marginal.num_models == 1
        assert marginal.stds[0, 0] == pytest.approx(math.sqrt(2.0))
        labels = io.load_labels(out / "labels.csv", preds)
        assert labels.size == 200

    def test_quadratic_files(self, tmp_path):
        out = tmp_path / "quad"
        code = cli.main(["simulate", "--scenario", "quadratic", "--seed", "2",
                         "--n", "50", "--models", "10", "--out-dir", str(out)])
        assert code == 0
        x_train = np.loadtxt(out / "train_inputs.csv", skiprows=1)
        assert not np.any((x_train > -1.5) & (x_train < 0.0))
        for tag in ("id", "ood"):
            preds, _ = io.load_predictions(out / f"{tag}_predictions.jsonl")
            labels = io.load_labels(out / f"{tag}_labels.csv", preds)
            assert preds.num_rows == labels.size
            assert preds.num_models == 10
        _, y_id, _, _ = analytic.generate_quadratic_dataset(
            analytic.QuadraticDatasetConfig(n=200, seed=3))
        id_preds, _ = io.load_predictions(out / "id_predictions.jsonl")
        np.testing.assert_array_equal(
            io.load_labels(out / "id_labels.csv", id_preds), y_id)

    def test_quadratic_ensemble_reads_the_configs_noise_variance(self, tmp_path):
        out = tmp_path / "quad"
        assert cli.main(["simulate", "--scenario", "quadratic", "--seed", "2", "--n", "50",
                         "--models", "10", "--out-dir", str(out)]) == 0
        cfg = analytic.QuadraticDatasetConfig(n=50, seed=2)
        x_train, y_train, x_ood, _ = analytic.generate_quadratic_dataset(cfg)
        x_id, _, _, _ = analytic.generate_quadratic_dataset(
            analytic.QuadraticDatasetConfig(n=200, seed=3))
        ens_cfg = analytic.BayesianLinearEnsembleConfig(num_models=10,
                                                        noise_var=cfg.noise_var, seed=2)
        for tag, xs in (("id", x_id), ("ood", x_ood)):
            written, _ = io.load_predictions(out / f"{tag}_predictions.jsonl")
            expected = analytic.bayesian_linear_ensemble(ens_cfg, x_train, y_train, xs)
            # orjson writes shortest round-trip floats, so equal means equal bits
            assert written.means.tobytes() == expected.means.tobytes()
            assert written.stds.tobytes() == expected.stds.tobytes()

    def test_conjugate_single_zero_observation(self, tmp_path):
        out = tmp_path / "conj"
        code = cli.main(["simulate", "--scenario", "conjugate", "--seed", "3",
                         "--n", "4", "--models", "10", "--data", "0",
                         "--out-dir", str(out)])
        assert code == 0
        preds, _ = io.load_predictions(out / "predictions.jsonl")
        assert preds.num_models == 1
        assert preds.means[0, 0] == pytest.approx(0.0)
        assert preds.stds[0, 0] == pytest.approx(math.sqrt(1.5))

    def test_conjugate_without_data_draws_its_observations(self, tmp_path):
        out = tmp_path / "conj"
        argv = ["simulate", "--scenario", "conjugate", "--seed", "3", "--n", "50",
                "--models", "10", "--theta-true", "4", "--out-dir", str(out)]
        assert cli.main(argv) == 0
        preds, _ = io.load_predictions(out / "predictions.jsonl")
        # the posterior mean of 50 draws from N(4, 1) under the N(0, 1) prior
        assert preds.means[0, 0] == pytest.approx(4.0 * 50 / 51, abs=0.5)
        assert preds.stds[0, 0] == pytest.approx(math.sqrt(1.0 + 1.0 / 51))
        first = (out / "ensemble_predictions.jsonl").read_bytes()
        assert cli.main(argv) == 0
        assert (out / "ensemble_predictions.jsonl").read_bytes() == first


    @pytest.mark.parametrize("flags,message", [
        (["--data", "1_0,\u0663"], "error: argument --data: not a number: '1_0'"),
        (["--data", "1,\u0663"], "error: argument --data: not a number: '\u0663'"),
        (["--data", "0,nan"], "error: argument --data: not a finite number: 'nan'"),
        (["--theta-true", "nan"],
         "error: argument --theta-true: invalid number value: 'nan'"),
        (["--n", "1_0"], "error: argument --n: invalid integer value: '1_0'"),
    ], ids=["data-digit-group", "data-arabic-indic", "data-nan", "theta-nan",
            "n-digit-group"])
    def test_numbers_are_ascii_finite_without_digit_groups(self, tmp_path, capsys,
                                                            flags, message):
        out = tmp_path / "conj"
        code = cli.main(["simulate", "--scenario", "conjugate", "--n", "4",
                         "--models", "3", "--out-dir", str(out)] + flags)
        assert (code, capsys.readouterr().err) == (1, message + "\n")
        assert not out.exists()


class TestOracleCommand:
    def test_single_model_pmf(self, tmp_path, capsys):
        preds = st.EnsemblePredictions.from_probs([[[0.7, 0.3]]])
        p, l = write_fixture(tmp_path, preds, np.array([0]))
        code = cli.main(["oracle", "--predictions", p, "--labels", l,
                         "--statistic", "accuracy", "--mode", "bayesian"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == [0.0, 1.0]
        assert payload["masses"] == pytest.approx([0.3, 0.7])
        assert payload["observed"] == 1.0

    def test_mode_separation_through_files(self, tmp_path, capsys):
        probs = np.zeros((2, 2, 2))
        probs[:, 0, 0] = 1.0
        probs[:, 1, 1] = 1.0
        preds = st.EnsemblePredictions.from_probs(probs)
        p, l = write_fixture(tmp_path, preds, np.array([0, 0]))
        results = {}
        for mode in ("bayesian", "independent"):
            code = cli.main(["oracle", "--predictions", p, "--labels", l,
                             "--statistic", "accuracy", "--mode", mode])
            assert code == 0
            results[mode] = json.loads(capsys.readouterr().out)
        assert results["bayesian"]["masses"] == pytest.approx([0.5, 0.5])
        assert results["independent"]["masses"] == pytest.approx([0.25, 0.5, 0.25])

    def test_builds_one_context(self, tmp_path, capsys, context_builds):
        preds = st.EnsemblePredictions.from_probs([[[0.7, 0.3]], [[0.4, 0.6]]])
        p, l = write_fixture(tmp_path, preds, np.array([0, 1]))
        code = cli.main(["oracle", "--predictions", p, "--labels", l,
                         "--statistic", "ece", "--mode", "independent"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["observed"] == pytest.approx(0.35)
        assert len(context_builds) == 1

    def test_row_sums_off_one_within_tolerance(self, tmp_path, capsys):
        # row 0 sums to 1 + 5e-7, which the loader accepts; the label draw
        # gives its predicted class 1 the band (0.4, 1], of mass 0.6, and
        # row 1 the masses 0.25 and 0.875 under members 0 and 1
        probs = np.array([[[0.4, 0.6000005], [0.4, 0.6000005]],
                          [[0.75, 0.25], [0.125, 0.875]]])
        p, l = write_fixture(tmp_path, st.EnsemblePredictions.from_probs(probs),
                             np.array([1, 0]))

        def hit_counts(q0, q1):
            return np.array([(1 - q0) * (1 - q1), q0 * (1 - q1) + (1 - q0) * q1,
                             q0 * q1])

        accuracy = {"bayesian": (hit_counts(0.6, 0.25) + hit_counts(0.6, 0.875)) / 2,
                    "independent": hit_counts(0.6, 0.5625),
                    "point:1": hit_counts(0.6, 0.875)}
        for mode, want in accuracy.items():
            for statistic in ("ece", "accuracy"):
                code = cli.main(["oracle", "--predictions", p, "--labels", l,
                                 "--statistic", statistic, "--mode", mode])
                captured = capsys.readouterr()
                assert (code, captured.err) == (0, "")
                masses = json.loads(captured.out)["masses"]
                assert abs(math.fsum(masses) - 1.0) <= 1e-12
            np.testing.assert_allclose(masses, want, rtol=0, atol=1e-12)

    def test_budget_exceeded_exit_code(self, tmp_path, capsys):
        probs = np.full((8, 2, 2), 0.5)
        preds = st.EnsemblePredictions.from_probs(probs)
        p, l = write_fixture(tmp_path, preds, np.zeros(8, dtype=int))
        code = cli.main(["oracle", "--predictions", p, "--labels", l,
                         "--statistic", "ece", "--mode", "bayesian",
                         "--budget", "100"])
        assert code == 1
        assert "512" in capsys.readouterr().err
