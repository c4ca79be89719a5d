import json
import math
import os
import stat

import numpy as np
import pytest

from ppc_uq import analytic, cli, io, ppc
from ppc_uq import statistics as st


def write_fixture(tmp_path, preds, labels, values=None):
    pred_path = tmp_path / "preds.jsonl"
    label_path = tmp_path / "labels.csv"
    io.save_predictions(pred_path, preds, values=values)
    io.save_labels(label_path, labels)
    return str(pred_path), str(label_path)


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
        np.testing.assert_array_equal(io.load_labels(path, st.CLASSIFICATION),
                                      [0, 2, 1])

    def test_labels_regression(self, tmp_path):
        path = tmp_path / "labels.csv"
        vals = np.array([0.25, -1.5, 3.125])
        io.save_labels(path, vals)
        np.testing.assert_array_equal(io.load_labels(path, st.REGRESSION), vals)

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
        assert io.load_labels(path, st.CLASSIFICATION).tolist() == [1]

    def test_bad_label_names_its_file_line(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("label\n0.5\nabc\n")
        with pytest.raises(io.FileFormatError, match=r"^line 3: bad label 'abc'"):
            io.load_labels(path, st.REGRESSION)

    def test_bad_prediction_row_names_its_file_line(self, tmp_path):
        path = tmp_path / "preds.jsonl"
        header = {"kind": "classification", "rows": 2, "models": 1,
                  "classes": 2, "values": "probs"}
        path.write_text(json.dumps(header) + '\n\n{"preds": [[0.5, 0.5]]}\n'
                        '{"preds": [[1.0]]}\n')
        with pytest.raises(io.FileFormatError, match=r"^line 4: expected 1x2"):
            io.load_predictions(path)

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

    def test_reports_byte_identical_across_threads(self, tmp_path):
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

    def test_probabilities_rejected_without_flag(self, tmp_path, rng):
        raw = rng.random((10, 1, 3))
        probs = raw / raw.sum(axis=2, keepdims=True)
        preds = st.EnsemblePredictions.from_probs(probs)
        p, l = write_fixture(tmp_path, preds, rng.integers(0, 3, 10))
        args = ["recalibrate", "--predictions", p, "--labels", l,
                "--out-temps", str(tmp_path / "t.json"),
                "--out-predictions", str(tmp_path / "o.jsonl")]
        assert cli.main(args) == 1
        assert cli.main(args + ["--allow-log-probs"]) == 0


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
        labels = io.load_labels(out / "labels.csv", st.REGRESSION)
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
            labels = io.load_labels(out / f"{tag}_labels.csv", st.REGRESSION)
            assert preds.num_rows == labels.size
            assert preds.num_models == 10
        _, y_id, _, _ = analytic.generate_quadratic_dataset(
            analytic.QuadraticDatasetConfig(n=200, seed=3))
        np.testing.assert_array_equal(
            io.load_labels(out / "id_labels.csv", st.REGRESSION), y_id)

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

    def test_builds_one_context(self, tmp_path, capsys, monkeypatch):
        preds = st.EnsemblePredictions.from_probs([[[0.7, 0.3]], [[0.4, 0.6]]])
        p, l = write_fixture(tmp_path, preds, np.array([0, 1]))
        calls = []
        build = ppc.build_context

        def counting_build(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(ppc, "build_context", counting_build)
        code = cli.main(["oracle", "--predictions", p, "--labels", l,
                         "--statistic", "ece", "--mode", "independent"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["observed"] == pytest.approx(0.35)
        assert len(calls) == 1

    def test_budget_exceeded_exit_code(self, tmp_path, capsys):
        probs = np.full((8, 2, 2), 0.5)
        preds = st.EnsemblePredictions.from_probs(probs)
        p, l = write_fixture(tmp_path, preds, np.zeros(8, dtype=int))
        code = cli.main(["oracle", "--predictions", p, "--labels", l,
                         "--statistic", "accuracy", "--mode", "bayesian",
                         "--budget", "100"])
        assert code == 1
        assert "512" in capsys.readouterr().err
