"""The readers' contract as a property: a mutated prediction or label file is
accepted exactly when a strict reference reader, written here over stdlib
`json`, accepts it, with the same values bit for bit. Every refusal is a
`FileFormatError` that names the reference's file line, and through
`cli.main` it is one stderr line and exit 1."""
import contextlib
import io as _io
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as hst

from ppc_uq import cli, io
from ppc_uq import statistics as st

KINDS = {"probs": st.CLASSIFICATION, "logits": st.CLASSIFICATION,
         "gaussian": st.REGRESSION}
NUM_LABELS, NUM_CLASSES = 3, 2
TOKENS = ["true", "null", '"0.5"', "[]", "1e400", "NaN", "1_0", str(2 ** 64)]
LABEL_TOKENS = TOKENS + ["1e300", "-1", "0.5", "2.5", "-0", "Infinity", "label"]
# inserted characters: JSON syntax, digits, letters of the JSON literals, the
# line breaks \n and \r, characters that `str.splitlines` breaks at but a file
# line does not, whitespace that `str.strip` removes but JSON does not allow,
# a non-ASCII digit and `_`
INSERTED = '[]{},:"\\ 0123456789.-+eE\n\r\tafnlrstu\x85\u2028\x1c\u0663_'
NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|true|false|null")
COUNT = re.compile(r'"(?:rows|models|classes)": ?(-?\d+)')
LABEL = re.compile(r"[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?|[+-]?(?:nan|inf|infinity)",
                   re.ASCII | re.IGNORECASE)


class Refused(Exception):
    """The reference refuses the file; the fault is on file line `line`."""

    def __init__(self, line):
        super().__init__(line)
        self.line = line


# ---- the reference reader ----------------------------------------------------

def reference_lines(text):
    """(file line number, text) of each line that is not blank, after one leading
    U+FEFF (a UTF-8 byte-order mark, as spreadsheet exports write) is skipped. A
    line ends at \\n, at \\r\\n and at a lone \\r (U+2028 and U+0085 do not end
    one); it is blank when `str.strip` leaves nothing."""
    text = text.removeprefix("\ufeff")
    return [(i, line) for i, line in enumerate(re.split(r"\r\n|\r|\n", text), 1)
            if line.strip()]


def json_int(text):
    """A JSON integer: exact within [-2**63, 2**64), else the nearest double."""
    return int(text) if len(text) <= 20 and -2 ** 63 <= int(text) < 2 ** 64 else float(text)


def json_object(line, lineno):
    try:
        obj = json.loads(line, parse_int=json_int)
    except (ValueError, RecursionError):
        raise Refused(lineno) from None
    if not isinstance(obj, dict):
        raise Refused(lineno)
    return obj


def is_number(value):
    return type(value) in (int, float)   # a JSON number; a bool is not one


def first_failing(rows, holds):
    """Refused at the line of the first row on which `holds` fails."""
    for lineno, values in rows:
        if not holds(values):
            raise Refused(lineno)


def reference_predictions(text):
    """{field: array} of a prediction file, or Refused. The rules, in order:
    the header; the row count; each row's JSON and shape; then each value rule
    over all rows."""
    lines = reference_lines(text)
    if not lines:
        raise Refused(1)
    at, header = lines[0][0], json_object(lines[0][1], lines[0][0])
    if not all(key in header for key in ("kind", "rows", "models", "values")):
        raise Refused(at)
    values = header["values"]
    if not (isinstance(values, str) and values in KINDS
            and header["kind"] == KINDS[values]):
        raise Refused(at)
    gaussian = values == "gaussian"
    for key in ("rows", "models") + (() if gaussian else ("classes",)):
        if not (type(header.get(key)) is int and header[key] >= 1):
            raise Refused(at)
    if len(lines) - 1 != header["rows"]:
        raise Refused(lines[-1][0])
    m = header["models"]
    rows = []
    for lineno, line in lines[1:]:
        preds = json_object(line, lineno).get("preds")
        if gaussian:
            ok = isinstance(preds, list) and len(preds) == m and all(
                isinstance(e, dict) and is_number(e.get("mean")) and is_number(e.get("std"))
                for e in preds)
            row = [[float(e["mean"]), float(e["std"])] for e in preds] if ok else None
        else:
            ok = isinstance(preds, list) and len(preds) == m and all(
                isinstance(r, list) and len(r) == header["classes"]
                and all(map(is_number, r)) for r in preds)
            row = [[float(v) for v in r] for r in preds] if ok else None
        if not ok:
            raise Refused(lineno)
        rows.append((lineno, row))

    def finite(column):
        return lambda row: all(np.isfinite([pair[column] for pair in row]))
    if gaussian:
        first_failing(rows, finite(0))
        first_failing(rows, finite(1))
        first_failing(rows, lambda row: all(pair[1] > 0 for pair in row))
        table = np.array([row for _, row in rows])
        return {"means": table[..., 0], "stds": table[..., 1]}
    first_failing(rows, lambda row: all(np.isfinite(sum(row, []))))
    if values == "probs":
        first_failing(rows, lambda row: all(v >= -1e-12 for v in sum(row, [])))

        def sums_to_one(probs):
            total = 0.0
            for v in probs:
                total += v
            return abs(total - 1.0) <= 1e-6
        first_failing(rows, lambda row: all(map(sums_to_one, row)))
    return {values: np.array([row for _, row in rows])}


def reference_labels(text, kind):
    """The labels of a label file read against NUM_LABELS rows (and, for
    classification, NUM_CLASSES classes), or Refused. An optional first line
    `label`; then one number per line: ASCII, in `float`'s decimal or
    nan/inf spelling, with no `_`."""
    lines = reference_lines(text)
    if lines and lines[0][1].strip().lower() == "label":
        lines = lines[1:]
    if not lines:
        raise Refused(1)
    if len(lines) != NUM_LABELS:
        raise Refused(lines[-1][0])
    rows = []
    for lineno, line in lines:
        if not LABEL.fullmatch(line.strip()):
            raise Refused(lineno)
        rows.append((lineno, float(line.strip())))
    first_failing(rows, np.isfinite)
    if kind == st.REGRESSION:
        return np.array([v for _, v in rows])
    first_failing(rows, lambda v: v == int(v))
    first_failing(rows, lambda v: 0 <= v < NUM_CLASSES)
    return np.array([int(v) for _, v in rows])


# ---- mutated files --------------------------------------------------------------

@hst.composite
def mutated(draw, text, tokens):
    """`text` after one to three mutations: a token swapped, a header count set
    (up to 2**64), a character deleted or inserted, a slice duplicated."""
    for _ in range(draw(hst.integers(1, 3))):
        op = draw(hst.sampled_from(["token", "count", "delete", "insert", "duplicate"]))
        spans = [m.span(1 if op == "count" else 0)
                 for m in (COUNT if op == "count" else NUMBER).finditer(text)]
        if op in ("token", "count") and spans:
            lo, hi = draw(hst.sampled_from(spans))
            new = (draw(hst.sampled_from(tokens)) if op == "token" else
                   str(draw(hst.one_of(hst.integers(0, 4), hst.integers(0, 2 ** 64)))))
            text = text[:lo] + new + text[hi:]
        elif op == "delete" and text:
            i = draw(hst.integers(0, len(text) - 1))
            text = text[:i] + text[i + 1:]
        elif op == "insert":
            i = draw(hst.integers(0, len(text)))
            text = text[:i] + draw(hst.sampled_from(INSERTED)) + text[i:]
        elif op == "duplicate" and text:
            i = draw(hst.integers(0, len(text) - 1))
            j = draw(hst.integers(i, min(len(text), i + 40)))
            text = text[:j] + text[i:j] + text[j:]
    return text


@hst.composite
def prediction_files(draw):
    """A valid probs, logits or gaussian file of 1-3 rows, mutated."""
    values = draw(hst.sampled_from(sorted(KINDS)))
    n, m, c = draw(hst.integers(1, 3)), draw(hst.integers(1, 2)), draw(hst.integers(2, 3))
    rng = np.random.default_rng(draw(hst.integers(0, 2 ** 32 - 1)))
    header = {"kind": KINDS[values], "rows": n, "models": m, "classes": c,
              "values": values}
    if values == "gaussian":
        del header["classes"]
        rows = [[{"mean": float(rng.normal()), "std": float(rng.uniform(0.5, 2))}
                 for _ in range(m)] for _ in range(n)]
    else:
        table = rng.dirichlet(np.ones(c), (n, m)) if values == "probs" else \
            rng.normal(size=(n, m, c))
        rows = table.tolist()
    separators = draw(hst.sampled_from([(",", ":"), (", ", ": ")]))
    text = "\n".join(json.dumps(obj, separators=separators)
                     for obj in [header] + [{"preds": r} for r in rows]) + "\n"
    return draw(mutated(text, TOKENS))


@hst.composite
def label_files(draw):
    """(kind, a valid label file of NUM_LABELS rows, mutated)."""
    kind = draw(hst.sampled_from([st.CLASSIFICATION, st.REGRESSION]))
    labels = draw(hst.lists(hst.integers(0, NUM_CLASSES - 1) if kind == st.CLASSIFICATION
                            else hst.floats(-10, 10).map(repr),
                            min_size=NUM_LABELS, max_size=NUM_LABELS))
    head = draw(hst.sampled_from(["", "label\n", "Label\r\n"]))
    text = head + "\n".join(map(str, labels)) + "\n"
    return kind, draw(mutated(text, LABEL_TOKENS))


# ---- the property -----------------------------------------------------------------

@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory for the files of every example, with one valid prediction
    file of NUM_LABELS rows per kind for the label examples to be read against."""
    path = tmp_path_factory.mktemp("contract")
    for kind, preds in (
            (st.CLASSIFICATION, st.EnsemblePredictions.from_probs(
                np.full((NUM_LABELS, 1, NUM_CLASSES), 1 / NUM_CLASSES))),
            (st.REGRESSION, st.EnsemblePredictions.from_gaussians(
                np.zeros((NUM_LABELS, 1)), np.ones((NUM_LABELS, 1))))):
        io.save_predictions(path / f"{kind}.jsonl", preds)
    return path


def write(path, text):
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def refused_in_process_and_by_the_cli(read, refused, argv):
    """`read()` raises the FileFormatError that names refused.line, and
    `cli.main(argv)` prints it as its one stderr line and exits 1."""
    with pytest.raises(io.FileFormatError) as info:
        read()
    message = str(info.value)
    assert message.startswith(f"line {refused.line}: "), (message, refused.line)
    err, out = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert (code, err.getvalue(), out.getvalue()) == (1, f"error: {message}\n", "")


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@seed(16)
@settings(max_examples=300, deadline=None, database=None)
@given(text=prediction_files())
# a header count no row can fill: refused at the row, with nothing allocated
@example(text='{"kind": "classification", "rows": 1, "models": 1, '
              '"classes": 1844674407709551616, "values": "probs"}\n'
              '{"preds": [[0.5, 0.5]]}\n')
@example(text='{"kind": "classification", "rows": 1, "models": 1, '
              '"classes": 1000000000, "values": "probs"}\n{"preds": [[0.5, 0.5]]}\n')
@example(text='{"kind":"classification","rows":18446744073709551616,"models":1,'
              '"classes":2,"values":"probs"}\n{"preds":[[0.5,0.5]]}\n')
# 2**64 on a line that orjson refuses (for its NaN) reads as it does elsewhere
@example(text='{"kind": "classification", "rows": 1, "models": 1, "classes": 2, '
              '"values": "logits"}\n{"preds": [[18446744073709551616, 0.5]], "x": NaN}\n')
# a lone \r ends a line
@example(text='{"kind":"regression","rows":2,"models":1,"values":"gaussian"}\n'
              '{"preds":[{"mean":0.5,"std":1}]}\r{"preds":[{"mean":-1e400,"std":1}]}\n')
# a leading byte-order mark is skipped
@example(text='\ufeff{"kind":"regression","rows":1,"models":1,"values":"gaussian"}\n'
              '{"preds":[{"mean":0.5,"std":1}]}\n')
def test_prediction_reader_agrees_with_the_reference(workdir, text):
    path = write(workdir / "predictions.jsonl", text)
    try:
        expected = reference_predictions(text)
    except Refused as refused:
        labels = write(workdir / "labels.csv", "0\n")
        refused_in_process_and_by_the_cli(
            lambda: io.load_predictions(path), refused,
            ["check", "--predictions", path, "--labels", labels,
             "--statistic", "accuracy", "--mode", "bayesian"])
        return
    preds, _ = io.load_predictions(path)
    for name in ("probs", "logits", "means", "stds"):
        got = getattr(preds, name)
        if name not in expected:
            assert got is None
        else:
            assert got.shape == expected[name].shape
            np.testing.assert_array_equal(bits(got), bits(expected[name]))


@seed(16)
@settings(max_examples=300, deadline=None, database=None)
@given(case=label_files())
# an integral label past int64: out of range, with no cast warning first
@example(case=(st.CLASSIFICATION, "1e300\n0\n1\n"))
@example(case=(st.CLASSIFICATION, "label\n0\n-1e300\n1\n"))
# a fraction within the class range
@example(case=(st.CLASSIFICATION, "0\n0.5\n1\n"))
# too few labels: named at the last line
@example(case=(st.REGRESSION, "label\n0.5\n\n1.5\n"))
# a leading byte-order mark is skipped, so the header is read as one
@example(case=(st.REGRESSION, "\ufefflabel\n0.5\n1.5\n2.5\n"))
def test_label_reader_agrees_with_the_reference(workdir, case):
    kind, text = case
    preds_path = str(workdir / f"{kind}.jsonl")
    preds, _ = io.load_predictions(preds_path)
    path = write(workdir / "labels.csv", text)
    try:
        expected = reference_labels(text, kind)
    except Refused as refused:
        statistic = "accuracy" if kind == st.CLASSIFICATION else "calibration"
        refused_in_process_and_by_the_cli(
            lambda: io.load_labels(path, preds), refused,
            ["check", "--predictions", preds_path, "--labels", path,
             "--statistic", statistic, "--mode", "bayesian"])
        return
    got = io.load_labels(path, preds)
    assert got.dtype.kind == expected.dtype.kind
    np.testing.assert_array_equal(bits(got), bits(expected))


# ---- the two reader faults, through the command line ------------------------------

def run_cli_child(argv):
    """`cli.main(argv)` in a fresh interpreter with warnings as errors and a
    4 GiB address-space limit: (exit code, stderr)."""
    script = ("import resource, sys\n"
              "resource.setrlimit(resource.RLIMIT_AS, (4 << 30, 4 << 30))\n"
              "from ppc_uq import cli\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    src = os.path.dirname(os.path.dirname(io.__file__))
    result = subprocess.run([sys.executable, "-W", "error", "-c", script] + argv,
                            capture_output=True, text=True,
                            env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"))
    return result.returncode, result.stderr


@pytest.mark.parametrize("classes", [1844674407709551616, 1000000000])
def test_header_counts_allocate_nothing_before_a_row_matches(tmp_path, classes):
    # 10**9 classes asked numpy for 8 GB before any row was read: under a
    # 4 GiB address-space limit that was a MemoryError traceback
    header = {"kind": "classification", "rows": 1, "models": 1, "classes": classes,
              "values": "probs"}
    preds = write(tmp_path / "p.jsonl", json.dumps(header) + '\n{"preds": [[0.5, 0.5]]}\n')
    labels = write(tmp_path / "l.csv", "0\n")
    code, err = run_cli_child(["check", "--predictions", preds, "--labels", labels,
                               "--statistic", "ece", "--mode", "bayesian"])
    assert (code, err) == (1, f"error: line 2: expected 1x{classes} preds of JSON numbers\n")


def test_label_past_int64_is_out_of_range_under_warnings_as_errors(tmp_path):
    preds = str(tmp_path / "p.jsonl")
    io.save_predictions(preds, st.EnsemblePredictions.from_probs([[[0.5, 0.5]]]))
    labels = write(tmp_path / "l.csv", "1e300\n")
    code, err = run_cli_child(["check", "--predictions", preds, "--labels", labels,
                               "--statistic", "ece", "--mode", "bayesian"])
    assert (code, err) == (1, "error: line 1: class labels must be in [0, 2)\n")
