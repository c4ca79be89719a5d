"""The prediction-line codec: orjson writes and reads the lines, `json`
decides every line orjson refuses."""
import json
import os
import re
import subprocess
import sys
import time

import numpy as np
import pytest

from ppc_uq import io
from ppc_uq import statistics as st

TINY, BIG = 5e-324, np.finfo(float).max
EDGES = [TINY, 1e-05, 1e22, -0.0, BIG]


def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def edge_predictions():
    """Probs, logits and gaussian predictions holding every value of EDGES
    that their rules allow, with the sign of -0.0."""
    probs = np.array([[[TINY, 1.0], [1e-05, 1.0 - 1e-05], [-0.0, 1.0]]])
    logits = np.array([EDGES, [-v for v in EDGES]])[:, None, :]
    means = np.array([EDGES, [-v for v in EDGES]])
    stds = np.array([[TINY, 1e-05, 1e22, 1.0, BIG]] * 2)
    return {"probs": st.EnsemblePredictions.from_probs(probs),
            "logits": st.EnsemblePredictions.from_logits(logits),
            "gaussian": st.EnsemblePredictions.from_gaussians(means, stds)}


def arrays(preds):
    return [a for a in (preds.probs, preds.logits, preds.means, preds.stds)
            if a is not None]


@pytest.mark.parametrize("values", ["probs", "logits", "gaussian"])
def test_save_then_load_is_bit_exact(tmp_path, values):
    preds = edge_predictions()[values]
    path = tmp_path / "p.jsonl"
    io.save_predictions(path, preds)
    loaded, header = io.load_predictions(path)
    assert header["values"] == values
    for written, read in zip(arrays(preds), arrays(loaded), strict=True):
        np.testing.assert_array_equal(bits(read), bits(written))


@pytest.mark.parametrize("values", ["probs", "logits", "gaussian"])
def test_every_written_line_reads_the_same_with_json(tmp_path, values):
    preds = edge_predictions()[values]
    path = tmp_path / "p.jsonl"
    io.save_predictions(path, preds)
    header, *rows = [json.loads(line) for line in path.read_text().splitlines()]
    assert header == io.load_predictions(path)[1]
    if values == "gaussian":
        pairs = np.array([[[e["mean"], e["std"]] for e in r["preds"]] for r in rows])
        read = [pairs[..., 0], pairs[..., 1]]
    else:
        read = [np.array([r["preds"] for r in rows])]
    for written, parsed in zip(arrays(preds), read, strict=True):
        np.testing.assert_array_equal(bits(parsed), bits(written))


def test_rows_are_streamed_to_the_file(tmp_path, monkeypatch):
    chunks = []
    atomic_write = io.atomic_write

    def recording(path, parts):
        atomic_write(path, (chunks.append(p) or p for p in parts))

    monkeypatch.setattr(io, "atomic_write", recording)
    path = tmp_path / "p.jsonl"
    io.save_predictions(path, edge_predictions()["gaussian"])
    assert len(chunks) == 3 and all(c.endswith(b"\n") for c in chunks)
    assert b"".join(chunks) == path.read_bytes()


PINNED_FILES = {
    "probs": (st.EnsemblePredictions.from_probs([[[0.25, 0.75]], [[1.0, 0.0]]]),
              b'{"kind":"classification","rows":2,"models":1,"classes":2,"values":"probs"}\n'
              b'{"preds":[[0.25,0.75]]}\n{"preds":[[1.0,0.0]]}\n'),
    "logits": (st.EnsemblePredictions.from_logits([[[-1.5, 0.0, 1e22]]]),
               b'{"kind":"classification","rows":1,"models":1,"classes":3,"values":"logits"}\n'
               b'{"preds":[[-1.5,0.0,1e22]]}\n'),
    "gaussian": (st.EnsemblePredictions.from_gaussians([[0.5, -1.0]], [[1.0, 0.1]]),
                 b'{"kind":"regression","rows":1,"models":2,"values":"gaussian"}\n'
                 b'{"preds":[{"mean":0.5,"std":1.0},{"mean":-1.0,"std":0.1}]}\n'),
}


@pytest.mark.parametrize("values", list(PINNED_FILES))
def test_written_bytes_are_pinned(tmp_path, values):
    preds, expected = PINNED_FILES[values]
    io.save_predictions(tmp_path / "p.jsonl", preds)
    assert (tmp_path / "p.jsonl").read_bytes() == expected


@pytest.mark.parametrize("layout", ["contiguous", "transposed"])
def test_numpy_rows_are_written_as_their_lists(tmp_path, layout):
    """The rows orjson encodes from numpy are the bytes of their `tolist()`,
    also for an array that is not C-contiguous."""
    import orjson
    rng = np.random.default_rng(23)
    logits = rng.uniform(-1, 1, (400, 5, 5)) * 10.0 ** rng.uniform(-20, 20, (400, 5, 5))
    logits[0, 0] = [0.0, -0.0, TINY, BIG, -BIG]
    if layout == "transposed":
        logits = logits.transpose(0, 2, 1)
        assert not logits.flags.c_contiguous
    preds = st.EnsemblePredictions.from_logits(logits)
    path = tmp_path / "p.jsonl"
    io.save_predictions(path, preds)
    rows = path.read_bytes().splitlines()[1:]
    assert rows == [orjson.dumps({"preds": r.tolist()}) for r in preds.logits]


HEADERS = {
    "probs": {"kind": "classification", "rows": 1, "models": 1, "classes": 2,
              "values": "probs"},
    "logits": {"kind": "classification", "rows": 1, "models": 1, "classes": 2,
               "values": "logits"},
    "gaussian": {"kind": "regression", "rows": 1, "models": 1, "values": "gaussian"},
}

# id: (values, line 2 of the file, the values read or the error after "line 2: ").
# Each line here is one orjson refuses or one whose error `json` names; the
# results are those of the `json`-only reader that came before orjson.
EDGE_LINES = {
    "nan": ("probs", '{"preds": [[NaN, 0.5]]}', "probs must be finite"),
    "infinity": ("logits", '{"preds": [[Infinity, 0.0]]}', "logits must be finite"),
    "minus-infinity": ("logits", '{"preds": [[0.0, -Infinity]]}',
                       "logits must be finite"),
    "1e400": ("logits", '{"preds": [[1e400, 0.0]]}', "logits must be finite"),
    "minus-1e400": ("gaussian", '{"preds": [{"mean": -1e400, "std": 1.0}]}',
                    "means must be finite"),
    "1e-400": ("logits", '{"preds": [[1e-400, -1e-400]]}', [[[0.0, -0.0]]]),
    "lone-surrogate-key": ("probs", '{"preds": [[0.5, 0.5]], "\\udc00": 1}',
                           [[[0.5, 0.5]]]),
    "lone-surrogate-value": ("probs", '{"preds": [["\\ud800", 0.5]]}',
                             "expected 1x2 preds of JSON numbers"),
    "leading-zero": ("probs", '{"preds": [[01, 0.5]]}',
                     "invalid JSON (Expecting ',' delimiter)"),
    "trailing-comma": ("probs", '{"preds": [[0.5, 0.5],]}',
                       "invalid JSON (Expecting value)"),
    "single-quotes": ("probs", "{'preds': [[0.5, 0.5]]}",
                      "invalid JSON (Expecting property name enclosed in double quotes)"),
    "not-an-object": ("probs", "[[0.5, 0.5]]", "expected a JSON object"),
}


def write_lines(tmp_path, *lines):
    path = tmp_path / "p.jsonl"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("case", list(EDGE_LINES))
def test_edge_lines_read_as_with_json_alone(tmp_path, case):
    values, line, expected = EDGE_LINES[case]
    path = write_lines(tmp_path, json.dumps(HEADERS[values]), line)
    if isinstance(expected, str):
        with pytest.raises(io.FileFormatError,
                           match=f"^line 2: {re.escape(expected)}$"):
            io.load_predictions(path)
    else:
        preds, _ = io.load_predictions(path)
        np.testing.assert_array_equal(bits(arrays(preds)[0]), bits(expected))


@pytest.mark.parametrize("where", ["header", "row"])
def test_deep_nesting_is_invalid_json_not_a_crash(tmp_path, where):
    # 100,000 nested objects crash orjson 3.8; `json` runs out of recursion
    header = json.dumps(HEADERS["probs"])
    if where == "header":
        deep = '{"a": ' * 100_000 + "1" + "}" * 100_000
        lines, lineno = [header[:-1] + ', "deep": ' + deep + "}",
                         '{"preds": [[0.5, 0.5]]}'], 1
    else:
        lines, lineno = [header, '{"preds": ' + "[" * 100_000 + "]" * 100_000 + "}"], 2
    path = write_lines(tmp_path, *lines)
    with pytest.raises(io.FileFormatError,
                       match=rf"^line {lineno}: invalid JSON \(nested too deeply\)$"):
        io.load_predictions(path)


def test_rows_with_many_brackets_read_the_same_through_json(tmp_path, monkeypatch):
    models = io.ORJSON_MAX_OPENERS   # each row line holds models + 2 openers
    means = np.linspace(-1.0, 1.0, 2 * models).reshape(2, models)
    preds = st.EnsemblePredictions.from_gaussians(means, np.ones_like(means))
    path = tmp_path / "p.jsonl"
    io.save_predictions(path, preds)
    read_by_json = []
    loads = json.loads
    monkeypatch.setattr(json, "loads",
                        lambda s, **kw: read_by_json.append(s) or loads(s, **kw))
    start = time.perf_counter()
    loaded, _ = io.load_predictions(path)
    assert time.perf_counter() - start < 1.0
    assert len(read_by_json) == 2
    np.testing.assert_array_equal(bits(loaded.means), bits(means))


# the deepest lines orjson is given: one exactly ORJSON_MAX_OPENERS characters
# long, which is not scanned, and one holding exactly ORJSON_MAX_OPENERS openers
DEEPEST = {
    "short-arrays": lambda most: "[" * (most // 2) + "]" * (most // 2),
    "short-objects": lambda most: ('{"":' * ((most - 1) // 5) + "0"
                                   + "}" * ((most - 1) // 5)).rjust(most),
    "most-openers-arrays": lambda most: "[" * most + "]" * most,
    "most-openers-objects": lambda most: '{"":' * most + "0" + "}" * most,
}


@pytest.mark.parametrize("case", list(DEEPEST))
def test_deepest_line_given_to_orjson_is_an_error_not_a_crash(tmp_path, case):
    # in a fresh process, so a stack overflow in orjson is a signal, not a lost run
    line = DEEPEST[case](io.ORJSON_MAX_OPENERS)
    assert len(line) == io.ORJSON_MAX_OPENERS or (
        line.count("[") + line.count("{") == io.ORJSON_MAX_OPENERS)
    path = tmp_path / "p.jsonl"   # no final line break: the row line is `line` exactly
    path.write_text(json.dumps(HEADERS["probs"]) + "\n" + line, encoding="utf-8")
    script = """import sys, orjson
from ppc_uq import io
loads = orjson.loads
orjson.loads = lambda s: print("orjson", len(s), file=sys.stderr) or loads(s)
io.load_predictions(sys.argv[1])
"""
    src = os.path.dirname(os.path.dirname(io.__file__))
    result = subprocess.run([sys.executable, "-W", "error", "-c", script, str(path)],
                            env=dict(os.environ, PYTHONPATH=src),
                            capture_output=True, text=True)
    assert result.returncode == 1
    assert f"orjson {len(line)}\n" in result.stderr
    assert result.stderr.splitlines()[-1].startswith("ppc_uq.io.FileFormatError: line 2: ")


def test_integer_beyond_64_bits_reads_as_the_nearest_double(tmp_path):
    # orjson reads an integer literal outside [-2**63, 2**64) as a double;
    # the json-only reader gave such a row object dtype and refused it
    path = write_lines(tmp_path, json.dumps(HEADERS["logits"]),
                       '{"preds": [[18446744073709551616, -9223372036854775809]]}')
    preds, _ = io.load_predictions(path)
    np.testing.assert_array_equal(bits(preds.logits), bits([[[2.0 ** 64, -2.0 ** 63]]]))


# the line breaks of `str.splitlines` that a JSON string may hold raw (its
# others are control characters, which JSON escapes)
OTHER_BREAKS = "\x85\u2028\u2029"


def test_other_line_breaks_inside_a_string_do_not_split_a_line(tmp_path):
    header = json.dumps(dict(HEADERS["probs"], note=f"a{OTHER_BREAKS}b"),
                        ensure_ascii=False)
    path = write_lines(tmp_path, header, '{"preds": [[0.25, 0.75]]}')
    preds, header_read = io.load_predictions(path)
    np.testing.assert_array_equal(preds.probs, [[[0.25, 0.75]]])
    assert header_read["note"] == f"a{OTHER_BREAKS}b"


def test_a_bad_row_after_such_a_header_is_named_at_its_file_line(tmp_path):
    header = json.dumps(dict(HEADERS["probs"], rows=2, note=OTHER_BREAKS),
                        ensure_ascii=False)
    path = write_lines(tmp_path, header, "", '{"preds": [[0.25, 0.75]]}',
                       '{"preds": [[0.25, "x"]]}')
    with pytest.raises(io.FileFormatError,
                       match=r"^line 4: expected 1x2 preds of JSON numbers$"):
        io.load_predictions(path)


def test_carriage_returns_end_lines(tmp_path):
    path = tmp_path / "p.jsonl"
    path.write_bytes((json.dumps(dict(HEADERS["probs"], rows=2)) + "\r\n"
                      + '{"preds": [[0.25, 0.75]]}\r{"preds": [[0.5, 0.5]]}\r\n').encode())
    preds, _ = io.load_predictions(path)
    np.testing.assert_array_equal(preds.probs, [[[0.25, 0.75]], [[0.5, 0.5]]])


@pytest.mark.parametrize("text", ["", "\n  \n\t\n"], ids=["empty", "blank"])
def test_prediction_file_without_lines_has_no_header(tmp_path, text):
    path = tmp_path / "p.jsonl"
    path.write_text(text)
    with pytest.raises(io.FileFormatError, match="^line 1: missing header$"):
        io.load_predictions(path)


def test_unknown_values_are_named(tmp_path):
    path = write_lines(tmp_path, json.dumps(dict(HEADERS["probs"], values="scores")),
                       '{"preds": [[0.25, 0.75]]}')
    with pytest.raises(io.FileFormatError, match="^line 1: unknown values 'scores'$"):
        io.load_predictions(path)


@pytest.mark.parametrize("text", ["", "label\n", "\n"], ids=["empty", "header-only",
                                                             "blank"])
def test_label_file_without_values_is_refused(tmp_path, text):
    path = tmp_path / "l.csv"
    path.write_text(text)
    preds = st.EnsemblePredictions.from_probs([[[0.5, 0.5]]])
    with pytest.raises(io.FileFormatError, match="^line 1: label file has no values$"):
        io.load_labels(path, preds)


def test_failed_write_leaves_the_target_and_no_temporary_file(tmp_path):
    target = tmp_path / "report.json"
    target.write_bytes(b"old\n")

    def chunks():
        yield b"new, half"
        raise RuntimeError("source failed")

    with pytest.raises(RuntimeError, match="source failed"):
        io.atomic_write(target, chunks())
    assert target.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["report.json"]
