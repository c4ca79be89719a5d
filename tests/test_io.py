"""The prediction-line codec: orjson writes and reads the lines, `json`
decides every line orjson refuses."""
import json
import re

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


def test_rows_with_many_brackets_read_the_same_through_json(tmp_path):
    models = io.ORJSON_MAX_OPENERS
    means = np.linspace(-1.0, 1.0, 2 * models).reshape(2, models)
    preds = st.EnsemblePredictions.from_gaussians(means, np.ones_like(means))
    path = tmp_path / "p.jsonl"
    io.save_predictions(path, preds)
    loaded, _ = io.load_predictions(path)
    np.testing.assert_array_equal(bits(loaded.means), bits(means))


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
