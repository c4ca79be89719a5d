"""On-disk formats: JSON Lines predictions, CSV labels, JSON reports.

Prediction lines are read and written with orjson, imported by the two
prediction calls only; reports and the other JSON files use `json`.
"""
from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import os
import stat

import numpy as np

from . import statistics as st

# the prediction kind of each header `values`
PREDICTION_VALUES = {"probs": st.CLASSIFICATION, "logits": st.CLASSIFICATION,
                     "gaussian": st.REGRESSION}


class FileFormatError(ValueError):
    """Malformed prediction/label file; message names the offending line."""


def parse_number(text: str, integer: bool = False, finite: bool = False):
    """`text` as a float, or an int (optional '-', digits) if `integer`, in ASCII
    with no `_`, finite if `finite`; else ValueError. The one spelling of numbers
    in flags, label files and PPC_UQ_THREADS (`int` also reads '1_0', '\u0663')."""
    if not text.isascii() or "_" in text or (
            integer and not text.removeprefix("-").isdigit()):
        raise ValueError(f"not a number: {text!r}")
    value = int(text) if integer else float(text)
    if finite and not np.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


# orjson 3.8 recurses on the C stack with no depth limit: 70,000 nested objects
# overflow an 8 MB stack and kill the process. A line with more brackets and
# braces than this, which bound its depth, goes to `json` instead.
ORJSON_MAX_OPENERS = 1024


def _parse_json_line(line: str, lineno: int) -> dict:
    """The line's JSON object. `json` decides every line orjson refuses (NaN,
    Infinity, 1e400, an escaped lone surrogate) or is not given: it reads the
    value or names the error, so a line is accepted or refused as by `json`."""
    import orjson   # loaded by `load_predictions` before the file is read
    obj = None
    if line.count("[") + line.count("{") <= ORJSON_MAX_OPENERS:
        with contextlib.suppress(orjson.JSONDecodeError, RecursionError):
            obj = orjson.loads(line)
    if obj is None:
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError) as exc:
            why = getattr(exc, "msg", "nested too deeply")
            raise FileFormatError(f"line {lineno}: invalid JSON ({why})") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"line {lineno}: expected a JSON object")
    return obj


def _numbered_lines(path) -> list:
    """The file's non-blank lines as (file line number, text), numbered from 1,
    split at \n, \r\n and \r only: a JSON string may hold U+2028 and U+0085 raw."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(i, ln) for i, ln in enumerate(fh, 1) if ln.strip()]


@contextlib.contextmanager
def _rows_at(lines: list):
    """Report a row rule the library rejects at the file line of its row."""
    try:
        yield
    except st.InvalidRowError as exc:
        raise FileFormatError(f"line {lines[exc.row][0]}: {exc.rule}") from exc


def load_predictions(path) -> tuple:
    """Read a prediction file; returns (EnsemblePredictions, header dict).
    The library checks the values; their errors name the row's file line."""
    import orjson  # noqa: F401  (here, not after the read: that raises peak RSS)
    lines = _numbered_lines(path)
    if not lines:
        raise FileFormatError("line 1: missing header")
    at = lines[0][0]
    header = _parse_json_line(lines[0][1], at)
    for key in ("kind", "rows", "models", "values"):
        if key not in header:
            raise FileFormatError(f"line {at}: header missing field {key!r}")
    values = header["values"]
    if not isinstance(values, str) or values not in PREDICTION_VALUES:
        raise FileFormatError(f"line {at}: unknown values {values!r}")
    kind = PREDICTION_VALUES[values]
    if header["kind"] != kind:
        raise FileFormatError(
            f"line {at}: values {values!r} need kind {kind!r}, got {header['kind']!r}")
    gaussian = kind == st.REGRESSION
    for key in ("rows", "models") + (() if gaussian else ("classes",)):
        count = header.get(key)
        if type(count) is not int or count < 1:  # a JSON integer; bool is not one
            raise FileFormatError(f"line {at}: header field {key!r} must be a "
                                  f"positive integer, got {count!r}")
    n, m = header["rows"], header["models"]
    if len(lines) - 1 != n:
        raise FileFormatError(
            f"line {lines[-1][0]}: header declares {n} rows, file has {len(lines) - 1}")

    shape = (2 * m,) if gaussian else (m, header["classes"])
    expected = (f"{m} gaussian entries of numbers 'mean' and 'std'" if gaussian
                else f"{m}x{header['classes']} preds of JSON numbers")
    data = np.empty((n,) + shape)
    for i, (lineno, text) in enumerate(lines[1:]):
        row = _parse_json_line(text, lineno).get("preds")
        try:
            if gaussian:  # the [M, 2] (mean, std) pairs, flat
                row = [v for e in row for v in (e["mean"], e["std"])]
            arr = np.asarray(row)
        except (KeyError, TypeError, ValueError):
            arr = None
        # a string or null leaves the array non-numeric, but numpy casts a bool
        # beside numbers to a number; every JSON literal has a `u` or an `l`, and
        # no row key or JSON number has either, so only such lines are searched
        if (arr is None or arr.shape != shape or arr.dtype.kind not in "iuf"
                or ("u" in text or "l" in text)
                and bool in set(map(type, np.asarray(row, dtype=object).flat))):
            raise FileFormatError(f"line {lineno}: expected {expected}")
        data[i] = arr
    fields = ({"means": data[:, 0::2].copy(), "stds": data[:, 1::2].copy()}
              if gaussian else {values: data})
    with _rows_at(lines[1:]):
        return st.EnsemblePredictions(kind, **fields), header


def save_predictions(path, preds: st.EnsemblePredictions) -> None:
    """Write a prediction file: probs, logits or gaussian, as `preds` holds.
    Each row is encoded and written in turn; the file is never one string."""
    import orjson
    if preds.kind == st.CLASSIFICATION:
        values = "logits" if preds.probs is None else "probs"
        data = preds.logits if preds.probs is None else preds.probs
        header = {"kind": preds.kind, "rows": preds.num_rows,
                  "models": preds.num_models, "classes": preds.num_classes,
                  "values": values}
        rows = ({"preds": data[i].tolist()} for i in range(preds.num_rows))
    else:
        header = {"kind": preds.kind, "rows": preds.num_rows,
                  "models": preds.num_models, "values": "gaussian"}
        rows = ({"preds": [{"mean": mean, "std": std} for mean, std
                           in zip(preds.means[i].tolist(), preds.stds[i].tolist())]}
                for i in range(preds.num_rows))
    atomic_write(path, (orjson.dumps(obj) + b"\n"
                        for obj in itertools.chain([header], rows)))


def load_labels(path, preds: st.EnsemblePredictions) -> np.ndarray:
    """Read a label file and validate it against `preds` in the library."""
    lines = _numbered_lines(path)
    if lines and lines[0][1].strip().lower() == "label":
        lines = lines[1:]
    if not lines:
        raise FileFormatError("line 1: label file has no values")
    out = np.empty(len(lines), dtype=float)
    for i, (lineno, text) in enumerate(lines):
        text = text.strip()
        try:
            out[i] = parse_number(text)
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: bad label {text!r}") from exc
    with _rows_at(lines):
        return st.validate_labels(preds, out)


def save_labels(path, labels) -> None:
    labels = np.asarray(labels)
    lines = ["label"]
    for v in labels:
        lines.append(str(int(v)) if np.issubdtype(labels.dtype, np.integer)
                     else repr(float(v)))
    atomic_write_text(path, "\n".join(lines) + "\n")


def file_digest(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def atomic_write_text(path, text: str) -> None:
    atomic_write(path, [text.encode("utf-8")])


def atomic_write(path, chunks) -> None:
    """Write the byte strings of the iterable `chunks` to `path` as one file
    that appears whole or not at all."""
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".ppc-uq-{os.urandom(8).hex()}")
    # the mode open(path, "w") gives: an existing file's, else 0o666 less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as fh:
            if os.path.exists(path):
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            fh.writelines(chunks)
            # on disk before the rename, so a crash never leaves a torn file at path
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_report(path, report_dict: dict) -> None:
    # json.dumps uses repr for floats: full precision, well past 12 digits
    atomic_write_text(path, json.dumps(report_dict, indent=2, sort_keys=True) + "\n")


def load_report(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
