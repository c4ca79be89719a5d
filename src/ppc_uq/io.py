"""On-disk formats: JSON Lines predictions, CSV labels, JSON reports."""
from __future__ import annotations

import hashlib
import json
import os
import stat

import numpy as np

from . import statistics as st

PREDICTION_VALUES = ("probs", "logits", "gaussian")


class FileFormatError(ValueError):
    """Malformed prediction/label file; message names the offending line."""


def _parse_json_line(line: str, lineno: int) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(obj, dict):
        raise FileFormatError(f"line {lineno}: expected a JSON object")
    return obj


def _numbered_lines(path) -> list:
    """The file's non-blank lines as (file line number, text), numbered from 1."""
    with open(path, "r", encoding="utf-8") as fh:
        return [(i, ln) for i, ln in enumerate(fh.read().splitlines(), 1)
                if ln.strip()]


def load_predictions(path) -> tuple:
    """Read a prediction file; returns (EnsemblePredictions, header dict)."""
    lines = _numbered_lines(path)
    if not lines:
        raise FileFormatError("line 1: missing header")
    at = lines[0][0]
    header = _parse_json_line(lines[0][1], at)
    for key in ("kind", "rows", "models", "values"):
        if key not in header:
            raise FileFormatError(f"line {at}: header missing field {key!r}")
    kind = header["kind"]
    if kind not in (st.CLASSIFICATION, st.REGRESSION):
        raise FileFormatError(f"line {at}: unknown kind {header['kind']!r}")
    values = header["values"]
    if values not in PREDICTION_VALUES:
        raise FileFormatError(f"line {at}: unknown values {values!r}")
    if kind == st.CLASSIFICATION and "classes" not in header:
        raise FileFormatError(f"line {at}: header missing field 'classes'")
    if kind == st.CLASSIFICATION and values == "gaussian":
        raise FileFormatError(f"line {at}: classification cannot carry gaussian values")
    if kind == st.REGRESSION and values != "gaussian":
        raise FileFormatError(f"line {at}: regression requires values 'gaussian'")
    n, m = int(header["rows"]), int(header["models"])
    if len(lines) - 1 != n:
        raise FileFormatError(
            f"line {lines[-1][0]}: header declares {n} rows, file has {len(lines) - 1}")

    if kind == st.CLASSIFICATION:
        c = int(header["classes"])
        data = np.empty((n, m, c))
        for i, (lineno, text) in enumerate(lines[1:]):
            row = _parse_json_line(text, lineno)
            try:
                arr = np.asarray(row["preds"], dtype=float)
            except (KeyError, ValueError) as exc:
                raise FileFormatError(f"line {lineno}: bad 'preds' entry") from exc
            if arr.shape != (m, c):
                raise FileFormatError(
                    f"line {lineno}: expected {m}x{c} preds, got {arr.shape}")
            data[i] = arr
        try:
            if values == "probs":
                preds = st.EnsemblePredictions.from_probs(data)
            else:
                preds = st.EnsemblePredictions.from_logits(data)
        except ValueError as exc:
            raise FileFormatError(f"invalid predictions: {exc}") from exc
        return preds, header

    means = np.empty((n, m))
    stds = np.empty((n, m))
    for i, (lineno, text) in enumerate(lines[1:]):
        row = _parse_json_line(text, lineno)
        entries = row.get("preds")
        if not isinstance(entries, list) or len(entries) != m:
            raise FileFormatError(f"line {lineno}: expected {m} gaussian entries")
        for j, entry in enumerate(entries):
            try:
                means[i, j] = float(entry["mean"])
                stds[i, j] = float(entry["std"])
            except (KeyError, TypeError, ValueError) as exc:
                raise FileFormatError(
                    f"line {lineno}: gaussian entries need 'mean' and 'std'") from exc
    try:
        preds = st.EnsemblePredictions.from_gaussians(means, stds)
    except ValueError as exc:
        raise FileFormatError(f"invalid predictions: {exc}") from exc
    return preds, header


def save_predictions(path, preds: st.EnsemblePredictions,
                     values: str = None) -> None:
    """Write a prediction file; `values` picks probs vs logits for classification."""
    if preds.kind == st.CLASSIFICATION:
        if values is None:
            values = "logits" if preds.probs is None else "probs"
        data = preds.logits if values == "logits" else preds.class_probs()
        header = {"kind": preds.kind, "rows": preds.num_rows,
                  "models": preds.num_models, "classes": preds.num_classes,
                  "values": values}
        rows = ({"preds": data[i].tolist()} for i in range(preds.num_rows))
    else:
        header = {"kind": preds.kind, "rows": preds.num_rows,
                  "models": preds.num_models, "values": "gaussian"}
        rows = ({"preds": [{"mean": float(preds.means[i, j]),
                            "std": float(preds.stds[i, j])}
                           for j in range(preds.num_models)]}
                for i in range(preds.num_rows))
    payload = "\n".join([json.dumps(header)] + [json.dumps(r) for r in rows]) + "\n"
    atomic_write_text(path, payload)


def load_labels(path, kind: str) -> np.ndarray:
    lines = _numbered_lines(path)
    if lines and lines[0][1].strip().lower() == "label":
        lines = lines[1:]
    if not lines:
        raise FileFormatError("line 1: label file has no values")
    out = np.empty(len(lines), dtype=float)
    for i, (lineno, text) in enumerate(lines):
        text = text.strip()
        try:
            out[i] = float(text)
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: bad label {text!r}") from exc
    if kind == st.CLASSIFICATION:
        as_int = out.astype(int)
        if np.any(as_int != out):
            raise FileFormatError("classification labels must be integers")
        return as_int
    return out


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
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".ppc-uq-{os.urandom(8).hex()}")
    # the mode open(path, "w") gives: an existing file's, else 0o666 less the umask
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if os.path.exists(path):
                os.fchmod(fd, stat.S_IMODE(os.stat(path).st_mode))
            fh.write(text)
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
