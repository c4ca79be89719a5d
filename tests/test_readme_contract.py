"""README.md is the user's contract. These tests hold what it names to the code,
both ways: its commands, flags, defaults and choices to `cli.build_parser()`, its
exit codes to `cli.main`, its file formats and report fields to `io`, its modes to
`ppc.parse_mode` and its module list to the package's files."""
import argparse
import json
import os
import re

import numpy as np
import pytest

from ppc_uq import cli, io, ppc
from ppc_uq import statistics as st

TESTS = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(os.path.dirname(TESTS), "README.md"), encoding="utf-8") as _fh:
    README = _fh.read()
PACKAGE = os.path.dirname(os.path.abspath(cli.__file__))
FENCED = re.compile(r"^```[^\n]*\n(.*?)^```$", re.M | re.S)


def section(heading: str) -> str:
    """The text under `heading` (a whole heading line), up to the next heading of
    the same or a higher level."""
    level = heading.split(" ")[0]
    start = README.index(f"\n{heading}\n") + len(heading) + 2
    ends = [m.start() for m in re.finditer(r"^#{1,%d} " % len(level), README[start:], re.M)]
    return README[start:start + ends[0]] if ends else README[start:]


def prose(text: str) -> str:
    return FENCED.sub("", text)


def flags_in(text: str) -> set:
    return set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", prose(text)))


def table_rows(text: str) -> list:
    """The cells of each body row of the tables in `text`: not a header row, which
    a separator row follows, nor a separator row."""
    lines = [line for line in text.splitlines() if line.startswith("|")] + [""]
    separator = [line != "" and set(line) <= set("|- ") for line in lines]
    return [[c.strip() for c in line.strip("|").split("|")]
            for line, sep, next_sep in zip(lines, separator, separator[1:])
            if not (sep or next_sep)]


def commands() -> dict:
    """Each command section of the README, by command name."""
    names = re.findall(r"^### `ppc-uq ([a-z]+)`$", README, re.M)
    return {name: section(f"### `ppc-uq {name}`") for name in names}


def subparsers() -> dict:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def options(parser) -> dict:
    """Each `--flag` of `parser` but --help, with its action."""
    return {flag: action for action in parser._actions for flag in action.option_strings
            if flag.startswith("--") and flag != "--help"}


def test_the_commands_are_the_parsers():
    assert list(commands()) == list(subparsers())
    usage = re.search(r"`ppc-uq ([a-z |]+) \[flags\]`", README).group(1)
    assert usage.split(" | ") == list(subparsers())


@pytest.mark.parametrize("command", list(subparsers()))
def test_each_command_section_names_exactly_its_flags(command):
    assert flags_in(commands()[command]) == set(options(subparsers()[command]))


def test_every_flag_the_readme_names_is_a_flag():
    known = set(options(cli.build_parser())) | {"--help"}
    for parser in subparsers().values():
        known |= set(options(parser))
    assert flags_in(README) <= known
    assert {"--help", "--version"} <= flags_in(section("## Commands"))


def stated_default(action, text: str, command: str):
    """What the README's Default cell `text` says of `action`, checked."""
    if text == "required":
        assert action.required
    elif text == "none":
        assert not action.required and action.default is None
    elif text == "off":
        assert action.nargs == 0 and action.default != action.const
    elif text == "as `check`":
        assert command != "check"
        check = options(subparsers()["check"])[action.option_strings[0]]
        assert action.default == check.default
    else:
        assert not action.required
        assert action.default == type(action.default)(text), (action.dest, text)


@pytest.mark.parametrize("command", list(subparsers()))
def test_each_flag_row_states_the_parsers_default_and_choices(command):
    flags = options(subparsers()[command])
    seen = []
    for cells in table_rows(commands()[command]):
        names = re.findall(r"`(--[a-z-]+)`", cells[0])
        defaults = [d.strip() for d in cells[1].split(",")] if "," in cells[1] \
            else [cells[1]] * len(names)
        assert len(defaults) == len(names), cells
        for name, default in zip(names, defaults):
            stated_default(flags[name], default, command)
            if flags[name].choices is not None and "as for" not in cells[2]:
                assert set(re.findall(r"`([a-z]+)`", cells[2])) == set(flags[name].choices)
        seen += names
    assert sorted(seen) == sorted(flags)


def test_the_modes_are_parse_modes():
    modes = section("## Modes")
    named = re.findall(r"^- `([a-z:A-Z]+)`:", modes, re.M)
    assert named == ["bayesian", "independent", "point:IDX"]
    mode_row = next(r for r in table_rows(commands()["check"]) if "`--mode`" in r[0])
    assert re.findall(r"`([a-z:A-Z]+)`", mode_row[2]) == named
    assert [ppc.parse_mode(m.replace("IDX", "0")).describe() for m in named] \
        == ["bayesian", "independent", "point:0"]
    refused = re.search(r"\((`point:.*?) are errors\)", modes).group(1)
    for text in re.findall(r"`([^`]+)`", refused):
        with pytest.raises(ppc.InvalidParameterError):
            ppc.parse_mode(text)


def exit_codes() -> dict:
    """The README's exit code for each outcome: passed, failed, error."""
    table = section("## Commands").split("\n### ")[0]
    rows = {int(code): meaning for code, meaning in table_rows(table)}
    outcome = {"passed": None, "failed": None, "error": None}
    for code, meaning in rows.items():
        for word in outcome:
            if f"check {word}" in meaning or f"any {word}" in meaning:
                assert outcome[word] is None
                outcome[word] = code
    return outcome


def write_check(tmp_path, labels):
    """A one-member N(0, 1) regression file and its labels."""
    preds = st.EnsemblePredictions.from_gaussians(np.zeros((len(labels), 1)),
                                                  np.ones((len(labels), 1)))
    io.save_predictions(tmp_path / "p.jsonl", preds)
    io.save_labels(tmp_path / "l.csv", np.asarray(labels, dtype=float))
    return ["check", "--predictions", str(tmp_path / "p.jsonl"), "--labels",
            str(tmp_path / "l.csv"), "--statistic", "calibration", "--mode", "bayesian",
            "--replications", "50"]


def test_the_exit_codes_are_mains(tmp_path, capsys):
    codes = exit_codes()
    assert sorted(codes.values()) == [0, 1, 2]
    drawn = np.random.default_rng(0).standard_normal(40)
    assert cli.main(write_check(tmp_path, drawn)) == codes["passed"]
    assert cli.main(write_check(tmp_path, np.full(40, 100.0))) == codes["failed"]
    assert cli.main(write_check(tmp_path, drawn) + ["--quantiles", "0"]) == codes["error"]
    assert cli.main(["check"]) == codes["error"]
    for argv in (["--help"], ["--version"]):
        with pytest.raises(SystemExit) as exit_:
            cli.main(argv)
        assert exit_.value.code == codes["passed"]
    capsys.readouterr()


def test_the_report_fields_are_the_reports(tmp_path, capsys):
    text = re.search(r"The report of `check --out` is JSON[^:]*:(.*?)\n\n",
                     section("## File formats"), re.S).group(1)
    out = tmp_path / "report.json"
    cli.main(write_check(tmp_path, np.zeros(10)) + ["--out", str(out)])
    report = io.load_report(out)
    assert set(re.findall(r"`([a-z_]+)`", text)) == set(report)
    assert out.read_text() == json.dumps(report, indent=2, sort_keys=True) + "\n"
    printed = re.search(r"percentiles (p5.*?)\.", commands()["check"]).group(1)
    assert re.findall(r"p\d+", printed) == sorted(report["percentiles"], key=lambda k: int(k[1:]))
    capsys.readouterr()


def example_files() -> list:
    return FENCED.findall(section("## File formats"))


def test_the_example_files_are_read_as_written(tmp_path):
    assert len(example_files()) == 2
    for i, text in enumerate(example_files()):
        path = tmp_path / f"example{i}.jsonl"
        path.write_text(text, encoding="utf-8")
        preds, header = io.load_predictions(path)
        assert header == json.loads(text.splitlines()[0])
        assert preds.kind == header["kind"] == io.PREDICTION_VALUES[header["values"]]


def test_the_header_fields_are_the_ones_io_requires(tmp_path):
    stated = re.search(r"The header fields are (.*?);", section("## File formats"), re.S)
    fields = re.findall(r"`([a-z]+)`", stated.group(1))
    headers = [text.splitlines()[0] for text in example_files()]
    assert set(fields) == set().union(*(json.loads(h) for h in headers))
    for text in example_files():
        header, *rows = text.splitlines()
        for field in json.loads(header):
            fewer = {k: v for k, v in json.loads(header).items() if k != field}
            path = tmp_path / "p.jsonl"
            path.write_text("\n".join([json.dumps(fewer)] + rows) + "\n", encoding="utf-8")
            with pytest.raises(io.FileFormatError, match=f"^line 1: .*'{field}'"):
                io.load_predictions(path)


def test_the_values_table_is_ios():
    rows = table_rows(section("## File formats"))
    stated = {re.fullmatch(r"`(\w+)`", r[0]).group(1): re.fullmatch(r"`(\w+)`", r[1]).group(1)
              for r in rows}
    assert stated == io.PREDICTION_VALUES


def test_the_module_lines_are_the_package():
    lines = re.findall(r"^- `ppc_uq\.(\w+)`: ", section("## Package layout"), re.M)
    files = sorted(name[:-3] for name in os.listdir(PACKAGE)
                   if name.endswith(".py") and name != "__init__.py")
    assert sorted(lines) == files
    assert len(lines) == len(section("## Package layout").strip().splitlines())
