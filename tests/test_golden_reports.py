"""The benchmark workloads' reports, byte for byte: each workload's seed-0 inputs,
made by perfbench/gen_inputs.py and checked against perfbench/inputs.lock.json,
go through perfbench/verify.py's CLI invocations, run in this process by
`cli.main`. The sha256 over each invocation's output files, in the order
`invocations` lists them, must be the golden digest of version 0.4.0, the one
`perfbench/run.py` prints as `report_sha256`. A refactor that keeps every report
byte keeps these digests."""
import hashlib
import importlib
import json
import os
import sys

import pytest

from ppc_uq import cli

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
# the benchmark's own modules, found on its directory as its scripts find them
# (gen_inputs imports its sibling `reference`); they are the repository's, not
# dependencies
sys.path.insert(0, PERFBENCH)
gen_inputs = importlib.import_module("gen_inputs")
verify = importlib.import_module("verify")

GOLDEN = {
    "regression-ood": {
        "independent": "f851fccabe7394e64c5ca303361304dba234238745d7e09d0478285fd42f1db5",
        "bayesian": "31224c80be106f62dcb64264ce1521830ed7463550390fc0f9ed07241dc5a486"},
    "classification-large": {
        "independent": "e81631d4f88a6e87f00ca2c24bd944a082ec965b35008fbd46af13de117a32ab"},
    "recalibrate-roundtrip": {
        "recalibrate": "b93012e522e23af944cc3bfd354c681242be0208faf99da768725af60f53dd91"},
}


@pytest.mark.parametrize("name", gen_inputs.WORKLOADS)
def test_seed_0_reports_are_the_golden_ones(tmp_path, name):
    with open(os.path.join(PERFBENCH, "inputs.lock.json"), encoding="utf-8") as fh:
        locked = json.load(fh)["inputs"][name]["0"]
    wl = gen_inputs.generate(name, 0)
    assert wl.digests() == locked
    invs = verify.invocations(wl, wl.write(str(tmp_path / "inputs")), str(tmp_path))
    digests = {}
    for inv in invs:
        assert cli.main(inv.args) == inv.expect["code"], inv.label
        h = hashlib.sha256()
        for path in inv.outputs:
            with open(path, "rb") as fh:
                h.update(fh.read())
        digests[inv.label] = h.hexdigest()
    assert digests == GOLDEN[name]
