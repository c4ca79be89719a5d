"""Benchmark of the ppc-uq CLI, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The CLI runs from ``src/`` as the
``ppc-uq`` console script would, as a closed loop: one client, one
invocation at a time. Every invocation is checked against the benchmark's
own reference (see verify.py).

--trace 0 times the workload's invocations at PPC_UQ_THREADS = nproc for
S seconds and prints the end-to-end metrics of BENCHMARK.json. Every pass
must repeat the report bytes of the first, which for `check` workloads is
an untimed pass at one thread. Times are reported in reference-speed
seconds: each pass is scaled by the fixed reference process speedref.py,
started before and after it, so that the host's speed swings cancel (see
Run.scaled). The raw medians are printed on the summary line.
--trace 1 times a few untraced passes, then runs traced.py in a fresh
process and prints the per-layer metrics. The last stdout line is the
result as JSON; earlier lines give the environment, input digests and
report digests.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np
import scipy

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen_inputs  # noqa: E402
import verify      # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
LOCK = os.path.join(HERE, "inputs.lock.json")
CLI = "import sys; from ppc_uq.cli import main; sys.exit(main())"
SPEEDREF = os.path.join(HERE, "speedref.py")
REF_NOMINAL_S = 0.5       # turns pass/speedref.py time ratios back into seconds
MIN_PASSES = 3            # timed passes per run, whatever --seconds says
TIMEOUT_S = 150           # one invocation; a run must end within 180 s


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env(threads: int) -> dict:
    """Engine threads capped at `threads`; BLAS and OpenMP pools at one, so
    the engine's workers are the only parallelism."""
    env = dict(os.environ)
    env.update(PYTHONPATH=os.pathsep.join([SRC, HERE]),
               PPC_UQ_THREADS=str(threads), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@dataclass
class Spawned:
    returncode: int
    wall: float                # seconds from start until exit
    rss_mb: float              # peak resident set size
    stdout: str
    stderr: str


def spawn(argv, env, log_dir) -> Spawned:
    """Run to exit; wall time from start until exit, with its peak RSS."""
    out_path = os.path.join(log_dir, "stdout.txt")
    err_path = os.path.join(log_dir, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, "r", encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Spawned(proc.returncode, wall, usage.ru_maxrss / 1024, stdout, stderr)


def read_outputs(paths) -> dict:
    out = {}
    for path in paths:
        if os.path.exists(path):
            with open(path, "rb") as fh:
                out[path] = fh.read()
    return out


def report_digest(inv, outputs) -> str:
    h = hashlib.sha256()
    for path in inv.outputs:
        h.update(outputs.get(path, b"<missing>"))
    return h.hexdigest()


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self, wl, invs):
        self.wl, self.invs = wl, invs
        self.attempted = self.failed = 0
        self.walls, self.rss, self.setups = [], [], []
        self.refs = []              # speedref.py starts: one before each pass, one after the last
        self.baseline = {}          # label -> report sha256 of the first pass
        self.checked = set()
        self.problems = []

    def fail(self, problems):
        self.failed += 1
        for p in problems:
            if len(self.problems) < 20:
                self.problems.append(p)

    def setup(self, env):
        res = spawn([sys.executable, "-c", CLI, "--version"], env, WORK)
        if res.returncode != 0:
            raise SystemExit(f"`ppc-uq --version` exited {res.returncode}: "
                             f"{res.stderr.strip()[-500:]}")
        self.setups.append(res.wall)

    def reference(self, env):
        res = spawn([sys.executable, SPEEDREF], env, WORK)
        if res.returncode != 0:
            raise SystemExit(f"speedref.py exited {res.returncode}: "
                             f"{res.stderr.strip()[-500:]}")
        self.refs.append(res.wall)

    def scaled(self, samples):
        """Per-pass samples in reference-speed seconds. On a shared host the
        speed of the whole machine drifts by tens of percent within a minute,
        and a fixed process started next to a pass slows with it. Each sample
        is divided by the mean wall time of the speedref.py starts either side
        of its pass and multiplied by REF_NOMINAL_S. No change to the program
        can change speedref.py's cost."""
        return [s * REF_NOMINAL_S * 2 / (before + after)
                for s, before, after in zip(samples, self.refs, self.refs[1:])]

    def one_pass(self, env, timed):
        """All invocations of the workload once. The first result of each
        invocation is checked in full; later ones must repeat its bytes."""
        wall, rss = 0.0, 0.0
        for inv in self.invs:
            for path in inv.outputs:
                if os.path.exists(path):
                    os.unlink(path)
            res = spawn([sys.executable, "-c", CLI, *inv.args], env, WORK)
            wall += res.wall
            rss = max(rss, res.rss_mb)
            outputs = read_outputs(inv.outputs)
            digest = report_digest(inv, outputs)
            result = verify.Result(res.returncode, res.stdout, outputs)
            self.attempted += 1
            if self.baseline.setdefault(inv.label, digest) != digest:
                problems = [f"{inv.label}: report bytes differ from the first pass"]
                problems += verify.check_result(inv, result, self.wl)
            elif inv.label not in self.checked:
                self.checked.add(inv.label)
                problems = verify.check_result(inv, result, self.wl)
            else:
                problems = verify.check_repeat(inv, result)
            if problems and res.returncode not in (0, 2):
                problems.append(f"{inv.label}: stderr {res.stderr.strip()[-300:]}")
            if problems:
                self.fail(problems)
        if timed:
            self.walls.append(wall)
            self.rss.append(rss)

    def loop(self, env, seconds, least):
        """Timed passes for `seconds`, each after one `--version` start, so
        the setup samples span the same stretch of time as the passes, and
        each between two speedref.py starts."""
        deadline = time.perf_counter() + seconds
        self.reference(env)
        while len(self.walls) < least or time.perf_counter() < deadline:
            self.setup(env)
            self.one_pass(env, timed=True)
            self.reference(env)


def check_lock(wl, inputs):
    """Refuse to time inputs whose digest differs from the recorded one."""
    with open(LOCK, "r", encoding="utf-8") as fh:
        recorded = json.load(fh)["inputs"].get(wl.name, {}).get(str(wl.seed))
    if recorded is None:
        return "not recorded"
    for role, (_, sha, size) in inputs.items():
        if recorded.get(role) != [sha, size]:
            raise SystemExit(f"{wl.name} seed {wl.seed}: generated {role} "
                             f"{sha} ({size} B) differs from the recorded "
                             f"{recorded.get(role)}; refusing to time")
    return "matches inputs.lock.json"


def source_digest() -> str:
    """sha256 over the relative paths and bytes of every file under src/."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def check_history(wl, run):
    """Report bytes must repeat across runs of the same code with one seed.
    Runs of other code are not compared: a changed program may change its
    report bytes on purpose (a new field, a version, a new random stream)."""
    path = os.path.join(WORK, "report-digests.json")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            history = json.load(fh)
    except (OSError, ValueError):
        history = {}
    key = f"{wl.name} seed={wl.seed} src={source_digest()}"
    for label, digest in run.baseline.items():
        seen = history.setdefault(key, {}).setdefault(label, digest)
        if seen != digest:
            run.fail([f"{label}: report sha256 {digest} differs from an "
                      f"earlier run's {seen}"])
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(history, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    src_lines = 0
    for path in glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True):
        with open(path, "rb") as fh:
            src_lines += fh.read().count(b"\n")
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "PPC_UQ_THREADS": nproc(), "OMP_NUM_THREADS": 1,
            "OPENBLAS_NUM_THREADS": 1, "MKL_NUM_THREADS": 1,
            "src_lines": src_lines}


def traced_metrics(wl, run, invs_traced):
    """Per-layer numbers from traced.py, run in a fresh process."""
    plan = os.path.join(WORK, "trace-plan.json")
    with open(plan, "w", encoding="utf-8") as fh:
        json.dump({"threads": nproc(),
                   "invocations": [inv.args for inv in invs_traced],
                   "spans_out": os.path.join(WORK, "trace-spans.json")}, fh)
    res = spawn([sys.executable, os.path.join(HERE, "traced.py"), plan],
                child_env(nproc()), WORK)
    run.attempted += len(invs_traced)
    try:
        traced = json.loads(res.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        run.fail([f"traced run exited {res.returncode}: {res.stderr.strip()[-500:]}"])
        return None
    problems = list(traced["problems"])
    for inv, inv_t, (code, stdout) in zip(run.invs, invs_traced, traced["codes"]):
        outputs = read_outputs(inv_t.outputs)
        same = [outputs.get(t) == read_outputs([u]).get(u)
                for t, u in zip(inv_t.outputs, inv.outputs)]
        if not all(same):
            problems.append(f"{inv.label}: traced report bytes differ from untraced")
        problems += verify.check_result(
            inv_t, verify.Result(code, stdout, outputs), wl)
    if problems:
        run.fail(problems)
    m = traced["metrics"]
    untraced = statistics.median(run.walls) - len(run.invs) * statistics.median(run.setups)
    m["trace.overhead_s"] = m.pop("trace.main_s") - untraced
    m["recalibrate.eval_nll"] = 0.0
    if wl.name == "recalibrate-roundtrip":
        m["recalibrate.eval_nll"] = verify.recalibrated_nll(invs_traced[0].outputs[1], wl)
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen_inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ppc_uq", "cli.py")):
        print(f"error: no ppc_uq sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(WORK, exist_ok=True)

    wl = gen_inputs.generate(args.workload, args.seed)
    in_dir = os.path.join(WORK, "inputs")
    inputs = wl.write(in_dir)
    lock = check_lock(wl, inputs)
    invs = verify.invocations(wl, inputs, WORK)
    run = Run(wl, invs)

    print("info " + json.dumps(environment(), sort_keys=True))
    print("inputs " + json.dumps({role: {"sha256": sha, "bytes": size}
                                  for role, (_, sha, size) in inputs.items()},
                                 sort_keys=True) + f" ({lock})")
    if args.trace:
        run.one_pass(child_env(nproc()), timed=False)
        run.loop(child_env(nproc()), args.seconds / 2, least=2)
        metrics = traced_metrics(wl, run, verify.invocations(
            wl, inputs, WORK, tag=".traced")) or {}
        wanted = spec["per_layer"]
    else:
        if wl.replicates:       # only the engine's replicate loop uses threads
            run.one_pass(child_env(1), timed=False)
        run.loop(child_env(nproc()), args.seconds, least=MIN_PASSES)
        metrics = {"wall_s": statistics.median(run.scaled(run.walls)),
                   "setup_s": statistics.median(run.scaled(run.setups)),
                   "peak_rss_mb": statistics.median(run.rss)}
        wanted = spec["end_to_end"]
    check_history(wl, run)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        run.fail([f"metrics not measured: {missing}"])

    print("report_sha256 " + json.dumps(run.baseline, sort_keys=True))
    print(f"summary workload={wl.name} seed={wl.seed} passes={len(run.walls)} "
          f"raw_wall_s={statistics.median(run.walls):.4f} "
          f"(min {min(run.walls):.4f} max {max(run.walls):.4f}) "
          f"raw_setup_s={statistics.median(run.setups):.4f} "
          f"({len(run.setups)} starts) "
          f"speedref_s={statistics.median(run.refs):.4f} "
          f"(min {min(run.refs):.4f} max {max(run.refs):.4f}) "
          f"failed_frac={run.failed / max(run.attempted, 1):.4f} "
          f"({run.failed}/{run.attempted})")
    for p in run.problems:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0.0),
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
