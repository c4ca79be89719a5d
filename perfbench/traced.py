"""Traced run of one workload, in a fresh process, cold as a user pays it.

Imports the package, then replays the workload's CLI calls in-process
through ``ppc_uq.cli.main``. Spans wrap the calls into each module's public
functions (name, start, end, parent), are kept in memory and are written
out only at the end. After the replay, without tracing, it re-runs each
engine call at one thread and times single public calls of the replicate
loop's layers.

Usage: python3 traced.py PLAN.json   (PLAN is written by run.py; the last
stdout line is a JSON object of per-layer numbers)
"""
from __future__ import annotations

import contextlib
import io as _io
import itertools
import json
import os
import sys
import threading
import time

T0 = time.perf_counter()

# Module attributes whose calls become spans. Within the package these are
# looked up at call time (`st.x`, `io.x`, module globals), so replacing the
# attribute traces every internal call as well.
TRACED = {
    "io": ("load_predictions", "load_labels", "save_predictions", "save_report",
           "atomic_write_text", "file_digest"),
    "ppc": ("parse_mode", "run_ppc", "build_context", "sample_statistic",
            "p_value", "sharpness"),
    "statistics": ("validate_labels", "pit_from_gaussians", "calibration_error",
                   "ece_from_confidence", "picp", "softmax"),
    "recalibrate": ("split_recalibration", "fit_temperatures",
                    "apply_temperatures"),
}
WRITES = ("io.save_predictions", "io.save_report", "io.atomic_write_text")
CDF_STATISTICS = ("calibration", "picp")
# Bytes per CDF evaluation, computed: the mean and stddev read, the value written.
CDF_BYTES = 24


class Tracer:
    """Spans on the main thread; calls from worker threads and calls inside
    an opaque span (the replicate engine) pass through untraced."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index, first arg]
        self.stack = []
        self.opaque = 0
        self.main = threading.get_ident()
        self.engine_calls = []   # (args, kwargs, result, seconds)

    @contextlib.contextmanager
    def span(self, name, arg=None):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1, arg])
        self.stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self.stack.pop()

    def wrap(self, module, attr, layer):
        fn = getattr(module, attr)
        name = f"{layer}.{attr}"
        opaque = name == "ppc.sample_statistic"

        def traced(*args, **kwargs):
            if self.opaque or threading.get_ident() != self.main:
                return fn(*args, **kwargs)
            first = args[0] if args and isinstance(args[0], (str, os.PathLike)) else None
            start = time.perf_counter()
            with self.span(name, None if first is None else os.fspath(first)):
                self.opaque += opaque
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.opaque -= opaque
            if opaque:
                self.engine_calls.append((args, kwargs, result,
                                          time.perf_counter() - start))
            return result

        setattr(module, attr, traced)
        return fn


def per_call(fn, budget=0.25, least=3):
    """Median seconds of one call, over calls made for about `budget` s."""
    times = []
    stop = time.perf_counter() + budget
    while len(times) < least or time.perf_counter() < stop:
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    times.sort()
    return times[len(times) // 2]


def durations(spans, name):
    return [s[2] - s[1] for s in spans if s[0] == name]


def main(plan_path):
    with open(plan_path, "r", encoding="utf-8") as fh:
        plan = json.load(fh)
    tracer = Tracer()
    with tracer.span("cli.import"):
        from ppc_uq import cli, io, ppc, recalibrate
        from ppc_uq import statistics as st
    modules = {"io": io, "ppc": ppc, "statistics": st, "recalibrate": recalibrate}
    originals = {}
    for layer, attrs in TRACED.items():
        for attr in attrs:
            originals[f"{layer}.{attr}"] = tracer.wrap(modules[layer], attr, layer)

    codes = []
    for args in plan["invocations"]:
        with tracer.span("cli.main"), contextlib.redirect_stdout(_io.StringIO()) as out:
            code = cli.main(args)
        codes.append([code, out.getvalue()])
    wall = time.perf_counter() - T0
    spans = tracer.spans

    # Everything below runs untraced: the tracer only sees calls made
    # through the wrapped attributes while the replay runs.
    for name, fn in originals.items():
        layer, attr = name.split(".", 1)
        setattr(modules[layer], attr, fn)

    children = {}
    for s in spans:
        children.setdefault(s[3], []).append(s)

    def self_time(i):
        return (spans[i][2] - spans[i][1]) - sum(
            c[2] - c[1] for c in children.get(i, ()))

    layers = dict.fromkeys(("cli", "io", "ppc", "statistics", "recalibrate"), 0.0)
    for i, s in enumerate(spans):
        layers[s[0].split(".")[0]] += self_time(i)
    roots = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    covered = sum(durations(spans, "cli.import")) + sum(
        c[2] - c[1] for i in roots for c in children.get(i, ()))

    def outermost_writes():
        for s in spans:
            parent = s[3]
            if s[0] in WRITES and not (parent >= 0 and spans[parent][0] in WRITES):
                yield s

    writes = list(outermost_writes())
    loads = [s for s in spans if s[0] in ("io.load_predictions", "io.load_labels")]
    run_ppc_self = sum(self_time(i) for i, s in enumerate(spans)
                       if s[0] == "ppc.run_ppc")
    contexts = durations(spans, "ppc.build_context")
    parse_s = sum(s[2] - s[1] for s in loads)
    write_s = sum(s[2] - s[1] for s in writes)
    metrics = {
        "io.parse_s": parse_s,
        "io.parse_mb_per_s": sum(os.path.getsize(s[4]) for s in loads) / 1e6 / parse_s,
        "io.write_s": write_s,
        "io.write_mb_per_s": sum(os.path.getsize(s[4]) for s in writes) / 1e6 / write_s,
        "io.digest_s": sum(durations(spans, "io.file_digest")),
        "ppc.context_s": sum(contexts) / len(contexts) if contexts else 0.0,
        "ppc.summary_s": run_ppc_self + sum(durations(spans, "ppc.p_value"))
        + sum(durations(spans, "ppc.sharpness")),
        "recalibrate.fit_s": sum(durations(spans, "recalibrate.fit_temperatures")),
        "recalibrate.apply_s": sum(durations(spans, "recalibrate.apply_temperatures")),
        "trace.coverage": covered / wall,
        "trace.main_s": sum(durations(spans, "cli.main")),
    }
    metrics.update({f"{k}.self_s": v for k, v in layers.items()})
    engine, problems = engine_metrics(tracer.engine_calls, plan["threads"], ppc, st)
    metrics.update(engine)

    with open(plan["spans_out"], "w", encoding="utf-8") as fh:
        json.dump({"spans": [s[:4] for s in spans],
                   "counts": {n: len(durations(spans, n))
                              for n in sorted({s[0] for s in spans})}}, fh)
    metrics = {k: float(v) for k, v in metrics.items()}
    print(json.dumps({"codes": codes, "metrics": metrics, "problems": problems}))
    return 0


def engine_metrics(calls, threads, ppc, st):
    """Engine times at `threads` and at one thread, plus single-call times of
    the replicate loop's layers: the draw, the substream, the PIT kernel and
    the statistic's reduction. ppc.draw_us is derived: the public draw
    rebuilds the context on every call, so the context time is subtracted."""
    out = dict.fromkeys(("ppc.engine_s", "ppc.engine_t1_s", "ppc.replicates_per_s",
                         "ppc.parallel_efficiency", "ppc.rng_us", "ppc.draw_us",
                         "statistics.pit_us", "statistics.cdf_evals",
                         "statistics.cdf_bytes", "statistics.ns_per_cdf",
                         "statistics.reduce_us"), 0.0)
    problems = []
    if not calls:
        return out, problems
    draw, pit, reduce = [], [], []
    replicates = 0
    for args, kwargs, result, seconds in calls:
        preds, weights, statistic, mode = args[:4]
        n_rep = kwargs["num_replicates"]
        replicates += n_rep
        out["ppc.engine_s"] += seconds
        start = time.perf_counter()
        single = ppc.sample_statistic(preds, weights, statistic, mode,
                                      num_replicates=n_rep, seed=kwargs["seed"],
                                      threads=1)
        out["ppc.engine_t1_s"] += time.perf_counter() - start
        if single.samples.tobytes() != result.samples.tobytes():
            problems.append(f"{mode.describe()}: samples differ between 1 and "
                            f"{threads} threads")

        ctx = ppc.build_context(preds, weights)
        rng = ppc.replicate_rng(kwargs["seed"], 0)
        y = ppc.replicate_labels(preds, weights, mode, rng)
        context = per_call(lambda: ppc.build_context(preds, weights))
        draw.append(per_call(lambda: ppc.replicate_labels(preds, weights, mode, rng))
                    - context)
        if statistic.name in CDF_STATISTICS:
            pit_values = st.pit_from_gaussians(preds.means, preds.stds, ctx.weights, y)
            pit.append(per_call(lambda: st.pit_from_gaussians(
                preds.means, preds.stds, ctx.weights, y)))
            if statistic.name == "calibration":
                reduce.append(per_call(lambda: st.calibration_error(
                    pit_values, statistic.quantiles)))
            else:
                reduce.append(per_call(lambda: st.picp(
                    pit_values, statistic.lower, statistic.upper)))
            cells = preds.num_rows * preds.num_models
            out["statistics.cdf_evals"] += cells * (n_rep + 1)
        else:
            reduce.append(per_call(lambda: statistic.evaluate(y, ctx)))
    seed, counter = calls[0][1]["seed"], itertools.count()
    out["ppc.rng_us"] = 1e6 * per_call(lambda: ppc.replicate_rng(seed, next(counter)))
    out["ppc.draw_us"] = 1e6 * sum(draw) / len(draw)
    if pit:
        out["statistics.pit_us"] = 1e6 * sum(pit) / len(pit)
        out["statistics.ns_per_cdf"] = 1e3 * out["statistics.pit_us"] / cells
    out["statistics.reduce_us"] = 1e6 * sum(reduce) / len(reduce)
    out["statistics.cdf_bytes"] = CDF_BYTES * out["statistics.cdf_evals"]
    out["ppc.replicates_per_s"] = replicates / out["ppc.engine_s"]
    out["ppc.parallel_efficiency"] = out["ppc.engine_t1_s"] / (
        threads * out["ppc.engine_s"])
    return out, problems


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
