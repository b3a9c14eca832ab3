"""Benchmark for geoham: one client, closed loop, in one single-threaded process.

    python3 bench/run.py --workload exact-geometry --seed 1 --seconds 30 --trace 0

Run from the root of a geoham checkout.  The seed generates every input
(``workloads.py``); geoham only sees the generated ``.sys`` files.  One
request is one in-process ``geoham.cli.run([...])`` call: parse, analysis
and report rendering.  The run

1. measures ``setup_s``: fresh interpreters that import ``geoham.cli`` and
   load the workload's input files (the first launch is discarded);
2. runs one untimed warm-up pass over the request list, keeping each
   request's report as the reference output;
3. runs whole passes until ``--seconds`` have gone by, with a
   ``gc.collect()`` before each request outside the timer;
4. reads the peak RSS, then checks every distinct report against
   computations made apart from geoham (``checks.py``, which imports sympy).

With ``--trace 1`` the passes run with spans around geoham's public
functions (``spans.py``) and the run prints per-layer metrics instead of
the end-to-end ones.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_LAUNCHES = 5          # the first is discarded
IMPORTTIME_LAUNCHES = 3     # traced runs: -X importtime launches, the first discarded
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)
MIN_BEYOND = 10

sys.path.insert(0, BENCH_DIR)
import workloads  # noqa: E402

_SETUP_CHILD = """
import sys, time
sys.path.insert(0, sys.argv[1])
import geoham.cli
from geoham.sysfile import load_system_file
start = time.perf_counter()
for path in sys.argv[2:]:
    load_system_file(path)
sys.stdout.write("ready %.9f\\n" % (time.perf_counter() - start))
sys.stdout.flush()
"""


def _write_inputs(requests, directory):
    """Write each request's .sys file(s); returns (argv list, input paths)."""
    os.makedirs(directory, exist_ok=True)
    argvs, paths = [], []
    for i, request in enumerate(requests):
        path = os.path.join(directory, f"{i:02d}-{request.cls}.sys")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(request.text)
        argv = [request.subcommand, path] + list(request.args)
        paths.append(path)
        if request.compare_text is not None:
            other = os.path.join(directory, f"{i:02d}-{request.cls}-compare.sys")
            with open(other, "w", encoding="utf-8") as handle:
                handle.write(request.compare_text)
            argv += ["--compare", other]
            paths.append(other)
        argvs.append(argv)
    return argvs, paths


def _launch(paths, importtime=False):
    """One fresh interpreter: seconds until geoham.cli is imported and the inputs are loaded."""
    command = [sys.executable] + (["-X", "importtime"] if importtime else [])
    command += ["-c", _SETUP_CHILD, SRC] + paths
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE if importtime else subprocess.DEVNULL,
                          text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        _, stderr = child.communicate()
    if child.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up launch failed with exit code {child.returncode}")
    return elapsed, float(line.split()[1]), stderr


def _cumulative_import_us(stderr, module):
    """Cumulative import time of ``module`` from -X importtime output, in microseconds."""
    for line in stderr.splitlines():
        match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)\s*$", line)
        if match and match.group(2) == module:
            return int(match.group(1))
    return 0


def measure_setup(paths):
    times = [_launch(paths)[0] for _ in range(SETUP_LAUNCHES)][1:]
    return statistics.median(times)


def measure_setup_layers(paths):
    imports, scipy_imports, parses = [], [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        _, parse_s, stderr = _launch(paths, importtime=True)
        imports.append(_cumulative_import_us(stderr, "geoham.cli") / 1000.0)
        scipy_imports.append(_cumulative_import_us(stderr, "scipy.integrate") / 1000.0)
        parses.append(parse_s * 1000.0)
    return {
        "setup.import_ms": statistics.median(imports[1:]),
        "setup.import_scipy_ms": statistics.median(scipy_imports[1:]),
        "setup.parse_inputs_ms": statistics.median(parses[1:]),
    }


class Loop:
    """Runs passes over the request list and keeps per-request outcomes."""

    def __init__(self, cli, requests, argvs):
        self.cli = cli
        self.requests = requests
        self.argvs = argvs
        self.reference = [None] * len(requests)   # (exit code, report text) of the warm-up pass
        self.errors = [[] for _ in requests]        # problems seen for each distinct request
        self.latencies = []
        self.attempted = 0
        self.failed = [0] * len(requests)
        self.on_request = None

    def _call(self, index):
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.run(self.argvs[index], stdout=out)
            except Exception as exc:  # a traceback escaping geoham is a failed request
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return code, out.getvalue(), elapsed

    def warm_up(self):
        for index in range(len(self.requests)):
            code, text, _ = self._call(index)
            self.reference[index] = (code, text)

    def run_pass(self):
        for index, request in enumerate(self.requests):
            if self.on_request:
                self.on_request(self.attempted)
            code, text, elapsed = self._call(index)
            self.attempted += 1
            self.latencies.append(elapsed)
            problem = None
            if code != request.expect_rc:
                problem = f"exit code {code!r}, expected {request.expect_rc}"
            elif (code, text) != self.reference[index]:
                problem = "report differs from the warm-up pass"
            if problem:
                self.failed[index] += 1
                if problem not in self.errors[index]:
                    self.errors[index].append(problem)

    def run_for(self, seconds):
        start = time.perf_counter()
        passes = 0
        while passes == 0 or time.perf_counter() - start < seconds:
            self.run_pass()
            passes += 1
        return passes


def tail_percentile(count):
    """Highest ladder percentile with at least MIN_BEYOND samples beyond it."""
    for p in TAIL_LADDER:
        if count * (100.0 - p) / 100.0 >= MIN_BEYOND:
            return p
    return 50.0


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def judge(loop, checks):
    """Check every distinct report apart from geoham; failed requests count for all their passes.

    Returns False when a report that geoham produced with the expected exit code is wrong; a
    request that raised or exited with another code only counts as failed.
    """
    correct = True
    for index, request in enumerate(loop.requests):
        code, text = loop.reference[index]
        if code != request.expect_rc:
            problems = [f"warm-up exit code {code!r}, expected {request.expect_rc}"]
        else:
            problems = checks.check(request, code, text)
            correct = correct and not problems
        if problems:
            loop.errors[index].extend(problems)
        if loop.errors[index]:
            executions = loop.attempted // len(loop.requests)
            loop.failed[index] = executions
            for problem in loop.errors[index]:
                print(f"request {index} ({request.cls}): {problem}", file=sys.stderr)
    return correct


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "geoham", "cli.py")):
        print(f"no geoham sources under {SRC}; run from the root of a geoham checkout",
              file=sys.stderr)
        return 2

    requests = workloads.build(args.workload, args.seed)
    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    try:
        argvs, paths = _write_inputs(requests, os.path.join(run_dir, "inputs"))
        if args.trace:
            layer_metrics = measure_setup_layers(paths)
        else:
            setup_s = measure_setup(paths)

        sys.path.insert(0, SRC)
        import geoham.cli as cli

        # Objects alive after the imports never become garbage: freezing them keeps
        # the gc.collect() before each request (outside the timer) short.
        gc.collect()
        gc.freeze()

        loop = Loop(cli, requests, argvs)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
            loop.on_request = lambda n: setattr(tracer, "request", n)
        loop.warm_up()
        if tracer:
            tracer.reset()
        started = time.perf_counter()
        passes = loop.run_for(args.seconds)
        wall = time.perf_counter() - started
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()

        import checks  # imports sympy: after the peak RSS is read

        correct = judge(loop, checks)
        failed = sum(loop.failed)
        busy = sum(loop.latencies)
        count = len(loop.latencies)
        tail_p = tail_percentile(count)
        print(f"{args.workload} seed {args.seed}: {passes} passes of {len(requests)} requests, "
              f"{count} samples in {wall:.2f} s wall, {busy:.2f} s busy; "
              f"tail percentile p{tail_p:g}; trace {args.trace}")
        if tracer:
            layer_metrics.update(tracer.metrics(passes))
            metrics = {name: {"value": value, "unit": _unit(name)}
                       for name, value in layer_metrics.items()}
            trace_path = os.path.join(WORK, f"trace-{args.workload}-seed{args.seed}.json")
            tracer.write(trace_path, {"workload": args.workload, "seed": args.seed,
                                      "passes": passes, "requests_per_pass": len(requests),
                                      "requests_per_s": (count - failed) / busy})
            print(f"traced: {(count - failed) / busy:.4f} requests/s; "
                  f"{len(tracer.span_start)} spans written to {os.path.relpath(trace_path, ROOT)}")
        else:
            metrics = {
                "setup_s": {"value": setup_s, "unit": "s"},
                "requests_per_s": {"value": (count - failed) / busy, "unit": "1/s"},
                "request_p50_ms": {"value": statistics.median(loop.latencies) * 1000.0, "unit": "ms"},
                "request_tail_ms": {"value": percentile(loop.latencies, tail_p) * 1000.0, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            }
        result = {"correct": correct, "attempted": loop.attempted, "failed": failed, "metrics": metrics}
        with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
                  "w", encoding="utf-8") as handle:
            json.dump(result, handle, indent=1)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def _unit(metric):
    if metric.endswith("_ms"):
        return "ms"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
