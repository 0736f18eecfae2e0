"""One benchmark workload, run in a child process of run.py.

    python3 perfbench/workload.py --workload NAME --seed N --mode MODE
                                  [--seconds S] [--spans PATH]

MODE is one of:

  setup  import gradlab, build the catalog and load the config, then time
         the gauge's loop (gauge.py) once in the same process, and stop;
  run    set up, then repeat the workload closed-loop for S seconds;
  trace  as run, alternating untraced and traced repetitions, and write the
         spans of the traced ones to PATH once the run has ended.

The child prints one JSON object on stdout.  gradlab is imported from the
checkout's own src/ and nowhere else.
"""

import argparse
import contextlib
import csv
import io
import itertools
import json
import re
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import gauge
import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
EXPECTED = HERE / "expected"
WORK = HERE / "out"

# surface_2 exactly as the catalog presents it; test_benchmark.py keeps the
# two in step.  The seed reorders the generators, never the relator text.
SURFACE_2_GENERATORS = ("a1", "b1", "a2", "b2")
SURFACE_2_RELATOR = "a1 b1 a1^-1 b1^-1 a2 b2 a2^-1 b2^-1"
CHAIN = {"type": "homology", "moduli": [3, 6]}
INDICES = (81, 1296)
FIELDS = ("q", "gf:2")

# workload -> the gradlab command it runs (None: the selftest battery)
COMMANDS = {"homology-surface2": "homology", "volume-surface2": "volume",
            "selftest": None}
WORKLOADS = tuple(COMMANDS)
SEEDED = frozenset({"homology-surface2"})


def generator_order(seed):
    """The seed-th ordering of surface_2's generators; seed 0 is the
    catalog order."""
    orders = list(itertools.permutations(SURFACE_2_GENERATORS))
    return list(orders[seed % len(orders)])


def config_for(workload, seed):
    if workload == "homology-surface2":
        group = {"presentation": {"generators": generator_order(seed),
                                  "relators": [SURFACE_2_RELATOR],
                                  "aspherical": True}}
        return {"group": group, "chain": CHAIN, "fields": list(FIELDS)}
    if workload == "volume-surface2":
        return {"group": {"catalog": "surface_2"}, "chain": CHAIN}
    return None


def _import_gradlab():
    sys.path.insert(0, str(SRC))
    import gradlab
    if not Path(gradlab.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"gradlab was imported from {gradlab.__file__}, "
                         f"not from {SRC}")


def set_up(config_path):
    """Seconds to import gradlab, build the catalog and load the config, up
    to the first chain call."""
    start = time.perf_counter()
    _import_gradlab()
    import gradlab.cli  # noqa: F401  (the entry point imports every layer)
    from gradlab.experiments import ExperimentConfig, resolve_group
    from gradlab.towers import catalog
    catalog()
    if config_path is not None:
        with open(config_path) as fh:
            cfg = ExperimentConfig.from_dict(json.load(fh))
        resolve_group(cfg.group_spec)
    return time.perf_counter() - start


# ---------------------------------------------------------------- the gate

def _rows(text):
    return list(csv.DictReader(io.StringIO(text)))


def check_homology(text):
    """b0 = b2 = 1 and b1 = 2 * index + 2 on every cover, over both fields."""
    problems = []
    rows = _rows(text)
    seen = sorted((int(r["index"]), r["field"]) for r in rows)
    if seen != sorted(itertools.product(INDICES, FIELDS)):
        problems.append(f"rows cover {seen}")
    for r in rows:
        k = int(r["index"])
        got = (int(r["b0"]), int(r["b1"]), int(r["b2"]))
        if got != (1, 2 * k + 2, 1):
            problems.append(f"index {k} {r['field']}: betti {got}")
    return problems


def check_volume(text):
    """vol2_ratio = 1/index on every cover."""
    rows = _rows(text)
    problems = []
    if [int(r["index"]) for r in rows] != list(INDICES):
        problems.append(f"indices {[r['index'] for r in rows]}")
    for r in rows:
        k = int(r["index"])
        if Fraction(r["vol2_ratio"]) != Fraction(1, k):
            problems.append(f"index {k}: vol2_ratio {r['vol2_ratio']}")
    return problems


INDEPENDENT_CHECKS = {"homology-surface2": check_homology,
                      "volume-surface2": check_volume}

_SECONDS = re.compile(r" \(\d+\.\d+s\)")


def strip_seconds(line):
    """A selftest verdict line without its timing."""
    return _SECONDS.sub("", line, count=1)


def expected_report(workload):
    suffix = ".txt" if workload == "selftest" else ".csv"
    return (EXPECTED / (workload + suffix)).read_text()


class Repetition:
    """One closed-loop repetition of a workload.  Calling it returns the
    seconds spent inside the entry point, the operations attempted and
    failed, and what went wrong."""

    def __init__(self, workload, config_path):
        from gradlab import cli, selftest
        self.workload = workload
        self.cli, self.selftest = cli, selftest
        self.argv = [COMMANDS[workload], "--config", str(config_path)]
        self.expected = expected_report(workload)

    def __call__(self, tracer=None):
        if self.workload == "selftest":
            return self._battery(tracer)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            seconds, code, crash = _timed(tracer, self.cli.main, self.argv)
        text = out.getvalue()
        if crash:
            problems = [crash]
        elif code != 0:
            problems = [f"exit {code}: {err.getvalue().strip()}"]
        else:
            problems = INDEPENDENT_CHECKS[self.workload](text)
            if text != self.expected:
                problems.append("report differs from the expected report")
        return seconds, 1, int(bool(problems)), problems

    def _battery(self, tracer):
        lines = []
        seconds, results, crash = _timed(
            tracer, self.selftest.run_all_checks, lines.append)
        checks = len(self.selftest.ALL_CHECKS)
        if crash:
            return seconds, checks, checks, [crash]
        got = [strip_seconds(line) for line in lines]
        failed = sum(1 for r in results if not r.passed)
        problems = [f"FAIL {r.name}: {r.detail}" for r in results
                    if not r.passed]
        if len(results) != checks or \
                got[-1] != f"{checks}/{checks} checks passed":
            problems.append(f"verdict: {got[-1]!r}")
        if got != self.expected.splitlines():
            problems.append("verdict lines differ from the expected report")
        if problems and not failed:
            failed = 1
        return seconds, checks, failed, problems


def _timed(tracer, fn, *args):
    """(seconds, result, None), or (seconds, None, traceback) when fn raised:
    an uncaught exception is a failed operation, not the end of the run."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = fn(*args)
        else:
            result = tracer.call(tracing.ROOT, fn, args)
    except Exception:
        return time.perf_counter() - start, None, traceback.format_exc()
    return time.perf_counter() - start, result, None


# ------------------------------------------------------------- the loops

class Tally:
    def __init__(self):
        self.attempted = self.failed = 0
        self.problems = []

    def add(self, attempted, failed, problems):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems[:5 - len(self.problems)])


def run_loop(rep, seconds):
    """Closed loop: the next repetition starts when the last has returned,
    and none starts that would end past the deadline by the median so far.
    Returns each repetition's seconds and its time.monotonic() at start,
    which run.py matches against the gauge's samples."""
    deadline = time.perf_counter() + seconds
    tally, samples, starts = Tally(), [], []
    while True:
        starts.append(time.monotonic())
        dt, *outcome = rep()
        samples.append(dt)
        tally.add(*outcome)
        if time.perf_counter() + statistics.median(samples) > deadline:
            return samples, starts, tally


def trace_loop(rep, seconds):
    """Pairs of one untraced and one traced repetition until the deadline.
    Returns both wall-time lists, the per-layer values of each traced
    repetition and its spans."""
    deadline = time.perf_counter() + seconds
    tally, plain, traced, layers, spans = Tally(), [], [], [], []
    # the first repetition in a process pays for lazy imports and heap
    # growth; keep it out of the untraced side of the overhead
    tally.add(*rep()[1:])
    while True:
        dt, *outcome = rep()
        plain.append(dt)
        tally.add(*outcome)
        with tracing.Tracer() as tracer:
            dt, *outcome = rep(tracer)
        traced.append(dt)
        tally.add(*outcome)
        layers.append(tracing.layer_values(tracer.spans))
        spans.append(tracer.spans)
        pair = statistics.median(plain) + statistics.median(traced)
        if time.perf_counter() + pair > deadline:
            return plain, traced, layers, spans, tally


def unattributed(spans, wall):
    """Traced wall time not covered by the self times of the spans."""
    return wall - sum(tracing.self_seconds(spans).values())


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    config = config_for(args.workload, args.seed)
    config_path = None
    if config is not None:
        WORK.mkdir(exist_ok=True)
        config_path = WORK / f"{args.workload}-seed{args.seed}.json"
        config_path.write_text(json.dumps(config, indent=1) + "\n")

    result = {"setup_s": set_up(config_path)}
    if args.mode == "setup":
        # the host's speed in this fresh process, right after its set-up
        start = time.perf_counter()
        gauge.loop()
        result["gauge_s"] = time.perf_counter() - start
    if args.mode != "setup":
        rep = Repetition(args.workload, config_path)
        if args.mode == "run":
            samples, starts, tally = run_loop(rep, args.seconds)
            result["samples"] = samples
            result["starts"] = starts
        else:
            plain, traced, layers, spans, tally = trace_loop(rep, args.seconds)
            result["samples"] = plain
            result["traced_samples"] = traced
            result["layers"] = tracing.median_layers(layers)
            result["unattributed_s"] = max(
                unattributed(s, w) for s, w in zip(spans, traced))
            result["span_names"] = sorted({s.name for rep_spans in spans
                                           for s in rep_spans})
            if args.spans:
                with open(args.spans, "w") as fh:
                    json.dump([[s.to_dict() for s in rep_spans]
                               for rep_spans in spans], fh)
        result.update(attempted=tally.attempted, failed=tally.failed,
                      problems=tally.problems)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
