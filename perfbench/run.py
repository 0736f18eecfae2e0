"""The gradlab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all  --seed N --seconds S --trace 0|1
                             [--out results.json]

Runs from the root of a checkout and benchmarks the gradlab in its src/.
Each workload runs in a child process of its own (perfbench/workload.py),
one at a time, so the peak RSS belongs to that workload alone.  While an
end-to-end child runs, the host-speed gauge (perfbench/gauge.py) runs on
the other CPU, and the two trade CPUs every SWAP_S seconds; the child's
times are scaled by the gauge's reading over the same interval.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
runs; --trace 1 makes a separate traced run and reports the per-layer
metrics.  `all` runs every workload in turn and, with --trace 1, also
traces each of them.  Every run checks every report (see workload.py); the
command exits 1 when any operation failed.  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import tracing
from workload import SEEDED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "out"

# setup_s is the median over this many fresh processes, after one more whose
# time is dropped because it may compile the bytecode cache
SETUP_SAMPLES = 21
# every child must end before this many seconds after start, so that the
# whole command ends within three minutes
DEADLINE_S = 170
# the timed child and the gauge trade CPUs this often
SWAP_S = 1.0
# a repetition is scaled by the gauge samples taken during it when there are
# at least this many, else by those of the whole run
MIN_GAUGE_SAMPLES = 3


class BenchError(Exception):
    pass


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed):
    return {"python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "loadavg_start": list(os.getloadavg()),
            "seed": seed}


def child_env():
    """The same interpreter settings whatever the caller's environment:
    string hashing fixed, and a bytecode cache kept under perfbench/out so
    that setup_s times imports from the cache, as an installed package
    would, without writing into src/."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    return env


class Gauge:
    """gauge.py in a process of its own for as long as the with-block lasts.
    It runs on one CPU of the pair and the timed child on the other; swap()
    trades them, so that over a run each spends as long on either."""

    def __init__(self):
        cpus = sorted(os.sched_getaffinity(0))
        self.pair = (cpus[0], cpus[-1])
        self.flip = 0
        self.samples = []

    def __enter__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "gauge.py")], cwd=ROOT,
            env=child_env(), text=True, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE)
        try:
            self._pin(self.proc.pid, 1)
        except OSError:
            self.proc.kill()
            self.proc.wait()
            raise
        return self

    def __exit__(self, *exc):
        # closing its stdin stops the gauge, which then prints its samples
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            raise BenchError("the gauge did not stop")
        if self.proc.returncode != 0:
            raise BenchError(f"the gauge exited {self.proc.returncode}")
        self.samples = json.loads(out)

    def _pin(self, pid, side):
        try:
            os.sched_setaffinity(pid, {self.pair[self.flip ^ side]})
        except ProcessLookupError:
            pass

    def pin(self, pid):
        """Put a new timed child on the CPU the gauge is not on."""
        self._pin(pid, 0)

    def swap(self, pid):
        self.flip ^= 1
        self._pin(pid, 0)
        self._pin(self.proc.pid, 1)

    def speed(self, start, end):
        """How fast the host ran between two time.monotonic() readings:
        gauge.GAUGE_S over the gauge's median loop time then, and the
        number of loop times it rests on."""
        times = [s for t, s in self.samples if start <= t <= end]
        if not times:
            return None, 0
        return gauge.GAUGE_S / statistics.median(times), len(times)


def child(deadline, workload, seed, mode, seconds=None, spans=None,
          meter=None):
    """Run workload.py in a fresh process and return its JSON result.  With
    a Gauge, the child and the gauge trade CPUs every SWAP_S seconds."""
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        if meter is not None:
            meter.pin(proc.pid)
        while True:
            left = deadline - time.monotonic()
            if left <= 0:
                raise BenchError(f"{workload} {mode}: out of time")
            wait = left if meter is None else min(SWAP_S, left)
            try:
                out, err = proc.communicate(timeout=wait)
                break
            except subprocess.TimeoutExpired:
                if meter is not None:
                    meter.swap(proc.pid)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if proc.returncode != 0:
        raise BenchError(f"{workload} {mode} exited {proc.returncode}: "
                         f"{err.strip()[-2000:]}")
    return json.loads(out.splitlines()[-1])


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  With ten samples or fewer there is none, and the
    maximum stands in, as percentile 100."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(workload, seed, seconds, deadline):
    """Times scaled by the host speed while they were measured; the
    unscaled figures go into the notes.  A set-up is scaled by the gauge's
    loop timed in the same process after it, the run's repetitions by the
    gauge running beside them."""
    setups, setup_speeds = [], []
    for _ in range(SETUP_SAMPLES + 1):
        setup = child(deadline, workload, seed, "setup")
        setups.append(setup["setup_s"])
        setup_speeds.append(gauge.GAUGE_S / setup["gauge_s"])
    del setups[0], setup_speeds[0]
    with Gauge() as meter:
        run_start = time.monotonic()
        run = child(deadline, workload, seed, "run", seconds, meter=meter)
        run_end = time.monotonic()
    speed, n = meter.speed(run_start, run_end)
    if not n:
        raise BenchError("the gauge took no sample")
    raw = run["samples"]
    # each repetition at the host speed over its own interval, or over the
    # whole run when too few gauge samples fall inside it
    samples = []
    for start, dt in zip(run["starts"], raw):
        own, k = meter.speed(start, start + dt)
        samples.append(dt * (own if k >= MIN_GAUGE_SAMPLES else speed))
    wall = statistics.median(raw)
    tail_s, tail_pct = tail(samples)
    metrics = {
        "scaled_wall_s": {"value": statistics.median(samples), "unit": "s"},
        "scaled_wall_s_tail": {"value": tail_s, "unit": "s"},
        "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        "setup_s": {"value": statistics.median(
            s * v for s, v in zip(setups, setup_speeds)), "unit": "s"},
    }
    counts = {"scaled_wall_s": len(samples),
              "scaled_wall_s_tail": len(samples),
              "peak_rss_mb": 1, "setup_s": len(setups)}
    notes = {"scaled_wall_s": f"median; unscaled {wall:.6g} s at host "
                              f"speed {speed:.4f} (gauge n={n})",
             "scaled_wall_s_tail": f"p{tail_pct:.0f}" + (
                 " (max: n <= 10)" if tail_pct == 100 else "")
             + f"; unscaled {tail(raw)[0]:.6g} s",
             "setup_s": f"median over fresh processes; unscaled "
                        f"{statistics.median(setups):.6g} s at host speed "
                        f"{statistics.median(setup_speeds):.4f}"}
    run["unscaled"] = {"wall_s": wall, "wall_s_tail": tail(raw)[0],
                       "setup_s": statistics.median(setups),
                       "host_speed": speed,
                       "setup_host_speed": statistics.median(setup_speeds)}
    return run, metrics, counts, notes


def per_layer(workload, seed, seconds, deadline):
    WORK.mkdir(exist_ok=True)
    spans = WORK / f"spans-{workload}-seed{seed}.json"
    run = child(deadline, workload, seed, "trace", seconds, spans)
    metrics = {name: {"value": run["layers"][name], "unit": unit}
               for name, (unit, _) in tracing.LAYER_METRICS.items()}
    traced = statistics.median(run["traced_samples"])
    values = {"trace.wall_s": traced,
              "trace.overhead_s": traced - statistics.median(run["samples"])}
    metrics.update({name: {"value": values[name], "unit": unit}
                    for name, unit in tracing.TRACE_METRICS.items()})
    n = len(run["traced_samples"])
    counts = {name: n for name in metrics}
    run["spans_file"] = str(spans.relative_to(ROOT))
    return run, metrics, counts, {}


def separation(workload, metrics, run):
    """Lines that show which layers the traced workload exercised."""
    v = {name: m["value"] for name, m in metrics.items()}
    wall = v["trace.wall_s"]
    names = run["span_names"]
    lines = [f"traced wall {wall:.4f} s, overhead {v['trace.overhead_s']:.4f} s;"
             f" wall not covered by span self times "
             f"{run['unattributed_s']:.2e} s"]
    if workload == "homology-surface2":
        gog = [n for n in names if n.startswith("gog.")]
        lines.append(f"homology.rank share {v['homology.rank_s'] / wall:.1%};"
                     f" gog spans: {gog or 'none'}")
    elif workload == "volume-surface2":
        hom = [n for n in names if n.startswith("homology.")]
        lines.append(f"gog.volume share {v['gog.volume_s'] / wall:.1%};"
                     f" homology spans: {hom or 'none'}")
    return lines


def report(workload, seed, kind, run, metrics, counts, notes):
    seeded = "" if workload in SEEDED else " (the seed does not affect it)"
    print(f"== {workload} {kind}, seed {seed}{seeded}")
    attempted, failed = run["attempted"], run["failed"]
    print(f"   {'error_rate':<34} {failed / attempted:>12.6g} share  "
          f"n={attempted}")
    for name, m in metrics.items():
        note = notes.get(name, "")
        print(f"   {name:<34} {m['value']:>12.6g} {m['unit']:<6} "
              f"n={counts[name]} {note}".rstrip())
    for problem in run["problems"]:
        print(f"   FAILED: {problem}")
    if kind == "per-layer":
        for line in separation(workload, metrics, run):
            print(f"   {line}")


def measure(workload, args, trace, deadline):
    kind = "per-layer" if trace else "end-to-end"
    fn = per_layer if trace else end_to_end
    run, metrics, counts, notes = fn(workload, args.seed, args.seconds,
                                     deadline)
    report(workload, args.seed, kind, run, metrics, counts, notes)
    record = {"workload": workload, "kind": kind,
              "seed_affects_input": workload in SEEDED,
              "attempted": run["attempted"], "failed": run["failed"],
              "problems": run["problems"], "samples": counts,
              "metrics": metrics}
    if trace:
        record["spans_file"] = run["spans_file"]
    else:
        record["unscaled"] = run["unscaled"]
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also write the results, with provenance, here")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gradlab" / "__init__.py").is_file():
        print(f"no gradlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    print("provenance: " + json.dumps(prov))
    records = []
    try:
        if args.workload == "all":
            for workload in WORKLOADS:
                passes = (False, True) if args.trace else (False,)
                for trace in passes:
                    deadline = time.monotonic() + DEADLINE_S
                    records.append(measure(workload, args, trace, deadline))
        else:
            deadline = time.monotonic() + DEADLINE_S
            records.append(measure(args.workload, args, bool(args.trace),
                                   deadline))
    except BenchError as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{name}": m for r in records
                   for name, m in r["metrics"].items()}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"provenance": prov, "seconds": args.seconds,
                       "results": records}, fh, indent=1)
            fh.write("\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
