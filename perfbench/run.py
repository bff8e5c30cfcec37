"""Benchmark of the ttspectral library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Without it the script exits with code 2 and prints no result.

One run is one fresh process driving one workload as a closed loop with a
single caller: the next op starts when the previous one has ended.  Whole
rounds (every case once, in seeded shuffled order) run until ``--seconds``
have passed and, in the in-process workloads, at least 100 ops have run, so
the 90th percentile has at least ten ops beyond it (``MIN_OPS``).
``--seed`` fixes every input.  Each op's output is checked outside its
timed region; an op that raises, exits non-zero or fails its check counts
as failed and is charged its own time plus the workload's latency limit
(``workloads.LIMIT_MS``) in every time metric.  Ops are timed in CPU
seconds (``cpu_clock``), and each op's time is scaled by the calibration
samples (``calibrate.py``) taken around it, which cancels the machine's
swings of speed within and between runs.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs and checks every op twice, once plainly and once with a
span around each call into the library's public functions (``spans.py``),
and prints the per-layer metrics.  ``--tiny`` runs the smallest sizes with no
minimum op count, for the self-test (``test_perfbench.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record with
the environment, per-case statistics, failures by cause, the metrics
unscaled and in wall time, and every op's times and calibration sample is
written to ``.perfbench-records/`` in the checkout.

BLAS is pinned to one thread for this process and its children: the
matrices are small, and threads would make the figures depend on the load
the machine carries.  The benchmark changes no setting of the machine.
"""

import os

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import bisect  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from time import perf_counter as clock  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

try:
    import numpy as np
    import calibrate
    import spans
    import workloads
except ModuleNotFoundError as _exc:
    print(f"perfbench: cannot import {_exc.name!r}; run from the root of a "
          "ttspectral source checkout", file=sys.stderr)
    raise SystemExit(2)

# Ops a run needs before it may stop.  One cli-cold op is a process of
# about 0.4 s, so 100 of them would take twice the run's declared length;
# cli-cold stops at the deadline with some 70 ops in 30 s instead, and its
# 90th percentile has about seven ops beyond it.
MIN_OPS = {"train": 100, "apply-warm": 100, "cli-cold": 1}
SETUP_PROBES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="smallest sizes and no minimum op count")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)  # set-up only, then exit
    return p.parse_args(argv)


# ---------------------------------------------------------------- the loop

def cpu_clock() -> float:
    """CPU seconds of this process plus those of its waited-for children.

    The kernel leaves out the time a task waits while another task holds
    its CPU, and, with paravirtual time accounting, the time the hypervisor
    gives the CPU to other guests (steal time), both of which wall time
    counts.  It still counts how fast the CPU runs while the task holds
    it, which the calibration scales out.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Calibration:
    """Calibration samples interleaved with the ops of one run.

    The in-process kernel runs before an op when ``every`` seconds have
    passed since the last sample; the CLI workload's calibration process
    runs once per round.  Each op's time is scaled by the nominal
    calibration time over the median of the samples taken within
    ``window`` seconds of its start, and at least the ``nearest`` ones: on
    a shared host the machine's speed swings by a third within a second,
    so only samples close to an op tell how fast the machine was for it.
    Over ten seeds of each workload, on a 2-CPU shared x86-64 host, this
    narrowed the spread (quartile distance over median) of ``op_p50_ms``
    against scaling by the median of all a run's samples from 5.5 to 1.3%
    (train), 2.9 to 0.9% (apply-warm) and 7.2 to 3.8% (cli-cold).
    """

    every = 0.03  # seconds between in-process kernel samples
    window = 0.2
    nearest = 3

    def __init__(self, process: bool):
        self.process = process
        self.nominal_ms = calibrate.PROCESS_NOMINAL_MS if process \
            else calibrate.KERNEL_NOMINAL_MS
        self.last = None
        self.samples: list[float] = []
        self.times: list[float] = []

    def before_op(self, first_of_round: bool) -> None:
        if self.process:
            due = first_of_round
        else:
            due = self.last is None or clock() - self.last >= self.every
        if due:
            self.sample()

    def sample(self) -> None:
        self.last = clock()
        start = cpu_clock()
        if self.process:
            subprocess.run([sys.executable, calibrate.__file__], check=True)
        else:
            calibrate.kernel()
        self.samples.append(cpu_clock() - start)
        self.times.append(self.last)

    def op_scales(self, ops) -> list[float]:
        """The scale of each op, by the samples near its start."""
        scales = []
        for op in ops:
            lo = bisect.bisect_left(self.times, op["t"] - self.window)
            hi = bisect.bisect_right(self.times, op["t"] + self.window)
            while hi - lo < self.nearest and hi - lo < len(self.times):
                lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
            near = statistics.median(self.samples[lo:hi])
            scales.append(self.nominal_ms / (near * 1e3))
        return scales

    def summary(self) -> dict:
        return {"nominal_ms": self.nominal_ms, "samples": len(self.samples),
                "median_ms": statistics.median(self.samples) * 1e3}


def attempt(fn, *args):
    """``(result, None)``, or ``(None, cause)`` when ``fn`` fails."""
    try:
        return fn(*args), None
    except workloads.OpFailed as exc:
        return None, exc.cause
    except Exception as exc:  # an op's failure is measured, not fatal
        return None, type(exc).__name__


def timed(run, check, inp) -> tuple[float, float, str | None, bool, dict]:
    """Run one op and check its output outside the timed region.

    Returns the CPU seconds and the wall seconds it took, the cause of its
    failure (None if it succeeded), whether its output failed the check,
    and the check's facts.
    """
    wall, cpu = clock(), cpu_clock()
    out, cause = attempt(run, inp)
    cpu = cpu_clock() - cpu
    wall = clock() - wall
    if cause is not None:
        return cpu, wall, cause, False, {}
    facts, cause = attempt(check, inp, out)
    if cause is None:
        return cpu, wall, None, False, facts
    if not cause.startswith("check"):
        cause = f"check: {cause}"
    return cpu, wall, cause, True, {}


def one_op(case, rng, tr, op_id: int) -> dict:
    """One op on fresh inputs; with a tracer, run and check it again traced."""
    inp = case.prepare(rng)
    op = {"case": case.label, "kind": case.kind, "t": clock()}
    op["s"], op["wall_s"], op["cause"], op["bad_output"], op["facts"] = \
        timed(case.run, case.check, inp)
    if tr is not None:
        tr.op = op_id
        _, op["traced_s"], cause, bad_output, _ = timed(
            lambda inp: case.run_traced(tr, inp), case.check, inp)
        tr.op = None
        if op["cause"] is None and cause is not None:
            op["cause"] = f"traced: {cause}"
        op["bad_output"] |= bad_output
    return op


def run_ops(cases, rng, seconds: float, min_ops: int, tr=None,
            cal=None) -> list[dict]:
    ops: list[dict] = []
    deadline = clock() + seconds
    while clock() < deadline or len(ops) < min_ops:
        for k, i in enumerate(rng.permutation(len(cases))):
            if cal is not None:
                cal.before_op(k == 0)
            ops.append(one_op(cases[i], rng, tr, len(ops)))
    return ops


def charge(ops, limit_ms: float, scales=None, key: str = "s") -> None:
    """Set each op's time in ms: scaled, plus the limit if it failed.

    ``scales`` holds one scale per op (none: unscaled); ``key`` picks the
    op's CPU seconds (``s``) or wall seconds (``wall_s``).
    """
    for op, scale in zip(ops, scales or [1.0] * len(ops)):
        op["ms"] = op[key] * 1e3 * scale + (limit_ms if op["cause"] else 0.0)


# ---------------------------------------------------------------- metrics

def end_to_end(ops, setup_s: float, rss_mb: float, limit_ms: float) -> dict:
    """The end-to-end metrics of one untraced run.

    The cases of a workload differ in time by up to a factor of a hundred,
    so a percentile pooled over all ops reads whichever case happens to
    straddle it, and moves with the noise of that case's neighbours.
    ``op_p50_ms`` is instead the geometric mean over cases of each case's
    median, which every case moves in proportion.  ``op_p90_ms`` is
    ``op_p50_ms`` times the 90th percentile, pooled over all ops, of an
    op's excess: its time over its case's median, divided by the same
    ratio of the ops just before and after it.  Pooling keeps at least ten
    ops beyond the percentile, which one case alone may not have; the
    neighbours cancel what is left of the machine's swings of speed after
    calibration, and keep what is the op's own, such as a collection of
    garbage or an input that costs more.  A case that always fails has
    ratios near 1, so while more than 10% of ops fail, ``op_p90_ms`` reads
    at least the latency limit, as the pooled 90th percentile of charged
    times would.
    """
    per_case: dict[str, list[float]] = {}
    for op in ops:
        per_case.setdefault(op["case"], []).append(op["ms"])
    medians = {case: statistics.median(v) for case, v in per_case.items()}
    p50 = statistics.geometric_mean(medians.values())
    ratio = [op["ms"] / medians[op["case"]] for op in ops]
    excess = [r / statistics.median(ratio[max(i - 1, 0):i] + ratio[i + 1:i + 2]
                                    or [r])
              for i, r in enumerate(ratio)]
    tail = np.percentile(excess, 90)
    ok = sum(1 for op in ops if op["cause"] is None)
    p90 = p50 * float(tail)
    if len(ops) - ok > 0.1 * len(ops):
        p90 = max(p90, limit_ms)
    return {
        "setup_s": setup_s,
        "op_p50_ms": p50,
        "op_p90_ms": p90,
        "ops_per_s": len(ops) / (sum(op["ms"] for op in ops) / 1e3),
        "success_rate": ok / len(ops),
        "peak_rss_mb": rss_mb,
    }


def workload_figures(ops) -> dict:
    """Figures that only some workloads have; reported, not gated."""
    out = {"error_rate": sum(1 for op in ops if op["cause"]) / len(ops)}
    for kind, unit, name in (("fit", "steps", "fit_steps_per_s"),
                             ("apply", "cols", "apply_cols_per_s")):
        mine = [op for op in ops if op["kind"] == kind]
        if mine:
            work = sum(op["facts"].get(unit, 0) for op in mine)
            out[name] = work / (sum(op["ms"] for op in mine) / 1e3)
    errs = [op["facts"]["rel_err"] for op in ops if "rel_err" in op["facts"]]
    if errs:
        out["fit_rel_err"] = statistics.median(errs)
    return out


def per_case(ops) -> list[dict]:
    rows: dict[str, dict] = {}
    for op in ops:
        row = rows.setdefault(op["case"], {"case": op["case"], "ms": [],
                                           "failed": 0})
        row["ms"].append(op["ms"])
        row["failed"] += op["cause"] is not None
    for row in rows.values():
        ms = row.pop("ms")
        row.update(ops=len(ms), p50_ms=statistics.median(ms),
                   p90_ms=float(np.percentile(ms, 90)))
    return list(rows.values())


def peak_rss_mb(workload: str) -> float:
    """Peak RSS of this process, plus that of its largest child in cli-cold."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "cli-cold":
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def setup_seconds(args) -> tuple[float, float]:
    """Median CPU time of fresh processes that only set the workload up.

    A probe process starts, imports, builds the workload's cases as a run
    does before its first op, and exits.  Process calibrations run between
    the probes, and each probe is scaled by the ones next to it.  Returns
    the median seconds, unscaled and scaled.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--seconds", "0",
           "--probe-setup"] + (["--tiny"] if args.tiny else [])
    cal = Calibration(process=True)
    cal.sample()
    probes = []
    for _ in range(SETUP_PROBES):
        probe = {"t": clock()}
        start = cpu_clock()
        subprocess.run(cmd, cwd=ROOT, capture_output=True, check=True)
        probe["s"] = cpu_clock() - start
        probes.append(probe)
        cal.sample()
    scaled = [p["s"] * k for p, k in zip(probes, cal.op_scales(probes))]
    return (statistics.median(p["s"] for p in probes),
            statistics.median(scaled))


# ---------------------------------------------------------------- record

def run_info(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name(),
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "latency_limit_ms": workloads.LIMIT_MS[args.workload],
        "loop": "closed, one caller",
        "machine_settings": "none changed; only this process tree's "
                            "environment pins the BLAS thread count",
    }


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown (not a git checkout)"
    return lines[1]


def blas_name() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def write_record(record: dict) -> str:
    folder = os.path.join(ROOT, ".perfbench-records")
    os.makedirs(folder, exist_ok=True)
    info = record["run"]
    path = os.path.join(folder, f"{info['workload']}-seed{info['seed']}-"
                                f"trace{info['trace']}-pid{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return path


# ---------------------------------------------------------------- main

def measure(args, workdir: str) -> dict:
    rng = np.random.default_rng([args.seed, 99])
    tr = spans.Tracer() if args.trace else None
    cases, over_cap = workloads.setup(args.workload, args.seed, args.tiny,
                                      workdir, tr)
    limit = workloads.LIMIT_MS[args.workload]
    min_ops = len(cases) if args.tiny or args.trace \
        else MIN_OPS[args.workload]
    cal = None if tr else Calibration(process=args.workload == "cli-cold")
    ops = run_ops(cases, rng, args.seconds, min_ops, tr, cal)
    record = {"run": run_info(args)}
    charge(ops, limit)
    if tr is not None:
        record["cases"] = per_case(ops)
        metrics = spans.layer_metrics(
            tr, sum(op["traced_s"] for op in ops),
            sum(op["wall_s"] for op in ops), len(ops))
    else:
        rss = peak_rss_mb(args.workload)
        raw_setup, setup = setup_seconds(args)
        record["unscaled_metrics"] = end_to_end(ops, raw_setup, rss, limit)
        charge(ops, limit, key="wall_s")
        record["wall_metrics"] = end_to_end(ops, raw_setup, rss, limit)
        record["calibration"] = cal.summary()
        charge(ops, limit, cal.op_scales(ops))
        record["cases"] = per_case(ops)
        record["workload_figures"] = workload_figures(ops)
        if args.workload == "apply-warm":
            record["apply_table"] = workloads.apply_table(cases + over_cap, rng)
        metrics = end_to_end(ops, setup, rss, limit)
    record["ops"] = [[op["case"], op["s"], op["wall_s"], op["t"]] for op in ops]
    if cal is not None:
        record["cal_samples"] = list(zip(cal.times, cal.samples))
    record["over_cap"] = {c.label: c.error for c in over_cap}
    record["failures_by_cause"] = dict(Counter(op["cause"] for op in ops
                                               if op["cause"]))
    record["result"] = {
        "correct": not any(op["bad_output"] for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["cause"]),
    }
    record["metrics"] = metrics
    return record


def report(record: dict, units: dict) -> dict:
    """Print the human-readable report; return the result object."""
    for row in record["cases"]:
        print(f"case {row['case']}: {row['ops']} ops, p50 {row['p50_ms']:.3f} ms,"
              f" p90 {row['p90_ms']:.3f} ms, {row['failed']} failed")
    table = record.get("apply_table", [])
    for row in table:
        timing = (f"apply {row['apply_ms']:.3f} ms, ratio {row['ratio']:.3f}"
                  if "ratio" in row else row["error"])
        print(f"table {row['case']}: nodes {row['nodes']}, total_flops "
              f"{row.get('total_flops', 'n/a')}, naive_flops "
              f"{row['naive_flops']}, decompress@x "
              f"{row['decompress_matmul_ms']:.3f} ms, {timing}")
    if table:
        wins = [row["case"] for row in table if row.get("ratio", 2.0) < 1.0]
        print(f"table apply_map beats decompress(p) @ x in {len(wins)} of "
              f"{len(table)} cases: {', '.join(wins) or 'none'}")
    for name, value in record.get("workload_figures", {}).items():
        print(f"figure {name} = {value!r}")
    if "calibration" in record:
        print(f"calibration {record['calibration']}")
        for name, value in record["unscaled_metrics"].items():
            print(f"unscaled {name} = {value!r}")
        for name, value in record["wall_metrics"].items():
            print(f"wall {name} = {value!r}")
    for cause, count in record["failures_by_cause"].items():
        print(f"failed {count} ops: {cause}")
    if set(record["metrics"]) != set(units):
        raise RuntimeError("computed metrics do not match BENCHMARK.json: "
                           f"{sorted(set(record['metrics']) ^ set(units))}")
    metrics = {}
    for name, unit in units.items():
        value = float(record["metrics"][name])
        print(f"metric {name} = {value!r} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    return {**record["result"], "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    try:
        if args.probe_setup:
            workloads.setup(args.workload, args.seed, args.tiny, workdir)
            return 0
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        group = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in group}
        record = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = report(record, units)
    print(f"record {write_record(record)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
