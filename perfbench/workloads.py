"""The benchmark's workloads: their cases, set-up, ops and output checks.

A workload is a list of cases.  A round runs every case once, in a seeded
shuffled order, on fresh seeded inputs; one op is one case run.  Inputs are
made before the op's clock starts and its output is checked after the clock
stops.  An op fails when it raises, when its CLI process exits non-zero, or
when its output check fails.

Every op of these workloads succeeds at the time the benchmark was written.
The sttp ``apply_map`` cases at 256x256 and 1024x1024 raise CapacityError,
because their diagrams (18 and 22 nodes) exceed the planner's 16-node cap;
apply-warm attempts them once per run during set-up, reports them in its
per-case table and in ``planner.capacity_errors``, and keeps them out of
the timed ops, so that the op mix stays the same across commits.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from contextlib import nullcontext

import numpy as np

import spans
from ttspectral import fileio, fit, planner, sampling
from ttspectral import householder as hh
from ttspectral.autodiff import pack
from ttspectral.dense import svd_full
from ttspectral.fit import FitConfig
from ttspectral.spectrum_modes import LEARNED
from ttspectral.sttp import core_specs, init_sttp_params, sttp_dof
from ttspectral.svdp import SvdpParams, svdp_dof
from ttspectral.tensortrain import frames_from_cores

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACED_PY = os.path.join(HERE, "cli_traced.py")

WORKLOADS = ("train", "apply-warm", "cli-cold")

# Latency limit per workload, above the slowest op that succeeds on it.  A
# failed op is charged its own time plus this limit in every time metric,
# so an op that starts to succeed can only lower the time metrics.
LIMIT_MS = {"train": 2000.0, "apply-warm": 50.0, "cli-cold": 2000.0}

NO_EARLY_STOP = 1e-300  # fit tolerance: stops only if the loss repeats exactly
POOL = 4  # targets or input files per case, made during set-up

FULL = {
    "steps": 20,
    "fits": [("svdp", 16, 72, 4), ("sttp", 16, 72, 4),
             ("svdp", 256, 256, 8), ("sttp", 256, 256, 8)],
    "demos": ["svdp", "sttp"],
    "applies": [("svdp", 16, 72, 4), ("sttp", 16, 72, 4),
                ("svdp", 256, 256, 8), ("svdp", 1024, 1024, 16)],
    "over_cap": [("sttp", 256, 256, 8), ("sttp", 1024, 1024, 16)],
    "d_x": (1, 64),
    "cli_applies": [("svdp", 16, 72, 4), ("sttp", 16, 72, 4),
                    ("svdp", 1024, 1024, 16)],
    "cli_build": ("sttp", 256, 256, 8),
    "cli_fit": ("sttp", 16, 72, 4),
}
TINY = {
    "steps": 2,
    "fits": [("svdp", 16, 72, 4), ("sttp", 16, 72, 4)],
    "demos": ["svdp", "sttp"],
    "applies": [("svdp", 16, 72, 4), ("sttp", 16, 72, 4)],
    "over_cap": [("sttp", 256, 256, 8)],
    "d_x": (1, 64),
    "cli_applies": [("svdp", 16, 72, 4), ("sttp", 16, 72, 4)],
    "cli_build": ("sttp", 16, 72, 4),
    "cli_fit": ("sttp", 16, 72, 4),
}


class OpFailed(Exception):
    """An op failed for a reason other than an exception of the library."""

    def __init__(self, cause: str):
        super().__init__(cause)
        self.cause = cause


def _random_params(scheme, d_out, d_in, r, seed):
    make = sampling.random_svdp_params if scheme == "svdp" \
        else sampling.random_sttp_params
    return make(d_out, d_in, r, LEARNED, seed)


def _seed(rng) -> int:
    return int(rng.integers(2**31))


def check_fitted(p, target) -> dict:
    """Orthonormal frames to 1e-10, spectral norm 1 to 1e-12, exact dof."""
    if isinstance(p, SvdpParams):
        frames = [hh.decode(p.u_layout), hh.decode(p.v_layout)]
        dof = svdp_dof(p.d_out, p.d_in, p.r, p.spectrum.mode)
    else:
        u_specs, v_specs = core_specs(p.out_fac, p.in_fac, p.r, p.spectrum.mode)
        sides = [[hh.decode(la).reshape(spec.shape)
                  for la, spec in zip(layouts, specs)]
                 for layouts, specs in ((p.u_layouts, u_specs),
                                        (p.v_layouts, v_specs))]
        frames = [core.reshape(-1, core.shape[2]) for side in sides
                  for core in side]
        frames += [frames_from_cores(side) for side in sides]
        dof = sttp_dof(p.d_out, p.d_in, p.r, p.spectrum.mode)
    for frame in frames:
        err = float(np.max(np.abs(frame.T @ frame - np.eye(frame.shape[1]))))
        if not err <= 1e-10:
            raise OpFailed(f"check: frame orthonormality error {err:.1e}")
    w = planner.decompress(p)
    norm = float(svd_full(w)[1][0])
    if not abs(norm - 1.0) <= 1e-12:
        raise OpFailed(f"check: spectral norm {norm!r}")
    if p.n_params != dof:
        raise OpFailed(f"check: {p.n_params} free parameters, expected {dof}")
    return {"rel_err": float(np.linalg.norm(w - target) / np.linalg.norm(target))}


def check_close(y, w, x) -> None:
    ref = w @ x
    err = float(np.linalg.norm(y - ref) / np.linalg.norm(ref))
    if not err <= 1e-10:
        raise OpFailed(f"check: apply relative error {err:.1e}")


# ------------------------------------------------------------ in-process

class Case:
    """A case whose op runs in this process."""

    def run_traced(self, tr, inp):
        """``run`` with spans around the library's functions."""
        with spans.installed(tr):
            return self.run(inp)


class FitCase(Case):
    kind = "fit"

    def __init__(self, scheme, d_out, d_in, r, steps, rng):
        self.label = f"fit {scheme} {d_out}x{d_in} r{r}"
        self.scheme, self.r, self.steps = scheme, r, steps
        self.targets = [planner.decompress(
            _random_params(scheme, d_out, d_in, r, _seed(rng)))
            for _ in range(POOL)]

    def prepare(self, rng):
        cfg = FitConfig(self.scheme, self.r, LEARNED, max_steps=self.steps,
                        tol=NO_EARLY_STOP, seed=_seed(rng))
        return self.targets[rng.integers(POOL)], cfg

    def run(self, inp):
        return fit.fit_matrix(*inp)

    def check(self, inp, res):
        return {**check_fitted(res.params, inp[0]), "steps": len(res.trace)}


class DemoCase(Case):
    kind = "fit"

    def __init__(self, scheme, steps):
        self.label = f"demo_train {scheme} r3"
        self.scheme, self.steps = scheme, steps

    def prepare(self, rng):
        seed = _seed(rng)
        return FitConfig(self.scheme, 3, LEARNED, max_steps=self.steps,
                         seed=seed), seed

    def run(self, inp):
        cfg, seed = inp
        return fit.demo_train(cfg, seed, steps=self.steps)

    def check(self, inp, report):
        if not np.all(np.isfinite(report.losses)):
            raise OpFailed("check: non-finite demo loss")
        bound = max(report.bounds)
        if not bound <= 1.0 + 1e-9:
            raise OpFailed(f"check: product bound {bound!r} exceeds 1")
        return {"steps": len(report.losses)}


class ApplyCase(Case):
    kind = "apply"

    def __init__(self, scheme, d_out, d_in, r, d_x, params, w):
        self.label = f"apply {scheme} {d_out}x{d_in} r{r} dx{d_x}"
        self.params, self.w, self.d_x = params, w, d_x
        self.error = None  # what its cold plan raised, if anything

    def prepare(self, rng):
        return rng.standard_normal((self.params.d_in, self.d_x))

    def run(self, x):
        return planner.apply_map(self.params, x)

    def check(self, x, y):
        check_close(y, self.w, x)
        return {"cols": self.d_x}


# ------------------------------------------------------------ CLI

def child_env() -> dict:
    return {**os.environ, "PYTHONPATH": SRC}


class CliCase:
    """One ``python -m ttspectral.cli`` process per op.

    ``prepare`` returns the argument list and what the output check needs
    to know about the inputs.  The traced run passes the same arguments to
    ``cli_traced.py``, which runs ``ttspectral.cli.main`` with spans.
    """

    def __init__(self, workdir):
        self.spans_path = os.path.join(workdir, "spans.json")

    def run(self, inp):
        return _cli([sys.executable, "-m", "ttspectral.cli", *inp[0]])

    def run_traced(self, tr, inp):
        spawned = spans.clock()
        try:
            return _cli([sys.executable, TRACED_PY, self.spans_path,
                         repr(spawned), *inp[0]])
        finally:
            if os.path.exists(self.spans_path):
                with open(self.spans_path, encoding="utf-8") as fh:
                    tr.extend(json.load(fh))
                os.remove(self.spans_path)


def _cli(cmd) -> bytes:
    """Standard output of one CLI process; fails the op on a non-zero exit."""
    proc = subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True)
    if proc.returncode:
        raise OpFailed(f"exit {proc.returncode}")
    return proc.stdout


class CliApply(CliCase):
    kind = "apply"

    def __init__(self, scheme, d_out, d_in, r, workdir, rng):
        super().__init__(workdir)
        self.label = f"cli apply {scheme} {d_out}x{d_in} r{r} dx64"
        params = _random_params(scheme, d_out, d_in, r, _seed(rng))
        self.w = planner.decompress(params)
        stem = os.path.join(workdir, f"apply-{scheme}-{d_out}")
        self.params_path, self.out = stem + ".params", stem + ".y"
        fileio.write_params(self.params_path, params)
        self.inputs = []
        for k in range(POOL):
            x = rng.standard_normal((d_in, 64))
            fileio.write_matrix(f"{stem}.x{k}", x)
            self.inputs.append((f"{stem}.x{k}", x))

    def prepare(self, rng):
        path, x = self.inputs[int(rng.integers(POOL))]
        argv = ["apply", "--params", self.params_path, "--in", path,
                "--out", self.out]
        return argv, x

    def check(self, inp, stdout):
        check_close(fileio.read_matrix(self.out), self.w, inp[1])
        return {"cols": 64}


class CliBuild(CliCase):
    kind = "build"

    def __init__(self, d_out, d_in, r, workdir):
        super().__init__(workdir)
        self.label = f"cli build sttp {d_out}x{d_in} r{r}"
        self.shape = (d_out, d_in, r)
        stem = os.path.join(workdir, f"build-sttp-{d_out}")
        self.out, self.params_out = stem + ".w", stem + ".params"

    def prepare(self, rng):
        d_out, d_in, r = self.shape
        seed = _seed(rng)
        argv = ["build", "--scheme", "sttp", "--dout", str(d_out), "--din",
                str(d_in), "--rank", str(r), "--seed", str(seed),
                "--params-out", self.params_out, "--out", self.out]
        return argv, seed

    def check(self, inp, stdout):
        expected = init_sttp_params(*self.shape, LEARNED, inp[1])
        if not np.array_equal(pack(fileio.read_params(self.params_out)),
                              pack(expected)):
            raise OpFailed("check: build parameters differ from in-process")
        if fileio.read_matrix(self.out).tobytes() != \
                planner.decompress(expected).tobytes():
            raise OpFailed("check: build matrix differs from in-process")
        return {}


class CliFit(CliCase):
    kind = "fit"

    def __init__(self, scheme, d_out, d_in, r, steps, workdir, rng):
        super().__init__(workdir)
        self.label = f"cli fit {scheme} {d_out}x{d_in} r{r}"
        self.scheme, self.r, self.steps = scheme, r, steps
        stem = os.path.join(workdir, f"fit-{scheme}-{d_out}")
        self.params_out = stem + ".params"
        self.targets = []
        for k in range(POOL):
            t = planner.decompress(
                _random_params(scheme, d_out, d_in, r, _seed(rng)))
            fileio.write_matrix(f"{stem}.t{k}", t)
            self.targets.append((f"{stem}.t{k}", t))

    def prepare(self, rng):
        path, target = self.targets[int(rng.integers(POOL))]
        argv = ["fit", "--target", path, "--scheme", self.scheme, "--rank",
                str(self.r), "--steps", str(self.steps), "--tol",
                repr(NO_EARLY_STOP), "--seed", str(_seed(rng)),
                "--params-out", self.params_out]
        return argv, target

    def check(self, inp, stdout):
        facts = check_fitted(fileio.read_params(self.params_out), inp[1])
        lines = stdout.decode().split()
        if not all(np.isfinite(float(line.split(",")[1])) for line in lines):
            raise OpFailed("check: non-finite loss in the fit trace")
        return {**facts, "steps": len(lines)}


# ------------------------------------------------------------ set-up

def setup(name: str, seed: int, tiny: bool, workdir: str, tr=None):
    """Build the cases of a workload; returns ``(cases, over_cap)``.

    ``over_cap`` lists the apply-warm cases kept out of the timed ops, each
    with the error its cold plan raised.  ``tr`` traces the cold plans.
    """
    size = TINY if tiny else FULL
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    if name == "train":
        cases = [FitCase(*shape, size["steps"], rng) for shape in size["fits"]]
        cases += [DemoCase(scheme, size["steps"]) for scheme in size["demos"]]
        return cases, []
    if name == "apply-warm":
        cases, over_cap = [], []
        for shape in size["applies"] + size["over_cap"]:
            params = _random_params(*shape, _seed(rng))
            timed = shape in size["applies"]
            w = planner.decompress(params) if timed else None
            for d_x in size["d_x"]:
                case = ApplyCase(*shape, d_x, params, w)
                x = case.prepare(rng)
                try:  # the cold plan
                    with spans.installed(tr) if tr else nullcontext():
                        planner.apply_map(params, x)
                except Exception as exc:
                    if timed:
                        raise
                    case.error = type(exc).__name__
                (cases if timed else over_cap).append(case)
        return cases, over_cap
    os.makedirs(workdir, exist_ok=True)
    cases = [CliApply(*shape, workdir, rng) for shape in size["cli_applies"]]
    cases.append(CliBuild(*size["cli_build"][1:], workdir))
    cases.append(CliFit(*size["cli_fit"], size["steps"], workdir, rng))
    # One untimed process compiles the library's bytecode, as an installed
    # package would have it, so the first timed process is not the odd one.
    subprocess.run([sys.executable, "-m", "ttspectral.cli", "factorize",
                    "--dim", "6"], env=child_env(), cwd=ROOT,
                   capture_output=True, check=True)
    return cases, []


def apply_table(cases, rng, reps: int = 9) -> list[dict]:
    """Per apply case: the plan's FLOPs next to measured wall time.

    ``ratio`` is the median time of ``apply_map`` over the median time of
    ``decompress(p) @ x``; below 1 the planned contraction wins.
    """
    rows = []
    for case in cases:
        p, d_x = case.params, case.d_x
        x = case.prepare(rng)
        if isinstance(p, SvdpParams):
            diagram = planner.svdp_diagram(p.d_out, p.d_in, p.r, d_x)
        else:
            diagram = planner.sttp_diagram(p.out_fac.factors, p.in_fac.factors,
                                           p.schedule.ranks, d_x)
        row = {"case": case.label, "nodes": len(diagram.nodes),
               "naive_flops": planner.naive_flops(p, d_x)}
        try:
            row["total_flops"] = planner.plan(diagram).total_flops
            row["apply_ms"] = _median_ms(lambda: planner.apply_map(p, x), reps)
        except Exception as exc:  # over-cap cases: reported, not timed
            row["error"] = type(exc).__name__
        row["decompress_matmul_ms"] = _median_ms(
            lambda: planner.decompress(p) @ x, reps)
        if "apply_ms" in row:
            row["ratio"] = row["apply_ms"] / row["decompress_matmul_ms"]
        rows.append(row)
    return rows


def _median_ms(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3
