"""Command-line surface: one subcommand per library capability.

Exit codes: 0 success, 2 invalid flags or domain violations (including
dims whose arrays fail to allocate), 3 malformed files, 4 numeric failures
(divergence, failed gradient checks).  Every randomized command requires an
explicit ``--seed``; outputs are reproducible bit for bit from identical
flags.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import fileio
from .autodiff import FrobeniusLoss, gradcheck
from .errors import (
    DivergenceError,
    DomainError,
    FileFormatError,
    NumericError,
    TtspectralError,
)
from .fit import FitConfig, demo_train, fit_matrix
from .householder import INIT_SCHEMES
from .planner import (
    apply_map,
    decompress,
    naive_flops,
    plan,
    sttp_diagram,
    svdp_diagram,
)
from .schemes import SCHEMES
from .spectral import (
    LayerBudget,
    NetworkSummary,
    compression_ratio,
    materialize_sigma,
    stable_rank_from_spectrum,
)
from .spectrum_modes import SPECTRUM_MODES
from .sttp import factorize


def cmd_dof(args) -> int:
    dof = SCHEMES[args.scheme].structure(args.dout, args.din, args.rank,
                                         args.spectrum).dof
    numel = args.dout * args.din
    net = NetworkSummary((LayerBudget(args.dout, args.din, dof),))
    print(f"dof={dof}")
    print(f"numel={numel}")
    print(f"compression={compression_ratio(net):.4f}")
    return 0


def cmd_factorize(args) -> int:
    print(" ".join(str(f) for f in factorize(args.dim).factors))
    return 0


def cmd_plan(args) -> int:
    if args.dx < 1:
        raise DomainError(f"--dx must be a positive column count, got {args.dx}")
    structure = SCHEMES[args.scheme].structure(args.dout, args.din, args.rank,
                                               args.spectrum)
    if args.scheme == "svdp":  # the one-core chain, with its own node names
        diagram = svdp_diagram(args.dout, args.din, args.rank, args.dx)
    else:
        diagram = sttp_diagram(structure.out_factors, structure.in_factors,
                               structure.schedule.ranks, args.dx)
    cplan = plan(diagram)
    for i, step in enumerate(cplan.steps):
        kind = "scale" if step.scaling else "contract"
        left = "+".join(diagram.nodes[j].name or str(j) for j in step.left)
        right = "+".join(diagram.nodes[j].name or str(j) for j in step.right)
        print(f"step {i + 1}: {kind} [{left}] x [{right}] -> "
              f"dims={step.result_dims} flops={step.flops}")
    print(f"total_flops={cplan.total_flops}")
    print(f"peak_intermediate={cplan.peak_intermediate}")
    if args.naive:
        print(f"naive_flops={naive_flops(structure, args.dx)}")
    return 0


def cmd_build(args) -> int:
    params = _load_or_init(args)
    if args.params_out:
        fileio.write_params(args.params_out, params)
    fileio.write_matrix(args.out, decompress(params))
    return 0


def _load_or_init(args):
    if getattr(args, "params", None):
        return fileio.read_params(args.params)
    for flag in ("scheme", "dout", "din", "rank"):
        if getattr(args, flag, None) is None:
            raise DomainError(
                "either --params or all of --scheme/--dout/--din/--rank needed"
            )
    if args.seed is None:
        raise DomainError("building fresh parameters requires --seed")
    return SCHEMES[args.scheme].init(args.dout, args.din, args.rank,
                                     args.spectrum, args.seed, args.init,
                                     lam=args.reg_lambda)


def cmd_apply(args) -> int:
    params = fileio.read_params(args.params)
    x = fileio.read_matrix(args.infile)
    fileio.write_matrix(args.out, apply_map(params, x))
    return 0


def cmd_gradcheck(args) -> int:
    params = SCHEMES[args.scheme].random(args.dout, args.din, args.rank,
                                         args.spectrum, args.seed,
                                         args.reg_lambda)
    rng = np.random.default_rng(args.seed + 1)
    target = rng.standard_normal((args.dout, args.din))
    report = gradcheck(params, FrobeniusLoss(target, args.reg_lambda))
    print(f"max_rel_err={report.max_rel_err:.3e}")
    print(f"dof={report.n_params}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 4


def cmd_fit(args) -> int:
    target = fileio.read_matrix(args.target)
    cfg = FitConfig(args.scheme, args.rank, args.spectrum, args.reg_lambda,
                    args.lr, args.momentum, args.steps, args.tol, args.seed,
                    args.init)
    result = fit_matrix(target, cfg)
    if args.params_out:
        fileio.write_params(args.params_out, result.params)
    lines = [f"{i},{loss!r}" for i, loss in enumerate(result.trace)]
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    print(f"best_step={result.best_step}", file=sys.stderr)
    print(f"best_loss={result.best_loss!r}", file=sys.stderr)
    return 0


def cmd_demo_train(args) -> int:
    cfg = FitConfig(args.scheme, args.rank, args.spectrum, args.reg_lambda,
                    args.lr, max_steps=args.steps, seed=args.seed)
    report = demo_train(cfg, args.seed, steps=args.steps)
    stride = max(1, args.steps // 20)
    print("step,loss,lipschitz_bound,max_sigma_1,max_sigma_2,"
          "stable_rank_1,stable_rank_2")
    for i in range(0, len(report.losses), stride):
        s1, s2 = report.sigma_max[i]
        r1, r2 = report.stable_ranks[i]
        print(f"{i},{report.losses[i]:.6e},{report.bounds[i]:.12f},"
              f"{s1:.12f},{s2:.12f},{r1:.6f},{r2:.6f}")
    worst = max(max(pair) for pair in report.sigma_max)
    print(f"final_loss={report.final_loss!r}")
    print(f"max_sigma_over_run={worst!r}")
    print(f"max_bound_over_run={max(report.bounds)!r}")
    return 0


def cmd_inspect(args) -> int:
    params = fileio.read_params(args.params)
    sigma = materialize_sigma(params.spectrum)
    scheme = params.scheme
    dof = params.n_params
    net = NetworkSummary((LayerBudget(params.d_out, params.d_in, dof),))
    sigma_max = float(np.max(np.abs(sigma)))
    print(f"scheme={scheme}")
    print("sigma=" + ",".join(repr(float(v)) for v in sigma))
    print(f"sigma_max={sigma_max!r}")
    print(f"stable_rank={stable_rank_from_spectrum(sigma)!r}")
    print(f"lipschitz_bound={sigma_max!r}")
    print(f"dof={dof}")
    print(f"numel={params.d_out * params.d_in}")
    print(f"compression={compression_ratio(net):.4f}")
    return 0


def _add_shape_flags(p, require: bool = True):
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=require)
    p.add_argument("--dout", type=int, required=require)
    p.add_argument("--din", type=int, required=require)
    p.add_argument("--rank", type=int, required=require)


def _add_spectrum_flags(p):
    p.add_argument("--spectrum", choices=SPECTRUM_MODES, default="learned")
    p.add_argument("--lambda", dest="reg_lambda", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ttspectral",
        description="Low-rank spectral weight-matrix parameterizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dof", help="parameter counts for a single layer")
    _add_shape_flags(p)
    _add_spectrum_flags(p)
    p.set_defaults(func=cmd_dof)

    p = sub.add_parser("factorize", help="ascending prime factors")
    p.add_argument("--dim", type=int, required=True)
    p.set_defaults(func=cmd_factorize)

    p = sub.add_parser("plan", help="optimal contraction plan for y = W x")
    _add_shape_flags(p)
    _add_spectrum_flags(p)
    p.add_argument("--dx", type=int, default=1)
    p.add_argument("--naive", action="store_true",
                   help="also print the decompress-first cost")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("build", help="materialize W to a matrix file")
    _add_shape_flags(p, require=False)
    _add_spectrum_flags(p)
    p.add_argument("--params", help="existing parameter file to decompress")
    p.add_argument("--seed", type=int)
    p.add_argument("--init", choices=INIT_SCHEMES, default="noisy_identity")
    p.add_argument("--params-out", help="also store the generated parameters")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("apply", help="apply y = W x via the planned diagram")
    p.add_argument("--params", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("gradcheck", help="analytic vs finite-difference grads")
    _add_shape_flags(p)
    _add_spectrum_flags(p)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("fit", help="fit parameters to a target matrix")
    p.add_argument("--target", required=True)
    p.add_argument("--scheme", choices=tuple(SCHEMES), required=True)
    p.add_argument("--rank", type=int, required=True)
    _add_spectrum_flags(p)
    p.add_argument("--lr", type=float)
    p.add_argument("--momentum", type=float, default=0.9)
    p.add_argument("--steps", type=int, default=5000)
    p.add_argument("--tol", type=float, default=1e-14)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--init", choices=INIT_SCHEMES, default="noisy_identity")
    p.add_argument("--params-out")
    p.add_argument("--out", help="loss trace file (stdout when omitted)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("demo-train",
                       help="two-layer constrained training demo")
    p.add_argument("--scheme", choices=tuple(SCHEMES), default="svdp")
    p.add_argument("--rank", type=int, default=3)
    _add_spectrum_flags(p)
    p.add_argument("--lr", type=float)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_demo_train)

    p = sub.add_parser("inspect", help="summarize a parameter file")
    p.add_argument("--params", required=True)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DivergenceError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DomainError, TtspectralError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
