"""Command-line surface.

Four subcommands:

* ``manova``    — CSV in, balanced subsample, three-factor test battery out.
* ``verify``    — Monte Carlo verification of the mixture closure on
  randomized specifications; exits nonzero when any spec fails.
* ``sample``    — draw from one of the implemented distributions, CSV out.
* ``calibrate`` — null-calibration self-check of the p-value engine.

Exit codes: 0 success, 2 validation error, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import design_io
from .closure import KS_STAT_MAX, MEAN_REL_ERR_MAX, MGF_REL_ERR_MAX, random_mixture_spec, verify_closure
from .distributions import (
    BetaIIParams,
    MatrixNormalParams,
    WishartParams,
    sample_beta2,
    sample_matrix_normal,
    sample_noncentral_chisq,
    sample_wishart,
)
from .errors import ValidationError
from .manova import SimulationSpec, StatisticFunctional
from .mc import McConfig, null_calibration
from .rng import RngStream
from .symmat import SpdMat

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3

_FUNCTIONAL_CHOICES = [f.value for f in StatisticFunctional]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="wishartmix", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("manova", help="run the factor test battery on a long-format CSV")
    p.add_argument("--input", required=True, help="long-format CSV with factor_a, factor_b, responses")
    p.add_argument("--responses", required=True, help="comma-separated response column names")
    p.add_argument("--n-per-cell", required=True, type=int, help="balanced subsample size per cell")
    p.add_argument("--subsample-seed", type=int, default=0)
    p.add_argument("--n-mc", type=int, default=10_000)
    p.add_argument("--mc-seed", type=int, default=0)
    p.add_argument("--functional", choices=_FUNCTIONAL_CHOICES, default=StatisticFunctional.HOTELLING_LAWLEY.value)
    p.add_argument("--sigma", help="optional scale matrix file (results are invariant to it)")
    p.add_argument("--json", dest="json_path", help="also write the structured report here")

    p = sub.add_parser("verify", help="closure verification battery on randomized specs")
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--dof", required=True, type=int)
    p.add_argument("--n-draws", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--central", action="store_true", help="use a central mixing law")
    p.add_argument("--specs", type=int, default=10, help="number of randomized specs")
    p.add_argument("--json", dest="json_path", help="also write the verification reports here")

    p = sub.add_parser("sample", help="emit draws from one distribution as CSV")
    p.add_argument("--dist", required=True, choices=["matrix-normal", "wishart", "beta2", "chisq"])
    p.add_argument("--params", required=True, help="JSON parameter file, see README")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)

    p = sub.add_parser("calibrate", help="null-calibration self-check of the p-value engine")
    p.add_argument("--a", required=True, type=int)
    p.add_argument("--b", required=True, type=int)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--dim", required=True, type=int)
    p.add_argument("--datasets", required=True, type=int)
    p.add_argument("--n-mc", type=int, default=2000)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--functional", choices=_FUNCTIONAL_CHOICES, default=StatisticFunctional.HOTELLING_LAWLEY.value)
    return parser


def _cmd_manova(args) -> int:
    responses = [c.strip() for c in args.responses.split(",") if c.strip()]
    data = design_io.load_design_csv(args.input, responses)
    table = design_io.subsample_balanced(data, args.n_per_cell, args.subsample_seed)
    sigma = None
    if args.sigma:
        sigma = SpdMat(design_io.read_matrix_file(args.sigma), "sigma")
    cfg = McConfig(n_mc=args.n_mc, seed=args.mc_seed, functional=StatisticFunctional(args.functional))
    report = design_io.run_report(table, cfg, sigma)
    print(design_io.report_to_text(report, data.response_names))
    if args.json_path:
        design_io.write_report_json(report, args.json_path)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.specs < 1:
        raise ValidationError("--specs must be positive")
    failures = 0
    reports = []
    for k in range(args.specs):
        spec_rng = RngStream(args.seed, 1 + k)
        spec = random_mixture_spec(args.dim, args.dof, spec_rng, central=args.central)
        report = verify_closure(spec, args.n_draws, RngStream(args.seed, 1000 + k))
        reports.append(report)
        status = "PASS" if report.passed else "FAIL"
        print(
            f"spec {k + 1:2d}/{args.specs}: {status}  mean {report.mean_rel_err:.5f}  "
            f"mgf_max {max(report.mgf_rel_errs):.5f}  ks_max {max(report.ks_stats):.5f}"
        )
        failures += not report.passed
    if args.json_path:
        with open(args.json_path, "w", encoding="utf-8") as handle:
            json.dump([r.to_dict() for r in reports], handle, indent=2)
            handle.write("\n")
    print(
        f"{args.specs - failures}/{args.specs} specs passed at thresholds "
        f"(mean {MEAN_REL_ERR_MAX:g}, mgf {MGF_REL_ERR_MAX:g}, ks {KS_STAT_MAX:g})"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def _matrix_from_json(obj, name: str) -> np.ndarray:
    try:
        return np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"parameter {name!r} is not a numeric array") from exc


def _require_number(params: dict, key: str, default=None) -> float:
    value = params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"parameter {key!r} must be a number")
    return float(value)


def _load_params(path) -> dict:
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read parameter file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: parameter file must hold a JSON object")
    return obj


def _cmd_sample(args) -> int:
    params = _load_params(args.params)
    rng = RngStream(args.seed)
    n = int(args.n)
    if n < 1:
        raise ValidationError("--n must be positive")
    writer = sys.stdout

    def emit(draws: np.ndarray, names: list[str]) -> None:
        writer.write(",".join(names) + "\n")
        flat = draws.reshape(n, -1)
        for row in flat:
            writer.write(",".join(repr(float(v)) for v in row) + "\n")

    if args.dist == "chisq":
        draws = sample_noncentral_chisq(
            _require_number(params, "dof"), _require_number(params, "noncen", 0.0), rng, size=n
        )
        emit(np.asarray(draws)[:, None], ["value"])
        return EXIT_OK
    if args.dist == "matrix-normal":
        mn = MatrixNormalParams(
            rows=_require_number(params, "rows"),
            mean=_matrix_from_json(params.get("mean"), "mean"),
            scale=_matrix_from_json(params.get("scale"), "scale"),
        )
        draws = sample_matrix_normal(mn, rng, size=n)
        names = [f"x{r + 1}_{c + 1}" for r in range(mn.rows) for c in range(mn.dim)]
        emit(draws, names)
        return EXIT_OK
    if args.dist == "wishart":
        wp = WishartParams(
            dof=_require_number(params, "dof"),
            scale=_matrix_from_json(params.get("scale"), "scale"),
            noncen=_matrix_from_json(params["noncen"], "noncen") if params.get("noncen") is not None else None,
        )
        draws = sample_wishart(wp, rng, size=n)
        names = [f"x{r + 1}_{c + 1}" for r in range(wp.dim) for c in range(wp.dim)]
        emit(draws, names)
        return EXIT_OK
    bp = BetaIIParams(
        dof1=_require_number(params, "dof1"),
        dof2=_require_number(params, "dof2"),
        dim=_require_number(params, "dim", 1),
    )
    draws = sample_beta2(bp, rng, size=n)
    names = [f"x{r + 1}_{c + 1}" for r in range(bp.dim) for c in range(bp.dim)]
    emit(draws, names)
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    spec = SimulationSpec(args.a, args.b, args.n, args.dim, SpdMat(np.eye(args.dim)))
    cfg = McConfig(n_mc=args.n_mc, seed=args.seed, functional=StatisticFunctional(args.functional))
    summary = null_calibration(spec, args.datasets, cfg, RngStream(args.seed))
    print(summary.to_text())
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "manova": _cmd_manova,
        "verify": _cmd_verify,
        "sample": _cmd_sample,
        "calibrate": _cmd_calibrate,
    }
    try:
        return handlers[args.command](args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
