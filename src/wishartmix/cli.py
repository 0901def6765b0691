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
import math
import os
import sys
import warnings

import numpy as np

from . import design_io
from .closure import VERIFY_ALPHA, mixture_marginal_params, random_mixture_spec, verify_closure
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
from .manova import INTERACTIONS, RandomEffect, SimulationSpec, StatisticFunctional
from .mc import McConfig, null_calibration
from .rng import RngStream, _count
from .symmat import SpdMat

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_VERIFICATION = 3

_FUNCTIONAL_CHOICES = [f.value for f in StatisticFunctional]

# The --interaction option of manova and calibrate.
_INTERACTION = {
    "choices": list(INTERACTIONS),
    "default": "fixed",
    "help": "fixed or absent (every factor against E) or random (A and B against AB) interaction",
}

# The count and seed options of every subcommand, by ``args`` name, with
# their least values; :func:`main` checks those a command has before any work.
_COUNTS = {
    "a": 1, "b": 1, "dim": 1, "n_draws": 1, "specs": 1, "n": 1, "datasets": 1, "n_mc": 1, "n_per_cell": 1,
    "seed": 0, "mc_seed": 0, "subsample_seed": 0,
}


def _finite(value) -> bool:
    """Whether ``value`` is a finite JSON number: an int or a float, never a bool or a string."""
    return not isinstance(value, bool) and isinstance(value, (int, float)) and abs(value) <= sys.float_info.max


def _number(value, key: str) -> float:
    if not _finite(value):
        raise ValidationError(f"parameter {key!r} must be a finite number")
    return float(value)


def _leaves(value) -> list:
    """The non-list items of a nested JSON list, or ``[value]`` for anything else."""
    return [leaf for item in value for leaf in _leaves(item)] if isinstance(value, list) else [value]


def _matrix(value, key: str) -> np.ndarray:
    """``value`` as a float array; only finite JSON numbers and nested lists of them pass."""
    if not all(map(_finite, _leaves(value))):
        raise ValidationError(f"parameter {key!r} must be a finite number or nested lists of finite numbers")
    try:
        return np.array(value, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"parameter {key!r} is not a numeric array") from exc


_REQUIRED = object()

# Per ``sample --dist``: each key its parameter file may hold, as
# ``key: (parser, default)`` with ``_REQUIRED`` for no default, and the draw
# ``draw(params, rng, n)`` that takes the parsed keys as keyword arguments.
_SAMPLE_DISTS = {
    "matrix-normal": (
        {"rows": (_number, _REQUIRED), "mean": (_matrix, _REQUIRED), "scale": (_matrix, _REQUIRED)},
        lambda params, rng, n: sample_matrix_normal(MatrixNormalParams(**params), rng, n),
    ),
    "wishart": (
        {"dof": (_number, _REQUIRED), "scale": (_matrix, _REQUIRED), "noncen": (_matrix, None)},
        lambda params, rng, n: sample_wishart(WishartParams(**params), rng, n),
    ),
    "beta2": (
        {"dof1": (_number, _REQUIRED), "dof2": (_number, _REQUIRED), "dim": (_number, 1)},
        lambda params, rng, n: sample_beta2(BetaIIParams(**params), rng, n),
    ),
    "chisq": (
        {"dof": (_number, _REQUIRED), "noncen": (_number, 0.0)},
        lambda params, rng, n: sample_noncentral_chisq(**params, rng=rng, size=n),
    ),
}


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
    p.add_argument("--interaction", **_INTERACTION)
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
    p.add_argument("--dist", required=True, choices=list(_SAMPLE_DISTS))
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
    p.add_argument("--interaction", **_INTERACTION)
    p.add_argument("--ab-cov", type=float, default=0.0, help="random interaction covariance c I, c >= 0 (default 0: none)")
    return parser


def _check_json_target(path) -> None:
    """Fail now, before any work, if a report could not be written to ``path`` (``None``: no report).

    The file is opened for appending, so an existing file is left as it is,
    and a file the probe created is removed: nothing is written until the
    command completes.
    """
    if path is None:
        return
    existed = os.path.exists(path)
    try:
        with open(path, "a", encoding="utf-8"):
            pass
    except OSError as exc:
        raise ValidationError(f"cannot write the report to {path}: {exc.strerror or exc}") from exc
    if not existed:
        os.remove(path)


def _write_json(obj, path) -> None:
    """Write ``obj`` to ``path`` as two-space indented JSON and a final newline."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(obj, handle, indent=2)
        handle.write("\n")


def _cmd_manova(args) -> int:
    _check_json_target(args.json_path)
    sigma = design_io.read_matrix_file(args.sigma) if args.sigma else None
    responses = [c.strip() for c in args.responses.split(",") if c.strip()]
    data = design_io.load_design_csv(args.input, responses)
    table = design_io.subsample_balanced(data, args.n_per_cell, args.subsample_seed)
    cfg = McConfig(n_mc=args.n_mc, seed=args.mc_seed, functional=StatisticFunctional(args.functional))
    report = design_io.run_report(table, cfg, sigma, args.interaction)
    print(design_io.report_to_text(report, data.response_names))
    if args.json_path:
        _write_json(design_io.report_to_dict(report), args.json_path)
    return EXIT_OK


def _params(obj, matrices: tuple[str, ...]) -> dict:
    """``obj.dof`` and the named matrix fields of ``obj``, as JSON values."""
    return {"dof": obj.dof, **{name: getattr(obj, name).array.tolist() for name in matrices}}


def _cmd_verify(args) -> int:
    # Hierarchical sampling needs an integer dof of at least the dimension.
    if args.dof < args.dim:
        raise ValidationError(f"--dof must be at least --dim = {args.dim}, got {args.dof}")
    _check_json_target(args.json_path)
    failures = 0
    entries = []
    for k in range(args.specs):
        spec = random_mixture_spec(args.dim, args.dof, RngStream(args.seed, 1 + k), central=args.central)
        stream = RngStream(args.seed, 1000 + k)
        report = verify_closure(spec, args.n_draws, stream)
        entries.append({
            "spec": _params(spec, ("inner_scale", "mixing_scale", "coupling", "mixing_noncen")),
            "predicted": _params(mixture_marginal_params(spec), ("scale", "noncen")),
            "stream": {"seed": stream.seed, "stream_index": stream.stream_index},
            **report.to_dict(),
        })
        print(f"spec {k + 1:2d}/{args.specs}: {report.summary()}")
        failures += not report.passed
    if args.json_path:
        _write_json(entries, args.json_path)
    print(
        f"{args.specs - failures}/{args.specs} specs passed "
        f"(a spec passes when no error exceeds its bound; family level {VERIFY_ALPHA:g} per spec)"
    )
    return EXIT_OK if failures == 0 else EXIT_VERIFICATION


def _load_params(path, dist: str) -> dict:
    """``dist``'s draw arguments from the JSON object in ``path``; an absent or ``null`` key takes its default."""
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read parameter file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: parameter file must hold a JSON object")
    keys = _SAMPLE_DISTS[dist][0]
    unknown = [key for key in obj if key not in keys]
    if unknown:
        raise ValidationError(
            f"{path}: unknown parameter {', '.join(map(repr, unknown))} for --dist {dist}; "
            f"accepted: {', '.join(keys)}"
        )
    params = {}
    for key, (parse, default) in keys.items():
        value = obj.get(key)
        if value is None and default is _REQUIRED:
            raise ValidationError(f"{path}: missing parameter {key!r} for --dist {dist}")
        params[key] = default if value is None else parse(value, key)
    return params


def _csv_header(shape: tuple[int, ...]) -> str:
    """``value`` for scalar draws, else ``x<row>_<col>`` for each entry of a matrix draw."""
    if not shape:
        return "value"
    return ",".join(f"x{r + 1}_{c + 1}" for r in range(shape[0]) for c in range(shape[1]))


def _cmd_sample(args) -> int:
    params = _load_params(args.params, args.dist)
    draws = _SAMPLE_DISTS[args.dist][1](params, RngStream(args.seed), args.n)
    if not np.all(np.isfinite(draws)):
        raise ValidationError(f"--dist {args.dist} draws overflow float64: the parameters are too large")
    sys.stdout.write(_csv_header(draws.shape[1:]) + "\n")
    for row in draws.reshape(args.n, -1):
        sys.stdout.write(",".join(repr(float(v)) for v in row) + "\n")
    return EXIT_OK


def _cmd_calibrate(args) -> int:
    if not (math.isfinite(args.ab_cov) and args.ab_cov >= 0.0):
        raise ValidationError(f"--ab-cov must be finite and at least 0, got {args.ab_cov}")
    effect_ab = RandomEffect(SpdMat(args.ab_cov * np.eye(args.dim))) if args.ab_cov > 0.0 else None
    spec = SimulationSpec(args.a, args.b, args.n, args.dim, SpdMat(np.eye(args.dim)), effect_ab=effect_ab)
    cfg = McConfig(n_mc=args.n_mc, seed=args.seed, functional=StatisticFunctional(args.functional))
    summary = null_calibration(spec, args.datasets, cfg, RngStream(args.seed), args.interaction)
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
    # A warning prints as one ``warning: ...`` line, without a source location.
    formatwarning = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"warning: {message}\n"
    try:
        for name, least in _COUNTS.items():
            if hasattr(args, name):
                _count(getattr(args, name), f"--{name.replace('_', '-')}", least)
        return handlers[args.command](args)
    except (ValidationError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        warnings.formatwarning = formatwarning


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
