"""Write the outputs of a fixed set of command-line runs, to compare two checkouts byte for byte.

Each run calls ``wishartmix.cli.main`` in-process on inputs that this script
writes from fixed seeds with numpy alone, and saves what the run produced in
OUTDIR: ``<run>.stdout``, ``<run>.stderr``, ``<run>.exit`` and, for a run
that writes a report, ``<run>.json``.  The inputs are kept in
``OUTDIR/inputs``.  Two checkouts give the same outputs when

    PYTHONPATH=<old>/src python tools/cli_outputs.py a
    PYTHONPATH=<new>/src python tools/cli_outputs.py b
    diff -r a b

prints nothing.  A run whose options a checkout does not know saves the
usage error and its exit code 2, so an older checkout still writes every
file.  The runs cover every subcommand: ``manova`` at d = 1, 2
and 3 with each functional, at d = 1 and 2 with ``--interaction random``
(A and B tested against AB), once with ``--sigma`` at a cap of 70,000 null
draws, once at a cap of 200,000, where factor A's strong effect keeps its
count short of 40 extreme draws, so it draws all 200,000 in doubling
batches that reach the 65,536-draw batch cap (the null factors stop early), once on a
square design (A and B share one null set), once on responses near 1e200,
whose SOPs overflow (exit 2), once on replicates identical within each cell
(``E`` is zero up to rounding, exit 2), once with ``--interaction random``
on responses centred within each cell (``AB`` is, exit 2), and twice
on a CSV of 1,020 records that spans several ingest blocks, with quoted
labels, blank lines, CRLF line endings and short rows: once clean and once
with an unparseable value in record 651 (exit 2), and once at d = 1 on 2 x 300
levels with 2 rows kept per cell (``manova-wide-levels``: level codes past
one byte, labels quoted and padded, response fields padded with U+001C,
U+00A0 and tabs);
``verify`` central, noncentral, below the draw floor, at d = 1 (one-row
factors) and at d = 3 with 90 degrees of freedom (each verification chunk
drawn in two batches); ``calibrate`` at d = 1, 2 and 3 with
Hotelling-Lawley, at d = 2 with Wilks (lower tail), Pillai and Roy (each a
closed form of its own in the d = 2 null), at d = 1 on 300 datasets, which
cross the 256-dataset chunk that is counted together, and at a cap of
70,000 null draws per dataset, though these null counts stop at their 40th
extreme draw, and at d = 2 with ``--interaction random --ab-cov 1`` (a
random interaction, Sigma_AB = I); ``sample``
for each distribution, with central, fractional-dof and noncentral Wishart
parameters, Beta II draws at d = 1, 2 and 3 (a scalar, a 2 x 2 and a 3 x 3
whitening), a one-row matrix normal, a chi-square whose noncentrality
takes its default of 0 and a Wishart whose scale near 1e308 overflows the
draws (exit 2).  Every run allows at least 1,000 null draws per
p-value, so none warns.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from wishartmix import StatisticFunctional, cli

# Design size per response dimension: 5 x 4 levels, 5 rows per cell, so the
# d = 3 tests keep more than d - 1 degrees of freedom for every factor.
LEVELS_A, LEVELS_B, ROWS_PER_CELL = 5, 4, 5

SAMPLE_PARAMS = {
    "matrix-normal": ("matrix-normal", {"rows": 3, "mean": [[0, 0], [1, 1], [2, 2]], "scale": [[1, 0], [0, 1]]}),
    "matrix-normal-one-row": ("matrix-normal", {"rows": 1, "mean": [[1, 2]], "scale": [[2, 1], [1, 3]]}),
    "wishart-central": ("wishart", {"dof": 5, "scale": [[2, 1], [1, 3]]}),
    "wishart-fractional": ("wishart", {"dof": 2.5, "scale": [[2, 1], [1, 3]]}),
    "wishart-noncentral": ("wishart", {"dof": 5, "scale": [[2, 1], [1, 3]], "noncen": [[1, 0.5], [0.5, 2]]}),
    "beta2": ("beta2", {"dof1": 4, "dof2": 12, "dim": 2}),
    "beta2-d1": ("beta2", {"dof1": 4.5, "dof2": 12, "dim": 1}),
    "beta2-d3": ("beta2", {"dof1": 5, "dof2": 14, "dim": 3}),
    "chisq": ("chisq", {"dof": 3, "noncen": 1.5}),
    "chisq-central": ("chisq", {"dof": 2.5}),
    "wishart-overflow": ("wishart", {"dof": 3, "scale": [[1e308, 0], [0, 1e308]]}),
}


def write_design_csv(path: Path, dim: int, seed: int, levels_a: int = LEVELS_A) -> None:
    """A long-format design with an A main effect and unit-variance noise, responses ``y1..yd``."""
    gen = np.random.default_rng(seed)
    effect_a = gen.standard_normal((levels_a, dim))
    lines = ["factor_a,factor_b," + ",".join(f"y{k + 1}" for k in range(dim))]
    for i in range(levels_a):
        for j in range(LEVELS_B):
            for _ in range(ROWS_PER_CELL):
                y = effect_a[i] + gen.standard_normal(dim)
                lines.append(f"a{i},b{j}," + ",".join(repr(float(v)) for v in y))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_overflow_csv(path: Path) -> None:
    """A 3 x 3 design with 3 rows per cell of responses near 1e200, response ``y1``."""
    gen = np.random.default_rng(8)
    rows = [f"a{i},b{j},{1e200 * gen.standard_normal()!r}" for i in range(3) for j in range(3) for _ in range(3)]
    path.write_text("factor_a,factor_b,y1\n" + "\n".join(rows) + "\n", encoding="utf-8")


def write_degenerate_csv(path: Path, centred: bool) -> None:
    """A 5 x 4 design with 5 rows per cell, responses ``y1,y2``, identical within each cell or, ``centred``, averaging to 0 in each."""
    gen = np.random.default_rng(10)
    lines = ["factor_a,factor_b,y1,y2"]
    for i in range(LEVELS_A):
        for j in range(LEVELS_B):
            y = gen.standard_normal((ROWS_PER_CELL, 2))
            y = y - y.mean(axis=0) if centred else np.broadcast_to(y[0], y.shape)
            lines += [f"a{i},b{j}," + ",".join(repr(float(v)) for v in row) for row in y]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_messy_csv(path: Path, bad_record: int | None = None) -> None:
    """A 3 x 4 design of 1,020 records, responses ``y1,y2``, in the forms spreadsheets export.

    Labels are quoted (they hold a comma, a doubled quote, a line break and
    padding), every 97th record follows a blank line, lines end in CRLF, and
    every 5th record is cut short after ``y2``, dropping the unneeded
    ``note`` column.  With ``bad_record`` set, that record's ``y2`` reads
    ``1.0.0``.
    """
    gen = np.random.default_rng(9)
    labels_a = ['"north, upper"', '"south"', '"west ""annex"""']
    labels_b = ['"x"', '" y "', "z", '"w\r\n2"']
    lines = ["factor_a,factor_b,y1,y2,note"]
    for k in range(1020):
        y1, y2 = gen.standard_normal(2) + [k % 3, 0.0]
        y2_text = "1.0.0" if k == bad_record else repr(float(y2))
        if k % 97 == 0:
            lines.append("")
        record = f"{labels_a[k % 3]},{labels_b[k % 4]},{float(y1)!r},{y2_text}"
        lines.append(record if k % 5 == 0 else record + ",ok")
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))


def write_wide_csv(path: Path) -> None:
    """A 2 x 300 design with 3 rows per cell, response ``y1``, in file order of a random permutation.

    Every 4th ``factor_b`` label is quoted and padded and every 3rd
    ``factor_a`` label padded; response fields carry padding that
    ``str.strip`` removes: U+001C (which ``float`` does not skip), U+00A0
    or tabs, on one side or both.
    """
    gen = np.random.default_rng(12)
    cells = [(i, j) for i in range(2) for j in range(300) for _ in range(3)]
    pads = ["", "\x1c", "\xa0", "\t", "\t\t"]
    lines = ["factor_a,factor_b,y1"]
    for k, order in enumerate(gen.permutation(len(cells))):
        i, j = cells[order]
        y = f"{pads[k % 5]}{float(gen.standard_normal() + 0.5 * i)!r}{pads[k % 3]}"
        label_a = f" a{i}" if k % 3 == 0 else f"a{i}"
        label_b = f'" b{j:03d} "' if k % 4 == 0 else f"b{j:03d}"
        lines.append(f"{label_a},{label_b},{y}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_inputs() -> None:
    """The design CSVs (one overflowing, two with a zero denominator SOP), the ``--sigma`` matrix file and the ``sample`` parameter files, under ``inputs/``."""
    Path("inputs").mkdir(exist_ok=True)
    for dim in (1, 2, 3):
        write_design_csv(Path(f"inputs/design_d{dim}.csv"), dim, seed=dim)
    write_design_csv(Path("inputs/design_square_d2.csv"), 2, seed=7, levels_a=LEVELS_B)
    write_overflow_csv(Path("inputs/overflow_d1.csv"))
    write_degenerate_csv(Path("inputs/identical_d2.csv"), centred=False)
    write_degenerate_csv(Path("inputs/centred_d2.csv"), centred=True)
    write_messy_csv(Path("inputs/messy_d2.csv"))
    write_messy_csv(Path("inputs/messy_bad_d2.csv"), bad_record=650)
    write_wide_csv(Path("inputs/wide_d1.csv"))
    Path("inputs/sigma_d2.txt").write_text("2\n2.0 0.5\n0.5 1.0\n", encoding="utf-8")
    for name, (_, params) in SAMPLE_PARAMS.items():
        Path(f"inputs/{name}.json").write_text(json.dumps(params) + "\n", encoding="utf-8")


def runs() -> list[tuple[str, list[str]]]:
    """``(name, argv)`` of every run; an argv naming ``<name>.json`` writes that report."""
    out = []
    for dim in (1, 2, 3):
        responses = ",".join(f"y{k + 1}" for k in range(dim))
        for functional in StatisticFunctional:
            name = f"manova-d{dim}-{functional.value}"
            out.append((name, [
                "manova", "--input", f"inputs/design_d{dim}.csv", "--responses", responses, "--n-per-cell", "3",
                "--subsample-seed", "1", "--n-mc", "2000", "--mc-seed", "2", "--functional", functional.value,
                "--json", f"{name}.json",
            ]))
    for dim in (1, 2):
        name = f"manova-d{dim}-random-interaction"
        out.append((name, [
            "manova", "--input", f"inputs/design_d{dim}.csv", "--responses", ",".join(f"y{k + 1}" for k in range(dim)),
            "--n-per-cell", "3", "--subsample-seed", "1", "--n-mc", "2000", "--mc-seed", "2", "--interaction", "random",
            "--json", f"{name}.json",
        ]))
    out.append(("manova-d2-sigma-chunked", [
        "manova", "--input", "inputs/design_d2.csv", "--responses", "y1,y2", "--n-per-cell", "4",
        "--n-mc", "70000", "--mc-seed", "3", "--sigma", "inputs/sigma_d2.txt", "--json", "manova-d2-sigma-chunked.json",
    ]))
    out.append(("manova-d2-past-cap", [
        "manova", "--input", "inputs/design_d2.csv", "--responses", "y1,y2", "--n-per-cell", "4",
        "--n-mc", "200000", "--mc-seed", "3", "--json", "manova-d2-past-cap.json",
    ]))
    out.append(("manova-d2-square", [
        "manova", "--input", "inputs/design_square_d2.csv", "--responses", "y1,y2", "--n-per-cell", "3",
        "--subsample-seed", "1", "--n-mc", "2000", "--mc-seed", "2", "--json", "manova-d2-square.json",
    ]))
    out.append(("manova-messy", [
        "manova", "--input", "inputs/messy_d2.csv", "--responses", "y1,y2", "--n-per-cell", "4",
        "--subsample-seed", "1", "--n-mc", "2000", "--mc-seed", "2", "--json", "manova-messy.json",
    ]))
    out.append(("manova-wide-levels", [
        "manova", "--input", "inputs/wide_d1.csv", "--responses", "y1", "--n-per-cell", "2",
        "--subsample-seed", "1", "--n-mc", "2000", "--mc-seed", "2", "--json", "manova-wide-levels.json",
    ]))
    out.append(("manova-messy-bad", ["manova", "--input", "inputs/messy_bad_d2.csv", "--responses", "y1,y2", "--n-per-cell", "4"]))
    out.append(("manova-overflow", ["manova", "--input", "inputs/overflow_d1.csv", "--responses", "y1", "--n-per-cell", "3"]))
    out.append(("manova-identical-replicates", [
        "manova", "--input", "inputs/identical_d2.csv", "--responses", "y1,y2", "--n-per-cell", "3",
    ]))
    out.append(("manova-random-cell-centred", [
        "manova", "--input", "inputs/centred_d2.csv", "--responses", "y1,y2", "--n-per-cell", "5", "--interaction", "random",
    ]))
    verify = [
        ("verify-central", ["--dim", "3", "--dof", "5", "--n-draws", "20000", "--central", "--specs", "2"]),
        ("verify-noncentral", ["--dim", "2", "--dof", "4", "--n-draws", "20000", "--specs", "2"]),
        ("verify-below-floor", ["--dim", "2", "--dof", "3", "--n-draws", "5000", "--specs", "2"]),
        ("verify-d1", ["--dim", "1", "--dof", "1", "--n-draws", "20000", "--specs", "2"]),
        ("verify-two-batches", ["--dim", "3", "--dof", "90", "--n-draws", "10000", "--specs", "1"]),
    ]
    for name, args in verify:
        out.append((name, ["verify", *args, "--seed", "4", "--json", f"{name}.json"]))
    for dim in (1, 2, 3):
        out.append((f"calibrate-d{dim}", [
            "calibrate", "--a", str(LEVELS_A), "--b", str(LEVELS_B), "--n", "3", "--dim", str(dim),
            "--datasets", "40", "--n-mc", "1000", "--seed", "5",
        ]))
    for functional in (StatisticFunctional.WILKS, StatisticFunctional.PILLAI, StatisticFunctional.ROY):
        out.append((f"calibrate-d2-{functional.value}", [
            "calibrate", "--a", str(LEVELS_A), "--b", str(LEVELS_B), "--n", "3", "--dim", "2",
            "--datasets", "40", "--n-mc", "1000", "--seed", "5", "--functional", functional.value,
        ]))
    out.append(("calibrate-d1-past-dataset-chunk", [
        "calibrate", "--a", str(LEVELS_A), "--b", str(LEVELS_B), "--n", "3", "--dim", "1",
        "--datasets", "300", "--n-mc", "1000", "--seed", "5",
    ]))
    out.append(("calibrate-d2-chunk-sized", [
        "calibrate", "--a", str(LEVELS_A), "--b", str(LEVELS_B), "--n", "3", "--dim", "2",
        "--datasets", "3", "--n-mc", "70000", "--seed", "5",
    ]))
    out.append(("calibrate-d2-random-interaction", [
        "calibrate", "--a", str(LEVELS_A), "--b", str(LEVELS_B), "--n", "3", "--dim", "2",
        "--datasets", "40", "--n-mc", "1000", "--seed", "5", "--interaction", "random", "--ab-cov", "1",
    ]))
    for name, (dist, _) in SAMPLE_PARAMS.items():
        out.append((f"sample-{name}", ["sample", "--dist", dist, "--params", f"inputs/{name}.json", "--n", "50", "--seed", "6"]))
    return out


def run(name: str, argv: list[str]) -> None:
    """Call the command line on ``argv`` and save its stdout, stderr and exit code under ``name``."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # a usage error, such as an option that an older checkout lacks
            code = exc.code
    Path(f"{name}.stdout").write_text(stdout.getvalue(), encoding="utf-8")
    Path(f"{name}.stderr").write_text(stderr.getvalue(), encoding="utf-8")
    Path(f"{name}.exit").write_text(f"{code}\n", encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tools/cli_outputs.py OUTDIR", file=sys.stderr)
        return 2
    outdir = Path(argv[0])
    outdir.mkdir(parents=True, exist_ok=True)
    # Inputs are named relative to OUTDIR, so no output holds a path that differs between two OUTDIRs.
    os.chdir(outdir)
    write_inputs()
    for name, run_argv in runs():
        run(name, run_argv)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
