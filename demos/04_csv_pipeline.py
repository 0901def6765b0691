"""The CSV-to-report pipeline on synthetic observational data.

Builds a long-format CSV shaped like a survey extract (unbalanced cells,
strong factor effects), subsamples it down to a balanced 5 x 7 x 3 layout,
and runs the test battery.  Equivalent CLI call:

    wishartmix manova --input demo_data.csv --responses r1,r2 \
        --n-per-cell 3 --subsample-seed 7 --n-mc 10000 --mc-seed 5
"""

import csv
import tempfile
from pathlib import Path

import numpy as np

from wishartmix import (
    McConfig,
    RandomEffect,
    RngStream,
    SimulationSpec,
    SpdMat,
    load_design_csv,
    report_to_dict,
    report_to_text,
    run_report,
    simulate_design,
    subsample_balanced,
)

gen = RngStream(30).generator()
spec = SimulationSpec(
    5, 7, 12, 2, SpdMat(np.eye(2)),
    effect_a=RandomEffect(SpdMat(16.0 * np.eye(2))),
    effect_b=RandomEffect(SpdMat(16.0 * np.eye(2))),
)
full = simulate_design(spec, RngStream(31))

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "demo_data.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["factor_a", "factor_b", "r1", "r2"])
        for i in range(5):
            for j in range(7):
                # ragged cell sizes, as observational data would have
                keep = 3 + int(gen.integers(0, 10))
                for k in range(min(keep, 12)):
                    writer.writerow([f"group_a{i}", f"group_b{j}", *full.responses[i, j, k]])
    print(f"wrote {path}")
    data = load_design_csv(path, ["r1", "r2"])

print(f"{data.n_rows} rows, d = {data.dim}")

table = subsample_balanced(data, n_per_cell=3, seed=7)
print(f"balanced table: a = {table.levels_a}, b = {table.levels_b}, n = {table.reps} (N = 105)")

report = run_report(table, McConfig(n_mc=10_000, seed=5))
print()
print(report_to_text(report, data.response_names))
print("\nstructured report p-values:",
      {f["name"]: round(f["p"]["p_hat"], 4) for f in report_to_dict(report)["factors"]})
