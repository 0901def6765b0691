"""Testing random effects in a balanced two-factor multivariate design.

Simulates a 5 x 6 design with five replicates of a bivariate response, once
under the global null and once with a genuine random effect for the first
factor, and runs the exact Beta Type II battery on both.  A short calibration
run shows the p-values are uniform under the null.
"""

import numpy as np

from wishartmix import (
    McConfig,
    RandomEffect,
    RngStream,
    SimulationSpec,
    SpdMat,
    StatisticFunctional,
    null_calibration,
    run_report,
    report_to_text,
    simulate_design,
)

eye = SpdMat(np.eye(2))
cfg = McConfig(n_mc=10_000, seed=5, functional=StatisticFunctional.HOTELLING_LAWLEY)

print("== all-null design ==")
null_spec = SimulationSpec(5, 6, 5, 2, eye)
table = simulate_design(null_spec, RngStream(20))
print(report_to_text(run_report(table, cfg)))

print("\n== random effect on factor A (covariance 2 I) ==")
effect_spec = SimulationSpec(5, 6, 5, 2, eye, effect_a=RandomEffect(SpdMat(2.0 * np.eye(2))))
table = simulate_design(effect_spec, RngStream(21))
print(report_to_text(run_report(table, cfg)))

print("\n== null calibration, 200 datasets ==")
summary = null_calibration(null_spec, 200, McConfig(n_mc=2000, seed=6), RngStream(22))
print(summary.to_text())
