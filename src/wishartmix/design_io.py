"""CSV ingestion, balanced subsampling, and report assembly.

Input data is long-format CSV with a header row: columns ``factor_a`` and
``factor_b`` hold level labels (taken verbatim after trimming surrounding
whitespace), and the caller names the distinct response columns.  The file
is parsed column-wise: one list of fields per needed column, each response
column converted in one pass.  Error messages give physical line numbers,
so blank lines and multi-line quoted fields count.  CSV and matrix files
may start with a UTF-8 byte-order mark.  Observational data is rarely
balanced, so a seeded uniform subsample without replacement brings every
cell down to a common count before testing.

Determinism: factor levels are ordered lexicographically, never by file
order, and rows are pre-sorted by a full-record key (integer level codes,
then the responses, in one stable ``np.lexsort``), so the same data, cell
size, and seed give the same design table even if the input rows are permuted.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import EmptyFile, InsufficientCell, MissingColumn, UnparseableValue, ValidationError
from .manova import FACTOR_TESTS, DesignTable, _certify_sigma, _f_test, _test_dofs, batched_statistic_eigs, scalar_statistic, sop_arrays
from .mc import McConfig, PValueEstimate, mc_pvalue
from .rng import RngStream, _count
from .symmat import SymMat

__all__ = [
    "RawDataset",
    "FactorResult",
    "ReportTable",
    "load_design_csv",
    "subsample_balanced",
    "run_report",
    "read_matrix_file",
    "report_to_dict",
    "report_to_text",
]

FACTOR_A_COLUMN = "factor_a"
FACTOR_B_COLUMN = "factor_b"


@dataclass(frozen=True)
class RawDataset:
    """Long-format observations before balancing."""

    factor_a: tuple[str, ...]
    factor_b: tuple[str, ...]
    responses: np.ndarray  # (n_rows, d)
    response_names: tuple[str, ...]

    @property
    def n_rows(self) -> int:
        return len(self.factor_a)

    @property
    def dim(self) -> int:
        return self.responses.shape[1]


def load_design_csv(path, response_columns) -> RawDataset:
    """Parse a long-format design CSV.

    Requires the header columns ``factor_a``, ``factor_b``, and every name in
    ``response_columns``, each named once.  Labels are trimmed but otherwise
    verbatim; a short row's missing fields read as empty and blank lines are
    skipped.  Every response value must parse as a finite real, otherwise
    :class:`UnparseableValue` names the first offending value in file order
    by its physical line number (the line on which its record ends).  A
    record the ``csv`` module rejects, such as a field over its size limit,
    raises :class:`ValidationError` with the line the reader stopped on.
    """
    response_columns = [str(c) for c in response_columns]
    if not response_columns:
        raise MissingColumn("at least one response column must be named")
    for k, name in enumerate(response_columns):
        if name in response_columns[:k]:
            raise ValidationError(f"response column {name!r} is named more than once")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            fieldnames = next(reader, None)
            if fieldnames is None:
                raise EmptyFile(f"{path}: no header row")
            header = [h.strip() for h in fieldnames]
            for k, name in enumerate(header):
                if name in header[:k]:
                    raise ValidationError(f"{path}: column {name!r} appears more than once in the header")
            needed = [FACTOR_A_COLUMN, FACTOR_B_COLUMN, *response_columns]
            for name in needed:
                if name not in header:
                    raise MissingColumn(f"{path}: missing column {name!r}")
            # one list per needed column: factor_a, factor_b, then the responses
            indices = [header.index(name) for name in needed]
            columns: list[list[str]] = [[] for _ in indices]
            appends = list(zip(indices, [col.append for col in columns]))
            lines = array("l")  # physical line number of each data row
            width = max(indices) + 1
            for row in reader:
                if not row:
                    continue
                lines.append(reader.line_num)
                if len(row) < width:
                    row = row + [""] * (width - len(row))
                for index, append in appends:
                    append(row[index])
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    n = len(lines)
    if n == 0:
        raise EmptyFile(f"{path}: no data rows")
    values = np.empty((n, len(response_columns)))
    parsed = True
    try:
        for j, raw in enumerate(columns[2:]):
            values[:, j] = np.fromiter(map(float, map(str.strip, raw)), float, n)
    except ValueError:
        parsed = False
    if not (parsed and np.isfinite(values).all()):
        _raise_first_unparseable(path, lines, response_columns, columns[2:])
    labels = [tuple(map(str.strip, column)) for column in columns[:2]]
    return RawDataset(*labels, values, tuple(response_columns))


def _raise_first_unparseable(path, lines, names, columns) -> None:
    """Raise :class:`UnparseableValue` for the first non-finite response in file order."""
    for row, line in enumerate(lines):
        for name, column in zip(names, columns):
            raw = column[row].strip()
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise UnparseableValue(f"{path}: row {line}, column {name!r}: {raw!r} is not a finite number")


def _level_codes(levels: list[str], labels: tuple[str, ...]) -> np.ndarray:
    """Index of each label in the sorted ``levels``."""
    index = {label: k for k, label in enumerate(levels)}
    return np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))


def subsample_balanced(data: RawDataset, n_per_cell: int, seed: int) -> DesignTable:
    """Uniform, seeded subsample of ``n_per_cell`` rows per factor-level cell.

    Levels are the distinct labels in lexicographic order; every cell of the
    implied grid must hold at least ``n_per_cell`` rows, otherwise
    :class:`InsufficientCell` names the first deficient cell.  A cell holding
    exactly ``n_per_cell`` rows is passed through unchanged.  The table's
    level axes follow that order: ``responses[i, j]`` is the cell of the
    ``i``-th ``factor_a`` label and the ``j``-th ``factor_b`` label.
    """
    n_per_cell = _count(n_per_cell, "n_per_cell")
    levels_a = sorted(set(data.factor_a))
    levels_b = sorted(set(data.factor_b))
    # Level codes order like the labels, so one stable sort by cell code and
    # then by the responses gives the full-record order; each cell's rows are
    # then one contiguous run of ``order``.
    cell = _level_codes(levels_a, data.factor_a) * len(levels_b) + _level_codes(levels_b, data.factor_b)
    order = np.lexsort((*data.responses.T[::-1], cell))
    bounds = np.searchsorted(cell[order], np.arange(len(levels_a) * len(levels_b) + 1))

    gen = RngStream(seed).generator()
    out = np.empty((len(levels_a), len(levels_b), n_per_cell, data.dim))
    for i, la in enumerate(levels_a):
        for j, lb in enumerate(levels_b):
            k = i * len(levels_b) + j
            rows = order[bounds[k] : bounds[k + 1]]
            if len(rows) < n_per_cell:
                raise InsufficientCell(
                    f"cell ({la!r}, {lb!r}) holds {len(rows)} rows, needs {n_per_cell}"
                )
            if len(rows) > n_per_cell:
                rows = rows[np.sort(gen.choice(len(rows), size=n_per_cell, replace=False))]
            out[i, j] = data.responses[rows]
    return DesignTable(out)


@dataclass(frozen=True)
class FactorResult:
    """One row of the report: observed statistic, eigenvalues, Monte Carlo p-value.

    ``f_stat`` and ``f_pvalue`` carry the exact univariate variance-component
    test and are set only for one-dimensional responses.
    """

    name: str
    observed: float
    eigenvalues: tuple[float, ...]
    p: PValueEstimate
    f_stat: float | None = None
    f_pvalue: float | None = None


@dataclass(frozen=True)
class ReportTable:
    """Three factor results, the :class:`McConfig` they ran with, and the table's ``shape`` ``(a, b, n, d)``."""

    factors: tuple[FactorResult, ...]
    cfg: McConfig
    shape: tuple[int, int, int, int]


def run_report(table: DesignTable, cfg: McConfig, sigma: SymMat | None = None) -> ReportTable:
    """Run the full three-factor battery on a balanced table.

    Computes the SOPs once (:func:`~wishartmix.manova.sop_arrays`), the
    statistic eigenvalues per factor (optionally conjugated by ``sigma``,
    which provably does not change them), the scalar statistic, and its
    Monte Carlo p-value.  For ``d = 1`` the exact F test is attached to each
    factor.  Checked first, in order: ``sigma``, the degrees of freedom, SOP
    overflow; all-constant responses then give zero statistics, not a PD check.
    """
    if sigma is not None:
        sigma = _certify_sigma(sigma, table.dim)
    dofs = _test_dofs(table.levels_a, table.levels_b, table.reps, table.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        sops = sop_arrays(table.responses)
    if not all(np.all(np.isfinite(m)) for m in sops):
        raise ValidationError("the responses overflow the sum of outer products; rescale them before testing")
    # all responses identical per component: every statistic is zero by convention
    degenerate = bool(np.all(np.ptp(table.responses.reshape(-1, table.dim), axis=0) == 0.0))
    results = []
    for name, num, den in FACTOR_TESTS:
        if degenerate:
            eigs = np.zeros(table.dim)
        else:
            eigs = batched_statistic_eigs(sops[num], sops[den], sigma)
        observed = float(scalar_statistic(eigs, cfg.functional))
        p = mc_pvalue(observed, dofs[num], dofs[den], table.dim, cfg)
        f_stat = f_pvalue = None
        if table.dim == 1 and not degenerate:
            f_stat, f_pvalue = _f_test(sops, dofs, num, den)
        results.append(FactorResult(name, observed, tuple(float(v) for v in eigs), p, f_stat, f_pvalue))
    return ReportTable(tuple(results), cfg, table.responses.shape)


def read_matrix_file(path) -> SymMat:
    """Read the plain-text square matrix format: a line with ``d``, then ``d`` rows.

    Rows hold ``d`` whitespace-separated reals; the matrix must be symmetric
    to about eight significant digits.  A leading UTF-8 byte-order mark is
    ignored.
    """
    try:
        with open(path, encoding="utf-8-sig") as handle:
            tokens = handle.read().split()
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    if not tokens:
        raise EmptyFile(f"{path}: empty matrix file")
    try:
        d = int(tokens[0])
    except ValueError as exc:
        raise UnparseableValue(f"{path}: first token must be the dimension, got {tokens[0]!r}") from exc
    if d < 1 or len(tokens) != 1 + d * d:
        raise UnparseableValue(f"{path}: expected {d}x{d} entries after the dimension line")
    try:
        m = np.array([float(t) for t in tokens[1:]], dtype=float).reshape(d, d)
    except ValueError as exc:
        raise UnparseableValue(f"{path}: matrix entries must be real numbers") from exc
    if not np.all(np.isfinite(m)):
        raise UnparseableValue(f"{path}: matrix entries must be finite")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > 1e-8 * scale:
        raise UnparseableValue(f"{path}: matrix is not symmetric")
    return SymMat(m)


def _pvalue_dict(p: PValueEstimate) -> dict:
    return {
        "p_hat": p.p_hat,
        "p_raw": p.p_raw,
        "mc_se": p.mc_se,
        "n_mc": p.n_mc,
        "n_extreme": p.n_extreme,
    }


def report_to_dict(report: ReportTable) -> dict:
    """Structured form of the report, full precision, JSON-ready."""
    return {
        "factors": [
            {
                "name": fr.name,
                "observed": fr.observed,
                "eigenvalues": list(fr.eigenvalues),
                "p": _pvalue_dict(fr.p),
                **({"f_stat": fr.f_stat, "f_pvalue": fr.f_pvalue} if fr.f_stat is not None else {}),
            }
            for fr in report.factors
        ],
        "config": {
            "functional": report.cfg.functional.value,
            "n_mc": report.cfg.n_mc,
            "seed": report.cfg.seed,
            **dict(zip("abnd", report.shape)),
        },
    }


def report_to_text(report: ReportTable, response_names: tuple[str, ...] | None = None) -> str:
    """Fixed-width text report: one MANOVA row, plus the F-test row for d = 1."""
    a, b, n, d = report.shape
    label = f"({', '.join(response_names)})" if response_names else f"d = {d}"
    width = max(40, len(label) + 26)
    header = f"{'':<{width}}" + "".join(f"{'p_' + fr.name:>10}" for fr in report.factors)
    manova = f"{'Beta Type II MANOVA on ' + label:<{width}}" + "".join(
        f"{fr.p.p_hat:>10.4f}" for fr in report.factors
    )
    lines = [
        f"balanced design: a = {a}, b = {b}, n = {n}, d = {d}",
        f"functional = {report.cfg.functional.value}, n_mc = {report.cfg.n_mc}, seed = {report.cfg.seed}",
        "",
        header,
        manova,
    ]
    if report.factors[0].f_stat is not None:
        name = response_names[0] if response_names else "response"
        row = f"{'Variance-component F test on ' + name:<{width}}" + "".join(
            f"{fr.f_pvalue:>10.4f}" for fr in report.factors
        )
        lines.append(row)
    lines.append("")
    lines.append(f"{'':<{width}}" + "".join(f"{'se_' + fr.name:>10}" for fr in report.factors))
    lines.append(
        f"{'Monte Carlo standard error':<{width}}"
        + "".join(f"{fr.p.mc_se:>10.4f}" for fr in report.factors)
    )
    return "\n".join(lines)
