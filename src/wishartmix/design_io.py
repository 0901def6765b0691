"""CSV ingestion, balanced subsampling, and report assembly.

Input data is long-format CSV with a header row: columns ``factor_a`` and
``factor_b`` hold level labels (taken verbatim after trimming surrounding
whitespace), and the caller names the distinct response columns.  Records
are read in blocks of ``_BLOCK_RECORDS``, each transposed in one call; a
label's field text gets an integer code the first time it appears (the few
distinct texts are trimmed and sorted once, at the end) and responses become
floats within their block, so no field text outlives it.  A bad value is
located by a second, record-by-record read once the first has tokenised the
whole file (a csv or decoding error anywhere wins), and named by its
physical line.
CSV and matrix files may start with a UTF-8 byte-order mark.  A seeded
uniform subsample without replacement brings every cell to a common count.

Determinism: factor levels are ordered lexicographically, never by file
order, and a cell's rows are taken at ranks of a full-record order (the
responses, ties in file order) found by rank selection, so the same data,
cell size, and seed give the same design table even if the rows are permuted.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice, product, zip_longest

import numpy as np

from .errors import EmptyFile, InsufficientCell, MissingColumn, UnparseableValue, ValidationError
from .manova import DesignTable, _exact_pvalue, factor_tests, scalar_statistic, sop_arrays, statistic_eigs
from .mc import McConfig, PValueEstimate, mc_pvalue
from .rng import RngStream, _count
from .symmat import SymMat, _as_spd, _mirror_upper, sym_inv_sqrt

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
# Records per parsed block: enough to amortise the per-block calls, few enough to keep no text long
_BLOCK_RECORDS = 512


@dataclass(frozen=True)
class RawDataset:
    """Long-format observations before balancing, each factor's levels coded once.

    ``levels_a`` and ``levels_b`` hold each factor's distinct labels in
    increasing order.  Row ``r`` lies in level ``codes[r, 0]`` of ``factor_a``
    and level ``codes[r, 1]`` of ``factor_b``, and holds the finite
    ``responses[r]``, one column per name of ``response_names``.
    """

    levels_a: tuple[str, ...]
    levels_b: tuple[str, ...]
    codes: np.ndarray  # (n_rows, 2) intp
    responses: np.ndarray  # (n_rows, d)
    response_names: tuple[str, ...]

    def __post_init__(self) -> None:
        y, codes, names = self.responses, self.codes, self.response_names
        if not (isinstance(y, np.ndarray) and y.dtype.kind == "f" and y.shape[1:] == (len(names),)):
            raise ValidationError(f"responses must be a 2-D float array with one column per response name ({len(names)})")
        if len(set(names)) != len(names):
            raise ValidationError(f"response_names {tuple(names)} must be distinct")
        shaped = isinstance(codes, np.ndarray) and codes.dtype.kind in "iu" and codes.shape == (len(y), 2)
        if not shaped or ((codes < 0) | (codes >= (len(self.levels_a), len(self.levels_b)))).any():
            raise ValidationError(f"codes must be integers of shape ({len(y)}, 2) indexing levels_a and levels_b")
        for name, levels in (("levels_a", self.levels_a), ("levels_b", self.levels_b)):
            if any(lo >= hi for lo, hi in zip(levels, levels[1:])):
                raise ValidationError(f"{name} must be strictly increasing")
        if not np.isfinite(y).all():
            raise ValidationError("responses must be finite")

    @classmethod
    def from_labels(cls, factor_a, factor_b, responses, response_names) -> RawDataset:
        """A dataset from each row's two labels, trimmed and coded as :func:`load_design_csv` codes a file's."""
        if not len(factor_a) == len(factor_b) == len(responses):
            rows = f"{len(factor_a)}, {len(factor_b)} and {len(responses)}"
            raise ValidationError(f"factor_a, factor_b and responses hold {rows} rows; they must match")
        a, b = _Codes(), _Codes()
        levels, codes = zip(a.levels([a.rows(factor_a)]), b.levels([b.rows(factor_b)]))
        return cls(*levels, np.column_stack(codes), responses, tuple(response_names))

    # Each row's label, built on first use: a lookup per row would otherwise rebuild every row's.
    factor_a = cached_property(lambda self: tuple(map(self.levels_a.__getitem__, self.codes[:, 0].tolist())))
    factor_b = cached_property(lambda self: tuple(map(self.levels_b.__getitem__, self.codes[:, 1].tolist())))

    @property
    def n_rows(self) -> int:
        return len(self.responses)

    @property
    def dim(self) -> int:
        return self.responses.shape[1]


class _Codes(dict):
    """Raw label text to an integer code, numbered in order of first appearance."""

    def __missing__(self, text: str) -> int:
        code = self[text] = len(self)
        return code

    def rows(self, texts) -> np.ndarray:
        """The code of each of ``texts``."""
        return np.fromiter(map(self.__getitem__, texts), np.intp, len(texts))

    def levels(self, rows: list[np.ndarray]) -> tuple[tuple[str, ...], np.ndarray]:
        """The distinct trimmed labels in increasing order, and the blocks of codes ``rows`` remapped to index them."""
        labels = [text.strip() for text in self]
        levels = tuple(sorted(set(labels)))
        return levels, np.searchsorted(np.array(levels, object), np.array(labels, object)).take(np.concatenate(rows))


def load_design_csv(path, response_columns) -> RawDataset:
    """Parse a long-format design CSV.

    Requires the header columns ``factor_a``, ``factor_b``, and every name in
    ``response_columns``, each named once and none a factor column.  Labels
    are trimmed but otherwise verbatim, and each factor's are coded once, as
    :class:`RawDataset` holds them; a short row's missing fields read as
    empty and blank lines are skipped.  Every response value, with any
    surrounding whitespace that ``str.strip`` removes, must parse as a
    finite real, otherwise :class:`UnparseableValue` names the first bad
    value in file order by its physical line (where its record ends).  A
    record the ``csv`` module rejects anywhere, such as a field over its size
    limit, raises :class:`ValidationError` with the line the reader stopped on.
    """
    response_columns = [str(c) for c in response_columns]
    if not response_columns:
        raise MissingColumn("at least one response column must be named")
    for k, name in enumerate(response_columns):
        if name in response_columns[:k]:
            raise ValidationError(f"response column {name!r} is named more than once")
        if name in (FACTOR_A_COLUMN, FACTOR_B_COLUMN):
            raise ValidationError(f"response column {name!r} is a factor column")
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
            index_a, index_b, *indices = [header.index(name) for name in needed]
            # leads each block, so zip_longest pads short records with "" up to the last needed column
            full_width = [""] * (max(index_a, index_b, *indices) + 1)
            codes_a, codes_b, rows_a, rows_b = _Codes(), _Codes(), [], []
            values, parsed = [[] for _ in indices], True  # per response, one array per block
            records = filter(None, reader)  # a blank line reads as an empty record
            while block := list(islice(records, _BLOCK_RECORDS)):
                if not parsed:
                    continue  # tokenise the rest, so a csv or decoding error still wins
                columns = list(zip_longest(full_width, *block, fillvalue=""))
                rows_a.append(codes_a.rows(columns[index_a][1:]))
                rows_b.append(codes_b.rows(columns[index_b][1:]))
                try:
                    for parts, index in zip(values, indices):
                        try:
                            parts.append(np.fromiter(map(float, columns[index][1:]), float, len(block)))
                        except ValueError:  # float() skips what str.strip() removes, but for ASCII \x1c-\x1f
                            parts.append(np.fromiter(map(float, map(str.strip, columns[index][1:])), float, len(block)))
                except ValueError:
                    parsed = False
            if not rows_a:
                raise EmptyFile(f"{path}: no data rows")
            if parsed:
                responses = np.column_stack([np.concatenate(parts) for parts in values])
                parsed = bool(np.isfinite(responses).all())
            if not parsed:  # read again, this time with line numbers
                handle.seek(0)
                reader = csv.reader(handle)
                _raise_first_unparseable(path, reader, indices, response_columns)
        except csv.Error as exc:
            raise ValidationError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    levels, codes = zip(codes_a.levels(rows_a), codes_b.levels(rows_b))
    return RawDataset(*levels, np.column_stack(codes), responses, tuple(response_columns))


def _raise_first_unparseable(path, reader, indices, names) -> None:
    """Raise :class:`UnparseableValue` for the first non-finite response of the CSV ``reader``."""
    for record in filter(None, islice(reader, 1, None)):  # past the header
        for index, name in zip(indices, names):
            raw = record[index].strip() if index < len(record) else ""
            try:
                value = float(raw)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                raise UnparseableValue(f"{path}: row {reader.line_num}, column {name!r}: {raw!r} is not a finite number")
    raise ValidationError(f"{path}: changed while it was read: a second read finds no bad value")


def subsample_balanced(data: RawDataset, n_per_cell: int, seed: int) -> DesignTable:
    """Uniform, seeded subsample of ``n_per_cell`` rows per factor-level cell.

    Levels are ``data.levels_a`` and ``data.levels_b``, the distinct labels
    in lexicographic order, and a row's cell comes from its codes; every cell
    of the implied grid must hold at least ``n_per_cell`` rows, otherwise
    :class:`InsufficientCell` names the first deficient cell.  A cell holding
    exactly ``n_per_cell`` rows is passed through unchanged.  The table's
    level axes follow that order: ``responses[i, j]`` is the cell of the
    ``i``-th ``factor_a`` label and the ``j``-th ``factor_b`` label.
    """
    n_per_cell = _count(n_per_cell, "n_per_cell")
    levels_a, levels_b = data.levels_a, data.levels_b
    # one stable (radix, on codes cast to their smallest type) sort groups each cell's rows, in file order
    n_cells = len(levels_a) * len(levels_b)
    cell = data.codes[:, 0] * len(levels_b) + data.codes[:, 1]
    by_cell = np.argsort(cell.astype(np.min_scalar_type(n_cells)), kind="stable")
    bounds = [0, *np.cumsum(np.bincount(cell, minlength=n_cells)).tolist()]
    gen = RngStream(seed).generator()
    y = data.responses
    out = np.empty((n_cells, n_per_cell, data.dim))
    for k, (la, lb) in enumerate(product(levels_a, levels_b)):
        rows = by_cell[bounds[k] : bounds[k + 1]]
        if len(rows) < n_per_cell:
            raise InsufficientCell(f"cell ({la!r}, {lb!r}) holds {len(rows)} rows, needs {n_per_cell}")
        ranks = np.arange(n_per_cell)
        if len(rows) > n_per_cell:
            ranks = np.sort(gen.choice(len(rows), size=n_per_cell, replace=False))
        # Ranks of a stable sort by the responses: sort in full only the rows whose first response
        # equals one at a chosen rank.
        first = y[rows, 0]
        ordered = np.sort(first)
        chosen = ordered[ranks]
        tied = rows[np.isin(first, chosen)]
        tied = tied[np.lexsort(y[tied].T[::-1])]
        # move each rank from the start of its run of equal first responses to that run's start in ``tied``
        out[k] = y[tied[ranks - np.searchsorted(ordered, chosen) + np.searchsorted(y[tied, 0], chosen)]]
    return DesignTable(out.reshape(len(levels_a), len(levels_b), n_per_cell, data.dim))

@dataclass(frozen=True)
class FactorResult:
    """One row of the report: observed statistic, eigenvalues, Monte Carlo p-value.

    ``p_exact`` is the exact univariate variance-component F p-value of
    one-dimensional responses, else ``None``.  ``denominator`` names the SOP
    the factor is tested against.
    """

    name: str
    observed: float
    eigenvalues: tuple[float, ...]
    p: PValueEstimate
    p_exact: float | None
    denominator: str


@dataclass(frozen=True)
class ReportTable:
    """Three factor results, their :class:`McConfig`, the table's ``shape`` ``(a, b, n, d)`` and the interaction mode."""

    factors: tuple[FactorResult, ...]
    cfg: McConfig
    shape: tuple[int, int, int, int]
    interaction: str = "fixed"


def run_report(table: DesignTable, cfg: McConfig, sigma: SymMat | None = None, interaction: str = "fixed") -> ReportTable:
    """Run the full three-factor battery on a balanced table.

    Computes the SOPs once (:func:`~wishartmix.manova.sop_arrays`), and
    conjugates them once by ``sigma^{-1/2}`` if ``sigma`` is given, which
    provably does not change the statistics.  Then, per test of
    :func:`~wishartmix.manova.factor_tests` for ``interaction``, the
    statistic eigenvalues (:func:`~wishartmix.manova.statistic_eigs`), the
    scalar statistic, its Monte Carlo p-value and, for ``d = 1``, its exact
    F p-value.  Checked first, in order: ``sigma``, the interaction mode,
    the degrees of freedom, SOP overflow, overflow of the conjugated SOPs;
    all-constant responses then give zero statistics, not a singularity check.
    """
    if sigma is not None:
        sigma = _as_spd(sigma, "sigma", require_pd=True)
        if sigma.dim != table.dim:
            raise ValueError(f"sigma is {sigma.dim}x{sigma.dim} but the SOPs are {table.dim}-dimensional")
    tests = factor_tests(table.levels_a, table.levels_b, table.reps, table.dim, interaction)
    with np.errstate(over="ignore", invalid="ignore"):
        sops = sop_arrays(table.responses)
        if not np.isfinite(sops).all():
            raise ValidationError("the responses overflow the sum of outer products; rescale them before testing")
        if sigma is not None:
            c = sym_inv_sqrt(sigma).array
            sops = tuple(_mirror_upper(c @ m @ c) for m in sops)
            if not np.isfinite(sops).all():
                raise ValidationError("the SOPs overflow when conjugated by sigma^(-1/2); rescale sigma")
    # all responses identical per component: every statistic is zero by convention
    if np.all(np.ptp(table.responses.reshape(-1, table.dim), axis=0) == 0.0):
        all_eigs = [np.zeros(table.dim)] * len(tests)
    else:
        all_eigs = statistic_eigs(sops, tests)
    results = []
    for t, eigs in zip(tests, all_eigs):
        observed = float(scalar_statistic(eigs, cfg.functional))
        p = mc_pvalue(observed, t.dof_num, t.dof_den, table.dim, cfg)
        p_exact = _exact_pvalue(eigs, t.dof_num, t.dof_den)
        results.append(FactorResult(t.name, observed, tuple(float(v) for v in eigs), p, p_exact, t.against))
    return ReportTable(tuple(results), cfg, table.responses.shape, interaction)


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
    return {key: getattr(p, key) for key in ("p_hat", "p_raw", "mc_se", "n_mc", "n_drawn", "n_extreme")}


def report_to_dict(report: ReportTable) -> dict:
    """Structured form of the report, full precision, JSON-ready.

    A random-interaction report adds each factor's ``"denominator"`` and the
    config's ``"interaction"``; a fixed one names neither.
    """
    random = report.interaction == "random"
    return {
        "factors": [
            {
                "name": fr.name,
                **({"denominator": fr.denominator} if random else {}),
                "observed": fr.observed,
                "eigenvalues": list(fr.eigenvalues),
                "p": _pvalue_dict(fr.p),
                **({"p_exact": fr.p_exact} if fr.p_exact is not None else {}),
            }
            for fr in report.factors
        ],
        "config": {
            "functional": report.cfg.functional.value,
            "n_mc": report.cfg.n_mc,
            "seed": report.cfg.seed,
            **dict(zip("abnd", report.shape)),
            **({"interaction": report.interaction} if random else {}),
        },
    }


def report_to_text(report: ReportTable, response_names: tuple[str, ...] | None = None) -> str:
    """Fixed-width text report: one MANOVA row, plus the F-test row for d = 1.

    A random-interaction report adds the mode to the config line and a row
    naming each factor's denominator SOP.
    """
    a, b, n, d = report.shape
    label = f"({', '.join(response_names)})" if response_names else f"d = {d}"
    width = max(40, len(label) + 26)
    header = f"{'':<{width}}" + "".join(f"{'p_' + fr.name:>10}" for fr in report.factors)
    manova = f"{'Beta Type II MANOVA on ' + label:<{width}}" + "".join(
        f"{fr.p.p_hat:>10.4f}" for fr in report.factors
    )
    random = report.interaction == "random"
    lines = [
        f"balanced design: a = {a}, b = {b}, n = {n}, d = {d}",
        f"functional = {report.cfg.functional.value}, n_mc = {report.cfg.n_mc}, seed = {report.cfg.seed}"
        + (", interaction = random" if random else ""),
        "",
        header,
    ]
    if random:
        lines.append(f"{'Tested against SOP':<{width}}" + "".join(f"{fr.denominator:>10}" for fr in report.factors))
    lines.append(manova)
    if report.factors[0].p_exact is not None:
        name = response_names[0] if response_names else "response"
        row = f"{'Variance-component F test on ' + name:<{width}}" + "".join(
            f"{fr.p_exact:>10.4f}" for fr in report.factors
        )
        lines.append(row)
    lines.append("")
    lines.append(f"{'':<{width}}" + "".join(f"{'se_' + fr.name:>10}" for fr in report.factors))
    lines.append(
        f"{'Monte Carlo standard error':<{width}}"
        + "".join(f"{fr.p.mc_se:>10.4f}" for fr in report.factors)
    )
    return "\n".join(lines)
