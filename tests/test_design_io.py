"""Tests for CSV ingestion, balanced subsampling, and report assembly."""

import csv
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wishartmix import (
    DesignTable,
    EmptyFile,
    InsufficientCell,
    McConfig,
    MissingColumn,
    RawDataset,
    RngStream,
    StatisticFunctional,
    UnparseableValue,
    ValidationError,
    assert_pd,
    load_design_csv,
    read_matrix_file,
    report_to_dict,
    report_to_text,
    run_report,
    subsample_balanced,
    univariate_f_test,
)


def write_csv(path, rows, header="factor_a,factor_b,r1,r2"):
    path.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    return path


class TestLoadDesignCsv:
    def test_smoke(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["x,y,1.0,2.0", "x,z,3.5,-1.25"])
        data = load_design_csv(p, ["r1", "r2"])
        assert data.n_rows == 2
        assert data.dim == 2
        assert data.factor_a == ("x", "x")
        np.testing.assert_allclose(data.responses, [[1.0, 2.0], [3.5, -1.25]])

    def test_labels_trimmed_but_verbatim(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", [" Some College , B-1 ,1,2"])
        data = load_design_csv(p, ["r1", "r2"])
        assert data.factor_a == ("Some College",)
        assert data.factor_b == ("B-1",)

    def test_missing_column(self, tmp_path):
        p = (tmp_path / "d.csv")
        p.write_text("factor_a,r1\nx,1\n", encoding="utf-8")
        with pytest.raises(MissingColumn):
            load_design_csv(p, ["r1"])
        p2 = write_csv(tmp_path / "e.csv", ["x,y,1,2"])
        with pytest.raises(MissingColumn):
            load_design_csv(p2, ["r1", "nope"])

    def test_nan_value_rejected_with_row_number(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["x,y,1.0,2.0", "x,y,NaN,0.5"])
        with pytest.raises(UnparseableValue, match="row 3"):
            load_design_csv(p, ["r1", "r2"])
        # the first bad value in file order, across columns
        p = write_csv(tmp_path / "d.csv", ["x,y,1.0,2.0", "x,y,1.0,oops", "x,y,nan,1.0"])
        with pytest.raises(UnparseableValue, match="row 3, column 'r2': 'oops'"):
            load_design_csv(p, ["r1", "r2"])
        # a short row's missing fields read as empty
        p = write_csv(tmp_path / "d.csv", ["x,y,1.0,2.0", "x"])
        with pytest.raises(UnparseableValue, match="row 3, column 'r1': ''"):
            load_design_csv(p, ["r1", "r2"])

    def test_row_number_is_the_physical_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("factor_a,factor_b,y1\na1,b1,1.0\n\na1,b1,x\n", encoding="utf-8")
        with pytest.raises(UnparseableValue, match="row 4, column 'y1'"):
            load_design_csv(p, ["y1"])
        # a quoted field spanning two lines: the record ends on line 3
        p.write_text('factor_a,factor_b,y1\n"a\n1",b1,1.0\na1,b1,inf\n', encoding="utf-8")
        with pytest.raises(UnparseableValue, match="row 4, column 'y1'"):
            load_design_csv(p, ["y1"])

    def test_response_named_twice_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["x,y,1.0,2.0"])
        with pytest.raises(ValidationError, match="response column 'r1' is named more than once"):
            load_design_csv(p, ["r1", "r2", "r1"])

    def test_utf8_bom_is_ignored(self, tmp_path):
        # Spreadsheet exports often start with a byte-order mark.
        rows = ["x,y,1.0,2.0", "x,z,3.5,-1.25"]
        plain = load_design_csv(write_csv(tmp_path / "plain.csv", rows), ["r1", "r2"])
        bom_path = tmp_path / "bom.csv"
        bom_path.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "plain.csv").read_bytes())
        bom = load_design_csv(bom_path, ["r1", "r2"])
        assert (bom.factor_a, bom.factor_b, bom.response_names) == (
            plain.factor_a,
            plain.factor_b,
            plain.response_names,
        )
        assert np.array_equal(bom.responses, plain.responses)

    def test_duplicate_column_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["x,y,1.0,2.0"], header="factor_a,factor_b,y, y")
        with pytest.raises(ValidationError, match="'y'"):
            load_design_csv(p, ["y"])

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(EmptyFile):
            load_design_csv(p, ["r1"])
        p.write_text("factor_a,factor_b,r1\n", encoding="utf-8")
        with pytest.raises(EmptyFile):
            load_design_csv(p, ["r1"])


def toy_dataset(counts: dict[tuple[str, str], int], dim=1, seed=0) -> RawDataset:
    gen = RngStream(seed).generator()
    fa, fb, rows = [], [], []
    for (la, lb), count in counts.items():
        for _ in range(count):
            fa.append(la)
            fb.append(lb)
            rows.append(gen.standard_normal(dim))
    return RawDataset(tuple(fa), tuple(fb), np.array(rows), tuple(f"r{i}" for i in range(dim)))


class TestSubsampleBalanced:
    def test_exact_cells_pass_through(self):
        data = toy_dataset({(a, b): 2 for a in "xy" for b in "uv"})
        table = subsample_balanced(data, 2, seed=9)
        assert table.responses.shape == (2, 2, 2, 1)
        got = np.sort(table.responses.ravel())
        assert np.array_equal(got, np.sort(data.responses.ravel()))

    def test_reference_shapes(self):
        data = toy_dataset({(f"a{i}", f"b{j}"): 7 for i in range(5) for j in range(6)}, dim=2)
        table = subsample_balanced(data, 5, seed=1)
        assert table.responses.shape == (5, 6, 5, 2)  # N = 150
        data2 = toy_dataset({(f"a{i}", f"b{j}"): 4 for i in range(5) for j in range(7)}, dim=2)
        table2 = subsample_balanced(data2, 3, seed=1)
        assert table2.responses.shape == (5, 7, 3, 2)  # N = 105

    def test_insufficient_cell_is_named(self):
        counts = {(a, b): 3 for a in "xy" for b in "uv"}
        counts[("y", "v")] = 1
        with pytest.raises(InsufficientCell, match="'y'.*'v'"):
            subsample_balanced(toy_dataset(counts), 2, seed=0)

    def test_missing_cell_counts_as_insufficient(self):
        counts = {("x", "u"): 3, ("x", "v"): 3, ("y", "u"): 3}
        with pytest.raises(InsufficientCell):
            subsample_balanced(toy_dataset(counts), 2, seed=0)

    def test_levels_sorted_lexicographically(self):
        data = toy_dataset({("zebra", "2"): 1, ("apple", "2"): 1, ("zebra", "1"): 1, ("apple", "1"): 1})
        table = subsample_balanced(data, 1, seed=0)
        assert table.labels_a == ("apple", "zebra")
        assert table.labels_b == ("1", "2")

    def test_invariant_to_row_permutation(self):
        data = toy_dataset({(a, b): 6 for a in "xyz" for b in "uv"}, dim=2, seed=3)
        # the same data plus fully duplicated records and a 0.0 / -0.0 pair tied in one cell
        dup = [0, 0, 5, 7]
        zeros = np.array([[0.0, 1.5], [-0.0, 1.5], [0.0, 1.5]])
        with_ties = RawDataset(
            data.factor_a + tuple(data.factor_a[i] for i in dup) + ("y",) * 3,
            data.factor_b + tuple(data.factor_b[i] for i in dup) + ("v",) * 3,
            np.concatenate([data.responses, data.responses[dup], zeros]),
            data.response_names,
        )
        for raw in (data, with_ties):
            perm = RngStream(4).generator().permutation(raw.n_rows)
            shuffled = RawDataset(
                tuple(raw.factor_a[i] for i in perm),
                tuple(raw.factor_b[i] for i in perm),
                raw.responses[perm],
                raw.response_names,
            )
            for seed in range(5):
                t1 = subsample_balanced(raw, 3, seed=seed)
                t2 = subsample_balanced(shuffled, 3, seed=seed)
                assert np.array_equal(t1.responses, t2.responses)
                # tied keys keep input order, so only the sign of a zero may follow it
                assert (t1.responses + 0.0).tobytes() == (t2.responses + 0.0).tobytes()
                for source, table in ((raw, t1), (shuffled, t2)):
                    reference = _subsample_by_sorted_key(source, 3, seed)
                    assert table.responses.tobytes() == reference.responses.tobytes()

    def test_seed_changes_selection(self):
        data = toy_dataset({(a, b): 10 for a in "xy" for b in "uv"}, seed=6)
        t1 = subsample_balanced(data, 3, seed=1)
        t2 = subsample_balanced(data, 3, seed=2)
        assert not np.array_equal(t1.responses, t2.responses)


class TestRunReport:
    def test_constant_responses_degenerate(self):
        table = DesignTable(np.full((3, 3, 2, 2), 5.0))
        report = run_report(table, McConfig(n_mc=2000, seed=1))
        for fr in report.factors:
            assert fr.observed == 0.0
            assert fr.p.p_hat == 1.0

    def test_univariate_rows_present_only_for_d1(self):
        gen = RngStream(2).generator()
        r1 = run_report(DesignTable(gen.standard_normal((3, 3, 2, 1))), McConfig(n_mc=1000, seed=1))
        assert all(fr.f_stat is not None for fr in r1.factors)
        r2 = run_report(DesignTable(gen.standard_normal((3, 3, 2, 2))), McConfig(n_mc=1000, seed=1))
        assert all(fr.f_stat is None for fr in r2.factors)
        # The text report renders the F p-values as their own row, at 4 decimals.
        (row,) = [line for line in report_to_text(r1, ("y",)).splitlines() if line.startswith("Variance-component")]
        assert row.split()[-4:] == ["y", *(f"{fr.f_pvalue:.4f}" for fr in r1.factors)]
        assert "Variance-component" not in report_to_text(r2, ("u", "v"))

    def test_d1_report_computes_the_sop_once(self, monkeypatch):
        import wishartmix.design_io as design_io_mod
        import wishartmix.manova as manova_mod

        table = DesignTable(RngStream(6).generator().standard_normal((3, 4, 3, 1)))
        expected = [univariate_f_test(table, name) for name in ("A", "B", "AB")]
        calls = []
        original = manova_mod.compute_sop

        def counting(t):
            calls.append(t)
            return original(t)

        monkeypatch.setattr(manova_mod, "compute_sop", counting)
        monkeypatch.setattr(design_io_mod, "compute_sop", counting)
        report = run_report(table, McConfig(n_mc=1000, seed=1))
        assert len(calls) == 1
        assert [(fr.f_stat, fr.f_pvalue) for fr in report.factors] == expected

    def test_structure_and_echo(self):
        gen = RngStream(3).generator()
        table = DesignTable(gen.standard_normal((4, 3, 2, 2)))
        cfg = McConfig(n_mc=1500, seed=77, functional=StatisticFunctional.PILLAI)
        report = run_report(table, cfg)
        assert [fr.name for fr in report.factors] == ["A", "B", "AB"]
        assert (report.a, report.b, report.n, report.d) == (4, 3, 2, 2)
        assert report.functional == "pillai"
        assert report.n_mc == 1500 and report.seed == 77
        d = report_to_dict(report)
        assert d["config"]["functional"] == "pillai"
        assert len(d["factors"][0]["eigenvalues"]) == 2
        text = report_to_text(report, ("u", "v"))
        assert "p_A" in text and "(u, v)" in text

    def test_sigma_invariance(self):
        gen = RngStream(4).generator()
        table = DesignTable(gen.standard_normal((3, 3, 3, 2)))
        cfg = McConfig(n_mc=1000, seed=5)
        base = run_report(table, cfg)
        for _ in range(3):
            g = gen.standard_normal((2, 2))
            sigma = assert_pd(g @ g.T + 0.5 * np.eye(2))
            other = run_report(table, cfg, sigma)
            for fr_base, fr_other in zip(base.factors, other.factors):
                np.testing.assert_allclose(fr_other.eigenvalues, fr_base.eigenvalues, rtol=1e-8)
                assert fr_other.p == fr_base.p


class TestMatrixFile:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n2.0 0.5\n0.5 1.0\n", encoding="utf-8")
        m = read_matrix_file(p)
        np.testing.assert_allclose(m.array, [[2.0, 0.5], [0.5, 1.0]])

    def test_asymmetric_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n1.0 0.5\n0.2 1.0\n", encoding="utf-8")
        with pytest.raises(UnparseableValue):
            read_matrix_file(p)

    def test_bad_shape_rejected(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_text("2\n1.0 0.5\n", encoding="utf-8")
        with pytest.raises(UnparseableValue):
            read_matrix_file(p)

    def test_utf8_bom_is_ignored(self, tmp_path):
        p = tmp_path / "m.txt"
        p.write_bytes(b"\xef\xbb\xbf2\n2.0 0.5\n0.5 1.0\n")
        np.testing.assert_array_equal(read_matrix_file(p).array, [[2.0, 0.5], [0.5, 1.0]])


# ---------------------------------------------------------------------------
# Differential fuzzing of ingest against the row-at-a-time reference: a
# ``DictReader`` loader (row numbers from ``line_num``) and the sorted
# full-record-key subsample.


def _load_row_by_row(path, response_columns) -> RawDataset:
    response_columns = [str(c) for c in response_columns]
    if not response_columns:
        raise MissingColumn("at least one response column must be named")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise EmptyFile(f"{path}: no header row")
        header = [h.strip() for h in reader.fieldnames]
        for k, name in enumerate(header):
            if name in header[:k]:
                raise ValidationError(f"{path}: column {name!r} appears more than once in the header")
        for needed in ["factor_a", "factor_b", *response_columns]:
            if needed not in header:
                raise MissingColumn(f"{path}: missing column {needed!r}")
        a_labels, b_labels, values = [], [], []
        for row in reader:
            record = {(k or "").strip(): v for k, v in row.items()}
            a_labels.append((record["factor_a"] or "").strip())
            b_labels.append((record["factor_b"] or "").strip())
            parsed = []
            for col in response_columns:
                raw = (record.get(col) or "").strip()
                try:
                    value = float(raw)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise UnparseableValue(
                        f"{path}: row {reader.line_num}, column {col!r}: {raw!r} is not a finite number"
                    )
                parsed.append(value)
            values.append(parsed)
    if not values:
        raise EmptyFile(f"{path}: no data rows")
    return RawDataset(tuple(a_labels), tuple(b_labels), np.array(values), tuple(response_columns))


def _subsample_by_sorted_key(data: RawDataset, n_per_cell: int, seed: int) -> DesignTable:
    levels_a = sorted(set(data.factor_a))
    levels_b = sorted(set(data.factor_b))
    order = sorted(
        range(data.n_rows),
        key=lambda r: (data.factor_a[r], data.factor_b[r], tuple(data.responses[r])),
    )
    cells = {}
    for r in order:
        cells.setdefault((data.factor_a[r], data.factor_b[r]), []).append(r)
    gen = RngStream(int(seed)).generator()
    out = np.empty((len(levels_a), len(levels_b), n_per_cell, data.dim))
    for i, la in enumerate(levels_a):
        for j, lb in enumerate(levels_b):
            rows = cells.get((la, lb), [])
            if len(rows) < n_per_cell:
                raise InsufficientCell(f"cell ({la!r}, {lb!r}) holds {len(rows)} rows, needs {n_per_cell}")
            if len(rows) == n_per_cell:
                chosen = rows
            else:
                picks = gen.choice(len(rows), size=n_per_cell, replace=False)
                chosen = [rows[k] for k in sorted(picks)]
            out[i, j] = data.responses[chosen]
    return DesignTable(out, labels_a=tuple(levels_a), labels_b=tuple(levels_b))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by class and message
        return "raised", (type(exc), str(exc))


def _field(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


LABELS = ["a", "b", " a ", "b\t", "a,b", "x\ny", "", "\x1ca"]
FINITE_TOKENS = ["-0.0", "0.0", "0", "1_0", " 2.5 ", "\x1c3\x1c", "1e-300", "-7"]
BAD_TOKENS = ["inf", "-inf", "nan", "1e400", "x", "", "1__0", "\x003"]
COLUMNS = ["factor_a", "factor_b", "y1", "y2", "y3"]


@st.composite
def design_csvs(draw):
    """CSV text and the response names to request from it."""
    header = draw(st.permutations(COLUMNS))
    if draw(st.integers(0, 9)) == 0:
        header = header[:-1]  # usually leaves a needed column missing
    header = [draw(st.sampled_from(["", " ", "\t"])) + name for name in header]
    if draw(st.integers(0, 19)) == 0:
        header.append(" y1")  # a header naming a column twice
    clean = draw(st.sampled_from([True, True, False]))
    value = st.one_of(
        st.sampled_from(FINITE_TOKENS if clean else FINITE_TOKENS + BAD_TOKENS),
        st.floats(allow_nan=False, allow_infinity=False, width=64).map(repr),
    )

    levels = [draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3, unique=True)) for _ in range(2)]

    def record(width):
        fields = [draw(st.sampled_from(pool)) for pool in levels] + [draw(value) for _ in range(width - 2)]
        return [(f, draw(st.booleans())) for f in fields]

    responses = draw(st.lists(st.sampled_from(["y1", "y2", "y3"]), min_size=1, max_size=3, unique=True))
    # a clean file cuts short rows only after the last needed column
    stripped = [name.strip() for name in header]
    needed = [stripped.index(n) + 1 for n in ["factor_a", "factor_b", *responses] if n in stripped]
    shortest = max(needed) if clean else 0
    records = [record(len(header)) for _ in range(draw(st.integers(1, 16)))]
    for k in draw(st.lists(st.integers(0, 30), max_size=4)):  # fully duplicated records
        records.append(records[k % len(records)])
    lines = [",".join(_field(name, False) for name in header)]
    for rec in records:
        cut = len(rec)
        if draw(st.integers(0, 2)) == 0:  # ragged: short or long
            cut = draw(st.integers(shortest, len(rec) + 2))
        fields = rec[:cut] if cut <= len(rec) else rec + [("extra", False)] * (cut - len(rec))
        if fields and draw(st.integers(0, 4)) == 0:
            lines.append("")  # a blank line before the record
        lines.append(",".join(_field(f, q) for f, q in fields) if fields else "")
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = draw(st.sampled_from(["", "﻿"])) + newline.join(lines) + newline
    return text, responses


class TestIngestMatchesRowByRowReference:
    @settings(max_examples=300, deadline=None)
    @given(case=design_csvs(), n_per_cell=st.integers(1, 3), seed=st.integers(0, 2**31))
    def test_load_and_subsample(self, case, n_per_cell, seed):
        text, responses = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            path.write_text(text, encoding="utf-8", newline="")
            new = _outcome(load_design_csv, path, responses)
            ref = _outcome(_load_row_by_row, path, responses)
        assert new[0] == ref[0]
        if new[0] == "raised":
            assert new[1] == ref[1]
            return
        got, want = new[1], ref[1]
        assert (got.factor_a, got.factor_b, got.response_names) == (want.factor_a, want.factor_b, want.response_names)
        assert got.responses.shape == want.responses.shape
        assert got.responses.tobytes() == want.responses.tobytes()
        new_t = _outcome(subsample_balanced, got, n_per_cell, seed)
        ref_t = _outcome(_subsample_by_sorted_key, want, n_per_cell, seed)
        assert new_t[0] == ref_t[0]
        if new_t[0] == "raised":
            assert new_t[1] == ref_t[1]
            return
        assert (new_t[1].labels_a, new_t[1].labels_b) == (ref_t[1].labels_a, ref_t[1].labels_b)
        assert new_t[1].responses.tobytes() == ref_t[1].responses.tobytes()


@st.composite
def matrix_files(draw):
    """Matrix-file text and the error it must raise (``None`` if it is valid)."""
    d = draw(st.integers(1, 3))
    entries = st.floats(-1e6, 1e6, allow_nan=False, width=64)
    upper = {(i, j): draw(entries) for i in range(d) for j in range(i, d)}
    m = np.array([[upper[min(i, j), max(i, j)] for j in range(d)] for i in range(d)])
    tokens = [repr(float(v)) for v in m.ravel()]
    fault = draw(st.sampled_from(["none", "shape", "non-finite", "not-real", "asymmetric"]))
    if fault == "asymmetric" and d == 1:
        fault = "none"
    expected = None
    if fault == "shape":
        if draw(st.booleans()):
            del tokens[draw(st.integers(0, len(tokens) - 1))]
        else:
            tokens.append("1.0")
        expected = "expected"
    elif fault == "non-finite":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(["inf", "-inf", "nan", "1e400"]))
        expected = "must be finite"
    elif fault == "not-real":
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(["x", "1,0", "0x1"]))
        expected = "must be real numbers"
    elif fault == "asymmetric":
        i, j = sorted(draw(st.lists(st.integers(0, d - 1), min_size=2, max_size=2, unique=True)))
        k = i * d + j
        tokens[k] = repr(float(m[i, j] + 1.0 + abs(m).max()))
        expected = "not symmetric"
    bom = draw(st.sampled_from(["", "﻿"]))
    rows = [" ".join(tokens[k : k + d]) for k in range(0, len(tokens), d)]
    return bom + f"{d}\n" + "\n".join(rows) + "\n", m, expected


class TestMatrixFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(case=matrix_files())
    def test_error_classes(self, case):
        text, m, expected = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.txt"
            path.write_text(text, encoding="utf-8")
            if expected is None:
                assert np.array_equal(read_matrix_file(path).array, m)
            else:
                with pytest.raises(UnparseableValue, match=expected):
                    read_matrix_file(path)
