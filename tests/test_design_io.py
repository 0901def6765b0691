"""Tests for CSV ingestion, balanced subsampling, and report assembly."""

import csv
import math
import re
import tempfile
from pathlib import Path
from unittest import mock

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
    NotPsd,
    RawDataset,
    RngStream,
    SpdMat,
    StatisticFunctional,
    UnparseableValue,
    ValidationError,
    load_design_csv,
    read_matrix_file,
    report_to_dict,
    report_to_text,
    run_report,
    subsample_balanced,
)
from wishartmix import design_io
from wishartmix.manova import _exact_pvalue, batched_statistic_eigs, factor_tests, sop_arrays


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
        with pytest.raises(MissingColumn, match="^at least one response column must be named$"):
            load_design_csv(p2, [])

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

    def test_factor_column_as_response_rejected(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["1,2,1.0,2.0", "3,4,3.5,-1.25"])
        with pytest.raises(ValidationError, match="^response column 'factor_a' is a factor column$"):
            load_design_csv(p, ["factor_a"])
        # checked before the file is opened
        with pytest.raises(ValidationError, match="^response column 'factor_b' is a factor column$"):
            load_design_csv(tmp_path / "absent.csv", ["r1", "factor_b"])

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


class TestLoadPastTheFirstBlock:
    """Files longer than one block of records: error order and physical line numbers."""

    @staticmethod
    def rows(n):
        return [f"a{k % 2},b{k % 3},{k}.5" for k in range(n)]

    def test_csv_error_wins_over_an_earlier_bad_value(self, tmp_path):
        rows = self.rows(700)
        rows[0] = "a0,b0,oops"  # line 2
        rows[601] = "a0,b0," + "9" * 200_000  # line 603, over the csv field limit
        p = write_csv(tmp_path / "d.csv", rows, header="factor_a,factor_b,y")
        with pytest.raises(ValidationError, match=r"^.*d\.csv: line 603: field larger than field limit \(131072\)$"):
            load_design_csv(p, ["y"])

    def test_decoding_error_wins_over_an_earlier_bad_value(self, tmp_path):
        rows = self.rows(2000)
        rows[10] = "a0,b0,nan"
        p = write_csv(tmp_path / "d.csv", rows, header="factor_a,factor_b,y")
        p.write_bytes(p.read_bytes() + b"a0,b0,\xff\n")  # after record 2,000
        with pytest.raises(ValidationError, match=r"d\.csv: not UTF-8 text \(invalid start byte\)$"):
            load_design_csv(p, ["y"])

    def test_bad_value_names_its_physical_line(self, tmp_path):
        rows = self.rows(800)
        rows[3:3] = ["", '"a\n0",b1,1.0', ""]  # two blank lines and a record spanning lines 6-7
        rows[650] = "a1,b1,-inf"  # record 649 of the file, ending on physical line 653
        p = write_csv(tmp_path / "d.csv", rows, header="factor_a,factor_b,y")
        with pytest.raises(UnparseableValue, match=r"^.*d\.csv: row 653, column 'y': '-inf' is not a finite number$"):
            load_design_csv(p, ["y"])
        assert _outcome(load_design_csv, p, ["y"]) == _outcome(_load_row_by_row, p, ["y"])

    def test_file_changed_between_reads(self, tmp_path):
        p = write_csv(tmp_path / "d.csv", ["a0,b0,x"], header="factor_a,factor_b,y")
        readers, csv_reader = [], csv.reader

        def reader(handle):
            if readers:  # the second read, the one that looks for the bad value, sees a mended file
                p.write_text(p.read_text().replace(",x", ",1.0"), encoding="utf-8")
            readers.append(csv_reader(handle))
            return readers[-1]

        with mock.patch.object(design_io.csv, "reader", reader):
            with pytest.raises(ValidationError, match=r"d\.csv: changed while it was read"):
                load_design_csv(p, ["y"])
        assert len(readers) == 2


def toy_dataset(counts: dict[tuple[str, str], int], dim=1, seed=0) -> RawDataset:
    gen = RngStream(seed).generator()
    fa, fb, rows = [], [], []
    for (la, lb), count in counts.items():
        for _ in range(count):
            fa.append(la)
            fb.append(lb)
            rows.append(gen.standard_normal(dim))
    return RawDataset.from_labels(tuple(fa), tuple(fb), np.array(rows), tuple(f"r{i}" for i in range(dim)))


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
        cells = [("zebra", "9"), ("apple", "9"), ("zebra", "10"), ("apple", "10")]
        data = RawDataset.from_labels(*zip(*cells), np.arange(4.0)[:, None], ("r0",))
        table = subsample_balanced(data, 1, seed=0)
        # responses[i, j] is the row of the i-th of ("apple", "zebra") and the j-th of ("10", "9")
        assert table.responses[:, :, 0, 0].tolist() == [[3.0, 1.0], [2.0, 0.0]]

    def test_invariant_to_row_permutation(self):
        data = toy_dataset({(a, b): 6 for a in "xyz" for b in "uv"}, dim=2, seed=3)
        # the same data plus fully duplicated records and a 0.0 / -0.0 pair tied in one cell
        dup = [0, 0, 5, 7]
        zeros = np.array([[0.0, 1.5], [-0.0, 1.5], [0.0, 1.5]])
        with_ties = RawDataset.from_labels(
            data.factor_a + tuple(data.factor_a[i] for i in dup) + ("y",) * 3,
            data.factor_b + tuple(data.factor_b[i] for i in dup) + ("v",) * 3,
            np.concatenate([data.responses, data.responses[dup], zeros]),
            data.response_names,
        )
        for raw in (data, with_ties):
            perm = RngStream(4).generator().permutation(raw.n_rows)
            shuffled = RawDataset.from_labels(
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

    @pytest.mark.parametrize("n_per_cell", [1, 2, 3, 4, 5])
    def test_large_tied_cell_matches_sorted_key(self, n_per_cell):
        # one cell of 6,000 rows whose first response takes five values, signed zeros among
        # them, and whose records repeat exactly; a small second cell beside it
        gen = np.random.default_rng(n_per_cell)
        big = np.column_stack([gen.choice([-0.0, 0.0, -1.0, 1.0, 2.5], 6000), gen.choice([0.5, -0.0, 0.0, 3.0], 6000)])
        data = RawDataset.from_labels(
            ("a",) * 6000 + ("c",) * 7,
            ("b",) * 6007,
            np.concatenate([big, gen.standard_normal((7, 2))]),
            ("r1", "r2"),
        )
        for seed in range(3):
            got = subsample_balanced(data, n_per_cell, seed)
            assert got.responses.tobytes() == _subsample_by_sorted_key(data, n_per_cell, seed).responses.tobytes()

    def test_nan_responses_sort_last(self):
        # NaN sorts after every number yet equals nothing, so a subsample that
        # chose a NaN row would fail and one that did not would pass; the dataset
        # refuses NaN before any row is chosen, so every seed fails alike.
        values = np.random.default_rng(5).choice([np.nan, -1.0, 0.0, 2.0], size=(400, 2), p=[0.04, 0.32, 0.32, 0.32])
        for seed in range(12):
            with pytest.raises(ValidationError, match="^responses must be finite$"):
                subsample_balanced(RawDataset.from_labels(("a",) * 400, ("b",) * 400, values, ("r1", "r2")), 5, seed)

    @pytest.mark.parametrize("rows_a,rows_b,rows_y", [(1, 8, 8), (8, 7, 8), (8, 8, 5)])
    def test_row_counts_must_match(self, rows_a, rows_b, rows_y):
        # one label would broadcast over every row, and short responses index out of range
        labels_a, labels_b, y = ("a", "b") * 4, ("u", "v") * 4, np.arange(float(rows_y))[:, None]
        message = f"factor_a, factor_b and responses hold {rows_a}, {rows_b} and {rows_y} rows; they must match"
        with pytest.raises(ValidationError, match=f"^{message}$"):
            RawDataset.from_labels(labels_a[:rows_a], labels_b[:rows_b], y, ("y",))

    def test_seed_changes_selection(self):
        data = toy_dataset({(a, b): 10 for a in "xy" for b in "uv"}, seed=6)
        t1 = subsample_balanced(data, 3, seed=1)
        t2 = subsample_balanced(data, 3, seed=2)
        assert not np.array_equal(t1.responses, t2.responses)


class TestRawDataset:
    """Each factor's levels coded once: sorted distinct labels and an ``(n_rows, 2)`` code array."""

    def test_from_labels_codes_sorted_trimmed_levels(self):
        data = RawDataset.from_labels(("y", " x", "y", "x "), ("10", "9", "9", "10"), np.arange(4.0)[:, None], ("r",))
        assert (data.levels_a, data.levels_b) == (("x", "y"), ("10", "9"))
        assert data.codes.tolist() == [[1, 0], [0, 1], [1, 1], [0, 0]]
        assert data.codes.dtype == np.intp
        assert (data.factor_a, data.factor_b) == (("y", "x", "y", "x"), ("10", "9", "9", "10"))
        assert (data.n_rows, data.dim) == (4, 1)

    def test_labels_are_read_only(self):
        data = RawDataset.from_labels(("a",), ("b",), np.ones((1, 1)), ("r",))
        with pytest.raises(AttributeError):
            data.factor_a = ("c",)

    @staticmethod
    def build(**changes):
        fields = {
            "levels_a": ("a",),
            "levels_b": ("b", "c"),
            "codes": np.array([[0, 0], [0, 1]]),
            "responses": np.array([[1.0], [2.0]]),
            "response_names": ("r",),
        }
        return RawDataset(**{**fields, **changes})

    def test_valid_fields_pass(self):
        assert self.build().factor_b == ("b", "c")

    def test_one_dimensional_responses_rejected(self):
        # they used to pass, and subsample_balanced then failed with an IndexError
        with pytest.raises(ValidationError, match="^responses must be a 2-D float array"):
            RawDataset.from_labels(("a", "a"), ("b", "b"), np.array([1.0, 2.0]), ("r",))

    def test_list_responses_rejected(self):
        with pytest.raises(ValidationError, match="^responses must be a 2-D float array"):
            RawDataset.from_labels(("a", "a"), ("b", "b"), [[1.0], [2.0]], ("r",))

    def test_integer_responses_rejected(self):
        with pytest.raises(ValidationError, match="^responses must be a 2-D float array"):
            self.build(responses=np.array([[1], [2]]))

    def test_one_column_per_response_name(self):
        with pytest.raises(ValidationError, match=r"^responses .* one column per response name \(2\)$"):
            self.build(response_names=("r", "s"))

    def test_response_names_must_be_distinct(self):
        with pytest.raises(ValidationError, match=r"^response_names \('r', 'r'\) must be distinct$"):
            RawDataset.from_labels(("a", "a"), ("b", "b"), np.ones((2, 2)), ("r", "r"))

    @pytest.mark.parametrize(
        "codes",
        [np.array([0, 1]), np.array([[0, 0, 0], [0, 1, 0]]), np.array([[0, 0]]), np.array([[0.0, 0.0], [0.0, 1.0]])],
        ids=["one-dimensional", "three-columns", "one-row", "float"],
    )
    def test_codes_shape_and_type(self, codes):
        with pytest.raises(ValidationError, match=r"^codes must be integers of shape \(2, 2\) indexing levels_a and levels_b$"):
            self.build(codes=codes)

    @pytest.mark.parametrize("codes", [[[0, 0], [1, 1]], [[0, 0], [0, 2]], [[0, -1], [0, 1]]], ids=["a", "b", "negative"])
    def test_codes_must_index_the_levels(self, codes):
        with pytest.raises(ValidationError, match="^codes must be integers of shape"):
            self.build(codes=np.array(codes))

    @pytest.mark.parametrize("name,levels", [("levels_a", ("b", "a")), ("levels_b", ("b", "b")), ("levels_b", ("c", "b"))])
    def test_levels_strictly_increasing(self, name, levels):
        codes = np.array([[0, 0], [0, 1]])
        with pytest.raises(ValidationError, match=f"^{name} must be strictly increasing$"):
            self.build(**{name: levels}, codes=codes)


class TestRunReport:
    def test_constant_responses_degenerate(self):
        table = DesignTable(np.full((3, 3, 2, 2), 5.0))
        report = run_report(table, McConfig(n_mc=2000, seed=1))
        for fr in report.factors:
            assert fr.observed == 0.0
            assert fr.p.p_hat == 1.0

    def test_constant_d1_responses_have_exact_pvalue_one(self):
        report = run_report(DesignTable(np.full((3, 3, 2, 1), 5.0)), McConfig(n_mc=1000, seed=1))
        assert [fr.p_exact for fr in report.factors] == [1.0, 1.0, 1.0]
        (row,) = [line for line in report_to_text(report, ("y",)).splitlines() if line.startswith("Variance-component")]
        assert row.split()[-4:] == ["y", "1.0000", "1.0000", "1.0000"]

    @pytest.mark.parametrize("constant", [True, False], ids=["constant", "varying"])
    @pytest.mark.parametrize(
        "sigma, error, message",
        [
            ([[1.0, 1.0], [1.0, 1.0]], NotPsd, "sigma must be positive definite"),
            (np.eye(3), ValueError, "sigma is 3x3 but the SOPs are 2-dimensional"),
        ],
        ids=["singular", "wrong-size"],
    )
    def test_sigma_checked_before_any_work(self, monkeypatch, constant, sigma, error, message):
        # All-constant responses skip the statistic, so sigma must be checked
        # up front, before the SOP and any Monte Carlo, whatever the data.
        import wishartmix.design_io as design_io_mod

        def never(*args):
            raise AssertionError("run_report did work before checking sigma")

        monkeypatch.setattr(design_io_mod, "sop_arrays", never)
        monkeypatch.setattr(design_io_mod, "mc_pvalue", never)
        gen = RngStream(7).generator()
        responses = np.full((3, 4, 3, 2), 5.0) if constant else gen.standard_normal((3, 4, 3, 2))
        with pytest.raises(error, match=message):
            run_report(DesignTable(responses), McConfig(n_mc=1000, seed=1), sigma)

    def test_sigma_that_overflows_the_conjugated_sops_is_named(self):
        table = DesignTable(RngStream(7).generator().standard_normal((3, 4, 3, 2)))
        with pytest.raises(ValidationError, match=r"^the SOPs overflow when conjugated by sigma\^\(-1/2\); rescale sigma$"):
            run_report(table, McConfig(n_mc=1000, seed=1), SpdMat(1e-320 * np.eye(2)))

    def test_univariate_rows_present_only_for_d1(self):
        gen = RngStream(2).generator()
        r1 = run_report(DesignTable(gen.standard_normal((3, 3, 2, 1))), McConfig(n_mc=1000, seed=1))
        assert all(fr.p_exact is not None for fr in r1.factors)
        r2 = run_report(DesignTable(gen.standard_normal((3, 3, 2, 2))), McConfig(n_mc=1000, seed=1))
        assert all(fr.p_exact is None for fr in r2.factors)
        # The text report renders the F p-values as their own row, at 4 decimals.
        (row,) = [line for line in report_to_text(r1, ("y",)).splitlines() if line.startswith("Variance-component")]
        assert row.split()[-4:] == ["y", *(f"{fr.p_exact:.4f}" for fr in r1.factors)]
        assert "Variance-component" not in report_to_text(r2, ("u", "v"))

    def test_d1_report_computes_the_sop_once(self, monkeypatch):
        import wishartmix.design_io as design_io_mod

        table = DesignTable(RngStream(6).generator().standard_normal((3, 4, 3, 1)))
        sops = sop_arrays(table.responses)
        expected = [
            _exact_pvalue(batched_statistic_eigs(sops[t.num], sops[t.den]), t.dof_num, t.dof_den)
            for t in factor_tests(table.levels_a, table.levels_b, table.reps, table.dim)
        ]
        calls = []

        def counting(y):
            calls.append(y)
            return sop_arrays(y)

        monkeypatch.setattr(design_io_mod, "sop_arrays", counting)
        report = run_report(table, McConfig(n_mc=1000, seed=1))
        assert len(calls) == 1
        assert [fr.p_exact for fr in report.factors] == expected

    def test_structure_and_echo(self):
        gen = RngStream(3).generator()
        table = DesignTable(gen.standard_normal((4, 3, 2, 2)))
        cfg = McConfig(n_mc=1500, seed=77, functional=StatisticFunctional.PILLAI)
        report = run_report(table, cfg)
        assert [fr.name for fr in report.factors] == ["A", "B", "AB"]
        assert report.shape == (4, 3, 2, 2)
        assert report.cfg == cfg
        d = report_to_dict(report)
        assert list(d["config"].items()) == [
            ("functional", "pillai"), ("n_mc", 1500), ("seed", 77), ("a", 4), ("b", 3), ("n", 2), ("d", 2)
        ]
        assert len(d["factors"][0]["eigenvalues"]) == 2
        text = report_to_text(report, ("u", "v"))
        assert "p_A" in text and "(u, v)" in text

    def test_random_interaction_report_names_each_denominator(self):
        table = DesignTable(RngStream(5).generator().standard_normal((4, 3, 2, 2)))
        cfg = McConfig(n_mc=1000, seed=3)
        fixed, random = (run_report(table, cfg, interaction=mode) for mode in ("fixed", "random"))
        assert [fr.denominator for fr in fixed.factors] == ["E", "E", "E"]
        assert [fr.denominator for fr in random.factors] == ["AB", "AB", "E"]
        # AB is tested against E in both modes.
        assert fixed.factors[2] == random.factors[2]
        d_fixed, d_random = report_to_dict(fixed), report_to_dict(random)
        assert "interaction" not in d_fixed["config"] and all("denominator" not in f for f in d_fixed["factors"])
        assert d_random["config"]["interaction"] == "random"
        assert [(f["name"], f["denominator"]) for f in d_random["factors"]] == [("A", "AB"), ("B", "AB"), ("AB", "E")]
        t_fixed, t_random = report_to_text(fixed).splitlines(), report_to_text(random).splitlines()
        assert t_random[1] == t_fixed[1] + ", interaction = random"
        assert t_random[4].split() == ["Tested", "against", "SOP", "AB", "AB", "E"]
        assert len(t_random) == len(t_fixed) + 1

    def test_sigma_invariance(self):
        gen = RngStream(4).generator()
        table = DesignTable(gen.standard_normal((3, 3, 3, 2)))
        cfg = McConfig(n_mc=1000, seed=5)
        base = run_report(table, cfg)
        for _ in range(3):
            g = gen.standard_normal((2, 2))
            sigma = SpdMat(g @ g.T + 0.5 * np.eye(2))
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

    @pytest.mark.parametrize(
        "text,error,message",
        [
            ("", EmptyFile, "{}: empty matrix file"),
            ("x\n1\n", UnparseableValue, "{}: first token must be the dimension, got 'x'"),
        ],
        ids=["empty", "no-dimension"],
    )
    def test_header_rejected(self, tmp_path, text, error, message):
        p = tmp_path / "m.txt"
        p.write_text(text, encoding="utf-8")
        with pytest.raises(error, match=f"^{re.escape(message.format(p))}$") as info:
            read_matrix_file(p)
        assert type(info.value) is error

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
    return RawDataset.from_labels(tuple(a_labels), tuple(b_labels), np.array(values), tuple(response_columns))


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
    return DesignTable(out)


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # compared by class and message
        return "raised", (type(exc), str(exc))


def _field(text: str, quote: bool) -> str:
    if quote or any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


LABELS = ["a", "b", " a ", "b\t", "a,b", "x\ny", "", "\x1ca", " b"]
FINITE_TOKENS = ["-0.0", "0.0", "0", "1_0", " 2.5 ", "\x1c3\x1c", "1e-300", "-7", "\xa04 ", "5\x85", "\x1f6", "7\x1d"]
BAD_TOKENS = ["inf", "-inf", "nan", "1e400", "x", "", "1__0", "\x003", "\xa0", "\x1f", "8\x1c9", "\x1cnan"]
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
        self.check(case, n_per_cell, seed)

    @settings(max_examples=200, deadline=None)
    @given(case=design_csvs(), n_per_cell=st.integers(1, 3), seed=st.integers(0, 2**31), block=st.sampled_from([1, 3]))
    def test_load_and_subsample_across_blocks(self, case, n_per_cell, seed, block):
        # so few records per block that every file spans several blocks
        with mock.patch.object(design_io, "_BLOCK_RECORDS", block):
            self.check(case, n_per_cell, seed)

    @staticmethod
    def check(case, n_per_cell, seed):
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
        assert new_t[1].responses.tobytes() == ref_t[1].responses.tobytes()


def test_wide_factor_matches_row_by_row_reference(tmp_path):
    # 300 factor_b levels, so codes pass one byte; labels quoted and padded, responses padded with
    # whitespace float() skips (\xa0, tabs) and with what it does not (\x1c), across several blocks
    gen = np.random.default_rng(11)
    lines = ["factor_a,factor_b,y1,y2"]
    for k in range(3 * 2 * 300):
        j = int(gen.integers(300))
        label_b = f'" b{j} "' if k % 7 == 0 else f"b{j}"
        y1, y2 = (repr(float(v)) for v in gen.standard_normal(2))
        pad = ["", "\xa0", "\t", "\x1c"][k % 4] if k % 5 else ""
        lines.append(f"{' a' if k % 3 else 'c '},{label_b},{pad}{y1}{pad},{y2}")
    for j in range(300):  # at least two rows in every cell
        lines += [f"a,b{j},{j}.5,1", f"c,b{j},-{j}.5,2", f"a,b{j},{j}.25,3", f"c,b{j},-{j}.25,4"]
    path = tmp_path / "wide.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    got, want = load_design_csv(path, ["y1", "y2"]), _load_row_by_row(path, ["y1", "y2"])
    assert len(got.levels_b) == 300 and got.codes.max() > 255
    assert (got.factor_a, got.factor_b) == (want.factor_a, want.factor_b)
    assert got.responses.tobytes() == want.responses.tobytes()
    for seed in range(3):
        table = subsample_balanced(got, 2, seed)
        assert table.responses.shape == (2, 300, 2, 2)
        assert table.responses.tobytes() == _subsample_by_sorted_key(want, 2, seed).responses.tobytes()


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
