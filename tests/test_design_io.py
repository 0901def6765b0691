"""Tests for CSV ingestion, balanced subsampling, and report assembly."""

import numpy as np
import pytest

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
        perm = RngStream(4).generator().permutation(data.n_rows)
        shuffled = RawDataset(
            tuple(data.factor_a[i] for i in perm),
            tuple(data.factor_b[i] for i in perm),
            data.responses[perm],
            data.response_names,
        )
        t1 = subsample_balanced(data, 3, seed=5)
        t2 = subsample_balanced(shuffled, 3, seed=5)
        assert np.array_equal(t1.responses, t2.responses)

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
