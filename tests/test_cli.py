"""End-to-end tests of the command-line surface and its exit codes."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import wishartmix
from wishartmix import (
    DegenerateDesign,
    DesignTable,
    McConfig,
    RandomEffect,
    RngStream,
    SimulationSpec,
    assert_pd,
    null_calibration,
    run_report,
    simulate_design,
)
from wishartmix.cli import EXIT_OK, EXIT_VALIDATION, EXIT_VERIFICATION, main


def write_design_csv(path, a=4, b=3, n_raw=6, dim=2, seed=123, effect_scale=9.0):
    """Synthetic long-format CSV with strong main effects, n_raw rows per cell."""
    spec = SimulationSpec(
        a, b, n_raw, dim, assert_pd(np.eye(dim)),
        effect_a=RandomEffect(assert_pd(effect_scale * np.eye(dim))),
        effect_b=RandomEffect(assert_pd(effect_scale * np.eye(dim))),
    )
    table = simulate_design(spec, RngStream(seed))
    names = [f"r{i + 1}" for i in range(dim)]
    lines = ["factor_a,factor_b," + ",".join(names)]
    for i in range(a):
        for j in range(b):
            for k in range(n_raw):
                vals = ",".join(repr(float(v)) for v in table.responses[i, j, k])
                lines.append(f"a{i},b{j},{vals}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path, names


class TestManovaCommand:
    def test_end_to_end_with_json(self, tmp_path, capsys):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        json_path = tmp_path / "report.json"
        code = main([
            "manova", "--input", str(csv_path), "--responses", ",".join(names),
            "--n-per-cell", "3", "--subsample-seed", "5", "--n-mc", "2000",
            "--mc-seed", "9", "--functional", "hotelling-lawley",
            "--json", str(json_path),
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "p_A" in out and "Beta Type II MANOVA" in out
        doc = json.loads(json_path.read_text())
        assert [f["name"] for f in doc["factors"]] == ["A", "B", "AB"]
        assert doc["config"]["n_mc"] == 2000
        assert doc["factors"][0]["p"]["p_hat"] <= 0.05  # strong effect

    def test_deterministic_output(self, tmp_path, capsys):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        args = [
            "manova", "--input", str(csv_path), "--responses", ",".join(names),
            "--n-per-cell", "3", "--subsample-seed", "5", "--n-mc", "1000", "--mc-seed", "9",
        ]
        assert main(args) == EXIT_OK
        first = capsys.readouterr().out
        assert main(args) == EXIT_OK
        assert capsys.readouterr().out == first

    def test_sigma_flag_does_not_change_pvalues(self, tmp_path, capsys):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("2\n3.0 1.0\n1.0 2.0\n", encoding="utf-8")
        base_json = tmp_path / "base.json"
        sig_json = tmp_path / "sig.json"
        common = [
            "manova", "--input", str(csv_path), "--responses", ",".join(names),
            "--n-per-cell", "3", "--subsample-seed", "5", "--n-mc", "1000", "--mc-seed", "9",
        ]
        assert main(common + ["--json", str(base_json)]) == EXIT_OK
        assert main(common + ["--sigma", str(sigma), "--json", str(sig_json)]) == EXIT_OK
        capsys.readouterr()
        base = json.loads(base_json.read_text())
        sig = json.loads(sig_json.read_text())
        for fb, fs in zip(base["factors"], sig["factors"]):
            assert fs["p"] == fb["p"]
            np.testing.assert_allclose(fs["eigenvalues"], fb["eigenvalues"], rtol=1e-8)

    def test_sigma_file_with_bom(self, tmp_path, capsys):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        sigma = tmp_path / "sigma.txt"
        sigma.write_bytes(b"\xef\xbb\xbf2\n3.0 1.0\n1.0 2.0\n")
        code = main([
            "manova", "--input", str(csv_path), "--responses", ",".join(names),
            "--n-per-cell", "3", "--n-mc", "1000", "--sigma", str(sigma),
        ])
        assert code == EXIT_OK
        assert "Beta Type II MANOVA" in capsys.readouterr().out
        sigma.write_text("2\n1.0 2.0\n2.0 1.0\n")
        code = main([
            "manova", "--input", str(csv_path), "--responses", ",".join(names),
            "--n-per-cell", "3", "--n-mc", "1000", "--sigma", str(sigma),
        ])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: sigma is not positive semidefinite")

    def test_response_named_twice_exit_two(self, tmp_path, capsys):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        code = main(["manova", "--input", str(csv_path), "--responses", "r1,r1", "--n-per-cell", "3"])
        assert code == EXIT_VALIDATION
        assert "response column 'r1' is named more than once" in capsys.readouterr().err

    def test_missing_file_is_validation_error(self, capsys):
        code = main(["manova", "--input", "/nonexistent.csv", "--responses", "x", "--n-per-cell", "2"])
        assert code == EXIT_VALIDATION

    def test_insufficient_cell_is_validation_error(self, tmp_path, capsys):
        csv_path, names = write_design_csv(tmp_path / "d.csv", n_raw=2)
        code = main([
            "manova", "--input", str(csv_path), "--responses", ",".join(names), "--n-per-cell", "5",
        ])
        assert code == EXIT_VALIDATION

    def test_overflowing_responses_exit_two(self, tmp_path, capsys):
        rows = [f"a{i},b{j},{1e200 * (i + j + k)!r}" for i in range(2) for j in range(2) for k in range(3)]
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("factor_a,factor_b,r1\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main(["manova", "--input", str(csv_path), "--responses", "r1", "--n-per-cell", "3"])
        assert code == EXIT_VALIDATION
        assert "overflow the sum of outer products" in capsys.readouterr().err

    def test_oversized_field_exit_two(self, tmp_path, capsys):
        # The csv module rejects fields over 131,072 characters.
        csv_path = tmp_path / "d.csv"
        csv_path.write_text(f"factor_a,factor_b,r1\na,b,1.0\na,b,{'9' * 200_000}\n", encoding="utf-8")
        code = main(["manova", "--input", str(csv_path), "--responses", "r1", "--n-per-cell", "1"])
        assert code == EXIT_VALIDATION
        err = capsys.readouterr().err
        assert f"{csv_path}: line 3: field larger than field limit" in err


class TestVerifyCommand:
    def test_passing_battery(self, capsys):
        code = main([
            "verify", "--dim", "1", "--dof", "4", "--n-draws", "20000",
            "--seed", "21", "--central", "--specs", "2",
        ])
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_underpowered_run_exits_three(self, capsys):
        # Below the minimum draw budget a report can never pass.
        code = main([
            "verify", "--dim", "1", "--dof", "4", "--n-draws", "2000",
            "--seed", "21", "--central", "--specs", "1",
        ])
        assert code == EXIT_VERIFICATION


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dim", "0", "--dof", "4", "--n-draws", "2000", "--seed", "21", "--specs", "1"],
        ["calibrate", "--a", "3", "--b", "3", "--n", "2", "--dim", "0", "--datasets", "4", "--seed", "6"],
    ],
)
def test_zero_dimension_exit_two(argv, capsys):
    assert main(argv) == EXIT_VALIDATION
    assert "non-empty square matrix" in capsys.readouterr().err


class TestSampleCommand:
    @pytest.mark.parametrize(
        "dist,params,columns",
        [
            ("chisq", {"dof": 3.0, "noncen": 1.5}, 1),
            ("wishart", {"dof": 4, "scale": [[2.0, 1.0], [1.0, 2.0]]}, 4),
            ("wishart", {"dof": 4, "scale": [[1.0, 0.0], [0.0, 1.0]], "noncen": [[1.0, 0.0], [0.0, 0.5]]}, 4),
            ("beta2", {"dof1": 4, "dof2": 10, "dim": 2}, 4),
            ("matrix-normal", {"rows": 3, "mean": [[0, 0], [1, 1], [2, 2]], "scale": [[1.0, 0.0], [0.0, 1.0]]}, 6),
        ],
    )
    def test_emits_csv(self, tmp_path, capsys, dist, params, columns):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(params), encoding="utf-8")
        code = main(["sample", "--dist", dist, "--params", str(pfile), "--n", "4", "--seed", "3"])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5  # header + 4 draws
        assert len(lines[0].split(",")) == columns
        values = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        assert np.all(np.isfinite(values))

    def test_bad_params_exit_two(self, tmp_path, capsys):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"dof": 2.5, "scale": [[1.0, 0.0], [0.0, 1.0]], "noncen": [[1.0, 0.0], [0.0, 1.0]]}))
        code = main(["sample", "--dist", "wishart", "--params", str(pfile), "--n", "2", "--seed", "3"])
        assert code == EXIT_VALIDATION  # noncentral sampling needs integer dof
        pfile.write_text(json.dumps({"dof": 4, "scale": [[1.0, 0.0], [0.0, 1.0]], "noncen": [[1.0, 2.0], [2.0, 1.0]]}))
        capsys.readouterr()
        code = main(["sample", "--dist", "wishart", "--params", str(pfile), "--n", "2", "--seed", "3"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith("error: noncen is not positive semidefinite")
        pfile.write_text("not json")
        assert main(["sample", "--dist", "chisq", "--params", str(pfile), "--n", "2", "--seed", "3"]) == EXIT_VALIDATION


    @pytest.mark.parametrize(
        "dist,params,name",
        [
            ("beta2", {"dof1": 4, "dof2": 10, "dim": 2.7}, "dim"),
            ("matrix-normal", {"rows": 1.9, "mean": [[0, 0]], "scale": [[1.0, 0.0], [0.0, 1.0]]}, "rows"),
        ],
    )
    def test_non_integral_size_exit_two(self, tmp_path, capsys, dist, params, name):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(params), encoding="utf-8")
        code = main(["sample", "--dist", dist, "--params", str(pfile), "--n", "2", "--seed", "3"])
        assert code == EXIT_VALIDATION
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dist,params",
        [
            ("wishart", '{"dof": 1e400, "scale": [[1.0, 0.0], [0.0, 1.0]]}'),
            ("beta2", '{"dof1": Infinity, "dof2": 10, "dim": 2}'),
            ("chisq", '{"dof": Infinity}'),
        ],
    )
    def test_infinite_dof_exit_two(self, tmp_path, capsys, dist, params):
        pfile = tmp_path / "p.json"
        pfile.write_text(params, encoding="utf-8")
        code = main(["sample", "--dist", dist, "--params", str(pfile), "--n", "2", "--seed", "3"])
        assert code == EXIT_VALIDATION
        assert "dof" in capsys.readouterr().err


class TestCalibrateCommand:
    def test_smoke(self, capsys):
        code = main([
            "calibrate", "--a", "3", "--b", "3", "--n", "2", "--dim", "2",
            "--datasets", "40", "--n-mc", "1000", "--seed", "6",
        ])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "factor A" in out and "KS" in out

    @pytest.mark.parametrize("a, b, n, dim, factor", [(2, 3, 2, 2, "A"), (3, 2, 2, 2, "B"), (2, 2, 2, 5, "A")])
    def test_undersized_design_names_the_factor(self, capsys, monkeypatch, a, b, n, dim, factor):
        # Library and command line reject the design alike, before any table is simulated.
        monkeypatch.setattr("wishartmix.mc.simulate_design", lambda *args, **kwargs: pytest.fail("table simulated"))
        message = f"factor {factor} has 1 degrees of freedom, which cannot support a {dim}-dimensional statistic"
        spec = SimulationSpec(a, b, n, dim, assert_pd(np.eye(dim)))
        with pytest.raises(DegenerateDesign, match=message):
            null_calibration(spec, 5, McConfig(n_mc=1000), RngStream(1))
        with pytest.raises(DegenerateDesign, match=message):
            run_report(DesignTable(np.zeros((a, b, n, dim))), McConfig(n_mc=1000))
        argv = ["calibrate", "--a", str(a), "--b", str(b), "--n", str(n), "--dim", str(dim), "--datasets", "5", "--seed", "1"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {message}")


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        # The child interpreter imports the same package as this process,
        # whether it is installed or only on pytest's path.
        src = os.path.dirname(os.path.dirname(wishartmix.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, "-m", "wishartmix", "manova", "--input", str(csv_path),
             "--responses", ",".join(names), "--n-per-cell", "3", "--n-mc", "1000"],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0
        assert "Beta Type II MANOVA" in result.stdout
