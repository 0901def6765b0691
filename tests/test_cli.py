"""End-to-end tests of the command-line surface and its exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wishartmix
from wishartmix import (
    DegenerateDesign,
    DesignTable,
    McConfig,
    RandomEffect,
    MixtureSpec,
    RngStream,
    SimulationSpec,
    SpdMat,
    mixture_marginal_params,
    null_calibration,
    run_report,
    simulate_design,
    verify_closure,
)
from wishartmix.cli import EXIT_OK, EXIT_VALIDATION, EXIT_VERIFICATION, main
from wishartmix.closure import MIN_VERIFY_DRAWS, VERIFY_ALPHA


def write_design_csv(path, a=4, b=3, n_raw=6, dim=2, seed=123, effect_scale=9.0):
    """Synthetic long-format CSV with strong main effects, n_raw rows per cell."""
    spec = SimulationSpec(
        a, b, n_raw, dim, SpdMat(np.eye(dim)),
        effect_a=RandomEffect(SpdMat(effect_scale * np.eye(dim))),
        effect_b=RandomEffect(SpdMat(effect_scale * np.eye(dim))),
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

    @pytest.mark.parametrize(
        "sigma_text, message",
        [
            ("2\n1 1\n1 1\n", "error: sigma must be positive definite"),
            ("3\n1 0 0\n0 1 0\n0 0 1\n", "error: sigma is 3x3 but the SOPs are 2-dimensional"),
        ],
        ids=["singular", "wrong-size"],
    )
    def test_bad_sigma_on_constant_responses_exit_two(self, tmp_path, capsys, sigma_text, message):
        rows = [f"a{i},b{j},1.5,-2" for i in range(3) for j in range(4) for _ in range(3)]
        csv_path = tmp_path / "const.csv"
        csv_path.write_text("factor_a,factor_b,r1,r2\n" + "\n".join(rows) + "\n", encoding="utf-8")
        sigma = tmp_path / "sigma.txt"
        sigma.write_text(sigma_text, encoding="utf-8")
        code = main([
            "manova", "--input", str(csv_path), "--responses", "r1,r2",
            "--n-per-cell", "3", "--n-mc", "1000", "--sigma", str(sigma),
        ])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(message)

    def test_overflowing_sigma_exit_two(self, tmp_path, capsys):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("2\n1.7e308 1e308\n1e308 1.7e308\n", encoding="utf-8")
        code = main([
            "manova", "--input", str(csv_path), "--responses", ",".join(names),
            "--n-per-cell", "3", "--n-mc", "1000", "--sigma", str(sigma),
        ])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sigma has an eigenvalue that overflows float64; rescale sigma\n"

    def test_sigma_read_before_any_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("wishartmix.design_io.load_design_csv", lambda *args: pytest.fail("work began"))
        sigma = tmp_path / "sigma.txt"
        sigma.write_text("2\n1.0 0.5\n0.2 1.0\n", encoding="utf-8")
        code = main(["manova", "--input", "data.csv", "--responses", "r1,r2", "--n-per-cell", "3", "--sigma", str(sigma)])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {sigma}: matrix is not symmetric\n")

    def test_response_named_twice_exit_two(self, tmp_path, capsys):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        code = main(["manova", "--input", str(csv_path), "--responses", "r1,r1", "--n-per-cell", "3"])
        assert code == EXIT_VALIDATION
        assert "response column 'r1' is named more than once" in capsys.readouterr().err

    def test_factor_column_as_response_exit_two(self, tmp_path, capsys):
        # numeric level labels would otherwise parse as responses
        rows = [f"{i},{j},{i + 0.5 * k}" for i in range(3) for j in range(2) for k in range(3)]
        csv_path = tmp_path / "d.csv"
        csv_path.write_text("factor_a,factor_b,y\n" + "\n".join(rows) + "\n", encoding="utf-8")
        code = main(["manova", "--input", str(csv_path), "--responses", "factor_a", "--n-per-cell", "3"])
        assert code == EXIT_VALIDATION
        assert capsys.readouterr() == ("", "error: response column 'factor_a' is a factor column\n")

    def test_missing_file_is_validation_error(self, capsys):
        code = main(["manova", "--input", "/nonexistent.csv", "--responses", "x", "--n-per-cell", "2"])
        assert code == EXIT_VALIDATION

    def test_failed_run_leaves_no_json(self, tmp_path, capsys):
        json_path = tmp_path / "report.json"
        code = main([
            "manova", "--input", "/nonexistent.csv", "--responses", "x", "--n-per-cell", "2", "--json", str(json_path),
        ])
        assert code == EXIT_VALIDATION
        assert not json_path.exists()

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


@st.composite
def sigma_files(draw):
    """Bytes of a ``--sigma`` matrix file of dimension 1-4, valid or broken in one way, at any scale."""
    d = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["pd", "asymmetric", "not-psd", "psd-singular", "non-finite", "wrong-d", "empty"]))
    g = np.array(draw(st.lists(st.integers(-3, 3), min_size=d * d, max_size=d * d)), dtype=float).reshape(d, d)
    if kind == "psd-singular":
        m = g[:, 1:] @ g[:, 1:].T  # rank below d
    else:
        m = g @ g.T + draw(st.integers(1, 3)) * np.eye(d)
    if kind == "not-psd":
        m[0, 0] = -1.0
    with np.errstate(over="ignore"):
        m = m * float(f"1e{draw(st.integers(-324, 308))}")
    tokens = [repr(float(v)) for v in m.ravel()]
    if kind == "asymmetric" and d > 1:
        tokens[1] = repr(float(m[0, 1]) + 1.0 + float(np.abs(m).max()))
    elif kind == "non-finite":
        tokens[draw(st.integers(0, d * d - 1))] = draw(st.sampled_from(["inf", "-inf", "nan", "1e400"]))
    elif kind == "wrong-d":
        tokens = tokens[: draw(st.integers(0, d * d - 1))]
    rows = [" ".join(tokens[k : k + d]) for k in range(0, len(tokens), d)]
    text = "" if kind == "empty" else f"{d}\n" + "\n".join(rows) + "\n"
    return draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + text.encode()


@pytest.fixture(scope="module")
def small_d2_csv(tmp_path_factory):
    return write_design_csv(tmp_path_factory.mktemp("fuzz") / "d.csv", a=3, b=3, n_raw=3)


class TestSigmaFileFuzz:
    @settings(max_examples=200, deadline=None)
    @given(text=sigma_files())
    # A PD sigma near the subnormal floor: sigma^(-1/2) overflows the conjugated SOPs, which once
    # printed an overflow warning and a misleading "observed statistic must be finite" error.
    @example(text=b"2\n1e-320 0\n0 1e-320\n")
    def test_exit_zero_or_one_error_line(self, small_d2_csv, text):
        csv_path, names = small_d2_csv
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            sigma = Path(tmp) / "sigma.txt"
            sigma.write_bytes(text)
            argv = ["manova", "--input", str(csv_path), "--responses", ",".join(names), "--n-per-cell", "3",
                    "--n-mc", "1000", "--sigma", str(sigma)]
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")  # as outside this suite, where each warning prints a line
                    code = main(argv)
        lines = [f"warning: {w.message}" for w in caught] + err.getvalue().splitlines()
        if code == EXIT_OK:
            assert lines == []
            assert "Beta Type II MANOVA" in out.getvalue()
        else:
            assert code == EXIT_VALIDATION
            assert out.getvalue() == ""
            assert len(lines) == 1 and lines[0].startswith("error: "), lines


class TestVerifyCommand:
    def test_passing_battery(self, capsys):
        code = main([
            "verify", "--dim", "1", "--dof", "4", "--n-draws", "20000",
            "--seed", "21", "--central", "--specs", "2",
        ])
        assert code == EXIT_OK
        assert "PASS" in capsys.readouterr().out

    def test_underpowered_run_exits_three(self, capsys):
        # Below the minimum draw budget a report can never pass, and says why.
        code = main([
            "verify", "--dim", "1", "--dof", "4", "--n-draws", "2000",
            "--seed", "21", "--central", "--specs", "1",
        ])
        assert code == EXIT_VERIFICATION
        (spec_line, _) = capsys.readouterr().out.splitlines()
        assert spec_line.startswith("spec  1/1: FAIL")
        assert spec_line.endswith(f"  (fewer than {MIN_VERIFY_DRAWS} draws, cannot pass)")

    def test_json_replays_from_its_provenance(self, tmp_path, capsys):
        json_path = tmp_path / "v.json"
        argv = ["verify", "--dim", "2", "--dof", "4", "--n-draws", "10000", "--seed", "5", "--specs", "2"]
        assert main([*argv, "--json", str(json_path)]) == EXIT_OK
        entries = json.loads(json_path.read_text())
        assert [e["stream"] for e in entries] == [{"seed": 5, "stream_index": 1000 + k} for k in range(2)]
        for entry in entries:
            s = entry["spec"]
            spec = MixtureSpec(
                s["dof"], *(SpdMat(np.array(s[name])) for name in ("inner_scale", "mixing_scale", "coupling", "mixing_noncen"))
            )
            predicted = mixture_marginal_params(spec)
            assert entry["predicted"] == {
                "dof": predicted.dof, "scale": predicted.scale.array.tolist(), "noncen": predicted.noncen.array.tolist(),
            }
            report = verify_closure(spec, entry["n_draws"], RngStream(**entry["stream"]))
            assert {k: entry[k] for k in report.to_dict()} == report.to_dict()
            assert entry["alpha"] == VERIFY_ALPHA

    @pytest.mark.parametrize("command", ["verify", "manova"])
    def test_unwritable_json_fails_before_any_work(self, tmp_path, capsys, command):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        target = tmp_path / "missing" / "x.json"
        args = {
            "verify": ["--dim", "2", "--dof", "4", "--n-draws", "20000", "--seed", "1", "--specs", "2"],
            "manova": ["--input", str(csv_path), "--responses", ",".join(names), "--n-per-cell", "3", "--n-mc", "1000"],
        }[command]
        code = main([command, *args, "--json", str(target)])
        assert code == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"error: cannot write the report to {target}: No such file or directory"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--dim", "0", "--dof", "4", "--n-draws", "2000", "--seed", "21", "--specs", "1"],
        ["calibrate", "--a", "3", "--b", "3", "--n", "2", "--dim", "0", "--datasets", "4", "--seed", "6"],
        ["verify", "--dim", "-1", "--dof", "4", "--n-draws", "2000", "--seed", "21", "--specs", "1"],
        ["calibrate", "--a", "3", "--b", "3", "--n", "2", "--dim", "-1", "--datasets", "4", "--seed", "6"],
    ],
)
def test_zero_dimension_exit_two(argv, capsys):
    assert main(argv) == EXIT_VALIDATION
    dim = argv[argv.index("--dim") + 1]
    assert capsys.readouterr().err == f"error: --dim must be a positive integer, got {dim}\n"


@pytest.mark.parametrize("kind", ["input", "sigma", "params"])
def test_file_not_utf8_is_named(tmp_path, capsys, kind):
    # Each file the command line reads fails by its path, not with a bare codec error.
    csv_path, names = write_design_csv(tmp_path / "d.csv")
    bad = tmp_path / "bad"
    texts = {"input": b"factor_a,factor_b,r1\na,b,1\xff\n", "sigma": b"1\n\xff\n", "params": b'{"dof": 3\xff}'}
    bad.write_bytes(texts[kind])
    argv = {
        "input": ["manova", "--input", str(bad), "--responses", "r1", "--n-per-cell", "1"],
        "sigma": ["manova", "--input", str(csv_path), "--responses", ",".join(names), "--n-per-cell", "3",
                  "--sigma", str(bad)],
        "params": ["sample", "--dist", "chisq", "--params", str(bad), "--n", "2", "--seed", "3"],
    }[kind]
    assert main(argv) == EXIT_VALIDATION
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "cannot read parameter file {}: 'utf-8' codec" if kind == "params" else "{}: not UTF-8 text"
    assert captured.err.startswith("error: " + message.format(bad))


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

    def test_overflowing_beta2_exit_two(self, tmp_path, capsys):
        # dof2 near d - 1 overflows the draws: one error line, and no warning line or rows.
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"dof1": 2, "dof2": 1.001, "dim": 2}), encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("always")  # as outside this suite, where a warning prints and the run goes on
            code = main(["sample", "--dist", "beta2", "--params", str(pfile), "--n", "3", "--seed", "1"])
        assert code == EXIT_VALIDATION
        message = "Beta II draws overflow at dof1 = 2.0, dof2 = 1.001, d = 2: dof2 is too close to d - 1"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_overflowing_wishart_exit_two(self, tmp_path, capsys):
        # A scale near the float64 limit overflows the draws: one error line, and no rows.
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"dof": 3, "scale": [[1e308, 0], [0, 1e308]]}), encoding="utf-8")
        code = main(["sample", "--dist", "wishart", "--params", str(pfile), "--n", "2", "--seed", "1"])
        assert code == EXIT_VALIDATION
        message = "--dist wishart draws overflow float64: the parameters are too large"
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize(
        "dist,params,key,accepted",
        [
            ("chisq", {"dof": 3, "scale": [[1.0]]}, "scale", "dof, noncen"),
            ("wishart", {"dof": 4, "scale": [[1.0, 0.0], [0.0, 1.0]], "non_cen": [[1.0, 0.0], [0.0, 1.0]]},
             "non_cen", "dof, scale, noncen"),
            ("beta2", {"dof1": 4, "dof2": 10, "dim": 2, "scale": [[1.0, 0.0], [0.0, 1.0]]}, "scale", "dof1, dof2, dim"),
            ("matrix-normal", {"rows": 1, "mean": [[0, 0]], "scale": [[1.0, 0.0], [0.0, 1.0]], "dof": 3},
             "dof", "rows, mean, scale"),
        ],
    )
    def test_unknown_key_exit_two(self, tmp_path, capsys, dist, params, key, accepted):
        # A misspelled key must not fall back to a default (central draws for
        # "non_cen"); it fails before any draw is written.
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(params), encoding="utf-8")
        code = main(["sample", "--dist", dist, "--params", str(pfile), "--n", "2", "--seed", "3"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unknown parameter {key!r} for --dist {dist}; accepted: {accepted}" in captured.err

    @pytest.mark.parametrize(
        "dist,params,key",
        [
            ("chisq", {"dof": 3.0}, "noncen"),
            ("wishart", {"dof": 2.5, "scale": [[2.0, 1.0], [1.0, 2.0]]}, "noncen"),
            ("beta2", {"dof1": 4, "dof2": 10}, "dim"),
        ],
    )
    def test_null_key_reads_as_absent(self, tmp_path, capsys, dist, params, key):
        pfile = tmp_path / "p.json"
        argv = ["sample", "--dist", dist, "--params", str(pfile), "--n", "3", "--seed", "3"]
        outputs = []
        for obj in (params, {**params, key: None}):
            pfile.write_text(json.dumps(obj), encoding="utf-8")
            assert main(argv) == EXIT_OK
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[1, 2]", "{}: parameter file must hold a JSON object"),
            ('{"dof": 4, "scale": [[1, 0], [0]]}', "parameter 'scale' is not a numeric array"),
        ],
        ids=["not-an-object", "ragged-matrix"],
    )
    def test_malformed_params_exit_two(self, tmp_path, capsys, text, message):
        pfile = tmp_path / "p.json"
        pfile.write_text(text, encoding="utf-8")
        assert main(["sample", "--dist", "wishart", "--params", str(pfile), "--n", "2", "--seed", "3"]) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {message.format(pfile)}\n")

    @pytest.mark.parametrize(
        "dist,params,key",
        [
            ("chisq", {"noncen": 1.0}, "dof"),
            ("wishart", {"dof": 4}, "scale"),
            ("beta2", {"dof1": None, "dof2": 10}, "dof1"),
            ("matrix-normal", {"rows": 2, "scale": [[1.0, 0.0], [0.0, 1.0]]}, "mean"),
        ],
    )
    def test_missing_required_key_exit_two(self, tmp_path, capsys, dist, params, key):
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(params), encoding="utf-8")
        code = main(["sample", "--dist", dist, "--params", str(pfile), "--n", "2", "--seed", "3"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"missing parameter {key!r} for --dist {dist}" in captured.err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sample", "--dist", "chisq", "--n", "0", "--seed", "3"], "--n must be a positive integer, got 0"),
            (["verify", "--dim", "1", "--dof", "4", "--n-draws", "2000", "--seed", "1", "--specs", "0"],
             "--specs must be a positive integer, got 0"),
            (["verify", "--dim", "2", "--dof", "4", "--n-draws", "0", "--seed", "1", "--specs", "1"],
             "--n-draws must be a positive integer, got 0"),
            (["calibrate", "--a", "3", "--b", "3", "--n", "2", "--dim", "2", "--datasets", "4", "--n-mc", "0", "--seed", "6"],
             "--n-mc must be a positive integer, got 0"),
            (["calibrate", "--a", "3", "--b", "3", "--n", "2", "--dim", "2", "--datasets", "-1", "--seed", "6"],
             "--datasets must be a positive integer, got -1"),
            # Zero datasets would print an empty calibration and exit 0.
            (["calibrate", "--a", "3", "--b", "3", "--n", "2", "--dim", "2", "--datasets", "0", "--seed", "6"],
             "--datasets must be a positive integer, got 0"),
            (["manova", "--input", "data.csv", "--responses", "y1,y2", "--n-per-cell", "2", "--n-mc", "0"],
             "--n-mc must be a positive integer, got 0"),
            (["manova", "--input", "data.csv", "--responses", "y1,y2", "--n-per-cell", "0"],
             "--n-per-cell must be a positive integer, got 0"),
            (["manova", "--input", "data.csv", "--responses", "y1,y2", "--n-per-cell", "2", "--mc-seed", "-1"],
             "--mc-seed must be a non-negative integer, got -1"),
            (["manova", "--input", "data.csv", "--responses", "y1,y2", "--n-per-cell", "2", "--subsample-seed", "-1"],
             "--subsample-seed must be a non-negative integer, got -1"),
            (["verify", "--dim", "2", "--dof", "1", "--n-draws", "100", "--seed", "1", "--specs", "1"],
             "--dof must be at least --dim = 2, got 1"),
        ],
    )
    def test_count_options_exit_two(self, tmp_path, capsys, monkeypatch, argv, message):
        # The counts are checked before any spec or design is built or any CSV read.
        work = ("cli.random_mixture_spec", "cli.SimulationSpec", "cli.null_calibration", "design_io.load_design_csv")
        for name in work:
            monkeypatch.setattr(f"wishartmix.{name}", lambda *args, **kwargs: pytest.fail("work began"))
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"dof": 3.0}), encoding="utf-8")
        if argv[0] == "sample":
            argv = [*argv, "--params", str(pfile)]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr() == ("", f"error: {message}\n")

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
            # An integer past the float range fails cleanly, not with an OverflowError traceback.
            pytest.param("chisq", '{"dof": 1' + "0" * 400 + "}", id="chisq-int-past-float-range"),
        ],
    )
    def test_infinite_dof_exit_two(self, tmp_path, capsys, dist, params):
        pfile = tmp_path / "p.json"
        pfile.write_text(params, encoding="utf-8")
        code = main(["sample", "--dist", dist, "--params", str(pfile), "--n", "2", "--seed", "3"])
        assert code == EXIT_VALIDATION
        assert "dof" in capsys.readouterr().err

    def test_noncen_past_poisson_limit_exit_two(self, tmp_path, capsys):
        # numpy's Poisson sampler takes rates up to about 9.22e18, so noncen up to about 1.84e19.
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps({"dof": 2, "noncen": 1.9e19}), encoding="utf-8")
        code = main(["sample", "--dist", "chisq", "--params", str(pfile), "--n", "2", "--seed", "3"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: noncen must be non-negative and at most 1.84467e+19, got 1.9e+19")

    @pytest.mark.parametrize(
        "dist,params,key",
        [
            ("wishart", {"dof": 4, "scale": "2"}, "scale"),
            ("wishart", {"dof": 4, "scale": True}, "scale"),
            ("wishart", {"dof": 4, "scale": [[1, 0], [0, "1"]]}, "scale"),
            ("matrix-normal", {"rows": 2, "mean": [[0, 0], ["1", 1]], "scale": [[1.0, 0.0], [0.0, 1.0]]}, "mean"),
            # An integer past the float range fails cleanly, not with an OverflowError traceback.
            pytest.param("wishart", {"dof": 4, "scale": [[10**400]]}, "scale", id="wishart-int-past-float-range"),
        ],
    )
    def test_non_numeric_matrix_exit_two(self, tmp_path, capsys, dist, params, key):
        # numpy would read the string "2" as 2.0 and true as 1.0; a parameter
        # file holds JSON numbers only.
        pfile = tmp_path / "p.json"
        pfile.write_text(json.dumps(params), encoding="utf-8")
        code = main(["sample", "--dist", dist, "--params", str(pfile), "--n", "2", "--seed", "3"])
        assert code == EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: parameter {key!r} must be a finite number or nested lists of finite numbers\n"


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
        spec = SimulationSpec(a, b, n, dim, SpdMat(np.eye(dim)))
        with pytest.raises(DegenerateDesign, match=message):
            null_calibration(spec, 5, McConfig(n_mc=1000), RngStream(1))
        with pytest.raises(DegenerateDesign, match=message):
            run_report(DesignTable(np.zeros((a, b, n, dim))), McConfig(n_mc=1000))
        argv = ["calibrate", "--a", str(a), "--b", str(b), "--n", str(n), "--dim", str(dim), "--datasets", "5", "--seed", "1"]
        assert main(argv) == EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {message}")


def run_python(*args):
    """``python ARGS`` in a child interpreter.

    The child imports the same package as this process, whether it is
    installed or only on pytest's path.
    """
    src = os.path.dirname(os.path.dirname(wishartmix.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def run_module(*argv):
    """``python -m wishartmix ARGV`` in a child interpreter."""
    return run_python("-m", "wishartmix", *argv)


# Runs each command line of the JSON list in argv[1] through cli.main and
# prints, as its last stdout line, the scipy modules loaded after the import
# and after each command.  The import is the one at the top.
_SCIPY_PROBE = """
import json, sys
import wishartmix.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))

loaded = [scipy_modules()]
for argv in json.loads(sys.argv[1]):
    assert wishartmix.cli.main(argv) == 0, argv
    loaded.append(scipy_modules())
print(json.dumps(loaded))
"""


class TestConsoleEntry:
    def test_module_invocation(self, tmp_path):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        result = run_module(
            "manova", "--input", str(csv_path), "--responses", ",".join(names), "--n-per-cell", "3", "--n-mc", "1000"
        )
        assert result.returncode == 0
        assert "Beta Type II MANOVA" in result.stdout

    @pytest.mark.parametrize("command, n_mc", [("calibrate", 500), ("manova", 300)])
    def test_small_n_mc_prints_one_warning_line(self, tmp_path, command, n_mc):
        csv_path, names = write_design_csv(tmp_path / "d.csv")
        args = {
            "calibrate": ["--a", "3", "--b", "4", "--n", "3", "--dim", "1", "--datasets", "20", "--seed", "7"],
            "manova": ["--input", str(csv_path), "--responses", ",".join(names), "--n-per-cell", "3"],
        }[command]
        result = run_module(command, *args, "--n-mc", str(n_mc))
        assert result.returncode == 0
        assert result.stderr.splitlines() == [f"warning: n_mc = {n_mc} is below 1000; the p-value estimates will be coarse"]

    def test_cold_start_loads_scipy_only_where_used(self, tmp_path):
        # This process has scipy.stats loaded by the test modules; a child starts clean.
        csv2, names2 = write_design_csv(tmp_path / "d2.csv")
        csv1, names1 = write_design_csv(tmp_path / "d1.csv", dim=1)
        params = tmp_path / "p.json"
        params.write_text(json.dumps({"dof": 4, "scale": [[2.0, 1.0], [1.0, 2.0]]}), encoding="utf-8")
        # Modules stay loaded, so the commands that load none run first.
        commands = [
            ["sample", "--dist", "wishart", "--params", str(params), "--n", "3", "--seed", "3"],
            ["manova", "--input", str(csv2), "--responses", ",".join(names2), "--n-per-cell", "3", "--n-mc", "1000"],
            ["calibrate", "--a", "3", "--b", "3", "--n", "2", "--dim", "2", "--datasets", "5", "--n-mc", "1000", "--seed", "3"],
            ["verify", "--dim", "2", "--dof", "5", "--n-draws", "10000", "--seed", "3", "--specs", "1"],
            ["manova", "--input", str(csv1), "--responses", ",".join(names1), "--n-per-cell", "3", "--n-mc", "1000"],
        ]
        result = run_python("-c", _SCIPY_PROBE, json.dumps(commands))
        assert result.returncode == 0, result.stderr
        *loaded, after_verify, after_d1 = json.loads(result.stdout.splitlines()[-1])
        assert loaded == [[], [], [], []]  # import, sample, d = 2 manova, calibrate
        for after in (after_verify, after_d1):  # verify's quantile grid, d = 1 manova's F tests
            assert "scipy.special" in after
            assert not [name for name in after if name.startswith("scipy.stats")]
