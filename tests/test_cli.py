"""Command-line interface: CSV handling, subcommands, exit codes, determinism."""

import csv
import json
import multiprocessing
import os
import re
import runpy
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import hsicreg
from hsicreg import BootstrapConfig, DesignSpec, ModelSpec, draw_model, fit_ols, run_test, study_kernels
from hsicreg._rng import derive_seed, substream
from hsicreg.cli import load_csv, main
from hsicreg.linreg import evaluate_design

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return str(path)


@pytest.fixture
def small_csv(tmp_path):
    rows = [
        [0.1, 1.0, 2.3],
        [0.4, 0.5, 2.9],
        [0.9, 0.1, 3.7],
        [0.2, 0.8, 2.4],
        [0.6, 0.3, 3.1],
        [0.8, 0.9, 3.9],
    ]
    return write_csv(tmp_path / "small.csv", ["x1", "x2", "y"], rows)


class TestLoadCsv:
    def test_round_trip(self, small_csv):
        data = load_csv(small_csv, "y")
        assert data.n == 6 and data.d0 == 2
        assert data.names() == ("x1", "x2")
        assert data.predictors[2, 0] == 0.9
        assert data.response[5] == 3.9

    def test_explicit_predictor_subset(self, small_csv):
        data = load_csv(small_csv, "y", ["x2"])
        assert data.names() == ("x2",)
        np.testing.assert_array_equal(data.predictors[:, 0], [1.0, 0.5, 0.1, 0.8, 0.3, 0.9])

    def test_missing_column(self, small_csv):
        with pytest.raises(ValueError, match="no column named 'z'"):
            load_csv(small_csv, "z")

    def test_duplicate_column(self, tmp_path):
        path = write_csv(tmp_path / "dup.csv", ["x1", "x1", "y"],
                         [[1, 2, 3], [4, 5, 6], [7, 8, 9], [1, 1, 2], [2, 2, 3]])
        with pytest.raises(ValueError, match="appears 2 times"):
            load_csv(path, "y")

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["x1", "y"],
                         [[1, 2], [3, "oops"], [5, 6], [7, 8]])
        with pytest.raises(ValueError, match=r"'oops' in column 'y', line 3"):
            load_csv(path, "y")

    def test_non_finite_rejected(self, tmp_path):
        path = write_csv(tmp_path / "inf.csv", ["x1", "y"],
                         [[1, 2], [3, "inf"], [5, 6], [7, 8]])
        with pytest.raises(ValueError, match="non-finite"):
            load_csv(path, "y")

    def test_short_row(self, tmp_path):
        path = write_csv(tmp_path / "short.csv", ["x1", "x2", "y"],
                         [[1, 2, 3], [4, 5], [6, 7, 8], [1, 2, 2], [3, 1, 4]])
        with pytest.raises(ValueError, match="line 3 has 2 fields"):
            load_csv(path, "y")

    def test_insufficient_rows(self, tmp_path):
        path = write_csv(tmp_path / "tiny.csv", ["x1", "x2", "y"], [[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError, match="insufficient"):
            load_csv(path, "y")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_csv(str(path), "y")

    def test_response_listed_as_predictor(self, small_csv):
        with pytest.raises(ValueError, match="also listed"):
            load_csv(small_csv, "y", ["x1", "y"])


class TestParseDesign:
    NAMES = ("x1", "x2", "price")

    def test_tokens(self):
        spec = DesignSpec.parse("1 + x1 + x1*x2 + price^2", self.NAMES)
        assert spec.labels == ("1", "x1", "x1*x2", "price^2")

    def test_a_product_takes_every_factor(self):
        spec = DesignSpec.parse("1 + x1*x2*price + x2 * x1", self.NAMES)
        assert spec.labels == ("1", "x1*x2*price", "x2 * x1")
        X = np.random.default_rng(5).normal(size=(20, 3))
        G = evaluate_design(X, spec)
        np.testing.assert_array_equal(G[:, 1], X[:, 0] * X[:, 1] * X[:, 2])
        np.testing.assert_array_equal(G[:, 2], X[:, 1] * X[:, 0])
        with pytest.raises(ValueError, match="unknown predictor 'volume'"):
            DesignSpec.parse("x1*x2*volume", self.NAMES)

    def test_powers_repeat_their_index(self):
        spec = DesignSpec.parse("x1^2*x2 + x1^3 + x2 ^2", self.NAMES)
        assert [t.indices for t in spec.terms] == [(0, 0, 1), (0, 0, 0), (1, 1)]
        assert spec.labels == ("x1^2*x2", "x1^3", "x2 ^2")
        X = np.random.default_rng(6).normal(size=(20, 3))
        G = evaluate_design(X, spec)
        np.testing.assert_array_equal(G[:, 0], X[:, 0] * X[:, 0] * X[:, 1])
        np.testing.assert_array_equal(G[:, 1], X[:, 0] * X[:, 0] * X[:, 0])

    def test_a_name_is_looked_up_before_any_operator(self):
        spec = DesignSpec.parse("1 + log-price + log-price^2", ("log-price",))
        assert [t.indices for t in spec.terms] == [(), (0,), (0, 0)]

    @pytest.mark.parametrize("text, operator, term", [
        ("1 + x1 - x2", "-", "x1 - x2"),
        ("1 + x1/x2", "/", "x1/x2"),
        ("log(x1)", "(", "log(x1)"),
        ("x1^0 + x2", "^0", "x1^0"),
        ("x1^a*x2", "^a", "x1^a*x2"),
    ])
    def test_unsupported_operator_is_named(self, text, operator, term):
        with pytest.raises(ValueError, match=re.escape(f"unsupported operator {operator!r} in design term {term!r}")):
            DesignSpec.parse(text, self.NAMES)

    def test_unknown_predictor(self):
        with pytest.raises(ValueError, match="unknown predictor 'volume'"):
            DesignSpec.parse("1 + volume", self.NAMES)

    def test_empty_term(self):
        with pytest.raises(ValueError, match="empty term"):
            DesignSpec.parse("1 + + x1", self.NAMES)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulateCommand:
    def test_csv_matches_generator_exactly(self, capsys):
        code, out, _ = run_main(
            capsys, ["simulate", "--model", "model1", "--n", "9", "--a", "2.0",
                     "--lambda", "5.0", "--seed", "13", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["x1", "x2", "x3", "x4", "y", "error"]
        got = np.array([[float(v) for v in row] for row in rows[1:]])
        sim = draw_model(ModelSpec("model1", n=9, a=2.0, lam=5.0), substream(13, 0))
        np.testing.assert_array_equal(got[:, :4], sim.data.predictors)
        np.testing.assert_array_equal(got[:, 4], sim.data.response)
        np.testing.assert_array_equal(got[:, 5], sim.errors)

    @pytest.mark.parametrize("model", ["model1", "model2", "linear1d"])
    def test_json_rows_are_draw_model_with_the_spec_defaults(self, capsys, model):
        """The CLI adds no default of its own: a spec built without knobs draws what
        ``hsicreg simulate`` writes, row for row and bit for bit, at the same noise sd."""
        code, out, _ = run_main(capsys, ["simulate", "--model", model, "--n", "40", "--seed", "3", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        spec = ModelSpec(model, n=40)
        sim = draw_model(spec, substream(3, 0))
        rows = np.column_stack([sim.data.predictors, sim.data.response, sim.errors])
        assert payload["rows"] == rows.tolist()
        assert payload["noise_sd"] == spec.noise_sd

    def test_json_payload(self, capsys):
        code, out, _ = run_main(
            capsys, ["simulate", "--model", "linear1d", "--n", "5", "--format", "json"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["columns"] == ["x1", "y", "error"]
        assert payload["noise_sd"] == pytest.approx(np.sqrt(0.1))
        assert len(payload["rows"]) == 5


class TestTestCommand:
    def test_on_simulated_model(self, capsys):
        code, out, _ = run_main(
            capsys, ["test", "--model", "linear1d", "--n", "60", "--B", "99", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["schema_version"] == 1
        assert payload["n"] == 60 and payload["replicates"] == 99
        assert 0.01 <= payload["p_value"] <= 1.0
        assert payload["reject"] == (payload["p_value"] <= payload["alpha"])
        assert payload["design"] == ["1", "x1"]
        assert len(payload["beta_hat"]) == 2
        assert payload["statistic"] >= 0.0

    def test_blas_threads_do_not_change_the_bytes(self, tmp_path):
        """The statistic's only BLAS calls are exact rank-2 products, so the artifact is
        the same under one and two BLAS threads; n = 300 spans three statistic tiles."""
        src = Path(hsicreg.__file__).resolve().parent.parent
        artifacts = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}.json"
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": str(src)}
            subprocess.run(
                [sys.executable, "-m", "hsicreg.cli", "test", "--model", "model1", "--n", "300",
                 "--B", "20", "--seed", "1", "--out", str(out)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]

    def test_on_csv_with_predictor_subset(self, capsys, tmp_path):
        out_path = tmp_path / "data.csv"
        code, _, _ = run_main(
            capsys, ["simulate", "--model", "model1", "--n", "40", "--seed", "2",
                     "--format", "csv", "--out", str(out_path)]
        )
        assert code == 0
        code, out, err = run_main(
            capsys, ["test", "--input", str(out_path), "--response", "y",
                     "--predictors", "x1,x2,x3,x4", "--B", "99"]
        )
        assert code == 0
        assert "loaded 40 rows" in err
        payload = json.loads(out)
        assert payload["design"] == ["1", "x1", "x2", "x3", "x4"]
        assert payload["source"] == str(out_path)

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, monkeypatch):
        """A CSV saved with a UTF-8 byte-order mark (Excel's "CSV UTF-8") gives the
        plain copy's artifact, byte for byte; the mark sits before the first column's name."""
        rows = [[2.3, 0.1, 1.0], [2.9, 0.4, 0.5], [3.7, 0.9, 0.1], [2.4, 0.2, 0.8], [3.1, 0.6, 0.3]]
        plain = Path(write_csv(tmp_path / "source.csv", ["y", "x1", "x2"], rows)).read_bytes()
        artifacts = []
        for name, content in (("plain", plain), ("bom", b"\xef\xbb\xbf" + plain)):
            (tmp_path / name).mkdir()
            (tmp_path / name / "data.csv").write_bytes(content)
            monkeypatch.chdir(tmp_path / name)
            code, _, _ = run_main(capsys, ["test", "--input", "data.csv", "--response", "y",
                                           "--B", "19", "--out", "out.json"])
            assert code == 0
            artifacts.append((tmp_path / name / "out.json").read_bytes())
        assert artifacts[0] == artifacts[1]

    def test_design_flag(self, capsys, small_csv):
        code, out, _ = run_main(
            capsys, ["test", "--input", small_csv, "--response", "y",
                     "--design", "1 + x1 + x1*x2", "--B", "19"]
        )
        assert code == 0
        assert json.loads(out)["design"] == ["1", "x1", "x1*x2"]

    def test_design_flag_takes_a_three_way_product(self, capsys):
        argv = ["test", "--model", "model1", "--n", "40", "--B", "19", "--no-standardize"]
        code, out, _ = run_main(capsys, [*argv, "--design", "1 + x1*x2*x3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["design"] == ["1", "x1*x2*x3"]
        # Fitting the column on its own, through the library, gives the same coefficients.
        data = draw_model(ModelSpec("model1", n=40), substream(0, 0)).data
        column = data.predictors[:, 0] * data.predictors[:, 1] * data.predictors[:, 2]
        expected = fit_ols(np.column_stack([np.ones(40), column]), data.response).beta_hat
        np.testing.assert_allclose(payload["beta_hat"], expected, rtol=1e-12)

    def test_median_bandwidth_resolves_to_number(self, capsys):
        code, out, _ = run_main(
            capsys, ["test", "--model", "linear1d", "--n", "30", "--B", "19",
                     "--bandwidth-x", "median", "--bandwidth-e", "median"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bandwidth_x"] > 0 and payload["bandwidth_x"] != 1.0
        assert payload["kernel_x"] == "gaussian"

    def test_default_kernels_are_the_study_kernels(self, capsys):
        argv = ["test", "--model", "model1", "--n", "30", "--B", "19"]
        code, out, _ = run_main(capsys, argv)
        assert code == 0
        payload = json.loads(out)
        assert payload["bandwidth_x"] == 4.0  # 2*sqrt(4) for model1's four predictors
        assert payload["bandwidth_e"] == np.sqrt(2.0)
        code, out, _ = run_main(capsys, argv + ["--bandwidth-x", "1.0"])
        assert code == 0
        payload = json.loads(out)
        assert payload["bandwidth_x"] == 1.0
        assert payload["bandwidth_e"] == np.sqrt(2.0)

    def test_default_predictor_kernel_follows_csv_dimension(self, capsys, small_csv):
        code, out, _ = run_main(capsys, ["test", "--input", small_csv, "--response", "y", "--B", "19"])
        assert code == 0
        assert json.loads(out)["bandwidth_x"] == 2.0 * np.sqrt(2.0)

    def test_default_flags_equal_run_test_with_study_kernels(self, capsys):
        code, out, _ = run_main(
            capsys, ["test", "--model", "model1", "--n", "40", "--B", "49", "--seed", "3"]
        )
        assert code == 0
        payload = json.loads(out)
        sim = draw_model(ModelSpec("model1", n=40), substream(3, 0))
        kernel_x, kernel_e = study_kernels(4)
        config = BootstrapConfig(replicates=49, seed=derive_seed(3, 1))
        result = run_test(sim.data, DesignSpec.main_effects(4), kernel_x, kernel_e, config)
        assert payload["statistic"] == result.statistic
        assert payload["p_value"] == result.p_value

    def test_deterministic_output_bytes(self, capsys, tmp_path):
        argv = ["test", "--model", "model1", "--n", "30", "--B", "49", "--seed", "8"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_main(capsys, argv + ["--out", str(a)])[0] == 0
        assert run_main(capsys, argv + ["--out", str(b), "--workers", "2"])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_format(self, capsys):
        code, out, _ = run_main(
            capsys, ["test", "--model", "linear1d", "--n", "30", "--B", "19", "--format", "csv"]
        )
        assert code == 0
        header, row = list(csv.reader(out.splitlines()))
        record = dict(zip(header, row))
        assert record["command"] == "test"
        assert record["reject"] in ("true", "false")
        assert len(record["beta_hat"].split(";")) == 2


class TestExitCodes:
    def test_input_and_model_conflict(self, capsys, small_csv):
        code, _, err = run_main(
            capsys, ["test", "--input", small_csv, "--model", "model1", "--n", "20"]
        )
        assert code == 2
        assert "mutually exclusive" in err

    def test_no_source(self, capsys):
        code, _, err = run_main(capsys, ["test", "--B", "19"])
        assert code == 2
        assert "error:" in err

    def test_model_without_n(self, capsys):
        assert run_main(capsys, ["test", "--model", "model1"])[0] == 2

    def test_bad_csv_is_code_2(self, capsys, tmp_path):
        path = write_csv(tmp_path / "bad.csv", ["x1", "y"], [[1, "oops"], [2, 3], [4, 5]])
        code, _, err = run_main(capsys, ["test", "--input", str(path), "--response", "y"])
        assert code == 2
        assert "line 2" in err

    def test_repeated_predictor_is_code_2(self, capsys, small_csv):
        code, out, err = run_main(
            capsys, ["test", "--input", small_csv, "--response", "y", "--predictors", "x1,x1"]
        )
        assert (code, out) == (2, "")
        assert "predictor column 'x1' listed more than once" in err

    def test_missing_file_is_code_2(self, capsys):
        assert run_main(capsys, ["test", "--input", "/nonexistent.csv", "--response", "y"])[0] == 2

    @pytest.mark.parametrize("flag", ["--workers", "--seed"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--model", "model1", "--n", "30", "--B", "9"],
            ["power", "--model", "model1", "--n", "30", "--reps", "2", "--B", "9"],
            ["contrast", "--n", "30", "--reps", "30"],
        ],
        ids=["test", "power", "contrast"],
    )
    def test_negative_workers_or_seed_is_code_2(self, capsys, argv, flag):
        code, _, err = run_main(capsys, argv + [flag, "-1"])
        assert code == 2
        assert "got -1" in err

    @pytest.mark.parametrize(
        "argv, knob",
        [
            (["simulate", "--model", "model1", "--n", "5", "--lambda", "nan"], "lam"),
            (["power", "--model", "model1", "--n", "20", "--reps", "2", "--B", "9", "--a", "nan"], "a"),
            (["simulate", "--model", "model1", "--n", "5", "--a", "inf"], "a"),
            (["power", "--model", "model1", "--n", "20", "--reps", "2", "--B", "9", "--noise-sd", "inf"], "noise_sd"),
        ],
        ids=["simulate-lambda-nan", "power-a-nan", "simulate-a-inf", "power-noise-sd-inf"],
    )
    def test_non_finite_model_knob_is_code_2_and_named(self, capsys, argv, knob):
        code, _, err = run_main(capsys, argv)
        assert code == 2
        assert f"error: {knob} must be finite" in err

    def test_alpha_outside_the_unit_interval_is_code_2_and_named(self, capsys):
        code, _, err = run_main(capsys, ["test", "--model", "model1", "--n", "20", "--B", "9", "--alpha", "1.5"])
        assert code == 2
        assert "error: alpha must lie strictly between 0 and 1, got 1.5" in err

    def test_gram_over_the_memory_limit_is_code_2(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setattr("hsicreg.kernels._memory_limits", lambda: ((1_000_000, "a patched limit"),))
        rows = np.random.default_rng(9).normal(size=(400, 3)).tolist()
        path = write_csv(tmp_path / "large.csv", ["x1", "x2", "y"], rows)
        code, _, err = run_main(capsys, ["test", "--input", path, "--response", "y", "--B", "9"])
        assert code == 2
        assert "error:" in err and "n = 400" in err

    def test_median_rule_over_the_memory_limit_is_code_2(self, capsys, tmp_path, monkeypatch):
        def no_pdist(*args, **kwargs):
            raise AssertionError("pdist ran before the memory check")

        monkeypatch.setattr("hsicreg.kernels._memory_limits", lambda: ((1_000_000, "a patched limit"),))
        monkeypatch.setattr("scipy.spatial.distance.pdist", no_pdist)
        rows = np.random.default_rng(9).normal(size=(400, 3)).tolist()
        path = write_csv(tmp_path / "large.csv", ["x1", "x2", "y"], rows)
        code, _, err = run_main(capsys, ["test", "--input", path, "--response", "y", "--B", "9",
                                         "--bandwidth-x", "median"])
        assert code == 2
        assert "error:" in err and "n = 400" in err

    @pytest.mark.parametrize("flag, value", [("--n", "500"), ("--a", "7"), ("--lambda", "3"),
                                             ("--noise-sd", "2"), ("--response", "y"), ("--predictors", "a,b")])
    def test_flag_of_the_other_data_source_is_code_2(self, capsys, small_csv, flag, value):
        if flag in ("--response", "--predictors"):
            argv, source = ["test", "--model", "model1", "--n", "30"], "--model"
        else:
            argv, source = ["test", "--input", small_csv, "--response", "y"], "--input"
        code, out, err = run_main(capsys, argv + ["--B", "9", flag, value])
        assert (code, out) == (2, "")
        assert f"error: {flag} cannot be used with {source}" in err

    def test_zero_model_knobs_pass_with_input(self, capsys, small_csv):
        argv = ["test", "--input", small_csv, "--response", "y", "--B", "9"]
        _, plain, _ = run_main(capsys, argv)
        assert run_main(capsys, argv + ["--a", "0", "--lambda", "0"])[:2] == (0, plain)

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "--model", "model1", "--n", "30", "--B", "9"],
            ["simulate", "--model", "model1", "--n", "5"],
            ["power", "--model", "model1", "--n", "30", "--reps", "2", "--B", "9"],
            ["contrast", "--n", "20", "--reps", "25"],
        ],
        ids=["test", "simulate", "power", "contrast"],
    )
    def test_out_in_a_missing_directory_is_code_2(self, capsys, tmp_path, argv):
        code, out, err = run_main(capsys, argv + ["--out", str(tmp_path / "missing" / "artifact")])
        assert (code, out) == (2, "")
        assert "error:" in err
        assert not (tmp_path / "missing").exists()

    def test_singular_design_is_code_3(self, capsys, tmp_path):
        rows = [[x, x, 2 * x + 1] for x in (0.2, 0.5, 0.9, 1.4, 1.8, 2.2)]
        path = write_csv(tmp_path / "collinear.csv", ["x1", "x2", "y"], rows)
        code, _, err = run_main(capsys, ["test", "--input", path, "--response", "y", "--B", "19"])
        assert code == 3
        assert "error:" in err


class TestPowerCommand:
    ARGV = ["power", "--model", "linear1d", "--n", "20,30", "--lambda", "0,40",
            "--reps", "3", "--B", "19", "--format", "csv"]

    def test_untestable_draws_are_aborts_not_an_exit(self, capsys):
        """Two of these draws have a constant Bernoulli x4, which cannot be standardized."""
        code, out, _ = run_main(capsys, ["power", "--model", "model2", "--n", "10", "--reps", "100",
                                         "--B", "19", "--seed", "0"])
        assert code == 0
        assert json.loads(out)["cells"][0]["aborts"] >= 2

    def test_too_few_rows_for_the_design_is_code_2(self, capsys):
        code, _, err = run_main(capsys, ["power", "--model", "model1", "--n", "4", "--reps", "2", "--B", "19"])
        assert code == 2
        assert "error: need at least as many rows as design columns (4 < 5)" in err

    def test_grid_order_and_header(self, capsys):
        code, out, _ = run_main(capsys, self.ARGV)
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["model", "n", "a", "lambda", "reps", "rejections", "aborts", "rate", "se"]
        grid = [(int(r[1]), float(r[3])) for r in rows[1:]]
        assert grid == [(20, 0.0), (20, 40.0), (30, 0.0), (30, 40.0)]

    def test_workers_flag_leaves_no_trace(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main(capsys, self.ARGV + ["--out", str(a), "--workers", "1"])[0] == 0
        assert run_main(capsys, self.ARGV + ["--out", str(b), "--workers", "2"])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_zero_noise_sd_is_code_2(self, capsys):
        code, _, err = run_main(capsys, self.ARGV + ["--noise-sd", "0"])
        assert code == 2
        assert "noise_sd must be > 0" in err

    def test_linear1d_noise_defaults_to_sqrt_point_one(self, capsys, tmp_path):
        # The acceptance gate's power command; with noise sd 1 its rejection counts differ.
        argv = ["power", "--model", "linear1d", "--n", "20,30", "--lambda", "0,40",
                "--reps", "5", "--B", "99", "--seed", "3", "--format", "csv"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_main(capsys, argv + ["--out", str(a)])[0] == 0
        assert run_main(capsys, argv + ["--noise-sd", "0.31622776601683794", "--out", str(b)])[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_cells(self, capsys):
        code, out, _ = run_main(capsys, self.ARGV[:-2] + ["--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["cells"]) == 4
        cell = payload["cells"][0]
        assert cell["reps"] == 3
        assert 0.0 <= cell["rate"] <= 1.0

    def test_all_aborted_cell_is_null_in_json_and_nan_in_csv(self, capsys):
        """At n=6 every model2 trial aborts, so the cell has no rate.

        B = 19 lets a trial reject at alpha 0.05, so it must draw replicates;
        with B = 9 it could never reject and would be settled before any draw.
        """
        argv = ["power", "--model", "model2", "--n", "6", "--reps", "3", "--B", "19", "--seed", "0"]

        def reject(token):
            raise ValueError(f"bare {token} is not JSON")

        code, out, _ = run_main(capsys, argv)
        assert code == 0
        cell = json.loads(out, parse_constant=reject)["cells"][0]
        assert (cell["aborts"], cell["rate"], cell["se"]) == (3, None, None)
        code, out, _ = run_main(capsys, argv + ["--format", "csv"])
        assert code == 0
        assert out.splitlines()[1].endswith(",3,nan,nan")


class TestContrastCommand:
    def test_defaults_and_histogram(self, capsys):
        code, out, _ = run_main(
            capsys, ["contrast", "--n", "20", "--reps", "30", "--seed", "1"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["model"] == "linear1d"
        assert payload["bandwidth_x"] == 2.0  # study default for one predictor
        assert payload["bandwidth_e"] == pytest.approx(np.sqrt(2.0))
        assert 0.0 <= payload["ks_distance"] <= 1.0
        hist = payload["histogram"]
        assert len(hist["edges"]) == 31
        assert len(hist["residual_counts"]) == 30
        assert sum(hist["residual_counts"]) == 30
        assert len(payload["residual_stats"]) == 30

    def test_bandwidth_override(self, capsys):
        code, out, _ = run_main(
            capsys, ["contrast", "--n", "20", "--reps", "25", "--bandwidth-x", "1.5"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["bandwidth_x"] == 1.5
        assert payload["bandwidth_e"] == pytest.approx(np.sqrt(2.0))

    @pytest.mark.parametrize("kernel, other", [("x", "e"), ("e", "x")])
    def test_median_rule_is_reported_as_median(self, capsys, kernel, other):
        code, out, _ = run_main(
            capsys, ["contrast", "--n", "20", "--reps", "25", f"--bandwidth-{kernel}", "median"]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[f"bandwidth_{kernel}"] == "median"
        assert isinstance(payload[f"bandwidth_{other}"], float)

    def test_undersampled_warning_is_a_plain_line(self, capsys):
        argv = ["contrast", "--n", "30", "--reps", "20"]
        code, out, err = run_main(capsys, argv)
        assert code == 0
        assert err.splitlines() == [
            "warning: contrast ran with only 20 replications per arm; "
            "the KS comparison is unreliable below 25"
        ]
        assert "cli.py" not in err
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_main(capsys, argv) == (0, out, err)

    def test_csv_long_form(self, capsys):
        code, out, _ = run_main(
            capsys, ["contrast", "--n", "20", "--reps", "25", "--format", "csv"]
        )
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["record", "arm", "index", "value"]
        records = {r[0] for r in rows[1:]}
        assert records == {"ks_distance", "ks_pvalue", "stat", "hist_edge", "hist_count"}
        stat_rows = [r for r in rows[1:] if r[0] == "stat"]
        assert len(stat_rows) == 50  # 25 per arm


#: The acceptance gate's C10 commands that run on a pool.
C10_POOLED = {
    "test": ["test", "--model", "model1", "--n", "60", "--B", "199", "--seed", "5"],
    "power": ["power", "--model", "linear1d", "--n", "20,30", "--lambda", "0,40",
              "--reps", "5", "--B", "99", "--seed", "3", "--format", "csv"],
    "contrast": ["contrast", "--n", "40", "--reps", "40", "--seed", "2"],
}

#: Runs each argv list of argv[2] (JSON) through the CLI under start method argv[1].
START_METHOD_SCRIPT = """\
import json, multiprocessing, sys
from hsicreg.cli import main

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1], force=True)
    for argv in json.loads(sys.argv[2]):
        if main(argv) != 0:
            sys.exit(f"nonzero exit: {argv}")
"""


@pytest.mark.skipif(not {"fork", "spawn", "forkserver"} <= set(multiprocessing.get_all_start_methods()),
                    reason="needs the fork, spawn and forkserver start methods")
def test_every_start_method_writes_the_same_bytes(tmp_path):
    """Under spawn and forkserver a pool worker unpickles the state that fork lets it
    inherit; C10's pooled commands write the same bytes under all three, at one worker
    and two.  Each method runs in its own interpreter, which sets it as the default."""
    script = tmp_path / "run.py"
    script.write_text(START_METHOD_SCRIPT)
    env = {**os.environ, "PYTHONPATH": str(Path(hsicreg.__file__).resolve().parent.parent)}
    for method in ("fork", "spawn", "forkserver"):
        argvs = [[*argv, "--workers", str(w), "--out", str(tmp_path / f"{name}-{w}.{method}")]
                 for name, argv in C10_POOLED.items() for w in (1, 2)]
        subprocess.run([sys.executable, str(script), method, json.dumps(argvs)],
                       env=env, check=True, capture_output=True, timeout=600)
    for name in C10_POOLED:
        for w in (1, 2):
            fork = (tmp_path / f"{name}-{w}.fork").read_bytes()
            for method in ("spawn", "forkserver"):
                assert (tmp_path / f"{name}-{w}.{method}").read_bytes() == fork, (name, w, method)


def test_csv_workflow_demo_rejects(capsys):
    runpy.run_path(str(DEMOS / "csv_workflow.py"), run_name="__main__")
    assert "reject = True" in capsys.readouterr().out


def test_single_dataset_demo_decisions(capsys):
    runpy.run_path(str(DEMOS / "test_single_dataset.py"), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    null = next(line for line in lines if line.startswith("lam=   0"))
    alt = next(line for line in lines if line.startswith("lam=  50"))
    assert "no evidence" in null
    assert "REJECT" in alt


def test_null_contrast_demo_separates_arms(capsys):
    runpy.run_path(str(DEMOS / "null_contrast.py"), run_name="__main__")
    assert "far apart" in capsys.readouterr().out
