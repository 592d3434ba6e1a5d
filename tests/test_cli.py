"""Command-line surface: commands, exit codes, file outputs."""

import contextlib
import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markovmix import cli, optim
from markovmix.cli import main
from markovmix.simulation import simulate_homog_chain, simulate_nonhomog_chain

EXIT_USAGE = 2
EXIT_DATA = 3


@pytest.fixture(scope="module")
def synthetic_files(tmp_path_factory):
    """Panel + covariate CSVs from a covariate-driven two-chain design."""
    root = tmp_path_factory.mktemp("cli-data")
    rng = np.random.default_rng(31)
    n = 900
    x = rng.normal(2.0, 5.0, size=n)
    s1 = simulate_nonhomog_chain(np.array([[-1.0, 1.6, 0.4]]), x, n, rng=rng)
    s2 = simulate_homog_chain(np.array([[0.6, 0.4], [0.25, 0.75]]), n, rng=rng)
    panel = root / "panel.csv"
    panel.write_text("\n".join(f"{a},{b}" for a, b in zip(s1, s2)) + "\n")
    cov = root / "x.csv"
    cov.write_text("x\n" + "\n".join(f"{v:.8f}" for v in x) + "\n")
    return panel, cov


class TestEstimateCommand:
    def test_gmmc_fit_and_report(self, synthetic_files, tmp_path, capsys):
        panel, cov = synthetic_files
        fit_path = tmp_path / "fit.json"
        json_path = tmp_path / "report.json"
        rc = main([
            "estimate", "--model", "gmmc", "--y", str(panel), "--x", str(cov),
            "--x-lag", "1", "--initial", "1,1",
            "--save-fit", str(fit_path), "--out-json", str(json_path),
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "$`Equation 1`" in out and "$`LogLik 2`" in out
        doc = json.loads(json_path.read_text())
        est = doc["equations"][0]["estimates"]
        assert est[0] > 0.85  # the covariate-driven chain drives itself
        assert fit_path.exists()

    def test_gmmc_requires_covariates(self, synthetic_files, capsys):
        panel, _ = synthetic_files
        rc = main(["estimate", "--model", "gmmc", "--y", str(panel)])
        assert rc == EXIT_USAGE
        assert "requires --x" in capsys.readouterr().err

    def test_mtd_mirrors_reference_call(self, synthetic_files, capsys):
        panel, _ = synthetic_files
        rc = main([
            "estimate", "--model", "mtd", "--y", str(panel),
        ])
        assert rc == 0
        assert "$`Equation 1`" in capsys.readouterr().out

    def test_mtd_probit_runs(self, synthetic_files, capsys):
        panel, _ = synthetic_files
        rc = main([
            "estimate", "--model", "mtd-probit", "--y", str(panel),
            "--initial", "1,1,1",
        ])
        out = capsys.readouterr().out
        assert "$`Equation 1`" in out
        assert rc in (0, 1)  # ridge-flat likelihoods legitimately report rc 1

    @pytest.mark.parametrize("time_col", ["0", "-3"])
    def test_time_col_by_index(self, synthetic_files, tmp_path, time_col):
        panel, _ = synthetic_files
        rows = panel.read_text().splitlines()
        dated = tmp_path / "dated.csv"
        dated.write_text("".join(f"t{t},{row}\n" for t, row in enumerate(rows)))
        reports = []
        for argv in (["--y", str(panel)], ["--y", str(dated), "--time-col", time_col]):
            out = tmp_path / "report.json"
            assert main(["estimate", "--model", "mtd", *argv, "--out-json", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    @pytest.mark.parametrize(
        "model, option, value, models",
        [
            ("mtd", "--x", "{cov}", "gmmc"),
            ("mtd-probit", "--x-lag", "2", "gmmc"),
            ("mtd", "--save-fit", "{fit}", "gmmc"),
            ("mtd", "--initial", "5,-4", "gmmc or mtd-probit"),
        ],
        ids=["x", "x-lag", "save-fit", "initial"],
    )
    def test_option_of_another_model_is_a_usage_error(
        self, synthetic_files, tmp_path, capsys, model, option, value, models
    ):
        panel, cov = synthetic_files
        fit_path = tmp_path / "fit.json"
        argv = ["estimate", "--model", model, "--y", str(panel),
                option, value.format(cov=cov, fit=fit_path)]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == EXIT_USAGE
        assert f"{option} applies only to --model {models}" in captured.err
        assert captured.out == ""
        assert not fit_path.exists()

    @pytest.mark.parametrize(
        "model, option, message",
        [
            ("gmmc", "--initial=1,1,1", "initial weights must have length 2"),
            ("gmmc", "--initial=nan,1", "initial weights must be finite"),
            ("gmmc", "--x-lag=-1", "x_lag must be >= 0, got -1"),
            ("mtd-probit", "--initial=1,1", "initial values must have length 3"),
            ("mtd-probit", "--initial=1,inf,1", "initial values must be finite"),
        ],
        ids=["gmmc-length", "gmmc-nonfinite", "gmmc-negative-lag",
             "probit-length", "probit-nonfinite"],
    )
    def test_bad_start_or_lag_is_a_usage_error(
        self, synthetic_files, capsys, model, option, message
    ):
        panel, cov = synthetic_files
        argv = ["estimate", "--model", model, "--y", str(panel), option]
        if model == "gmmc":
            argv += ["--x", str(cov)]
        rc = main(argv)
        assert rc == EXIT_USAGE
        assert message in capsys.readouterr().err

class TestTransmatCommand:
    def test_edge_list_rows_sum_to_one(self, synthetic_files, tmp_path, capsys):
        panel, cov = synthetic_files
        fit_path = tmp_path / "fit.json"
        assert main([
            "estimate", "--model", "gmmc", "--y", str(panel), "--x", str(cov),
            "--save-fit", str(fit_path),
        ]) == 0
        capsys.readouterr()
        out_path = tmp_path / "edges.csv"
        rc = main([
            "transmat", "--fit", str(fit_path), "--x", "2.97",
            "--equation", "1", "--out", str(out_path),
        ])
        assert rc == 0
        with open(out_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4  # 2x2 edges for equation 1
        totals: dict = {}
        for row in rows:
            key = row["source_state"]
            totals[key] = totals.get(key, 0.0) + float(row["probability"])
        for total in totals.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_dimension_mismatch_rejected(self, synthetic_files, tmp_path, capsys):
        panel, cov = synthetic_files
        fit_path = tmp_path / "fit.json"
        main([
            "estimate", "--model", "gmmc", "--y", str(panel), "--x", str(cov),
            "--save-fit", str(fit_path),
        ])
        capsys.readouterr()
        rc = main(["transmat", "--fit", str(fit_path), "--x", "1.0,2.0"])
        assert rc == EXIT_DATA

    @pytest.mark.parametrize("x_value", ["nan", "inf"])
    def test_non_finite_covariate_is_a_data_error(self, saved_fit_text, tmp_path, capsys,
                                                  x_value):
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(saved_fit_text)
        rc = main(["transmat", "--fit", str(fit_path), "--x", x_value])
        assert rc == EXIT_DATA
        captured = capsys.readouterr()
        assert "not finite" in captured.err
        assert captured.out == ""

    @pytest.fixture(scope="class")
    def saved_fit_text(self, synthetic_files, tmp_path_factory):
        panel, cov = synthetic_files
        fit_path = tmp_path_factory.mktemp("fit") / "fit.json"
        assert main([
            "estimate", "--model", "gmmc", "--y", str(panel), "--x", str(cov),
            "--save-fit", str(fit_path),
        ]) == 0
        return fit_path.read_text()

    @pytest.mark.parametrize(
        "content", [b"weights: [0.5, 0.5]\n", b"\xff\xfe{}"], ids=["not-json", "not-utf8"]
    )
    def test_non_json_fit_is_a_data_error(self, tmp_path, capsys, content):
        fit_path = tmp_path / "fit.json"
        fit_path.write_bytes(content)
        rc = main(["transmat", "--fit", str(fit_path), "--x", "1.0"])
        assert rc == EXIT_DATA
        assert "not a JSON document" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.pop("x_lag"), "document.x_lag is missing"),
            (lambda doc: doc.update(weights="0.5,0.5"), "document.weights must be array"),
            (lambda doc: doc["submodels"][0][1].pop("coefficients"),
             "document.submodels[0][1].coefficients is missing"),
            (lambda doc: doc["submodels"][1][0].update(n_states="two"),
             "document.submodels[1][0].n_states must be integer"),
            (lambda doc: doc["report"]["equations"][0].update(loglik=None),
             "document.report.equations[0].loglik must be number"),
            (lambda doc: doc["submodels"][1].pop(), "document.submodels[1] has 1 entries"),
            (lambda doc: doc["submodels"][0][1]["coefficients"].append([0.5]),
             "document.submodels[0][1].coefficients is not a numeric array of shape (1, 3)"),
            (lambda doc: doc["submodels"][1][0].update(coefficients=[[0.5, 0.5]]),
             "document.submodels[1][0].coefficients has shape (1, 2); expected (1, 3)"),
            (lambda doc: doc["submodels"][0][0]["coefficients"][0].__setitem__(2, float("nan")),
             "document.submodels[0][0].coefficients has non-finite entries"),
            (lambda doc: doc["submodels"][0][1].update(n_states=3),
             "document.submodels[0][1].n_states is 3; expected 2"),
            (lambda doc: doc["submodels"][1][0].update(n_source_states=3),
             "document.submodels[1][0].n_source_states is 3; expected 2"),
            (lambda doc: doc["submodels"][1][1].update(n_covariates=2),
             "document.submodels[1][1].n_covariates is 2; expected 1"),
            (lambda doc: doc["weights"][0].pop(),
             "document.weights is not a numeric array of shape (2, 2)"),
            (lambda doc: doc["weights"].__setitem__(1, [1.5, -0.5]),
             "document.weights has a row off the probability simplex"),
            (lambda doc: doc["weights"].__setitem__(0, [0.6, 0.6]),
             "document.weights has a row off the probability simplex"),
            (lambda doc: doc["weights"][0].__setitem__(0, float("nan")),
             "document.weights has non-finite entries"),
            (lambda doc: doc.update(alphabet_sizes=[2, 3]), "document.labels[1] has 2 entries"),
            (lambda doc: doc.update(alphabet_sizes=[2, 2, 2]),
             "document.alphabet_sizes has 3 entries; expected 2"),
            (lambda doc: doc.update(n_chains=3),
             "document.alphabet_sizes has 2 entries; expected 3"),
            (lambda doc: doc.update(x_lag=-1), "document.x_lag must be >= 0"),
            (lambda doc: doc["submodels"][0][0].update(loglik=10**400),
             "document.submodels[0][0].loglik is not a numeric array of shape ()"),
        ],
        ids=["missing", "ill-typed", "nested-missing", "nested-ill-typed", "null-number",
             "short-submodels-row", "ragged-coefficients", "coefficient-shape",
             "nan-coefficient", "n-states", "n-source-states", "n-covariates",
             "short-weights-row", "negative-weight", "weights-off-one", "nan-weight",
             "alphabet-size", "alphabet-count", "n-chains", "negative-x-lag",
             "loglik-past-float-range"],
    )
    def test_malformed_fit_names_the_field(self, saved_fit_text, tmp_path, capsys, edit, field):
        doc = json.loads(saved_fit_text)
        edit(doc)
        fit_path = tmp_path / "fit.json"
        fit_path.write_text(json.dumps(doc))
        rc = main(["transmat", "--fit", str(fit_path), "--x", "1.0"])
        assert rc == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err


class TestSimulateCommand:
    def test_single_rep_rates(self, tmp_path, capsys):
        out_json = tmp_path / "sim.json"
        out_csv = tmp_path / "sim.csv"
        rc = main([
            "simulate", "--part", "1", "--states", "2", "--n", "80",
            "--reps", "1", "--seed", "13",
            "--out-json", str(out_json), "--out-csv", str(out_csv),
        ])
        assert rc == 0
        doc = json.loads(out_json.read_text())
        assert set(doc["rejection_rates"]) <= {0.0, 1.0}
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["hypothesis", "n_obs", "rejection_rate"]
        assert len(rows) == 5

    def test_same_seed_identical_files(self, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            out_json = tmp_path / f"sim-{tag}.json"
            rc = main([
                "simulate", "--part", "1", "--states", "2", "--n", "60",
                "--reps", "4", "--seed", "21", "--out-json", str(out_json),
            ])
            assert rc == 0
            paths.append(out_json)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_lambda_true_is_a_usage_error(self, capsys, monkeypatch, value):
        # rejected by SimConfig before any replication runs
        monkeypatch.setattr(cli, "run_study", lambda *a, **k: pytest.fail("a study ran"))
        rc = main(["simulate", "--part", "2", "--n", "100", "--reps", "2",
                   "--lambda-true", f"{value},0.5"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: part2 needs lambda_true on the 2-simplex, got [{value}, 0.5]\n"
        )

    def test_env_var_default_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("MARKOVMIX_SEED", "21")
        out_a = tmp_path / "env.json"
        rc = main(["simulate", "--part", "1", "--n", "60", "--reps", "4",
                   "--out-json", str(out_a)])
        assert rc == 0
        assert json.loads(out_a.read_text())["seed"] == 21


class TestDiscretizeCommand:
    def test_returns_pipeline(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, size=400)))
        src = tmp_path / "prices.csv"
        src.write_text("price\n" + "\n".join(f"{p:.6f}" for p in prices) + "\n")
        out = tmp_path / "states.csv"
        rc = main([
            "discretize", "--input", str(src), "--column", "price",
            "--returns", "--out", str(out),
        ])
        assert rc == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "state"
        states = np.array([int(v) for v in lines[1:]])
        assert len(states) == 399
        freq = np.bincount(states, minlength=4)[1:] / len(states)
        assert np.abs(freq - [0.25, 0.5, 0.25]).max() < 0.05

    def test_already_discrete_rejected(self, tmp_path, capsys):
        src = tmp_path / "states.csv"
        src.write_text("s\n" + "\n".join("123" * 20) + "\n")
        rc = main(["discretize", "--input", str(src), "--column", "s"])
        assert rc == EXIT_DATA
        assert "already discrete" in capsys.readouterr().err

    def test_degenerate_quantiles_rejected(self, tmp_path, capsys):
        src = tmp_path / "flat.csv"
        values = ["5.0"] * 30 + ["5.1", "4.9", "5.2", "4.8"]
        src.write_text("v\n" + "\n".join(values) + "\n")
        rc = main(["discretize", "--input", str(src), "--column", "v"])
        assert rc == EXIT_DATA
        assert "coincide" in capsys.readouterr().err

    @pytest.mark.parametrize("lower, upper", [("0.9", "0.1"), ("0", "0.5"), ("0.5", "1")])
    def test_bad_quantile_options_are_a_usage_error(self, tmp_path, capsys, lower, upper):
        src = tmp_path / "series.csv"
        src.write_text("v\n" + "\n".join(str(v) for v in range(1, 21)) + "\n")
        rc = main(["discretize", "--input", str(src), "--column", "v",
                   "--lower-q", lower, "--upper-q", upper])
        assert rc == EXIT_USAGE
        assert "need 0 < lower_q < upper_q < 1" in capsys.readouterr().err

    def test_quantile_options_are_checked_before_the_input(self, tmp_path, capsys):
        rc = main(["discretize", "--input", str(tmp_path / "nope.csv"),
                   "--lower-q", "0.9", "--upper-q", "0.1"])
        assert rc == EXIT_USAGE
        assert "need 0 < lower_q < upper_q < 1" in capsys.readouterr().err

    @pytest.mark.parametrize("column", ["-5", "1"])
    def test_out_of_range_column_is_a_data_error(self, tmp_path, capsys, column):
        src = tmp_path / "one.csv"
        src.write_text("v\n1.5\n2.5\n")
        rc = main(["discretize", "--input", str(src), "--column", column])
        assert rc == EXIT_DATA
        assert f"column {column} out of range" in capsys.readouterr().err


class TestExitCodes:
    def test_missing_file_exit_code(self, capsys):
        rc = main(["estimate", "--model", "mtd", "--y", "/does/not/exist.csv"])
        err = capsys.readouterr().err
        assert rc == EXIT_DATA
        assert "exist" in err or "error" in err

    def test_non_converged_mtd_exits_1(self, synthetic_files, monkeypatch, capsys):
        # no Newton step allowed: the weight solve stops at the uniform start
        monkeypatch.setattr(optim, "MAX_SIMPLEX_ITER", 0)
        panel, _ = synthetic_files
        rc = main(["estimate", "--model", "mtd", "--y", str(panel)])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: estimation did not converge" in captured.err
        assert "weight optimization did not converge: iteration cap reached" in captured.out

    def test_removed_constrained_option_is_a_usage_error(self, synthetic_files, capsys):
        panel, _ = synthetic_files
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--model", "mtd", "--y", str(panel), "--constrained", "true"])
        err = capsys.readouterr().err
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments: --constrained true" in err
        assert "Traceback" not in err

    def test_huge_covariate_fits_as_its_unit_scale(self, synthetic_files, tmp_path, capsys):
        # the first stage fits unit-scaled columns; unscaled, X'WX overflows at 1e300
        panel, _ = synthetic_files
        n = len(panel.read_text().splitlines())
        z = np.random.default_rng(3).normal(size=n)
        estimates = []
        for scale in (1.0, 1e300):
            cov, out = tmp_path / f"x{scale:g}.csv", tmp_path / f"report{scale:g}.json"
            cov.write_text("x\n" + "".join(f"{scale * v:.17g}\n" for v in z))
            rc = main(["estimate", "--model", "gmmc", "--y", str(panel), "--x", str(cov),
                       "--out-json", str(out)])
            assert rc == 0, capsys.readouterr().err
            estimates.append([eq["estimates"] for eq in json.loads(out.read_text())["equations"]])
        assert np.allclose(estimates[1], estimates[0], rtol=0, atol=1e-9)

    @pytest.mark.parametrize("role", ["--y", "--x", "--input"])
    def test_non_utf8_csv_is_a_data_error(self, synthetic_files, tmp_path, capsys, role):
        panel, cov = synthetic_files
        bad = tmp_path / "latin1.csv"
        bad.write_bytes("x\n1.5\n2,5 \u00e9\n".encode("latin-1"))
        argv = {
            "--y": ["estimate", "--model", "mtd", "--y", str(bad)],
            "--x": ["estimate", "--model", "gmmc", "--y", str(panel), "--x", str(bad)],
            "--input": ["discretize", "--input", str(bad), "--column", "x"],
        }[role]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert f"{bad}: not UTF-8 text" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("role", ["--y", "--x", "--input"])
    def test_field_over_csv_limit_is_a_data_error(self, synthetic_files, tmp_path, capsys, role):
        panel, cov = synthetic_files
        bad = tmp_path / "wide.csv"
        bad.write_text("x\n1.5\n" + "9" * (csv.field_size_limit() + 1) + "\n")
        argv = {
            "--y": ["estimate", "--model", "mtd", "--y", str(bad)],
            "--x": ["estimate", "--model", "gmmc", "--y", str(panel), "--x", str(bad)],
            "--input": ["discretize", "--input", str(bad), "--column", "x"],
        }[role]
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == EXIT_DATA
        assert f"{bad}: malformed CSV" in captured.err
        assert captured.out == ""

    def test_usage_error_from_argparse(self):
        with pytest.raises(SystemExit) as exc:
            main(["estimate", "--model", "bogus", "--y", "x.csv"])
        assert exc.value.code == EXIT_USAGE

    def test_console_entry_point(self, synthetic_files):
        panel, _ = synthetic_files
        proc = subprocess.run(
            [sys.executable, "-m", "markovmix.cli", "estimate", "--model", "mtd",
             "--y", str(panel)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "$`Equation 1`" in proc.stdout


@st.composite
def _damaged_csv(draw, cells):
    """A table of ``cells`` with up to two ragged, empty or text cells or blank lines."""
    ncol = draw(st.integers(1, 3))
    rows = [[draw(cells) for _ in range(ncol)] for _ in range(draw(st.integers(0, 12)))]
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        r = draw(st.integers(0, len(rows) - 1))
        damage = draw(st.sampled_from(["ragged", "empty", "text", "blank"]))
        if damage == "ragged":
            rows[r] = rows[r][:-1] if draw(st.booleans()) else [*rows[r], draw(cells)]
        elif damage == "blank":
            rows.insert(r, [draw(st.sampled_from(["", "  "]))])
        elif rows[r]:
            c = draw(st.integers(0, len(rows[r]) - 1))
            rows[r][c] = draw(st.sampled_from(["", " "] if damage == "empty" else ["x", '"4,5"']))
    return "".join(",".join(row) + "\n" for row in rows)


FUZZ_ROWS = 30


@st.composite
def _covariate_csv(draw):
    """``FUZZ_ROWS`` rows of one or two covariates from 1e-300 to 1e300 in
    magnitude, some columns constant, with up to two NaN or inf cells."""
    columns = []
    for _ in range(draw(st.integers(1, 2))):
        scale = draw(st.sampled_from([1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300]))
        if draw(st.booleans()):
            columns.append([repr(scale)] * FUZZ_ROWS)
        else:
            values = draw(st.lists(st.floats(-10.0, 10.0), min_size=FUZZ_ROWS, max_size=FUZZ_ROWS))
            columns.append([repr(v * scale) for v in values])
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        column = columns[draw(st.integers(0, len(columns) - 1))]
        column[draw(st.integers(0, FUZZ_ROWS - 1))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    header = ",".join(f"x{i}" for i in range(len(columns)))
    return header + "\n" + "".join(",".join(row) + "\n" for row in zip(*columns))


@st.composite
def _damaged_fit(draw, text):
    """The saved fit ``text`` with one to three damages below its top level: a key
    or entry dropped, a list cut short or grown, a value swapped for another type,
    NaN or a negative number."""
    doc = json.loads(text)
    for _ in range(draw(st.integers(1, 3))):
        parent, key, node = None, None, doc
        for _ in range(draw(st.integers(1, 4))):
            if not isinstance(node, (dict, list)) or not node:
                break
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            key = draw(st.sampled_from(keys))
            parent, node = node, node[key]
        damage = draw(st.sampled_from(
            ["drop", "type", "nan", "negative"] + (["resize"] if isinstance(node, list) else [])
        ))
        if damage == "drop":
            del parent[key]
        elif damage == "resize":
            if node and draw(st.booleans()):
                del node[draw(st.integers(0, len(node) - 1)):]
            else:
                node.append(node[-1] if node else 1)
        elif damage == "type":
            parent[key] = draw(st.sampled_from(["x", 2, 0.5, None, True, [], {}, [[1.0]]]))
        elif damage == "nan":
            parent[key] = float("nan")
        else:
            parent[key] = draw(st.sampled_from([-1, -0.5, -1e300]))
    return json.dumps(doc)


class TestInputFuzz:
    """Ragged rows, empty and non-numeric cells, blank lines, extreme or
    non-finite covariates and damaged fit files never escape main."""

    @pytest.fixture(scope="class")
    def fuzz_path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "input.csv"

    @pytest.fixture(scope="class")
    def fuzz_panel(self, tmp_path_factory):
        rng = np.random.default_rng(17)
        rows = zip(simulate_homog_chain(np.array([[0.6, 0.4], [0.3, 0.7]]), FUZZ_ROWS, rng=rng),
                   simulate_homog_chain(np.array([[0.5, 0.5], [0.4, 0.6]]), FUZZ_ROWS, rng=rng))
        path = tmp_path_factory.mktemp("fuzz-panel") / "panel.csv"
        path.write_text("".join(f"{a},{b}\n" for a, b in rows), encoding="utf-8")
        return path

    def _run(self, argv):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(argv)

    @settings(max_examples=40, deadline=None)
    @given(text=_damaged_csv(st.sampled_from(["1", "2", "3", " 2 ", "a"])))
    def test_estimate_mtd(self, fuzz_path, text):
        fuzz_path.write_text(text, encoding="utf-8")
        assert self._run(["estimate", "--model", "mtd", "--y", str(fuzz_path)]) in {0, 1, 2, 3}

    @settings(max_examples=40, deadline=None)
    @given(
        text=_damaged_csv(st.sampled_from(["1", "2.5", "-3", " 4e1 ", "0.25", "7", "-8.5", "6"])),
        header=st.booleans(),
        column=st.sampled_from(["0", "1", "-1", "a"]),
    )
    def test_discretize(self, fuzz_path, text, header, column):
        fuzz_path.write_text(text, encoding="utf-8")
        argv = ["discretize", "--input", str(fuzz_path), "--column", column]
        assert self._run(argv + ([] if header else ["--no-header"])) in {0, 1, 2, 3}

    @pytest.fixture(scope="class")
    def fuzz_fit_text(self, synthetic_files, tmp_path_factory):
        panel, cov = synthetic_files
        fit_path = tmp_path_factory.mktemp("fuzz-fit") / "fit.json"
        argv = ["estimate", "--model", "gmmc", "--y", str(panel), "--x", str(cov),
                "--save-fit", str(fit_path)]
        assert self._run(argv) == 0
        return fit_path.read_text()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_transmat_fit_file(self, fuzz_path, fuzz_fit_text, data):
        fuzz_path.write_text(data.draw(_damaged_fit(fuzz_fit_text)), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["transmat", "--fit", str(fuzz_path), "--x", "1.0"])
        assert rc in {0, 1, 2, 3}
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=30, deadline=None)
    @given(text=_covariate_csv())
    def test_estimate_gmmc_covariates(self, fuzz_path, fuzz_panel, text):
        fuzz_path.write_text(text, encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main(["estimate", "--model", "gmmc", "--y", str(fuzz_panel),
                       "--x", str(fuzz_path)])
        assert rc in {0, 1, 2, 3}
        assert "Traceback" not in err.getvalue()
