import csv
import json
import math

import pytest

from survreport import cli, estimate
from survreport.panel import ErrorModel, read_panel_csv
from survreport.simulate import benchmark_config, generate_dataset
from survreport.cli import EXIT_INPUT_ERROR, EXIT_NOT_CONVERGED, EXIT_OK, main, parse_grid_spec


def write_panel(tmp_path, n=150, seed=0, with_covariate=True, name="panel.csv", drift=0.0):
    """A generated panel as CSV; ``drift`` adds drift * k to the covariate
    at a subject's k-th visit, giving time-varying covariate paths."""
    config = benchmark_config(0.75, 0.9, 0.5, n_replicates=1, seed=seed)
    config = type(config)(**{**config.__dict__, "n_subjects": n})
    ds = generate_dataset(config, 0)
    path = tmp_path / name
    with open(path, "w", encoding="utf-8") as fh:
        if with_covariate:
            fh.write("subject_id,time,result,z1\n")
        else:
            fh.write("subject_id,time,result\n")
        for s in ds.subjects:
            for k, (t, r) in enumerate(zip(s.times, s.results)):
                if with_covariate:
                    fh.write(f"{s.subject_id},{t},{r},{s.covariates[0] + drift * k}\n")
                else:
                    fh.write(f"{s.subject_id},{t},{r}\n")
    return path


# reports 1,0,1 break the adaptive schedule but not the predetermined one
PREDETERMINED_PANEL = (
    "subject_id,time,result\n"
    "A,1,1\nA,2,0\nA,3,1\nB,1,0\nB,2,0\nB,3,0\nC,1,0\nC,2,1\nC,3,0\n"
    "D,1,0\nD,2,0\nD,3,1\nE,1,1\nE,2,1\nE,3,1\n"
)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


class TestParseGridSpec:
    def test_full_cross(self):
        models = parse_grid_spec(
            "phi1=0.5,0.61,0.7;phi0=0.993,0.995,0.997;eta=0.96,0.98"
        )
        assert len(models) == 18
        assert models[0] == ErrorModel(0.5, 0.993, 0.96)
        assert models[-1] == ErrorModel(0.7, 0.997, 0.98)

    def test_eta_defaults_to_one(self):
        models = parse_grid_spec("phi1=0.6;phi0=0.99")
        assert models == [ErrorModel(0.6, 0.99, 1.0)]

    @pytest.mark.parametrize(
        "spec",
        ["phi1=0.6", "phi0=0.99", "phi1=0.6;phi0=abc", "phi1=0.6;phi0=", "rho=1;phi1=.6;phi0=.9"],
    )
    def test_malformed(self, spec):
        with pytest.raises(ValueError):
            parse_grid_spec(spec)

    @pytest.mark.parametrize(
        "spec, name", [("phi1=0.9;phi0=0.9;phi1=0.8", "phi1"), ("eta=1;phi1=0.9;eta=0.9;phi0=0.9", "eta")]
    )
    def test_repeated_parameter(self, spec, name):
        with pytest.raises(ValueError, match=f"grid parameter '{name}' is given more than once"):
            parse_grid_spec(spec)


class TestFitCommand:
    def test_end_to_end(self, tmp_path):
        panel = write_panel(tmp_path)
        out = tmp_path / "fit"
        code = main(
            ["fit", str(panel), "--phi1", "0.75", "--phi0", "0.9", "--out", str(out)]
        )
        assert code == EXIT_OK
        blob = json.loads((tmp_path / "fit.json").read_text())
        assert blob["convergence"]["converged"] is True
        assert blob["coefficients"][0]["name"] == "z1"
        assert blob["coefficients"][0]["hazard_ratio"] > 0
        coef = read_rows(tmp_path / "fit_coefficients.csv")
        assert len(coef) == 1
        curve = read_rows(tmp_path / "fit_survival.csv")
        assert len(curve) == len(blob["taus"])
        s = [float(r["survival"]) for r in curve]
        assert all(b < a for a, b in zip(s, s[1:]))
        for r in curve:
            assert 0.0 <= float(r["ci_low"]) <= float(r["survival"]) <= float(r["ci_high"]) <= 1.0

    def test_onesample_without_covariates(self, tmp_path):
        panel = write_panel(tmp_path, with_covariate=False)
        out = tmp_path / "one"
        code = main(
            ["fit", str(panel), "--phi1", "0.75", "--phi0", "0.9", "--out", str(out)]
        )
        assert code == EXIT_OK
        blob = json.loads((tmp_path / "one.json").read_text())
        assert blob["model"] == "onesample"
        assert blob["coefficients"] == []
        assert not (tmp_path / "one_coefficients.csv").exists()

    def test_round_snaps_times_in_outputs(self, tmp_path):
        config = benchmark_config(0.75, 0.9, 0.5, n_replicates=1, seed=2)
        ds = generate_dataset(type(config)(**{**config.__dict__, "n_subjects": 200}), 0)
        panel = tmp_path / "jittered.csv"
        with open(panel, "w", encoding="utf-8") as fh:
            fh.write("subject_id,time,result,z1\n")
            for s in ds.subjects:
                for k, (t, r) in enumerate(zip(s.times, s.results)):
                    # visits at 0.1, 0.2, ... recorded up to 0.004 early or late
                    fh.write(f"{s.subject_id},{t / 10 + (0.004 if k % 2 else -0.004)},{r},{s.covariates[0]}\n")
        code = main(
            ["fit", str(panel), "--phi1", "0.75", "--phi0", "0.9", "--round", "0.1",
             "--out", str(tmp_path / "r")]
        )
        assert code == EXIT_OK
        expected = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]
        assert json.loads((tmp_path / "r.json").read_text())["taus"] == expected
        assert [r["tau"] for r in read_rows(tmp_path / "r_survival.csv")] == [str(t) for t in expected]

    @pytest.mark.parametrize("granularity", ["0", "-1", "nan", "inf"])
    def test_bad_round_is_input_error(self, tmp_path, capsys, granularity):
        panel = write_panel(tmp_path, n=20)
        code = main(
            ["fit", str(panel), "--phi1", "0.9", "--phi0", "0.9", "--round", granularity,
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_INPUT_ERROR
        assert "survreport: error: rounding granularity must be positive" in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_missing_phi0_is_usage_error(self, tmp_path):
        panel = write_panel(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(panel), "--phi1", "0.75", "--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_INPUT_ERROR

    def test_phi_out_of_range_is_usage_error(self, tmp_path):
        panel = write_panel(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(
                ["fit", str(panel), "--phi1", "1.5", "--phi0", "0.9",
                 "--out", str(tmp_path / "x")]
            )
        assert exc.value.code == EXIT_INPUT_ERROR

    def test_nonexistent_file(self, tmp_path):
        code = main(
            ["fit", str(tmp_path / "missing.csv"), "--phi1", "0.75", "--phi0", "0.9",
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_INPUT_ERROR

    def test_invalid_panel_returns_input_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject_id,time,result\nA,1,1\nA,2,0\n", encoding="utf-8")
        code = main(
            ["fit", str(bad), "--phi1", "0.75", "--phi0", "0.9",
             "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_INPUT_ERROR

    @pytest.mark.parametrize("rows, extra", [("a,-1,0\n", []), ("a,0.3,0\na,2,0\n", ["--round", "1"])])
    def test_non_positive_visit_time_names_the_subject(self, tmp_path, capsys, rows, extra):
        panel = tmp_path / "p.csv"
        panel.write_text("subject_id,time,result\nb,1,0\n" + rows, encoding="utf-8")
        argv = ["fit", str(panel), "--phi1", "0.75", "--phi0", "0.9", "--out", str(tmp_path / "x"), *extra]
        assert main(argv) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == "survreport: error: dataset failed validation: a: non-positive visit time\n"
        assert not (tmp_path / "x.json").exists()

    @pytest.mark.parametrize(
        "panel_text, base_text, message",
        [
            ("subject_id,time,result,z1\nA,1,0,1\n,2,0,1\n", None, "line 3: empty subject_id"),
            ("subject_id,time,result\nA,1,0\n", "subject_id,z1\nA,0\nA,5\n",
             "baseline lines 2 and 3: subject A appears twice"),
        ],
    )
    def test_malformed_subject_ids_are_input_errors(self, tmp_path, capsys, panel_text, base_text, message):
        panel = tmp_path / "p.csv"
        panel.write_text(panel_text, encoding="utf-8")
        argv = ["fit", str(panel), "--phi1", "0.75", "--phi0", "0.9", "--out", str(tmp_path / "x")]
        if base_text is not None:
            (tmp_path / "b.csv").write_text(base_text, encoding="utf-8")
            argv += ["--baseline-covariates", str(tmp_path / "b.csv")]
        assert main(argv) == EXIT_INPUT_ERROR
        assert message in capsys.readouterr().err

    def test_predetermined_schedule_accepts_nonterminal_positive(self, tmp_path):
        panel = tmp_path / "pre.csv"
        panel.write_text(
            "subject_id,time,result\nA,1,1\nA,2,0\nB,1,0\nB,2,1\nC,1,0\nC,2,0\n",
            encoding="utf-8",
        )
        code = main(
            ["fit", str(panel), "--phi1", "0.8", "--phi0", "0.9",
             "--schedule", "predetermined", "--out", str(tmp_path / "pre")]
        )
        assert code == EXIT_OK

    def test_not_converged_exits_two_with_artifacts(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(estimate, "MAX_NEWTON_STEPS", 0)
        panel = write_panel(tmp_path, n=60)
        out = tmp_path / "nc"
        code = main(["fit", str(panel), "--phi1", "0.75", "--phi0", "0.9", "--out", str(out)])
        assert code == EXIT_NOT_CONVERGED
        assert "fit did not converge; artifacts written anyway" in capsys.readouterr().err
        blob = json.loads((tmp_path / "nc.json").read_text())
        assert blob["convergence"]["converged"] is False
        assert blob["convergence"]["iterations"] == 0
        assert len(read_rows(tmp_path / "nc_coefficients.csv")) == 1
        assert len(read_rows(tmp_path / "nc_survival.csv")) == len(blob["taus"])

    def test_time_varying_matches_in_process_fit(self, tmp_path):
        panel = write_panel(tmp_path, n=200, seed=4, drift=0.25)
        out = tmp_path / "tv"
        code = main(["fit", str(panel), "--phi1", "0.75", "--phi0", "0.9", "--time-varying", "--out", str(out)])
        assert code == EXIT_OK
        blob = json.loads((tmp_path / "tv.json").read_text())
        want = estimate.fit(read_panel_csv(panel).dataset, ErrorModel(0.75, 0.9), estimate.MODEL_COV_TIMEVARYING)
        assert want.converged and blob["model"] == estimate.MODEL_COV_TIMEVARYING
        assert blob == json.loads(json.dumps(estimate.fit_to_dict(want)))

    def test_notes_for_carried_forward_and_merged_visits(self, tmp_path, capsys):
        panel = tmp_path / "notes.csv"
        lines = write_panel(tmp_path, n=60, seed=1).read_text(encoding="utf-8").splitlines()
        first = lines[1].split(",")[0]
        rows = [i for i, line in enumerate(lines) if line.startswith(first + ",")]
        assert len(rows) >= 2
        # a blank covariate cell at a subject's second visit, and a copy of
        # its first visit 0.01 later that rounding to 1 merges back
        lines[rows[1]] = lines[rows[1]].rsplit(",", 1)[0] + ","
        sid, t, r, z = lines[rows[0]].split(",")
        lines.insert(rows[0] + 1, f"{sid},{float(t) + 0.01},{r},{z}")
        panel.write_text("\n".join(lines) + "\n", encoding="utf-8")
        argv = ["fit", str(panel), "--phi1", "0.75", "--phi0", "0.9", "--round", "1", "--out", str(tmp_path / "n")]
        code = main(argv)
        assert code == EXIT_OK
        err = capsys.readouterr().err
        assert "note: 1 covariate value(s) carried forward" in err
        assert "note: 1 visit(s) merged by rounding (later report kept)" in err

    def test_baseline_covariates_file(self, tmp_path):
        panel = tmp_path / "p.csv"
        panel.write_text(
            "subject_id,time,result\nA,1,0\nA,2,1\nB,1,0\nB,2,0\nC,1,0\nC,2,1\nD,1,0\nD,2,0\n",
            encoding="utf-8",
        )
        base = tmp_path / "b.csv"
        base.write_text("subject_id,age\nA,60\nB,55\nC,70\nD,50\n", encoding="utf-8")
        out = tmp_path / "base_fit"
        code = main(
            ["fit", str(panel), "--baseline-covariates", str(base),
             "--phi1", "0.8", "--phi0", "0.9", "--out", str(out)]
        )
        assert code == EXIT_OK
        blob = json.loads((tmp_path / "base_fit.json").read_text())
        assert blob["coefficients"][0]["name"] == "age"


class TestSimulateCommand:
    SPEC = {
        "n_subjects": 120,
        "n_visits": 4,
        "visit_spacing": 1.0,
        "missing_prob": 0.2,
        "event_dist": {"kind": "exponential", "rate": 0.15},
        "beta_true": [1.0],
        "covariate_gen": {"kind": "bernoulli", "p": 0.5},
        "error_model": {"phi1": 0.8, "phi0": 0.95},
        "n_replicates": 4,
    }

    def scenario(self, tmp_path, seed=21):
        spec = {**self.SPEC, "seed": seed}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_both_arms(self, tmp_path):
        config = self.scenario(tmp_path)
        out = tmp_path / "sim.csv"
        assert main(["simulate", str(config), "--out", str(out)]) == EXIT_OK
        rows = read_rows(out)
        assert [r["analysis"] for r in rows] == ["adjusted", "unadjusted"]
        assert all(int(r["n_replicates"]) == 4 for r in rows)

    def test_single_arm_and_determinism(self, tmp_path):
        config = self.scenario(tmp_path)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["simulate", str(config), "--analysis", "adjusted", "--out", str(out1)])
        main(["simulate", str(config), "--analysis", "adjusted", "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_rows(out1)
        assert len(rows) == 1

    def test_null_effect_reports_nan_relative_bias(self, tmp_path):
        # relative bias is undefined at beta = 0; it used to end the command
        # in a ZeroDivisionError after every replicate was fitted
        path = tmp_path / "null.json"
        path.write_text(json.dumps({**self.SPEC, "beta_true": [0.0], "seed": 21}), encoding="utf-8")
        out = tmp_path / "null.csv"
        assert main(["simulate", str(path), "--analysis", "adjusted", "--out", str(out)]) == EXIT_OK
        [row] = read_rows(out)
        assert float(row["beta_true"]) == 0.0 and math.isnan(float(row["bias_pct"]))
        assert int(row["n_converged"]) == 4
        for key in ("mean_estimate", "empirical_sd", "mean_estimated_se", "rmse", "coverage_pct"):
            assert math.isfinite(float(row[key])), key

    def test_bad_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{}", encoding="utf-8")
        assert main(["simulate", str(path), "--out", str(tmp_path / "o.csv")]) == EXIT_INPUT_ERROR

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda spec: [1, 2], "scenario config must be a JSON object, not [1, 2]"),
            (lambda spec: {**spec, "event_dist": [1, 2]}, "scenario config key 'event_dist' has invalid value [1, 2]"),
            (lambda spec: {**spec, "error_model": 0.8}, "scenario config key 'error_model' has invalid value 0.8"),
            (lambda spec: {**spec, "covariate_gen": "bernoulli"},
             'scenario config key \'covariate_gen\' has invalid value "bernoulli"'),
            (lambda spec: {**spec, "n_subjects": None}, "scenario config key 'n_subjects' has invalid value null"),
            (lambda spec: {**spec, "visit_spacing": None}, "scenario config key 'visit_spacing' has invalid value null"),
            (lambda spec: {**spec, "event_dist": {"kind": "exponential", "rate": None}},
             "scenario config key 'event_dist.rate' has invalid value null"),
            (lambda spec: {**spec, "error_model": {"phi1": 0.8, "phi0": None}},
             "scenario config key 'error_model.phi0' has invalid value null"),
            (lambda spec: {**spec, "beta_true": None}, "scenario config key 'beta_true' has invalid value null"),
        ],
        ids=["array", "event_dist", "error_model", "covariate_gen", "n_subjects", "visit_spacing", "event_dist.rate",
             "error_model.phi0", "beta_true"],
    )
    def test_malformed_config_exits_1_naming_the_key(self, tmp_path, capsys, change, message):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(change(self.SPEC)), encoding="utf-8")
        out = tmp_path / "o.csv"
        assert main(["simulate", str(path), "--out", str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == f"survreport: error: {message}\n"
        assert not out.exists()


class TestReproduceCommand:
    def test_table1_smoke(self, tmp_path):
        out = tmp_path / "rep"
        code = main(["reproduce", "table1", "--replicates", "2", "--seed", "11",
                     "--out", str(out)])
        assert code == EXIT_OK
        rows = read_rows(tmp_path / "rep.csv")
        assert len(rows) == 12
        assert {r["analysis"] for r in rows} == {"adjusted", "unadjusted"}
        text = (tmp_path / "rep.txt").read_text()
        assert "bias%" in text

    def test_unknown_table_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "table3", "--out", str(tmp_path / "x")])
        assert exc.value.code == EXIT_INPUT_ERROR


class TestSensitivityCommand:
    def test_grid_rows_and_single_cell_agreement(self, tmp_path):
        panel = write_panel(tmp_path, n=120, seed=2)
        out = tmp_path / "grid.csv"
        code = main(
            ["sensitivity", str(panel),
             "--grid", "phi1=0.7,0.75,0.8;phi0=0.88,0.9,0.92;eta=0.97,1.0",
             "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = read_rows(out)
        assert len(rows) == 18
        assert all(r["converged"] == "True" for r in rows)

        # the (0.75, 0.9, 1.0) cell must match a direct fit of the same data
        fit_out = tmp_path / "direct"
        main(["fit", str(panel), "--phi1", "0.75", "--phi0", "0.9",
              "--out", str(fit_out)])
        blob = json.loads((tmp_path / "direct.json").read_text())
        cell = next(
            r for r in rows
            if r["phi1"] == "0.75" and r["phi0"] == "0.9" and r["eta"] == "1.0"
        )
        assert float(cell["hazard_ratio"]) == pytest.approx(
            blob["coefficients"][0]["hazard_ratio"], rel=1e-9
        )

    def test_predetermined_schedule(self, tmp_path, capsys):
        panel = tmp_path / "pre.csv"
        panel.write_text(PREDETERMINED_PANEL, encoding="utf-8")
        out = tmp_path / "g.csv"
        argv = ["sensitivity", str(panel), "--grid", "phi1=0.8;phi0=0.9", "--out", str(out)]
        assert main(argv) == EXIT_INPUT_ERROR  # the default schedule is adaptive
        assert "multiple positive results" in capsys.readouterr().err
        assert main(argv + ["--schedule", "predetermined"]) == EXIT_OK
        [row] = read_rows(out)
        assert row["converged"] == "True" and row["error"] == ""
        assert main(["fit", str(panel), "--phi1", "0.8", "--phi0", "0.9", "--schedule", "predetermined",
                     "--out", str(tmp_path / "pre")]) == EXIT_OK

    def test_time_varying_without_covariates_fails_like_fit(self, tmp_path, capsys):
        panel = tmp_path / "pre.csv"
        panel.write_text(PREDETERMINED_PANEL, encoding="utf-8")
        common = [str(panel), "--schedule", "predetermined", "--time-varying"]
        assert main(["fit", *common, "--phi1", "0.8", "--phi0", "0.9", "--out", str(tmp_path / "f")]) == EXIT_INPUT_ERROR
        fit_err = capsys.readouterr().err
        assert "time-varying model requires covariates" in fit_err
        out = tmp_path / "g.csv"
        assert main(["sensitivity", *common, "--grid", "phi1=0.8,0.9;phi0=0.9", "--out", str(out)]) == EXIT_INPUT_ERROR
        assert capsys.readouterr().err == fit_err
        assert not out.exists()

    def test_bad_grid_spec(self, tmp_path):
        panel = write_panel(tmp_path, n=40, seed=3)
        code = main(
            ["sensitivity", str(panel), "--grid", "phi1=0.7",
             "--out", str(tmp_path / "g.csv")]
        )
        assert code == EXIT_INPUT_ERROR

    def test_repeated_grid_parameter_is_input_error(self, tmp_path, capsys):
        panel = write_panel(tmp_path, n=40, seed=3)
        out = tmp_path / "g.csv"
        code = main(["sensitivity", str(panel), "--grid", "phi1=0.9;phi0=0.9;phi1=0.8", "--out", str(out)])
        assert code == EXIT_INPUT_ERROR
        assert "grid parameter 'phi1' is given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_no_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == EXIT_INPUT_ERROR
