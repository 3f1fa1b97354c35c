import math

import numpy as np
import pytest

from survreport.panel import (
    ADAPTIVE,
    PREDETERMINED,
    Dataset,
    ErrorModel,
    PanelFormatError,
    PanelValidationError,
    StudyGrid,
    SubjectPanel,
    apply_rounding,
    build_dataset,
    build_grid,
    read_panel_csv,
    round_to_granularity,
    validate,
)


def subj(sid, times, results, cov=None):
    return SubjectPanel(sid, tuple(times), tuple(results), covariates=cov)


class TestErrorModel:
    def test_valid(self):
        em = ErrorModel(0.61, 0.995, 0.96)
        assert em.phi1 == 0.61

    @pytest.mark.parametrize("kwargs", [
        dict(phi1=0.0, phi0=0.9),
        dict(phi1=1.1, phi0=0.9),
        dict(phi1=0.9, phi0=0.0),
        dict(phi1=0.9, phi0=0.9, eta=0.0),
        dict(phi1=0.9, phi0=0.9, eta=1.5),
    ])
    def test_out_of_range(self, kwargs):
        with pytest.raises(ValueError):
            ErrorModel(**kwargs)

    def test_uninformative_rejected(self):
        # a positive report must be likelier after the event than before
        with pytest.raises(ValueError):
            ErrorModel(phi1=0.3, phi0=0.6)


class TestBuildGrid:
    def test_union_of_times(self):
        grid = build_grid([subj("a", [1.0, 2.0], [0, 0]), subj("b", [2.0, 3.0], [0, 0])])
        assert grid.taus == (1.0, 2.0, 3.0)
        assert grid.J == 3

    def test_rounding_to_granularity(self):
        grid = build_grid([subj("a", [0.9, 2.1], [0, 0])], rounding=1.0)
        assert grid.taus == (1.0, 2.0)

    def test_annual_schedule(self):
        subs = [subj(f"s{i}", [float(k) for k in range(1, 9)], [0] * 8) for i in range(3)]
        grid = build_grid(subs)
        assert grid.taus == tuple(float(k) for k in range(1, 9))
        assert grid.J == 8  # nine intervals including the open tail

    def test_idempotent_on_rounded_data(self):
        subs = [subj("a", [1.0, 2.0, 5.0], [0, 0, 1])]
        grid1 = build_grid(subs, rounding=1.0)
        rounded = [apply_rounding(s, 1.0) for s in subs]
        assert build_grid(rounded, rounding=1.0) == grid1
        assert build_grid(rounded) == grid1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_grid([])
        with pytest.raises(ValueError):
            build_grid([subj("a", [], [])])

    def test_bad_granularity(self):
        with pytest.raises(ValueError):
            build_grid([subj("a", [1.0], [0])], rounding=0.0)

    def test_in_memory_nan_time_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            build_dataset([subj("a", [1.0, math.nan], [0, 0])])

    @pytest.mark.parametrize("taus", [(1.0, math.inf), (math.nan,), (1.0, math.nan, 2.0)])
    def test_non_finite_grid_rejected(self, taus):
        with pytest.raises(ValueError, match="finite"):
            StudyGrid(taus)


class TestRounding:
    @pytest.mark.parametrize(
        "time, granularity, expected",
        [(0.3, 0.1, 0.3), (0.71, 0.1, 0.7), (2.04, 0.25, 2.0), (1.13, 0.05, 1.15), (7.6, 1.0, 8.0)],
    )
    def test_snaps_to_granularity_decimals(self, time, granularity, expected):
        assert round_to_granularity(time, granularity) == expected

    def test_collision_keeps_later_record(self):
        s = apply_rounding(subj("a", [1.9, 2.1], [1, 0]), 1.0)
        assert s.times == (2.0,)
        assert s.results == (0,)

    def test_no_collision_preserves_order(self):
        s = apply_rounding(subj("a", [0.9, 2.2], [0, 1]), 1.0)
        assert s.times == (1.0, 2.0)
        assert s.results == (0, 1)


class TestValidate:
    def grid(self):
        return StudyGrid((1.0, 2.0, 3.0))

    def test_clean_dataset_empty_report(self):
        ds = Dataset((subj("a", [1.0, 2.0], [0, 1]),), self.grid())
        assert validate(ds) == []

    def test_positive_not_terminal(self):
        ds = Dataset((subj("a", [1.0, 2.0], [1, 0]),), self.grid())
        rules = [v.rule for v in validate(ds)]
        assert "positive not terminal" in rules

    def test_predetermined_allows_inconsistent_patterns(self):
        ds = Dataset((subj("a", [1.0, 2.0], [1, 0]),), self.grid(), schedule=PREDETERMINED)
        assert validate(ds) == []

    def test_off_grid_visit(self):
        ds = Dataset((subj("a", [2.5], [0]),), self.grid())
        assert any(v.rule == "off-grid visit time" for v in validate(ds))

    def test_zero_visits(self):
        ds = Dataset((subj("a", [1.0], [0]), subj("b", [], [])), self.grid())
        assert any(v.rule == "zero visits" and v.subject_id == "b" for v in validate(ds))

    def test_non_increasing_times(self):
        ds = Dataset((subj("a", [2.0, 1.0], [0, 0]),), self.grid())
        assert any(v.rule == "visit times not strictly increasing" for v in validate(ds))

    def test_covariate_length_mismatch(self):
        ds = Dataset(
            (subj("a", [1.0], [0], cov=(1.0, 2.0)),),
            self.grid(),
            covariate_names=("x",),
        )
        assert any(v.rule == "covariate length mismatch" for v in validate(ds))

    def test_report_matrix(self):
        ds = Dataset((subj("a", [1.0, 3.0], [0, 1]), subj("b", [2.0], [0])), self.grid())
        assert ds.reports.dtype == np.int8
        assert ds.reports.tolist() == [[0, -1, 1], [-1, 0, -1]]
        assert ds.reports is ds.reports
        with pytest.raises(ValueError):
            ds.reports[0, 0] = 1

    def test_report_matrix_off_grid_time(self):
        ds = Dataset((subj("a", [2.5], [0]),), self.grid())
        with pytest.raises(KeyError, match="2.5"):
            ds.reports

    @pytest.mark.parametrize("times", [[2.0, 2.0], [3.0, 1.0]])
    def test_report_matrix_rejects_repeated_or_unordered_visits(self, times):
        ds = Dataset((subj("a", [1.0], [0]), subj("b", times, [0, 0])), self.grid())
        with pytest.raises(ValueError, match="subject b"):
            ds.reports

    def test_covariate_matrix(self):
        ds = Dataset((subj("a", [1.0], [0], cov=(1.0, -2.0)), subj("b", [2.0], [0], cov=(0.5, 3.0))),
                     self.grid(), covariate_names=("x", "y"))
        assert ds.covariates.tolist() == [[1.0, -2.0], [0.5, 3.0]]
        assert ds.covariates is ds.covariates
        with pytest.raises(ValueError):
            ds.covariates[0, 0] = 9.0
        assert Dataset((subj("a", [1.0], [0]),), self.grid()).covariates.shape == (1, 0)

    def test_covariate_matrix_is_none_with_a_path(self):
        path = SubjectPanel("b", (2.0,), (0,), covariate_path=((0.0, (1.0,)), (1.0, (2.0,))))
        ds = Dataset((subj("a", [1.0], [0], cov=(1.0,)), path), self.grid(), covariate_names=("x",))
        assert ds.covariates is None

    def test_from_arrays_equals_built_dataset(self):
        subjects = (subj("a", [1.0, 3.0], [0, 1], cov=(1.0,)), subj("b", [2.0], [0], cov=(0.0,)))
        built = build_dataset(subjects, covariate_names=("x",))
        ds = Dataset.from_arrays(["a", "b"], [[0, -1, 1], [-1, 0, -1]], self.grid(), [[1.0], [0.0]], ("x",))
        assert ds.reports.dtype == np.int8 and ds.reports.tolist() == built.reports.tolist()
        assert ds.covariates.tolist() == [[1.0], [0.0]]
        assert not ds.reports.flags.writeable and not ds.covariates.flags.writeable
        assert ds.n == 2 and len(ds.subjects) == 2
        assert ds == built and built == ds and hash(ds) == hash(built)
        assert tuple(ds.subjects) == subjects and ds.subjects[1] is ds.subjects[1]
        assert ds.subjects[0].results == (0, 1) and type(ds.subjects[0].results[0]) is int
        no_covariates = Dataset.from_arrays(["a"], [[0, 0, -1]], self.grid())
        assert no_covariates.subjects[0] == subj("a", [1.0, 2.0], [0, 0])
        assert no_covariates.covariates.shape == (1, 0)

    @pytest.mark.parametrize(
        "reports, covariates, names",
        [
            ([[0, 1]], None, ()),                      # J columns expected
            ([[0, 1, 2]], None, ()),                   # not a report
            ([[0, 1, -1]], None, ("x",)),              # names without a matrix
            ([[0, 1, -1]], [[1.0, 2.0]], ("x",)),      # P columns expected
        ],
    )
    def test_from_arrays_rejects_bad_shapes_and_values(self, reports, covariates, names):
        with pytest.raises(ValueError):
            Dataset.from_arrays(["a"], reports, self.grid(), covariates, names)

    def test_interval_index_unique(self):
        grid = self.grid()
        assert [grid.interval_index(t) for t in grid.taus] == [1, 2, 3]
        with pytest.raises(KeyError):
            grid.interval_index(2.5)


class TestReadPanelCsv(object):
    def write(self, tmp_path, text, name="panel.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return path

    def test_single_subject(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,result\nA,1,0\nA,2,0\nA,3,1\n")
        loaded = read_panel_csv(path)
        ds = loaded.dataset
        assert ds.n == 1
        assert ds.subjects[0].n_visits == 3
        assert ds.grid.taus == (1.0, 2.0, 3.0)

    def test_non_binary_result_names_line(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,result\nA,1,0\nA,2,yes\n")
        with pytest.raises(PanelFormatError, match="line 3"):
            read_panel_csv(path)

    def test_locf_fills_gap(self, tmp_path):
        path = self.write(
            tmp_path,
            "subject_id,time,result,bmi\nA,1,0,25.0\nA,3,0,\nA,5,1,27.0\n",
        )
        loaded = read_panel_csv(path)
        s = loaded.dataset.subjects[0]
        assert loaded.n_imputed == 1
        assert s.covariate_path is not None
        assert dict(s.covariate_path)[3.0] == (25.0,)

    def test_locf_never_changes_observed_values(self, tmp_path):
        path = self.write(
            tmp_path,
            "subject_id,time,result,x\nA,1,0,1.5\nA,2,0,\nA,3,0,9.0\n",
        )
        s = read_panel_csv(path).dataset.subjects[0]
        path_map = dict(s.covariate_path)
        assert path_map[1.0] == (1.5,)
        assert path_map[3.0] == (9.0,)

    def test_missing_at_first_visit_errors(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,result,x\nA,1,0,\nA,2,0,3.0\n")
        with pytest.raises(PanelFormatError, match="first visit"):
            read_panel_csv(path)

    def test_constant_covariates_collapse_to_fixed(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,result,x\nA,1,0,2.0\nA,2,1,2.0\n")
        s = read_panel_csv(path).dataset.subjects[0]
        assert s.covariates == (2.0,)
        assert s.covariate_path is None

    def test_baseline_covariate_file(self, tmp_path):
        panel = self.write(tmp_path, "subject_id,time,result\nA,1,0\nA,2,1\nB,1,0\n")
        base = self.write(tmp_path, "subject_id,age\nA,63\nB,55\n", name="base.csv")
        ds = read_panel_csv(panel, baseline_csv=base).dataset
        assert ds.covariate_names == ("age",)
        assert ds.subjects[0].covariates == (63.0,)

    def test_baseline_file_missing_subject(self, tmp_path):
        panel = self.write(tmp_path, "subject_id,time,result\nA,1,0\n")
        base = self.write(tmp_path, "subject_id,age\nZ,40\n", name="base.csv")
        with pytest.raises(PanelFormatError, match="missing baseline"):
            read_panel_csv(panel, baseline_csv=base)

    def test_bad_field_count(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,result\nA,1\n")
        with pytest.raises(PanelFormatError, match="line 2"):
            read_panel_csv(path)

    @pytest.mark.parametrize(
        "text, where",
        [
            ("subject_id,time,result\nA,1,0\nA,nan,0\n", "line 3: column 'time'"),
            ("subject_id,time,result,x\nA,1,0,1.0\nA,2,0,inf\n", "line 3: column 'x'"),
            ("subject_id,time,result,x\nA,-Infinity,0,1.0\n", "line 2: column 'time'"),
        ],
    )
    def test_non_finite_value_names_line_and_column(self, tmp_path, text, where):
        path = self.write(tmp_path, text)
        with pytest.raises(PanelFormatError, match=where + " has non-finite value"):
            read_panel_csv(path)

    def test_bad_header(self, tmp_path):
        path = self.write(tmp_path, "id,when,what\nA,1,0\n")
        with pytest.raises(PanelFormatError, match="header"):
            read_panel_csv(path)

    def test_validation_failure_raises(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,result\nA,1,1\nA,2,0\n")
        with pytest.raises(PanelValidationError):
            read_panel_csv(path)

    def test_rounding_merges_and_counts(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,result\nA,0.9,0\nA,1.1,0\nA,2.1,1\n")
        loaded = read_panel_csv(path, rounding=1.0)
        assert loaded.n_collisions_merged == 1
        assert loaded.dataset.subjects[0].times == (1.0, 2.0)
