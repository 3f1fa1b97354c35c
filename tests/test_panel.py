import gc
import importlib.util
import math
import re
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from survreport import panel
from survreport.estimate import MODEL_COV_TIMEVARYING, fit
from survreport.panel import (
    ADAPTIVE,
    PREDETERMINED,
    Dataset,
    ErrorModel,
    PanelFormatError,
    PanelValidationError,
    StudyGrid,
    SubjectPanel,
    build_dataset,
    read_panel_csv,
    round_to_granularity,
    validate,
)


INPUTS = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"


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


def panel_file(tmp_path, text):
    path = tmp_path / "panel.csv"
    path.write_text(text, encoding="utf-8")
    return path


class TestBuildGrid:
    def test_union_of_times(self):
        grid = build_dataset([subj("a", [1.0, 2.0], [0, 0]), subj("b", [2.0, 3.0], [0, 0])]).grid
        assert grid.taus == (1.0, 2.0, 3.0)
        assert grid.J == 3

    def test_rounding_to_granularity(self, tmp_path):
        path = panel_file(tmp_path, "subject_id,time,result\na,0.9,0\na,2.1,0\n")
        assert read_panel_csv(path, rounding=1.0).dataset.grid.taus == (1.0, 2.0)

    def test_annual_schedule(self):
        subs = [subj(f"s{i}", [float(k) for k in range(1, 9)], [0] * 8) for i in range(3)]
        grid = build_dataset(subs).grid
        assert grid.taus == tuple(float(k) for k in range(1, 9))
        assert grid.J == 8  # nine intervals including the open tail

    def test_idempotent_on_rounded_data(self, tmp_path):
        path = panel_file(tmp_path, "subject_id,time,result\na,1,0\na,2,0\na,5,1\n")
        assert read_panel_csv(path, rounding=1.0).dataset == read_panel_csv(path).dataset

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_dataset([])
        with pytest.raises(ValueError):
            build_dataset([subj("a", [], [])])

    def test_bad_granularity(self, tmp_path):
        with pytest.raises(ValueError):
            read_panel_csv(panel_file(tmp_path, "subject_id,time,result\na,1,0\n"), rounding=0.0)

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

    @pytest.mark.parametrize("granularity", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_granularity_not_finite_and_positive(self, granularity):
        with pytest.raises(ValueError, match="rounding granularity must be positive"):
            round_to_granularity(1.0, granularity)

    def test_collision_keeps_later_record(self, tmp_path):
        path = panel_file(tmp_path, "subject_id,time,result\na,1.9,1\na,2.1,0\n")
        s = read_panel_csv(path, rounding=1.0).dataset.subjects[0]
        assert s.times == (2.0,)
        assert s.results == (0,)

    def test_no_collision_preserves_order(self, tmp_path):
        path = panel_file(tmp_path, "subject_id,time,result\na,0.9,0\na,2.2,1\n")
        s = read_panel_csv(path, rounding=1.0).dataset.subjects[0]
        assert s.times == (1.0, 2.0)
        assert s.results == (0, 1)


class TestValidate:
    def grid(self):
        return StudyGrid((1.0, 2.0, 3.0))

    def violations(self, subjects, **kwargs):
        """The violations that making the dataset of ``subjects`` raises."""
        with pytest.raises(PanelValidationError) as raised:
            Dataset(tuple(subjects), **kwargs)
        return raised.value.violations

    def test_clean_dataset_empty_report(self):
        ds = Dataset((subj("a", [1.0, 2.0], [0, 1]),))
        assert validate(ds) == []

    def test_positive_not_terminal(self):
        rules = [v.rule for v in self.violations([subj("a", [1.0, 2.0], [1, 0])])]
        assert "positive not terminal" in rules

    def test_predetermined_allows_inconsistent_patterns(self):
        ds = Dataset((subj("a", [1.0, 2.0], [1, 0]),), schedule=PREDETERMINED)
        assert validate(ds) == []

    @pytest.mark.parametrize("times, rule", [
        ((-1.0, 1.0), "non-positive visit time"),
        ((0.0, 1.0), "non-positive visit time"),
        ((math.nan, 1.0), "non-finite visit time"),
        ((1.0, math.inf), "non-finite visit time"),
    ])
    def test_bad_visit_times_name_the_subject_and_the_rule(self, times, rule):
        # checked before the grid is made from the visit times, which they would break
        with pytest.raises(PanelValidationError, match=f"a: {rule}"):
            build_dataset([SubjectPanel("a", times, (0, 0))])

    def test_zero_visits(self):
        violations = self.violations([subj("a", [1.0], [0]), subj("b", [], [])])
        assert any(v.rule == "zero visits" and v.subject_id == "b" for v in violations)

    def test_panels_are_checked_when_the_dataset_is_made(self):
        # a panel checks nothing itself; one error names every broken panel, in subject then rule order
        subjects = [
            SubjectPanel("a", (1.0, 2.0), (0,)),
            SubjectPanel("b", (1.0,), (2,), covariates=(0.5,)),
            SubjectPanel("c", (1.0,), (0,), covariates=(1.0,), covariate_path=((0.0, (1.0,)),)),
        ]
        violations = self.violations(subjects, covariate_names=("x",))
        assert [str(v) for v in violations] == [
            "a: times and results differ in length", "b: result not 0 or 1", "c: fixed covariates and a covariate path"]

    @pytest.mark.parametrize("result, passes", [
        (0, True), (1, True), (True, True), (1.0, True), ("1", False), (0.5, False), (2, False), (math.nan, False)])
    def test_a_result_passes_as_0_or_1(self, result, passes):
        subjects = [subj("a", [1.0], [result])]
        if passes:
            assert Dataset(subjects).reports.tolist() == [[int(result)]]
        else:
            assert [str(v) for v in self.violations(subjects)] == ["a: result not 0 or 1"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_covariate_value(self, value):
        for form in ({"covariates": (value,)}, {"covariate_path": ((0.0, (1.0,)), (1.0, (value,)))}):
            subjects = [SubjectPanel("a", (1.0,), (0,)), SubjectPanel("b", (1.0,), (0,), **form)]
            violations = self.violations(subjects, covariate_names=("x",))
            assert [str(v) for v in violations] == ["a: covariate length mismatch (expected 1, got 0)",
                                                    "b: non-finite covariate value"]
        with pytest.raises(PanelValidationError, match="b: non-finite covariate value"):
            Dataset.from_arrays(["a", "b"], [[0], [0]], StudyGrid((1.0,)), [[1.0], [value]], ("x",))
        # a caller that vouches for its arrays is not checked
        assert Dataset.from_arrays(["a", "b"], [[0], [0]], StudyGrid((1.0,)), [[1.0], [value]], ("x",),
                                   violations=()).n == 2

    def test_empty_inputs_name_their_reason(self, tmp_path):
        with pytest.raises(ValueError) as empty:
            Dataset([])
        assert str(empty.value) == "dataset needs at least one subject"
        for text in ("subject_id,time,result\n", "subject_id,time,result,x\n\n \n"):
            for rounding in (None, 1.0):
                with pytest.raises(ValueError) as read:
                    read_panel_csv(panel_file(tmp_path, text), rounding=rounding)
                assert type(read.value) is type(empty.value) and str(read.value) == str(empty.value)
        violations = self.violations([subj("a", [], []), subj("b", [], [])])
        assert [str(v) for v in violations] == ["a: zero visits", "b: zero visits"]

    def test_non_increasing_times(self):
        violations = self.violations([subj("a", [2.0, 1.0], [0, 0])])
        assert any(v.rule == "visit times not strictly increasing" for v in violations)

    def test_covariate_length_mismatch(self):
        violations = self.violations([subj("a", [1.0], [0], cov=(1.0, 2.0))], covariate_names=("x",))
        assert any(v.rule == "covariate length mismatch" for v in violations)

    def test_report_matrix(self):
        ds = Dataset((subj("a", [1.0, 3.0], [0, 1]), subj("b", [2.0], [0])))
        assert ds.reports.dtype == np.int8
        assert ds.reports.tolist() == [[0, -1, 1], [-1, 0, -1]]
        assert ds.reports is ds.reports
        with pytest.raises(ValueError):
            ds.reports[0, 0] = 1

    @pytest.mark.parametrize("times", [[2.0, 2.0], [3.0, 1.0]])
    def test_report_matrix_rejects_repeated_or_unordered_visits(self, times):
        with pytest.raises(PanelValidationError, match="b: visit times not strictly increasing"):
            Dataset((subj("a", [1.0], [0]), subj("b", times, [0, 0])))

    def test_every_violation_raises_each_time_the_dataset_is_made(self):
        subjects = [subj("a", [2.0, 1.0], [0, 0], cov=(1.0, 2.0))]
        for _ in range(2):
            violations = self.violations(subjects, covariate_names=("x",))
            assert [v.rule for v in violations] == ["visit times not strictly increasing", "covariate length mismatch"]
            assert [str(v) for v in violations] == [
                "a: visit times not strictly increasing", "a: covariate length mismatch (expected 1, got 2)"]

    def test_unmakeable_datasets_raise_alike(self):
        def made(*times):
            return self.violations([subj("a", times, [0] * len(times))])

        assert made(2.0, 1.0) == made(2.0, 1.0)
        assert made(2.0, 1.0) != made(2.0, -1.0)
        assert Dataset((subj("a", (1.0, 2.0), [0, 0]),)).n == 1  # in time order it is made

    def test_datasets_differing_in_one_member_are_unequal(self):
        a, b = subj("a", [1.0, 2.0], [0, 1], cov=(1.0,)), subj("b", [1.0], [0], cov=(2.0,))
        ds = build_dataset([a, b], covariate_names=("x",))
        for subjects in (
            [subj("a", [1.0, 2.0], [0, 0], cov=(1.0,)), b],  # a report
            [subj("a", [1.0, 2.0], [0, 1], cov=(1.5,)), b],  # a covariate
            [SubjectPanel("a", (1.0, 2.0), (0, 1), covariate_path=((0.0, (1.0,)),)), b],  # a path, not a vector
            [a, subj("c", [1.0], [0], cov=(2.0,))],  # an id
        ):
            assert build_dataset(subjects, covariate_names=("x",)) != ds
        assert build_dataset([a, b], covariate_names=("y",)) != ds
        assert build_dataset([a, b], covariate_names=("x",), schedule=PREDETERMINED) != ds
        assert Dataset.from_arrays(["a", "b"], ds.reports, ds.grid, ds.covariates, ("x",)) == ds

    def test_covariate_matrix(self):
        ds = Dataset((subj("a", [1.0], [0], cov=(1.0, -2.0)), subj("b", [2.0], [0], cov=(0.5, 3.0))),
                     covariate_names=("x", "y"))
        assert ds.covariates.tolist() == [[1.0, -2.0], [0.5, 3.0]]
        assert ds.covariates is ds.covariates
        with pytest.raises(ValueError):
            ds.covariates[0, 0] = 9.0
        assert Dataset((subj("a", [1.0], [0]),)).covariates.shape == (1, 0)

    def test_covariate_matrix_is_none_with_a_path(self):
        path = SubjectPanel("b", (2.0,), (0,), covariate_path=((0.0, (1.0,)), (1.0, (2.0,))))
        ds = Dataset((subj("a", [1.0], [0], cov=(1.0,)), path), covariate_names=("x",))
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

    def test_zero_length_vector_counts_as_none(self):
        ds = Dataset([SubjectPanel("a", (1.0,), (0,), covariates=())])
        arrays = Dataset.from_arrays(["a"], [[0]], StudyGrid((1.0,)))
        assert ds == arrays and hash(ds) == hash(arrays)
        assert ds.subjects == (subj("a", [1.0], [0]),)
        with pytest.raises(PanelValidationError, match=r"a: covariate length mismatch \(expected 1, got 0\)"):
            Dataset([SubjectPanel("a", (1.0,), (0,), covariates=())], covariate_names=("x",))

    @pytest.mark.parametrize(
        "reports, covariates, names",
        [
            ([[0, 1]], None, ()),                      # J columns expected
            ([[0, 1, 2]], None, ()),                   # not a report
            ([[0, 1, -1]], None, ("x",)),              # names without a matrix
            ([[0, 1, -1]], [[1.0, 2.0]], ("x",)),      # P columns expected
            # values checked before the int8 cast, which would read them as reports
            (np.array([[0, 257, -1]]), None, ()),      # wraps to a positive report
            (np.array([[0, 1, 255]]), None, ()),       # wraps to a missed visit
            ([[0, 0.7, -1]], None, ()),                # truncates to a negative report
            ([[0, math.nan, -1]], None, ()),           # casts to a negative report
        ],
    )
    def test_from_arrays_rejects_bad_shapes_and_values(self, reports, covariates, names):
        with pytest.raises(ValueError):
            Dataset.from_arrays(["a"], reports, self.grid(), covariates, names)

    @pytest.mark.parametrize("form", ["panels", "arrays"])
    def test_repeated_subject_id_rejected(self, form):
        with pytest.raises(ValueError, match="subject a appears twice"):
            if form == "panels":
                build_dataset([subj("a", [1.0, 2.0], [0, 1]), subj("a", [1.0], [0]), subj("b", [2.0], [1])])
            else:
                Dataset.from_arrays(["a", "b", "a"], [[0, 1, -1], [0, -1, -1], [1, -1, -1]], self.grid())

    def test_each_covariate_path_walked_once(self):
        walks = []

        class CountedPath(tuple):
            def __iter__(self):
                walks.append(self)
                return super().__iter__()

        subjects = [
            SubjectPanel(sid, (1.0, 2.0), (0, 0), covariate_path=CountedPath(((0.0, (x,)), (1.0, (x + 1,)))))
            for sid, x in (("a", 0.5), ("b", 1.5))
        ]
        ds = build_dataset(subjects, covariate_names=("x",))
        for member in ("n", "visits", "reports", "covariate_paths"):
            getattr(ds, member)
        assert ds.covariates is None and ds.vectorless_subject_id() == "a" and ds.ids[1] == "b"
        assert fit(ds, ErrorModel(0.8, 0.9), MODEL_COV_TIMEVARYING).beta.size == 1
        assert len(walks) == len(subjects)


class TestMadeDataset:
    def test_keeps_no_panel(self):
        def panels():
            return [subj("a", [1.0, 3.0], [0, 1], cov=(1.5,)), subj("b", [2.0], [0], cov=(-2.0,))]

        given = panels()
        ref = weakref.ref(given[0])
        ds = build_dataset(given, covariate_names=("x",))
        del given
        gc.collect()
        assert ref() is None
        assert ds.subjects == tuple(panels())
        grid = StudyGrid((1.0, 2.0, 3.0))
        assert ds.grid == grid
        assert ds == Dataset.from_arrays(["a", "b"], [[0, -1, 1], [-1, 0, -1]], grid, [[1.5], [-2.0]], ("x",))

    @pytest.mark.parametrize("schedule", [ADAPTIVE, PREDETERMINED])
    def test_visits_are_a_walk_of_each_subject(self, schedule):
        rng = np.random.default_rng(5)
        reports = rng.integers(-1, 2, size=(300, 7)).astype(np.int8)
        if schedule == ADAPTIVE:  # nothing after a subject's first positive
            after = np.cumsum(np.cumsum(reports == 1, axis=1), axis=1) > 1
            reports[after] = -1
        reports[(reports < 0).all(axis=1), 3] = 0
        grid = StudyGrid(tuple(np.linspace(0.5, 6.5, 7).tolist()))
        ds = Dataset.from_arrays([f"s{i}" for i in range(300)], reports, grid, schedule=schedule)
        rows, times, results = ds.visits
        walk = [(i, grid.taus[j], int(reports[i, j])) for i in range(300) for j in range(7) if reports[i, j] >= 0]
        assert list(zip(rows.tolist(), times.tolist(), results.tolist())) == walk
        # the same arrays, dtypes too, as the 2-d nonzero gives
        r, c = np.nonzero(reports >= 0)
        expected = r, np.asarray(grid.taus)[c], reports[r, c]
        assert [(a.dtype, a.tobytes()) for a in ds.visits] == [(a.dtype, a.tobytes()) for a in expected]

    def test_repr_names_the_shape_and_makes_no_panel(self):
        ds = Dataset.from_arrays(["a", "b"], [[0, -1, 1], [-1, 0, -1]], StudyGrid((1.0, 2.0, 3.0)),
                                 [[1.5, 0.0], [-2.0, 1.0]], ("x", "y"), PREDETERMINED)
        assert repr(ds) == "Dataset(n=2, J=3, covariate_names=('x', 'y'), schedule='predetermined')"
        assert "subjects" not in vars(ds)


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
        assert ds.subjects[0].times == (1.0, 2.0, 3.0)
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

    def test_missing_at_first_visit_never_takes_another_subjects_value(self, tmp_path):
        # B's first visit is its earlier one, on line 4
        path = self.write(tmp_path, "subject_id,time,result,x\nA,1,0,1.0\nB,2,0,3.0\nB,1,0,\n")
        with pytest.raises(PanelFormatError, match="line 4: covariate 'x' missing at subject B's first visit"):
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

    def test_baseline_file_repeated_subject_names_both_lines(self, tmp_path):
        panel = self.write(tmp_path, "subject_id,time,result\nA,1,0\nA,2,1\n")
        base = self.write(tmp_path, "subject_id,z1\na,0\nA,0\nB,1\nA,5\n", name="base.csv")
        with pytest.raises(PanelFormatError, match="baseline lines 3 and 5: subject A appears twice"):
            read_panel_csv(panel, baseline_csv=base)

    def test_baseline_file_names_the_first_repeat(self, tmp_path):
        panel = self.write(tmp_path, "subject_id,time,result\nA,1,0\nB,1,0\n")
        base = self.write(tmp_path, "subject_id,z1\nB,0\nA,0\nB,1\nA,5\n", name="base.csv")
        with pytest.raises(PanelFormatError, match="baseline lines 2 and 4: subject B appears twice"):
            read_panel_csv(panel, baseline_csv=base)

    def test_shuffled_baseline_file_with_a_repeated_id(self, tmp_path):
        ids = [f"s{i}" for i in range(40)]
        panel = self.write(tmp_path, "subject_id,time,result\n" + "".join(f"{sid},1,0\n" for sid in ids))
        order = np.random.default_rng(3).permutation(len(ids)).tolist()
        rows = [f"{ids[k]},{k}\n" for k in order]  # the row of ids[order[j]] on line j + 2
        base = self.write(tmp_path, "subject_id,z\n" + "".join(rows), name="base.csv")
        assert read_panel_csv(panel, baseline_csv=base).dataset.covariates[:, 0].tolist() == list(range(len(ids)))
        again = rows[:25] + [f"{ids[order[3]]},-1\n"] + rows[25:]  # on line 27, first on line 5
        base = self.write(tmp_path, "subject_id,z\n" + "".join(again), name="base.csv")
        with pytest.raises(PanelFormatError, match=f"baseline lines 5 and 27: subject {ids[order[3]]} appears twice"):
            read_panel_csv(panel, baseline_csv=base)

    def test_baseline_file_missing_subject(self, tmp_path):
        panel = self.write(tmp_path, "subject_id,time,result\nA,1,0\n")
        base = self.write(tmp_path, "subject_id,age\nZ,40\n", name="base.csv")
        with pytest.raises(PanelFormatError, match="missing baseline"):
            read_panel_csv(panel, baseline_csv=base)

    @pytest.mark.parametrize("row", [",2,0", "  ,2,0"])
    def test_empty_subject_id_names_line(self, tmp_path, row):
        path = self.write(tmp_path, f"subject_id,time,result\nA,1,0\n{row}\n")
        with pytest.raises(PanelFormatError, match="line 3: empty subject_id"):
            read_panel_csv(path)

    def test_blank_rows_are_skipped(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,result,x\nA,1,0,1.0\n\n , ,,\nA,2,1,\n")
        loaded = read_panel_csv(path)
        assert loaded.dataset.subjects == (subj("A", [1.0, 2.0], [0, 1], cov=(1.0,)),)
        assert loaded.n_imputed == 1

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


PLAIN = "subject_id,time,result,x\nA,1,0,1.5\nA,2,1,1.5\nB,1,0,2\n"


def benchmark_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", INPUTS)
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclass looks its module up
    spec.loader.exec_module(inputs)
    return inputs


class TestPlainAndCellReaders:
    """A well-formed file, R-written ones included, is parsed in one array
    pass; any other goes cell by cell, to the same dataset or the same
    error."""

    def write(self, tmp_path, text, name="panel.csv"):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        return path

    @pytest.fixture
    def cell_reads(self, monkeypatch):
        """Files read by the cell-by-cell reader."""
        calls, read = [], panel._read_csv
        monkeypatch.setattr(panel, "_read_csv", lambda path, *args: calls.append(path) or read(path, *args))
        return calls

    @pytest.mark.parametrize(
        "text",
        [
            PLAIN,
            PLAIN.rstrip("\n"),  # no final newline
            PLAIN.replace("\nB", "\n\n\nB") + "\n\n",  # blank lines
            "subject_id,time,result,x,\na#'1,1,0,1.5,7\na#'1,2,1,1.5,7\nB,1,0,2,7\n",  # odd ids, no name
            "subject_id,time,result,x,y\nA,+1,0,.5,5.\nA,1E1,1,.5,5.\nB,1e0,0,-2.5e-3,0\n",
            "subject_id,time,result\nA,1,0\n",
            PLAIN.replace("A,", '"A",').replace("B,", '"B",'),  # quoted as R's write.csv quotes
            PLAIN.replace("\n", "\r\n"),
            '"subject_id","time","result","x"\r\n"A",1,0,1.5\r\n\r\n"A",2,1,1.5\r\n"B",1,0,2',
        ],
    )
    def test_plain_file_is_never_read_cell_by_cell(self, tmp_path, monkeypatch, text):
        path = self.write(tmp_path, text)
        monkeypatch.setattr(panel, "_read_csv", lambda *args: pytest.fail("read cell by cell"))
        plain = read_panel_csv(path)
        monkeypatch.undo()
        monkeypatch.setattr(panel, "_read_array", lambda *args: None)
        cells = read_panel_csv(path)
        assert plain.dataset == cells.dataset and plain.n_imputed == cells.n_imputed == 0
        assert np.array_equal(plain.dataset.reports, cells.dataset.reports)
        assert plain.dataset.covariates.tobytes() == cells.dataset.covariates.tobytes()

    @pytest.mark.parametrize(
        "rows, ids, array_pass",
        [
            ("A,1,0\nB,1,0\nA,2,1\n", ("A", "B"), True),  # A's rows in two runs
            ("s1,1,0\ns10,1,0\ns1x,1,0\ns1,2,0\ns10,2,1\n", ("s1", "s10", "s1x"), True),
            ("subject_01,1,0\nsubject_02,1,0\nsubject_01,2,1\n", ("subject_01", "subject_02"), True),  # 2 words
            ('"a,b",1,0\n"a,b",2,1\n"a",1,0\n', ("a,b", "a"), False),  # a comma in a quoted id
            ('"a""b",1,0\n"a""b",2,1\n"a",1,0\n', ('a"b', "a"), False),  # a doubled quote
        ],
    )
    def test_ids_read_as_the_cell_reader_reads_them(self, tmp_path, monkeypatch, cell_reads, rows, ids, array_pass):
        path = self.write(tmp_path, "subject_id,time,result\n" + rows)
        ds = read_panel_csv(path).dataset
        assert cell_reads == ([] if array_pass else [path])
        monkeypatch.setattr(panel, "_read_array", lambda *args: None)
        cells = read_panel_csv(path).dataset
        assert ds.ids == cells.ids == ids
        assert ds.reports.tobytes() == cells.reports.tobytes() and ds.grid == cells.grid and ds == cells

    def test_r_style_baseline_file_in_another_order(self, tmp_path, monkeypatch):
        path = self.write(tmp_path, '"subject_id","time","result"\r\n"A",1,0\r\n"B",1,1\r\n"C",2,0\r\n')
        base = self.write(tmp_path, '"subject_id","age","z"\r\n"C",40,1\r\n"A",63,0\r\n"B",55.5,1\r\n', "b.csv")
        monkeypatch.setattr(panel, "_read_csv", lambda *args: pytest.fail("read cell by cell"))
        ds = read_panel_csv(path, baseline_csv=base).dataset
        monkeypatch.undo()
        monkeypatch.setattr(panel, "_read_array", lambda *args: None)
        cells = read_panel_csv(path, baseline_csv=base).dataset
        assert ds.covariate_names == cells.covariate_names == ("age", "z")
        assert ds.covariates.tolist() == [[63.0, 0.0], [55.5, 1.0], [40.0, 1.0]]
        assert ds.covariates.tobytes() == cells.covariates.tobytes() and ds == cells

    @pytest.mark.parametrize(
        "text",
        [
            PLAIN,
            PLAIN.replace("\n", "\r\n"),  # as Excel's "CSV UTF-8" writes it
            '"subject_id","time","result","x"\r\n"A",1,0,1.5\r\n"A",2,1,1.5\r\n"B",1,0,2\r\n',
        ],
    )
    def test_byte_order_mark_keeps_the_array_pass(self, tmp_path, monkeypatch, text):
        marked, plain = self.write(tmp_path, "\ufeff" + text, "marked.csv"), self.write(tmp_path, text)
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        monkeypatch.setattr(panel, "_read_csv", lambda *args: pytest.fail("read cell by cell"))
        ds = read_panel_csv(marked).dataset
        monkeypatch.undo()
        monkeypatch.setattr(panel, "_read_array", lambda *args: None)
        for other in (read_panel_csv(plain).dataset, read_panel_csv(marked).dataset):
            assert ds == other and ds.covariate_names == other.covariate_names == ("x",)
            assert ds.reports.tobytes() == other.reports.tobytes()
            assert ds.covariates.tobytes() == other.covariates.tobytes()

    @pytest.mark.parametrize("array_pass", [True, False])
    def test_byte_order_mark_in_a_baseline_file(self, tmp_path, monkeypatch, array_pass):
        path = self.write(tmp_path, "subject_id,time,result\nA,1,0\nB,1,1\n")
        base = "subject_id,age\nB,55.5\nA,63\n"
        plain = read_panel_csv(path, baseline_csv=self.write(tmp_path, base, "b.csv")).dataset
        if not array_pass:
            monkeypatch.setattr(panel, "_read_array", lambda *args: None)
        marked = read_panel_csv(path, baseline_csv=self.write(tmp_path, "\ufeff" + base, "bom.csv")).dataset
        assert marked == plain and marked.covariate_names == ("age",)
        assert marked.covariates.tolist() == [[63.0], [55.5]]

    def test_byte_order_mark_before_a_wrong_header_is_not_named(self, tmp_path):
        path = self.write(tmp_path, "\ufeffsubject,time,result\nA,1,0\n")
        with pytest.raises(PanelFormatError, match=r"^header must start with subject_id,time,result; got subject,"):
            read_panel_csv(path)

    def test_comparing_read_datasets_makes_no_panels(self, tmp_path):
        path = self.write(tmp_path, PLAIN)
        a, b = read_panel_csv(path).dataset, read_panel_csv(path).dataset
        assert a == b and hash(a) == hash(b)
        assert "subjects" not in vars(a) and "subjects" not in vars(b)

    def test_benchmark_panel_file_is_plain(self, tmp_path, monkeypatch):
        inputs = benchmark_inputs()
        path = tmp_path / "cohort.csv"
        subjects = inputs.fixed_cohort(1, 200)
        inputs.write_panel_csv(subjects, path)
        monkeypatch.setattr(panel, "_read_csv", lambda *args: pytest.fail("read cell by cell"))
        ds = read_panel_csv(path).dataset
        assert ds.subjects == tuple(
            subj(s.sid, map(float, s.visits), s.results, cov=s.path[:1]) for s in subjects
        )

    @pytest.mark.parametrize(
        "text, ids, n_imputed",
        [
            (PLAIN.replace(",", " , "), "AB", 0),
            (PLAIN.replace("A,1,", '"A",1,').replace("A,2,1,1.5", '"A","2",1,"1.5"'), "AB", 0),  # quoted numbers
            (PLAIN.replace("A,2,", '"A",2,'), "AB", 0),  # only some ids quoted
            (PLAIN.replace("A,", '"A",').replace("B,", 'B",'), ("A", 'B"'), 0),  # a quote only after an id
            (PLAIN.replace("\nA,2", "\rA,2"), "AB", 0),  # a "\r" not before "\n"
            (PLAIN.rstrip("\n") + "\r", "AB", 0),  # nor at the end of the file
            (PLAIN.replace(",1.5", "\t,1.5"), "AB", 0),
            (PLAIN.replace("B", "\u00e9"), "A\u00e9", 0),
            (PLAIN.replace("A,2,1,1.5", "A,2,1,"), "AB", 1),  # an empty cell, imputed
            (PLAIN.replace("1.5", "1.5_0"), "AB", 0),  # float() reads 1.5_0 as 1.5
            (PLAIN + " , ,,\n", "AB", 0),
        ],
    )
    def test_other_files_are_read_cell_by_cell(self, tmp_path, cell_reads, text, ids, n_imputed):
        path = self.write(tmp_path, text)
        loaded = read_panel_csv(path)
        assert cell_reads == [path]
        want = [subj(ids[0], [1.0, 2.0], [0, 1], cov=(1.5,)), subj(ids[1], [1.0], [0], cov=(2.0,))]
        assert loaded.dataset == build_dataset(want, covariate_names=("x",))
        assert loaded.n_imputed == n_imputed

    @pytest.mark.parametrize(
        "text, error",
        [
            ("subject_id,time,result\nA,1\n", "line 2: expected 3 fields, got 2"),
            ("subject_id,time,result\nA,1,0,0\n", "line 2: expected 3 fields, got 4"),
            ("subject_id,time,result\nA,1,0\n,2,0\n", "line 3: empty subject_id"),
            ("subject_id,time,result,x\nA,1,0,\n", "line 2: covariate 'x' missing at subject A's first visit"),
            ("subject_id,time,result\nA,1,0\nA,2,x\n", "line 3: result must be 0 or 1, got 'x'"),
            ("subject_id,time,result\nA,1,0\nA,2e,0\n", "line 3: column 'time' has non-numeric value '2e'"),
            ("subject_id,time,result,x\nA,1,0,1\nA,2,0,nan\n", "line 3: column 'x' has non-finite value 'nan'"),
            ("subject_id,time,result,x\nA,1,0,-Infinity\n", "line 2: column 'x' has non-finite value '-Infinity'"),
            ("subject_id,time,result\nA,1,0\nA,1e400,0\n", "line 3: column 'time' has non-finite value '1e400'"),
            ("subject_id,time,result\n", "dataset needs at least one subject"),
            ('subject_id,time,result,"x\nA,1,0,1.5\n', "dataset needs at least one subject"),  # the header's quote never closes
            ("subject_id,time,result\n\n\n", "dataset needs at least one subject"),
            ("", "empty file"),
            ("subject_id,when,result\nA,1,0\n", "header must start with"),
        ],
    )
    def test_malformed_plain_file_errs_as_cell_reader_does(self, tmp_path, cell_reads, text, error):
        path = self.write(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=error):
                read_panel_csv(path)
        assert cell_reads == [path]

    @pytest.mark.parametrize("token", ["01", "1.0", "+1", "10", "00", "1e0", "true"])
    def test_result_other_than_0_or_1_names_line(self, tmp_path, token):
        path = self.write(tmp_path, f"subject_id,time,result\nA,1,0\nA,2,{token}\n")
        with pytest.raises(PanelFormatError, match=re.escape(f"line 3: result must be 0 or 1, got '{token}'")):
            read_panel_csv(path)

    def test_underscore_digits_read_as_float_reads_them(self, tmp_path):
        path = self.write(tmp_path, "subject_id,time,result,x\nA,1_0,0,2_5\n")
        s = read_panel_csv(path).dataset.subjects[0]
        assert s.times == (10.0,) and s.covariates == (25.0,)

    def test_reader_checks_are_not_repeated(self, tmp_path, monkeypatch):
        calls, check = [], panel._violations
        monkeypatch.setattr(panel, "_violations", lambda *args: calls.append(args) or check(*args))
        loaded = read_panel_csv(self.write(tmp_path, PLAIN))
        assert len(calls) == 1 and validate(loaded.dataset) == []
