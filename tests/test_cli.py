from dataclasses import replace

import pytest
import yaml

from smoothcert import cli, pipeline
from smoothcert.cli import main
from smoothcert.pipeline import PointResult, load_run, persist_run


def write_config(path, **overrides):
    cfg = {
        "run": {
            "sigma": 1.0,
            "alpha": 0.01,
            "samples": 2000,
            "seed": 5,
            "threats": ["l1", "l2", "linf"],
        },
        "classifier": {"kind": "linear", "params": {"w": [1.0, -0.5], "b": 0.0}},
        "points": {"explicit": [{"id": "p0", "x": [1.2, 0.0], "label": 0}]},
    }
    for key, value in overrides.items():
        cfg[key] = value
    with open(path, "w") as fh:
        yaml.safe_dump(cfg, fh)
    return path


class TestCertifyCommand:
    def test_minimal_run(self, tmp_path):
        config = write_config(tmp_path / "run.yaml")
        out = tmp_path / "certs.csv"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
        results, meta = load_run(out)
        assert len(results) == 1
        assert results[0].point_id == "p0"
        assert meta["sigma"] == "1.0"

    def test_rerun_byte_identical(self, tmp_path):
        config = write_config(tmp_path / "run.yaml")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["certify", "--config", str(config), "--out", str(a)]) == 0
        assert main(["certify", "--config", str(config), "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_missing_classifier_exits_1_without_output(self, tmp_path, capsys):
        config = tmp_path / "bad.yaml"
        with open(config, "w") as fh:
            yaml.safe_dump({
                "run": {"sigma": 1.0},
                "points": {"explicit": [{"id": "p0", "x": [0.1], "label": 0}]},
            }, fh)
        out = tmp_path / "nope.csv"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert "classifier" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "absent.yaml")]) == 1

    def test_too_few_samples(self, tmp_path):
        config = write_config(tmp_path / "run.yaml")
        assert main(["certify", "--config", str(config), "--samples", "1"]) == 1

    @pytest.mark.parametrize("key", ["r_cap", "radius_tol_typo"])
    def test_unknown_run_key_exits_1(self, tmp_path, capsys, key):
        # a setting the run would not use must not be accepted silently
        config = write_config(tmp_path / "run.yaml", run={"sigma": 1.0, key: 2})
        out = tmp_path / "nope.csv"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert key in capsys.readouterr().err

    # a YAML key with no value loads as None; it must read as an empty section
    BODY = ("classifier: {kind: linear, params: {w: [1.0, -0.5], b: 0.0}}\n"
            "points: {explicit: [{id: p0, x: [1.2, 0.0], label: 0}]}\n")
    GENERATE = "points: {generate: {dim: 160, count: 2}}\n"

    def test_empty_run_section_uses_flags(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("run:\n" + self.BODY)
        out = tmp_path / "c.csv"
        assert main(["certify", "--config", str(config), "--out", str(out),
                     "--sigma", "1", "--samples", "2000"]) == 0
        results, meta = load_run(out)
        assert len(results) == 1
        assert meta["sigma"] == "1.0"

    def test_empty_subspace_section(self, tmp_path):
        config = tmp_path / "run.yaml"
        config.write_text("run: {sigma: 1.0, samples: 2000}\nsubspace:\n" + self.BODY)
        out = tmp_path / "c.csv"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
        assert len(load_run(out)[0]) == 1

    @pytest.mark.parametrize("text, message", [
        ("run: [1, 2]\n" + BODY, "'run' must be a mapping"),
        ("run: {sigma: 1.0}\nsubspace: 3\n" + BODY, "'subspace' must be a mapping"),
        ("run: {sigma: 1.0}\npoints: 5\n", "'points' must be a mapping"),
        ("run: {sigma: 1.0}\nclassifier: 5\npoints: {explicit: []}\n",
         "'classifier' must be a mapping"),
        ("run: {sigma: 1.0}\npoints: {generate: 5}\n", "bad points.generate"),
        ("run: {sigma: 1.0}\nclassifier: {kind: linear, params: 5}\n"
         "points: {explicit: [{id: p0, x: [1.0], label: 0}]}\n", "bad classifier spec"),
        ("run: {sigma: 1.0}\nclassifier: {kind: linear, params: {w: [1.0]}}\n"
         "points: {explicit: [5]}\n", "bad points.explicit"),
        ("run: {sigma: 1.0, threats: 5}\n" + BODY, "threats must be a list"),
        ("run: {sigma: 1.0}\nsubspace: {mask: 5}\n" + BODY, "bad subspace.mask"),
        ("run: {sigma: 1.0}\nsubspace: {mask: [a]}\n" + BODY, "bad subspace.mask"),
        ("points: {generate: {dim: 160, count: 2},\n"
         "         explicit: [{id: p0, x: [1.2, 0.0], label: 0}]}\n", "not both"),
        ("classifier: {kind: linear, params: {w: [1.0, -0.5]}}\n" + GENERATE,
         "drop the classifier section"),
        ("points: {generate: {dim: 160, count: 2, q_hgh: 0.6}}\n",
         "q_hgh; choose from dim, count, q_low, q_high, abstain_fraction, "
         "mislabel_fraction"),
        ("run: {clamp_infeasible: true}\n" + GENERATE,
         "unknown run setting(s) clamp_infeasible"),
    ], ids=["run-list", "subspace-int", "points-int", "classifier-int", "generate-int",
            "params-int", "explicit-entry-int", "threats-int", "mask-int", "mask-entry-str",
            "generate-and-explicit", "classifier-and-generate", "generate-typo",
            "clamp-string"])
    def test_malformed_section_exits_1(self, tmp_path, capsys, text, message):
        # a section of the wrong type, or a setting the run would drop or
        # misread, is a config error, not a traceback or a silent default
        config = tmp_path / "run.yaml"
        config.write_text(text)
        out = tmp_path / "nope.csv"
        assert main(["certify", "--config", str(config), "--out", str(out),
                     "--sigma", "1"]) == 1
        assert not out.exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("point_id", ["a,1", "a\nb", "#p0", ""],
                             ids=["comma", "line-break", "hash", "empty"])
    def test_unusable_point_id_exits_1_before_sampling(self, tmp_path, capsys,
                                                       monkeypatch, point_id):
        # the id is a CSV cell: one that the CSV cannot hold, or that
        # load_run would read as a comment or not at all, is a config error
        sampled = []
        orig = pipeline.sample_class_sums
        monkeypatch.setattr(pipeline, "sample_class_sums",
                            lambda *a, **k: sampled.append(a) or orig(*a, **k))
        config = write_config(tmp_path / "run.yaml", points={"explicit": [
            {"id": point_id, "x": [1.2, 0.0], "label": 0}]})
        out = tmp_path / "nope.csv"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 1
        assert not out.exists()
        assert sampled == []
        assert "point id" in capsys.readouterr().err

    @pytest.mark.parametrize("threats, mask, message", [
        ("l2,subspace_l2", [], "subspace mask must be a non-empty set"),
        ("l2,subspace_l2", [1, 2], "indices in [0, 2), got [1, 2]"),
        ("l2,subspace_l2", [-1, 0], "indices in [0, 2), got [-1, 0]"),
        ("l2", [0], "a subspace mask needs a subspace threat"),
    ], ids=["empty", "out-of-range", "negative", "without-threat"])
    def test_unusable_subspace_mask_exits_1_before_sampling(
            self, tmp_path, capsys, monkeypatch, threats, mask, message):
        # a mask no point can use, or one no threat would read, is a
        # config error, not a run of failed rows or a silently dropped key
        sampled = []
        orig = pipeline.sample_class_sums
        monkeypatch.setattr(pipeline, "sample_class_sums",
                            lambda *a, **k: sampled.append(a) or orig(*a, **k))
        config = write_config(tmp_path / "run.yaml", subspace={"mask": mask})
        out = tmp_path / "nope.csv"
        assert main(["certify", "--config", str(config), "--out", str(out),
                     "--threats", threats]) == 1
        assert not out.exists()
        assert sampled == []
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, run, x, message", [
        (["--sigma", "-1"], {}, [1.2, 0.0], "sigma must be positive and finite"),
        (["--sigma", "nan"], {}, [1.2, 0.0], "sigma must be positive and finite"),
        (["--sigma", "inf"], {}, [1.2, 0.0], "sigma must be positive and finite"),
        ([], {"radius_tol": 0.0}, [1.2, 0.0], "radius_tol must be positive"),
        ([], {"radius_tol": -1.0}, [1.2, 0.0], "radius_tol must be positive"),
        ([], {"radius_tol": float("inf")}, [1.2, 0.0], "radius_tol must be positive"),
        ([], {"radius_tol": float("nan")}, [1.2, 0.0], "radius_tol must be positive"),
        ([], {}, [], "x must be a non-empty 1-D vector"),
        ([], {}, [float("nan"), 0.0], "x must be a non-empty 1-D vector"),
        ([], {}, [[1.0, 0.0]], "x must be a non-empty 1-D vector"),
    ], ids=["sigma-negative", "sigma-nan", "sigma-inf", "tol-zero", "tol-negative",
            "tol-inf", "tol-nan", "x-empty", "x-nan", "x-2d"])
    def test_unusable_setting_or_point_exits_1_before_sampling(
            self, tmp_path, capsys, monkeypatch, flags, run, x, message):
        # a noise level or radius grid no certificate can use, or a point
        # that is not a finite vector, is a config error: not a traceback,
        # a silently replaced grid, or a run of failed or bogus rows
        sampled = []
        orig = pipeline.sample_class_sums
        monkeypatch.setattr(pipeline, "sample_class_sums",
                            lambda *a, **k: sampled.append(a) or orig(*a, **k))
        config = write_config(
            tmp_path / "run.yaml",
            run={"sigma": 1.0, "samples": 2000, "seed": 5, "threats": ["l1"], **run},
            points={"explicit": [{"id": "p0", "x": x, "label": 0}]})
        out = tmp_path / "nope.csv"
        assert main(["certify", "--config", str(config), "--out", str(out),
                     *flags]) == 1
        assert not out.exists()
        assert sampled == []
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flags, points, message", [
        (["--jobs", "0"], [("p0", 0)], "jobs must be at least 1, got 0"),
        (["--jobs", "-4"], [("p0", 0)], "jobs must be at least 1, got -4"),
        ([], [("p0", 7)], "label must lie in [0, 2), got 7"),
        ([], [("p0", -3)], "label must lie in [0, 2), got -3"),
        ([], [("p0", 0), ("p0", 1)], "point ids must be unique"),
    ], ids=["jobs-0", "jobs-negative", "label-7", "label-negative", "duplicate-id"])
    def test_unusable_jobs_label_or_id_exits_1_before_sampling(
            self, tmp_path, capsys, monkeypatch, flags, points, message):
        # a worker count below 1 or a label the classifier can never predict
        # is a config error, not a serial run or a row of correct=false;
        # two points with one id would share their noise and their CSV row
        sampled = []
        orig = pipeline.sample_class_sums
        monkeypatch.setattr(pipeline, "sample_class_sums",
                            lambda *a, **k: sampled.append(a) or orig(*a, **k))
        config = write_config(tmp_path / "run.yaml", points={"explicit": [
            {"id": point_id, "x": [1.2, 0.0], "label": label}
            for point_id, label in points]})
        out = tmp_path / "nope.csv"
        assert main(["certify", "--config", str(config), "--out", str(out),
                     *flags]) == 1
        assert not out.exists()
        assert sampled == []
        assert message in capsys.readouterr().err

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        config = tmp_path / "run.yaml"
        config.write_bytes(b"\xff\xfe\x00r\x00u")
        assert main(["certify", "--config", str(config)]) == 1
        assert "config parse error" in capsys.readouterr().err

    def test_failed_point_exits_2_with_summary(self, tmp_path, capsys):
        # a point whose certification raises is recorded in its row, and
        # the run still writes every row but exits 2
        config = write_config(tmp_path / "run.yaml", points={"explicit": [
            {"id": "good", "x": [1.2, 0.0], "label": 0},
            {"id": "wide", "x": [1.2, 0.0, 0.5], "label": 0}]})
        out = tmp_path / "c.csv"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 2
        summary = capsys.readouterr().out
        assert "certified 2 points" in summary and "(1 failed point(s))" in summary
        rows = {r.point_id: r for r in load_run(out)[0]}
        assert rows["good"].predicted == 0 and rows["good"].radius_zeroth_l2 > 0.0
        assert rows["wide"].predicted == -1
        assert rows["wide"].error.startswith("ValueError: matmul")

    def test_subspace_flags_round_trip_through_curve(self, tmp_path):
        # --subspace-mask reaches the run; the subspace meta lines are
        # written and read back by curve
        config = tmp_path / "gen.yaml"
        config.write_text("run: {sigma: 0.5, alpha: 0.01, samples: 4000, seed: 4}\n"
                          "points: {generate: {dim: 160, count: 3}}\n")
        out = tmp_path / "c.csv"
        assert main(["certify", "--config", str(config), "--out", str(out),
                     "--threats", "l2,subspace_linf", "--subspace-mask", "5,0,3,0"]) == 0
        results, meta = load_run(out)
        assert (meta["subspace_threat"], meta["subspace_dim"]) == ("subspace_linf", "3")
        assert all(r.radius_first_subspace is not None for r in results)
        prefix = tmp_path / "curves"
        assert main(["curve", "--input", str(out), "--out", str(prefix),
                     "--grid-points", "5"]) == 0
        header = (tmp_path / "curves.csv").read_text().splitlines()[1].split(",")
        assert header == ["radius", "l2_zeroth_acc", "l2_first_acc",
                          "subspace_linf_zeroth_acc", "subspace_linf_first_acc"]
        assert (tmp_path / "curves_subspace_linf.svg").exists()

    def test_flag_overrides(self, tmp_path):
        config = write_config(tmp_path / "run.yaml")
        out = tmp_path / "c.csv"
        assert main(["certify", "--config", str(config), "--out", str(out),
                     "--sigma", "0.5", "--seed", "9"]) == 0
        _, meta = load_run(out)
        assert meta["sigma"] == "0.5"
        assert meta["seed"] == "9"

    def test_generated_workload(self, tmp_path):
        config = tmp_path / "gen.yaml"
        with open(config, "w") as fh:
            yaml.safe_dump({
                "run": {"sigma": 0.5, "alpha": 0.01, "samples": 1000,
                        "seed": 3, "threats": ["l2"]},
                "points": {"generate": {"count": 4, "dim": 160}},
            }, fh)
        out = tmp_path / "gen.csv"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
        results, _ = load_run(out)
        assert len(results) == 4


class TestCurveCommand:
    def certify(self, tmp_path, count=6):
        config = tmp_path / "gen.yaml"
        with open(config, "w") as fh:
            yaml.safe_dump({
                "run": {"sigma": 0.5, "alpha": 0.01, "samples": 4000,
                        "seed": 4, "threats": ["l1", "l2", "linf"]},
                "points": {"generate": {"count": count, "dim": 160,
                                        "mislabel_fraction": 0.2}},
            }, fh)
        out = tmp_path / "certs.csv"
        assert main(["certify", "--config", str(config), "--out", str(out)]) == 0
        return out

    def test_curves_and_svg(self, tmp_path):
        certs = self.certify(tmp_path)
        prefix = tmp_path / "curves"
        assert main(["curve", "--input", str(certs), "--out", str(prefix)]) == 0
        curve_csv = tmp_path / "curves.csv"
        assert curve_csv.exists()
        lines = curve_csv.read_text().splitlines()
        header = lines[1].split(",")
        assert header[0] == "radius"
        assert "l1_zeroth_acc" in header and "l1_first_acc" in header
        for threat in ("l1", "l2", "linf"):
            svg = tmp_path / f"curves_{threat}.svg"
            assert svg.exists()
            assert svg.read_text().startswith("<svg")
        # dominance rendering: first-order curve never below zeroth-order
        zi = header.index("l1_zeroth_acc")
        fi = header.index("l1_first_acc")
        for line in lines[2:]:
            cells = line.split(",")
            assert float(cells[fi]) >= float(cells[zi]) - 1e-12

    def test_single_point_step_function(self, tmp_path):
        certs = self.certify(tmp_path, count=1)
        prefix = tmp_path / "one"
        assert main(["curve", "--input", str(certs), "--out", str(prefix),
                     "--grid-points", "10"]) == 0
        lines = (tmp_path / "one.csv").read_text().splitlines()
        header = lines[1].split(",")
        col = header.index("l2_first_acc")
        values = [float(line.split(",")[col]) for line in lines[2:]]
        assert set(values) <= {0.0, 1.0}

    def test_failed_rows_count_as_uncertified(self, tmp_path):
        # a point whose certification raised certifies nothing: one failed
        # row beside three scales every accuracy by 3/4
        certs = self.certify(tmp_path, count=3)
        results, meta = load_run(certs)
        failed = PointResult(
            point_id="p9999", predicted=-1, correct=False, q_lb=0.0,
            grad_l2_lb=None, grad_l2_ub=None, grad_linf_ub=None,
            radius_zeroth_l2=0.0, radius_first_l1=None, radius_first_l2=None,
            radius_first_linf=None, radius_first_subspace=None, abstained=True,
            capped=False, fallback_used=False, error="RuntimeError: down",
        )
        with_failure = tmp_path / "with_failure.csv"
        persist_run(results + [failed], with_failure, meta=meta)
        grid = ["--grid-max", "1.0", "--grid-points", "5"]
        assert main(["curve", "--input", str(certs), "--out",
                     str(tmp_path / "clean")] + grid) == 0
        assert main(["curve", "--input", str(with_failure), "--out",
                     str(tmp_path / "failed")] + grid) == 0
        clean, scaled = ([line.split(",") for line in
                          (tmp_path / f"{name}.csv").read_text().splitlines()[2:]]
                         for name in ("clean", "failed"))
        assert float(clean[0][1]) > 0.0
        for a, b in zip(clean, scaled):
            # the same rows are certified, out of 4 instead of 3
            assert b[0] == a[0]
            assert [round(4 * float(v)) for v in b[1:]] == \
                [round(3 * float(v)) for v in a[1:]]

    @pytest.mark.parametrize("edit, message", [
        ({"subspace_threat": "subspace_lx", "subspace_dim": "7"},
         "'subspace_lx' is not a valid ThreatModel"),
        ({"subspace_threat": "subspace_linf"},
         "subspace_threat=subspace_linf needs a subspace_dim meta field"),
        ({"subspace_threat": "subspace_linf", "subspace_dim": "7.5"},
         "bad subspace meta field"),
    ], ids=["unknown-threat", "linf-without-dim", "dim-not-int"])
    def test_malformed_subspace_meta_exits_1(self, tmp_path, capsys, edit, message):
        # the subspace meta lines of a certificate CSV are read as config:
        # a bad one is a config error, not a traceback
        certs = self.certify(tmp_path, count=2)
        results, meta = load_run(certs)
        rows = [replace(r, radius_first_subspace=r.radius_first_l2) for r in results]
        edited = tmp_path / "edited.csv"
        persist_run(rows, edited, meta={**meta, **edit})
        prefix = tmp_path / "nope"
        assert main(["curve", "--input", str(edited), "--out", str(prefix)]) == 1
        assert not (tmp_path / "nope.csv").exists()
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("points", ["-1", "0"])
    def test_grid_points_below_1_exits_1(self, tmp_path, capsys, points):
        certs = self.certify(tmp_path, count=1)
        prefix = tmp_path / "nope"
        assert main(["curve", "--input", str(certs), "--out", str(prefix),
                     "--grid-points", points]) == 1
        assert not (tmp_path / "nope.csv").exists()
        assert "--grid-points must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("grid_max", ["nan", "inf", "-2", "0"])
    def test_grid_max_not_positive_exits_1(self, tmp_path, capsys, grid_max):
        certs = self.certify(tmp_path, count=1)
        prefix = tmp_path / "nope"
        assert main(["curve", "--input", str(certs), "--out", str(prefix),
                     "--grid-max", grid_max]) == 1
        assert not (tmp_path / "nope.csv").exists()
        assert "--grid-max must be finite and positive" in capsys.readouterr().err

    def test_input_not_utf8_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"\xff\xfe\x00#\x00s")
        prefix = tmp_path / "nope"
        assert main(["curve", "--input", str(bad), "--out", str(prefix)]) == 1
        assert not (tmp_path / "nope.csv").exists()
        assert "malformed certificates file" in capsys.readouterr().err

    def test_malformed_certificates_exit_1(self, tmp_path, capsys):
        certs = self.certify(tmp_path, count=1)
        lines = certs.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        lines[header] = lines[header].replace("q_lb", "q_low")
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        prefix = tmp_path / "nope"
        assert main(["curve", "--input", str(bad), "--out", str(prefix)]) == 1
        assert not (tmp_path / "nope.csv").exists()
        assert "malformed certificates file" in capsys.readouterr().err

    def test_missing_input(self, tmp_path):
        assert main(["curve", "--input", str(tmp_path / "none.csv")]) == 1

    def test_empty_input(self, tmp_path):
        empty = tmp_path / "empty.csv"
        persist_run([], empty, meta={"dim": "2", "alpha_total": "0.01"})
        assert main(["curve", "--input", str(empty)]) == 1

    def test_deterministic_outputs(self, tmp_path):
        certs = self.certify(tmp_path)
        p1, p2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["curve", "--input", str(certs), "--out", str(p1)]) == 0
        assert main(["curve", "--input", str(certs), "--out", str(p2)]) == 0
        assert (tmp_path / "c1.csv").read_bytes() == (tmp_path / "c2.csv").read_bytes()
        assert (tmp_path / "c1_l2.svg").read_bytes() == \
            (tmp_path / "c2_l2.svg").read_bytes()


QUICK_CHECKS = ["zeroth_closed_form", "halfspace_l2_exactness",
                "halfspace_l1_exactness", "clopper_pearson", "table1_constants",
                "sampling_determinism", "mc_oracle_agreement"]
FULL_CHECKS = QUICK_CHECKS + ["halfspace_linf_exactness", "l2_dominance",
                              "angular_monotonicity", "interval_floor", "lp_oracle"]


def printed_names(out):
    return [line.split()[0] for line in out.splitlines()]


class TestSelftestCommand:
    def test_quick_passes(self, capsys):
        assert main(["selftest", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        assert printed_names(out) == QUICK_CHECKS + ["overall"]

    def test_full_passes(self, capsys):
        assert main(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "halfspace_linf_exactness" in out and "FAIL" not in out
        assert printed_names(out) == FULL_CHECKS + ["overall"]

    def test_crashed_check_keeps_its_name(self, capsys, monkeypatch):
        # a check that raises is reported under the name it passes under
        from smoothcert import certify

        def down(*args, **kwargs):
            raise RuntimeError("solver down")

        monkeypatch.setattr(certify, "solve_dual", down)
        assert main(["selftest", "--quick"]) == 1
        lines = capsys.readouterr().out.splitlines()
        mc = next(row for row in lines if row.startswith("mc_oracle_agreement"))
        assert "FAIL" in mc and "RuntimeError: solver down" in mc
        assert not any(row.startswith(("<lambda>", "check_")) for row in lines)

    def test_mutation_hook_fails(self, capsys, monkeypatch):
        # flip the interval system's sign convention: the halfspace oracle
        # must catch it
        from smoothcert import certify

        orig = certify._solve_interval
        monkeypatch.setattr(certify, "_solve_interval",
                            lambda q, m1: orig(q, -m1))
        assert main(["selftest", "--quick"]) == 1
        out = capsys.readouterr().out
        line = next(row for row in out.splitlines()
                    if row.startswith("halfspace_l2_exactness"))
        assert "FAIL" in line


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["--bogus"],
        ["curve"],
        ["certify", "--samples", "x"],
        ["certify", "--clamp-infeasible"],
    ], ids=["unknown-flag", "curve-without-input", "samples-not-int",
            "removed-clamp-flag"])
    def test_parse_error_exits_1(self, capsys, argv):
        # exit 2 means some points failed; a usage error is a 1, as a
        # config error is
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 1
        assert "error:" in capsys.readouterr().err

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["certify", "--help"])
        assert exc.value.code == 0
        assert "--clamp-infeasible" not in capsys.readouterr().out


class TestThreatParsing:
    def test_unknown_threat(self, tmp_path):
        config = write_config(tmp_path / "run.yaml")
        assert main(["certify", "--config", str(config),
                     "--threats", "l7"]) == 1

    def test_subspace_requires_mask(self, tmp_path):
        config = write_config(tmp_path / "run.yaml")
        assert main(["certify", "--config", str(config),
                     "--threats", "l2,subspace_l2"]) == 1
