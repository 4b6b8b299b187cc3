"""CLI surface: exit codes, JSON output lines, end-to-end command flow."""

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcvt
from mcvt.cli import main
from mcvt.reid import read_embeddings, write_embedding_block, write_embeddings
from mcvt.simkit import NoiseProfile, gen_scenario, render_detections, write_scenario_dir


def last_json_line(capsys):
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.strip()]
    return json.loads(lines[-1])


class TestWorkflow:
    def test_generate_run_score(self, tmp_path, capsys):
        scn = tmp_path / "scn"
        out = tmp_path / "out"
        assert main([
            "gen-scenario", "--seed", "17", "--cams", "2", "--vehicles", "4",
            "--duration", "15", "--out", str(scn),
        ]) == 0
        assert (scn / "scenario.json").exists()
        assert (scn / "det_c002.csv").exists()
        capsys.readouterr()

        assert main(["run", "--scenario", str(scn), "--out", str(out)]) == 0
        report = last_json_line(capsys)
        assert report["frames"] == {"c001": 150, "c002": 150}
        assert report["real_time"] is False

        assert main([
            "eval-mct", "--scenario", str(scn),
            "--pred", str(out / "global_tracks.csv"),
        ]) == 0
        scores = last_json_line(capsys)
        assert scores["idf1"] > 0.9
        assert scores["mota"] > 0.9

        assert main([
            "eval-sct", "--gt", str(scn / "gt_c001.csv"),
            "--pred", str(out / "sct_c001.csv"), "--camera", "c001",
        ]) == 0
        scores = last_json_line(capsys)
        assert scores["mota"] > 0.9

    def test_run_from_config_file_with_seed_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "sim": {"seed": 1, "n_cams": 2, "n_vehicles": 3, "duration_s": 10.0},
        }))
        assert main(["run", "--config", str(cfg), "--seed", "99"]) == 0
        report = last_json_line(capsys)
        assert report["frames"] == {"c001": 100, "c002": 100}


def error_lines(capsys):
    return capsys.readouterr().err.splitlines()


def run_cli_bounded(args, timeout_s=60.0):
    """Run `python -m mcvt` in a child process that is killed after timeout_s,
    for inputs that once made a run loop for ever."""
    env = dict(os.environ, PYTHONPATH=str(Path(mcvt.__file__).parent.parent))
    return subprocess.run([sys.executable, "-m", "mcvt", *args], env=env,
                          capture_output=True, text=True, timeout=timeout_s)


@pytest.fixture()
def small_scenario(tmp_path):
    scenario, gt = gen_scenario(3, 2, 2, 2.0)
    write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                       tmp_path / "scn")
    return tmp_path / "scn"


def written_scenario(tmp_path, *args):
    """``gen_scenario(*args)`` written to tmp_path/scn, and its parsed scenario.json."""
    scenario, gt = gen_scenario(*args)
    write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                       tmp_path / "scn")
    return tmp_path / "scn", json.loads((tmp_path / "scn" / "scenario.json").read_text())


def scorer_bytes(*shapes):
    """EMB1 blocks of the given (rows, D) shapes, as TemporalScorer.load reads them."""
    buf = io.BytesIO()
    for shape in shapes:
        write_embedding_block(buf, np.full(shape, 0.01))
    return buf.getvalue()


class TestRunErrors:
    def test_needs_a_source(self):
        assert main(["run"]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 2

    def test_malformed_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text("{oops")
        assert main(["run", "--config", str(path)]) == 2

    def test_seed_rejected_for_directory_source(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path), "--seed", "3"]) == 2

    def test_missing_scenario_dir(self, tmp_path):
        assert main(["run", "--scenario", str(tmp_path / "void")]) == 2

    @pytest.mark.parametrize("section, name, value", [
        ("tracker", "gallery_budget", -1),
        ("tracker", "gallery_budget", 0),
        ("tracker", "n_init", "3"),
        ("mct", "tick_period", float("nan")),
        ("mct", "v_max", float("nan")),
        ("mct", "use_direction", "no"),
        ("mct", "use_adjacency", 1),
        (None, "real_time", "no"),
        (None, "workers", True),
        (None, "workers", 2.5),
        (None, "alpha_min", True),
        (None, "nms_iou", True),
        ("mct", "tau_min", True),
        ("mct", "v_max", True),
        ("mct", "bias_lambda", False),
        ("tracker", "matching_threshold", True),
        ("tracker", "gating_threshold", True),
        (None, "sim", 5),
        ("sim", "noise", 5),
        ("sim", "n_vehicles", True),
        ("sim", "fps", float("inf")),
        ("sim", "duration_s", float("nan")),
        ("sim", "embed_dim", 0),
        ("sim", "layout", "ring"),
        ("sim.noise", "box_jitter_std", float("nan")),
        ("sim.noise", "box_jitter_std", True),
        ("sim.noise", "false_positive_rate", float("nan")),
        ("sim.noise", "false_positive_rate", float("inf")),
        ("sim.noise", "false_positive_rate", 1e19),
        ("sim.noise", "embedding_noise_std", float("nan")),
    ])
    def test_bad_setting_is_a_config_error(self, tmp_path, capsys, section, name, value):
        cfg = {"sim": {"seed": 1, "n_cams": 2, "n_vehicles": 3, "duration_s": 2.0}}
        target = cfg
        for key in section.split(".") if section else ():
            target = target.setdefault(key, {})
        target[name] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and name in line

    @pytest.mark.parametrize("cfg, named", [
        ([1], "JSON object"),
        ({"scenario_dir": 5}, "scenario_dir"),
    ])
    def test_config_of_the_wrong_shape_is_a_config_error(self, tmp_path, capsys, cfg, named):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and named in line

    def test_workers_flag_is_gone(self, small_scenario):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--scenario", str(small_scenario), "--workers", "2"])
        assert exc.value.code == 2

    def test_malformed_detection_row(self, small_scenario, capsys):
        with open(small_scenario / "det_c001.csv", "a") as fh:
            fh.write("5,1,1.0\n")
        # An input file that does not parse is a runtime failure.
        assert main(["run", "--scenario", str(small_scenario)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "det_c001.csv, line" in line


    def test_truncated_embedding_file(self, small_scenario, capsys):
        emb_path = small_scenario / "emb_c001.bin"
        emb_path.write_bytes(emb_path.read_bytes()[:-10])
        assert main(["run", "--scenario", str(small_scenario)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "emb_c001.bin" in line

    def test_embedding_file_of_another_dimension(self, small_scenario, capsys):
        emb_path = small_scenario / "emb_c002.bin"
        write_embeddings(emb_path, read_embeddings(emb_path)[:, :32])
        assert main(["run", "--scenario", str(small_scenario)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "emb_c002.bin" in line and "dimension 32" in line

    @pytest.mark.parametrize("corrupt, row", [
        (lambda emb: emb.__setitem__((2, 5), np.nan), 2),
        (lambda emb: emb.__setitem__((3, 0), np.inf), 3),
        (lambda emb: emb.__setitem__(slice(None), 0.0), 0),
        (lambda emb: emb.__imul__(100.0), 0),
    ], ids=["nan", "inf", "all-zero", "scaled-by-100"])
    def test_embedding_rows_that_are_not_finite_unit_vectors(self, tmp_path, capsys,
                                                             corrupt, row):
        scn, _ = written_scenario(tmp_path, 3, 2, 4, 10.0)
        emb = read_embeddings(scn / "emb_c001.bin")
        corrupt(emb)
        write_embeddings(scn / "emb_c001.bin", emb)
        assert main(["run", "--scenario", str(scn)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "emb_c001.bin" in line
        assert f"row {row} is not a finite unit vector" in line

    def test_box_whose_area_is_not_finite(self, small_scenario, capsys):
        with open(small_scenario / "det_c001.csv", "a") as fh:
            fh.write("5,-1,10.0,10.0,1e308,1e308,0.9,1\n")
        assert main(["run", "--scenario", str(small_scenario)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "det_c001.csv, line" in line
        assert "no finite area" in line

    @pytest.mark.parametrize("topology, named", [
        ({"cameras": [{"id": "c001"}]}, "bad camera entry 'c001'"),
        ({"adjacent": [["c001", "c009"]]}, "unknown camera"),
        ({"adjacent": [["c001", "c002", "c001"]]}, "not a pair of two camera ids"),
        ({"adjacent": [["c001", "c002"]], "overlap": [["c001"]]}, "not a pair of two camera ids"),
        ({"adjacent": ["c1"]}, "not a pair of two camera ids"),
    ])
    def test_scenario_json_with_a_bad_topology(self, small_scenario, capsys, topology, named):
        meta = small_scenario / "scenario.json"
        meta.write_text(json.dumps({**json.loads(meta.read_text()), "topology": topology}))
        assert main(["run", "--scenario", str(small_scenario)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "scenario.json" in line and named in line

    @pytest.mark.parametrize("content, named", [
        (b"EMB1abc", "truncated embedding header"),
        (scorer_bytes((10, 64), (3, 64)), "conv1 block must have 192 rows"),
        (scorer_bytes((192, 32), (3, 64)), "scorer built for D=32"),
    ], ids=["7-byte-file", "10-row-conv1", "width-32"])
    def test_scorer_file_that_does_not_fit(self, tmp_path, capsys, content, named):
        scenario, gt = gen_scenario(17, 2, 4, 15.0)  # long enough to conclude tracks
        write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                           tmp_path / "scn")
        (tmp_path / "scorer.bin").write_bytes(content)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario_dir": str(tmp_path / "scn"),
                                   "scorer_path": str(tmp_path / "scorer.bin")}))
        assert main(["run", "--config", str(cfg)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "scorer.bin" in line and named in line

    @pytest.mark.parametrize("name, value", [
        ("fps", 0), ("fps", -10), ("duration_s", 0.0), ("seed", -1), ("embed_dim", 0),
    ])
    def test_scenario_json_with_a_bad_setting(self, tmp_path, capsys, name, value):
        scn, data = written_scenario(tmp_path, 3, 2, 0, 10.0)
        data["sim"][name] = value
        (scn / "scenario.json").write_text(json.dumps(data))
        assert main(["run", "--scenario", str(scn)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "scenario.json" in line and f"{name} must" in line

    def test_homography_that_maps_a_detection_off_the_globe(self, tmp_path, capsys):
        scn, data = written_scenario(tmp_path, 17, 2, 4, 15.0)  # long enough to conclude tracks
        data["topology"]["cameras"][0]["homography"] = np.eye(3).ravel().tolist()
        (scn / "scenario.json").write_text(json.dumps(data))
        assert main(["run", "--scenario", str(scn)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: camera c001: ") and "outside [-90, 90]" in line

    def test_detection_rows_outside_the_clip(self, tmp_path, capsys):
        scn, data = written_scenario(tmp_path, 3, 2, 4, 10.0)
        data["sim"]["duration_s"] = 5.0  # 50 frames; the detection files run to frame 99
        (scn / "scenario.json").write_text(json.dumps(data))
        rows = (scn / "det_c001.csv").read_text().splitlines()
        first = min(frame for frame in (int(row.split(",")[0]) for row in rows) if frame >= 50)
        assert main(["run", "--scenario", str(scn)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "det_c001.csv" in line
        assert f"frame {first} outside the clip's [0, 50)" in line

    def test_scenario_json_without_sim(self, small_scenario, capsys):
        (small_scenario / "scenario.json").write_text('{"topology": {}}')
        assert main(["run", "--scenario", str(small_scenario)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "scenario.json" in line and "'sim'" in line


HOSTILE_CELLS = ["nan", "inf", "-inf", "0", "1e308", "-1e308", "1e-300", "", "x",
                 "9" * 30, "-" + "9" * 30]


@pytest.fixture(scope="module")
def corruptible_scenario(tmp_path_factory):
    """A scenario long enough to conclude tracks, written once for the module."""
    scn, _ = written_scenario(tmp_path_factory.mktemp("hostile"), 17, 2, 4, 15.0)
    return scn


@settings(max_examples=120)
@given(data=st.data(), camera=st.sampled_from(["c001", "c002"]), column=st.integers(0, 7),
       value=st.sampled_from(HOSTILE_CELLS))
def test_hostile_detection_cell(corruptible_scenario, tmp_path_factory, data, camera, column,
                                value):
    """One cell of a detection file set to a hostile value either runs
    cleanly or fails with one error line that names the file."""
    scn = tmp_path_factory.mktemp("scn")
    shutil.copytree(corruptible_scenario, scn, dirs_exist_ok=True)
    det = scn / f"det_{camera}.csv"
    lines = det.read_text().splitlines()
    row = data.draw(st.integers(0, len(lines) - 1), label="row")
    cells = lines[row].split(",")
    cells[column] = value
    lines[row] = ",".join(cells)
    det.write_text("".join(line + "\n" for line in lines))

    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("always")
        code = main(["run", "--scenario", str(scn), "--out", str(scn / "out")])
    errors = err.getvalue().splitlines()
    if code == 0:
        assert errors == [] and [str(w.message) for w in caught] == []
    else:
        assert code == 1
        (line,) = errors
        assert line.startswith("error: ") and f"det_{camera}.csv" in line


class TestGenScenarioErrors:
    def test_bad_camera_count(self, tmp_path):
        assert main(["gen-scenario", "--seed", "0", "--cams", "0",
                     "--out", str(tmp_path / "x")]) == 2

    def test_bad_noise(self, tmp_path):
        assert main(["gen-scenario", "--seed", "0", "--miss", "1.5",
                     "--out", str(tmp_path / "x")]) == 2

    def test_grid_needs_exact_factorization(self, tmp_path):
        assert main(["gen-scenario", "--seed", "0", "--cams", "5",
                     "--layout", "grid", "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flag, value, name", [
        ("--duration", "nan", "duration_s"),
        ("--fps", "inf", "fps"),
        ("--fp-rate", "inf", "false_positive_rate"),
        ("--sigma", "nan", "embedding_noise_std"),
    ])
    def test_non_finite_setting(self, tmp_path, capsys, flag, value, name):
        assert main(["gen-scenario", "--seed", "0", "--cams", "2", "--vehicles", "2",
                     "--duration", "5", flag, value, "--out", str(tmp_path / "x")]) == 2
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and name in line
        assert not (tmp_path / "x").exists()


class TestFrameCountCap:
    """A clip of more than simkit.MAX_FRAMES frames is refused before a frame is made."""

    @pytest.mark.parametrize("duration_s, fps", [(30.0, 1e300), (1e300, 1e300), (1e6, 10.0)])
    def test_inline_sim(self, tmp_path, duration_s, fps):
        cfg = {"sim": {"seed": 1, "n_cams": 2, "n_vehicles": 4,
                       "duration_s": duration_s, "fps": fps}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        done = run_cli_bounded(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert done.returncode == 2
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and "duration_s * fps" in line

    def test_gen_scenario(self, tmp_path):
        done = run_cli_bounded(["gen-scenario", "--seed", "0", "--cams", "2", "--vehicles", "2",
                                "--duration", "5", "--fps", "1e300", "--out", str(tmp_path / "x")])
        assert done.returncode == 2
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and "duration_s * fps" in line
        assert not (tmp_path / "x").exists()

    def test_scenario_dir(self, small_scenario):
        meta = small_scenario / "scenario.json"
        spec = json.loads(meta.read_text())
        spec["sim"]["fps"] = 1e300
        meta.write_text(json.dumps(spec))
        done = run_cli_bounded(["run", "--scenario", str(small_scenario),
                                "--out", str(small_scenario / "out")])
        assert done.returncode == 1
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and "scenario.json" in line and "fps" in line


class TestGenerationCaps:
    """More than simkit.MAX_VEHICLES vehicles, MAX_EMBED_DIM embedding
    dimensions or MAX_CAMS cameras are refused before a vehicle is made."""

    @pytest.mark.parametrize("field", ["n_vehicles", "embed_dim", "n_cams"])
    def test_inline_sim(self, tmp_path, field):
        cfg = {"sim": {"seed": 1, "n_cams": 2, "n_vehicles": 4, "duration_s": 30.0,
                       field: 10**12}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        done = run_cli_bounded(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert done.returncode == 2
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and field in line

    @pytest.mark.parametrize("flag, field", [
        ("--vehicles", "n_vehicles"), ("--dim", "embed_dim"), ("--cams", "n_cams"),
    ])
    def test_gen_scenario(self, tmp_path, flag, field):
        done = run_cli_bounded(["gen-scenario", "--seed", "0", "--cams", "2", "--duration", "30",
                                flag, str(10**12), "--out", str(tmp_path / "x")])
        assert done.returncode == 2
        (line,) = done.stderr.splitlines()
        assert line.startswith("error: ") and field in line
        assert not (tmp_path / "x").exists()


class TestEvalTrackErrors:
    """A trajectory row that does not parse is a runtime failure."""

    def test_malformed_sct_ground_truth_row(self, small_scenario, tmp_path, capsys):
        gt = tmp_path / "gt.csv"
        gt.write_text("0,1,10.0,10.0,20.0,20.0\nx,2,1,1,1,1\n")
        assert main(["eval-sct", "--gt", str(gt),
                     "--pred", str(small_scenario / "gt_c001.csv")]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "gt.csv, line 2" in line

    def test_eval_mct_reads_no_detection_or_embedding_file(self, small_scenario, tmp_path, capsys):
        emb_path = small_scenario / "emb_c001.bin"
        emb_path.write_bytes(emb_path.read_bytes()[:-10])
        (small_scenario / "det_c002.csv").write_text("not,a,detection\n")
        pred = tmp_path / "pred.csv"
        pred.write_text("c001,0,1,10.0,10.0,20.0,20.0\n")
        assert main(["eval-mct", "--scenario", str(small_scenario), "--pred", str(pred)]) == 0
        assert last_json_line(capsys)["fp"] == 1

    def test_malformed_global_track_row(self, small_scenario, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("c001,0,1,10.0,10.0,20.0,20.0\nc001,1,5\n")
        assert main(["eval-mct", "--scenario", str(small_scenario),
                     "--pred", str(pred)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "pred.csv, line 2" in line


    def test_repeated_global_track_id(self, small_scenario, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("c001,0,1,10.0,10.0,20.0,20.0\n" * 2)
        assert main(["eval-mct", "--scenario", str(small_scenario),
                     "--pred", str(pred)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "pred.csv, line 2" in line

    def test_repeated_sct_track_id(self, small_scenario, tmp_path, capsys):
        pred = tmp_path / "pred.csv"
        pred.write_text("0,1,10.0,10.0,20.0,20.0\n3,1,1,1,1,1\n0,1,12.0,10.0,20.0,20.0\n")
        assert main(["eval-sct", "--gt", str(small_scenario / "gt_c001.csv"),
                     "--pred", str(pred)]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "pred.csv, line 3" in line


class TestEvalReid:
    @pytest.fixture()
    def embedding_files(self, tmp_path):
        rng = np.random.default_rng(3)
        protos = np.linalg.qr(rng.normal(size=(8, 8)))[0]
        gallery, g_rows = [], []
        for identity in range(4):
            for _ in range(3):
                v = protos[identity] + 0.05 * rng.normal(size=8)
                gallery.append(v / np.linalg.norm(v))
                g_rows.append(f"{identity},cam_b")
        query, q_rows = [], []
        for identity in range(4):
            v = protos[identity] + 0.05 * rng.normal(size=8)
            query.append(v / np.linalg.norm(v))
            q_rows.append(f"{identity},cam_a")
        paths = {
            "query": tmp_path / "q.bin", "gallery": tmp_path / "g.bin",
            "query_labels": tmp_path / "q.csv", "gallery_labels": tmp_path / "g.csv",
        }
        write_embeddings(paths["query"], np.stack(query))
        write_embeddings(paths["gallery"], np.stack(gallery))
        paths["query_labels"].write_text("\n".join(q_rows) + "\n")
        paths["gallery_labels"].write_text("# id,camera\n" + "\n".join(g_rows) + "\n")
        return paths

    def test_plain_distance_scores(self, embedding_files, capsys):
        p = embedding_files
        assert main([
            "eval-reid", "--query", str(p["query"]), "--gallery", str(p["gallery"]),
            "--query-labels", str(p["query_labels"]),
            "--gallery-labels", str(p["gallery_labels"]),
        ]) == 0
        scores = last_json_line(capsys)
        assert scores["cmc1"] == 1.0
        assert scores["mAP"] > 0.9

    def test_rerank_small_gallery_fails_cleanly(self, embedding_files):
        p = embedding_files
        # 12 gallery rows < default k1=20: a runtime error, not a config one
        assert main([
            "eval-reid", "--query", str(p["query"]), "--gallery", str(p["gallery"]),
            "--query-labels", str(p["query_labels"]),
            "--gallery-labels", str(p["gallery_labels"]), "--rerank",
        ]) == 1

    def test_rerank_with_fitting_k1(self, embedding_files, capsys):
        p = embedding_files
        assert main([
            "eval-reid", "--query", str(p["query"]), "--gallery", str(p["gallery"]),
            "--query-labels", str(p["query_labels"]),
            "--gallery-labels", str(p["gallery_labels"]),
            "--rerank", "--k1", "6", "--k2", "2",
        ]) == 0
        scores = last_json_line(capsys)
        assert scores["cmc1"] == 1.0

    def test_missing_embedding_file(self, tmp_path):
        assert main([
            "eval-reid", "--query", str(tmp_path / "no.bin"),
            "--gallery", str(tmp_path / "no.bin"),
            "--query-labels", str(tmp_path / "no.csv"),
            "--gallery-labels", str(tmp_path / "no.csv"),
        ]) == 1


    @pytest.mark.parametrize("row", ["0", "x,cam_b"])
    def test_malformed_label_row(self, embedding_files, capsys, row):
        p = embedding_files
        with open(p["gallery_labels"], "a") as fh:
            fh.write(row + "\n")
        assert main([
            "eval-reid", "--query", str(p["query"]), "--gallery", str(p["gallery"]),
            "--query-labels", str(p["query_labels"]),
            "--gallery-labels", str(p["gallery_labels"]),
        ]) == 1
        (line,) = error_lines(capsys)
        # The header comment and 12 rows come first.
        assert line.startswith("error: ") and "g.csv, line 14" in line

    @staticmethod
    def eval_reid(p, *extra):
        return main([
            "eval-reid", "--query", str(p["query"]), "--gallery", str(p["gallery"]),
            "--query-labels", str(p["query_labels"]),
            "--gallery-labels", str(p["gallery_labels"]), *extra,
        ])

    @pytest.mark.parametrize("extra, name", [
        (["--k1", "0"], "k1"),
        (["--k1", "6", "--k2", "0"], "k2"),
        (["--k1", "6", "--k2", "2", "--lambda-r", "2"], "lambda_r"),
    ])
    def test_bad_rerank_setting_is_a_config_error(self, embedding_files, capsys, extra, name):
        assert self.eval_reid(embedding_files, "--rerank", *extra) == 2
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and name in line

    def test_gallery_of_another_dimension(self, embedding_files, capsys):
        p = embedding_files
        write_embeddings(p["gallery"], read_embeddings(p["gallery"])[:, :6])
        assert self.eval_reid(p) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "g.bin" in line and "q.bin" in line

    @pytest.mark.parametrize("side", ["query", "gallery"])
    def test_label_count_differs_from_embedding_count(self, embedding_files, capsys, side):
        p = embedding_files
        with open(p[f"{side}_labels"], "a") as fh:
            fh.write("0,cam_c\n")
        assert self.eval_reid(p) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ")
        assert p[f"{side}_labels"].name in line and p[side].name in line

    def test_truncated_embedding_file(self, embedding_files, capsys):
        p = embedding_files
        p["query"].write_bytes(p["query"].read_bytes()[:-3])
        assert main([
            "eval-reid", "--query", str(p["query"]), "--gallery", str(p["gallery"]),
            "--query-labels", str(p["query_labels"]),
            "--gallery-labels", str(p["gallery_labels"]),
        ]) == 1
        (line,) = error_lines(capsys)
        assert line.startswith("error: ") and "q.bin" in line


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-command"])
        assert exc.value.code == 2

    def test_missing_required_argument(self):
        with pytest.raises(SystemExit) as exc:
            main(["gen-scenario"])  # --seed and --out are required
        assert exc.value.code == 2
