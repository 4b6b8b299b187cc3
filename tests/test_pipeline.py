"""Pipeline orchestration: config handling, offline runs, real-time pacing."""

import dataclasses
import json
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcvt import kalman, pipeline, sct
from mcvt.errors import ConfigError, MalformedInput, SourceMissing
from mcvt.geo import CameraInfo, make_topology
from mcvt.ingest import CameraStream, Detection, DetectionColumns, FrameRecord
from mcvt.metrics import evaluate_identity, load_global_trajectories
from mcvt.pipeline import (
    QUEUE_SECONDS,
    PassThroughProvider,
    PipelineConfig,
    RunReport,
    VirtualClock,
    run,
)
from mcvt.mct import MctConfig
from mcvt.reid import TemporalScorer, write_embedding_block
from mcvt.sct import TrackerParams
from mcvt.simkit import (
    NoiseProfile,
    gen_scenario,
    load_ground_truth,
    load_scenario_dir,
    render_detections,
    write_scenario_dir,
)

SEED = 5
N_CAMS = 2
N_VEHICLES = 5
DURATION_S = 30.0


@pytest.fixture(scope="module")
def scenario_dir(tmp_path_factory):
    """A small noiseless scenario on disk, shared by the offline tests."""
    outdir = tmp_path_factory.mktemp("scenario") / "clean"
    scenario, gt = gen_scenario(SEED, N_CAMS, N_VEHICLES, DURATION_S)
    streams = render_detections(scenario, gt, NoiseProfile())
    write_scenario_dir(scenario, gt, streams, outdir)
    return outdir


def write_noisy_scenario(outdir, n_vehicles):
    scenario, gt = gen_scenario(SEED + 1, N_CAMS, n_vehicles, DURATION_S)
    profile = NoiseProfile(box_jitter_std=2.0, miss_rate=0.1,
                           false_positive_rate=0.2, embedding_noise_std=0.25)
    streams = render_detections(scenario, gt, profile)
    write_scenario_dir(scenario, gt, streams, outdir)
    return outdir


@pytest.fixture(scope="module")
def noisy_dir(tmp_path_factory):
    return write_noisy_scenario(tmp_path_factory.mktemp("scenario") / "noisy", N_VEHICLES)


class TestConfig:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ConfigError):
            PipelineConfig()
        with pytest.raises(ConfigError):
            PipelineConfig(scenario_dir="x", sim={"seed": 0})

    @pytest.mark.parametrize("kw", [
        {"alpha_min": -0.1},
        {"alpha_min": 1.5},
        {"scorer_path": 3},
        {"workers": 0},
        {"workers": True},
        {"workers": 2.0},
        {"real_time": "no"},
        {"mct": {"use_direction": "no"}},
        {"mct": {"use_adjacency": 0}},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"scenario_dir": "x", **kw})

    @given(
        place=st.sampled_from(
            [("tracker", f.name) for f in dataclasses.fields(TrackerParams)]
            + [("mct", f.name) for f in dataclasses.fields(MctConfig)]
            + [(None, f.name) for f in dataclasses.fields(PipelineConfig)]
        ),
        value=st.one_of(
            st.none(), st.booleans(), st.integers(-3, 3), st.just(10**400),
            st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=3),
            st.lists(st.integers(0, 3), max_size=2),
            st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
        ),
    )
    def test_generated_setting_is_accepted_or_a_config_error(self, place, value):
        section, name = place
        data = {"scenario_dir": "x"}
        data.update({name: value} if section is None else {section: {name: value}})
        try:
            PipelineConfig.from_dict(data)
        except ConfigError:
            pass

    def test_from_dict_nested_sections(self):
        cfg = PipelineConfig.from_dict({
            "scenario_dir": "somewhere",
            "workers": 3,
            "tracker": {"n_init": 2, "max_age": 10},
            "mct": {"tau_min": 0.2, "v_max": 30.0},
        })
        assert cfg.workers == 3
        assert cfg.tracker.n_init == 2
        assert cfg.mct.tau_min == 0.2

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"scenario_dir": "x", "tracker": {"bogus": 1}})
        with pytest.raises(ConfigError):
            PipelineConfig.from_dict({"scenario_dir": "x", "no_such_option": True})

    def test_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"scenario_dir": "d", "alpha_min": 0.2}))
        cfg = PipelineConfig.from_file(path)
        assert cfg.alpha_min == 0.2

    def test_from_file_missing_or_malformed(self, tmp_path):
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(tmp_path / "absent.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            PipelineConfig.from_file(bad)


def test_prepare_builds_a_record_only_when_the_filter_drops_a_detection(monkeypatch):
    # The source is filtered once per camera: a stream whose rows all pass is
    # kept as it is, and a record given back its own embeddings is kept too.
    scenario, gt = gen_scenario(SEED, N_CAMS, N_VEHICLES, DURATION_S)
    streams = render_detections(scenario, gt, NoiseProfile(false_positive_rate=0.5))
    monkeypatch.setattr(pipeline.simkit, "render_detections", lambda *args: dict(streams))
    sim = dict(seed=SEED, n_cams=N_CAMS, n_vehicles=N_VEHICLES, duration_s=DURATION_S)
    _, same = pipeline._load_source(PipelineConfig(sim=sim, alpha_min=0.5))
    assert all(same[cid] is stream for cid, stream in streams.items())  # every alpha >= 0.5
    _, kept = pipeline._load_source(PipelineConfig(sim=sim, alpha_min=0.75))
    for cid, stream in streams.items():
        assert len(kept[cid].columns) < len(stream.columns)
        rows = stream.columns.alpha >= 0.75
        assert np.array_equal(kept[cid].columns.boxes, stream.columns.boxes[rows])
        assert np.array_equal(kept[cid].embeddings, stream.embeddings[rows])

    record = next(frame for frame in streams["c001"] if len(frame.alpha))
    assert pipeline._embed([record], [record.embeddings], scenario.embed_dim) == [record]
    copy = record.embeddings.copy()
    (embedded,) = pipeline._embed([record], [copy], scenario.embed_dim)
    assert embedded is not record and embedded.embeddings is copy
    assert embedded.detections == record.detections


def test_a_filtered_stream_is_the_per_frame_filter(noisy_dir):
    _, everything = pipeline._load_source(PipelineConfig(scenario_dir=str(noisy_dir),
                                                         alpha_min=0.0))
    _, filtered = pipeline._load_source(PipelineConfig(scenario_dir=str(noisy_dir),
                                                       alpha_min=0.75))
    dropped = 0
    for cid, stream in everything.items():
        assert len(filtered[cid]) == len(stream)
        for full, kept in zip(stream, filtered[cid]):
            rows = full.alpha >= 0.75
            dropped += int(np.count_nonzero(~rows))
            assert (kept.camera, kept.frame_index) == (cid, full.frame_index)
            for name in ("boxes", "alpha", "beta", "embeddings"):
                assert np.array_equal(getattr(kept, name), getattr(full, name)[rows]), name
    assert dropped > 0


@st.composite
def small_scenarios(draw):
    """A small rendered scenario: (scenario, ground truth, streams)."""
    scenario, gt = gen_scenario(draw(st.integers(0, 2**16)), draw(st.integers(1, 3)),
                                draw(st.integers(0, 6)), 10.0, embed_dim=8)
    profile = NoiseProfile(
        box_jitter_std=draw(st.sampled_from([0.0, 2.0])),
        miss_rate=draw(st.sampled_from([0.0, 0.2])),
        false_positive_rate=draw(st.sampled_from([0.0, 0.3])),
        embedding_noise_std=draw(st.sampled_from([0.0, 0.25])),
    )
    return scenario, gt, render_detections(scenario, gt, profile)


def run_outputs(scenario_dir, out_dir) -> dict[str, bytes]:
    """Every file a run writes but report.json, whose timings vary."""
    run(PipelineConfig(scenario_dir=str(scenario_dir), out_dir=str(out_dir)))
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())
            if path.name != "report.json"}


@settings(max_examples=10)
@given(case=small_scenarios(), silent=st.sampled_from(["a0", "c001x", "z9"]))
def test_a_silent_camera_changes_no_track(tmp_path_factory, case, silent):
    # The silent camera sorts first, between two cameras or last.
    scenario, gt, streams = case
    tmp = tmp_path_factory.mktemp("silent")
    write_scenario_dir(scenario, gt, streams, tmp / "plain")
    topo = scenario.topology
    scenario.topology = make_topology(
        [*topo.cameras.values(), CameraInfo(silent, topo.cameras["c001"].homography)],
        topo.adjacency, topo.overlap,
    )
    nothing = DetectionColumns(np.empty(0, np.int64), np.empty((0, 4)), np.empty(0),
                               np.empty(0, np.int64))
    streams[silent] = CameraStream(silent, scenario.n_frames, nothing,
                                   np.empty((0, scenario.embed_dim)))
    write_scenario_dir(scenario, gt, streams, tmp / "silent")

    _, loaded = load_scenario_dir(tmp / "silent")
    assert len(loaded[silent]) == scenario.n_frames
    assert all(len(frame.alpha) == 0 and frame.embeddings.shape == (0, scenario.embed_dim)
               for frame in loaded[silent])
    plain = run_outputs(tmp / "plain", tmp / "plain_out")
    with_silent = run_outputs(tmp / "silent", tmp / "silent_out")
    assert with_silent == plain  # no sct file either: the camera holds no track


@settings(max_examples=10)
@given(case=small_scenarios(), data=st.data())
def test_camera_order_in_scenario_json_changes_no_output(tmp_path_factory, case, data):
    scenario, gt, streams = case
    tmp = tmp_path_factory.mktemp("order")
    write_scenario_dir(scenario, gt, streams, tmp / "scn")
    written = run_outputs(tmp / "scn", tmp / "sorted_out")
    meta = tmp / "scn" / "scenario.json"
    spec = json.loads(meta.read_text())
    topology = spec["topology"]
    topology["cameras"] = data.draw(st.permutations(topology["cameras"]))
    topology["adjacent"] = [data.draw(st.permutations(pair))
                            for pair in data.draw(st.permutations(topology["adjacent"]))]
    meta.write_text(json.dumps(spec, indent=2) + "\n")
    assert run_outputs(tmp / "scn", tmp / "permuted_out") == written


class TestOffline:
    def test_run_produces_outputs_and_report(self, scenario_dir, tmp_path):
        out = tmp_path / "out"
        cfg = PipelineConfig(scenario_dir=str(scenario_dir), out_dir=str(out))
        report = run(cfg)

        assert report.real_time is False
        assert report.frames == {"c001": 300, "c002": 300}
        assert report.dropped == {"c001": 0, "c002": 0}
        assert report.n_concluded >= N_VEHICLES  # one per vehicle per camera pass
        assert report.n_identities >= 1
        assert report.wall_time_s > 0.0
        assert len(report.latencies_s) == 300

        for name in ("global_tracks.csv", "identities.json", "report.json",
                     "sct_c001.csv", "sct_c002.csv"):
            assert (out / name).exists(), name
        on_disk = json.loads((out / "report.json").read_text())
        assert on_disk == report.to_dict()
        assert "identities" not in on_disk  # summary only, not the raw tracks

    def test_noiseless_run_recovers_identities(self, scenario_dir, tmp_path):
        out = tmp_path / "out"
        cfg = PipelineConfig(scenario_dir=str(scenario_dir), out_dir=str(out))
        run(cfg)
        scenario, _ = gen_scenario(SEED, N_CAMS, N_VEHICLES, DURATION_S)
        gt = load_ground_truth(scenario_dir, scenario)
        pred = load_global_trajectories(out / "global_tracks.csv")
        _, _, idf1 = evaluate_identity(gt, pred)
        assert idf1 >= 0.95

    def test_engine_starts_no_thread(self, noisy_dir, monkeypatch):
        def refuse(self):
            raise AssertionError("the engine started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        report = run(PipelineConfig(scenario_dir=str(noisy_dir), workers=4))
        assert report.frames == {"c001": 300, "c002": 300}

    def test_each_tick_steps_every_camera_in_one_batch(self, noisy_dir, monkeypatch):
        calls = Counter()
        for name in ("predict_many", "innovation_factors", "update_many"):
            def counting(*args, _real=getattr(kalman, name), _name=name):
                calls[_name] += 1
                return _real(*args)

            monkeypatch.setattr(kalman, name, counting)
        ticks = []

        def stepping(pairs, _real=pipeline.step_cameras):
            before = calls.copy()
            result = _real(pairs)
            ticks.append((len(pairs), calls - before))
            return result

        monkeypatch.setattr(pipeline, "step_cameras", stepping)
        run(PipelineConfig(scenario_dir=str(noisy_dir)))
        assert len(ticks) == 300
        assert all(max(tick.values(), default=0) <= 1 for _, tick in ticks)
        # Ticks where both cameras stepped and each needed all three calls.
        assert any(n == 2 and tick == dict.fromkeys(calls, 1) for n, tick in ticks)

    def test_hungarian_for_every_camera_writes_the_same_tracks(self, tmp_path, monkeypatch):
        # Running Hungarian for every stage of every camera frame with a cost
        # entry must not change the output; the plain run needs it far less.
        # Twice the vehicles of noisy_dir, so that some plain stages conflict.
        noisy_dir = write_noisy_scenario(tmp_path / "scenario", 2 * N_VEHICLES)
        calls = []
        solve = sct.linear_sum_assignment
        monkeypatch.setattr(sct, "linear_sum_assignment",
                            lambda cost: calls.append(1) or solve(cost))
        run(PipelineConfig(scenario_dir=str(noisy_dir), out_dir=str(tmp_path / "plain")))
        plain = len(calls)
        settled = sct._settled

        def unsettled_everywhere(*args):
            feasible, unsettled = settled(*args)
            return feasible, np.ones_like(unsettled)

        monkeypatch.setattr(sct, "_settled", unsettled_everywhere)
        calls.clear()
        run(PipelineConfig(scenario_dir=str(noisy_dir), out_dir=str(tmp_path / "forced")))
        written = (tmp_path / "plain" / "global_tracks.csv").read_bytes()
        assert written and (tmp_path / "forced" / "global_tracks.csv").read_bytes() == written
        assert 0 < plain < len(calls) / 2

    def test_sim_source_runs_in_memory(self):
        cfg = PipelineConfig(sim={
            "seed": 9, "n_cams": 2, "n_vehicles": 3, "duration_s": 20.0,
            "noise": {"box_jitter_std": 1.0, "miss_rate": 0.05},
        })
        report = run(cfg)
        assert report.frames == {"c001": 200, "c002": 200}
        assert report.n_identities >= 1

    def test_bad_sim_config(self):
        cfg = PipelineConfig(sim={"seed": 0, "n_cams": 2, "n_vehicles": 3,
                                  "duration_s": 10.0, "noise": {"miss_rate": 2.0}})
        with pytest.raises(ConfigError):
            run(cfg)
        cfg = PipelineConfig(sim={"seed": 0, "wrong_kwarg": 1})
        with pytest.raises(ConfigError):
            run(cfg)

    def test_missing_scenario_dir(self, tmp_path):
        cfg = PipelineConfig(scenario_dir=str(tmp_path / "nothing"))
        with pytest.raises(SourceMissing):
            run(cfg)

    def test_provider_must_embed_all_detections(self, scenario_dir):
        class BrokenProvider(PassThroughProvider):
            def __call__(self, frames):
                return [None for _ in frames]

        cfg = PipelineConfig(scenario_dir=str(scenario_dir))
        with pytest.raises(SourceMissing, match="without embeddings"):
            run(cfg, provider=BrokenProvider())

    def test_provider_with_an_array_too_few_names_the_camera(self, scenario_dir):
        def provider(frames):  # the last camera of every tick gets no array
            return [frame.embeddings for frame in frames][:-1]

        with pytest.raises(MalformedInput, match="camera c002: provider output"):
            run(PipelineConfig(scenario_dir=str(scenario_dir)), provider=provider)

    def test_provider_array_short_by_a_row_names_the_camera(self, scenario_dir):
        def provider(frames):
            return [frame.embeddings[:-1] if frame.camera == "c002" and frame.detections
                    else frame.embeddings for frame in frames]

        with pytest.raises(MalformedInput, match="camera c002: .* embeddings for"):
            run(PipelineConfig(scenario_dir=str(scenario_dir)), provider=provider)

    def test_provider_array_of_another_width_names_the_camera(self, scenario_dir):
        def provider(frames):  # camera c002's arrays cut to 32 of 64 columns
            return [frame.embeddings[:, :32] if frame.camera == "c002" and frame.detections
                    else frame.embeddings for frame in frames]

        with pytest.raises(MalformedInput, match=r"camera c002: .* \(\d+, 32\), rows of width 64"):
            run(PipelineConfig(scenario_dir=str(scenario_dir)), provider=provider)

    @pytest.mark.parametrize("corrupt", [
        lambda rows: np.where(np.arange(rows.shape[1]) == 3, np.nan, rows),
        lambda rows: np.where(np.arange(rows.shape[1]) == 0, np.inf, rows),
        lambda rows: rows * 100.0,
        np.zeros_like,
    ], ids=["nan", "inf", "scaled-by-100", "zeros"])
    def test_provider_row_that_is_not_a_finite_unit_vector_names_the_camera(self, scenario_dir,
                                                                           corrupt):
        def provider(frames):
            return [corrupt(frame.embeddings) if frame.camera == "c002" and frame.detections
                    else frame.embeddings for frame in frames]

        with pytest.raises(MalformedInput, match="camera c002: provider row of frame .* is not "
                                                 "a finite unit vector"):
            run(PipelineConfig(scenario_dir=str(scenario_dir)), provider=provider)

    def test_scorer_of_another_width_fails_before_the_first_tick(self, scenario_dir, tmp_path):
        path = tmp_path / "scorer.bin"
        with open(path, "wb") as fh:  # D = 32 against the scenario's 64
            write_embedding_block(fh, np.full((64 * 3, 32), 0.01))
            write_embedding_block(fh, np.full((3, 64), 0.01))

        def provider(frames):
            raise AssertionError("a tick ran")

        cfg = PipelineConfig(scenario_dir=str(scenario_dir), scorer_path=str(path))
        with pytest.raises(MalformedInput, match="scorer.bin: scorer built for D=32"):
            run(cfg, provider=provider)

    def test_learned_scorer_from_file(self, scenario_dir, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "scorer.bin"
        with open(path, "wb") as fh:  # conv1 as 64*3 rows of D = 64, conv2 as 3 rows of 64
            write_embedding_block(fh, rng.normal(0, 0.05, (64 * 3, 64)))
            write_embedding_block(fh, rng.normal(0, 0.05, (3, 64)))
        assert TemporalScorer.load(path).conv1 is not None
        cfg = PipelineConfig(scenario_dir=str(scenario_dir), scorer_path=str(path))
        report = run(cfg)
        assert report.n_identities >= 1

    def test_report_to_dict_shape(self):
        report = RunReport(frames={}, dropped={}, n_concluded=0, n_identities=0,
                           wall_time_s=1.0, latency_p50_ms=1.0, latency_p99_ms=2.0,
                           latency_max_ms=3.0, final_tick_ms=4.0, real_time=False)
        assert set(report.to_dict()) == {
            "frames", "dropped", "n_concluded", "n_identities", "wall_time_s",
            "latency_p50_ms", "latency_p99_ms", "latency_max_ms", "final_tick_ms", "real_time",
        }
        assert report.to_dict()["final_tick_ms"] == 4.0

    def test_final_tick_is_reported_outside_the_tick_latencies(self, scenario_dir, tmp_path,
                                                               monkeypatch):
        ticks = []
        tick = pipeline.supervisor_tick

        def timed(*args):
            ticks.append(len(args[1]))
            return tick(*args)

        monkeypatch.setattr(pipeline, "supervisor_tick", timed)
        out = tmp_path / "out"
        report = run(PipelineConfig(scenario_dir=str(scenario_dir), out_dir=str(out)))
        assert len(report.latencies_s) == 300  # one per tick; the final supervisor tick is not one
        assert ticks[-1] > 0  # the end-of-stream tick got the tracks that finish() concluded
        assert report.final_tick_ms > 0.0
        written = json.loads((out / "report.json").read_text())
        assert written["final_tick_ms"] == report.final_tick_ms

    def test_a_run_builds_no_detection_object(self, scenario_dir, tmp_path, monkeypatch):
        built = Counter()
        check = Detection.__post_init__

        def counted(self):
            built["detections"] += 1
            check(self)

        monkeypatch.setattr(Detection, "__post_init__", counted)
        report = run(PipelineConfig(scenario_dir=str(scenario_dir), out_dir=str(tmp_path / "o")))
        assert report.n_concluded > 0 and (tmp_path / "o" / "sct_c001.csv").stat().st_size > 0
        assert built["detections"] == 0
        Detection(0, 0, 1, 1, 1.0)  # the counter does count
        assert built["detections"] == 1


    @pytest.mark.parametrize("alpha_min", [0.1, 0.75])
    def test_a_run_builds_one_frame_record_per_processed_frame(self, noisy_dir, monkeypatch,
                                                               alpha_min):
        built = Counter()
        check = FrameRecord.__post_init__

        def counted(self):
            built["records"] += 1
            check(self)

        monkeypatch.setattr(FrameRecord, "__post_init__", counted)
        load_scenario_dir(noisy_dir)
        assert built["records"] == 0
        report = run(PipelineConfig(scenario_dir=str(noisy_dir), alpha_min=alpha_min))
        assert built["records"] == sum(report.frames.values()) == 600


class TestRealTime:
    def test_virtual_clock_matches_offline(self, noisy_dir, tmp_path):
        blobs = []
        for real_time in (False, True):
            out = tmp_path / f"rt{int(real_time)}"
            cfg = PipelineConfig(scenario_dir=str(noisy_dir), out_dir=str(out),
                                 real_time=real_time, workers=2)
            report = run(cfg, clock=VirtualClock())
            assert report.real_time is real_time
            assert report.dropped == {"c001": 0, "c002": 0}
            assert len(report.latencies_s) == 300  # one per tick
            blobs.append({
                path.name: path.read_bytes()
                for path in sorted(out.iterdir()) if path.name != "report.json"
            })
        assert blobs[0] == blobs[1]

    def test_overloaded_run_drops_frames(self, scenario_dir):
        clock = VirtualClock()
        seen = []

        class SlowProvider(PassThroughProvider):
            """Takes 0.25 s of virtual time per tick against 0.1 s frames."""

            def __call__(self, frames):
                seen.append([record.frame_index for record in frames])
                clock.sleep_until(clock.now() + 0.25)
                return super().__call__(frames)

        cfg = PipelineConfig(scenario_dir=str(scenario_dir), real_time=True)
        report = run(cfg, provider=SlowProvider(), clock=clock)
        assert sum(report.dropped.values()) > 0
        for cid in ("c001", "c002"):
            assert report.frames[cid] + report.dropped[cid] == 300
        assert len(report.latencies_s) == len(seen) == report.frames["c001"]
        # Every tick holds both cameras at one frame index; indices only
        # grow, and the newest frames survive: the last QUEUE_SECONDS of the
        # clip are all processed.
        indices = [frames[0] for frames in seen]
        assert all(frames == [i, i] for frames, i in zip(seen, indices))
        assert indices == sorted(set(indices))
        kept = int(QUEUE_SECONDS * 10)
        assert indices[-kept:] == list(range(300 - kept, 300))

    def test_paced_run_keeps_up(self, tmp_path):
        outdir = tmp_path / "scn"
        scenario, gt = gen_scenario(31, 2, 3, 1.0)
        streams = render_detections(scenario, gt, NoiseProfile())
        write_scenario_dir(scenario, gt, streams, outdir)
        report = run(PipelineConfig(scenario_dir=str(outdir), real_time=True))
        assert report.real_time is True
        assert report.frames == {"c001": 10, "c002": 10}
        assert report.dropped == {"c001": 0, "c002": 0}
        # frames are released on the wall clock, so the run spans the clip
        assert report.wall_time_s >= 1.0
        assert report.wall_time_s < 5.0
        assert report.latency_p99_ms > 0.0
