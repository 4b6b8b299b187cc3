"""Simulator checks: geometry, determinism, noise statistics, disk round trip."""

import filecmp
import json

import numpy as np
import pytest

from mcvt.errors import InvalidLayout, MalformedInput
from mcvt.geo import PixelPoint, are_adjacent, are_overlapping, haversine_distance, pixel_to_geo
from mcvt.simkit import (
    CAM_SPACING_M,
    IMAGE_SIZE,
    MAX_CAMS,
    MAX_EMBED_DIM,
    MAX_VEHICLES,
    METERS_PER_DEGREE,
    EmbeddingOracle,
    NoiseProfile,
    gen_scenario,
    load_ground_truth,
    load_scenario_dir,
    render_detections,
    write_scenario_dir,
)


def small_scenario(seed=7, n_cams=3, n_vehicles=6, duration_s=40.0, **kw):
    return gen_scenario(seed, n_cams, n_vehicles, duration_s, **kw)


def viewport_centre(camera):
    """Where the camera's centre pixel lands on the ground."""
    width, height = IMAGE_SIZE
    return pixel_to_geo(camera.homography, PixelPoint(width / 2.0, height / 2.0))


class TestLayout:
    def test_corridor_camera_ids_and_spacing(self):
        scenario, _ = small_scenario(n_cams=6)
        assert scenario.camera_ids == ["c001", "c002", "c003", "c004", "c005", "c006"]
        cams = scenario.topology.cameras
        for a, b in zip(scenario.camera_ids, scenario.camera_ids[1:]):
            gap = haversine_distance(viewport_centre(cams[a]), viewport_centre(cams[b]))
            assert gap == pytest.approx(CAM_SPACING_M, abs=1e-6)

    def test_corridor_adjacency_is_a_chain(self):
        scenario, _ = small_scenario(n_cams=4)
        topo = scenario.topology
        assert are_adjacent(topo, "c001", "c002")
        assert are_adjacent(topo, "c003", "c004")
        assert not are_adjacent(topo, "c001", "c003")
        # 60 m viewports with 150 m spacing never overlap
        assert not are_overlapping(topo, "c001", "c002")

    def test_grid_layout_four_neighbourhood(self):
        scenario, _ = small_scenario(n_cams=4, layout="grid")
        assert (scenario.rows, scenario.cols) == (2, 2)
        topo = scenario.topology
        assert are_adjacent(topo, "c001", "c002")  # same row
        assert are_adjacent(topo, "c001", "c003")  # same column
        assert not are_adjacent(topo, "c001", "c004")  # diagonal
        # second row sits one row-spacing further north
        lat_gap = haversine_distance(
            viewport_centre(topo.cameras["c001"]), viewport_centre(topo.cameras["c003"])
        )
        assert lat_gap == pytest.approx(600.0, abs=1e-6)

    def test_grid_needs_exact_factorization(self):
        with pytest.raises(InvalidLayout):
            small_scenario(n_cams=5, layout="grid")

    def test_unknown_layout(self):
        with pytest.raises(InvalidLayout):
            small_scenario(layout="ring")

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_scenario(0, 0, 5, 10.0)
        with pytest.raises(ValueError):
            gen_scenario(0, 2, -1, 10.0)
        with pytest.raises(ValueError):
            gen_scenario(0, 2, 5, 0.0)
        with pytest.raises(ValueError):
            gen_scenario(0, 2, 5, 10.0, fps=0.0)
        with pytest.raises(ValueError, match="n_vehicles"):
            gen_scenario(0, 2, MAX_VEHICLES + 1, 10.0)
        with pytest.raises(ValueError, match="embed_dim"):
            gen_scenario(0, 2, 5, 10.0, embed_dim=MAX_EMBED_DIM + 1)
        assert gen_scenario(0, 1, 1, 1.0, embed_dim=MAX_EMBED_DIM)[0].embed_dim == MAX_EMBED_DIM
        with pytest.raises(ValueError, match="n_cams"):
            gen_scenario(0, MAX_CAMS + 1, 5, 10.0)
        assert len(gen_scenario(0, MAX_CAMS, 1, 1.0)[0].camera_ids) == MAX_CAMS


class TestScenario:
    def test_same_seed_same_vehicles(self):
        a, _ = small_scenario(seed=42)
        b, _ = small_scenario(seed=42)
        assert a.vehicles == b.vehicles

    def test_different_seed_different_vehicles(self):
        a, _ = small_scenario(seed=1)
        b, _ = small_scenario(seed=2)
        assert a.vehicles != b.vehicles

    def test_vehicle_population(self):
        scenario, _ = small_scenario(n_vehicles=10)
        assert [v.global_id for v in scenario.vehicles] == list(range(1, 11))
        directions = [v.direction for v in scenario.vehicles]
        assert directions == [1, -1] * 5
        for v in scenario.vehicles:
            assert v.entry_time >= 0.0
            assert 8.0 <= v.speed <= 14.0
            # right-hand traffic: lane offset is opposite the direction sign
            assert v.lane_offset_m == -2.5 * v.direction

    def test_frame_count(self):
        scenario, _ = small_scenario(duration_s=12.5, fps=10.0)
        assert scenario.n_frames == 125


class TestGroundTruth:
    def test_boxes_fully_inside_image(self):
        scenario, gt = small_scenario(n_vehicles=12)
        width, height = scenario.image_size
        total = 0
        for cid in scenario.camera_ids:
            for frame, pairs in gt.boxes[cid].items():
                assert 0 <= frame < scenario.n_frames
                for _, det in pairs:
                    total += 1
                    assert det.x1 >= 0 and det.y1 >= 0
                    assert det.x2 <= width and det.y2 <= height
                    assert det.alpha == 1.0
        assert total > 0

    def test_no_duplicate_identity_per_frame(self):
        scenario, gt = small_scenario(n_vehicles=12)
        for cid in scenario.camera_ids:
            for pairs in gt.boxes[cid].values():
                gids = [gid for gid, _ in pairs]
                assert len(gids) == len(set(gids))

    def test_bottom_center_projects_to_road_position(self):
        # Re-project each GT box's ground-contact point and compare with the
        # analytic position of the vehicle along the road.
        scenario, gt = small_scenario(n_vehicles=8)
        by_id = {v.global_id: v for v in scenario.vehicles}
        checked = 0
        for cid in scenario.camera_ids:
            cam = scenario.topology.cameras[cid]
            for frame, pairs in gt.boxes[cid].items():
                for gid, det in pairs:
                    veh = by_id[gid]
                    point = pixel_to_geo(
                        cam.homography,
                        type("P", (), {"x": (det.x1 + det.x2) / 2.0, "y": det.y2})(),
                    )
                    x_m = point.lon * METERS_PER_DEGREE
                    expect = veh.position_m(frame / scenario.fps, scenario.road_length)
                    assert expect is not None
                    assert x_m == pytest.approx(expect, abs=1e-6)
                    assert point.lat * METERS_PER_DEGREE == pytest.approx(
                        veh.lane_offset_m, abs=1e-6
                    )
                    checked += 1
        assert checked > 50

    def test_every_vehicle_crosses_every_corridor_camera(self):
        # 300 m road, slowest crossing 37.5 s, last entry well before 80 s:
        # every vehicle finishes inside the clip.
        scenario, gt = small_scenario(n_cams=2, n_vehicles=4, duration_s=120.0)
        for v in scenario.vehicles:
            assert v.entry_time + scenario.road_length / v.speed < scenario.duration_s
        seen = {cid: set() for cid in scenario.camera_ids}
        for cid in scenario.camera_ids:
            for pairs in gt.boxes[cid].values():
                seen[cid].update(gid for gid, _ in pairs)
        for cid in scenario.camera_ids:
            assert seen[cid] == {v.global_id for v in scenario.vehicles}


class TestNoiseProfile:
    def test_defaults_are_noiseless(self):
        p = NoiseProfile()
        assert (p.box_jitter_std, p.miss_rate, p.false_positive_rate,
                p.embedding_noise_std) == (0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"box_jitter_std": -1.0},
            {"embedding_noise_std": -0.1},
            {"miss_rate": -0.1},
            {"miss_rate": 1.0},
            {"false_positive_rate": -2.0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            NoiseProfile(**kw)


class TestEmbeddingOracle:
    def test_prototypes_orthonormal_when_they_fit(self):
        oracle = EmbeddingOracle(range(1, 9), dim=16, seed=3)
        protos = np.stack([oracle.prototypes[i] for i in range(1, 9)])
        gram = protos @ protos.T
        assert np.allclose(gram, np.eye(8), atol=1e-10)

    def test_more_identities_than_dims_still_unit_norm(self):
        oracle = EmbeddingOracle(range(12), dim=8, seed=0)
        for i in range(12):
            assert np.linalg.norm(oracle.prototypes[i]) == pytest.approx(1.0, abs=1e-12)

    def test_zero_sigma_returns_prototype_exactly(self):
        oracle = EmbeddingOracle([1, 2, 3], dim=32, sigma=0.0, seed=5)
        emb = oracle.oracle_embedding(2, draw=np.random.default_rng(0))
        assert np.array_equal(emb, oracle.prototypes[2])
        emb[0] = 99.0  # the draw must be a copy, not the stored prototype
        assert oracle.prototypes[2][0] != 99.0

    def test_small_sigma_stays_close(self):
        oracle = EmbeddingOracle(range(10), dim=64, sigma=0.01, seed=2)
        rng = np.random.default_rng(0)
        dots = [
            float(oracle.oracle_embedding(i, draw=rng) @ oracle.prototypes[i])
            for i in range(10)
            for _ in range(20)
        ]
        assert np.mean(dots) >= 0.99

    def test_noisy_draws_still_nearest_to_own_prototype(self):
        # At sigma=0.25 in 64 dims the same-id dot sits near 1/sqrt(1+sigma^2*D)
        # ~= 0.45 against cross-id dots of ~0.11 std, so nearest-prototype
        # lookup stays dominantly right (observed 0.955 with these seeds).
        ids = list(range(1, 41))
        oracle = EmbeddingOracle(ids, dim=64, sigma=0.25, seed=9)
        protos = np.stack([oracle.prototypes[i] for i in ids])
        rng = np.random.default_rng(1)
        hits = 0
        trials = 0
        for i in ids:
            for _ in range(5):
                emb = oracle.oracle_embedding(i, draw=rng)
                hits += int(ids[int(np.argmax(protos @ emb))] == i)
                trials += 1
        assert hits / trials >= 0.9


class TestRender:
    def test_noiseless_render_matches_ground_truth(self):
        scenario, gt = small_scenario()
        streams = render_detections(scenario, gt, NoiseProfile())
        for cid in scenario.camera_ids:
            assert len(streams[cid]) == scenario.n_frames
            for record in streams[cid]:
                truth = gt.boxes[cid].get(record.frame_index, [])
                assert record.detections == [det for _, det in truth]
                assert record.camera == cid
                if truth:
                    assert record.embeddings.shape == (len(truth), scenario.embed_dim)
                else:
                    assert record.embeddings is None

    def test_noiseless_embeddings_are_prototypes(self):
        scenario, gt = small_scenario()
        oracle = EmbeddingOracle(
            [v.global_id for v in scenario.vehicles], dim=scenario.embed_dim,
            sigma=0.0, seed=scenario.seed,
        )
        streams = render_detections(scenario, gt, NoiseProfile(), oracle=oracle)
        for cid in scenario.camera_ids:
            for record in streams[cid]:
                truth = gt.boxes[cid].get(record.frame_index, [])
                for row, (gid, _) in enumerate(truth):
                    assert np.array_equal(
                        record.embeddings[row], oracle.prototypes[gid]
                    )

    def test_render_is_deterministic(self):
        scenario, gt = small_scenario()
        profile = NoiseProfile(box_jitter_std=2.0, miss_rate=0.1,
                               false_positive_rate=0.2, embedding_noise_std=0.25)
        one = render_detections(scenario, gt, profile)
        two = render_detections(scenario, gt, profile)
        for cid in scenario.camera_ids:
            for a, b in zip(one[cid], two[cid]):
                assert a.detections == b.detections
                if a.embeddings is None:
                    assert b.embeddings is None
                else:
                    assert np.array_equal(a.embeddings, b.embeddings)

    def test_miss_rate_concentrates(self):
        scenario, gt = gen_scenario(11, 4, 20, 60.0)
        n_gt = sum(
            len(pairs) for cid in scenario.camera_ids
            for pairs in gt.boxes[cid].values()
        )
        assert n_gt > 2000  # enough mass for a tight estimate
        streams = render_detections(scenario, gt, NoiseProfile(miss_rate=0.2))
        n_det = sum(len(r.detections) for cid in streams for r in streams[cid])
        observed_miss = 1.0 - n_det / n_gt
        assert abs(observed_miss - 0.2) < 0.02

    def test_false_positive_budget(self):
        scenario, gt = gen_scenario(13, 2, 4, 30.0)
        n_gt = sum(
            len(pairs) for cid in scenario.camera_ids
            for pairs in gt.boxes[cid].values()
        )
        streams = render_detections(scenario, gt, NoiseProfile(false_positive_rate=0.5))
        n_det = sum(len(r.detections) for cid in streams for r in streams[cid])
        extra = n_det - n_gt
        expected = 0.5 * scenario.n_frames * 2  # Poisson mean over both cameras
        assert abs(extra - expected) < 4.0 * np.sqrt(expected)
        for cid in streams:  # embeddings stay row-aligned with detections
            for r in streams[cid]:
                n_rows = 0 if r.embeddings is None else r.embeddings.shape[0]
                assert n_rows == len(r.detections)

    def test_jitter_moves_but_preserves_size(self):
        scenario, gt = small_scenario()
        streams = render_detections(scenario, gt, NoiseProfile(box_jitter_std=3.0))
        moved = 0
        for cid in scenario.camera_ids:
            for record in streams[cid]:
                truth = gt.boxes[cid].get(record.frame_index, [])
                for det, (_, ref) in zip(record.detections, truth):
                    assert det.width == pytest.approx(ref.width, abs=1e-9)
                    assert det.height == pytest.approx(ref.height, abs=1e-9)
                    if det.x1 != ref.x1 or det.y1 != ref.y1:
                        moved += 1
        assert moved > 0


class TestScenarioDir:
    def test_round_trip(self, tmp_path):
        scenario, gt = small_scenario()
        profile = NoiseProfile(box_jitter_std=1.0, miss_rate=0.05,
                               false_positive_rate=0.1, embedding_noise_std=0.1)
        streams = render_detections(scenario, gt, profile)
        write_scenario_dir(scenario, gt, streams, tmp_path / "scn")
        loaded, back = load_scenario_dir(tmp_path / "scn")

        assert loaded.seed == scenario.seed
        assert (loaded.rows, loaded.cols) == (scenario.rows, scenario.cols)
        assert loaded.fps == scenario.fps
        assert loaded.duration_s == scenario.duration_s
        assert loaded.image_size == scenario.image_size
        assert loaded.embed_dim == scenario.embed_dim
        assert loaded.vehicles == scenario.vehicles
        assert loaded.camera_ids == scenario.camera_ids

        for cid in scenario.camera_ids:
            assert len(back[cid]) == len(streams[cid])
            for a, b in zip(back[cid], streams[cid]):
                assert len(a.detections) == len(b.detections)
                for da, db in zip(a.detections, b.detections):
                    # CSV rows carry 4 decimals; x2/y2 rebuilt from width adds error
                    assert da.x1 == pytest.approx(db.x1, abs=3e-4)
                    assert da.y2 == pytest.approx(db.y2, abs=3e-4)
                    assert da.beta == db.beta
                if b.embeddings is None:
                    assert a.embeddings is None
                else:
                    assert np.array_equal(a.embeddings,
                                          b.embeddings.astype(np.float32))

    def test_written_dirs_are_byte_identical(self, tmp_path):
        profile = NoiseProfile(box_jitter_std=2.0, miss_rate=0.1,
                               false_positive_rate=0.3, embedding_noise_std=0.25)
        names = None
        for sub in ("one", "two"):
            scenario, gt = small_scenario(seed=21)
            streams = render_detections(scenario, gt, profile)
            write_scenario_dir(scenario, gt, streams, tmp_path / sub)
            names = sorted(p.name for p in (tmp_path / sub).iterdir())
        match, mismatch, errors = filecmp.cmpfiles(
            tmp_path / "one", tmp_path / "two", names, shallow=False
        )
        assert mismatch == [] and errors == []
        assert "scenario.json" in match and "emb_c001.bin" in match

    def test_loaded_scenario_writes_the_same_scenario_json(self, tmp_path):
        scenario, gt = small_scenario(n_cams=4, n_vehicles=12, layout="grid")
        assert len({v.vehicle_class for v in scenario.vehicles}) > 1
        write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                           tmp_path / "one")
        loaded, streams = load_scenario_dir(tmp_path / "one")
        write_scenario_dir(loaded, gt, streams, tmp_path / "two")
        written = (tmp_path / "one" / "scenario.json").read_bytes()
        assert (tmp_path / "two" / "scenario.json").read_bytes() == written

    def test_detection_rows_out_of_frame_order_are_refused(self, tmp_path):
        # Reversed detection rows with their embedding rows reversed alike stay
        # row-aligned, but would hand each frame another detection's embedding.
        scenario, gt = small_scenario()
        write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                           tmp_path / "scn")
        from mcvt.reid import read_embeddings, write_embeddings

        det_path = tmp_path / "scn" / "det_c001.csv"
        det_path.write_text("".join(reversed(det_path.read_text().splitlines(keepends=True))))
        emb_path = tmp_path / "scn" / "emb_c001.bin"
        write_embeddings(emb_path, read_embeddings(emb_path)[::-1])
        with pytest.raises(MalformedInput, match=r"det_c001\.csv, line \d+: .* after frame"):
            load_scenario_dir(tmp_path / "scn")

    def test_embedding_count_mismatch_rejected(self, tmp_path):
        scenario, gt = small_scenario()
        streams = render_detections(scenario, gt, NoiseProfile())
        write_scenario_dir(scenario, gt, streams, tmp_path / "scn")
        from mcvt.reid import read_embedding_block, write_embedding_block

        emb_path = tmp_path / "scn" / "emb_c001.bin"
        with open(emb_path, "rb") as fh:
            emb = read_embedding_block(fh)
        padded = np.vstack([emb, emb[-1:]])  # one orphan row at the end
        with open(emb_path, "wb") as fh:
            write_embedding_block(fh, padded)
        with pytest.raises(MalformedInput, match="emb_c001.bin: 204 embeddings for 203"):
            load_scenario_dir(tmp_path / "scn")

    def test_embedding_file_short_of_rows_names_the_file(self, tmp_path):
        scenario, gt = small_scenario()
        write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                           tmp_path / "scn")
        from mcvt.reid import read_embeddings, write_embeddings

        emb_path = tmp_path / "scn" / "emb_c003.bin"
        write_embeddings(emb_path, read_embeddings(emb_path)[:-1])
        with pytest.raises(MalformedInput, match="emb_c003.bin: .* embeddings for"):
            load_scenario_dir(tmp_path / "scn")

    @pytest.mark.parametrize("dim", [32, 0])
    def test_embedding_dimension_mismatch_names_the_file(self, tmp_path, dim):
        scenario, gt = small_scenario()
        write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                           tmp_path / "scn")
        from mcvt.reid import read_embeddings, write_embeddings

        emb_path = tmp_path / "scn" / "emb_c002.bin"
        write_embeddings(emb_path, read_embeddings(emb_path)[:, :dim])
        with pytest.raises(
            MalformedInput,
            match=f"emb_c002.bin: embedding dimension {dim}, expected {scenario.embed_dim}",
        ):
            load_scenario_dir(tmp_path / "scn")

    def test_truncated_embedding_file_names_the_file(self, tmp_path):
        scenario, gt = small_scenario()
        write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                           tmp_path / "scn")
        emb_path = tmp_path / "scn" / "emb_c002.bin"
        emb_path.write_bytes(emb_path.read_bytes()[:-10])
        with pytest.raises(MalformedInput, match="emb_c002.bin: truncated embedding payload"):
            load_scenario_dir(tmp_path / "scn")

    @pytest.mark.parametrize("drop", [("sim",), ("sim", "fps"), ("topology",)])
    def test_scenario_json_missing_field_names_the_file(self, tmp_path, drop):
        scenario, gt = small_scenario()
        write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                           tmp_path / "scn")
        meta = tmp_path / "scn" / "scenario.json"
        data = json.loads(meta.read_text())
        holder = data
        for key in drop[:-1]:
            holder = holder[key]
        del holder[drop[-1]]
        meta.write_text(json.dumps(data))
        with pytest.raises(MalformedInput, match=f"scenario.json: missing field '{drop[-1]}'"):
            load_scenario_dir(tmp_path / "scn")

    @pytest.mark.parametrize("text", [
        "{oops", "[]", '{"topology": []}', '{"topology": "x"}',
        '{"topology": {"cameras": [{"id": "c001"}]}}',
        '{"topology": {"adjacent": [["c001", "c009"]]}}',
    ])
    def test_scenario_json_that_is_no_scenario_names_the_file(self, tmp_path, text):
        scenario, gt = small_scenario()
        write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                           tmp_path / "scn")
        meta = tmp_path / "scn" / "scenario.json"
        if text.startswith('{"topology"'):  # the written scenario with its topology replaced
            text = json.dumps({**json.loads(meta.read_text()), **json.loads(text)})
        meta.write_text(text)
        with pytest.raises(MalformedInput, match="scenario.json: "):
            load_scenario_dir(tmp_path / "scn")

    def test_ground_truth_round_trip(self, tmp_path):
        scenario, gt = small_scenario()
        streams = render_detections(scenario, gt, NoiseProfile())
        write_scenario_dir(scenario, gt, streams, tmp_path / "scn")
        loaded = load_ground_truth(tmp_path / "scn", scenario)
        reference = gt.trajectories()
        assert set(loaded.ids.tolist()) == set(reference)
        for gid in reference:
            rows = np.flatnonzero(loaded.ids == gid)  # in (camera, frame) order
            assert len(rows) == len(reference[gid])
            for row, (cam_b, f_b, det_b) in zip(rows, reference[gid]):
                assert (loaded.cameras[loaded.codes[row]], loaded.frames[row]) == (cam_b, f_b)
                assert loaded.boxes[row, 0] == pytest.approx(det_b.x1, abs=3e-4)
                assert loaded.boxes[row, 3] == pytest.approx(det_b.y2, abs=3e-4)
                # vehicle class is not kept: the MOT reader only takes boxes
