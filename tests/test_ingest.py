import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcvt import ingest
from mcvt.cli import _read_labels
from mcvt.errors import MalformedInput
from mcvt.ingest import (
    Detection,
    DetectionColumns,
    FrameRecord,
    VehicleClass,
    filter_confidence_indices,
    iou,
    read_detection_csv,
    write_detection_csv,
)
from mcvt.metrics import Trajectories, load_global_trajectories, load_mot_trajectories
from mcvt.simkit import (
    NoiseProfile,
    gen_scenario,
    load_scenario_dir,
    render_detections,
    write_scenario_dir,
)


def box(x1, y1, x2, y2, alpha=1.0, beta=VehicleClass.CAR):
    return Detection(x1, y1, x2, y2, alpha, beta)


def columns(frames, dets) -> DetectionColumns:
    """The columns of detections dets[i] at frames[i]."""
    return DetectionColumns(
        np.array(frames, dtype=np.int64),
        np.array([(d.x1, d.y1, d.x2, d.y2) for d in dets], dtype=float).reshape(-1, 4),
        np.array([d.alpha for d in dets], dtype=float),
        np.array([int(d.beta) for d in dets], dtype=np.int64),
    )


def record(camera, frame_index, dets, emb=None) -> FrameRecord:
    cols = columns([frame_index] * len(dets), dets)
    return FrameRecord(camera, frame_index, cols.boxes, cols.alpha, cols.beta, emb)


def assert_same_columns(a: DetectionColumns, b: DetectionColumns):
    assert a.frames.dtype == b.frames.dtype == np.int64
    assert a.boxes.dtype == a.alpha.dtype == np.float64 and a.beta.dtype == np.int64
    for name in ("frames", "boxes", "alpha", "beta"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def test_detection_validation():
    d = box(0, 0, 10, 20, 0.5)
    assert d.width == 10 and d.height == 20 and d.area == 200
    with pytest.raises(ValueError):
        box(10, 0, 10, 20)  # zero width
    with pytest.raises(ValueError):
        box(0, 5, 10, 5)  # zero height
    with pytest.raises(ValueError):
        box(0, 0, 1, 1, alpha=1.5)
    with pytest.raises(ValueError):
        box(0, 0, float("inf"), 1)


def test_box_whose_area_is_not_finite_is_rejected():
    with pytest.raises(ValueError, match="no finite area"):
        box(0, 0, 1e308, 1e308)  # each side finite, the area overflows
    with pytest.raises(ValueError, match="no finite area"):
        box(-1e308, 0, 1e308, 1)  # the width overflows
    assert box(0, 0, 2.0**500, 2.0**500).area == 2.0**1000


def test_vehicle_class_fallback():
    assert VehicleClass.from_value(2) is VehicleClass.BUS
    assert VehicleClass.from_value("3") is VehicleClass.TRUCK
    assert VehicleClass.from_value(99) is VehicleClass.OTHER
    assert VehicleClass.from_value(0) is VehicleClass.OTHER


def test_iou_cases():
    a = box(0, 0, 10, 10)
    assert iou(a, a) == 1.0
    assert iou(a, box(20, 20, 30, 30)) == 0.0
    assert iou(a, box(10, 0, 20, 10)) == 0.0  # edge contact only
    # 5x10 overlap over union 100 + 100 - 50.
    assert iou(a, box(5, 0, 15, 10)) == pytest.approx(50.0 / 150.0)


def test_filter_confidence_keeps_order():
    alpha = np.array([0.9, 0.1, 0.5, 0.3])
    kept = filter_confidence_indices(alpha, 0.3)
    assert kept == [0, 2, 3]
    assert alpha[kept].tolist() == [0.9, 0.5, 0.3]


def test_frame_record_embedding_alignment():
    dets = [box(0, 0, 1, 1), box(2, 2, 3, 3)]
    emb = np.eye(2, 4)
    fr = record("c1", 0, dets, emb)
    sub = fr.select([1])
    assert sub.detections == [dets[1]]
    assert np.array_equal(sub.embeddings, emb[[1]])
    with pytest.raises(ValueError):
        record("c1", 0, dets, np.eye(3, 4))
    with pytest.raises(ValueError):
        record("c1", -1, dets)
    with pytest.raises(ValueError):
        FrameRecord("c1", 0, fr.boxes, fr.alpha[:1], fr.beta)


def test_detection_csv_roundtrip(tmp_path):
    dets = [box(1.5, 2.5, 11.5, 22.5, 0.875, VehicleClass.BUS),
            box(0, 0, 5, 5, 1.0), box(7, 7, 9, 9, 0.25, VehicleClass.TRUCK)]
    path = tmp_path / "det.csv"
    write_detection_csv(path, columns([0, 3, 3], dets))
    loaded = read_detection_csv(path)
    assert loaded.frames.tolist() == [0, 3, 3]
    assert loaded.boxes[0].tolist() == [1.5, 2.5, 11.5, 22.5]
    assert loaded.alpha[0] == 0.875
    assert VehicleClass(loaded.beta[0]) is VehicleClass.BUS
    assert loaded.beta[1:].tolist() == [VehicleClass.CAR, VehicleClass.TRUCK]
    # Row order within a frame is file order.
    assert loaded.boxes[1, 0] == 0.0 and loaded.boxes[2, 0] == 7.0


def test_detection_csv_skips_comments_and_blank(tmp_path):
    path = tmp_path / "det.csv"
    path.write_text("# header\n\n0,-1,1,2,3,4,0.5,1\n")
    loaded = read_detection_csv(path)
    assert loaded.frames.tolist() == [0]
    assert loaded.alpha[0] == 0.5


@pytest.mark.parametrize("line", [
    "5,1,1.0",  # too few fields
    "5,-1,1,2,three,4,0.5,1",  # a value that is not a number
    "x,-1,1,2,3,4,0.5,1",  # a frame index that is not an integer
    "5,-1,1,2,0,4,0.5,1",  # a degenerate box
    "-1,-1,1,2,3,4,0.5,1",  # a lower frame than the row before: embeddings would misalign
])
def test_detection_csv_malformed_row_names_file_and_line(tmp_path, line):
    path = tmp_path / "det.csv"
    path.write_text("0,-1,1,2,3,4,0.5,1\n# note\n" + line + "\n")
    with pytest.raises(MalformedInput, match=r"det\.csv, line 3: bad detection row"):
        read_detection_csv(path)


@pytest.mark.parametrize("data", [
    b"0,-1,1,2,3,4,0.5,1\n\xff\xfe\x00\n",
    b'0,"' + b"9" * 200_000 + b'"\n',  # a field beyond the csv module's limit
], ids=["not-utf8", "oversized-field"])
def test_detection_csv_that_is_not_csv_text(tmp_path, data):
    path = tmp_path / "det.csv"
    path.write_bytes(data)
    with pytest.raises(MalformedInput, match=r"det\.csv, "):
        read_detection_csv(path)


# Fields a damaged or hand-written CSV can hold: small ids that repeat, camera
# names, non-numbers, non-finite and overflowing values, zero-size boxes.
_CSV_FIELDS = st.sampled_from(
    ["0", "1", "2", "-1", "3.5", "0", "10", "c001", "x", "", "nan", "inf", "-inf", "1e400"]
)
_CSV_LINES = st.one_of(
    st.lists(_CSV_FIELDS, min_size=1, max_size=9).map(",".join),
    st.sampled_from(["", "# note", "#,1,2"]),
)


def _count_rows(loaded) -> int:
    assert isinstance(loaded, (list, Trajectories, DetectionColumns))
    return len(loaded)


@pytest.mark.parametrize("load", [
    read_detection_csv, load_mot_trajectories, load_global_trajectories, _read_labels,
])
@given(lines=st.lists(_CSV_LINES, max_size=12))
def test_csv_loaders_on_generated_rows(tmp_path_factory, load, lines):
    path = tmp_path_factory.mktemp("csv") / "gen.csv"
    path.write_text("".join(line + "\n" for line in lines))
    try:
        loaded = load(path)
    except MalformedInput as exc:
        assert re.match(r"\S*gen\.csv, line \d+: bad ", str(exc))
    else:
        # Exactly the blank and comment lines are skipped.
        assert _count_rows(loaded) == sum(1 for line in lines if line and line[0] != "#")


# ---------------------------------------------------------------------------
# The column pass of the detection reader against the per-row parse

_NUMBERS = st.floats(0.0, 2000.0).map(repr) | st.integers(0, 2000).map(str)
_SIDES = st.floats(0.5, 500.0).map(repr) | st.integers(1, 500).map(str)
# Class text: every valid value, and text VehicleClass.from_value maps to OTHER.
_CLASSES = st.sampled_from(
    ["1", "2", "3", "4", "5", "6", "0", "7", "-3", "2.0", "", " 4", "x", "9" * 40]
)


@st.composite
def detection_files(draw):
    """Valid detection CSV text: frames in order, several rows per frame, rows
    of 6, 7 and 8 or more fields, blank and ``#`` rows in between."""
    lines, frame = [], draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["row", "row", "row", "blank", "comment"]))
        if kind == "blank":
            lines.append("")
            continue
        if kind == "comment":
            lines.append("# " + draw(st.sampled_from(["note", "1,2,3", ""])))
            continue
        frame += draw(st.sampled_from([0, 0, 1, 2]))
        fields = [str(frame), "-1", draw(_NUMBERS), draw(_NUMBERS), draw(_SIDES), draw(_SIDES)]
        n_optional = draw(st.integers(0, 4))
        if n_optional >= 1:
            fields.append(repr(draw(st.floats(0.0, 1.0))))
        if n_optional >= 2:
            fields.append(draw(_CLASSES))
        fields += ["extra"] * max(0, n_optional - 2)
        lines.append(",".join(fields))
    return "".join(line + "\n" for line in lines)


@given(text=detection_files())
def test_column_pass_equals_the_per_row_parse(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("det") / "det.csv"
    path.write_text(text)
    columns = ingest._read_detection_columns(path)
    assert_same_columns(columns, ingest._read_detection_rows(path))
    assert_same_columns(read_detection_csv(path), columns)


def test_rows_of_six_and_seven_fields_default_confidence_and_class(tmp_path):
    path = tmp_path / "det.csv"
    path.write_text("0,-1,1,2,3,4\n0,-1,5,6,7,8,0.5\n1,-1,1,2,3,4,0.25,2.0\n")
    loaded = ingest._read_detection_columns(path)
    assert loaded.alpha.tolist() == [1.0, 0.5, 0.25]
    assert loaded.beta.tolist() == [VehicleClass.CAR, VehicleClass.CAR, VehicleClass.OTHER]


def test_a_lower_frame_goes_through_the_per_row_parse(tmp_path):
    path = tmp_path / "det.csv"
    path.write_text("0,-1,1,2,3,4,0.5,1\n5,-1,1,2,3,4,0.5,1\n# c\n3,-1,1,2,3,4,0.5,1\n")
    with pytest.raises(ValueError):
        ingest._read_detection_columns(path)
    with pytest.raises(MalformedInput) as exc:
        read_detection_csv(path)
    assert str(exc.value) == (f"{path}, line 4: bad detection row '3,-1,1,2,3,4,0.5,1' "
                              "(frame 3 after frame 5)")


def test_a_frame_beyond_int64_goes_through_the_per_row_parse(tmp_path):
    path = tmp_path / "det.csv"
    path.write_text("0,-1,1,2,3,4,0.5,1\n99999999999999999999,-1,1,2,3,4,0.5,1\n")
    with pytest.raises(OverflowError):
        ingest._read_detection_columns(path)
    assert read_detection_csv(path).frames.tolist() == [0, 99999999999999999999]

    scenario, gt = gen_scenario(0, 2, 4, 20.0)
    write_scenario_dir(scenario, gt, render_detections(scenario, gt, NoiseProfile()),
                       tmp_path / "scn")
    det = tmp_path / "scn" / "det_c001.csv"
    *head, last = det.read_text().splitlines(keepends=True)
    det.write_text("".join(head) + "99999999999999999999" + last[last.index(","):])
    with pytest.raises(MalformedInput) as exc:
        load_scenario_dir(tmp_path / "scn")
    assert str(exc.value) == (f"{det}: frame 99999999999999999999 outside the clip's [0, 200)")


def test_scenario_detections_round_trip_through_the_file(tmp_path):
    scenario, gt = gen_scenario(4, 3, 8, 30.0)
    profile = NoiseProfile(box_jitter_std=2.0, miss_rate=0.1, false_positive_rate=0.3)
    streams = render_detections(scenario, gt, profile)
    for cid, records in streams.items():
        written = DetectionColumns(
            np.repeat([r.frame_index for r in records], [len(r.alpha) for r in records]),
            np.concatenate([r.boxes for r in records]),
            np.concatenate([r.alpha for r in records]),
            np.concatenate([r.beta for r in records]),
        )
        path = tmp_path / f"det_{cid}.csv"
        write_detection_csv(path, written)
        loaded = read_detection_csv(path)
        again = tmp_path / f"again_{cid}.csv"
        write_detection_csv(again, loaded)
        # Equal columns, up to the four decimals of the text; the text itself is a fixed point.
        assert np.array_equal(loaded.frames, written.frames)
        assert np.array_equal(loaded.beta, written.beta)
        assert np.allclose(loaded.boxes, written.boxes, rtol=0, atol=3e-4)
        assert np.allclose(loaded.alpha, written.alpha, rtol=0, atol=5e-5)
        assert again.read_bytes() == path.read_bytes()
        assert_same_columns(read_detection_csv(again), loaded)
