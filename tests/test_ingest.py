import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcvt.cli import _read_labels
from mcvt.errors import MalformedInput
from mcvt.ingest import (
    Detection,
    FrameRecord,
    VehicleClass,
    filter_confidence_indices,
    iou,
    read_detection_csv,
    write_detection_csv,
)
from mcvt.metrics import Trajectories, load_global_trajectories, load_mot_trajectories


def box(x1, y1, x2, y2, alpha=1.0, beta=VehicleClass.CAR):
    return Detection(x1, y1, x2, y2, alpha, beta)


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
    dets = [box(0, 0, 1, 1, a) for a in (0.9, 0.1, 0.5, 0.3)]
    kept = filter_confidence_indices(dets, 0.3)
    assert kept == [0, 2, 3]
    assert [dets[i].alpha for i in kept] == [0.9, 0.5, 0.3]


def test_frame_record_embedding_alignment():
    dets = [box(0, 0, 1, 1), box(2, 2, 3, 3)]
    emb = np.eye(2, 4)
    fr = FrameRecord("c1", 0, dets, emb)
    sub = fr.select([1])
    assert sub.detections == [dets[1]]
    assert np.array_equal(sub.embeddings, emb[[1]])
    with pytest.raises(ValueError):
        FrameRecord("c1", 0, dets, np.eye(3, 4))
    with pytest.raises(ValueError):
        FrameRecord("c1", -1, dets)


def test_detection_csv_roundtrip(tmp_path):
    frames = {
        0: [box(1.5, 2.5, 11.5, 22.5, 0.875, VehicleClass.BUS)],
        3: [box(0, 0, 5, 5, 1.0), box(7, 7, 9, 9, 0.25, VehicleClass.TRUCK)],
    }
    path = tmp_path / "det.csv"
    write_detection_csv(path, frames)
    loaded = read_detection_csv(path)
    assert set(loaded) == {0, 3}
    d = loaded[0][0]
    assert (d.x1, d.y1, d.x2, d.y2) == (1.5, 2.5, 11.5, 22.5)
    assert d.alpha == 0.875
    assert d.beta is VehicleClass.BUS
    assert [d.beta for d in loaded[3]] == [VehicleClass.CAR, VehicleClass.TRUCK]
    # Row order within a frame is file order.
    assert loaded[3][0].x1 == 0.0 and loaded[3][1].x1 == 7.0


def test_detection_csv_skips_comments_and_blank(tmp_path):
    path = tmp_path / "det.csv"
    path.write_text("# header\n\n0,-1,1,2,3,4,0.5,1\n")
    loaded = read_detection_csv(path)
    assert list(loaded) == [0]
    assert loaded[0][0].alpha == 0.5


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
    if isinstance(loaded, (list, Trajectories)):
        return len(loaded)
    return sum(len(entries) for entries in loaded.values())


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
