import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcvt.errors import ConfigError, DegenerateConfiguration, HorizonPoint, UnknownCamera
from mcvt.geo import (
    CameraInfo,
    GeoPoint,
    Homography,
    PixelPoint,
    are_adjacent,
    are_overlapping,
    estimate_homography,
    geo_to_pixel,
    haversine,
    haversine_distance,
    make_topology,
    pixel_to_geo,
    topology_from_dict,
    topology_to_dict,
)

# One meridian degree on the reference sphere: pi * 6371000 / 180.
MERIDIAN_DEGREE_M = 111194.92664455873


def test_geopoint_validation():
    GeoPoint(lat=90.0, lon=-180.0)
    with pytest.raises(ValueError):
        GeoPoint(lat=90.1, lon=0.0)
    with pytest.raises(ValueError):
        GeoPoint(lat=0.0, lon=180.0)
    with pytest.raises(ValueError):
        GeoPoint(lat=float("nan"), lon=0.0)


def test_haversine_self_distance_is_exactly_zero():
    p = GeoPoint(lat=37.1234, lon=-122.4321)
    assert haversine_distance(p, p) == 0.0


def test_haversine_meridian_degree():
    d = haversine_distance(GeoPoint(10.0, 20.0), GeoPoint(11.0, 20.0))
    assert abs(d - MERIDIAN_DEGREE_M) < 0.1


def test_haversine_equator_degree_and_symmetry():
    a, b = GeoPoint(0.0, 5.0), GeoPoint(0.0, 6.0)
    assert abs(haversine_distance(a, b) - MERIDIAN_DEGREE_M) < 0.1
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
        q = GeoPoint(float(rng.uniform(-80, 80)), float(rng.uniform(-179, 179)))
        assert haversine_distance(p, q) == pytest.approx(haversine_distance(q, p), abs=1e-9)
        assert haversine_distance(p, q) >= 0.0


def test_haversine_antipodal_capped():
    d = haversine_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, -180.0))
    assert d == pytest.approx(math.pi * 6_371_000.0, rel=1e-12)


points = st.builds(
    GeoPoint,
    lat=st.floats(-90.0, 90.0),
    lon=st.floats(-180.0, 180.0, exclude_max=True),
)


@st.composite
def point_pairs(draw):
    """Any two points, one point twice, or a point and a near neighbour of its antipode."""
    a = draw(points)
    kind = draw(st.sampled_from(("any", "equal", "antipodal")))
    if kind == "any":
        return a, draw(points)
    if kind == "equal":
        return a, GeoPoint(a.lat, a.lon)
    nudge = st.sampled_from((0.0, 1e-9, -1e-9, 1e-6))
    lat = min(90.0, max(-90.0, -a.lat + draw(nudge)))
    lon = (a.lon + draw(nudge)) % 360.0 - 180.0
    return a, GeoPoint(lat, lon if lon < 180.0 else -180.0)


@given(st.lists(point_pairs(), min_size=1, max_size=8))
def test_one_pair_haversine_is_the_array_form(pairs):
    lat1, lon1, lat2, lon2 = (
        np.array([getattr(p, f) for p in ends]) for ends in zip(*pairs) for f in ("lat", "lon")
    )
    batch = haversine(lat1, lon1, lat2, lon2)
    for (a, b), d in zip(pairs, batch.tolist()):
        assert haversine_distance(a, b).hex() == d.hex()
        assert haversine_distance(b, a).hex() == d.hex()
        assert 0.0 <= d <= math.pi * 6_371_000.0
        if a == b:
            assert d.hex() == (0.0).hex()


def test_homography_identity_roundtrip():
    h = Homography(np.eye(3))
    p = PixelPoint(3.5, -2.0)
    g = pixel_to_geo(h, p)
    assert (g.lon, g.lat) == (3.5, -2.0)
    back = geo_to_pixel(h, g)
    assert (back.x, back.y) == pytest.approx((p.x, p.y), abs=1e-12)


def test_homography_normalizes_last_entry():
    h = Homography(2.0 * np.eye(3))
    assert h.m[2, 2] == 1.0
    assert h.m[0, 0] == 1.0


def test_homography_rejects_singular():
    m = np.eye(3)
    m[2] = m[0]
    with pytest.raises(ValueError):
        Homography(m)


def test_homography_accepts_tiny_affine_scales():
    # Pixel->degree maps have ~1e-7 scale factors next to a unit homogeneous
    # row; they must not be confused with rank deficiency.
    Homography([[4.2e-7, 0.0, 10.0], [0.0, 1.5e-7, 48.0], [0.0, 0.0, 1.0]])


def test_projection_roundtrip_random_homographies():
    rng = np.random.default_rng(7)
    done = 0
    while done < 30:
        m = np.eye(3) + 0.3 * rng.normal(size=(3, 3))
        try:
            h = Homography(m)
        except ValueError:
            continue
        done += 1
        for _ in range(10):
            p = PixelPoint(float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100)))
            try:
                g = pixel_to_geo(h, p)
            except (HorizonPoint, ValueError):
                continue  # point projects outside the valid lat/lon chart
            back = geo_to_pixel(h, g)
            scale = max(1.0, abs(p.x), abs(p.y))
            assert abs(back.x - p.x) / scale < 1e-6
            assert abs(back.y - p.y) / scale < 1e-6


def test_horizon_point_raised():
    # Row 3 = (0, 1, 0): every pixel with y == 0 has zero homogeneous depth.
    h = Homography([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    with pytest.raises(HorizonPoint):
        pixel_to_geo(h, PixelPoint(5.0, 0.0))


def test_estimate_homography_recovers_affine():
    truth = np.array([[2e-5, 1e-6, 10.0], [-1e-6, 3e-5, 40.0], [0.0, 0.0, 1.0]])
    h_true = Homography(truth)
    rng = np.random.default_rng(3)
    pairs = []
    for _ in range(8):
        p = PixelPoint(float(rng.uniform(0, 1280)), float(rng.uniform(0, 720)))
        pairs.append((p, pixel_to_geo(h_true, p)))
    h_est = estimate_homography(pairs)
    for _ in range(20):
        p = PixelPoint(float(rng.uniform(0, 1280)), float(rng.uniform(0, 720)))
        g1, g2 = pixel_to_geo(h_true, p), pixel_to_geo(h_est, p)
        assert g1.lat == pytest.approx(g2.lat, abs=1e-9)
        assert g1.lon == pytest.approx(g2.lon, abs=1e-9)


def test_estimate_homography_recovers_projective():
    truth = np.array([[1.2, 0.1, 5.0], [-0.2, 0.9, 1.0], [1e-3, -2e-3, 1.0]])
    h_true = Homography(truth)
    rng = np.random.default_rng(5)
    pairs = []
    for _ in range(12):
        p = PixelPoint(float(rng.uniform(0, 100)), float(rng.uniform(0, 80)))
        pairs.append((p, pixel_to_geo(h_true, p)))
    h_est = estimate_homography(pairs)
    assert np.allclose(h_est.m, h_true.m, atol=1e-8)


def test_estimate_homography_degenerate_inputs():
    g = GeoPoint(0.0, 0.0)
    with pytest.raises(DegenerateConfiguration):
        estimate_homography([(PixelPoint(0, 0), g)] * 3)
    # Four collinear pixels: rank-deficient system.
    collinear = [
        (PixelPoint(float(i), 2.0 * i), GeoPoint(lat=float(i), lon=float(i)))
        for i in range(4)
    ]
    with pytest.raises(DegenerateConfiguration):
        estimate_homography(collinear)


def _cam(cid):
    return CameraInfo(id=cid, homography=Homography(np.eye(3)))


def test_topology_relations():
    topo = make_topology(
        [_cam("a"), _cam("b"), _cam("c")],
        adjacent=[("a", "b"), ("b", "c")],
        overlap=[("a", "b")],
    )
    assert are_adjacent(topo, "a", "b")
    assert are_adjacent(topo, "b", "a")
    assert not are_adjacent(topo, "a", "c")
    assert not are_adjacent(topo, "a", "a")
    assert are_overlapping(topo, "a", "b")
    assert not are_overlapping(topo, "b", "c")
    with pytest.raises(UnknownCamera):
        are_adjacent(topo, "a", "zzz")
    with pytest.raises(UnknownCamera):
        are_adjacent(topo, "zzz", "a")


def test_topology_overlap_must_be_subset_of_adjacency():
    with pytest.raises(ValueError):
        make_topology([_cam("a"), _cam("b")], adjacent=[], overlap=[("a", "b")])


def test_topology_rejects_duplicates_and_unknown_pairs():
    with pytest.raises(ValueError):
        make_topology([_cam("a"), _cam("a")])
    with pytest.raises(ValueError):
        make_topology([_cam("a")], adjacent=[("a", "b")])


def test_topology_json_roundtrip():
    topo = make_topology(
        [_cam("c001"), _cam("c002")],
        adjacent=[("c001", "c002")],
        overlap=[("c001", "c002")],
    )
    written = topology_to_dict(topo)
    assert [sorted(cam) for cam in written["cameras"]] == [["homography", "id"]] * 2
    loaded = topology_from_dict(json.loads(json.dumps(written)))
    assert set(loaded.cameras) == {"c001", "c002"}
    assert are_adjacent(loaded, "c001", "c002")
    assert are_overlapping(loaded, "c001", "c002")
    assert np.array_equal(loaded.cameras["c002"].homography.m, np.eye(3))


def test_load_topology_from_point_pairs():
    spec = {
        "cameras": [
            {
                "id": "cam1",
                "lat": 0.0,
                "lon": 0.0,
                "fps": 12.5,
                "homography_pairs": [
                    {"px": 0, "py": 0, "lon": 0.0, "lat": 0.0},
                    {"px": 100, "py": 0, "lon": 1e-3, "lat": 0.0},
                    {"px": 0, "py": 100, "lon": 0.0, "lat": 1e-3},
                    {"px": 100, "py": 100, "lon": 1e-3, "lat": 1e-3},
                ],
            }
        ]
    }
    cam = topology_from_dict(spec).cameras["cam1"]
    g = pixel_to_geo(cam.homography, PixelPoint(50, 50))
    assert g.lon == pytest.approx(5e-4, abs=1e-9)
    assert g.lat == pytest.approx(5e-4, abs=1e-9)


def test_load_topology_errors():
    with pytest.raises(ConfigError):
        topology_from_dict({"cameras": [{"id": "x"}]})
