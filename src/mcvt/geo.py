"""Geodesic distance, pixel<->world projection and the camera topology graph.

The homography of each camera maps pixel coordinates directly onto the
(lon, lat) plane in degrees.  Camera scenes span well under a kilometre, where
treating lat/lon as a planar chart is accurate to far below the tolerances of
the spatio-temporal association rules, so no full extrinsic pose is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigError, DegenerateConfiguration, HorizonPoint, UnknownCamera, check_settings,
)

EARTH_RADIUS_M = 6_371_000.0


@dataclass(frozen=True)
class GeoPoint:
    """WGS-style latitude/longitude in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError("GeoPoint coordinates must be finite")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} outside [-90, 90]")
        if not -180.0 <= self.lon < 180.0:
            raise ValueError(f"longitude {self.lon} outside [-180, 180)")


@dataclass(frozen=True)
class PixelPoint:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("PixelPoint coordinates must be finite")


class Homography:
    """Invertible 3x3 projective map from pixel space to the (lon, lat) plane.

    Stored normalized so that m[2][2] == 1 whenever that entry is nonzero.
    """

    def __init__(self, m):
        m = np.asarray(m, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(m)):
            raise ValueError("homography entries must be finite")
        # Singularity test on the singular-value ratio: legitimate
        # pixel->degree maps mix unit and ~1e-7 row scales, so neither a raw
        # nor a norm-scaled determinant cutoff distinguishes them from rank
        # deficiency.
        svals = np.linalg.svd(m, compute_uv=False)
        if svals[0] == 0.0 or svals[-1] <= 1e-12 * svals[0]:
            raise ValueError("homography is singular or nearly singular")
        if m[2, 2] != 0.0:
            m = m / m[2, 2]
        self.m = m
        self._inv = np.linalg.inv(m)

    def __repr__(self):
        return f"Homography({self.m.tolist()})"


def haversine(lat1, lon1, lat2, lon2) -> np.ndarray:
    """Element-wise great-circle distance in metres between points in degrees.

    The sphere has radius 6,371,000 m.  Equal points are exactly 0.0 apart,
    and swapping the two points gives the same bits, because the latitude and
    longitude differences only change sign and the sine is odd.
    """
    phi1, phi2 = np.radians(lat1), np.radians(lat2)
    dphi = phi2 - phi1
    dlam = np.radians(lon2 - lon1)
    s = np.square(np.sin(dphi / 2.0)) + np.cos(phi1) * np.cos(phi2) * np.square(np.sin(dlam / 2.0))
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """`haversine` for one pair of points.

    The pair goes through as 1-element arrays, so it takes the same numpy
    path as a long array and gives the same bits.
    """
    lat1, lon1, lat2, lon2 = np.array([[a.lat], [a.lon], [b.lat], [b.lon]], dtype=float)
    return float(haversine(lat1, lon1, lat2, lon2)[0])


def _normalization(points: np.ndarray) -> np.ndarray:
    """Hartley conditioning transform: centroid to origin, mean norm sqrt(2)."""
    centroid = points.mean(axis=0)
    mean_dist = np.mean(np.linalg.norm(points - centroid, axis=1))
    scale = math.sqrt(2.0) / mean_dist if mean_dist > 0 else 1.0
    return np.array(
        [
            [scale, 0.0, -scale * centroid[0]],
            [0.0, scale, -scale * centroid[1]],
            [0.0, 0.0, 1.0],
        ]
    )


def estimate_homography(pairs: list[tuple[PixelPoint, GeoPoint]]) -> Homography:
    """Estimate the pixel->geo homography by normalized DLT.

    ``pairs`` are (pixel, geo) correspondences; at least four are required and
    no minimal subset may be collinear.  Raises DegenerateConfiguration when
    the DLT system is rank deficient.
    """
    if len(pairs) < 4:
        raise DegenerateConfiguration(f"need >= 4 correspondences, got {len(pairs)}")
    src = np.array([[p.x, p.y] for p, _ in pairs], dtype=float)
    dst = np.array([[g.lon, g.lat] for _, g in pairs], dtype=float)

    t_src = _normalization(src)
    t_dst = _normalization(dst)
    src_h = np.column_stack([src, np.ones(len(src))]) @ t_src.T
    dst_h = np.column_stack([dst, np.ones(len(dst))]) @ t_dst.T

    rows = []
    for (x, y, _), (u, v, _) in zip(src_h, dst_h):
        rows.append([-x, -y, -1.0, 0.0, 0.0, 0.0, u * x, u * y, u])
        rows.append([0.0, 0.0, 0.0, -x, -y, -1.0, v * x, v * y, v])
    a = np.asarray(rows)

    _, sing, vt = np.linalg.svd(a)
    # Rank < 8 means a family of solutions: collinear or duplicated points.
    if sing[7] <= 1e-9 * sing[0]:
        raise DegenerateConfiguration("DLT system is rank deficient")
    h_norm = vt[-1].reshape(3, 3)
    h = np.linalg.inv(t_dst) @ h_norm @ t_src
    try:
        return Homography(h)
    except ValueError as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def _dehomogenize(m: np.ndarray, a: float, b: float, what: str) -> tuple[float, float]:
    """m @ (a, b, 1) dehomogenized; HorizonPoint when its third entry is ~0."""
    vec = m @ np.array([a, b, 1.0])
    if abs(vec[2]) < 1e-12:
        raise HorizonPoint(f"{what} ({a}, {b}) maps to the horizon")
    return vec[0] / vec[2], vec[1] / vec[2]


def pixel_to_geo(h: Homography, p: PixelPoint) -> GeoPoint:
    """Apply the homography to a pixel point, dehomogenize to (lon, lat)."""
    lon, lat = _dehomogenize(h.m, p.x, p.y, "pixel")
    return GeoPoint(lat=lat, lon=lon)


def geo_to_pixel(h: Homography, g: GeoPoint) -> PixelPoint:
    """Inverse projection of pixel_to_geo, using the stored inverse matrix."""
    return PixelPoint(*_dehomogenize(h._inv, g.lon, g.lat, "geo (lon, lat)"))


@dataclass(frozen=True)
class CameraInfo:
    id: str
    homography: Homography


@dataclass(frozen=True)
class CameraTopology:
    """Immutable camera graph: per-camera info plus adjacency/overlap relations.

    Both relations are symmetric sets of unordered id pairs; ``overlap`` (pairs
    whose fields of view intersect) must be a subset of ``adjacency``.
    """

    cameras: dict[str, CameraInfo]
    adjacency: frozenset[frozenset[str]] = field(default_factory=frozenset)
    overlap: frozenset[frozenset[str]] = field(default_factory=frozenset)

    def __post_init__(self):
        for rel, name in ((self.adjacency, "adjacent"), (self.overlap, "overlap")):
            for pair in rel:
                if len(pair) != 2:
                    raise ValueError(f"{name} pair must contain two distinct ids: {set(pair)}")
                for cid in pair:
                    if cid not in self.cameras:
                        raise ValueError(f"{name} pair references unknown camera {cid!r}")
        if not self.overlap <= self.adjacency:
            raise ValueError("overlap relation must be a subset of adjacency")


def make_topology(cameras, adjacent=(), overlap=()) -> CameraTopology:
    """Build a topology from CameraInfo records and iterable id pairs."""
    cameras = list(cameras)
    cams = {c.id: c for c in cameras}
    if len(cams) != len(cameras):
        raise ValueError("duplicate camera id")
    adj = frozenset(frozenset(p) for p in adjacent)
    ovl = frozenset(frozenset(p) for p in overlap)
    return CameraTopology(cameras=cams, adjacency=adj, overlap=ovl)


def _related(topo: CameraTopology, relation, c1: str, c2: str) -> bool:
    for cid in (c1, c2):
        if cid not in topo.cameras:
            raise UnknownCamera(cid)
    return c1 != c2 and frozenset((c1, c2)) in relation


def are_adjacent(topo: CameraTopology, c1: str, c2: str) -> bool:
    return _related(topo, topo.adjacency, c1, c2)


def are_overlapping(topo: CameraTopology, c1: str, c2: str) -> bool:
    return _related(topo, topo.overlap, c1, c2)


def topology_from_dict(spec: dict) -> CameraTopology:
    """Build a topology from its parsed JSON form (the ``topology`` of scenario.json).

    Expected shape::

        {"cameras": [{"id": "c001",
                      "homography_pairs": [{"px": .., "py": .., "lat": .., "lon": ..}, ...]}],
         "adjacent": [["c001", "c002"], ...],
         "overlap": [...]}

    A camera may carry a literal row-major 9-element ``homography`` array
    instead of ``homography_pairs`` (>= 4 pairs otherwise).  Other camera
    keys, such as the ``lat``, ``lon`` and ``fps`` of older files, are
    ignored.  A ``spec`` that is not a JSON object raises SettingError; a
    camera entry or relation that does not fit, and an ``adjacent`` or
    ``overlap`` entry that is not a list of exactly two ids, raise ConfigError.
    """
    check_settings({"topology": spec}, topology=dict)
    cameras = []
    for cam in spec.get("cameras", []):
        try:
            cid = cam["id"]
            if "homography" in cam:
                h = Homography(np.array(cam["homography"], dtype=float).reshape(3, 3))
            else:
                pairs = [
                    (PixelPoint(float(p["px"]), float(p["py"])),
                     GeoPoint(lat=float(p["lat"]), lon=float(p["lon"])))
                    for p in cam["homography_pairs"]
                ]
                h = estimate_homography(pairs)
            cameras.append(CameraInfo(id=cid, homography=h))
        except (KeyError, ValueError, DegenerateConfiguration) as exc:
            raise ConfigError(f"bad camera entry {cam.get('id', '?')!r}: {exc}") from exc
    for relation in ("adjacent", "overlap"):
        for pair in spec.get(relation, ()):
            if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                raise ConfigError(f"{relation} entry {pair!r} is not a pair of two camera ids")
    try:
        return make_topology(cameras, spec.get("adjacent", ()), spec.get("overlap", ()))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def topology_to_dict(topo: CameraTopology) -> dict:
    """Serialize a topology back into the JSON shape read by topology_from_dict."""
    return {
        "cameras": [
            {
                "id": cam.id,
                "homography": [float(v) for v in cam.homography.m.reshape(-1)],
            }
            for cam in (topo.cameras[cid] for cid in sorted(topo.cameras))
        ],
        "adjacent": sorted(sorted(pair) for pair in topo.adjacency),
        "overlap": sorted(sorted(pair) for pair in topo.overlap),
    }
