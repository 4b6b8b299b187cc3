"""Cross-camera association: traffic rules, similarity, constrained clustering.

Concluded single-camera tracks are compared pairwise with an appearance score
(1 - ||f_i - f_j||/2 on unit embeddings) gated by five traffic rules:

  1. two tracks from one camera never share an identity;
  2. tracks of non-overlapping cameras must not overlap in time;
  3. the implied travel speed weights the score by a quadratic prior
     sim_v = max(0, 4*v*(v_max - v) / v_max^2), peaking at v_max/2;
  4. only adjacent cameras in the topology can be matched;
  5. the direction of travel must stay consistent across the camera pair.

Scores below tau_min are zeroed and the rest drive a greedy agglomeration
that never lets a cluster contain two tracks from one camera.  The supervisor
runs this at a fixed tick period over newly concluded tracks plus
representatives of the identities it already holds, and flushes identities
that have been inactive past a horizon.

`build_similarity_matrix` is the one definition of the rules.  Rules 1, 2
and 4 are numpy masks over camera-membership, time and topology arrays; the
direction and speed rules and the appearance term are array expressions over
the pairs the masks keep.  Pairs are ordered by (t_e, t_s, tie_key), and
clustering ranks the tie keys once to order its merges.

Note on rule 3: the quadratic prior is normalized by v_max squared, the only
scaling that makes it unitless with range [0, 1]; see README for discussion.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import NonPositiveDt, check_settings
from .geo import (
    CameraTopology,
    GeoPoint,
    are_adjacent,
    are_overlapping,
    haversine,
    haversine_distance,
)
from .metrics import Trajectories
from .reid import l2_normalize, mitigate_camera_bias
from .sct import TRACK_ROW, ConcludedTrack

BIAS_LAMBDA = 0.1  # camera-bias subtraction weight


@dataclass
class MctConfig:
    tau_min: float = 0.15
    v_max: float = 40.0  # m/s
    flush_horizon: float = 120.0  # seconds
    tick_period: float = 2.0  # seconds
    use_adjacency: bool = True  # traffic rule 4
    use_direction: bool = True  # traffic rule 5

    def __post_init__(self):
        check_settings(
            vars(self), tau_min=(float, "[0, 1]"), v_max=(float, "(0, inf)"),
            flush_horizon=(float, "(0, inf)"), tick_period=(float, "(0, inf)"),
            use_adjacency=bool, use_direction=bool,
        )


@dataclass(frozen=True)
class Candidate:
    """A clustering participant: one concluded track or one existing identity.

    Multi-member candidates carry the endpoints of their earliest-starting and
    latest-ending member so that the speed and direction rules keep operating
    on physical entry/exit points.
    """

    cameras: frozenset
    start_camera: str
    end_camera: str
    embedding: np.ndarray
    t_s: float
    t_e: float
    l_s: GeoPoint
    l_e: GeoPoint
    tracks: tuple
    existing_id: int | None = None

    @classmethod
    def from_track(cls, track: ConcludedTrack) -> "Candidate":
        return cls(
            cameras=frozenset([track.camera]),
            start_camera=track.camera,
            end_camera=track.camera,
            embedding=track.embedding,
            t_s=track.t_s,
            t_e=track.t_e,
            l_s=track.l_s,
            l_e=track.l_e,
            tracks=(track,),
        )

    @classmethod
    def from_identity(cls, identity: "MultiCameraTrack") -> "Candidate":
        members = identity.members
        first = min(members, key=lambda t: (t.t_s, t.camera, t.track_id))
        last = max(members, key=lambda t: (t.t_e, t.camera, t.track_id))
        return cls(
            cameras=frozenset(t.camera for t in members),
            start_camera=first.camera,
            end_camera=last.camera,
            embedding=l2_normalize(np.mean([t.embedding for t in members], axis=0)),
            t_s=first.t_s,
            t_e=last.t_e,
            l_s=first.l_s,
            l_e=last.l_e,
            tracks=tuple(members),
            existing_id=identity.global_id,
        )

    @cached_property
    def tie_key(self):  # distinct across candidates, since they hold disjoint tracks
        return min((t.camera, t.track_id) for t in self.tracks)


@dataclass
class MultiCameraTrack:
    """A global identity.  Never modified: a merge builds a new one."""

    global_id: int
    members: list  # ConcludedTracks, pairwise camera-distinct
    cameras: set = field(init=False)
    last_seen: float = field(init=False)

    def __post_init__(self):
        self.cameras = {t.camera for t in self.members}
        if len(self.cameras) != len(self.members):
            raise ValueError(f"identity {self.global_id} holds two tracks of one camera")
        self.last_seen = max(t.t_e for t in self.members)

    @cached_property
    def candidate(self) -> Candidate:
        return Candidate.from_identity(self)


@dataclass(frozen=True)
class TrackPairContext:
    """Time-ordered view of a track pair: earlier ends before later ends."""

    earlier: object
    later: object

    @property
    def dt(self) -> float:
        return self.later.t_s - self.earlier.t_e

    @property
    def gap_distance(self) -> float:
        return haversine_distance(self.later.l_s, self.earlier.l_e)


def _speed_prior(v, v_max: float):
    """Rule 3's quadratic prior on transfer speed v: 1 at v_max/2, 0 at 0 and from v_max on."""
    return np.maximum(0.0, 4.0 * v * (v_max - v) / v_max**2)


def speed_similarity(ctx: TrackPairContext, v_max: float) -> float:
    """The speed prior of one time-ordered pair, rated over its transfer gap."""
    if ctx.dt <= 0:
        raise NonPositiveDt(
            f"dt={ctx.dt}: overlapping or touching intervals should be rejected upstream"
        )
    return float(_speed_prior(ctx.gap_distance / ctx.dt, v_max))


def build_similarity_matrix(tracks, topo: CameraTopology, cfg: MctConfig) -> np.ndarray:
    """Symmetric zero-diagonal matrix of rule-gated similarities.

    Each pair is ordered by (t_e, t_s, tie_key): on equal times the pairs rule
    1 keeps differ first in their smallest camera, the tie key's.  Rules 1, 2
    and 4 are masks over all pairs; rules 5 and 3 and the appearance term are
    array expressions over the pairs those masks keep.  Each norm is the root
    of a stacked (1, D) @ (D, 1) matmul: the dot that ``np.linalg.norm`` takes
    of one vector, so the same bits.  UnknownCamera is raised when a pair that
    passes rule 1 has an earlier end camera or a later start camera that the
    topology lacks.
    """
    cands = [t if isinstance(t, Candidate) else Candidate.from_track(t) for t in tracks]
    n = len(cands)
    cameras = sorted({cid for c in cands for cid in c.cameras})
    index = {cid: k for k, cid in enumerate(cameras)}
    member = np.zeros((n, len(cameras)))
    for i, c in enumerate(cands):
        member[i, [index[cid] for cid in c.cameras]] = 1.0
    rank = np.empty(n, dtype=int)
    rank[sorted(range(n), key=lambda k: (cands[k].t_e, cands[k].t_s, cands[k].tie_key))] = range(n)
    t_s, t_e, lat_s, lon_s, lat_e, lon_e = np.array(
        [(c.t_s, c.t_e, c.l_s.lat, c.l_s.lon, c.l_e.lat, c.l_e.lon) for c in cands], dtype=float
    ).reshape(n, 6).T

    i, j = np.nonzero(np.triu(member @ member.T == 0.0, 1))  # rule 1: camera exclusivity
    swap = rank[i] > rank[j]
    early, late = np.where(swap, j, i), np.where(swap, i, j)

    end = np.array([index[c.end_camera] for c in cands], dtype=int)[early]
    start = np.array([index[c.start_camera] for c in cands], dtype=int)[late]
    seen = np.zeros((len(cameras), len(cameras)), dtype=bool)
    seen[end, start] = True
    overlap, adjacent = np.zeros_like(seen), np.ones_like(seen)
    for a, b in zip(*np.nonzero(seen)):
        overlap[a, b] = are_overlapping(topo, cameras[a], cameras[b])
        if cfg.use_adjacency:
            adjacent[a, b] = are_adjacent(topo, cameras[a], cameras[b])
    dt = t_s[late] - t_e[early]
    keep = (dt > 0) | overlap[end, start]  # rule 2: temporal non-overlap
    keep &= adjacent[end, start]  # rule 4: topology adjacency
    early, late, dt = early[keep], late[keep], dt[keep]

    gap = haversine(lat_s[late], lon_s[late], lat_e[early], lon_e[early])
    if cfg.use_direction:  # rule 5: the later track moves on, away from the earlier one
        keep = gap <= np.minimum(
            haversine(lat_s[early], lon_s[early], lat_s[late], lon_s[late]),
            haversine(lat_e[late], lon_e[late], lat_e[early], lon_e[early]),
        )
        early, late, dt, gap = early[keep], late[keep], dt[keep], gap[keep]
    sim_v = np.ones(len(dt))  # overlapping views: no transfer gap to rate
    moving = dt > 0
    sim_v[moving] = _speed_prior(gap[moving] / dt[moving], cfg.v_max)  # rule 3: speed

    embeddings = np.array([c.embedding for c in cands], ndmin=2)
    diff = embeddings[early] - embeddings[late]
    appearance = 1.0 - np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0]) / 2.0
    matrix = np.zeros((n, n))
    matrix[early, late] = matrix[late, early] = np.maximum(0.0, appearance * sim_v)
    return matrix


def apply_min_threshold(matrix: np.ndarray, tau_min: float) -> np.ndarray:
    return np.where(matrix < tau_min, 0.0, matrix)


def hierarchical_cluster(tracks, matrix: np.ndarray) -> list[list[int]]:
    """Greedy highest-similarity-first agglomeration with camera exclusivity.

    Repeatedly merges the clusters of the highest-similarity positive track
    pair whose camera sets are disjoint; equal similarities fall back to the
    pair of smallest tie keys, ranked once: one ``np.lexsort`` orders the pairs
    by (-score, lower rank, higher rank).  Returns clusters as lists of
    indices into `tracks`, ordered by their smallest index.
    """
    n = len(tracks)
    cands = [t if isinstance(t, Candidate) else Candidate.from_track(t) for t in tracks]
    parent = list(range(n))
    cameras = [set(c.cameras) for c in cands]

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    tie = np.empty(n, dtype=int)
    tie[sorted(range(n), key=lambda k: cands[k].tie_key)] = range(n)
    rows, cols = np.nonzero(np.triu(matrix > 0.0, 1))
    lo, hi = np.minimum(tie[rows], tie[cols]), np.maximum(tie[rows], tie[cols])
    order = np.lexsort((hi, lo, -matrix[rows, cols]))
    for i, j in zip(rows[order].tolist(), cols[order].tolist()):
        ri, rj = find(i), find(j)
        if ri == rj or cameras[ri] & cameras[rj]:
            continue
        parent[rj] = ri
        cameras[ri] |= cameras[rj]

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda g: g[0])


class MultiCameraStore:
    """Active global identities; written only by the supervisor."""

    def __init__(self, next_id: int = 1):
        self.active: dict[int, MultiCameraTrack] = {}
        self._next_id = next_id

    def new_id(self) -> int:
        gid = self._next_id
        self._next_id += 1
        return gid

    def drain(self) -> list[MultiCameraTrack]:
        """End of run: emit and clear every remaining identity."""
        out = [self.active[gid] for gid in sorted(self.active)]
        self.active.clear()
        return out


def supervisor_tick(
    store: MultiCameraStore,
    new_tracks: list[ConcludedTrack],
    now: float,
    topo: CameraTopology,
    cfg: MctConfig,
):
    """One supervisor round: cluster new tracks against held identities.

    Candidates are the tick's concluded tracks (camera-bias mitigated per
    camera) plus one representative per active identity, built once per
    identity object.  Only pairs that pass the masks of rules 1, 2 and 4 are
    scored, so the output equals scoring every pair.  Merged identities
    keep the smallest participating global id; clusters of only-new tracks
    get fresh ids.  Identities quiet for longer than flush_horizon are
    removed and returned as final.

    Returns (assignments, flushed) where assignments maps each new track's
    (camera, track_id) to its global id.  Assignments of older tracks may be
    superseded by later merges; the flushed identities are authoritative.
    """
    new_tracks = sorted(new_tracks, key=lambda t: (t.camera, t.track_id))
    if new_tracks:
        adjusted = mitigate_camera_bias([(t.camera, t.embedding) for t in new_tracks], BIAS_LAMBDA)
        new_tracks = [replace(t, embedding=e) for t, e in zip(new_tracks, adjusted)]

    candidates = [store.active[gid].candidate for gid in sorted(store.active)]
    candidates += [Candidate.from_track(t) for t in new_tracks]

    assignments: dict[tuple[str, int], int] = {}
    if candidates:
        matrix = apply_min_threshold(build_similarity_matrix(candidates, topo, cfg), cfg.tau_min)
        for cluster in hierarchical_cluster(candidates, matrix):
            members = [candidates[i] for i in cluster]
            existing = sorted(c.existing_id for c in members if c.existing_id is not None)
            fresh = [t for c in members if c.existing_id is None for t in c.tracks]
            if not fresh and len(existing) <= 1:
                continue  # nothing changed for this identity
            if existing:
                gid = existing[0]  # oldest identity wins
                merged = [t for old in existing for t in store.active[old].members]
                for old in existing:
                    del store.active[old]
                merged.extend(fresh)
            else:
                gid = store.new_id()
                merged = list(fresh)
            store.active[gid] = MultiCameraTrack(global_id=gid, members=merged)
            for t in fresh:
                assignments[(t.camera, t.track_id)] = gid

    flushed = [
        store.active[gid]
        for gid in sorted(store.active)
        if now - store.active[gid].last_seen > cfg.flush_horizon
    ]
    for identity in flushed:
        del store.active[identity.global_id]
    return assignments, flushed


def identity_rows(identities):
    """Every matched detection of the identities' member tracks, as columns in
    identity, member and frame order: (cameras, codes, global ids, track ids,
    rows), where ``cameras`` is sorted, row i is on camera
    ``cameras[codes[i]]`` and ``rows`` holds ``sct.TRACK_ROW`` entries."""
    members = [(identity.global_id, member) for identity in identities
               for member in identity.members]
    cameras = sorted({member.camera for _, member in members})
    code = {camera: k for k, camera in enumerate(cameras)}
    counts = [len(member.boxes) for _, member in members]
    return (
        cameras,
        np.repeat(np.array([code[m.camera] for _, m in members], dtype=np.int64), counts),
        np.repeat(np.array([gid for gid, _ in members], dtype=np.int64), counts),
        np.repeat(np.array([m.track_id for _, m in members], dtype=np.int64), counts),
        np.concatenate([np.empty(0, TRACK_ROW)] + [m.boxes for _, m in members]),
    )


def identities_to_trajectories(identities) -> Trajectories:
    """Flatten final identities into trajectory columns with global ids."""
    cameras, codes, gids, _, rows = identity_rows(identities)
    return Trajectories.from_columns(cameras, codes, rows["frame"], gids, rows["box"])


def summarize_identities(identities) -> list[dict]:
    """JSON-ready per-identity summary: members, time spans, geo endpoints."""
    out = []
    for identity in sorted(identities, key=lambda m: m.global_id):
        members = sorted(identity.members, key=lambda t: (t.t_s, t.camera))
        out.append(
            {
                "global_id": identity.global_id,
                "cameras": sorted(identity.cameras),
                "t_s": min(t.t_s for t in members),
                "t_e": max(t.t_e for t in members),
                "members": [
                    {
                        "camera": t.camera,
                        "track_id": t.track_id,
                        "t_s": t.t_s,
                        "t_e": t.t_e,
                        "start": [t.l_s.lat, t.l_s.lon],
                        "end": [t.l_e.lat, t.l_e.lon],
                        "class": int(t.class_label),
                        "n_boxes": len(t.boxes),
                    }
                    for t in members
                ],
            }
        )
    return out
