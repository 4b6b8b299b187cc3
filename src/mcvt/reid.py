"""Appearance-embedding handling.

Frame-level embeddings come from a pluggable provider (the simulator's oracle,
a file, or something external); this module owns everything downstream of
that: softmax-weighted temporal aggregation of a track's feature sequence into
one unit vector, per-camera bias subtraction, k-reciprocal re-ranking of
distance matrices, and track-level re-id scoring (mAP / CMC).  Also defines
the EMB1 binary container used to ship embeddings and scorer weights between
tools.
"""

from __future__ import annotations

import io
import struct
from typing import BinaryIO, Sequence

import numpy as np
from scipy.special import softmax

from .errors import (
    InsufficientGallery,
    MalformedInput,
    NoValidGallery,
    ZeroVector,
    check_settings,
)

EMB_MAGIC = b"EMB1"
_HEADER = struct.Struct("<4sIQ")  # magic, dimension, row count

#: LearnedConv channel widths/kernel size; fixed by this implementation,
#: shapes (64, D, 3) and (1, 64, 3), zero-padded, no bias terms.
CONV_HIDDEN = 64
CONV_KERNEL = 3


def l2_normalize(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ZeroVector("cannot normalize the zero vector")
    return v / norm


def _conv1d_same(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Zero-padded 1-D convolution: x (C_in, L), w (C_out, C_in, K) -> (C_out, L)."""
    pad = w.shape[2] // 2
    xp = np.pad(x, ((0, 0), (pad, pad)))
    windows = np.stack([xp[:, k : k + x.shape[1]] for k in range(w.shape[2])], axis=-1)
    return np.einsum("oik,ilk->ol", w, windows)


class TemporalScorer:
    """Scores each frame of a track; softmax of the scores weights the mean.

    The default (no kernels) is the uniform scorer: every frame scores 0, so
    aggregation reduces to a plain normalized mean.  The learned variant runs
    two 1-D convolutions over the temporal axis (D -> 64, kernel 3, rectifier,
    then 64 -> 1, kernel 3, same padding).
    """

    def __init__(self, conv1: np.ndarray | None = None, conv2: np.ndarray | None = None):
        if (conv1 is None) != (conv2 is None):
            raise ValueError("provide both convolution kernels or neither")
        if conv1 is not None:
            conv1 = np.asarray(conv1, dtype=float)
            conv2 = np.asarray(conv2, dtype=float)
            if conv1.ndim != 3 or conv1.shape[0] != CONV_HIDDEN or conv1.shape[2] != CONV_KERNEL:
                raise ValueError(f"conv1 must have shape (64, D, 3), got {conv1.shape}")
            if conv2.shape != (1, CONV_HIDDEN, CONV_KERNEL):
                raise ValueError(f"conv2 must have shape (1, 64, 3), got {conv2.shape}")
        self.conv1 = conv1
        self.conv2 = conv2

    def scores(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        if self.conv1 is None:
            return np.zeros(rows.shape[0])
        if rows.shape[1] != self.conv1.shape[1]:
            raise ValueError(
                f"scorer built for D={self.conv1.shape[1]}, got D={rows.shape[1]}"
            )
        hidden = np.maximum(_conv1d_same(rows.T, self.conv1), 0.0)
        return _conv1d_same(hidden, self.conv2)[0]

    @classmethod
    def load(cls, path) -> "TemporalScorer":
        """Learned scorer from a file of two EMB1 blocks.

        The first block holds conv1 as 64*3 rows of D, row ``3*o + k`` being
        ``conv1[o, :, k]``; the second holds conv2 as 3 rows of 64, row ``k``
        being ``conv2[0, :, k]``.  A file that does not hold these two
        blocks raises MalformedInput naming the file.
        """
        with open(path, "rb") as fh:
            try:
                block1, block2 = read_embedding_block(fh), read_embedding_block(fh)
                if block1.shape[0] != CONV_HIDDEN * CONV_KERNEL:
                    raise ValueError(f"conv1 block must have {CONV_HIDDEN * CONV_KERNEL} rows")
                if block2.shape != (CONV_KERNEL, CONV_HIDDEN):
                    raise ValueError(f"conv2 block must be {CONV_KERNEL}x{CONV_HIDDEN}")
            except ValueError as exc:
                raise MalformedInput(f"{path}: {exc}") from None
        dim = block1.shape[1]
        conv1 = block1.reshape(CONV_HIDDEN, CONV_KERNEL, dim).transpose(0, 2, 1)
        conv2 = block2.T[np.newaxis]
        return cls(conv1, conv2)


def temporal_aggregate(rows, scorer: TemporalScorer | None = None) -> np.ndarray:
    """Collapse a track's (L, D) feature sequence into one unit embedding.

    weights = softmax(scorer scores); output = normalize(sum_i w_i * row_i).
    """
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[0] < 1:
        raise ValueError("expected a non-empty (L, D) feature matrix")
    scorer = scorer or TemporalScorer()
    weights = softmax(scorer.scores(rows))
    return l2_normalize(weights @ rows)


def mitigate_camera_bias(
    tracks: Sequence[tuple[str, np.ndarray]], lam: float
) -> list[np.ndarray]:
    """Subtract a fraction of each camera's mean embedding, then re-normalize.

    g_c is the mean of the raw embeddings seen by camera c; each embedding
    becomes normalize(f - lam * g_c).  Cameras are treated independently;
    output order matches input order.
    """
    if not 0.0 <= lam <= 1.0:
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    by_cam: dict[str, list[np.ndarray]] = {}
    for cam, emb in tracks:
        by_cam.setdefault(cam, []).append(np.asarray(emb, dtype=float))
    means = {cam: np.mean(embs, axis=0) for cam, embs in by_cam.items()}
    return [l2_normalize(np.asarray(emb, dtype=float) - lam * means[cam]) for cam, emb in tracks]


def _pairwise_euclidean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    sq = np.sum(a**2, axis=1)[:, None] + np.sum(b**2, axis=1)[None, :] - 2.0 * (a @ b.T)
    return np.sqrt(np.maximum(sq, 0.0))


def k_reciprocal_rerank(
    query, gallery, k1: int = 20, k2: int = 6, lambda_r: float = 0.3
) -> np.ndarray:
    """Re-rank a query-gallery Euclidean distance matrix with k-reciprocal sets.

    Follows the published k-reciprocal procedure: expanded reciprocal
    neighborhoods over the pooled query+gallery set, exponential weights on
    the squared max-normalized distances, local query expansion over the k2
    nearest neighbors, then a Jaccard distance between weight vectors.  The
    final matrix mixes the *raw* Euclidean distances with the Jaccard part:

        final = lambda_r * euclidean + (1 - lambda_r) * jaccard

    so lambda_r = 1 returns the plain distance matrix unchanged.
    """
    check_settings(
        locals(), k2=(int, "[1, inf)"), k1=(int, f"({k2}, inf)"), lambda_r=(float, "[0, 1]")
    )
    query = np.atleast_2d(np.asarray(query, dtype=float))
    gallery = np.atleast_2d(np.asarray(gallery, dtype=float))
    if gallery.shape[0] < k1:
        raise InsufficientGallery(
            f"gallery has {gallery.shape[0]} items, need at least k1={k1}"
        )

    n_query = query.shape[0]
    feats = np.vstack([query, gallery])
    n = feats.shape[0]
    raw = _pairwise_euclidean(feats, feats)
    # The query-gallery block is recomputed directly rather than sliced out of
    # the pooled matrix: BLAS rounds the two shapes differently, and the
    # lambda_r = 1 contract promises bitwise equality with the distances a
    # caller computes from (query, gallery) alone.
    raw_qg = _pairwise_euclidean(query, gallery)

    # Ranking-side distance per the published method: squared, column-max
    # normalized (rank order is unchanged; only the exp weights see this).
    ranked = raw**2
    col_max = np.max(ranked, axis=0)
    ranked = (ranked / np.where(col_max > 0.0, col_max, 1.0)).T
    initial_rank = np.argsort(ranked, axis=1, kind="stable")

    def reciprocal(i: int, k: int) -> np.ndarray:
        forward = initial_rank[i, : k + 1]
        backward = initial_rank[forward, : k + 1]
        return forward[np.any(backward == i, axis=1)]

    V = np.zeros((n, n))
    for i in range(n):
        expansion = reciprocal(i, k1)
        members = list(expansion)
        for j in expansion:
            candidate = reciprocal(int(j), k1 // 2)
            if len(np.intersect1d(candidate, expansion)) > 2.0 / 3.0 * len(candidate):
                members.extend(candidate)
        members = np.unique(members)
        weights = np.exp(-ranked[i, members])
        V[i, members] = weights / np.sum(weights)
    if k2 != 1:
        V = np.stack([np.mean(V[initial_rank[i, :k2]], axis=0) for i in range(n)])

    inv_index = [np.nonzero(V[:, j])[0] for j in range(n)]
    jaccard = np.zeros((n_query, n))
    for i in range(n_query):
        min_sum = np.zeros(n)
        nonzero = np.nonzero(V[i])[0]
        for j in nonzero:
            rows = inv_index[j]
            min_sum[rows] += np.minimum(V[i, j], V[rows, j])
        jaccard[i] = 1.0 - min_sum / (2.0 - min_sum)

    return lambda_r * raw_qg + (1.0 - lambda_r) * jaccard[:, n_query:]


def eval_track_reid(
    query: Sequence[tuple[int, str]],
    gallery: Sequence[tuple[int, str]],
    dist: np.ndarray,
) -> tuple[float, float, float]:
    """Track-level re-id scores (mAP, CMC@1, CMC@5) from a distance matrix.

    query/gallery entries are (identity, camera) pairs.  Gallery tracks
    sharing both identity and camera with the query are excluded per the
    standard cross-camera protocol.  Every query must keep at least one
    correct gallery match after exclusion.
    """
    dist = np.asarray(dist, dtype=float)
    if dist.shape != (len(query), len(gallery)):
        raise ValueError(
            f"distance matrix shape {dist.shape} does not match "
            f"{len(query)} queries x {len(gallery)} gallery tracks"
        )
    aps = []
    cmc1 = 0
    cmc5 = 0
    for qi, (qid, qcam) in enumerate(query):
        keep = np.array(
            [not (gid == qid and gcam == qcam) for gid, gcam in gallery], dtype=bool
        )
        if not np.any(keep):
            raise NoValidGallery(f"query {qi}: every gallery track excluded")
        order = np.argsort(dist[qi, keep], kind="stable")
        relevant = np.array([gallery[j][0] == qid for j in np.nonzero(keep)[0]])[order]
        n_good = int(np.sum(relevant))
        if n_good == 0:
            raise NoValidGallery(f"query {qi}: no gallery track shares its identity")
        hits = np.cumsum(relevant)
        precision = hits / np.arange(1, len(relevant) + 1)
        aps.append(float(np.sum(precision * relevant) / n_good))
        cmc1 += bool(np.any(relevant[:1]))
        cmc5 += bool(np.any(relevant[:5]))
    n = len(query)
    return float(np.mean(aps)), cmc1 / n, cmc5 / n


def write_embedding_block(fh: BinaryIO, rows: np.ndarray) -> None:
    rows = np.ascontiguousarray(rows, dtype="<f4")
    if rows.ndim != 2:
        raise ValueError("embedding block must be a 2-D array")
    fh.write(_HEADER.pack(EMB_MAGIC, rows.shape[1], rows.shape[0]))
    fh.write(rows.tobytes())


def read_embedding_block(fh: BinaryIO) -> np.ndarray:
    header = fh.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise ValueError("truncated embedding header")
    magic, dim, count = _HEADER.unpack(header)
    if magic != EMB_MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {EMB_MAGIC!r}")
    size = 4 * dim * count
    # Check the header's claim against the bytes left before reading, so a
    # huge row count cannot ask read() for more memory than the file holds.
    here = fh.tell()
    left = fh.seek(0, io.SEEK_END) - here
    fh.seek(here)
    if size > left:
        raise ValueError("truncated embedding payload")
    payload = fh.read(size)
    return np.frombuffer(payload, dtype="<f4").reshape(count, dim).astype(float)


def write_embeddings(path, rows: np.ndarray) -> None:
    """Write one EMB1 block (unit rows as float32) to a file."""
    with open(path, "wb") as fh:
        write_embedding_block(fh, rows)


def read_embeddings(path) -> np.ndarray:
    """Read one EMB1 block from a file; a block that does not parse raises
    MalformedInput naming the file."""
    with open(path, "rb") as fh:
        try:
            return read_embedding_block(fh)
        except ValueError as exc:
            raise MalformedInput(f"{path}: {exc}") from None
