"""Embedding aggregation, re-ranking and the EMB1 container.

The re-ranking test re-derives the expected matrix with an independent
plain-loop transcription of the k-reciprocal procedure, so the vectorized
implementation is checked against a second code path rather than itself.
"""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcvt.errors import InsufficientGallery, MalformedInput, NoValidGallery, ZeroVector
from mcvt.reid import (
    CONV_HIDDEN,
    CONV_KERNEL,
    TemporalScorer,
    eval_track_reid,
    k_reciprocal_rerank,
    l2_normalize,
    mitigate_camera_bias,
    read_embedding_block,
    read_embeddings,
    temporal_aggregate,
    write_embedding_block,
    write_embeddings,
)


def test_l2_normalize():
    v = l2_normalize([3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8])
    with pytest.raises(ZeroVector):
        l2_normalize([0.0, 0.0])


def test_temporal_aggregate_uniform_hand_value():
    rows = np.array([[1.0, 0.0], [0.5, 0.5]])
    # Uniform weights -> mean (0.75, 0.25), normalized -> (3, 1)/sqrt(10).
    out = temporal_aggregate(rows)
    assert np.allclose(out, [0.9486832980505138, 0.31622776601683794])
    assert np.linalg.norm(out) == pytest.approx(1.0)


def test_temporal_aggregate_single_row():
    out = temporal_aggregate(np.array([[0.0, 2.0]]))
    assert np.allclose(out, [0.0, 1.0])
    with pytest.raises(ValueError):
        temporal_aggregate(np.zeros((0, 4)))


def naive_conv1d(x, w):
    # x: (C_in, L), w: (C_out, C_in, K); zero padding, stride 1.
    c_out, c_in, k = w.shape
    pad = k // 2
    length = x.shape[1]
    out = np.zeros((c_out, length))
    for o in range(c_out):
        for t in range(length):
            acc = 0.0
            for i in range(c_in):
                for dk in range(k):
                    src = t + dk - pad
                    if 0 <= src < length:
                        acc += w[o, i, dk] * x[i, src]
            out[o, t] = acc
    return out


def test_learned_scorer_matches_naive_convolution():
    rng = np.random.default_rng(2)
    dim, length = 5, 7
    conv1 = rng.normal(size=(CONV_HIDDEN, dim, CONV_KERNEL))
    conv2 = rng.normal(size=(1, CONV_HIDDEN, CONV_KERNEL))
    scorer = TemporalScorer(conv1, conv2)
    assert scorer.conv1 is not None
    rows = rng.normal(size=(length, dim))

    hidden = np.maximum(naive_conv1d(rows.T, conv1), 0.0)
    expected = naive_conv1d(hidden, conv2)[0]
    assert np.allclose(scorer.scores(rows), expected, atol=1e-12)

    # And the aggregate uses softmax of those scores.
    w = np.exp(expected - expected.max())
    w /= w.sum()
    assert np.allclose(temporal_aggregate(rows, scorer), l2_normalize(w @ rows))


def test_scorer_validation():
    assert TemporalScorer().conv1 is None
    assert np.array_equal(TemporalScorer().scores(np.ones((4, 8))), np.zeros(4))
    with pytest.raises(ValueError):
        TemporalScorer(conv1=np.zeros((CONV_HIDDEN, 4, CONV_KERNEL)))
    with pytest.raises(ValueError):
        TemporalScorer(np.zeros((3, 4, 3)), np.zeros((1, CONV_HIDDEN, CONV_KERNEL)))
    scorer = TemporalScorer(
        np.zeros((CONV_HIDDEN, 4, CONV_KERNEL)), np.zeros((1, CONV_HIDDEN, CONV_KERNEL))
    )
    with pytest.raises(ValueError):
        scorer.scores(np.ones((5, 6)))  # dimension mismatch


def test_scorer_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(9)
    conv1 = rng.normal(size=(CONV_HIDDEN, 16, CONV_KERNEL))
    conv2 = rng.normal(size=(1, CONV_HIDDEN, CONV_KERNEL))
    path = tmp_path / "scorer.bin"
    with open(path, "wb") as fh:  # the layout TemporalScorer.load documents
        write_embedding_block(fh, conv1.transpose(0, 2, 1).reshape(-1, 16))
        write_embedding_block(fh, conv2[0].T)
    loaded = TemporalScorer.load(path)
    # Weights ship as float32; compare against the rounded originals exactly.
    assert np.array_equal(loaded.conv1, conv1.astype("<f4").astype(float))
    assert np.array_equal(loaded.conv2, conv2.astype("<f4").astype(float))


def test_mitigate_camera_bias_hand_value():
    tracks = [("a", np.array([1.0, 0.0])), ("a", np.array([0.0, 1.0]))]
    out = mitigate_camera_bias(tracks, lam=0.5)
    # g_a = (0.5, 0.5); f1 - 0.5 g = (0.75, -0.25) -> (3, -1)/sqrt(10).
    assert np.allclose(out[0], [0.9486832980505138, -0.31622776601683794])
    assert np.allclose(out[1], [-0.31622776601683794, 0.9486832980505138])


def test_mitigate_camera_bias_lambda_zero_and_isolation():
    e = l2_normalize([2.0, 1.0])
    out = mitigate_camera_bias([("a", e), ("b", np.array([0.0, 1.0]))], lam=0.0)
    assert np.allclose(out[0], e)
    # Cameras are independent: a singleton camera at small lambda is a no-op
    # up to renormalization, regardless of what other cameras contain.
    out = mitigate_camera_bias([("a", e), ("b", np.array([0.0, 1.0]))], lam=0.1)
    assert np.allclose(out[0], e)
    with pytest.raises(ValueError):
        mitigate_camera_bias([("a", e)], lam=1.5)


# ---------------------------------------------------------------------------
# k-reciprocal re-ranking


def naive_rerank(query, gallery, k1, k2, lambda_r):
    feats = np.vstack([query, gallery])
    n, nq = len(feats), len(query)
    raw = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            raw[i, j] = np.sqrt(np.sum((feats[i] - feats[j]) ** 2))
    dn = (raw**2 / np.max(raw**2, axis=0)).T
    rank = np.argsort(dn, axis=1, kind="stable")

    def reciprocal(i, k):
        out = []
        for j in rank[i, : k + 1]:
            if i in rank[j, : k + 1]:
                out.append(int(j))
        return out

    V = np.zeros((n, n))
    for i in range(n):
        base = reciprocal(i, k1)
        members = list(base)
        for j in base:
            cand = reciprocal(j, k1 // 2)
            if len(set(cand) & set(base)) > (2.0 / 3.0) * len(cand):
                members.extend(cand)
        idx = sorted(set(members))
        w = np.exp(-dn[i, idx])
        V[i, idx] = w / w.sum()
    if k2 != 1:
        V = np.stack([V[rank[i, :k2]].mean(axis=0) for i in range(n)])
    jac = np.zeros((nq, n))
    for i in range(nq):
        for j in range(n):
            mins = np.minimum(V[i], V[j]).sum()
            maxs = np.maximum(V[i], V[j]).sum()
            jac[i, j] = 1.0 - mins / maxs
    return lambda_r * raw[:nq, nq:] + (1.0 - lambda_r) * jac[:, nq:]


def _clustered(rng, n, dim=6):
    centers = rng.normal(size=(3, dim))
    pts = centers[rng.integers(0, 3, size=n)] + 0.3 * rng.normal(size=(n, dim))
    return pts


def test_rerank_matches_plain_loop_reference():
    for seed in range(5):
        rng = np.random.default_rng(seed)
        query = _clustered(rng, 3)
        gallery = _clustered(rng, 12)
        got = k_reciprocal_rerank(query, gallery, k1=4, k2=2, lambda_r=0.3)
        want = naive_rerank(query, gallery, k1=4, k2=2, lambda_r=0.3)
        assert np.allclose(got, want, atol=1e-9), f"seed {seed}"


def test_rerank_lambda_one_is_raw_distances_bitwise():
    rng = np.random.default_rng(3)
    query = rng.normal(size=(4, 8))
    gallery = rng.normal(size=(25, 8))
    raw = np.sqrt(
        np.maximum(
            np.sum(query**2, axis=1)[:, None]
            + np.sum(gallery**2, axis=1)[None, :]
            - 2.0 * (query @ gallery.T),
            0.0,
        )
    )
    out = k_reciprocal_rerank(query, gallery, k1=20, k2=6, lambda_r=1.0)
    assert np.array_equal(out, raw)


def test_rerank_improves_clustered_retrieval():
    # With tight identity clusters, reciprocal-neighbour evidence should not
    # degrade the ranking of the true neighbours.
    rng = np.random.default_rng(12)
    proto = np.eye(4)
    query = np.stack([l2_normalize(proto[i] + 0.2 * rng.normal(size=4)) for i in range(4)])
    g_ids = np.repeat(np.arange(4), 6)
    gallery = np.stack([l2_normalize(proto[i] + 0.2 * rng.normal(size=4)) for i in g_ids])
    dist = k_reciprocal_rerank(query, gallery, k1=6, k2=2, lambda_r=0.3)
    for qi in range(4):
        top = np.argsort(dist[qi], kind="stable")[:6]
        assert np.sum(g_ids[top] == qi) >= 5


def test_rerank_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(InsufficientGallery):
        k_reciprocal_rerank(rng.normal(size=(2, 4)), rng.normal(size=(5, 4)), k1=10)
    with pytest.raises(ValueError):
        k_reciprocal_rerank(rng.normal(size=(2, 4)), rng.normal(size=(30, 4)), k1=4, k2=4)
    with pytest.raises(ValueError):
        k_reciprocal_rerank(rng.normal(size=(2, 4)), rng.normal(size=(30, 4)), lambda_r=-0.1)


def test_rerank_is_deterministic():
    rng = np.random.default_rng(8)
    query = rng.normal(size=(3, 5))
    gallery = rng.normal(size=(15, 5))
    a = k_reciprocal_rerank(query, gallery, k1=5, k2=2)
    b = k_reciprocal_rerank(query, gallery, k1=5, k2=2)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# track re-id evaluation


def test_eval_track_reid_rank2_ap():
    query = [(1, "A")]
    gallery = [(2, "B"), (1, "B")]
    dist = np.array([[0.1, 0.9]])
    mean_ap, cmc1, cmc5 = eval_track_reid(query, gallery, dist)
    assert mean_ap == pytest.approx(0.5)  # single relevant item at rank 2
    assert cmc1 == 0.0
    assert cmc5 == 1.0


def test_eval_track_reid_perfect_retrieval():
    query = [(1, "A"), (2, "A")]
    gallery = [(1, "B"), (2, "B"), (3, "B")]
    dist = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    mean_ap, cmc1, cmc5 = eval_track_reid(query, gallery, dist)
    assert (mean_ap, cmc1, cmc5) == (1.0, 1.0, 1.0)


def test_eval_track_reid_same_camera_exclusion():
    query = [(1, "A")]
    # The only same-identity track shares the camera -> excluded -> error.
    gallery = [(1, "A"), (2, "B")]
    with pytest.raises(NoValidGallery):
        eval_track_reid(query, gallery, np.array([[0.0, 1.0]]))
    # With a cross-camera copy present, the same-camera one is ignored even
    # though it sits at distance 0.
    gallery = [(1, "A"), (1, "B"), (2, "B")]
    dist = np.array([[0.0, 0.5, 0.2]])
    mean_ap, cmc1, _ = eval_track_reid(query, gallery, dist)
    assert mean_ap == pytest.approx(0.5)
    assert cmc1 == 0.0


def test_eval_track_reid_multi_relevant_ap():
    # Two relevant at ranks 1 and 3: AP = (1/1 + 2/3) / 2.
    query = [(7, "A")]
    gallery = [(7, "B"), (2, "B"), (7, "C")]
    dist = np.array([[0.1, 0.2, 0.3]])
    mean_ap, _, _ = eval_track_reid(query, gallery, dist)
    assert mean_ap == pytest.approx((1.0 + 2.0 / 3.0) / 2.0)


def test_eval_track_reid_shape_check():
    with pytest.raises(ValueError):
        eval_track_reid([(1, "A")], [(1, "B")], np.zeros((2, 2)))


# ---------------------------------------------------------------------------
# EMB1 container


def test_embedding_block_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(10, 32))
    path = tmp_path / "emb.bin"
    write_embeddings(path, rows)
    loaded = read_embeddings(path)
    assert loaded.shape == (10, 32)
    assert np.array_equal(loaded, rows.astype("<f4").astype(float))
    # 16-byte header + 4 bytes per float32 value.
    assert path.stat().st_size == 16 + 4 * 10 * 32


def test_embedding_block_consecutive(tmp_path):
    buf = io.BytesIO()
    a = np.arange(6, dtype=float).reshape(2, 3)
    b = np.arange(12, dtype=float).reshape(4, 3)
    write_embedding_block(buf, a)
    write_embedding_block(buf, b)
    buf.seek(0)
    assert np.array_equal(read_embedding_block(buf), a)
    assert np.array_equal(read_embedding_block(buf), b)


def test_embedding_block_errors():
    buf = io.BytesIO(b"NOPE" + b"\x00" * 12)
    with pytest.raises(ValueError):
        read_embedding_block(buf)
    buf = io.BytesIO()
    write_embedding_block(buf, np.ones((3, 4)))
    data = buf.getvalue()[:-5]  # drop payload bytes
    with pytest.raises(ValueError):
        read_embedding_block(io.BytesIO(data))
    with pytest.raises(ValueError):
        read_embedding_block(io.BytesIO(b"EM"))
    with pytest.raises(ValueError):
        write_embedding_block(io.BytesIO(), np.ones(3))


@pytest.mark.parametrize("dim, count", [(2**31, 2**63), (4, 1000)])
def test_embedding_header_claiming_more_than_the_file_holds(tmp_path, dim, count):
    # A 24-byte file: the header plus 8 payload bytes.  The row count is
    # checked against the bytes left before anything is read.
    data = b"EMB1" + dim.to_bytes(4, "little") + count.to_bytes(8, "little") + b"\x00" * 8
    assert len(data) == 24
    with pytest.raises(ValueError, match="truncated embedding payload"):
        read_embedding_block(io.BytesIO(data))
    path = tmp_path / "huge.bin"
    path.write_bytes(data)
    with pytest.raises(MalformedInput, match="huge.bin: truncated embedding payload"):
        read_embeddings(path)


@given(
    magic=st.one_of(st.just(b"EMB1"), st.binary(min_size=4, max_size=4)),
    dim=st.one_of(st.integers(0, 8), st.integers(0, 2**32 - 1)),
    count=st.one_of(st.integers(0, 8), st.integers(0, 2**64 - 1)),
    extra=st.integers(-8, 8),
    header_cut=st.one_of(st.none(), st.integers(0, 15)),
)
def test_embedding_reader_on_generated_headers(
    tmp_path_factory, magic, dim, count, extra, header_cut
):
    # The payload is the size the header claims (capped at 1 KiB) give or
    # take a few bytes, so exact, short and overlong blocks all occur.
    header = b"".join((magic, dim.to_bytes(4, "little"), count.to_bytes(8, "little")))
    if header_cut is not None:
        header = header[:header_cut]
    data = header + bytes(max(0, min(4 * dim * count, 1024) + extra))
    try:
        block = read_embedding_block(io.BytesIO(data))
    except ValueError:
        block = None
    else:
        assert block.shape == (count, dim) and block.dtype == np.float64

    path = tmp_path_factory.mktemp("emb") / "gen.bin"
    path.write_bytes(data)
    if block is None:
        with pytest.raises(MalformedInput, match="gen.bin: "):
            read_embeddings(path)
    else:
        assert np.array_equal(read_embeddings(path), block)
