"""kNN stage tests vs a brute-force oracle."""

import time
from unittest import mock

import numpy as np
import pyarrow as pa
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gdal_ray import fixtures
from gdal_ray.stages.knn import GridKNN
from test_pip_probe import _continuous_points


def _bruteforce_knn(qx, qy, rx, ry, rid, k):
    out = []
    for x, y in zip(qx, qy):
        d2 = (rx - x) ** 2 + (ry - y) ** 2
        order = np.lexsort((rid, d2))[:k]
        out.append(list(zip(rid[order], d2[order])))
    return out


def _lexsort_knn(qx, qy, rx, ry, rid, k):
    """(ids, d2, ref positions) of a (d², point_id) lexsort over all refs."""
    d2 = (qx[:, None] - rx[None, :]) ** 2 + (qy[:, None] - ry[None, :]) ** 2
    pos = np.lexsort((np.broadcast_to(rid, d2.shape), d2), axis=1)[:, :k]
    return rid[pos], np.take_along_axis(d2, pos, axis=1), pos


def _assert_exact(index, qx, qy):
    got = index.query(qx, qy)
    k = min(index.k, len(index.rx))
    exp = _lexsort_knn(qx, qy, index.rx, index.ry, index.rid, k)
    for name, g, e in zip(("point_id", "d2", "pidx"), got, exp):
        np.testing.assert_array_equal(g, e, err_msg=name)


@st.composite
def _knn_case(draw):
    """Adversarial reference layouts and queries for GridKNN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(
        st.sampled_from(["uniform", "lattice", "duplicates", "collinear", "single"])
    )
    n = 1 if layout == "single" else draw(st.integers(2, 80))
    if layout == "lattice":  # integer coordinates: exact ties at rank k
        rx, ry = rng.integers(0, 6, (2, n)).astype(np.float64)
    elif layout == "duplicates":  # a few points, each repeated
        pool = rng.uniform(-5, 5, (2, int(rng.integers(1, 5))))
        rx, ry = pool[:, rng.integers(0, pool.shape[1], n)]
    elif layout == "collinear":
        along = rng.uniform(0, draw(st.sampled_from([1e-6, 1.0, 160.0])), n)
        rx, ry = along, np.full(n, 7.5)
        if draw(st.booleans()):
            rx, ry = ry, rx
    else:
        rx, ry = rng.uniform(-80, 80, n), rng.uniform(-60, 60, n)
    rid = rng.permutation(n).astype(np.int64) * 7 - 3
    # inside the bbox, next to it, 100°+ away and beyond the corners
    cx, cy = (rx.min() + rx.max()) / 2, (ry.min() + ry.max()) / 2
    reach = draw(st.sampled_from([0.0, 3.0, 150.0, 500.0]))
    qx = cx + rng.uniform(-1, 1, 40) * (np.ptp(rx) / 2 + reach)
    qy = cy + rng.uniform(-1, 1, 40) * (np.ptp(ry) / 2 + reach)
    if layout == "lattice":
        qx, qy = np.round(qx), np.round(qy)
    qx = np.append(qx, [rx.min() - 200, rx.max() + 200, np.nan, 1.0, np.inf])
    qy = np.append(qy, [ry.min() - 200, ry.max() + 200, 1.0, np.nan, -np.inf])
    k = draw(st.integers(1, 12)) if draw(st.booleans()) else n + draw(st.integers(0, 3))
    tpc = draw(st.sampled_from([None, 2.0, 8.0]))  # None: the default
    opts = {} if tpc is None else {"target_per_cell": tpc}
    index = GridKNN(rx, ry, rid, k=k, **opts)
    # queries exactly on cell centres and on cell lines, the seeds'
    # own points and the edges of the search blocks
    ix = rng.integers(-1, index.nx + 2, 12)
    iy = rng.integers(-1, index.ny + 2, 12)
    half = rng.integers(0, 2, (2, 12)) * 0.5
    qx = np.append(qx, index.minx + (ix + half[0]) * index.s)
    qy = np.append(qy, index.miny + (iy + half[1]) * index.s)
    return index, qx, qy


@settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(_knn_case())
def test_gridknn_matches_lexsort(case):
    """Ids, d² and ref positions equal a (d², point_id) lexsort over all
    refs, bit for bit, on adversarial layouts (no Ray)."""
    index, qx, qy = case
    _assert_exact(index, qx, qy)


def test_gridknn_one_block_search_per_query():
    """One ``query`` is one ``_block_knn`` call, over at most 32
    candidate refs per query on the mean, on the continuous corpus's
    layout (three-quarters of it outside the reference bbox)."""
    ref = fixtures.gen_ref_points(5000)
    index = GridKNN(
        ref["lon"].to_numpy(), ref["lat"].to_numpy(), ref["point_id"].to_numpy()
    )
    counts = np.diff(index._starts).reshape(index.nx, index.ny)
    sat = np.zeros((index.nx + 1, index.ny + 1), dtype=np.int64)
    sat[1:, 1:] = counts.cumsum(0).cumsum(1)
    held = []
    real = index._block_knn

    def counted(qx, qy, x0, x1, y0, y1, k):
        held.append(
            sat[x1 + 1, y1 + 1] - sat[x0, y1 + 1] - sat[x1 + 1, y0] + sat[x0, y0]
        )
        return real(qx, qy, x0, x1, y0, y1, k)

    qx, qy = _continuous_points(11)
    with mock.patch.object(index, "_block_knn", counted):
        index.query(qx, qy)
    assert len(held) == 1
    assert held[0].mean() <= 32
    _assert_exact(index, qx[::10], qy[::10])


def test_gridknn_ties_at_kth_resolve_by_point_id():
    """Lattice refs put many refs at the kth d²; the kept ones must be
    the smallest point_ids among them."""
    rng = np.random.default_rng(5)
    for _ in range(40):
        n = int(rng.integers(20, 400))
        rx, ry = rng.integers(0, 6, (2, n)).astype(np.float64)
        rid = rng.permutation(n).astype(np.int64)
        q = rng.integers(-2, 8, (2, 50)).astype(np.float64)
        _assert_exact(GridKNN(rx, ry, rid, k=5), q[0], q[1])


def test_gridknn_collinear_refs_bounded_grid():
    """Zero-area reference sets size the grid by their long extent."""
    rng = np.random.default_rng(6)
    for length in (1.0, 160.0):
        along = np.linspace(0.0, length, 500)
        t0 = time.perf_counter()
        index = GridKNN(along, np.full(500, 10.0), np.arange(500), k=5)
        assert time.perf_counter() - t0 < 1.0
        assert index.nx * index.ny <= 500
        qx = rng.uniform(-length, 2 * length, 300)
        qy = rng.uniform(-20, 40, 300)
        _assert_exact(index, qx, qy)
        # the same line, vertical
        _assert_exact(GridKNN(np.full(500, 10.0), along, np.arange(500), k=5), qy, qx)


def test_gridknn_nonfinite_queries():
    """A NaN or inf query, or one so far out that d² overflows, ties at
    every ref: the k smallest point_ids, with the d² the brute-force
    formula gives (NaN, or inf)."""
    ref = fixtures.gen_ref_points(300)
    rx, ry = ref["lon"].to_numpy(), ref["lat"].to_numpy()
    rid = ref["point_id"].to_numpy()[::-1].copy()
    qx = np.array([np.nan, 3.0, np.inf, 1.0, -np.inf, 1e200, 2.0])
    qy = np.array([0.0, np.nan, 5.0, 2.0, np.nan, 1e300, -1e160])
    pid, d2, pidx = GridKNN(rx, ry, rid, k=4).query(qx, qy)
    exp = _bruteforce_knn(qx, qy, rx, ry, rid, 4)
    for i in range(len(qx)):
        assert pid[i].tolist() == [p for p, _ in exp[i]]
        np.testing.assert_array_equal(d2[i], [d for _, d in exp[i]])
        assert rid[pidx[i]].tolist() == pid[i].tolist()
    assert pid[0].tolist() == [0, 1, 2, 3] and np.isnan(d2[0]).all()
    assert np.isinf(d2[2]).all()


def test_gridknn_features_match_lexsort():
    """``nn_point_id`` and ``knn_mean_dist2`` are the first id and the
    mean d² of the (d², point_id) lexsort, row for row, on duplicated,
    NaN and outside-bbox queries (no Ray)."""
    from gdal_ray.stages.knn import GridKNNFeatures

    rng = np.random.default_rng(11)
    base = fixtures.gen_ref_points(300)
    lattice = rng.integers(-3, 4, (2, 60)).astype(np.float64)  # ties at rank k
    for rx, ry in (
        (base["lon"].to_numpy(), base["lat"].to_numpy()),
        (lattice[0], lattice[1]),
    ):
        rid = rng.permutation(len(rx)).astype(np.int64) * 3 + 1
        ref = pa.table({"point_id": rid, "lon": rx, "lat": ry})
        lo, hi = np.array([rx.min(), ry.min()]), np.array([rx.max(), ry.max()])
        inside = rng.uniform(lo, hi, (40, 2))
        outside = rng.uniform(lo - 100, hi + 100, (40, 2))
        q = np.concatenate([inside, outside, np.round(inside[:10])])
        q = q[rng.integers(0, len(q), 200)]  # every point several times
        q[::17] = np.nan
        for k in (1, 5):
            got = GridKNNFeatures(ref, k=k)(pa.table({"lon": q[:, 0], "lat": q[:, 1]}))
            ids, d2, _ = _lexsort_knn(q[:, 0], q[:, 1], rx, ry, rid, k)
            np.testing.assert_array_equal(got["nn_point_id"].to_numpy(), ids[:, 0])
            np.testing.assert_array_equal(
                got["knn_mean_dist2"].to_numpy(), d2.mean(axis=1)
            )
            assert got.column_names == ["lon", "lat", "nn_point_id", "knn_mean_dist2"]


def test_knn_matches_bruteforce(ray_session):
    import ray.data as rd

    from gdal_ray.stages.knn import knn_join

    ref = fixtures.gen_ref_points(300)
    rng = np.random.default_rng(9)
    q = pa.table(
        {
            "qid": pa.array(np.arange(50, dtype=np.int64)),
            "lon": pa.array(rng.uniform(-80, 80, 50)),
            "lat": pa.array(rng.uniform(-60, 60, 50)),
        }
    )
    out = (
        knn_join(rd.from_arrow(q), ref, k=4)
        .to_pandas()
        .sort_values(["qid", "knn_rank"])
    )
    exp = _bruteforce_knn(
        q["lon"].to_numpy(),
        q["lat"].to_numpy(),
        ref["lon"].to_numpy(),
        ref["lat"].to_numpy(),
        ref["point_id"].to_numpy(),
        4,
    )
    got = out.groupby("qid").apply(
        lambda g: list(zip(g["point_id"], g["dist2"])), include_groups=False
    )
    for qid in range(50):
        assert [p for p, _ in got[qid]] == [p for p, _ in exp[qid]]
        np.testing.assert_allclose(
            [d for _, d in got[qid]], [d for _, d in exp[qid]], rtol=0
        )


def test_idw_exact_hit_and_smooth(ray_session):
    import ray.data as rd

    from gdal_ray.stages.knn import idw_estimate

    ref = pa.table(
        {
            "point_id": pa.array([0, 1, 2], pa.int64()),
            "lon": pa.array([0.0, 10.0, 20.0]),
            "lat": pa.array([0.0, 0.0, 0.0]),
            "value": pa.array([1.0, 2.0, 4.0]),
        }
    )
    q = pa.table({"lon": pa.array([10.0, 5.0]), "lat": pa.array([0.0, 0.0])})
    out = idw_estimate(rd.from_arrow(q), ref, k=3).to_pandas()
    # exact hit takes the reference value (gdalgrid rule)
    assert out["idw_value"][0] == 2.0
    # interior estimate is a weighted mean within data range
    assert 1.0 < out["idw_value"][1] < 4.0


def test_knnjoiner_indexed_matches_bruteforce(ray_session):
    """KNNJoiner now routes through GridKNN; results must stay exact
    vs direct brute force at a larger reference-set size."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.stages.knn import knn_join

    rng = np.random.default_rng(9)
    nref = 3000
    ref = pa.table(
        {
            "point_id": pa.array(np.arange(nref, dtype=np.int64)),
            "lon": pa.array(rng.uniform(-80, 80, nref)),
            "lat": pa.array(rng.uniform(-60, 60, nref)),
        }
    )
    nq = 500
    pts = pa.table(
        {
            "qid": pa.array(np.arange(nq, dtype=np.int64)),
            "lon": pa.array(rng.uniform(-90, 90, nq)),
            "lat": pa.array(rng.uniform(-70, 70, nq)),
        }
    )
    out = (
        knn_join(rd.from_arrow(pts), ref, k=5)
        .to_pandas()
        .sort_values(["qid", "knn_rank"])
        .reset_index(drop=True)
    )
    # brute-force oracle
    qx = pts["lon"].to_numpy()
    qy = pts["lat"].to_numpy()
    rx = ref["lon"].to_numpy()
    ry = ref["lat"].to_numpy()
    d2 = (qx[:, None] - rx) ** 2 + (qy[:, None] - ry) ** 2
    for qi in range(nq):
        order = np.lexsort((np.arange(nref), d2[qi]))[:5]
        got = out[out["qid"] == qi]
        assert got["point_id"].tolist() == list(order)
        assert got["dist2"].tolist() == d2[qi][order].tolist()


def test_idw_two_powers_in_one_session(ray_session):
    """Two idw_estimate calls on one broadcast ref with different
    powers: each call's stage state is its own (no reuse of the first
    call's power), and each matches inverse-distance weights over the
    brute-force k nearest."""
    import ray
    import ray.data as rd

    from gdal_ray.stages.knn import idw_estimate

    rng = np.random.default_rng(5)
    ref_t = fixtures.gen_ref_points(300)
    ref = ray.put(ref_t)
    q = pa.table(
        {
            "qid": pa.array(np.arange(40, dtype=np.int64)),
            "lon": pa.array(rng.uniform(-80, 80, 40)),
            "lat": pa.array(rng.uniform(-60, 60, 40)),
        }
    )
    rid = ref_t["point_id"].to_numpy()
    val = dict(zip(rid, ref_t["value"].to_numpy()))
    nn = _bruteforce_knn(
        q["lon"].to_numpy(), q["lat"].to_numpy(),
        ref_t["lon"].to_numpy(), ref_t["lat"].to_numpy(), rid, 5,
    )
    for power in (2.0, 1.0, 3.0):
        out = (
            idw_estimate(rd.from_arrow(q), ref, k=5, power=power)
            .to_pandas()
            .sort_values("qid")
        )
        exp = []
        for pairs in nn:
            w = np.array([1.0 / np.sqrt(d2) ** power for _, d2 in pairs])
            v = np.array([val[p] for p, _ in pairs])
            exp.append((w * v).sum() / w.sum())
        np.testing.assert_allclose(out["idw_value"], exp, rtol=1e-12)
