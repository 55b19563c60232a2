"""HLL + reservoir sampling tests."""

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray.stages import sketch


class TestHLL:
    def test_accuracy_within_bounds(self):
        # p=12 → relative error ~1.04/sqrt(4096) ≈ 1.6%
        for true_n in (1000, 50_000, 500_000):
            h = sketch.HLL(12)
            vals = np.arange(true_n, dtype=np.int64)
            h.add_hashes(sketch._hash64(vals))
            est = h.estimate()
            assert abs(est - true_n) / true_n < 0.06

    def test_merge_equals_union(self):
        a = sketch.HLL(12).add_hashes(sketch._hash64(np.arange(0, 30000)))
        b = sketch.HLL(12).add_hashes(sketch._hash64(np.arange(20000, 60000)))
        u = sketch.HLL(12).add_hashes(sketch._hash64(np.arange(0, 60000)))
        merged = a.merge(b)
        assert merged.estimate() == pytest.approx(u.estimate(), rel=1e-12)

    def test_serialize_roundtrip(self):
        h = sketch.HLL(10).add_hashes(sketch._hash64(np.arange(1000)))
        h2 = sketch.HLL.deserialize(h.serialize(), 10)
        assert h2.estimate() == h.estimate()

    def test_distributed(self, ray_session, sf_mid):
        import ray.data as rd

        ds = rd.read_parquet(f"{sf_mid}/lineitem.parquet", columns=["l_orderkey"])
        est = sketch.approx_count_distinct(ds, "l_orderkey")
        exact = len(ds.unique("l_orderkey"))
        assert abs(est - exact) / exact < 0.05

    def test_string_column(self):
        h = sketch.hash_any(pa.array(["a", "b", "a", None]))
        assert h[0] == h[2]
        assert h[0] != h[1]


def _loop_hash_any(arr, seed=0):
    """The per-row loop ``sketch.hash_any`` replaced, kept verbatim as
    the oracle for strings, binary and non-null integers."""
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    if pa.types.is_integer(arr.type):
        return sketch._hash64(arr.to_numpy(zero_copy_only=False), seed)
    # strings/binary: cheap per-row polynomial (hot path note: for pure
    # text ids prefer a precomputed fingerprint column)
    out = np.empty(len(arr), dtype=np.uint64)
    P = np.uint64(1099511628211)
    with np.errstate(over="ignore"):
        for i, v in enumerate(arr.to_pylist()):
            b = np.frombuffer((v or "").encode() if isinstance(v, str) else (v or b""),
                              dtype=np.uint8).astype(np.uint64)
            h = np.uint64(14695981039346656037 + seed)
            for chunk_start in range(0, len(b), 1 << 20):
                seg = b[chunk_start : chunk_start + (1 << 20)]
                pw = np.empty(len(seg), dtype=np.uint64)
                pw[0] = np.uint64(1)
                if len(seg) > 1:
                    pw[1:] = np.cumprod(np.full(len(seg) - 1, P, dtype=np.uint64))
                h = h * (P ** np.uint64(len(seg))) + (seg * pw[::-1]).sum(
                    dtype=np.uint64
                )
            out[i] = h
    return sketch._hash64(out, seed)


def _random_strings(rng, n):
    alphabet = "ab\u00e9\u6f22\U0001F600 z"
    return [None if rng.random() < 0.1 else
            "".join(rng.choice(list(alphabet), rng.integers(0, 12))) for _ in range(n)]


class TestHashAny:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_loop(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        monkeypatch.setattr(sketch, "_CHUNK", int(rng.integers(1, 64)))
        words = _random_strings(rng, int(rng.integers(0, 60)))
        blobs = [None if w is None else w.encode() + bytes(rng.integers(0, 256, 3, dtype=np.uint8))
                 for w in words]
        cut = int(rng.integers(0, len(words) + 1))
        cases = [
            pa.array(words),
            pa.array(words, pa.large_string()),
            pa.array(blobs, pa.binary()),
            pa.array(blobs, pa.large_binary()),
            pa.array(words).slice(cut),
            pa.chunked_array([pa.array(words[:cut], pa.string()), pa.array(words[cut:], pa.string())]),
            pa.array(rng.integers(-2**63, 2**63, 20, dtype=np.int64)),
            pa.array(rng.integers(0, 2**64, 20, dtype=np.uint64)),
        ]
        for arr in cases:
            np.testing.assert_array_equal(sketch.hash_any(arr, seed), _loop_hash_any(arr, seed))

    def test_long_rows(self, monkeypatch):
        rng = np.random.default_rng(1)
        big = bytes(rng.integers(0, 256, 3 * (1 << 20) + 5, dtype=np.uint8))
        arr = pa.array([b"x", big, None, b"", big[:1 << 20]])
        want = _loop_hash_any(arr, 3)
        np.testing.assert_array_equal(sketch.hash_any(arr, 3), want)
        monkeypatch.setattr(sketch, "_CHUNK", 1000)
        np.testing.assert_array_equal(sketch.hash_any(arr, 3), want)

    def test_null_slot_garbage(self):
        valid = pa.array([True, False, True]).buffers()[1]
        offsets = pa.py_buffer(np.array([0, 1, 4, 5], np.int32).tobytes())
        dirty = pa.Array.from_buffers(pa.string(), 3, [valid, offsets, pa.py_buffer(b"aXYZb")])
        np.testing.assert_array_equal(sketch.hash_any(dirty), _loop_hash_any(pa.array(["a", None, "b"])))

    def test_int_nulls_and_floats(self):
        h = sketch.hash_any(pa.array([2**60, 2**60 + 1, None, 0]))
        assert len(set(h.tolist())) == 4
        np.testing.assert_array_equal(
            h[[0, 1, 3]], _loop_hash_any(pa.array([2**60, 2**60 + 1, 0])))
        f = sketch.hash_any(pa.array([1.5, -0.0, 0.0, np.nan, float("-nan"), None, 2.5]))
        assert f[1] == f[2] and f[3] == f[4]
        assert len({f[0], f[1], f[3], f[5], f[6]}) == 5
        np.testing.assert_array_equal(
            sketch.hash_any(pa.array([1.5, None], pa.float32())), f[[0, 5]])
        with pytest.raises(TypeError):
            sketch.hash_any(pa.array([[1]]))

    @pytest.mark.parametrize("arr, ints", [
        (pa.array([True, False, None, True]), [1, 0, None, 1]),
        (pa.array([0, 18_000, None, -1], pa.date32()), [0, 18_000, None, -1]),
        (pa.array([0, 86_400_000, None, -5], pa.date64()),
         [0, 86_400_000, None, -5]),
        (pa.array([0, 1_600_000_000_000_000, None, -7], pa.timestamp("us")),
         [0, 1_600_000_000_000_000, None, -7]),
        (pa.array([0, 1_600_000_000, None, 2], pa.timestamp("s", "UTC")),
         [0, 1_600_000_000, None, 2]),
        (pa.array([0, 3_600, None, 59], pa.time32("s")), [0, 3_600, None, 59]),
        (pa.array([0, 10**9, None, 3], pa.time64("ns")), [0, 10**9, None, 3]),
        (pa.array([0, -10**6, None, 3], pa.duration("ms")),
         [0, -10**6, None, 3]),
    ])
    def test_bool_and_temporal_by_integer_view(self, arr, ints):
        # ogrsql DISTINCT partitions rows on every column type it holds
        want = sketch.hash_any(pa.array(ints, pa.int64()), 2)
        np.testing.assert_array_equal(sketch.hash_any(arr, 2), want)
        np.testing.assert_array_equal(
            sketch.hash_any(pa.chunked_array([arr[:1], arr[1:]]).slice(1), 2),
            want[1:])


class TestReservoir:
    def test_exact_size_and_determinism(self, ray_session, sf_small):
        import ray.data as rd

        ds = rd.read_parquet(f"{sf_small}/lineitem.parquet",
                             columns=["l_orderkey", "l_linenumber"])
        # composite unique key
        import pyarrow.compute as pc

        ds = ds.map_batches(
            lambda t: t.append_column(
                "rowkey",
                pc.add(pc.multiply(t["l_orderkey"], 10), pc.cast(t["l_linenumber"], pa.int64())),
            ),
            batch_format="pyarrow",
        )
        s1 = sketch.reservoir_sample(ds, 100, "rowkey", seed=7).to_pandas()
        s2 = sketch.reservoir_sample(ds, 100, "rowkey", seed=7).to_pandas()
        assert len(s1) == 100
        assert sorted(s1["rowkey"]) == sorted(s2["rowkey"])
        s3 = sketch.reservoir_sample(ds, 100, "rowkey", seed=8).to_pandas()
        assert sorted(s3["rowkey"]) != sorted(s1["rowkey"])

    def test_uniformity(self, ray_session):
        import ray.data as rd

        # sample 200 of 2000 over many seeds: each item's inclusion
        # frequency ≈ 10%
        t = pa.table({"k": pa.array(np.arange(2000, dtype=np.int64))})
        counts = np.zeros(2000)
        trials = 30
        for seed in range(trials):
            s = sketch.reservoir_sample(rd.from_arrow(t), 200, "k", seed=seed)
            counts[np.array(s.to_pandas()["k"])] += 1
        freq = counts / trials
        assert abs(freq.mean() - 0.1) < 1e-9  # exactly 200/2000 overall
        assert freq.std() < 0.08  # no pathological bias


def test_reservoir_sample_batch_size_invariant(ray_session):
    """The sample must be identical regardless of batch boundaries
    (round-2 ADVICE regression: the int64-cast merge sorted hashes
    >= 2^63 negative-first, so samples depended on batching)."""
    import ray.data as rd

    t = pa.table({"k": pa.array([f"item-{i}" for i in range(3000)])})
    got = {}
    for bs in (7, 250, 3000):
        ds = rd.from_arrow(t).map_batches(
            lambda b: b, batch_format="pyarrow", batch_size=bs
        )
        out = sketch.reservoir_sample(ds, 40, "k").to_pandas()
        got[bs] = sorted(out["k"].tolist())
        assert len(out) == 40
    assert got[7] == got[250] == got[3000]


class TestTDigest:
    def test_accuracy_normal(self):
        import numpy as np

        from gdal_ray.stages.sketch import TDigest

        rng = np.random.default_rng(1)
        x = rng.normal(100, 15, 200_000)
        t = TDigest(200.0)
        for chunk in np.array_split(x, 40):
            t.add(chunk)
        for q in (0.01, 0.5, 0.99):
            exact = np.quantile(x, q)
            assert abs(t.quantile(q) - exact) / abs(exact) < 0.01, q
        assert len(t.means) <= 200

    def test_merge_matches_single(self):
        import numpy as np

        from gdal_ray.stages.sketch import TDigest

        rng = np.random.default_rng(2)
        x = rng.exponential(3.0, 100_000)
        acc = TDigest(300.0)
        for c in np.array_split(x, 16):
            acc.merge(TDigest(300.0).add(c))
        for q in (0.1, 0.5, 0.9, 0.99):
            exact = np.quantile(x, q)
            assert abs(acc.quantile(q) - exact) / abs(exact) < 0.02, q

    def test_serialize_roundtrip_and_edges(self):
        import numpy as np

        from gdal_ray.stages.sketch import TDigest

        t = TDigest(100.0).add(np.array([5.0]))
        assert t.quantile(0.5) == 5.0
        r = TDigest.deserialize(t.serialize(), 100.0)
        assert r.quantile(0.99) == 5.0
        assert np.isnan(TDigest(100.0).quantile(0.5))
        # nan/inf inputs filtered
        t2 = TDigest(100.0).add(np.array([np.nan, np.inf, 1.0, 3.0]))
        assert 1.0 <= t2.quantile(0.5) <= 3.0

    def test_distributed_approx_quantiles(self, ray_session):
        import numpy as np
        import pyarrow.parquet as pq

        from gdal_ray.stages.sketch import approx_quantiles
        import ray.data as rd

        sf = "/root/testdata/sf0.001"
        ds = rd.read_parquet(f"{sf}/lineitem.parquet",
                             columns=["l_extendedprice"])
        got = approx_quantiles(ds, "l_extendedprice", [0.5, 0.9])
        x = pq.read_table(f"{sf}/lineitem.parquet",
                          columns=["l_extendedprice"])[
            "l_extendedprice"].to_numpy()
        for g, q in zip(got, (0.5, 0.9)):
            exact = np.quantile(x, q)
            assert abs(g - exact) / abs(exact) < 0.02, (q, g, exact)
