"""Geoparse + fixtures + flagship pipeline tests."""

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray import fixtures
from gdal_ray.geoparse import (
    GAZETTEER,
    GazetteerGeoparser,
    extract_coords,
    gazetteer_table,
)


def test_gazetteer_shape():
    t = gazetteer_table()
    assert t.num_rows == 64
    lon = t["lon"].to_numpy()
    lat = t["lat"].to_numpy()
    assert (np.abs(lon) < 180).all()
    assert (np.abs(lat) < 85.05112878).all()
    assert len(set(t["place"].to_pylist())) == 64


def test_extract_coords_exact_inversion():
    pages = fixtures.gen_pages(1000)
    out = extract_coords(pages)
    assert out["has_coords"].to_pandas().all()
    # text embeds 4-dp coords; extraction must round-trip those exactly
    lat = out["lat"].to_numpy()
    lon = out["lon"].to_numpy()
    i = np.arange(1000)
    pidx = np.where(i % 5 == 0, 0, i % 64)
    exp_lon = np.round([GAZETTEER[int(k)][1] for k in pidx], 4)
    exp_lat = np.round([GAZETTEER[int(k)][2] for k in pidx], 4)
    np.testing.assert_array_equal(lon, exp_lon)
    np.testing.assert_array_equal(lat, exp_lat)
    # text is byte-identical passthrough
    assert out["text"].to_pylist() == pages["text"].to_pylist()


def test_extract_coords_no_match():
    t = pa.table({"text": ["no coordinates here", None, "at 12.3456,65.4321 ok"]})
    out = extract_coords(t)
    assert out["has_coords"].to_pylist() == [False, False, True]
    assert np.isnan(out["lat"].to_numpy()[0])
    assert out["lat"].to_numpy()[2] == 12.3456


def test_gazetteer_geoparser_matches():
    g = GazetteerGeoparser()
    t = pa.table(
        {"text": ["storm over Tokyo today", "nothing", "Kuala Lumpur flood"]}
    )
    out = g(t)
    assert out["place"].to_pylist() == ["Tokyo", None, "Kuala Lumpur"]
    lon = out["place_lon"].to_numpy()
    assert lon[0] == pytest.approx(139.6917)
    assert np.isnan(lon[1])
    assert lon[2] == pytest.approx(101.6869)


def test_pages_fixture_determinism_and_skew():
    a = fixtures.gen_pages(500)
    b = fixtures.gen_pages_range(0, 500)
    assert a.equals(b)
    # ~20% hot-city skew (i%5==0 plus the natural i%64==0 cycle hits)
    hot = sum("Jakarta" in t for t in a["text"].to_pylist())
    i = np.arange(500)
    expected_hot = int(((i % 5 == 0) | (i % 64 == 0)).sum())
    assert hot == expected_hot
    assert hot >= 100
    # urls unique
    assert len(set(a["url"].to_pylist())) == 500
    assert a["warc_ts"].type == pa.timestamp("us")


def test_boundaries_fixture():
    b = fixtures.gen_boundaries()
    assert b.num_rows == 100
    assert b.schema.field("geometry").metadata[b"ARROW:extension:name"] == b"ogc.wkb"
    from gdal_ray.geom import wkb as gwkb

    g = gwkb.parse(b["geometry"][0].as_py())
    assert g["type"] == gwkb.POLYGON
    ring = g["rings"][0]
    assert len(ring) == 5
    assert (ring[0] == ring[-1]).all()


def test_ref_points_fixture():
    p = fixtures.gen_ref_points(100)
    lon = p["lon"].to_numpy()
    lat = p["lat"].to_numpy()
    assert ((lon >= -80) & (lon <= 80)).all()
    assert ((lat >= -60) & (lat <= 60)).all()
    # Halton: first point (i=0 → halton index 1) is (1/2, 1/3) scaled
    assert lon[0] == pytest.approx(-80 + 160 * 0.5)
    assert lat[0] == pytest.approx(-60 + 120 * (1 / 3))


def test_flagship_smoke(ray_session, sf_small):
    from gdal_ray.pipelines import flagship

    ds = flagship.flagship(sf_small)
    t = ds.take_batch(50, batch_format="pyarrow")
    names = set(t.schema.names)
    assert {"url", "lon", "lat", "tile_z9_x", "tile_z9_y", "tile_id"} <= names
    # every derived page geoparses
    assert t["has_coords"].to_pandas().all()
    counts = flagship.tile_counts(flagship.flagship(sf_small)).to_pandas()
    assert counts["n_pages"].sum() == 500  # sf0.001 documents rows
    assert (counts["n_pages"] >= 1).all()


class TestFusedDictionaryPath:
    """The fused kernel's unique-coordinate fast path must be
    value-identical to the direct path (rows and partials)."""

    def _mk_batch(self, n=9000, with_nan=False):
        import pyarrow as pa

        from gdal_ray import fixtures

        t = fixtures.gen_pages(n).select(["url", "warc_ts", "text", "lang"])
        if with_nan:
            # poison some rows so extract_coords yields NaN coords
            txt = t["text"].to_pylist()
            for i in range(0, n, 97):
                txt[i] = "no coordinates here"
            t = t.set_column(
                t.schema.get_field_index("text"), "text", pa.array(txt)
            )
        return t

    def _run(self, batch, emit, monkeypatch_ratio=None):
        import ray

        from gdal_ray import fixtures
        from gdal_ray.pipelines import flagship
        from gdal_ray.stages import cache

        cache._CACHE.clear()
        bnd = ray.put(fixtures.gen_boundaries())
        knn = ray.put(fixtures.gen_ref_points(500))
        old = flagship._FACTORIZE_MAX_RATIO
        if monkeypatch_ratio is not None:
            flagship._FACTORIZE_MAX_RATIO = monkeypatch_ratio
        try:
            return flagship.fused_geotag_pip(
                batch, bnd_ref=bnd, knn_ref=knn, emit=emit
            )
        finally:
            flagship._FACTORIZE_MAX_RATIO = old
            cache._CACHE.clear()

    def test_partials_match_direct(self, ray_session):
        for with_nan in (False, True):
            batch = self._mk_batch(with_nan=with_nan)
            fast = self._run(batch, "admin_partials").to_pandas()
            # ratio 10**9 forces the cardinality guard -> direct path
            slow = self._run(batch, "admin_partials", 10**9).to_pandas()
            f = fast.sort_values("admin_id").reset_index(drop=True)
            s = (
                slow.groupby("admin_id", as_index=False)["partial_count"]
                .sum()
                .sort_values("admin_id")
                .reset_index(drop=True)
            )
            assert f.equals(s)

    def test_rows_match_direct(self, ray_session):
        for with_nan in (False, True):
            batch = self._mk_batch(n=8192, with_nan=with_nan)
            fast = self._run(batch, "rows").to_pandas()
            slow = self._run(batch, "rows", 10**9).to_pandas()
            assert sorted(fast.columns) == sorted(slow.columns)
            key = ["url", "admin_id"]
            f = fast.sort_values(key).reset_index(drop=True)
            s = slow[fast.columns].sort_values(key).reset_index(drop=True)
            assert len(f) == len(s)
            assert f.equals(s)

    def test_small_batch_uses_direct_path(self, ray_session):
        from gdal_ray.pipelines import flagship
        import numpy as np

        # < 1024 rows: factorize declines
        assert flagship._factorize_coords(np.zeros(10), np.zeros(10)) is None


def test_admin_rollup_matches_groupby(ray_session):
    """The bench rollup (scan + task combine + driver fold) equals a
    plain groupby-sum over the same partials."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data.aggregate import Sum

    from gdal_ray import fixtures
    from gdal_ray.pipelines import flagship
    from gdal_ray.stages import cache

    bnd = ray.put(fixtures.gen_boundaries())
    t = fixtures.gen_pages(5000).select(["text"])

    def part(b):
        return flagship.fused_geotag_pip(b, bnd_ref=bnd, knn_ref=None)

    parts = rd.from_items(
        [{"i": i} for i in range(6)], override_num_blocks=6
    ).map_batches(lambda b: part(t), batch_format="pyarrow", batch_size=None)
    got = (
        flagship.admin_rollup(parts)
        .to_pandas()
        .sort_values("admin_id")
        .reset_index(drop=True)
    )
    want = (
        parts.groupby("admin_id", num_partitions=2)
        .aggregate(Sum("partial_count", alias_name="n_pages"))
        .to_pandas()
        .sort_values("admin_id")
        .reset_index(drop=True)
    )
    assert got.equals(want)
    cache._CACHE.clear()
