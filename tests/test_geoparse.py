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


def _coord_pages(lat, lon) -> pa.Table:
    """Pages whose text carries the given 4-dp coordinates; a NaN
    pair becomes a page without coordinates."""
    text = [
        "no coordinates here" if np.isnan(y) else f"seen at {y:.4f},{x:.4f} today"
        for y, x in zip(lat, lon)
    ]
    url = [f"https://site.example/{i}" for i in range(len(text))]
    return pa.table(
        {"url": pa.array(url, pa.string()), "text": pa.array(text, pa.string())}
    )


def _fused_cases():
    rng = np.random.default_rng(14)
    gaz = fixtures.gen_pages(9000).select(["url", "text"])
    txt = gaz["text"].to_pylist()
    for i in range(0, len(txt), 97):
        txt[i] = "no coordinates here"
    n = 5000  # 80 % global uniform, 20 % one hot cluster
    hot = rng.random(n) < 0.2
    lon = np.where(hot, 106.8 + rng.normal(0, 0.5, n), rng.uniform(-180, 180, n))
    lat = np.where(hot, -6.2 + rng.normal(0, 0.5, n), rng.uniform(-85, 85, n))
    zeros = [0.0, -0.0, 0.0, -0.0, 10.0, -10.0]
    return {
        "empty": _coord_pages([], []),
        "one_row": fixtures.gen_pages(1).select(["url", "text"]),
        "500_rows": fixtures.gen_pages(500),  # every page column passes through
        "all_nan": _coord_pages([np.nan] * 300, [np.nan] * 300),
        "gazetteer_nan_mixed": gaz.set_column(1, "text", pa.array(txt)),
        "continuous": _coord_pages(lat, lon),
        # x = 0 is the shared edge of two admin boxes
        "signed_zero": _coord_pages(zeros * 2, [-0.0, 0.0] * 3 + [0.0, -0.0] * 3),
    }


class TestFusedDictionaryPath:
    """The fused kernel (one coordinate dictionary, one path) equals
    the public stages applied directly to every row, in both emit
    modes. In-process: the broadcast state is passed as tables."""

    @pytest.fixture(scope="class")
    def runs(self):
        from gdal_ray.pipelines.flagship import (
            encode_cells,
            encode_tiles,
            fused_geotag_pip,
        )
        from gdal_ray.stages import cache
        from gdal_ray.stages.join import PIPJoiner
        from gdal_ray.stages.knn import GridKNNFeatures

        cache._CACHE.clear()
        bnd, ref = fixtures.gen_boundaries(), fixtures.gen_ref_points(500)
        pip = PIPJoiner(bnd, id_cols=("admin_id",))
        knn = GridKNNFeatures(ref)
        out = {}
        for name, batch in _fused_cases().items():
            direct = pip(knn(encode_cells(encode_tiles(extract_coords(batch)))))
            out[name] = (
                batch,
                direct,
                fused_geotag_pip(batch, bnd_ref=bnd, knn_ref=ref, emit="rows"),
                fused_geotag_pip(batch, bnd_ref=bnd, knn_ref=ref),
            )
        yield out
        cache._CACHE.clear()

    def test_rows_match_direct(self, runs):
        for name, (batch, direct, rows, _) in runs.items():
            assert rows.schema == direct.schema, name
            assert rows.equals(direct), name
        # x = 0 is the shared edge of two admin boxes: every signed-zero
        # row lies in a box or on its edge
        batch, direct = runs["signed_zero"][:2]
        assert len(set(direct["url"].to_pylist())) == len(batch)

    def test_partials_match_direct(self, runs):
        for name, (_, direct, _, parts) in runs.items():
            counts = (
                direct.group_by("admin_id")
                .aggregate([([], "count_all")])
                .rename_columns(["admin_id", "partial_count"])
            )
            assert parts.column_names == ["admin_id", "partial_count"], name
            assert (
                parts.sort_by("admin_id").to_pylist()
                == counts.sort_by("admin_id").to_pylist()
            ), name


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
