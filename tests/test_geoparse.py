"""Geoparse + fixtures + flagship pipeline tests."""

import re
from unittest import mock

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gdal_ray import fixtures, geoparse
from gdal_ray.geoparse import (
    COORD_PATTERN,
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


def _regex_coords(text):
    """lon, lat, has_coords of the leftmost COORD_PATTERN match, by
    the regex alone: the strings cast to float64, NaN for a miss."""
    ext = pc.extract_regex(text, COORD_PATTERN)
    nan = pa.scalar(float("nan"), pa.float64())
    lat = pc.cast(pc.struct_field(ext, "lat"), pa.float64())
    lon = pc.cast(pc.struct_field(ext, "lon"), pa.float64())
    return pc.coalesce(lon, nan), pc.coalesce(lat, nan), pc.is_valid(lat)


def _bits(col) -> np.ndarray:
    return col.to_numpy().view(np.uint64)


_DIGITS = "0123456789"


def _number(int_digits: tuple[int, int], decimals: tuple[int, int]):
    """Numbers with a sign, no sign or a "--" run, and digit counts in
    the given ranges."""
    return st.builds(
        lambda sign, i, f: f"{sign}{i}.{f}",
        st.sampled_from(["", "-", "--"]),
        st.text(_DIGITS, min_size=int_digits[0], max_size=int_digits[1]),
        st.text(_DIGITS, min_size=decimals[0], max_size=decimals[1]),
    )


_PIECES = st.one_of(
    # matches, but for a "--" run
    st.tuples(_number((1, 2), (4, 4)), _number((1, 3), (4, 6))).map(",".join),
    # pairs near the pattern's edges
    st.tuples(_number((0, 3), (3, 5)), _number((0, 4), (3, 6))).map(",".join),
    _number((0, 4), (3, 6)),
    # short runs of the pattern's alphabet: as a row of their own they
    # sit next to a neighbour's match
    st.text(_DIGITS + ".,-", min_size=1, max_size=4),
    st.sampled_from([
        ",", ",,", "-", ".", " ", "x", "é", "中", "\u0660",
        "123.4567,", "1,1234.5678", "-0.0000", "-0.0000,-0.0000",
        "12.3456,-123.45678",
    ]),
)
_TEXT = _PIECES | st.lists(_PIECES, max_size=6).map("".join)
_ROWS = st.lists(st.none() | _TEXT, max_size=30)


@settings(max_examples=400, deadline=None)
@given(
    rows=_ROWS,
    lead=st.lists(st.none() | _TEXT, max_size=3),
    trail=st.lists(st.none() | _TEXT, max_size=3),
    large=st.booleans(),
    cuts=st.lists(st.integers(0, 30), max_size=3),
    block=st.integers(1, 7),
)
# a neighbouring row's digits or sign must not extend a match
@example(rows=["a 1.2345,12", "3.4567 b", "-", "1.2345,1.2345", "9",
               ".1234,5.6789", "-1.2345,-", "1.2345"],
         lead=["7"], trail=["8"], large=False, cuts=[], block=7)
# the first comma is no match; a later one is
@example(rows=["1,1234.5678 2.3456,7.8901", "123.4567,", "x,-0.0000,-0.0000"],
         lead=[], trail=[], large=True, cuts=[1], block=2)
# longitudes with 1, 2 and 3 integer digits, either sign
@example(rows=["5.5555,5.5555", "-55.5555,-55.5555", "5.5555,555.55555x",
               "-5.5555,-555.5555"],
         lead=[], trail=[], large=False, cuts=[2], block=3)
def test_anchored_parse_matches_regex(rows, lead, trail, large, cuts, block):
    """extract_coords equals the regex path bit for bit on strings
    built around the pattern's edges: sliced, chunked, string and
    large_string input, nulls and empty strings, in row blocks of 1-7
    rows so that block boundaries fall between every kind of row."""
    typ = pa.large_string() if large else pa.string()
    arr = pa.array(lead + rows + trail, typ).slice(len(lead), len(rows))
    bounds = [0, *sorted(min(c, len(rows)) for c in cuts), len(rows)]
    text = pa.chunked_array(
        [arr.slice(a, b - a) for a, b in zip(bounds, bounds[1:])], typ
    )
    with mock.patch.object(geoparse, "_BLOCK_ROWS", block), mock.patch.object(
        geoparse, "_regex_coords", wraps=geoparse._regex_coords
    ) as regex:
        out = extract_coords(pa.table({"text": text}))
    lon, lat, has = _regex_coords(text)
    np.testing.assert_array_equal(_bits(out["lon"]), _bits(lon))
    np.testing.assert_array_equal(_bits(out["lat"]), _bits(lat))
    assert out["has_coords"].to_pylist() == has.to_pylist()
    assert out["text"].equals(text)
    # the regex sees exactly the rows that hold a comma but whose
    # leftmost match (if any) is not at the first one
    leftmost = re.compile(COORD_PATTERN.replace(r"\d", "[0-9]"))
    retried = 0
    for t in rows:
        if t is not None and "," in t:
            m = leftmost.search(t)
            retried += m is None or m.start("lon") - 1 != t.index(",")
    assert sum(len(c.args[0]) for c in regex.call_args_list) == retried


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
