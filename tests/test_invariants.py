"""Property-based invariant suite — the engine's `test_ogrsf`
(apps/test_ogrsf.cpp is the reference's generic contract checker;
SURVEY.md §5 "property-based in spirit"). Hypothesis drives the pure
kernels; Dataset-level contracts get example-based checks.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gdal_ray import tiles
from gdal_ray.cells import hexgrid, s2
from gdal_ray.geom import ops as gops
from gdal_ray.proj import webmercator
from gdal_ray.proj.transverse_mercator import utm
from gdal_ray.raster import checksum, model

lon_st = st.floats(-180.0, 180.0, allow_nan=False)
lat_st = st.floats(tiles.MIN_LAT + 1e-9, tiles.MAX_LAT - 1e-9, allow_nan=False)
zoom_st = st.integers(0, 18)

SET = settings(max_examples=60, deadline=None)


class TestTileInvariants:
    @SET
    @given(lon_st, lat_st, zoom_st)
    def test_tile_bounds_contain_point(self, lon, lat, z):
        tx, ty = tiles.lonlat_to_tile(lon, lat, z)
        minx, miny, maxx, maxy = tiles.tile_bounds(tx, ty, z)
        mx, my = tiles.lonlat_to_meters(lon, lat)
        # ceil-1 rule: point lies in [min, max] of its tile (closed,
        # boundary points sit on the shared edge)
        assert minx - 1e-6 <= mx <= maxx + 1e-6
        assert miny - 1e-6 <= my <= maxy + 1e-6

    @SET
    @given(lon_st, lat_st, zoom_st)
    def test_xyz_flip_involution_and_range(self, lon, lat, z):
        tx, ty = tiles.lonlat_to_xyz_tile(lon, lat, z)
        assert -1 <= tx <= (1 << z)
        assert -1 <= ty <= (1 << z)
        assert tiles.xyz_to_tms(tiles.tms_to_xyz(ty, z), z) == ty

    @SET
    @given(st.integers(0, 29), st.integers(0, 2**29 - 1), st.integers(0, 2**29 - 1))
    def test_tile_id_bijection(self, z, x, y):
        z2, x2, y2 = tiles.tile_id_unpack(tiles.tile_id(z, x, y))
        assert (int(z2), int(x2), int(y2)) == (z, x, y)


class TestProjInvariants:
    @SET
    @given(lon_st, lat_st)
    def test_webmercator_roundtrip(self, lon, lat):
        x, y, ok = webmercator.forward(lon, lat)
        assert ok
        lon2, lat2, ok2 = webmercator.inverse(x, y)
        assert ok2
        assert abs(float(lon2) - lon) < 1e-9
        assert abs(float(lat2) - lat) < 1e-9

    @SET
    @given(st.floats(-6.0, 6.0), st.floats(-80.0, 84.0))
    def test_utm_roundtrip_in_zone(self, dlon, lat):
        p = utm(31)  # lon0=3
        x, y, ok = p.forward(np.array([3.0 + dlon]), np.array([lat]))
        assert ok.all()
        lon2, lat2, ok2 = p.inverse(x, y)
        assert ok2.all()
        assert abs(float(lon2) - (3.0 + dlon)) < 1e-8
        assert abs(float(lat2) - lat) < 1e-8


class TestCellInvariants:
    @SET
    @given(lon_st, st.floats(-89.0, 89.0), st.integers(1, 29))
    def test_s2_parent_contains_child(self, lon, lat, lvl):
        child = s2.lonlat_to_cell(lon, lat, lvl)
        parent = s2.lonlat_to_cell(lon, lat, lvl - 1)
        assert s2.parent(child, lvl - 1) == parent
        assert s2.range_min(parent) <= child <= s2.range_max(parent)
        assert int(s2.level(child)) == lvl

    @SET
    @given(lon_st, lat_st, st.integers(0, 12))
    def test_hex_center_roundtrip(self, lon, lat, res):
        c = hexgrid.lonlat_to_cell(lon, lat, res)
        lon2, lat2 = hexgrid.cell_to_lonlat(c)
        assert hexgrid.lonlat_to_cell(lon2, lat2, res) == c


class TestGeomInvariants:
    @SET
    @given(
        st.lists(
            st.tuples(st.floats(-100, 100, allow_subnormal=False),
                      st.floats(-100, 100, allow_subnormal=False)),
            min_size=3, max_size=12,
        ),
        st.floats(0.1, 50.0),
    )
    def test_simplify_keeps_endpoints_and_shrinks(self, pts, tol):
        coords = np.array(pts, dtype=np.float64)
        out = gops.simplify_coords(coords, tol)
        assert (out[0] == coords[0]).all()
        assert (out[-1] == coords[-1]).all()
        assert len(out) <= len(coords)

    @SET
    @given(
        st.lists(
            st.tuples(st.floats(-100, 100, allow_subnormal=False),
                      st.floats(-100, 100, allow_subnormal=False)),
            min_size=2, max_size=8,
        ),
        st.floats(0.5, 20.0),
    )
    def test_segmentize_respects_max_length(self, pts, maxlen):
        coords = np.array(pts, dtype=np.float64)
        out = gops.segmentize_coords(coords, maxlen)
        d = np.diff(out, axis=0)
        seg = np.hypot(d[:, 0], d[:, 1])
        assert (seg <= maxlen + 1e-9).all()
        assert (out[0] == coords[0]).all() and (out[-1] == coords[-1]).all()

    @SET
    @given(
        st.floats(-50, 40), st.floats(-50, 40), st.floats(1.0, 40.0),
        st.floats(1.0, 40.0),
    )
    def test_clip_area_bounds(self, x0, y0, w, h):
        # clip a fixed triangle by a random box: |result| <= min areas
        tri = np.array([[0, 0], [60, 0], [0, 60], [0, 0]], float)
        out = gops.clip_polygon_bbox(tri, x0, y0, x0 + w, y0 + h)
        tri_area = abs(gops.ring_area(tri))
        if len(out):
            a = abs(gops.ring_area(out))
            assert a <= min(tri_area, w * h) + 1e-6

    @SET
    @given(st.lists(st.tuples(st.floats(-10, 10, allow_subnormal=False),
                              st.floats(-10, 10, allow_subnormal=False)),
                    min_size=3, max_size=20))
    def test_convex_hull_contains_points(self, pts):
        # containment up to boundary tolerance: double (non-robust)
        # predicates can put a point 1 ulp outside a hull edge it
        # defines — allowed precision domain
        arr = np.array(pts, dtype=np.float64)
        hull = gops.convex_hull(arr)
        if len(hull) < 4:
            return
        from gdal_ray.geom.predicates import PolygonEdges

        edges = PolygonEdges([hull])
        inside = edges.contains_points(arr[:, 0], arr[:, 1])
        for k in np.flatnonzero(~inside):
            p = arr[k]
            d2min = np.inf
            for i in range(len(hull) - 1):
                a, b = hull[i], hull[i + 1]
                seg = b - a
                L2 = seg @ seg
                t = 0.0 if L2 == 0 else np.clip((p - a) @ seg / L2, 0, 1)
                proj = a + t * seg
                d2min = min(d2min, (p - proj) @ (p - proj))
            assert d2min < 1e-18  # within ~1e-9 of the boundary


class TestChecksumInvariants:
    @SET
    @given(
        st.integers(1, 40), st.integers(1, 40), st.integers(1, 17),
        st.integers(0, 2**32 - 1),
    )
    def test_tiling_invariance(self, h, w, ts, seed):
        rng = np.random.default_rng(seed)
        arr = rng.integers(0, 256, (h, w)).astype(np.uint8)
        whole = checksum.checksum_array(arr)
        t = model.from_array(arr, "EPSG:4326", (0, 1, 0, 0, 0, -1), tile_size=ts)
        assert checksum.checksum_dataset(t) == whole


class TestDatasetContracts:
    """test_ogrsf-style contracts over the Dataset API (example-based:
    Ray runs are too slow for hypothesis)."""

    def test_filter_complement_partitions_count(self, ray_session, sf_small):
        import pyarrow.compute as pc
        import ray.data as rd

        ds = rd.read_parquet(f"{sf_small}/lineitem.parquet",
                             columns=["l_quantity"])
        total = ds.count()
        p = ds.map_batches(
            lambda t: t.filter(pc.greater(t["l_quantity"], 25.0)),
            batch_format="pyarrow",
        ).count()
        np_ = ds.map_batches(
            lambda t: t.filter(pc.less_equal(t["l_quantity"], 25.0)),
            batch_format="pyarrow",
        ).count()
        assert p + np_ == total

    def test_pushdown_equivalence(self, ray_session, sf_small):
        import pyarrow.compute as pc
        import ray.data as rd

        pushed = rd.read_parquet(
            f"{sf_small}/orders.parquet",
            columns=["o_orderkey", "o_totalprice"],
            filter=(pc.field("o_totalprice") > 200000.0),
        ).count()
        mapped = rd.read_parquet(
            f"{sf_small}/orders.parquet", columns=["o_orderkey", "o_totalprice"]
        ).map_batches(
            lambda t: t.filter(pc.greater(t["o_totalprice"], 200000.0)),
            batch_format="pyarrow",
        ).count()
        assert pushed == mapped

    def test_schema_stability_through_stages(self, ray_session, sf_small):
        from gdal_ray.pipelines import flagship

        ds = flagship.flagship(sf_small)
        s1 = ds.schema().names
        # consuming twice yields identical schema + count
        assert ds.count() == ds.count()
        assert flagship.flagship(sf_small).schema().names == s1


class TestRepetitionStats:
    """Gopher-style repetition quality signals (stages/text.py)."""

    def _stats(self, text):
        import pyarrow as pa

        from gdal_ray.stages.text import repetition_stats

        t = repetition_stats(pa.table({"text": [text]}))
        return {c: t[c][0].as_py() for c in
                ("dup_line_frac", "dup_line_char_frac",
                 "top2gram_frac", "dup5gram_frac")}

    def test_clean_text(self):
        s = self._stats("alpha beta gamma delta epsilon zeta eta theta")
        assert s["dup_line_frac"] == 0.0
        assert s["dup5gram_frac"] == 0.0

    def test_duplicate_lines(self):
        s = self._stats("same line\nsame line\nsame line\nother")
        assert abs(s["dup_line_frac"] - 0.5) < 1e-12
        dup_chars = 2 * len("same line")
        total = len("same line\nsame line\nsame line\nother")
        assert abs(s["dup_line_char_frac"] - dup_chars / total) < 1e-12

    def test_top2gram(self):
        # "ab cd" appears 3x out of 5 bigram slots
        s = self._stats("ab cd ab cd ab cd")
        # chars covered: 3 * (2+2) = 12 of 12 total word chars
        assert abs(s["top2gram_frac"] - 1.0) < 1e-12

    def test_dup5gram_full_repeat(self):
        words = "a b c d e " * 4
        s = self._stats(words.strip())
        assert s["dup5gram_frac"] == 1.0

    def test_empty_and_short(self):
        assert self._stats("")["top2gram_frac"] == 0.0
        assert self._stats("one")["dup5gram_frac"] == 0.0

    def test_batch_over_documents(self, ray_session):
        import ray.data as rd

        from gdal_ray.stages.text import repetition_stats

        ds = rd.read_parquet("/root/testdata/sf0.001/documents.parquet",
                             columns=["doc_id", "text"])
        out = ds.map_batches(repetition_stats,
                             batch_format="pyarrow").to_pandas()
        assert len(out) == 500
        for c in ("dup_line_frac", "top2gram_frac", "dup5gram_frac"):
            assert ((out[c] >= 0) & (out[c] <= 1)).all()


class TestParagraphDedup:
    """C4/CCNet cross-document paragraph dedup (stages/dedup.py) —
    verified against a DuckDB window-function oracle."""

    def test_synthetic(self, ray_session):
        import pyarrow as pa
        import ray.data as rd

        from gdal_ray.stages.dedup import dedup_paragraphs

        docs = pa.table({
            "doc_id": pa.array(range(1, 15), pa.int64()),
            "text": [
                "alpha\nshared boilerplate\nbeta",
                "shared boilerplate\ngamma\n\ndelta",
                "gamma\nshared boilerplate\nalpha",
                None,
                "\n\n",
                "alpha\n\nbeta",
            ] + [f"hot footer\nbody {i}" for i in range(7, 15)],
        })
        # two blocks: the null sits in a different batch from most rows
        out = dedup_paragraphs(
            rd.from_arrow([docs.slice(0, 4), docs.slice(4)])).to_pandas() \
            .set_index("doc_id")["text"].to_dict()
        # first occurrences: doc1 keeps everything; doc2 loses the
        # boilerplate but keeps gamma + the empty line; doc3 loses
        # every paragraph and drops out of the corpus entirely
        assert out[1] == "alpha\nshared boilerplate\nbeta"
        assert out[2] == "gamma\n\ndelta"
        assert 3 not in out
        # a null text is one empty paragraph; empty paragraphs always
        # survive, so doc5 keeps its three and doc6 keeps only its
        # empty line
        assert out[4] == ""
        assert out[5] == "\n\n"
        assert out[6] == ""
        # the hot paragraph (8 of 14 docs) survives only in doc7
        assert out[7] == "hot footer\nbody 7"
        assert all(out[i] == f"body {i}" for i in range(8, 15))
        assert len(out) == 13

    def test_oracle_over_documents(self, ray_session):
        import duckdb
        import ray.data as rd

        from gdal_ray.stages.dedup import dedup_paragraphs

        sf = "/root/testdata/sf0.001"
        ds = rd.read_parquet(f"{sf}/documents.parquet",
                             columns=["doc_id", "text"])
        got = dedup_paragraphs(ds).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

        con = duckdb.connect()
        ora = con.execute(f"""
            WITH pars AS (
              SELECT doc_id, i AS idx,
                     list_extract(string_split(text, chr(10)), i) AS par
              FROM read_parquet('{sf}/documents.parquet'),
                   UNNEST(generate_series(
                     1, len(string_split(text, chr(10))))) AS t(i)
            ), marked AS (
              SELECT *, (par = '' OR ROW_NUMBER() OVER (
                 PARTITION BY par ORDER BY doc_id, idx) = 1) AS keep
              FROM pars
            )
            SELECT doc_id,
                   string_agg(par, chr(10) ORDER BY idx) AS text
            FROM marked WHERE keep GROUP BY doc_id ORDER BY doc_id
        """).fetchdf()
        assert len(got) == len(ora)
        assert (got["doc_id"].to_numpy() == ora["doc_id"].to_numpy()).all()
        assert (got["text"].fillna("").to_numpy()
                == ora["text"].fillna("").to_numpy()).all()
