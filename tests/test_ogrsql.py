"""OGR SQL dialect tests: parsed SELECTs over Ray Datasets must match
DuckDB running the identical statement on the identical table."""

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from gdal_ray import ogrsql


@pytest.fixture(scope="module")
def table():
    rng = np.random.default_rng(11)
    n = 2000
    return pa.table(
        {
            "id": pa.array(np.arange(n, dtype=np.int64)),
            "grp": pa.array(rng.integers(0, 5, n)),
            "val": pa.array(np.round(rng.uniform(0, 100, n), 2)),
            "name": pa.array(
                [f"item-{i % 37:03d}" for i in range(n)]
            ),
        }
    )


def run_both(sql, table, ray_session):
    import ray.data as rd

    got = ogrsql.execute(sql, {"t": rd.from_arrow(table)}).to_pandas()
    con = duckdb.connect()
    con.register("t", table)
    want = con.execute(sql).fetch_df()
    got = got[sorted(got.columns)].sort_values(
        sorted(got.columns), kind="mergesort"
    ).reset_index(drop=True)
    want = want[sorted(want.columns)].sort_values(
        sorted(want.columns), kind="mergesort"
    ).reset_index(drop=True)
    assert list(got.columns) == list(want.columns), (got.columns, want.columns)
    assert len(got) == len(want), sql
    for c in got.columns:
        g = got[c]
        w = want[c]
        if g.dtype.kind == "f" or w.dtype.kind == "f":
            assert np.allclose(
                g.astype(float), w.astype(float), rtol=1e-9, equal_nan=True
            ), (sql, c)
        else:
            assert (g.astype(w.dtype) == w).all(), (sql, c)
    return got


QUERIES = [
    "SELECT id, val FROM t WHERE val > 50.0",
    "SELECT id, val * 2.0 AS dbl, name FROM t WHERE grp = 3 AND val < 20",
    "SELECT UPPER(name) AS uname, id FROM t WHERE name LIKE 'item-00%'",
    "SELECT id FROM t WHERE grp IN (1, 3) AND val BETWEEN 10 AND 20",
    "SELECT grp, COUNT(*) AS n, SUM(val) AS s, MIN(val) AS mn, "
    "MAX(val) AS mx FROM t GROUP BY grp",
    "SELECT grp, AVG(val) AS avg_val FROM t WHERE id < 500 GROUP BY grp",
    "SELECT COUNT(*) AS n FROM t WHERE NOT (grp = 2)",
    "SELECT DISTINCT grp FROM t",
    "SELECT id, val FROM t ORDER BY val DESC, id LIMIT 10",
    "SELECT CAST(val AS INTEGER) AS vi, id FROM t WHERE id < 50",
    "SELECT SUBSTR(name, 1, 4) AS pre, id FROM t WHERE id < 20",
    "SELECT id + grp * 100 AS key2 FROM t WHERE val >= 99.0",
    "SELECT SUM(val * val) AS ss FROM t",
    # DISTINCT combined with aggregation (ADVICE r2: was silently
    # dropped in the aggregate path)
    "SELECT DISTINCT COUNT(*) AS n FROM t GROUP BY grp",
    "SELECT DISTINCT grp, COUNT(*) AS n FROM t WHERE id < 1000 GROUP BY grp",
    # round-3 operator-registry completion (swq_op_registrar.cpp)
    "SELECT id FROM t WHERE name ILIKE 'ITEM-00%'",
    "SELECT id FROM t WHERE name NOT ILIKE 'ITEM-01%' AND id < 100",
    "SELECT grp, STDDEV_POP(val) AS sp, STDDEV_SAMP(val) AS ss "
    "FROM t GROUP BY grp",
    "SELECT id % 7 AS m, val FROM t WHERE id < 30",
]


@pytest.mark.parametrize("sql", QUERIES)
def test_matches_duckdb(sql, table, ray_session):
    run_both(sql, table, ray_session)


def test_limit_offset(table, ray_session):
    import ray.data as rd

    got = ogrsql.execute(
        "SELECT id FROM t ORDER BY id LIMIT 5 OFFSET 3",
        {"t": rd.from_arrow(table)},
    ).to_pandas()
    assert got["id"].tolist() == [3, 4, 5, 6, 7]


def test_parse_errors():
    with pytest.raises(ValueError):
        ogrsql.parse_select("SELECT FROM t")
    with pytest.raises(ValueError):
        ogrsql.parse_select("SELECT a FROM t WHERE ^bad")
    with pytest.raises(ValueError):
        ogrsql.parse_select("SELECT a FROM t extra garbage ,")


def test_inner_join(table, ray_session):
    import ray.data as rd

    lut = pa.table(
        {"g": pa.array([0, 1, 2, 3, 4], pa.int64()),
         "label": pa.array(["a", "b", "c", "d", "e"])}
    )
    sql = ("SELECT t.id, lut.label FROM t JOIN lut ON t.grp = lut.g "
           "WHERE t.id < 100")
    got = ogrsql.execute(
        sql, {"t": rd.from_arrow(table), "lut": rd.from_arrow(lut)}
    ).to_pandas().sort_values("id").reset_index(drop=True)
    con = duckdb.connect()
    con.register("t", table)
    con.register("lut", lut)
    want = con.execute(sql).fetch_df().sort_values("id").reset_index(drop=True)
    assert got["id"].tolist() == want["id"].tolist()
    assert got["label"].tolist() == want["label"].tolist()


def test_having(table, ray_session):
    import ray.data as rd

    sql = ("SELECT grp, COUNT(*) AS n, SUM(val) AS s FROM t "
           "GROUP BY grp HAVING SUM(val) > 15000 AND COUNT(*) > 100")
    got = ogrsql.execute(sql, {"t": rd.from_arrow(table)}).to_pandas()
    con = duckdb.connect()
    con.register("t", table)
    want = con.execute(sql).fetch_df()
    got = got.sort_values("grp").reset_index(drop=True)
    want = want.sort_values("grp").reset_index(drop=True)
    assert got["grp"].tolist() == want["grp"].tolist()
    assert np.allclose(got["s"], want["s"])


def test_hstore_get_value(ray_session):
    """swq HSTORE_GET_VALUE semantics: 'k=>v' lookup, NULL on miss."""
    import ray.data as rd

    t = pa.table({
        "id": pa.array([1, 2, 3, 4], pa.int64()),
        "tags": pa.array(['a=>1, b=>2', 'b=>only', None, '"a" => "q"']),
    })
    out = ogrsql.execute(
        "SELECT id, HSTORE_GET_VALUE(tags, 'a') AS a FROM t",
        {"t": rd.from_arrow(t)},
    ).to_pandas().sort_values("id")
    assert out["a"].tolist() == ["1", None, None, "q"]


class TestSpecialFields:
    """OGR SQL special fields OGR_GEOMETRY / OGR_GEOM_WKT /
    OGR_GEOM_AREA (ogr_gensql special-field semantics)."""

    def _ds(self):
        import pyarrow as pa
        import ray.data as rd

        from gdal_ray.geom.wkb import linestring_wkb, point_wkb, polygon_wkb

        t = pa.table(
            {
                "name": ["pt", "ln", "pg"],
                "geometry": pa.array(
                    [
                        point_wkb(1.0, 2.0),
                        linestring_wkb([[0, 0], [1, 1]]),
                        polygon_wkb([[0, 0], [4, 0], [4, 3], [0, 0]]),
                    ],
                    pa.binary(),
                ),
            }
        )
        return rd.from_arrow(t)

    def test_geometry_type_filter(self, ray_session):
        from gdal_ray import ogrsql

        df = ogrsql.execute(
            "SELECT name FROM t WHERE OGR_GEOMETRY = 'POLYGON'",
            {"t": self._ds()},
        ).to_pandas()
        assert df["name"].tolist() == ["pg"]

    def test_geom_area(self, ray_session):
        from gdal_ray import ogrsql

        df = ogrsql.execute(
            "SELECT name, OGR_GEOM_AREA AS a FROM t", {"t": self._ds()}
        ).to_pandas()
        areas = dict(zip(df["name"], df["a"]))
        assert areas["pg"] == 6.0  # 4x3 right triangle
        assert areas["pt"] == 0.0 and areas["ln"] == 0.0

    def test_geom_wkt(self, ray_session):
        from gdal_ray import ogrsql

        df = ogrsql.execute(
            "SELECT OGR_GEOM_WKT AS w FROM t WHERE name = 'pt'",
            {"t": self._ds()},
        ).to_pandas()
        assert df["w"][0].startswith("POINT")
        assert "1" in df["w"][0] and "2" in df["w"][0]


class TestSTFunctions:
    """Spatialite-style ST_* in the SQL dialect (reference:
    ogrsqliteexecutesql.cpp ST_* registration) — value-checked against
    closed forms, with WHERE-clause and null propagation coverage."""

    def _pts(self):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(pa.table(
            {"id": pa.array([1, 2, 3], pa.int64()),
             "x": pa.array([0.0, 3.0, 10.0]),
             "y": pa.array([0.0, 4.0, 0.5])}
        ))

    def test_constructors_and_accessors(self, ray_session):
        from gdal_ray import ogrsql

        df = ogrsql.execute(
            "SELECT id, ST_X(ST_Point(x, y)) AS px, "
            "ST_Y(ST_GeomFromText(ST_AsText(ST_Point(x, y)))) AS py "
            "FROM t", {"t": self._pts()},
        ).to_pandas().sort_values("id")
        assert df["px"].tolist() == [0.0, 3.0, 10.0]
        assert df["py"].tolist() == [0.0, 4.0, 0.5]

    def test_distance_and_measures(self, ray_session):
        import numpy as np

        from gdal_ray import ogrsql

        df = ogrsql.execute(
            "SELECT id, ST_Distance(ST_Point(x, y), ST_Point(0.0, 0.0)) AS d,"
            " ST_Length(ST_GeomFromText('LINESTRING (0 0, 3 4)')) AS l,"
            " ST_Area(ST_GeomFromText("
            "'POLYGON ((0 0, 4 0, 4 3, 0 3, 0 0))')) AS a"
            " FROM t", {"t": self._pts()},
        ).to_pandas().sort_values("id")
        assert np.allclose(df["d"], [0.0, 5.0, np.hypot(10.0, 0.5)])
        assert (df["l"] == 5.0).all() and (df["a"] == 12.0).all()

    def test_buffer_area_closed_form(self, ray_session):
        import numpy as np

        from gdal_ray import ogrsql

        df = ogrsql.execute(
            "SELECT ST_Area(ST_Buffer(ST_Point(x, y), 2.0, 8)) AS a FROM t",
            {"t": self._pts()},
        ).to_pandas()
        exp = 0.5 * 32 * 4.0 * np.sin(2 * np.pi / 32)
        assert np.allclose(df["a"], exp, rtol=1e-12)

    def test_predicates_in_where(self, ray_session):
        from gdal_ray import ogrsql

        box = "POLYGON ((-1 -1, 5 -1, 5 5, -1 5, -1 -1))"
        df = ogrsql.execute(
            f"SELECT id FROM t WHERE ST_Within(ST_Point(x, y), "
            f"ST_GeomFromText('{box}'))", {"t": self._pts()},
        ).to_pandas()
        assert sorted(df["id"].tolist()) == [1, 2]
        df2 = ogrsql.execute(
            f"SELECT id, ST_Contains(ST_GeomFromText('{box}'), "
            f"ST_Point(x, y)) AS c, ST_Intersects(ST_Point(x, y), "
            f"ST_GeomFromText('{box}')) AS i FROM t", {"t": self._pts()},
        ).to_pandas().sort_values("id")
        assert df2["c"].tolist() == [True, True, False]
        assert df2["i"].tolist() == [True, True, False]

    def test_centroid_envelope_npoints(self, ray_session):
        from gdal_ray import ogrsql

        df = ogrsql.execute(
            "SELECT ST_AsText(ST_Centroid(ST_GeomFromText("
            "'POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))'))) AS c,"
            " ST_Area(ST_Envelope(ST_GeomFromText("
            "'POLYGON ((0 0, 4 0, 4 3, 0 3, 0 0))'))) AS e,"
            " ST_NPoints(ST_GeomFromText('LINESTRING (0 0, 1 1, 2 2)')) AS n,"
            " ST_IsEmpty(ST_Point(x, y)) AS emp,"
            " ST_IsSimple(ST_GeomFromText('LINESTRING (0 0, 1 1)')) AS simp"
            " FROM t", {"t": self._pts()},
        ).to_pandas()
        assert df["c"][0] == "POINT (1 1)"
        assert (df["e"] == 12.0).all()
        assert (df["n"] == 3).all()
        assert (not df["emp"].any()) and df["simp"].all()

    def test_overlay_functions(self, ray_session):
        from gdal_ray import ogrsql

        a = "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))"
        b = "POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))"
        df = ogrsql.execute(
            f"SELECT ST_Area(ST_Intersection(ST_GeomFromText('{a}'), "
            f"ST_GeomFromText('{b}'))) AS ia, "
            f"ST_Area(ST_Union(ST_GeomFromText('{a}'), "
            f"ST_GeomFromText('{b}'))) AS ua, "
            f"ST_Area(ST_Difference(ST_GeomFromText('{a}'), "
            f"ST_GeomFromText('{b}'))) AS da FROM t",
            {"t": self._pts()},
        ).to_pandas()
        assert abs(df["ia"][0] - 1.0) < 1e-12
        assert abs(df["ua"][0] - 7.0) < 1e-12
        assert abs(df["da"][0] - 3.0) < 1e-12

    def test_ogr_style_null(self, ray_session):
        from gdal_ray import ogrsql

        df = ogrsql.execute(
            "SELECT id, OGR_STYLE AS s FROM t", {"t": self._pts()}
        ).to_pandas()
        assert df["s"].isna().all()

    def test_ogr_style_field_fallback(self, ray_session):
        """GetStyleString falls back to a field named OGR_STYLE
        (ogr/ogrfeature.cpp) — the special field must surface it."""
        import pyarrow as pa

        from gdal_ray import ogrsql

        def add_style(b: pa.Table) -> pa.Table:
            ids = b["id"].to_pylist()
            return b.append_column(
                "OGR_STYLE",
                pa.array([f"PEN(c:#FF000{i})" for i in ids]),
            )

        t = self._pts().map_batches(add_style, batch_format="pyarrow")
        df = ogrsql.execute(
            "SELECT id, OGR_STYLE AS s FROM t", {"t": t}
        ).to_pandas().sort_values("id")
        assert df["s"].tolist() == [
            f"PEN(c:#FF000{i})" for i in df["id"]
        ]

    def test_scalar_within_kernel(self):
        """Direct kernel checks incl. the strictly-interior rule: a
        point ON the boundary intersects but is not within."""
        from gdal_ray.geom import scalars as GS
        from gdal_ray.geom.wkb import point_wkb, polygon_wkb

        box = polygon_wkb([[0, 0], [4, 0], [4, 4], [0, 4], [0, 0]])
        assert GS.within(point_wkb(2, 2), box)
        assert not GS.within(point_wkb(0, 2), box)     # on boundary
        assert GS.intersects(point_wkb(0, 2), box)
        assert not GS.within(point_wkb(9, 9), box)
        inner = polygon_wkb([[1, 1], [3, 1], [3, 3], [1, 3], [1, 1]])
        assert GS.within(inner, box) and GS.contains(box, inner)
        assert not GS.within(box, inner)


class TestSTTransform:
    """ST_Transform(geom, dst[, src]) through the EPSG registry
    (reference role: Spatialite ST_Transform via ogrsqliteexecutesql.cpp
    + ogrct.cpp)."""

    def _pts(self):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(pa.table(
            {"id": pa.array([1, 2], pa.int64()),
             "lon": pa.array([0.0, 12.4924]),
             "lat": pa.array([0.0, 41.8902])}
        ))

    def test_point_to_webmercator(self, ray_session):
        import numpy as np

        from gdal_ray import ogrsql

        df = ogrsql.execute(
            "SELECT id, ST_X(ST_Transform(ST_Point(lon, lat), 3857)) AS mx, "
            "ST_Y(ST_Transform(ST_Point(lon, lat), 3857)) AS my FROM t",
            {"t": self._pts()},
        ).to_pandas().sort_values("id")
        R = 6378137.0
        lon = np.array([0.0, 12.4924]); lat = np.array([0.0, 41.8902])
        np.testing.assert_allclose(
            df["mx"].to_numpy(), lon * np.pi / 180.0 * R, rtol=0, atol=1e-9)
        np.testing.assert_allclose(
            df["my"].to_numpy(),
            R * np.log(np.tan(np.pi / 4.0 + lat * np.pi / 360.0)),
            rtol=1e-15)

    def test_polygon_roundtrip_explicit_src(self, ray_session):
        from gdal_ray import ogrsql

        wkt = "POLYGON ((10 40, 20 40, 20 50, 10 50, 10 40))"
        df = ogrsql.execute(
            "SELECT ST_AsText(ST_Transform(ST_Transform("
            f"ST_GeomFromText('{wkt}'), 3857), 4326, 3857)) AS w FROM t",
            {"t": self._pts()},
        ).to_pandas()
        import re

        nums = [float(v) for v in re.findall(r"-?\d+\.?\d*", df["w"].iloc[0])]
        expect = [10, 40, 20, 40, 20, 50, 10, 50, 10, 40]
        for got, exp in zip(nums, expect):
            assert abs(got - exp) < 1e-9


class TestCaseCoalesce:
    """CASE WHEN / COALESCE / NULLIF — value-checked against DuckDB."""

    def _t(self):
        import pyarrow as pa
        import ray.data as rd

        return rd.from_arrow(pa.table({
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "v": pa.array([10.0, None, 30.0, 40.0]),
            "tag": pa.array(["a", "b", None, "a"]),
        })), pa.table({
            "id": pa.array([1, 2, 3, 4], pa.int64()),
            "v": pa.array([10.0, None, 30.0, 40.0]),
            "tag": pa.array(["a", "b", None, "a"]),
        })

    def test_vs_duckdb(self, ray_session):
        import duckdb

        from gdal_ray import ogrsql

        ds, tbl = self._t()
        sql = ("SELECT id, "
               "CASE WHEN v >= 30 THEN 'big' WHEN v >= 10 THEN 'small' "
               "ELSE 'none' END AS bucket, "
               "CASE tag WHEN 'a' THEN 1 ELSE 0 END AS is_a, "
               "COALESCE(v, 0.0) AS v0, "
               "NULLIF(tag, 'b') AS tag_nb "
               "FROM t")
        got = ogrsql.execute(sql, {"t": ds}).to_pandas() \
            .sort_values("id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", tbl)
        want = con.execute(sql).fetchdf()
        import pandas as pd

        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_case_in_where(self, ray_session):
        from gdal_ray import ogrsql

        ds, _ = self._t()
        out = ogrsql.execute(
            "SELECT id FROM t WHERE "
            "CASE WHEN tag = 'a' THEN 1 ELSE 0 END = 1",
            {"t": ds}).to_pandas()
        assert sorted(out["id"]) == [1, 4]


class TestMathStringFuncs:
    """SQLite-dialect-style scalar functions — DuckDB value parity."""

    def test_vs_duckdb(self, ray_session):
        import duckdb
        import pandas as pd
        import pyarrow as pa
        import ray.data as rd

        from gdal_ray import ogrsql

        tbl = pa.table({
            "id": pa.array([1, 2, 3], pa.int64()),
            "v": pa.array([4.0, 9.0, 2.25]),
            "s": pa.array(["  pad  ", "a-b-a", "xyz"]),
        })
        sql = ("SELECT id, SQRT(v) AS r, POWER(v, 2) AS p, "
               "FLOOR(v) AS fl, CEIL(v) AS ce, SIGN(v - 5) AS sg, "
               "MOD(CAST(v AS INTEGER), 2) AS m, "
               "ROUND(SIN(v) + COS(v) + ATAN2(v, 2.0), 9) AS trig, "
               "TRIM(s) AS st, REPLACE(s, '-', '_') AS sr "
               "FROM t")
        got = ogrsql.execute(sql, {"t": rd.from_arrow(tbl)}) \
            .to_pandas().sort_values("id").reset_index(drop=True)
        con = duckdb.connect()
        con.register("t", tbl)
        want = con.execute(sql).fetchdf()
        pd.testing.assert_frame_equal(got, want, check_dtype=False)


class TestSubqueriesCtesWindows:
    """Round 5: WITH / FROM-subqueries / window functions — every
    statement value-checked against DuckDB running the SAME SQL
    (reference role: the SQLite dialect hands these to SQLite,
    ogr/ogrsf_frmts/sqlite/ogrsqliteexecutesql.cpp)."""

    def _ev(self):
        import numpy as np
        import pyarrow as pa

        rng = np.random.default_rng(41)
        return pa.table({
            "user": pa.array(rng.integers(0, 17, 400), pa.int64()),
            "v": pa.array(rng.integers(0, 1000, 400), pa.int64()),
            "ts": pa.array(np.arange(400), pa.int64()),
        })

    def _chk(self, sql, tables=None):
        import duckdb
        import pandas as pd
        import ray.data as rd

        from gdal_ray import ogrsql

        tbl = self._ev()
        got = ogrsql.execute(sql, {"ev": rd.from_arrow(tbl)}).to_pandas()
        con = duckdb.connect()
        con.register("ev", tbl)
        want = con.execute(sql).fetchdf()
        cols = sorted(got.columns)
        assert cols == sorted(want.columns)
        got = got[cols].sort_values(cols).reset_index(drop=True)
        want = want[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)
        return got

    def test_from_subquery(self, ray_session):
        self._chk("SELECT user, v FROM "
                  "(SELECT user, v FROM ev WHERE v > 500) s "
                  "WHERE user < 5")

    def test_from_subquery_with_agg(self, ray_session):
        self._chk("SELECT mx FROM (SELECT user, MAX(v) AS mx "
                  "FROM ev GROUP BY user) s WHERE mx > 900")

    def test_cte_basic(self, ray_session):
        self._chk("WITH big AS (SELECT user, v FROM ev WHERE v >= 800) "
                  "SELECT user, COUNT(*) AS n FROM big GROUP BY user")

    def test_cte_chained_sees_earlier(self, ray_session):
        self._chk("WITH a AS (SELECT user, v FROM ev WHERE v > 100), "
                  "b AS (SELECT user, MAX(v) AS mx FROM a GROUP BY user) "
                  "SELECT user, mx FROM b ORDER BY user")

    def test_cte_joined_against_base(self, ray_session):
        self._chk("WITH hot AS (SELECT user, COUNT(*) AS n FROM ev "
                  "WHERE v > 500 GROUP BY user) "
                  "SELECT e.user, e.v, h.n FROM ev e "
                  "JOIN hot h ON e.user = h.user "
                  "WHERE e.v > 950 ORDER BY e.user, e.v")

    def test_join_subquery(self, ray_session):
        self._chk("SELECT e.user, e.v, m.mx FROM ev e "
                  "JOIN (SELECT user, MAX(v) AS mx FROM ev GROUP BY user) m "
                  "ON e.user = m.user WHERE e.v = m.mx")

    def test_row_number_topk(self, ray_session):
        self._chk("SELECT user, v, rn FROM "
                  "(SELECT user, v, ROW_NUMBER() OVER "
                  "(PARTITION BY user ORDER BY v DESC, ts) AS rn FROM ev) s "
                  "WHERE rn <= 3 ORDER BY user, rn")

    def test_rank_dense_rank_lead(self, ray_session):
        self._chk("SELECT user, ts, RANK() OVER "
                  "(PARTITION BY user ORDER BY v) AS r, "
                  "DENSE_RANK() OVER (PARTITION BY user ORDER BY v) AS dr, "
                  "LEAD(v, 2) OVER (PARTITION BY user ORDER BY ts) AS nx "
                  "FROM ev ORDER BY user, ts")

    def test_lag_and_running_sum(self, ray_session):
        self._chk("SELECT user, ts, v, "
                  "LAG(v) OVER (PARTITION BY user ORDER BY ts) AS prev, "
                  "SUM(v) OVER (PARTITION BY user ORDER BY ts) AS running, "
                  "MAX(v) OVER (PARTITION BY user ORDER BY ts) AS peak "
                  "FROM ev ORDER BY user, ts")

    def test_window_shares_one_pass_per_spec(self, ray_session):
        # two distinct specs -> two shuffles; same spec -> shared
        self._chk("SELECT user, ts, "
                  "ROW_NUMBER() OVER (PARTITION BY user ORDER BY ts) AS a, "
                  "LAG(v) OVER (PARTITION BY user ORDER BY ts) AS b, "
                  "RANK() OVER (PARTITION BY user ORDER BY v DESC) AS c "
                  "FROM ev ORDER BY user, ts")

    def test_window_in_where_raises(self, ray_session):
        import pytest
        import ray.data as rd

        from gdal_ray import ogrsql

        with pytest.raises(ValueError, match="WHERE"):
            ogrsql.execute(
                "SELECT user FROM ev WHERE ROW_NUMBER() OVER "
                "(PARTITION BY user ORDER BY ts) <= 3",
                {"ev": rd.from_arrow(self._ev())})

    def test_global_window_raises(self, ray_session):
        import pytest
        import ray.data as rd

        from gdal_ray import ogrsql

        with pytest.raises(ValueError, match="PARTITION BY"):
            ogrsql.execute(
                "SELECT ROW_NUMBER() OVER (ORDER BY ts) AS rn FROM ev",
                {"ev": rd.from_arrow(self._ev())})


class TestLikeEscape:
    """LIKE/ILIKE … ESCAPE 'c' (round 5 — swq LIKE escape role),
    value-checked against DuckDB."""

    def test_escape_vs_duckdb(self, ray_session):
        import duckdb
        import pyarrow as pa
        import ray.data as rd

        from gdal_ray import ogrsql

        rows = ["100%", "100x", "a_b", "axb", "50% off", "AXB"]
        tbl = pa.table({"s": rows})
        stmts = [
            r"SELECT s FROM t WHERE s LIKE '100!%' ESCAPE '!'",
            r"SELECT s FROM t WHERE s LIKE 'a!_b' ESCAPE '!'",
            r"SELECT s FROM t WHERE s LIKE '%!%%' ESCAPE '!'",
            r"SELECT s FROM t WHERE s ILIKE 'a!_b' ESCAPE '!'",
        ]
        con = duckdb.connect()
        con.register("t", tbl)
        for q in stmts:
            got = sorted(
                ogrsql.execute(q, {"t": rd.from_arrow(tbl)})
                .to_pandas()["s"].tolist())
            want = sorted(r[0] for r in con.execute(q).fetchall())
            assert got == want, q

    def test_bad_escape_rejected(self):
        from gdal_ray import ogrsql

        with pytest.raises(ValueError, match="ESCAPE"):
            ogrsql.parse_select(
                "SELECT s FROM t WHERE s LIKE 'x' ESCAPE 'ab'")


class TestUnion:
    """UNION [ALL] chains (round 5 — SQLite-dialect role), every
    statement value-checked against DuckDB running the same SQL."""

    def _tbl(self):
        rng = np.random.default_rng(53)
        return pa.table({
            "id": pa.array(np.arange(300, dtype=np.int64)),
            "grp": pa.array(rng.integers(0, 4, 300)),
            "val": pa.array(rng.integers(0, 50, 300)),
        })

    def _chk(self, sql):
        import duckdb
        import pandas as pd
        import ray.data as rd

        tbl = self._tbl()
        got = ogrsql.execute(sql, {"t": rd.from_arrow(tbl)}).to_pandas()
        con = duckdb.connect()
        con.register("t", tbl)
        want = con.execute(sql).fetchdf()
        cols = sorted(got.columns)
        assert cols == sorted(want.columns)
        got = got[cols].sort_values(cols).reset_index(drop=True)
        want = want[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_union_all(self, ray_session):
        self._chk("SELECT id, val FROM t WHERE val < 5 "
                  "UNION ALL SELECT id, val FROM t WHERE val > 45")

    def test_union_distinct(self, ray_session):
        # overlapping branches: UNION must dedupe across them
        self._chk("SELECT grp, val FROM t WHERE val < 10 "
                  "UNION SELECT grp, val FROM t WHERE val < 20")

    def test_union_mixed_chain(self, ray_session):
        # left-associative: (A UNION B) keeps distinct, then ALL
        # appends C duplicates
        self._chk("SELECT grp FROM t WHERE val < 10 "
                  "UNION SELECT grp FROM t WHERE val < 30 "
                  "UNION ALL SELECT grp FROM t WHERE grp = 0 AND val = 1")

    def test_union_positional_rename(self, ray_session):
        # branch column names differ: positional alignment, first
        # branch's names win (standard SQL)
        self._chk("SELECT id AS k, val FROM t WHERE id < 3 "
                  "UNION ALL SELECT grp, val FROM t WHERE id >= 297")

    def test_union_trailing_order_limit(self, ray_session):
        self._chk("SELECT id, val FROM t WHERE id < 100 "
                  "UNION SELECT id, val FROM t WHERE id >= 250 "
                  "ORDER BY id DESC LIMIT 7")

    def test_union_with_cte(self, ray_session):
        self._chk("WITH lo AS (SELECT id, val FROM t WHERE val < 3) "
                  "SELECT id, val FROM lo UNION ALL "
                  "SELECT id, val FROM t WHERE val > 47")

    def test_union_agg_branches(self, ray_session):
        self._chk("SELECT grp, COUNT(*) AS n FROM t GROUP BY grp "
                  "UNION ALL SELECT grp, MIN(val) AS n "
                  "FROM t GROUP BY grp")

    def test_union_column_count_mismatch(self, ray_session):
        import ray.data as rd

        with pytest.raises(ValueError, match="column count"):
            ogrsql.execute(
                "SELECT id, val FROM t UNION SELECT id FROM t",
                {"t": rd.from_arrow(self._tbl())},
            ).materialize()


# NULL-bearing membership keys: SQL's three-valued logic, where a
# NULL never matches and one NULL in a NOT IN subquery leaves no row.
_NL = pa.table({"id": pa.array(range(6), pa.int64()),
                "k": pa.array([1, None, 2, None, 3, 1], pa.int64())})
_NR = pa.table({"k2": pa.array([1, None, 3, None], pa.int64()),
                "w": pa.array([5, 6, 7, 8], pa.int64())})


def _null_ids_match_duckdb(sql):
    import duckdb
    import ray.data as rd

    got = ogrsql.execute(sql, {"l": rd.from_arrow(_NL),
                               "r": rd.from_arrow(_NR)}).take_all()
    con = duckdb.connect()
    con.register("l", _NL)
    con.register("r", _NR)
    want = con.execute(sql).fetchall()
    assert sorted(r["id"] for r in got) == sorted(w[0] for w in want)


class TestInSubquery:
    """[NOT] IN (SELECT …) compiled to distributed semi/anti joins
    (round 5), value-checked against DuckDB."""

    def _tbl(self):
        rng = np.random.default_rng(59)
        return pa.table({
            "id": pa.array(np.arange(400, dtype=np.int64)),
            "grp": pa.array(rng.integers(0, 6, 400)),
            "val": pa.array(rng.integers(0, 100, 400)),
        })

    def _chk(self, sql):
        import duckdb
        import pandas as pd
        import ray.data as rd

        tbl = self._tbl()
        got = ogrsql.execute(sql, {"t": rd.from_arrow(tbl)}).to_pandas()
        con = duckdb.connect()
        con.register("t", tbl)
        want = con.execute(sql).fetchdf()
        cols = sorted(got.columns)
        assert cols == sorted(want.columns)
        got = got[cols].sort_values(cols).reset_index(drop=True)
        want = want[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_in_subquery(self, ray_session):
        self._chk("SELECT id, grp FROM t WHERE grp IN "
                  "(SELECT grp FROM t WHERE val > 97)")

    def test_not_in_subquery(self, ray_session):
        self._chk("SELECT id FROM t WHERE grp NOT IN "
                  "(SELECT grp FROM t WHERE val > 95) AND val < 50")

    def test_in_subquery_with_other_conjuncts(self, ray_session):
        self._chk("SELECT id, val FROM t WHERE val > 20 AND id IN "
                  "(SELECT id FROM t WHERE grp = 2) AND val < 80")

    def test_in_subquery_agg_body(self, ray_session):
        # subquery with GROUP BY/HAVING feeding the semi join
        self._chk("SELECT id, grp FROM t WHERE grp IN "
                  "(SELECT grp FROM t GROUP BY grp "
                  "HAVING COUNT(*) > 70)")

    def test_in_subquery_not_conjunct_rejected(self, ray_session):
        import ray.data as rd

        with pytest.raises(Exception, match="conjunct"):
            ogrsql.execute(
                "SELECT id FROM t WHERE grp = 0 OR grp IN "
                "(SELECT grp FROM t WHERE val > 99)",
                {"t": rd.from_arrow(self._tbl())},
            ).materialize()

    def test_in_subquery_two_cols_rejected(self, ray_session):
        import ray.data as rd

        with pytest.raises(ValueError, match="one column"):
            ogrsql.execute(
                "SELECT id FROM t WHERE grp IN "
                "(SELECT grp, val FROM t)",
                {"t": rd.from_arrow(self._tbl())},
            )

    @pytest.mark.parametrize("sql", [
        "SELECT id FROM l WHERE k IN (SELECT k2 FROM r)",
        "SELECT id FROM l WHERE k NOT IN (SELECT k2 FROM r)",
        "SELECT id FROM l WHERE k NOT IN "
        "(SELECT k2 FROM r WHERE k2 IS NOT NULL)",
    ])
    def test_null_keys(self, ray_session, sql):
        _null_ids_match_duckdb(sql)

    @pytest.mark.parametrize("sql", [
        "SELECT id FROM l WHERE k NOT IN (SELECT k2 FROM r WHERE w > 9)",
        "SELECT id FROM l WHERE k IN (SELECT k2 FROM r WHERE w > 9)",
    ])
    def test_empty_subquery(self, ray_session, sql):
        _null_ids_match_duckdb(sql)


class TestScalarSubquery:
    """(SELECT <one value> FROM …) as an expression — distributed
    sub-plan, single value substituted as a literal at compile time.
    Value-checked against DuckDB."""

    def _tbl(self):
        rng = np.random.default_rng(5)
        return pa.table({
            "id": pa.array(np.arange(200, dtype=np.int64)),
            "v": pa.array(rng.integers(0, 1000, 200).astype(np.float64)),
            "g": pa.array(rng.integers(0, 4, 200)),
        })

    def _chk(self, sql):
        import duckdb
        import ray.data as rd

        t = self._tbl()
        got = ogrsql.execute(sql, {"t": rd.from_arrow(t)}).to_pandas()
        con = duckdb.connect()
        con.register("t", t)
        want = con.execute(sql).fetchdf()
        cols = sorted(got.columns)
        assert cols == sorted(want.columns)
        ga = got[cols].sort_values(cols, ignore_index=True)
        wa = want[cols].sort_values(cols, ignore_index=True)
        assert len(ga) == len(wa)
        for c in cols:
            np.testing.assert_allclose(
                ga[c].to_numpy().astype(float),
                wa[c].to_numpy().astype(float), rtol=1e-12)

    def test_in_where(self, ray_session):
        self._chk("SELECT id, v FROM t WHERE v > (SELECT AVG(v) FROM t)")

    def test_in_projection(self, ray_session):
        self._chk("SELECT id, v - (SELECT MIN(v) FROM t) AS centered "
                  "FROM t WHERE id < 20")

    def test_as_between_bounds(self, ray_session):
        self._chk("SELECT id FROM t WHERE v BETWEEN "
                  "(SELECT MIN(v) FROM t WHERE g = 1) AND "
                  "(SELECT AVG(v) FROM t WHERE g = 1)")

    def test_in_having(self, ray_session):
        self._chk("SELECT g, COUNT(*) AS n FROM t GROUP BY g "
                  "HAVING COUNT(*) > (SELECT COUNT(*) FROM t) / 5")

    def test_multi_row_rejected(self, ray_session):
        import ray.data as rd

        with pytest.raises(ValueError, match="more than one row"):
            ogrsql.execute("SELECT id FROM t WHERE v > (SELECT v FROM t)",
                           {"t": rd.from_arrow(self._tbl())})


class TestExistsSubquery:
    """[NOT] EXISTS (SELECT …) — single correlated equality compiled
    to the distributed semi/anti membership join; uncorrelated EXISTS
    is a compile-time existence gate.  Value-checked against DuckDB."""

    def _tbls(self):
        rng = np.random.default_rng(61)
        left = pa.table({
            "id": pa.array(np.arange(300, dtype=np.int64)),
            "k": pa.array(rng.integers(0, 40, 300)),
            "v": pa.array(rng.integers(0, 100, 300)),
        })
        right = pa.table({
            "k2": pa.array(rng.integers(0, 40, 150)),
            "w": pa.array(rng.integers(0, 100, 150)),
        })
        return left, right

    def _chk(self, sql):
        import duckdb
        import pandas as pd
        import ray.data as rd

        left, right = self._tbls()
        got = ogrsql.execute(sql, {
            "l": rd.from_arrow(left), "r": rd.from_arrow(right),
        }).to_pandas()
        con = duckdb.connect()
        con.register("l", left)
        con.register("r", right)
        want = con.execute(sql).fetchdf()
        assert len(got) == len(want)
        if len(want) == 0:
            # Ray 2.49 drops the schema of an all-empty pipeline
            # (zero-column blocks); row-count parity is the contract
            return
        cols = sorted(got.columns)
        assert cols == sorted(want.columns)
        got = got[cols].sort_values(cols).reset_index(drop=True)
        want = want[cols].sort_values(cols).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_exists_correlated_qualified(self, ray_session):
        self._chk("SELECT id, k FROM l a WHERE EXISTS "
                  "(SELECT 1 FROM r b WHERE b.k2 = a.k AND b.w > 80)")

    def test_not_exists_correlated(self, ray_session):
        self._chk("SELECT id FROM l WHERE NOT EXISTS "
                  "(SELECT 1 FROM r WHERE k2 = k)")

    def test_exists_unqualified_inner_resolution(self, ray_session):
        # inner side resolved by schema membership (k2 ∈ r, k ∉ r)
        self._chk("SELECT id FROM l WHERE EXISTS "
                  "(SELECT 1 FROM r WHERE k2 = k AND w < 20)")

    def test_exists_uncorrelated_gates(self, ray_session):
        self._chk("SELECT id FROM l WHERE EXISTS "
                  "(SELECT 1 FROM r WHERE w > 98) AND v < 10")
        self._chk("SELECT id FROM l WHERE NOT EXISTS "
                  "(SELECT 1 FROM r WHERE w > 5000)")
        self._chk("SELECT id FROM l WHERE EXISTS "
                  "(SELECT 1 FROM r WHERE w > 5000)")

    def test_exists_with_other_conjuncts(self, ray_session):
        self._chk("SELECT id, v FROM l a WHERE a.v > 30 AND EXISTS "
                  "(SELECT 1 FROM r b WHERE b.k2 = a.k) AND a.v < 90")

    @pytest.mark.parametrize("neg", ["", "NOT "])
    def test_null_keys(self, ray_session, neg):
        _null_ids_match_duckdb(f"SELECT id FROM l WHERE {neg}EXISTS "
                               "(SELECT 1 FROM r WHERE k2 = k)")

    def test_exists_not_conjunct_rejected(self, ray_session):
        import ray.data as rd

        left, right = self._tbls()
        with pytest.raises(Exception, match="conjunct"):
            ogrsql.execute(
                "SELECT id FROM l WHERE v = 0 OR EXISTS "
                "(SELECT 1 FROM r WHERE k2 = k)",
                {"l": rd.from_arrow(left), "r": rd.from_arrow(right)},
            ).materialize()


class TestGroupByNullKeys:
    """GROUP BY, DISTINCT and UNION on a two-column key holding nulls,
    over many blocks: each (i, s) group once, with DuckDB's aggregates.
    Arrow 16's multi-column hash group_by, which Ray 2.49's
    ``groupby().aggregate`` runs too, splits the null groups of such a
    key (14 groups and 5,828 rows here, for 12 and 5,000)."""

    @pytest.fixture(scope="class")
    def blocks(self):
        rng = np.random.default_rng(19)
        out = []
        for _ in range(20):
            i = rng.choice([7, 0, -3], 250)
            v = np.round(rng.uniform(-50, 50, 250), 3)
            out.append(pa.table({
                "i": pa.array(i, mask=rng.uniform(size=250) < 0.25),
                "s": pa.array(rng.choice(["a", "b", "c"], 250)),
                "v": pa.array(v, mask=rng.uniform(size=250) < 0.1),
            }))
        return out

    @pytest.mark.parametrize("sql", [
        "SELECT i, s, COUNT(*) AS n FROM t GROUP BY i, s",
        "SELECT i, s, COUNT(v) AS nv, SUM(v) AS sv, MIN(v) AS mn, "
        "MAX(v) AS mx, AVG(v) AS av FROM t GROUP BY i, s",
        "SELECT s, i, STDDEV_POP(v) AS sp, STDDEV_SAMP(v) AS ss, "
        "COUNT(*) AS n FROM t GROUP BY s, i",
        "SELECT DISTINCT s, i FROM t",
        "SELECT s, i FROM t UNION SELECT s, i FROM t WHERE v > 0",
    ])
    def test_matches_duckdb(self, blocks, sql, ray_session):
        import ray.data as rd

        got = ogrsql.execute(sql, {"t": rd.from_arrow(blocks)}).to_pandas()
        con = duckdb.connect()
        con.register("t", pa.concat_tables(blocks))
        want = con.execute(sql).fetch_df()
        keys = ["i", "s"]
        got = got.sort_values(keys).reset_index(drop=True)
        want = want.sort_values(keys).reset_index(drop=True)
        assert len(got) == len(want) == 12
        assert sorted(got.columns) == sorted(want.columns)
        assert got["s"].tolist() == want["s"].tolist()
        for c in want.columns.drop("s"):
            np.testing.assert_allclose(
                got[c].astype(float), want[c].astype(float), rtol=1e-9, err_msg=c
            )
        if "n" in want.columns:
            assert got["n"].sum() == 5000

    def test_global_count_skips_nulls(self, blocks, ray_session):
        import ray.data as rd

        sql = "SELECT COUNT(v) AS nv, COUNT(*) AS n, SUM(v) AS sv FROM t"
        got = ogrsql.execute(sql, {"t": rd.from_arrow(blocks)}).take_all()
        con = duckdb.connect()
        con.register("t", pa.concat_tables(blocks))
        (nv, n, sv), = con.execute(sql).fetchall()
        assert (got[0]["nv"], got[0]["n"]) == (nv, n) and nv < n == 5000
        assert np.isclose(got[0]["sv"], sv, rtol=1e-9)
