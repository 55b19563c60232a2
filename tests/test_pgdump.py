"""PGDump writer (gdal_ray/pgdump.py) vs the reference autotest SQL
literals (autotest/ogr/ogr_pgdump.py tests 1-2), and the pipeline
``write`` step through the driver registry."""
import pyarrow as pa
import pytest
from conftest import ref_path

from gdal_ray import pgdump, shapefile

POLY = "autotest/ogr/data/poly.shp"


@pytest.fixture(scope="module")
def poly_table():
    t = shapefile.read_shapefile_local(ref_path(POLY))
    return pa.table({
        "geometry": t["geometry"],
        "AREA": t["AREA"].cast(pa.float64()),
        "EAS_ID": t["EAS_ID"].cast(pa.int32()),
        "PRFEDEA": t["PRFEDEA"],
    })


def _check_sequence(sql: str, needles):
    pos = 0
    for nd in needles:
        i = sql.find(nd, pos)
        assert i >= 0, f"missing (in order): {nd[:90]}"
        pos = i + len(nd)


def test_insert_mode_postgis15(tmp_path, poly_table):
    """ogr_pgdump_1: DIM=3 INSERT layout with exact Z-flag EWKB."""
    pgdump.write_pgdump(poly_table, str(tmp_path / "t.sql"), "tpoly",
                        dim=3)
    sql = (tmp_path / "t.sql").read_text()
    _check_sequence(sql, [
        'DROP TABLE IF EXISTS "public"."tpoly" CASCADE;',
        "DELETE FROM geometry_columns WHERE f_table_name = 'tpoly' "
        "AND f_table_schema = 'public';",
        "BEGIN;",
        'CREATE TABLE "public"."tpoly"();',
        'ALTER TABLE "public"."tpoly" ADD COLUMN "ogc_fid" SERIAL '
        'CONSTRAINT "tpoly_pk" PRIMARY KEY;',
        "SELECT AddGeometryColumn('public','tpoly','wkb_geometry',-1,"
        "'GEOMETRY',3);",
        'ALTER TABLE "public"."tpoly" ADD COLUMN "area" FLOAT8;',
        'ALTER TABLE "public"."tpoly" ADD COLUMN "eas_id" INTEGER;',
        'ALTER TABLE "public"."tpoly" ADD COLUMN "prfedea" VARCHAR;',
        "VALUES ('01030000800100000014000000000000602F491D41000000207F"
        "2D52410000000000000000000000C028471D41000000E0922D5241",
        "', 215229.266, 168, '35043411');",
        'CREATE INDEX "tpoly_wkb_geometry_geom_idx" ON '
        '"public"."tpoly" USING GIST ("wkb_geometry");',
        "COMMIT;",
    ])


def test_copy_mode_srid_quoting(tmp_path, poly_table):
    """ogr_pgdump_2: COPY mode, quoted identifiers, SRID-flag EWKB,
    CRLF line format."""
    pgdump.write_pgdump(
        poly_table, str(tmp_path / "t2.sql"), 'xx"yyy',
        schema='ano"ther_schema', srid=4326, geom_name='the_"geom',
        geom_type="POLYGON", use_copy=True, lineformat="CRLF")
    with open(tmp_path / "t2.sql", newline="") as f:
        sql = f.read()
    _check_sequence(sql, [
        'CREATE SCHEMA "ano""ther_schema";',
        'DROP TABLE IF EXISTS "ano""ther_schema"."xx""yyy" CASCADE;',
        "BEGIN;",
        'CREATE TABLE "ano""ther_schema"."xx""yyy"();',
        "SELECT AddGeometryColumn('ano\"ther_schema','xx\"yyy',"
        "'the_\"geom',4326,'POLYGON',2);",
        'COPY "ano""ther_schema"."xx""yyy" ("the_""geom", "area", '
        '"eas_id", "prfedea") FROM STDIN;',
        "0103000020E61000000100000014000000000000602F491D41000000207F"
        "2D5241000000C028471D41000000E0922D5241",
        "\t215229.266\t168\t35043411",
        "\\.",
        "COMMIT;",
    ])
    assert "\r\n" in sql


def test_write_step_through_the_registry(tmp_path, ray_session):
    import ray.data as rd

    from gdal_ray.drivers import identify, write_vector
    from gdal_ray.geom import wkb as W

    p = str(tmp_path / "Roads-1.sql")
    geom = W.point_wkb(1.5, 2.5)
    ds = rd.from_arrow(pa.table({"geometry": pa.array([geom]),
                                 "name": pa.array(["a"])}))
    assert identify(p, "write").name == "PGDump"
    write_vector(ds, p)
    sql = open(p).read()
    _check_sequence(sql, [
        'DROP TABLE IF EXISTS "public"."roads_1" CASCADE;',
        'ALTER TABLE "public"."roads_1" ADD COLUMN "name" VARCHAR;',
        'INSERT INTO "public"."roads_1" ("wkb_geometry", "name") VALUES',
        "COMMIT;",
    ])
    # the EWKB hex decodes back to the written point
    hexg = sql.split("VALUES ('", 1)[1].split("'", 1)[0]
    assert W.parse(bytes.fromhex(hexg))["coords"].tolist() == [[1.5, 2.5]]
