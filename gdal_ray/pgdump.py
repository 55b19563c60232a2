"""PostgreSQL dump writer — the OGR PGDump role.

Emits the reference driver's exact SQL shape (reference:
ogr/ogrsf_frmts/pgdump/ogrpgdumpdatasource.cpp + layer.cpp, pinned by
autotest/ogr/ogr_pgdump.py literals): DROP TABLE IF EXISTS …
CASCADE, the PostGIS-1.5 geometry_columns DELETE, BEGIN, bare
CREATE TABLE "schema"."table"();, ogc_fid SERIAL PRIMARY KEY,
SELECT AddGeometryColumn(...), per-field ALTER TABLE ADD COLUMN with
laundered (lowercased) names, INSERT mode with quoted literals or
COPY … FROM STDIN mode with tab-separated rows + \\N nulls and the
terminating \\., a GIST index in INSERT mode, COMMIT.  Geometry goes
as hex EWKB from geom.wkb.to_ewkb (little-endian; 0x80000000 Z flag
for DIM=3, 0x20000000 + int32 SRID flag when a positive SRID is set).

Streaming: a Ray Dataset writes batch-by-batch (COPY rows append as
blocks stream in) — nothing materializes.
"""
from __future__ import annotations

import os

import pyarrow as pa

from gdal_ray.geom import wkb as gwkb

_PG_TYPES = {
    pa.float64(): "FLOAT8", pa.float32(): "FLOAT4",
    pa.int32(): "INTEGER", pa.int16(): "INTEGER",
    pa.int64(): "BIGINT", pa.bool_(): "BOOLEAN",
    pa.string(): "VARCHAR", pa.date32(): "date",
    pa.binary(): "BYTEA",
}

_GEOM_NAMES = {1: "POINT", 2: "LINESTRING", 3: "POLYGON",
               4: "MULTIPOINT", 5: "MULTILINESTRING", 6: "MULTIPOLYGON",
               7: "GEOMETRYCOLLECTION", 0: "GEOMETRY"}


def _ident(name: str) -> str:
    return '"' + name.replace('"', '""') + '"'


def _lit(name: str) -> str:
    return name.replace("'", "''")


def _launder(name: str) -> str:
    return name.lower().replace("-", "_").replace("#", "_")


def _format_value(v, typ: pa.DataType, copy_mode: bool) -> str:
    if v is None:
        return "\\N" if copy_mode else "NULL"
    if pa.types.is_floating(typ):
        s = repr(float(v))
        if s.endswith(".0"):
            s = s[:-2]
        return s
    if pa.types.is_integer(typ):
        return str(int(v))
    if pa.types.is_boolean(typ):
        return ("t" if v else "f") if copy_mode else \
            ("'t'" if v else "'f'")
    s = str(v)
    if copy_mode:
        return (s.replace("\\", "\\\\").replace("\t", "\\t")
                .replace("\n", "\\n").replace("\r", "\\r"))
    return "'" + _lit(s) + "'"


def write_pgdump(data, path: str, table: str | None = None,
                 schema: str = "public", srid: int = -1,
                 geom_col: str = "geometry",
                 geom_name: str = "wkb_geometry", dim: int = 2,
                 geom_type: str = "GEOMETRY", use_copy: bool = False,
                 lineformat: str = "LF") -> int:
    """Arrow table / Ray Dataset → PGDump .sql file.  Returns rows.
    ``table`` defaults to the laundered file stem (the ``write`` step's
    form)."""
    if table is None:
        table = _launder(os.path.splitext(os.path.basename(path))[0])
    nl = "\r\n" if lineformat.upper() == "CRLF" else "\n"
    batches = _batches(data)
    first = next(batches)
    has_geom = geom_col in first.schema.names
    fields = [(n, first.schema.field(n).type)
              for n in first.schema.names if n != geom_col]
    qs = _ident(schema)
    qt = _ident(table)
    n = 0
    with open(path, "w", newline="") as f:
        def w(line):
            f.write(line + nl)

        if schema != "public":
            w(f"CREATE SCHEMA {qs};")
        w(f"DROP TABLE IF EXISTS {qs}.{qt} CASCADE;")
        w(f"DELETE FROM geometry_columns WHERE f_table_name = "
          f"'{_lit(table)}' AND f_table_schema = '{_lit(schema)}';")
        w("BEGIN;")
        w(f"CREATE TABLE {qs}.{qt}();")
        w(f"ALTER TABLE {qs}.{qt} ADD COLUMN \"ogc_fid\" SERIAL "
          f"CONSTRAINT {_ident(table + '_pk')} PRIMARY KEY;")
        if has_geom:
            w(f"SELECT AddGeometryColumn('{_lit(schema)}',"
              f"'{_lit(table)}','{_lit(geom_name)}',{srid},"
              f"'{geom_type}',{dim});")
        laundered = [(_launder(name), name, typ) for name, typ in fields]
        for lname, _name, typ in laundered:
            pg = _PG_TYPES.get(typ, "VARCHAR")
            if pa.types.is_timestamp(typ):
                pg = "timestamp with time zone"
            w(f"ALTER TABLE {qs}.{qt} ADD COLUMN {_ident(lname)} {pg};")

        colnames = ([_ident(geom_name)] if has_geom else []) + \
            [_ident(ln) for ln, _n, _t in laundered]
        if use_copy:
            w(f"COPY {qs}.{qt} ({', '.join(colnames)}) FROM STDIN;")

        def emit_batch(t: pa.Table):
            nonlocal n
            cols = {name: t[name].to_pylist() for name in t.schema.names}
            for i in range(t.num_rows):
                vals = []
                skip = []
                if has_geom:
                    g = cols[geom_col][i]
                    if g is None:
                        vals.append("\\N" if use_copy else "NULL")
                        skip.append(use_copy is False)
                    else:
                        hexg = gwkb.to_ewkb(g, srid, dim == 3).hex().upper()
                        vals.append(hexg if use_copy
                                    else "'" + hexg + "'")
                for lname, name, typ in laundered:
                    v = cols[name][i]
                    vals.append(_format_value(v, typ, use_copy))
                if use_copy:
                    w("\t".join(vals))
                else:
                    # INSERT skips trailing NULL columns like the
                    # reference (column list shrinks per row)
                    names = ([_ident(geom_name)] if has_geom else []) \
                        + [_ident(ln) for ln, _n, _t in laundered]
                    pairs = [(cn, v) for cn, v in zip(names, vals)
                             if v != "NULL"]
                    w(f"INSERT INTO {qs}.{qt} "
                      f"({', '.join(c for c, _ in pairs)}) VALUES "
                      f"({', '.join(v for _, v in pairs)});")
                n += 1

        emit_batch(first)
        for t in batches:
            emit_batch(t)
        if use_copy:
            w("\\.")
        else:
            if has_geom:
                w(f"CREATE INDEX "
                  f"{_ident(table + '_' + geom_name + '_geom_idx')} "
                  f"ON {qs}.{qt} USING GIST ({_ident(geom_name)});")
        w("COMMIT;")
    return n


def _batches(data):
    if isinstance(data, pa.Table):
        yield data
        return
    for b in data.iter_batches(batch_format="pyarrow"):
        yield b if isinstance(b, pa.Table) else pa.Table.from_batches([b])
