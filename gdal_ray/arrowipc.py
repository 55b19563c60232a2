"""Arrow IPC vector driver (.arrow / .arrows / .feather) — the
reference's ogr/ogrsf_frmts/arrow/ role: feature tables with a WKB
``geometry`` column in the Arrow IPC file (random-access) or stream
format, geo metadata per GDAL's own Arrow convention
(``ARROW:extension:name = ogc.wkb`` field metadata +
``geo`` schema key, ogrlayerarrow.cpp:2715).

Scale shape:
- read: the IPC FILE format has a record-batch footer index — each
  batch is an independent byte range, so one file shards into
  parallel tasks (batch indices distributed via Ray, one
  ``open_file`` + ``get_batch(i)`` per task; zero-copy into Arrow
  blocks). Streams have no index → single sequential task.
- write: ``write_arrow_ipc_dir`` emits one ``part-*.arrow`` per Ray
  block in parallel (atomic rename, resumable skip-existing), the
  partitioned-sink rule every other sink here follows;
  ``write_arrow_ipc`` streams batches through the driver into ONE
  file only for small/interchange outputs (documented driver-side
  funnel — bounded memory, one batch at a time).
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.ipc as pa_ipc

GEO_FIELD_META = {b"ARROW:extension:name": b"ogc.wkb"}


def _tag_geometry(schema: pa.Schema, geom_col: str) -> pa.Schema:
    if geom_col not in schema.names:
        return schema
    i = schema.get_field_index(geom_col)
    f = schema.field(i)
    return schema.set(i, f.with_metadata(GEO_FIELD_META))


def read_arrow_ipc(path: str, geom_col: str = "geometry",
                   batches_per_block: int = 16):
    """Arrow IPC file/stream → Ray Dataset (WKB geometry preserved)."""
    import ray.data as rd

    from gdal_ray.vsi import is_vsi, vsi_read_bytes

    if is_vsi(path):
        data = vsi_read_bytes(path)
        return rd.from_arrow(_read_table_bytes(data))
    with open(path, "rb") as f:
        magic = f.read(6)
    if magic == b"ARROW1":  # file format: footer-indexed batches
        with pa.memory_map(path, "r") as mm:
            reader = pa_ipc.open_file(mm)
            n = reader.num_record_batches
        if n <= batches_per_block:
            with pa.memory_map(path, "r") as mm:
                return rd.from_arrow(pa_ipc.open_file(mm).read_all())

        def load(b: pa.Table) -> pa.Table:
            with pa.memory_map(path, "r") as mm:
                r = pa_ipc.open_file(mm)
                parts = [r.get_batch(int(i))
                         for i in b["batch_idx"].to_pylist()]
            return pa.Table.from_batches(parts)

        idx = rd.from_arrow(
            pa.table({"batch_idx": pa.array(range(n), pa.int64())})
        ).repartition(max(1, n // batches_per_block))
        return idx.map_batches(load, batch_format="pyarrow")
    # stream format: sequential
    with open(path, "rb") as f:
        return rd.from_arrow(pa_ipc.open_stream(f).read_all())


def _read_table_bytes(data: bytes) -> pa.Table:
    buf = pa.py_buffer(data)
    if data[:6] == b"ARROW1":
        return pa_ipc.open_file(buf).read_all()
    return pa_ipc.open_stream(buf).read_all()


def write_arrow_ipc(ds, path: str, geom_col: str = "geometry") -> None:
    """ONE IPC file via a driver-side streaming funnel (one batch in
    memory at a time — for small/interchange outputs; use
    ``write_arrow_ipc_dir`` for large data). A ``.arrows`` path gets
    the IPC stream format, any other the file format."""
    from gdal_ray.vsi import is_vsi, vsi_open

    stream = path.lower().endswith(".arrows")
    first = True
    writer = None
    sink = None
    schema = None
    for batch in ds.iter_batches(batch_format="pyarrow"):
        if first:
            schema = _tag_geometry(batch.schema, geom_col)
            sink = vsi_open(path, "wb") if is_vsi(path) else open(
                path + ".tmp", "wb")
            writer = (pa_ipc.new_stream(sink, schema) if stream
                      else pa_ipc.new_file(sink, schema))
            first = False
        writer.write_table(batch.cast(schema))
    if writer is None:  # empty dataset: still emit a valid file
        schema = _tag_geometry(ds.schema().base_schema, geom_col)
        sink = vsi_open(path, "wb") if is_vsi(path) else open(
            path + ".tmp", "wb")
        writer = (pa_ipc.new_stream(sink, schema) if stream
                  else pa_ipc.new_file(sink, schema))
    writer.close()
    sink.close()
    if not is_vsi(path):
        os.replace(path + ".tmp", path)


def write_arrow_ipc_dir(ds, out_dir: str,
                        geom_col: str = "geometry") -> int:
    """Partitioned parallel sink: one ``part-<block>.arrow`` per Ray
    block, written inside the map task (atomic tmp+rename, existing
    parts skipped → resumable). Returns the number of parts."""
    os.makedirs(out_dir, exist_ok=True)

    def dump(batch: pa.Table) -> pa.Table:
        # part name = content hash → reruns skip finished parts
        import hashlib

        h = hashlib.sha1()
        for c in batch.columns:
            for buf in c.combine_chunks().buffers():
                if buf is not None:
                    h.update(buf)
        fname = os.path.join(out_dir, f"part-{h.hexdigest()[:16]}.arrow")
        if not os.path.exists(fname):
            schema = _tag_geometry(batch.schema, geom_col)
            tmp = fname + ".tmp"
            with open(tmp, "wb") as f:
                with pa_ipc.new_file(f, schema) as w:
                    w.write_table(batch.cast(schema))
            os.replace(tmp, fname)
        return pa.table({"path": pa.array([fname], pa.string())})

    parts = ds.map_batches(dump, batch_format="pyarrow").to_pandas()
    return len(parts)


def read_arrow_ipc_dir(path: str, **kw):
    """Read every part file of a partitioned IPC directory."""
    import glob

    import ray.data as rd

    files = sorted(glob.glob(os.path.join(path, "part-*.arrow")))
    if not files:
        raise FileNotFoundError(f"no part-*.arrow under {path}")
    out = read_arrow_ipc(files[0], **kw)
    for f in files[1:]:
        out = out.union(read_arrow_ipc(f, **kw))
    return out
