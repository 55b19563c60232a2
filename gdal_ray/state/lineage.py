"""Per-partition lineage + checkpoint/resume (north_rule requirement).

The reference's resume story is file-existence checks
(``gdal raster tile --resume`` apps/gdalalg_raster_tile.cpp:280,
gdal2tiles.py:1497) and tile-index manifests (gdaltindex_lib.cpp:160).
Here it is transactional and content-addressed:

- ``write_partitioned`` runs one ``stages.partition.map_keys``
  shuffle on the partition column and commits each key's rows;
- every completed partition writes ``<out>/part=<key>/data.parquet``
  ATOMICALLY (tmp + rename) plus one manifest record
  ``<out>/_manifest/<key>.json`` carrying lineage: partition key, row
  count, content hash, input description, wall ms, engine version;
- a restarted run lists the manifest (cheap), broadcasts the completed
  key set, and ANTI-JOINS it inside ``map_batches`` before any
  expensive work — completed partitions are never recomputed;
- the manifest doubles as the run's metrics table (rows, bytes, wall
  per partition).

The content hash (``content_hash``) is sort-canonical and reads Arrow
buffers only: the rows are put in one order by a sort over every
column (floats by bit pattern, nested values by their canonical
bytes), then sha256 takes each column's name, type, validity bits and
normalised value bytes. It depends on the multiset of rows alone, so
a resumed run's partition hashes equal a fresh run's whatever the
block order, chunking or parallelism.

Layout intentionally matches hive partitioning (``part=<key>/``) so
the output is directly readable by ``read_parquet`` — the reference's
``gdal vector partition`` hive scheme (gdalalg_vector_partition.cpp:30).
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from gdal_ray.stages.partition import map_keys


class ManifestStore:
    """Checkpoint store over a directory (works on any fsspec-style
    mount; here a local path)."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.manifest_dir = os.path.join(out_dir, "_manifest")
        os.makedirs(self.manifest_dir, exist_ok=True)

    def completed_keys(self) -> set:
        keys = set()
        for f in os.listdir(self.manifest_dir):
            if f.endswith(".json"):
                with open(os.path.join(self.manifest_dir, f)) as fh:
                    rec = json.load(fh)
                if rec.get("status") == "done":
                    keys.add(rec["partition"])
        return keys

    def records(self) -> list[dict]:
        out = []
        for f in sorted(os.listdir(self.manifest_dir)):
            if f.endswith(".json"):
                with open(os.path.join(self.manifest_dir, f)) as fh:
                    out.append(json.load(fh))
        return out

    def partition_dir(self, key) -> str:
        return os.path.join(self.out_dir, f"part={key}")

    def commit(self, key, table: pa.Table, lineage: dict | None = None) -> dict:
        """Atomically write one partition + its manifest record."""
        t0 = time.perf_counter()
        pdir = self.partition_dir(key)
        tmp = pdir + ".tmp"
        os.makedirs(tmp, exist_ok=True)
        pq.write_table(table, os.path.join(tmp, "data.parquet"))
        if os.path.isdir(pdir):  # a concurrent/previous attempt won
            import shutil

            shutil.rmtree(tmp)
        else:
            os.rename(tmp, pdir)
        rec = {
            "partition": key if not isinstance(key, np.generic) else key.item(),
            "rows": table.num_rows,
            "bytes": table.nbytes,
            "content_hash": content_hash(table),
            "wall_ms": round((time.perf_counter() - t0) * 1000, 2),
            "status": "done",
            **(lineage or {}),
        }
        mpath = os.path.join(self.manifest_dir, f"{key}.json")
        mtmp = mpath + ".tmp"
        with open(mtmp, "w") as fh:
            json.dump(rec, fh)
        os.rename(mtmp, mpath)
        return rec


def content_hash(table: pa.Table) -> str:
    """Sort-canonical content hash of a table, 16 hex characters.

    A function of the multiset of rows alone: row order, chunking,
    slicing and the bytes under null slots do not change it. A change
    to any value, to a null, to a float's bit pattern (-0.0 against
    0.0, a NaN payload) or to a column's name or type does. Columns
    are taken in name order and each becomes one canonical array
    (``_canonical``). One ``Table.sort_by`` over all of them puts the
    rows in one order, and sha256 is fed each column's name, type,
    validity bits and value bytes (``_buffers``). Union and extension
    columns, which the engine does not write, raise ``ValueError``.
    """
    names = table.column_names
    order = sorted(range(len(names)), key=names.__getitem__)
    cols = [_canonical(table.column(i)) for i in order]
    if table.num_rows > 1 and cols:
        keys = [str(j) for j in range(len(cols))]
        rows = pa.table(cols, names=keys).sort_by([(k, "ascending") for k in keys])
        cols = [c.combine_chunks() for c in rows.columns]
    types = table.schema.types
    h = hashlib.sha256()
    _feed(h, str(table.num_rows).encode())
    for i, col in zip(order, cols):
        t = types[i]
        _feed(h, names[i].encode())
        _feed(h, str(t.value_type if pa.types.is_dictionary(t) else t).encode())
        for buf in _buffers(col):
            _feed(h, buf)
    return h.hexdigest()[:16]


def _feed(h, buf) -> None:
    """Length-prefixed update, so adjacent pieces cannot run together."""
    h.update(memoryview(buf).nbytes.to_bytes(8, "little"))
    h.update(buf)


_BITS = {16: pa.uint16(), 32: pa.uint32(), 64: pa.uint64()}
_LB = pa.large_binary()


def _sortable(t: pa.DataType) -> bool:
    """The flat types whose ``sort_by`` order is a total order on
    their bytes (floats are not: -0.0 == 0.0, NaN payloads tie)."""
    return (
        pa.types.is_integer(t) or pa.types.is_boolean(t) or pa.types.is_null(t)
        or pa.types.is_timestamp(t) or pa.types.is_date(t) or pa.types.is_time(t)
        or pa.types.is_duration(t) or pa.types.is_decimal(t)
        or pa.types.is_fixed_size_binary(t) or _is_bytes(t)
    )


def _is_bytes(t: pa.DataType) -> bool:
    return (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t))


def _canonical(col: pa.ChunkedArray) -> pa.Array:
    """One array per column that ``sort_by`` orders and whose buffers
    are its content: a dictionary decoded, a float as the unsigned
    integer of its bit pattern, and every other type ``sort_by``
    cannot order exactly (list, map, struct, interval) as its rows'
    canonical bytes."""
    if pa.types.is_dictionary(col.type):
        col = col.cast(col.type.value_type)
    arr = col.combine_chunks()
    if pa.types.is_floating(arr.type):
        return arr.view(_BITS[arr.type.bit_width])
    return arr if _sortable(arr.type) else _row_bytes(arr)


def _row_bytes(arr: pa.Array) -> pa.Array:
    """Per-row canonical bytes (large_binary, no nulls) of any column:
    ``\\x00`` for a null row, else ``\\x01`` and the value: its
    fixed-width bytes, a string's 8-byte length and bytes, a list's
    8-byte count and its items' canonical bytes, a struct's fields'
    canonical bytes in field order. Two rows get equal bytes exactly
    when they hold equal values, floats compared by bit pattern."""
    t = arr.type
    if pa.types.is_dictionary(t):
        arr = arr.dictionary_decode()
    elif pa.types.is_fixed_size_list(t):
        arr = arr.cast(pa.large_list(t.value_type))
    t = arr.type
    n = len(arr)
    if pa.types.is_struct(t):
        parts = [_row_bytes(arr.field(j)) for j in range(t.num_fields)]
        body = pc.binary_join_element_wise(*parts, pa.scalar(b"", _LB))
    elif pa.types.is_list(t) or pa.types.is_large_list(t) or pa.types.is_map(t):
        # a row's items are contiguous in the child, so are their bytes
        child = _row_bytes(arr.values)
        starts = np.frombuffer(child.buffers()[1], np.int64)[child.offset:]
        starts = starts[np.asarray(arr.offsets, dtype=np.int64)]
        joined = pa.Array.from_buffers(
            _LB, n, [None, pa.py_buffer(starts), child.buffers()[2]])
        count = pc.fill_null(pc.list_value_length(arr), 0).cast(pa.int64())
        body = pc.binary_join_element_wise(
            _fixed(np.asarray(count), 8), joined, pa.scalar(b"", _LB))
    elif _is_bytes(t):
        size = pc.fill_null(pc.binary_length(arr), 0).cast(pa.int64())
        body = pc.binary_join_element_wise(
            _fixed(np.asarray(size), 8), arr.cast(_LB), pa.scalar(b"", _LB))
    elif pa.types.is_null(t):
        body = pa.array([b""] * n, _LB)
    else:
        if pa.types.is_boolean(t):
            arr = arr.cast(pa.uint8())
        w = arr.type.bit_width // 8
        body = _fixed(np.frombuffer(arr.buffers()[1], np.uint8)[
            arr.offset * w:(arr.offset + n) * w], w)
    body = pc.binary_join_element_wise(pa.scalar(b"\x01", _LB), body, pa.scalar(b"", _LB))
    return pc.if_else(arr.is_valid(), body, pa.scalar(b"\x00", _LB))


def _fixed(values: np.ndarray, width: int) -> pa.Array:
    """large_binary rows of ``width`` bytes each over ``values``' bytes."""
    raw = np.ascontiguousarray(values).view(np.uint8)
    n = len(raw) // width
    return pa.FixedSizeBinaryArray.from_buffers(
        pa.binary(width), n, [None, pa.py_buffer(raw)]).cast(_LB)


def _buffers(arr: pa.Array):
    """The normalised buffers of one flat array: validity bits (empty
    when there is no null), then for string and binary types the
    offsets rebased to 0 and the data bytes between the first and last
    offset, for fixed-width types the value bytes of the slice. Every
    null slot reads as empty or zero, whatever bytes it holds."""
    n, off, bufs, t = len(arr), arr.offset, arr.buffers(), arr.type
    valid = arr.is_valid().to_numpy(zero_copy_only=False) if arr.null_count else None
    yield b"" if valid is None else np.packbits(valid)
    if n == 0 or pa.types.is_null(t):
        return
    if _is_bytes(t):
        wide = pa.types.is_large_string(t) or pa.types.is_large_binary(t)
        o = np.frombuffer(bufs[1], np.int64 if wide else np.int32)[off:off + n + 1]
        data = np.frombuffer(bufs[2], np.uint8)[o[0]:o[-1]] if o[-1] > o[0] else b""
        if valid is not None:
            size = np.diff(o)
            data = data[np.repeat(valid, size)] if len(data) else data
            o = np.concatenate([[0], np.cumsum(np.where(valid, size, 0))]).astype(o.dtype)
        yield o - o[0] if o[0] else o
        yield data
    elif pa.types.is_boolean(t):
        bits = np.unpackbits(np.frombuffer(bufs[1], np.uint8), bitorder="little")
        yield bits[off:off + n] & (True if valid is None else valid)
    else:
        w = t.bit_width // 8
        vals = np.frombuffer(bufs[1], np.uint8)[off * w:(off + n) * w]
        yield vals if valid is None else vals.reshape(n, w) * valid[:, None]


def write_partitioned(
    ds,
    out_dir: str,
    partition_col: str,
    lineage: dict | None = None,
) -> list[dict]:
    """Resumable partitioned write: one ``map_keys`` shuffle on
    ``partition_col``, then one atomic commit per key, SKIPPING keys
    already in the manifest. Returns the manifest records of the
    output directory.

    Each key's rows are written as ``part=<key>/data.parquet`` through
    ``ManifestStore.commit``. The content hash does not depend on the
    row order the shuffle leaves."""
    store = ManifestStore(out_dir)
    done = store.completed_keys()

    def commit_part(t: pa.Table) -> pa.Table:
        key = t[partition_col][0].as_py()
        rows = [] if key in done else [store.commit(key, t, lineage)["rows"]]
        return pa.table({"partition": t[partition_col].slice(0, len(rows)),
                         "rows": pa.array(rows, pa.int64())})

    map_keys(ds, partition_col, commit_part).materialize()
    return store.records()


def resume_filter(ds, partition_col: str, out_dir: str):
    """Drop rows whose partition is already committed — the anti-join
    against the checkpoint, applied BEFORE expensive stages. The
    committed key set is broadcast whole, one entry per partition, so
    it grows with the partition count, not the row count."""
    done = ManifestStore(out_dir).completed_keys()
    if not done:
        return ds
    import pyarrow.compute as pc

    done_arr = pa.array(list(done))

    def drop(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.invert(pc.is_in(batch[partition_col], value_set=done_arr))
        )

    return ds.map_batches(drop, batch_format="pyarrow")
