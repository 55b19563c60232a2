"""The partition content hash (``state.lineage.content_hash``): a
function of the multiset of rows alone, over every column type the
engine writes, built from Arrow buffers without pandas or JSON."""

from __future__ import annotations

import struct

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gdal_ray.geom import wkb as gwkb
from gdal_ray.state.lineage import content_hash


def _nan(payload: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000 | payload))[0]


def _table(n: int = 40, seed: int = 0) -> pa.Table:
    """One column of every type the engine writes, with nulls, ties,
    -0.0 and NaN."""
    rng = np.random.default_rng(seed)
    f = rng.choice([0.5, -0.0, 0.0, np.nan, _nan(7), 1e-300], n)
    ints = rng.integers(-3, 3, n)
    words = ["", "a", "ab", "é漢", None]
    null = rng.random(n) < 0.2
    return pa.table({
        "s": pa.array([words[i] for i in rng.integers(0, 5, n)]),
        "ls": pa.array([words[i] for i in rng.integers(0, 5, n)], pa.large_string()),
        "wkb": pa.array([gwkb.point_wkb(float(x), 1.0) if x % 2 else None for x in ints]),
        "i": pa.array(ints, mask=null),
        "f": pa.array(f, mask=rng.random(n) < 0.2),
        "b": pa.array(rng.random(n) < 0.5, mask=rng.random(n) < 0.2),
        "ts": pa.array(ints * 10**6, pa.timestamp("us", tz="UTC")),
        "d": pa.array([words[i] for i in rng.integers(0, 4, n)]).dictionary_encode(),
        "l": pa.array([None if i < -2 else [float(i), -0.0][: abs(i) % 3] for i in ints],
                      pa.list_(pa.float64())),
        "st": pa.array([{"x": float(i), "y": words[abs(i) % 5]} for i in ints]),
    })


def _perm(t: pa.Table, seed: int) -> pa.Table:
    return t.take(np.random.default_rng(seed).permutation(t.num_rows))


def test_format():
    h = content_hash(_table())
    assert len(h) == 16 and int(h, 16) >= 0


# --- the same rows give the same hash


@pytest.mark.parametrize("seed", range(5))
def test_row_order(seed):
    t = _table(seed=seed)
    assert content_hash(_perm(t, seed + 1)) == content_hash(t)


def test_slice_and_chunking():
    t = _table(60)
    fresh = t.slice(7, 31).take(np.arange(31))  # offset-0 copy
    assert content_hash(t.slice(7, 31)) == content_hash(fresh)
    for size in (1, 5, 17):
        rechunked = pa.Table.from_batches(t.to_batches(max_chunksize=size))
        assert rechunked["s"].num_chunks > 1
        assert content_hash(rechunked) == content_hash(t)
    # a chunked dictionary column whose chunks carry different dictionaries
    parts = [pa.array(["b", "a"]).dictionary_encode(), pa.array(["a", "c"]).dictionary_encode()]
    d = pa.table({"d": pa.chunked_array(parts)})
    assert content_hash(d) == content_hash(pa.table({"d": ["c", "a", "b", "a"]}))


def test_column_order():
    t = _table()
    assert content_hash(t.select(sorted(t.column_names, reverse=True))) == content_hash(t)


def _validity(bits) -> pa.Buffer:
    return pa.array(bits).buffers()[1]


def test_garbage_in_null_slots():
    valid = _validity([True, False, True])
    cases = [
        (pa.array([1, None, 3]),
         pa.Array.from_buffers(pa.int64(), 3, [valid, pa.py_buffer(np.array([1, 99, 3]).tobytes())])),
        (pa.array([1.0, None, 3.0]),
         pa.Array.from_buffers(pa.float64(), 3,
                               [valid, pa.py_buffer(np.array([1.0, np.nan, 3.0]).tobytes())])),
        (pa.array([True, None, False]),
         pa.Array.from_buffers(pa.bool_(), 3, [valid, _validity([True, True, False])])),
        (pa.array(["a", None, "b"]),
         pa.Array.from_buffers(pa.string(), 3, [
             valid, pa.py_buffer(np.array([0, 1, 4, 5], np.int32).tobytes()), pa.py_buffer(b"aXYZb")])),
    ]
    for clean, dirty in cases:
        assert content_hash(pa.table({"c": dirty})) == content_hash(pa.table({"c": clean}))
    # nested: a null list row over a non-empty child range, a null struct
    # row over child values
    lst = pa.ListArray.from_arrays(pa.array([0, 1, 3, 4]), pa.array([1, 7, 7, 2]), mask=pa.array([False, True, False]))
    assert content_hash(pa.table({"c": lst})) == content_hash(pa.table({"c": pa.array([[1], None, [2]])}))
    sta = pa.StructArray.from_arrays([pa.array([1, 9, 2])], ["x"], mask=pa.array([False, True, False]))
    assert content_hash(pa.table({"c": sta})) == content_hash(
        pa.table({"c": pa.array([{"x": 1}, None, {"x": 2}])}))


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    rows=st.lists(st.tuples(
        st.one_of(st.none(), st.integers(-2**63, 2**63 - 1)),
        st.one_of(st.none(), st.floats(allow_nan=True), st.just(-0.0)),
        st.one_of(st.none(), st.text(max_size=6)),
        st.one_of(st.none(), st.binary(max_size=6)),
        st.one_of(st.none(), st.lists(st.one_of(st.none(), st.integers(-5, 5)), max_size=3)),
    ), max_size=30),
    seed=st.integers(0, 2**32 - 1),
    cut=st.integers(1, 8),
)
def test_multiset_property(rows, seed, cut):
    """Row order, chunking and slicing never change the hash."""
    cols = list(zip(*rows)) if rows else [[]] * 5
    types = [pa.int64(), pa.float64(), pa.string(), pa.binary(), pa.list_(pa.int64())]
    t = pa.table([pa.array(list(c), ty) for c, ty in zip(cols, types)],
                 names=["i", "f", "s", "b", "l"])
    h = content_hash(t)
    shuffled = _perm(t, seed)
    assert content_hash(shuffled) == h
    assert content_hash(pa.Table.from_batches(shuffled.to_batches(max_chunksize=cut), t.schema)) == h
    padded = pa.concat_tables([t.slice(0, 1), t, t.slice(0, 2)]).combine_chunks()
    assert content_hash(padded.slice(min(1, t.num_rows), t.num_rows)) == h


# --- different rows give different hashes


def test_cases_the_json_hash_merged():
    """Rows the former pandas/JSON per-column hash could not tell apart."""
    # a value swap between rows of one column
    a = pa.table({"k": [1, 2], "v": ["x", "y"]})
    assert content_hash(a) != content_hash(pa.table({"k": [1, 2], "v": ["y", "x"]}))
    # a WKB value edited in the middle
    ring = np.c_[np.cos(np.linspace(0, 6.28, 200)), np.sin(np.linspace(0, 6.28, 200))]
    ring[-1] = ring[0]
    w = gwkb.polygon_wkb(ring)
    edited = w[:1000] + bytes([w[1000] ^ 1]) + w[1001:]
    assert content_hash(pa.table({"g": [w]})) != content_hash(pa.table({"g": [edited]}))
    # NaN against null
    assert content_hash(pa.table({"f": [np.nan]})) != content_hash(
        pa.table({"f": pa.array([None], pa.float64())}))
    # floats that differ in the 13th significant digit
    assert content_hash(pa.table({"f": [0.1234567890123]})) != content_hash(
        pa.table({"f": [0.1234567890124]}))


def test_multiplicity_and_nesting():
    assert content_hash(pa.table({"k": [1, 1, 2]})) != content_hash(pa.table({"k": [1, 2, 2]}))
    assert content_hash(pa.table({"l": [[1, 2], [3]]})) != content_hash(pa.table({"l": [[1], [2, 3]]}))
    assert content_hash(pa.table({"l": [[None]]})) != content_hash(pa.table({"l": [[]]}))
    assert content_hash(pa.table({"s": ["ab", "c"]})) != content_hash(pa.table({"s": ["a", "bc"]}))
    assert content_hash(pa.table({"s": [""]})) != content_hash(pa.table({"s": pa.array([None], pa.string())}))
    assert content_hash(pa.table({"a": [1]})) != content_hash(pa.table({"b": [1]}))
    assert content_hash(pa.table({"a": [1]})) != content_hash(pa.table({"a": pa.array([1], pa.int32())}))


def _key(v):
    """A Python value by content, floats by bit pattern."""
    if isinstance(v, float):
        return struct.pack("<d", v)
    if isinstance(v, dict):
        return tuple((k, _key(x)) for k, x in v.items())
    if isinstance(v, list):
        return tuple(_key(x) for x in v)
    return v


@pytest.mark.parametrize("col", _table().column_names)
def test_every_type_sees_an_edit(col):
    t = _table()
    vals = t[col].to_pylist()
    # row i takes row i + 1's value, so the multiset of rows changes
    i = next(i for i in range(len(vals) - 1) if _key(vals[i]) != _key(vals[i + 1]))
    vals[i] = vals[i + 1]
    edited = t.set_column(t.schema.get_field_index(col), col, pa.array(vals, t[col].type))
    assert content_hash(edited) != content_hash(t)


def test_float_bit_patterns():
    z = pa.table({"f": [0.0]})
    assert content_hash(z) != content_hash(pa.table({"f": [-0.0]}))
    assert content_hash(pa.table({"f": [_nan(1)]})) != content_hash(pa.table({"f": [_nan(2)]}))
    # rows that tie in a value sort still hash the same in any order
    t = pa.table({"f": [-0.0, 0.0, _nan(1), _nan(2)], "s": ["a", "b", "c", "d"]})
    for seed in range(6):
        assert content_hash(_perm(t, seed)) == content_hash(t)


def test_struct_with_float_ties():
    t = pa.table({"st": pa.array([{"x": -0.0}, {"x": 0.0}]), "s": ["a", "b"]})
    assert content_hash(t.take([1, 0])) == content_hash(t)
    assert content_hash(t) != content_hash(
        pa.table({"st": pa.array([{"x": 0.0}, {"x": -0.0}]), "s": ["a", "b"]}))


def test_empty_tables():
    e = _table().slice(0, 0)
    assert content_hash(e) == content_hash(_table(seed=3).slice(0, 0))
    assert content_hash(e) != content_hash(e.drop_columns(["s"]))
    assert content_hash(pa.table({})) == content_hash(pa.table({}))
    assert content_hash(pa.table({"k": pa.array([], pa.int64())})) != content_hash(
        pa.table({"k": [0]}))


def test_no_pandas(monkeypatch):
    """The hash reads Arrow buffers only: a 14-column geotagged partition
    hashes with every to_pandas path refused. pyarrow's Table and
    ChunkedArray types are immutable, so the refusal sits where their
    to_pandas must go: pandas_compat and the pandas constructors."""
    import pandas as pd
    import pyarrow.pandas_compat

    from gdal_ray import fixtures
    from gdal_ray.pipelines import flagship

    t = flagship.encode_tiles(flagship.extract_coords(
        fixtures.gen_pages(300).drop_columns(["html"])))
    assert t.num_columns == 14
    before = content_hash(t)

    def refuse(*_a, **_kw):
        raise AssertionError("to_pandas called")

    monkeypatch.setattr(pyarrow.pandas_compat, "table_to_dataframe", refuse)
    monkeypatch.setattr(pd.Series, "__init__", refuse)
    monkeypatch.setattr(pd.DataFrame, "__init__", refuse)
    for convert in (t.to_pandas, t["url"].to_pandas, t["lat"].to_pandas):
        with pytest.raises(AssertionError, match="to_pandas called"):
            convert()
    assert content_hash(t) == before
    assert content_hash(_perm(t, 1)) == before
