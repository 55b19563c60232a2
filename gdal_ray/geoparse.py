"""Deterministic geoparsing: text → lon/lat points.

The reference's geocoding operator (ogr/ogr_geocoding.cpp:197) resolves
place names through a web service with a side cache; in a sealed
100 TB batch pipeline that becomes a **deterministic offline
gazetteer** (SURVEY.md §2.3/§2.4 "geocoding lookup" mapping):

1. ``extract_coords`` — literal ``lat,lon`` coordinate mentions (the
   FIXTURES.md §1 corpus embeds them so parsing is exactly
   invertible). Each row is parsed at its first comma with vectorised
   byte arithmetic; only the rows where that is no match go to Arrow's
   regex kernel, and ``COORD_PATTERN`` stays the one statement of the
   grammar.
2. ``GazetteerGeoparser`` — a stateful stage that compiles one
   alternation regex over the gazetteer once per worker (``__init__``,
   run through ``stages.cache.worker_cached``), then matches place
   names per batch and joins their coordinates (the
   broadcast-small-side join pattern).

Both keep ``text`` untouched (per-row invariant: byte-identical text
per url).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# 64 fixed cities (FIXTURES.md §2): name, lon, lat — 6-decimal constants,
# lat inside the WebMercator clip bound. Index 0 is the designated HOT
# city (20 % of synthetic pages mention it → hot-cell skew fixture).
GAZETTEER: list[tuple[str, float, float]] = [
    ("Jakarta", 106.845599, -6.208763),  # hot city
    ("London", -0.127600, 51.507400),
    ("Tokyo", 139.691700, 35.689500),
    ("New York", -74.006000, 40.712800),
    ("Paris", 2.352200, 48.856600),
    ("Berlin", 13.405000, 52.520000),
    ("Madrid", -3.703800, 40.416800),
    ("Rome", 12.496400, 41.902800),
    ("Moscow", 37.617600, 55.755800),
    ("Beijing", 116.407400, 39.904200),
    ("Shanghai", 121.473700, 31.230400),
    ("Delhi", 77.102500, 28.704100),
    ("Mumbai", 72.877700, 19.076000),
    ("Cairo", 31.235700, 30.044400),
    ("Lagos", 3.379200, 6.524400),
    ("Nairobi", 36.817200, -1.292100),
    ("Johannesburg", 28.047300, -26.204100),
    ("Sydney", 151.209300, -33.868800),
    ("Melbourne", 144.963100, -37.813600),
    ("Auckland", 174.763300, -36.848500),
    ("Sao Paulo", -46.633300, -23.550500),
    ("Buenos Aires", -58.381600, -34.603700),
    ("Lima", -77.042800, -12.046400),
    ("Bogota", -74.072100, 4.710900),
    ("Mexico City", -99.133200, 19.432600),
    ("Toronto", -79.383200, 43.653200),
    ("Vancouver", -123.120700, 49.282700),
    ("Chicago", -87.629800, 41.878100),
    ("Los Angeles", -118.243700, 34.052200),
    ("San Francisco", -122.419400, 37.774900),
    ("Seattle", -122.332100, 47.606200),
    ("Miami", -80.191800, 25.761700),
    ("Houston", -95.369800, 29.760400),
    ("Denver", -104.990300, 39.739200),
    ("Boston", -71.058900, 42.360100),
    ("Dublin", -6.260300, 53.349800),
    ("Lisbon", -9.139300, 38.722300),
    ("Amsterdam", 4.904100, 52.367600),
    ("Brussels", 4.351700, 50.850300),
    ("Vienna", 16.373800, 48.208200),
    ("Prague", 14.437800, 50.075500),
    ("Warsaw", 21.012200, 52.229700),
    ("Stockholm", 18.068600, 59.329300),
    ("Oslo", 10.752200, 59.913900),
    ("Helsinki", 24.938400, 60.169900),
    ("Copenhagen", 12.568300, 55.676100),
    ("Athens", 23.727500, 37.983800),
    ("Istanbul", 28.978400, 41.008200),
    ("Dubai", 55.270800, 25.204800),
    ("Tehran", 51.389000, 35.689200),
    ("Karachi", 67.001100, 24.860700),
    ("Dhaka", 90.412500, 23.810300),
    ("Bangkok", 100.501800, 13.756300),
    ("Singapore", 103.819800, 1.352100),
    ("Kuala Lumpur", 101.686900, 3.139000),
    ("Manila", 120.984200, 14.599500),
    ("Seoul", 126.978000, 37.566500),
    ("Osaka", 135.502200, 34.693700),
    ("Taipei", 121.565400, 25.033000),
    ("Hanoi", 105.834200, 21.027800),
    ("Reykjavik", -21.817400, 64.126500),
    ("Anchorage", -149.900300, 61.218100),
    ("Ushuaia", -68.303000, -54.801900),
    ("Honolulu", -157.858300, 21.306900),
]
assert len(GAZETTEER) == 64

HOT_CITY = GAZETTEER[0][0]

# literal "lat,lon" mention as written by the FIXTURES corpus
# (" at {lat:.4f},{lon:.4f} ")
COORD_PATTERN = r"(?P<lat>-?\d{1,2}\.\d{4}),(?P<lon>-?\d{1,3}\.\d{4})"


# Rows per block of the anchored parse: bounds a block's temporaries
# (two bytes per text byte, eight per comma, about 40 per row).
_BLOCK_ROWS = 16_384

_COMMA, _MINUS, _DOT = 44, 45, 46
# the window around a row's first comma: 8 bytes before it (the longest
# latitude, "-12.3456"), the comma at column 8, and 9 bytes after it (the
# longest longitude, "-123.4567")
_BEFORE, _WIDTH = 8, 18
# N of a latitude "d.dddd" in window rows 2..7; a second integer digit,
# in row 1, adds 1e5 times its value
_LAT_W = np.array([1e4, 0, 1e3, 1e2, 1e1, 1])
# N of a longitude with 1, 2 or 3 integer digits, from the 8 bytes
# after its sign
_LON_W = np.array(
    [
        [1e4, 0, 1e3, 1e2, 1e1, 1, 0, 0],
        [1e5, 1e4, 0, 1e3, 1e2, 1e1, 1, 0],
        [1e6, 1e5, 1e4, 0, 1e3, 1e2, 1e1, 1],
    ]
)


def extract_coords(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Vectorized literal-coordinate extraction (stateless map_batches).

    Appends ``lon``/``lat`` float64 columns (NaN where no coordinate
    mention) and ``has_coords`` bool. Text passes through zero-copy.

    The values are those of the leftmost ``COORD_PATTERN`` match, cast
    from its strings to float64. For ``string`` and ``large_string``
    text most rows never reach the regex: a match holds one comma, at
    most 8 bytes after its start, and no comma before it, so a match
    whose comma is the row's first comma is the leftmost one. Each
    chunk is parsed in blocks of ``_BLOCK_ROWS`` rows: the bytes around
    every row's first comma are checked against the pattern's fixed
    layout and read as integers N, giving ``±N / 1e4`` (the correctly
    rounded double, as the cast gives). Only rows whose first comma is
    not a match go to ``pc.extract_regex``; a null row or a row with no
    comma holds no match. Other text types take the regex alone.
    """
    col = batch[text_col]
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        parts = [_anchored_chunk(chunk) for chunk in col.chunks]
        lat = pa.chunked_array([p[0] for p in parts], pa.float64())
        lon = pa.chunked_array([p[1] for p in parts], pa.float64())
        has = pa.chunked_array([p[2] for p in parts], pa.bool_())
    else:
        lat, lon, has = _regex_coords(col)
        # NaN (not null) for misses so downstream numpy kernels are branch-free
        lat = pc.coalesce(lat, pa.scalar(float("nan"), pa.float64()))
        lon = pc.coalesce(lon, pa.scalar(float("nan"), pa.float64()))
    return (
        batch.append_column("lon", lon)
        .append_column("lat", lat)
        .append_column("has_coords", has)
    )


def _regex_coords(text):
    """(lat, lon, has) of the leftmost ``COORD_PATTERN`` match; lat and
    lon are null where a row holds none."""
    ext = pc.extract_regex(text, COORD_PATTERN)
    lat = pc.cast(pc.struct_field(ext, "lat"), pa.float64())
    lon = pc.cast(pc.struct_field(ext, "lon"), pa.float64())
    return lat, lon, pc.is_valid(lat)


def _anchored_chunk(arr: pa.Array):
    """(lat, lon, has) numpy arrays of one string chunk: the anchored
    parse in row blocks, then the regex on the rows it could not settle."""
    n = len(arr)
    lat = np.full(n, np.nan)
    lon = np.full(n, np.nan)
    hit = np.zeros(n, bool)
    retry = np.zeros(n, bool)  # a first comma that is not a match
    _, offs_buf, data_buf = arr.buffers()
    if n == 0 or data_buf is None or data_buf.size == 0:
        return lat, lon, hit
    width = 8 if pa.types.is_large_string(arr.type) else 4
    offsets = np.frombuffer(
        offs_buf, np.int64 if width == 8 else np.int32, n + 1, arr.offset * width
    ).astype(np.int64)
    data = np.frombuffer(data_buf, np.uint8)
    for lo in range(0, n, _BLOCK_ROWS):
        hi = min(lo + _BLOCK_ROWS, n)
        block = slice(lo, hi)
        _anchored_block(
            data, offsets[lo : hi + 1], lat[block], lon[block], hit[block], retry[block]
        )
    if arr.null_count:
        valid = arr.is_valid().to_numpy(zero_copy_only=False)
        hit &= valid
        retry &= valid
        lat[~valid] = np.nan
        lon[~valid] = np.nan
    idx = np.flatnonzero(retry)
    if len(idx):
        r_lat, r_lon, r_has = _regex_coords(arr.take(pa.array(idx)))
        lat[idx] = r_lat.to_numpy(zero_copy_only=False)
        lon[idx] = r_lon.to_numpy(zero_copy_only=False)
        hit[idx] = r_has.to_numpy(zero_copy_only=False)
    return lat, lon, hit


def _anchored_block(data, offsets, lat, lon, hit, retry):
    """Parse ``COORD_PATTERN`` at each row's first comma, in place: the
    rows between ``offsets`` fill ``lat``/``lon``/``hit``; ``retry``
    marks the rows that hold a comma but no match at the first one."""
    start, end = int(offsets[0]), int(offsets[-1])
    if end <= start:
        return
    # zero bytes on both sides, so every window is inside the buffer
    padded = np.empty(end - start + _WIDTH, np.uint8)
    padded[:_BEFORE] = padded[_BEFORE + end - start :] = 0
    padded[_BEFORE : _BEFORE + end - start] = data[start:end]
    commas = np.flatnonzero(padded == _COMMA)
    if not len(commas):
        return
    row_lo = offsets[:-1] - (start - _BEFORE)  # row bounds in padded
    row_hi = offsets[1:] - (start - _BEFORE)
    first = np.searchsorted(commas, row_lo)
    c = commas[np.minimum(first, len(commas) - 1)]
    rows = np.flatnonzero((first < len(commas)) & (c < row_hi))
    c = c[rows]
    # one 18-byte element per buffer position, as an as_strided window
    windows = np.ndarray(
        (len(padded) - _WIDTH + 1,), f"V{_WIDTH}", padded, strides=(1,)
    )
    # w[j] holds the byte at c - 8 + j of each row
    w = windows[c - _BEFORE].view(np.uint8).reshape(-1, _WIDTH)
    w = np.ascontiguousarray(w.T)
    before, after = c - row_lo[rows], row_hi[rows] - c
    edge = np.flatnonzero((before < _BEFORE) | (after < _WIDTH - _BEFORE))
    if len(edge):  # bytes of other rows read as 0
        j = np.arange(_WIDTH)[:, None]
        w[:, edge] *= (j >= _BEFORE - before[edge]) & (j < _BEFORE + after[edge])
    d = w - np.uint8(48)  # digit values; any other byte wraps to >= 10
    digit = d < 10

    # latitude -?\d{1,2}\.\d{4} ends at the comma; the leftmost match
    # takes a second integer digit and then a sign when they are there
    two = digit[1]
    lat_ok = digit[2] & (w[3] == _DOT) & digit[4:8].all(axis=0)
    lat_neg = np.where(two, w[0], w[1]) == _MINUS
    lat_n = _LAT_W @ d[2:8] + two * (d[1] * 1e5)

    # longitude -?\d{1,3}\.\d{4} starts after the comma
    lon_neg = w[9] == _MINUS
    b = np.where(lon_neg, w[10:18], w[9:17])
    e = b - np.uint8(48)
    dg = e < 10
    one_d = dg[0] & (b[1] == _DOT) & dg[2:6].all(axis=0)
    two_d = dg[0] & dg[1] & (b[2] == _DOT) & dg[3:7].all(axis=0)
    three_d = dg[:3].all(axis=0) & (b[3] == _DOT) & dg[4:8].all(axis=0)
    n = _LON_W @ e
    lon_n = np.where(one_d, n[0], np.where(two_d, n[1], n[2]))

    ok = lat_ok & (one_d | two_d | three_d)
    # N < 2**53, so N / 1e4 is the correctly rounded double; -0.0000
    # gives -0.0
    lat[rows] = np.where(ok, np.where(lat_neg, -lat_n, lat_n) / 1e4, np.nan)
    lon[rows] = np.where(ok, np.where(lon_neg, -lon_n, lon_n) / 1e4, np.nan)
    hit[rows] = ok
    retry[rows] = ~ok


class GazetteerGeoparser:
    """Stateful stage: place-name → lon/lat via the offline gazetteer.

    Regex alternation compiled ONCE per worker (longest-name-first so
    multi-word names win), lookup dict broadcast-free (the gazetteer is
    a code constant; for a real corpus it would arrive as a
    ``ray.put`` ref resolved by ``stages.cache.resolve_broadcast`` in
    ``__init__``).

    Use: ``ds.map_batches(worker_cached(GazetteerGeoparser),
    batch_format="pyarrow")``.
    """

    def __init__(self, gazetteer: list[tuple[str, float, float]] | None = None):
        gaz = gazetteer or GAZETTEER
        names = sorted((g[0] for g in gaz), key=len, reverse=True)
        # RE2-style alternation evaluated by Arrow's C++ regex kernel —
        # the whole batch is matched without touching Python rows
        self._pattern = "(?P<place>" + "|".join(re.escape(n) for n in names) + ")"
        lut = {g[0]: (g[1], g[2]) for g in gaz}
        self._names = pa.array(list(lut.keys()), pa.string())
        self._lon = np.array([lut[n][0] for n in lut], dtype=np.float64)
        self._lat = np.array([lut[n][1] for n in lut], dtype=np.float64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ext = pc.extract_regex(batch["text"], self._pattern)
        place = pc.struct_field(ext, "place")
        # nulls (no place matched) surface as NaN after the numpy cast
        idxf = (
            pc.index_in(place, value_set=self._names)
            .to_numpy(zero_copy_only=False)
            .astype(np.float64)
        )
        miss = np.isnan(idxf)
        idx_i = np.where(miss, 0, idxf).astype(np.int64)
        lon = np.where(miss, np.nan, self._lon[idx_i])
        lat = np.where(miss, np.nan, self._lat[idx_i])
        return (
            batch.append_column("place", place)
            .append_column("place_lon", pa.array(lon))
            .append_column("place_lat", pa.array(lat))
        )


def gazetteer_table() -> pa.Table:
    return pa.table(
        {
            "place": [g[0] for g in GAZETTEER],
            "lon": [g[1] for g in GAZETTEER],
            "lat": [g[2] for g in GAZETTEER],
        }
    )
