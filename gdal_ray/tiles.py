"""WebMercator / Geodetic tile math — vectorized GlobalMercator port.

Bit-for-bit transcription (numpy-vectorized) of the authoritative tile
formulas in the reference:
``swig/python/gdal-utils/osgeo_utils/gdal2tiles.py`` ``GlobalMercator``
(:315-533) and ``GlobalGeodetic`` (:534-630).  The XYZ (Google/slippy)
y-flip follows ``apps/gdalalg_raster_tile.cpp:488``.

Key constants:
- ``ORIGIN_SHIFT = 2*pi*6378137/2 = 20037508.342789244`` (gdal2tiles.py:331)
- ``INITIAL_RESOLUTION = 2*pi*6378137/tile_size`` = 156543.03392804062
  for 256-px tiles (gdal2tiles.py:330)
- the tile of a pixel coordinate is ``ceil(p/tile_size) - 1``
  (gdal2tiles.py ``PixelsToTile``), NOT ``floor(p/tile_size)`` — the
  two differ on exact tile boundaries; we reproduce the reference rule.

This is the spherical (not ellipsoidal) Mercator, which is also the
official EPSG:3857 definition, so the tile path and the CRS-transform
path (gdal_ray.proj.webmercator) agree exactly.

All functions take/return numpy arrays (scalars broadcast fine).
"""

from __future__ import annotations

import numpy as np

EARTH_RADIUS = 6378137.0
ORIGIN_SHIFT = 2.0 * np.pi * EARTH_RADIUS / 2.0  # 20037508.342789244
TILE_SIZE = 256
INITIAL_RESOLUTION = 2.0 * np.pi * EARTH_RADIUS / TILE_SIZE  # 156543.03392804062

# WebMercator latitude clip bound (gdal2tiles.py:349 note).
MAX_LAT = 85.05112877980659
MIN_LAT = -MAX_LAT


def resolution(zoom, tile_size: int = TILE_SIZE):
    """Meters/pixel at a zoom level (gdal2tiles.py Resolution :497)."""
    init = 2.0 * np.pi * EARTH_RADIUS / tile_size
    return init / (2.0 ** np.asarray(zoom, dtype=np.float64))


def lonlat_to_meters(lon, lat):
    """EPSG:4326 → EPSG:3857 meters (gdal2tiles.py LatLonToMeters :422).

    ``mx = lon * originShift / 180``
    ``my = ln(tan((90+lat)*pi/360)) / (pi/180) * originShift / 180``
    """
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    mx = lon * ORIGIN_SHIFT / 180.0
    my = np.log(np.tan((90.0 + lat) * np.pi / 360.0)) / (np.pi / 180.0)
    my = my * ORIGIN_SHIFT / 180.0
    return mx, my


def meters_to_lonlat(mx, my):
    """EPSG:3857 meters → lon/lat (gdal2tiles.py MetersToLatLon :430)."""
    mx = np.asarray(mx, dtype=np.float64)
    my = np.asarray(my, dtype=np.float64)
    lon = (mx / ORIGIN_SHIFT) * 180.0
    lat = (my / ORIGIN_SHIFT) * 180.0
    lat = (
        180.0
        / np.pi
        * (2.0 * np.arctan(np.exp(lat * np.pi / 180.0)) - np.pi / 2.0)
    )
    return lon, lat


def meters_to_pixels(mx, my, zoom, tile_size: int = TILE_SIZE):
    """Meters → pyramid pixel coords at zoom (gdal2tiles.py MetersToPixels :460)."""
    res = resolution(zoom, tile_size)
    px = (np.asarray(mx, dtype=np.float64) + ORIGIN_SHIFT) / res
    py = (np.asarray(my, dtype=np.float64) + ORIGIN_SHIFT) / res
    return px, py


def pixels_to_meters(px, py, zoom, tile_size: int = TILE_SIZE):
    """Pyramid pixels at zoom → meters (gdal2tiles.py PixelsToMeters :453)."""
    res = resolution(zoom, tile_size)
    mx = np.asarray(px, dtype=np.float64) * res - ORIGIN_SHIFT
    my = np.asarray(py, dtype=np.float64) * res - ORIGIN_SHIFT
    return mx, my


def pixels_to_tile(px, py, tile_size: int = TILE_SIZE):
    """Pixel coords → TMS tile indices: ``ceil(p/size) - 1``
    (gdal2tiles.py PixelsToTile :467-472); a non-finite coordinate
    (a row without one) gets -1."""
    tx = np.ceil(np.asarray(px, dtype=np.float64) / float(tile_size)) - 1
    ty = np.ceil(np.asarray(py, dtype=np.float64) / float(tile_size)) - 1
    return (np.where(np.isfinite(tx), tx, -1).astype(np.int64),
            np.where(np.isfinite(ty), ty, -1).astype(np.int64))


def meters_to_tile(mx, my, zoom, tile_size: int = TILE_SIZE):
    """Meters → TMS tile (gdal2tiles.py MetersToTile :473)."""
    px, py = meters_to_pixels(mx, my, zoom, tile_size)
    return pixels_to_tile(px, py, tile_size)


def lonlat_to_tile(lon, lat, zoom, tile_size: int = TILE_SIZE):
    """lon/lat → TMS tile at zoom (LatLonToMeters ∘ MetersToTile)."""
    mx, my = lonlat_to_meters(lon, lat)
    return meters_to_tile(mx, my, zoom, tile_size)


def tms_to_xyz(ty, zoom):
    """TMS y (origin bottom-left) → XYZ/Google y (origin top-left):
    ``y_xyz = 2^z - 1 - y_tms`` (apps/gdalalg_raster_tile.cpp:488,
    gdal2tiles.py GoogleTile :503-508)."""
    return (1 << np.asarray(zoom, dtype=np.int64)) - 1 - np.asarray(ty, dtype=np.int64)


# the flip is an involution
xyz_to_tms = tms_to_xyz


def clamp_tile(t, zoom):
    """Tile indices clamped to [0, 2^z - 1], the range gdal2tiles
    writes: lon -180 (tile -1 by the ceil rule) and latitudes past the
    Web Mercator limit of ±85.0511° land on the edge tiles. Clamping is
    monotone, so a point still falls in the clamped tile range of any
    box that holds it."""
    top = (1 << np.asarray(zoom, dtype=np.int64)) - 1
    return np.clip(np.asarray(t, dtype=np.int64), 0, top)


def lonlat_to_xyz_tile(lon, lat, zoom, tile_size: int = TILE_SIZE):
    """lon/lat → XYZ (Google/slippy) tile (x, y) at zoom. A finite
    coordinate is clamped to the pyramid (``clamp_tile``; latitudes
    first to ±``MAX_LAT``, since past ±90° the Mercator formula has no
    value). A non-finite one keeps ``pixels_to_tile``'s -1 marker, so a
    row without coordinates gets x = -1 and y = 2^z, outside every
    pyramid tile."""
    lon = np.asarray(lon, dtype=np.float64)
    lat = np.asarray(lat, dtype=np.float64)
    tx, ty = lonlat_to_tile(lon, np.clip(lat, MIN_LAT, MAX_LAT), zoom, tile_size)
    tx = np.where(np.isfinite(lon), clamp_tile(tx, zoom), tx)
    ty = np.where(np.isfinite(lat), clamp_tile(ty, zoom), ty)
    return tx, tms_to_xyz(ty, zoom)


def tile_bounds(tx, ty, zoom, tile_size: int = TILE_SIZE):
    """TMS tile → (minx, miny, maxx, maxy) EPSG:3857 meters
    (gdal2tiles.py TileBounds :479)."""
    tx = np.asarray(tx, dtype=np.float64)
    ty = np.asarray(ty, dtype=np.float64)
    minx, miny = pixels_to_meters(tx * tile_size, ty * tile_size, zoom, tile_size)
    maxx, maxy = pixels_to_meters(
        (tx + 1) * tile_size, (ty + 1) * tile_size, zoom, tile_size
    )
    return minx, miny, maxx, maxy


def quadkey(tx, ty, zoom):
    """TMS tile → Bing-style quadtree key (gdal2tiles.py QuadTree :519-531).

    Uses the Google y internally, digits from z down to 1.
    """
    tx = np.asarray(tx, dtype=np.int64)
    zoom = int(zoom)
    ty_g = tms_to_xyz(ty, zoom)
    n = np.broadcast(tx, ty_g).shape
    out = np.full(n if n else (1,), "", dtype=object)
    txb = np.broadcast_to(tx, out.shape)
    tyb = np.broadcast_to(ty_g, out.shape)
    for i in range(zoom, 0, -1):
        mask = 1 << (i - 1)
        digit = ((txb & mask) != 0).astype(np.int64) + 2 * ((tyb & mask) != 0).astype(
            np.int64
        )
        out = np.char.add(out.astype(str), digit.astype(str)).astype(object)
    return out.astype(str)


def parent_tile(tx, ty, zoom):
    """Tile at zoom → containing tile at zoom-1 (pyramid reduce key).

    4 children (2tx..2tx+1, 2ty..2ty+1) → 1 parent, the inverse of
    gdal2tiles.py create_overview_tile (:1471).
    Works identically for TMS and XYZ indices.
    """
    tx = np.asarray(tx, dtype=np.int64)
    ty = np.asarray(ty, dtype=np.int64)
    return tx >> 1, ty >> 1, np.asarray(zoom, dtype=np.int64) - 1


def tile_id(z, x, y):
    """Pack (z, x, y) into one int64 shuffle key: z in the top 6 bits,
    then x and y with 29 bits each (enough through z=29). A z outside
    [0, 29] or an x or y outside [0, 2^29 - 1] raises ``ValueError``:
    its bits would spill into the other fields, so distinct tiles
    would share a key (clamp with ``clamp_tile`` first, and leave
    rows without a tile out)."""
    z = np.asarray(z, dtype=np.int64)
    x = np.asarray(x, dtype=np.int64)
    y = np.asarray(y, dtype=np.int64)
    if np.any((z < 0) | (z > 29)):
        raise ValueError("tile_id: zoom outside [0, 29]")
    if np.any((x < 0) | (x >= 1 << 29) | (y < 0) | (y >= 1 << 29)):
        raise ValueError("tile_id: tile x or y outside [0, 2^29 - 1]")
    return (z << 58) | (x << 29) | y


def tile_id_unpack(tid):
    tid = np.asarray(tid, dtype=np.int64)
    z = tid >> 58
    x = (tid >> 29) & ((1 << 29) - 1)
    y = tid & ((1 << 29) - 1)
    return z, x, y


class GlobalGeodetic:
    """EPSG:4326 tile profile (gdal2tiles.py GlobalGeodetic :534-630).

    With ``tmscompatible`` resolution factor 180/256/2^z (one 256² tile
    covers the world at z=0 vertically, 2 horizontally).
    """

    def __init__(self, tile_size: int = TILE_SIZE, tmscompatible: bool = True):
        self.tile_size = tile_size
        # gdal2tiles: tmscompatible → resFact = 180/tile_size, else 360/tile_size
        self.res_fact = (180.0 if tmscompatible else 360.0) / tile_size

    def resolution(self, zoom):
        return self.res_fact / (2.0 ** np.asarray(zoom, dtype=np.float64))

    def lonlat_to_pixels(self, lon, lat, zoom):
        res = self.resolution(zoom)
        px = (180.0 + np.asarray(lon, dtype=np.float64)) / res
        py = (90.0 + np.asarray(lat, dtype=np.float64)) / res
        return px, py

    def lonlat_to_tile(self, lon, lat, zoom):
        px, py = self.lonlat_to_pixels(lon, lat, zoom)
        return pixels_to_tile(px, py, self.tile_size)

    def tile_bounds(self, tx, ty, zoom):
        res = self.resolution(zoom)
        tx = np.asarray(tx, dtype=np.float64)
        ty = np.asarray(ty, dtype=np.float64)
        return (
            tx * self.tile_size * res - 180.0,
            ty * self.tile_size * res - 90.0,
            (tx + 1) * self.tile_size * res - 180.0,
            (ty + 1) * self.tile_size * res - 90.0,
        )
