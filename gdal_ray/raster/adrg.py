"""ADRG (ARC Digitized Raster Graphics) reader — reference role
frmts/adrg/adrgdataset.cpp, re-derived from the MIL-A-89007 /
STANAG 7899 published layout over the engine's generic ISO/IEC 8211
reader (gdal_ray/iso8211.py):

- ``.GEN`` general-information file: GIN records with DSI
  (PRT=ADRG, NAM), GEN (ZNA zone, ARV/BRV arc-second densities,
  LSO/PSO ±DDDMMSS.SS origin), SPR (NFL/NFC tile grid, PNC/PNL=128,
  BAD image file name, TIF tile-index flag) and TIM (1-based tile
  index, 0 = empty tile)
- ``.IMG``: an ISO 8211 header ending at the IMG field's data start
  (the reference's byte-walk: 0x1E + "IMG", +4, skip 3, skip the
  space padding, +1), then 128×128 band-sequential RGB tiles
- ``.THF`` transmittal header: opens the sibling .GEN products

Geotransform per zone (adrgdataset.cpp:762): ARC polar zones 9/18
use the azimuthal-equidistant closed forms on the authalic sphere
(40075016.68558/ARV pixel, 111319.4907933·(90∓PSO) origin); all
other zones are geographic (360/ARV, −360/BRV from LSO/PSO).

Pinned against the reference autotest (gdrivers/adrg.py): checksum
62833 via .GEN, .THF and the GEN,IMG subdataset form; the ZNA 9/18
fixtures' literal geotransforms."""

from __future__ import annotations

import math
import os

import numpy as np


def _angle(s: str, lon: bool) -> float:
    """±DDDMMSS.SS (lon) / ±DDMMSS.SS (lat) → degrees."""
    sign = 1 if s[0] == "+" else -1
    s = s[1:]
    nd = 3 if lon else 2
    return sign * (float(s[:nd]) + float(s[nd:nd + 2]) / 60
                   + float(s[nd + 2:]) / 3600)


def _img_data_offset(img: bytes) -> int:
    """Skip the IMG file's ISO 8211 header (the reference byte-walk)."""
    pos = 0
    n = len(img)
    while pos < n:
        if img[pos] == 30 and img[pos + 1:pos + 4] == b"IMG":
            pos += 4 + 3  # past "IMG" then 3 more bytes
            while pos < n and img[pos] == 0x20:
                pos += 1
            return pos + 1
        pos += 1
    raise ValueError("ADRG: no IMG field in image file")


def _gen_products(gen_path: str) -> list[dict]:
    from gdal_ray.iso8211 import read_ddf

    r = read_ddf(gen_path)
    out = []
    for rec in r.records:
        rty = (rec.first("001") or {}).get("RTY")
        dsi = rec.first("DSI")
        gen = rec.first("GEN")
        spr = rec.first("SPR")
        if rty != "GIN" or dsi is None or gen is None or spr is None:
            continue
        if dsi.get("PRT") != "ADRG" or gen.get("STR") != 3:
            continue
        tim = [d.get("TSI", 0) for d in rec.all("TIM")]
        out.append({"dsi": dsi, "gen": gen, "spr": spr, "tim": tim})
    return out


def read_adrg(path: str, img_path: str | None = None) -> dict:
    """ADRG product → raster dict (3 RGB bands).  ``path`` is a
    .GEN, .THF, or the reference's ``ADRG:gen,img`` subdataset
    string."""
    from gdal_ray.vsi import vsi_read_bytes

    if path.startswith("ADRG:"):
        gen_path, img_path = path[5:].split(",", 1)
        path = gen_path
    low = path.lower()
    if low.endswith(".thf"):
        # transmittal: open the first sibling .GEN product
        base = os.path.dirname(path)
        gens = sorted(n for n in os.listdir(base)
                      if n.lower().endswith(".gen"))
        if not gens:
            raise ValueError("ADRG: no .GEN next to the THF")
        path = os.path.join(base, gens[0])
    products = _gen_products(path)
    if not products:
        raise ValueError("ADRG: no GIN/GEN product records")
    prod = None
    if img_path is not None:
        want = os.path.basename(img_path).upper()
        for p in products:
            if p["spr"].get("BAD", "").strip().upper() == want:
                prod = p
                break
    prod = prod or products[0]
    gen, spr = prod["gen"], prod["spr"]
    zna = int(gen.get("ZNA", 0))
    arv = int(gen.get("ARV", 0))
    brv = int(gen.get("BRV", 0))
    lso = _angle(gen["LSO"], lon=True)
    pso = _angle(gen["PSO"], lon=False)
    nfl, nfc = int(spr["NFL"]), int(spr["NFC"])
    if spr.get("PNC") != 128 or spr.get("PNL") != 128:
        raise ValueError("ADRG: only 128x128 tiles supported")
    bad = spr["BAD"].split(" ")[0]
    if img_path is None:
        img_path = os.path.join(os.path.dirname(path), bad)
        if not os.path.exists(img_path):
            img_path = os.path.join(os.path.dirname(path), bad.lower())
    tif = str(spr.get("TIF", "N")).startswith("Y")
    tile_index = prod["tim"] if tif else None

    img = vsi_read_bytes(img_path)
    off0 = _img_data_offset(img)
    h, w = nfl * 128, nfc * 128
    bands = [np.zeros((h, w), np.uint8) for _ in range(3)]
    tsz = 128 * 128
    for block in range(nfl * nfc):
        if tile_index is not None:
            t = tile_index[block] if block < len(tile_index) else 0
            if t <= 0:
                continue
            base_off = off0 + (t - 1) * tsz * 3
        else:
            base_off = off0 + block * tsz * 3
        ty, tx = divmod(block, nfc)
        y0, x0 = ty * 128, tx * 128
        for b in range(3):
            o = base_off + b * tsz
            tile = np.frombuffer(img, np.uint8, tsz, o)
            bands[b][y0:y0 + 128, x0:x0 + 128] = tile.reshape(128, 128)

    k = 111319.4907933
    circ = 40075016.68558
    if zna == 9:    # north polar ARC zone
        gt = (k * (90.0 - pso) * math.sin(math.radians(lso)),
              circ / arv, 0.0,
              -k * (90.0 - pso) * math.cos(math.radians(lso)),
              0.0, -circ / arv)
        crs = "ARC_System_Zone_09"
    elif zna == 18:  # south polar
        gt = (k * (90.0 + pso) * math.sin(math.radians(lso)),
              circ / arv, 0.0,
              k * (90.0 + pso) * math.cos(math.radians(lso)),
              0.0, -circ / arv)
        crs = "ARC_System_Zone_18"
    else:
        gt = (lso, 360.0 / arv, 0.0, pso, 0.0, -360.0 / brv)
        crs = "EPSG:4326"
    return {
        "bands": bands,
        "crs": crs,
        "geotransform": gt,
        "nodata": 0.0,
        "metadata": {"ADRG_SCA": str(gen.get("SCA", "")),
                     "ADRG_ZNA": str(zna),
                     "ADRG_NAM": prod["dsi"].get("NAM", "")},
    }


def read_adrg_or_srp(path: str) -> dict:
    """ADRG, or SRP (ASRP/USRP share the .GEN/.THF layout) when the
    file holds no ADRG product."""
    try:
        return read_adrg(path)
    except ValueError:
        from gdal_ray.raster.srp import read_srp

        return read_srp(path)


def adrg_subdatasets(gen_path: str) -> list[str]:
    """ADRG:gen,img strings for every product in a .GEN."""
    out = []
    for p in _gen_products(gen_path):
        bad = p["spr"]["BAD"].split(" ")[0]
        img = os.path.join(os.path.dirname(gen_path), bad)
        out.append(f"ADRG:{gen_path},{img}")
    return out
