"""DirectDraw Surface (DDS) raster driver — reference role
frmts/dds/ddsdataset.cpp (which delegates DXTn to the crunch
library), re-derived from the published Microsoft DDS programming
guide and the public S3TC (BC1/BC2/BC3) block formats:

  "DDS " magic | 124-byte DDS_HEADER (height/width/pitch at fixed
  offsets, DDS_PIXELFORMAT at offset 76: size 32, flags, FourCC,
  RGBBitCount + R/G/B/A masks)

Read paths:
- uncompressed RGB/RGBA/luminance via mask-driven channel extraction
  (any 8-bit-per-channel mask layout, vectorized)
- DXT1 (BC1: two RGB565 endpoints + 2-bit selectors, 3-color +
  transparent mode when c0 <= c1), DXT3 (BC2: explicit 4-bit alpha),
  DXT5 (BC3: interpolated alpha, 8- and 6-level modes) — fully
  vectorized numpy block expansion

Writer: uncompressed 32-bit RGBA / 24-bit RGB (the layout of the
reference's own stefan_full_rgba_no_compression.dds fixture, which
pins the read path bit-exactly against the source TIFF's band
checksums).  DXTn ENCODE stays with the reference's crunch
delegation — a named boundary."""

from __future__ import annotations

import struct

import numpy as np

_DDPF_ALPHAPIXELS = 0x1
_DDPF_FOURCC = 0x4
_DDPF_RGB = 0x40
_DDPF_LUMINANCE = 0x20000


def _expand565(c: np.ndarray) -> np.ndarray:
    """(n,) uint16 RGB565 → (n, 3) uint8 with the standard
    replicate-high-bits expansion."""
    r = ((c >> 11) & 0x1F).astype(np.uint16)
    g = ((c >> 5) & 0x3F).astype(np.uint16)
    b = (c & 0x1F).astype(np.uint16)
    return np.stack([(r << 3) | (r >> 2),
                     (g << 2) | (g >> 4),
                     (b << 3) | (b >> 2)], axis=1).astype(np.uint8)


def _dxt_color_block(c0: np.ndarray, c1: np.ndarray,
                     bits: np.ndarray, opaque: bool):
    """Vectorized BC1 color expansion.

    c0/c1: (n,) u16 endpoints; bits: (n,) u32 selector words.
    Returns ((n, 16, 3) colors, (n, 16) transparent mask)."""
    n = len(c0)
    p0 = _expand565(c0).astype(np.int32)
    p1 = _expand565(c1).astype(np.int32)
    pal = np.zeros((n, 4, 3), np.int32)
    pal[:, 0] = p0
    pal[:, 1] = p1
    four = opaque | (c0 > c1)
    # 4-color: 2/3·c0+1/3·c1 and 1/3+2/3; 3-color: midpoint + black
    pal[:, 2] = np.where(four[:, None],
                         (2 * p0 + p1) // 3, (p0 + p1) // 2)
    pal[:, 3] = np.where(four[:, None], (p0 + 2 * p1) // 3, 0)
    sel = np.zeros((n, 16), np.uint8)
    for i in range(16):
        sel[:, i] = (bits >> (2 * i)) & 0x3
    colors = np.take_along_axis(
        pal, sel[:, :, None].astype(np.int64), axis=1)
    transparent = (~four[:, None]) & (sel == 3)
    return colors.astype(np.uint8), transparent


def _blocks_to_image(vals: np.ndarray, h: int, w: int) -> np.ndarray:
    """(nblocks, 16, c) block texels → (h, w, c) image."""
    bw = (w + 3) // 4
    bh = (h + 3) // 4
    c = vals.shape[2]
    img = vals.reshape(bh, bw, 4, 4, c).transpose(0, 2, 1, 3, 4)
    return np.ascontiguousarray(img.reshape(bh * 4, bw * 4, c)[:h, :w])


def _decode_dxt1(data: bytes, h: int, w: int) -> np.ndarray:
    n = ((w + 3) // 4) * ((h + 3) // 4)
    raw = np.frombuffer(data, "<u2", n * 4).reshape(n, 4)
    bits = raw[:, 2].astype(np.uint32) | (raw[:, 3].astype(np.uint32)
                                          << 16)
    colors, transparent = _dxt_color_block(raw[:, 0].astype(np.uint16),
                                           raw[:, 1].astype(np.uint16),
                                           bits, opaque=False)
    alpha = np.where(transparent, 0, 255).astype(np.uint8)
    texels = np.concatenate([colors, alpha[:, :, None]], axis=2)
    return _blocks_to_image(texels, h, w)


def _decode_dxt3(data: bytes, h: int, w: int) -> np.ndarray:
    n = ((w + 3) // 4) * ((h + 3) // 4)
    raw = np.frombuffer(data, np.uint8, n * 16).reshape(n, 16)
    abytes = raw[:, :8]
    alpha = np.empty((n, 16), np.uint8)
    for i in range(8):
        lo = abytes[:, i] & 0x0F
        hi = abytes[:, i] >> 4
        alpha[:, 2 * i] = (lo << 4) | lo
        alpha[:, 2 * i + 1] = (hi << 4) | hi
    cw = raw[:, 8:].copy().view("<u2").reshape(n, 4)
    bits = cw[:, 2].astype(np.uint32) | (cw[:, 3].astype(np.uint32)
                                         << 16)
    colors, _ = _dxt_color_block(cw[:, 0].astype(np.uint16),
                                 cw[:, 1].astype(np.uint16), bits,
                                 opaque=True)
    texels = np.concatenate([colors, alpha[:, :, None]], axis=2)
    return _blocks_to_image(texels, h, w)


def _decode_dxt5(data: bytes, h: int, w: int) -> np.ndarray:
    n = ((w + 3) // 4) * ((h + 3) // 4)
    raw = np.frombuffer(data, np.uint8, n * 16).reshape(n, 16)
    a0 = raw[:, 0].astype(np.int32)
    a1 = raw[:, 1].astype(np.int32)
    abits = np.zeros(n, np.uint64)
    for i in range(6):
        abits |= raw[:, 2 + i].astype(np.uint64) << np.uint64(8 * i)
    # alpha palette: 8-level (a0 > a1) or 6-level + 0/255
    pal = np.zeros((n, 8), np.int32)
    pal[:, 0] = a0
    pal[:, 1] = a1
    eight = a0 > a1
    for k in range(1, 7):
        pal[:, k + 1] = np.where(
            eight,
            ((7 - k) * a0 + k * a1) // 7,
            0)
    for k in range(1, 5):
        pal[:, k + 1] = np.where(
            eight, pal[:, k + 1], ((5 - k) * a0 + k * a1) // 5)
    pal[:, 6] = np.where(eight, pal[:, 6], 0)
    pal[:, 7] = np.where(eight, pal[:, 7], 255)
    alpha = np.empty((n, 16), np.uint8)
    for i in range(16):
        sel = ((abits >> np.uint64(3 * i)) & np.uint64(7)).astype(
            np.int64)
        alpha[:, i] = np.take_along_axis(pal, sel[:, None],
                                         axis=1)[:, 0]
    cw = raw[:, 8:].copy().view("<u2").reshape(n, 4)
    bits = cw[:, 2].astype(np.uint32) | (cw[:, 3].astype(np.uint32)
                                         << 16)
    colors, _ = _dxt_color_block(cw[:, 0].astype(np.uint16),
                                 cw[:, 1].astype(np.uint16), bits,
                                 opaque=True)
    texels = np.concatenate([colors, alpha[:, :, None]], axis=2)
    return _blocks_to_image(texels, h, w)


def _mask_shift(mask: int) -> tuple[int, int]:
    if mask == 0:
        return 0, 0
    shift = 0
    while not (mask >> shift) & 1:
        shift += 1
    width = 0
    while (mask >> (shift + width)) & 1:
        width += 1
    return shift, width


def decode_dds(data: bytes) -> dict:
    if data[:4] != b"DDS " or struct.unpack_from("<I", data, 4)[0] != 124:
        raise ValueError("not a DDS file")
    h, w = struct.unpack_from("<II", data, 12)
    pf_flags, = struct.unpack_from("<I", data, 80)
    fourcc = data[84:88]
    bitcount, rmask, gmask, bmask, amask = struct.unpack_from(
        "<IIIII", data, 88)
    body = data[128:]
    compression = None
    if pf_flags & _DDPF_FOURCC:
        name = fourcc.decode("ascii", "replace")
        if fourcc == b"DXT1":
            img = _decode_dxt1(body, h, w)
        elif fourcc in (b"DXT2", b"DXT3"):
            img = _decode_dxt3(body, h, w)
        elif fourcc in (b"DXT4", b"DXT5"):
            img = _decode_dxt5(body, h, w)
        else:
            raise NotImplementedError(f"DDS FourCC {name}")
        compression = {b"DXT2": "DXT3",
                       b"DXT4": "DXT5"}.get(fourcc, fourcc.decode())
        bands = [np.ascontiguousarray(img[:, :, i]) for i in range(4)]
    elif pf_flags & _DDPF_RGB:
        nbytes = bitcount // 8
        raw = np.frombuffer(body, np.uint8,
                            h * w * nbytes).reshape(h, w, nbytes)
        words = np.zeros((h, w), np.uint32)
        for i in range(nbytes):
            words |= raw[:, :, i].astype(np.uint32) << (8 * i)
        bands = []
        masks = [rmask, gmask, bmask]
        if pf_flags & _DDPF_ALPHAPIXELS and amask:
            masks.append(amask)
        for m in masks:
            shift, width = _mask_shift(m)
            v = ((words >> shift) & ((1 << width) - 1)).astype(
                np.uint32)
            if width < 8 and width > 0:
                v = (v * 255 // ((1 << width) - 1))
            bands.append(v.astype(np.uint8))
        compression = "NONE"
    elif pf_flags & _DDPF_LUMINANCE:
        raw = np.frombuffer(body, np.uint8, h * w).reshape(h, w)
        bands = [raw.copy()]
        compression = "NONE"
    else:
        raise NotImplementedError("DDS pixel format not supported")
    return {
        "bands": bands,
        "crs": None,
        "geotransform": (0.0, 1.0, 0.0, 0.0, 0.0, 1.0),
        "nodata": None,
        "compression": compression,
    }


def read_dds(path: str) -> dict:
    from gdal_ray.vsi import vsi_read_bytes

    return decode_dds(vsi_read_bytes(path))


def encode_dds(bands: list[np.ndarray]) -> bytes:
    """Uncompressed DDS writer: 3 bands → 24-bit RGB (BGR order),
    4 bands → 32-bit RGBA (BGRA order) — the fixture's layout."""
    if len(bands) not in (3, 4):
        raise ValueError("DDS write needs 3 (RGB) or 4 (RGBA) bands")
    h, w = bands[0].shape
    nb = len(bands)
    bitcount = nb * 8
    flags = 0x1 | 0x2 | 0x4 | 0x1000 | 0x8  # caps|h|w|pixfmt|pitch
    header = bytearray(128)
    header[0:4] = b"DDS "
    struct.pack_into("<I", header, 4, 124)
    struct.pack_into("<I", header, 8, flags)
    struct.pack_into("<II", header, 12, h, w)
    struct.pack_into("<I", header, 20, w * nb)  # pitch
    # pixel format
    struct.pack_into("<I", header, 76, 32)
    pf_flags = _DDPF_RGB | (_DDPF_ALPHAPIXELS if nb == 4 else 0)
    struct.pack_into("<I", header, 80, pf_flags)
    struct.pack_into("<IIIII", header, 88, bitcount,
                     0x00FF0000, 0x0000FF00, 0x000000FF,
                     0xFF000000 if nb == 4 else 0)
    struct.pack_into("<I", header, 108, 0x1000)  # caps: texture
    order = [2, 1, 0] + ([3] if nb == 4 else [])  # B,G,R[,A] bytes
    stack = np.stack([bands[i] for i in order], axis=2)
    return bytes(header) + np.ascontiguousarray(stack).tobytes()
