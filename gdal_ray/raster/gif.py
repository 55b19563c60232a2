"""GIF raster driver — reference role frmts/gif/gifdataset.cpp (which
delegates to giflib); this is a from-scratch GIF87a/89a codec from the
public specification (W3C/CompuServe GSD + RFC-style LZW description).

Band semantics match the reference: ONE band of palette indexes plus
the color table; a 89a graphic-control transparent index is exposed
as ``nodata``.  The XMP application extension ("XMP DataXMP", payload
terminated by the 258-byte magic trailer) is exposed as ``xmp`` — the
reference's xml:XMP metadata domain.  Interlaced images are
de-interlaced on read and can be written with ``interlace=True``
(autotest test_gif_10 role).

LZW: variable code width (min+1 … 12 bits, LSB-first packing), CLEAR
resets the table, per-spec deferred-clear tolerated on read; the
encoder emits CLEAR whenever the table fills — byte.tif round-trips
at checksum 4672 (test_gif_9 role), bug407.gif pins 57921
(test_gif_2).
"""

from __future__ import annotations

import struct

import numpy as np

_XMP_APP = b"XMP DataXMP"


def _lzw_decode(min_code: int, data: bytes, npix: int) -> np.ndarray:
    clear = 1 << min_code
    end = clear + 1
    width = min_code + 1
    table: list[bytes] = [bytes((i,)) for i in range(clear)] + [b"", b""]
    out = bytearray()
    bitbuf = bits = 0
    pos = 0
    prev: bytes | None = None
    n = len(data)
    while len(out) < npix:
        while bits < width:
            if pos >= n:
                # truncated stream: pad with what we have
                out.extend(b"\x00" * (npix - len(out)))
                return np.frombuffer(bytes(out), np.uint8)
            bitbuf |= data[pos] << bits
            bits += 8
            pos += 1
        code = bitbuf & ((1 << width) - 1)
        bitbuf >>= width
        bits -= width
        if code == clear:
            table = table[:clear + 2]
            width = min_code + 1
            prev = None
            continue
        if code == end:
            break
        if prev is None:
            entry = table[code]
        elif code < len(table):
            entry = table[code]
            table.append(prev + entry[:1])
        else:  # KwKwK case
            entry = prev + prev[:1]
            table.append(entry)
        out.extend(entry)
        prev = entry
        if len(table) >= (1 << width) and width < 12:
            width += 1
    if len(out) < npix:
        out.extend(b"\x00" * (npix - len(out)))
    return np.frombuffer(bytes(out[:npix]), np.uint8)


def _lzw_encode(pix: np.ndarray, min_code: int) -> bytes:
    clear = 1 << min_code
    end = clear + 1
    out = bytearray()
    bitbuf = bits = 0
    width = min_code + 1

    def emit(code):
        nonlocal bitbuf, bits
        bitbuf |= code << bits
        bits += width
        while bits >= 8:
            out.append(bitbuf & 0xFF)
            bitbuf >>= 8
            bits -= 8

    table = {bytes((i,)): i for i in range(clear)}
    nxt = clear + 2
    emit(clear)
    cur = b""
    for b in pix.tobytes():
        cand = cur + bytes((b,))
        if cand in table:
            cur = cand
            continue
        emit(table[cur])
        table[cand] = nxt
        nxt += 1
        if nxt > (1 << width):
            if width < 12:
                width += 1
            else:
                emit(clear)
                table = {bytes((i,)): i for i in range(clear)}
                nxt = clear + 2
                width = min_code + 1
        cur = bytes((b,))
    if cur:
        emit(table[cur])
    emit(end)
    if bits:
        out.append(bitbuf & 0xFF)
    return bytes(out)


def _deinterlace(rows: np.ndarray) -> np.ndarray:
    h = rows.shape[0]
    order = (list(range(0, h, 8)) + list(range(4, h, 8))
             + list(range(2, h, 4)) + list(range(1, h, 2)))
    out = np.empty_like(rows)
    out[order] = rows
    return out


def _interlace_order(h: int) -> list[int]:
    return (list(range(0, h, 8)) + list(range(4, h, 8))
            + list(range(2, h, 4)) + list(range(1, h, 2)))


def decode_gif(data: bytes) -> dict:
    """GIF bytes → ``load_raster`` dict (+ ``palette``, ``xmp``)."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF")
    sw, sh, flags, bg, _ar = struct.unpack("<HHBBB", data[6:13])
    pos = 13
    gpal = []
    if flags & 0x80:
        gn = 2 << (flags & 7)
        for i in range(gn):
            gpal.append(tuple(data[pos + i * 3:pos + i * 3 + 3]))
        pos += gn * 3
    transparent = None
    xmp = None
    while pos < len(data):
        b0 = data[pos]
        pos += 1
        if b0 == 0x3B:  # trailer
            break
        if b0 == 0x21:  # extension
            label = data[pos]
            pos += 1
            if label == 0xF9 and data[pos] >= 4:  # graphic control
                if data[pos + 1] & 1:
                    transparent = data[pos + 4]
            if label == 0xFF and data[pos] == 11 and \
                    data[pos + 1:pos + 12] == _XMP_APP:
                # XMP: raw UTF-8 payload up to the magic trailer —
                # NOT sub-block framed (the spec's documented abuse)
                tail = data.find(b"\x01", pos + 12)
                endx = data.find(b"\x00\x00", pos + 12)
                if endx > 0:
                    xmp = data[pos + 12:tail if 0 < tail < endx
                               else endx].decode("utf-8", "replace")
            # skip sub-blocks
            while pos < len(data) and data[pos]:
                pos += data[pos] + 1
            pos += 1
            continue
        if b0 != 0x2C:
            raise ValueError(f"GIF: unexpected block 0x{b0:02x}")
        _l, _t, w, h = struct.unpack("<HHHH", data[pos:pos + 8])
        iflags = data[pos + 8]
        pos += 9
        pal = gpal
        if iflags & 0x80:
            ln = 2 << (iflags & 7)
            pal = [tuple(data[pos + i * 3:pos + i * 3 + 3])
                   for i in range(ln)]
            pos += ln * 3
        if w * h > 100_000_000:
            # the reference's BIGGIF split (gifdataset.cpp: width ×
            # height > 1e8 → streaming driver). LZW is sequential, so
            # a giant GIF can't be chunk-parallel; decode it
            # incrementally via _lzw_decode on a slab basis instead of
            # materializing here.
            raise ValueError(
                f"GIF image {w}x{h} exceeds 100M px (reference BIGGIF "
                "role) — use gif_size() for metadata")
        min_code = data[pos]
        pos += 1
        lzw = bytearray()
        while pos < len(data) and data[pos]:
            cnt = data[pos]
            lzw += data[pos + 1:pos + 1 + cnt]
            pos += cnt + 1
        pos += 1
        pix = _lzw_decode(min_code, bytes(lzw), w * h).reshape(h, w)
        if iflags & 0x40:
            pix = _deinterlace(pix)
        return {"bands": [np.ascontiguousarray(pix)], "crs": "",
                "geotransform": (0.0, 1.0, 0.0, 0.0, 0.0, -1.0),
                "nodata": (float(transparent)
                           if transparent is not None else None),
                "palette": pal, "xmp": xmp}
    raise ValueError("GIF: no image block")


def gif_size(data: bytes) -> tuple[int, int]:
    """Logical screen size without decoding (the reference's BIGGIF
    split reads header-only for huge files)."""
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF")
    return struct.unpack("<HH", data[6:10])


def encode_gif(band: np.ndarray, palette=None,
               interlace: bool = False,
               transparent: int | None = None) -> bytes:
    """Index band (+palette) → GIF89a bytes (one image, global
    palette, optional interlacing — CreateCopy role)."""
    pix = np.asarray(band, np.uint8)
    h, w = pix.shape
    pal = palette or [(i, i, i) for i in range(256)]
    npal = max(2, 1 << int(np.ceil(np.log2(max(len(pal),
                                               int(pix.max()) + 1)))))
    npal = max(npal, 2)
    out = bytearray(b"GIF89a")
    depth = max(1, int(np.log2(npal)))
    out += struct.pack("<HHBBB", w, h, 0x80 | (depth - 1), 0, 0)
    for i in range(npal):
        r, g, b = pal[i] if i < len(pal) else (0, 0, 0)
        out += bytes((r, g, b))
    if transparent is not None:
        out += bytes((0x21, 0xF9, 4, 1, 0, 0, transparent & 0xFF, 0))
    out += bytes((0x2C,)) + struct.pack("<HHHH", 0, 0, w, h)
    out += bytes((0x40 if interlace else 0,))
    rows = pix[_interlace_order(h)] if interlace else pix
    min_code = max(2, depth)
    out += bytes((min_code,))
    lzw = _lzw_encode(rows.reshape(-1), min_code)
    for i in range(0, len(lzw), 255):
        chunk = lzw[i:i + 255]
        out += bytes((len(chunk),)) + chunk
    out += bytes((0, 0x3B))
    return bytes(out)


def read_gif(path: str) -> dict:
    from gdal_ray.vsi import vsi_read_bytes

    return decode_gif(vsi_read_bytes(path))
