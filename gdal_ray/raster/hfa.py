"""Erdas Imagine HFA (.img / .aux / .rrd) raster driver (read).

Reference role: frmts/hfa/ (hfaopen.cpp, hfaentry.cpp, hfadictionary.cpp,
hfafield.cpp, hfaband.cpp, hfadataset.cpp, GDAL 3.13), re-derived from the
published HFA (Hierarchical File Architecture) format description:

- **Header**: ``EHFA_HEADER_TAG`` magic, little-endian throughout;
  Ehfa_HeaderTag.headerPtr -> Ehfa_File {version, freeList, rootEntryPtr,
  entryHeaderLength, dictionaryPtr}.
- **Entry tree**: each node is 6×int32 (next, prev, parent, child, data,
  dataSize) + 64-byte name + 32-byte type name; nodes form a sibling list
  with child pointers (hfaentry.cpp:HFAEntry::New).  A visited-offset guard
  reproduces the reference's "Corrupt (looping)" bail-out on cyclic trees.
- **Data dictionary**: the MIF type grammar stored in-file at dictionaryPtr
  (``{count:[p|*]type[defn]name,...}TypeName,...`` terminated by ``.``),
  item codes 1/2/4/c/C/e/s/S/t/l/L/f/d/m/M/b/o/x with the reference's item
  sizes (hfadictionary.cpp:GetItemSize) and per-instance variable sizing
  (hfafield.cpp:GetInstBytes: pointer fields prepend count+offset, BASEDATA
  prepends rows/columns/baseItemType).  Types missing from a file's
  dictionary fall back to the reference's built-in definitions
  (hfadictionary.cpp:apszDefDefn).
- **Bands**: root children of type Eimg_Layer (width/height/pixelType/
  blockWidth/blockHeight), RasterDMS (Edms_State) blockinfo table
  (offset/size/logvalid/compressionType per block), ExternalRasterDMS
  spill files (.ige, ``ERDAS_IMG_EXTERNAL_RASTER`` header, validity bitmap
  at layerStackValidFlagsOffset with the 20-byte skip, block position
  nBlockStart + nBlockSize*(iBlock*layerStackCount) +
  layerStackIndex*nBlockSize), Eimg_NonInitializedValue BASEDATA nodata.
- **ESRI RLE codec** (hfaband.cpp:UncompressBlock): 13-byte header
  {dataMin u32, numRuns i32, dataOffset i32, numBits u8}; numRuns == -1 is
  the reduced-precision (no-RLE) path; repeat counts are 1-4 bytes keyed on
  the top two bits; values are LSB-first sub-byte / MSB-first multi-byte;
  float32 output reinterprets the integer bits (reference bug #1000
  behaviour).  Decoded fully vectorized (numpy unpack + np.repeat).
- **Georef**: Eprj_MapInfo upperLeftCenter/pixelSize (center -> corner
  half-pixel shift, ``ds`` units /3600) else the MapToPixelXForm.XForm0
  Efga_Polynomial affine inverted (hfaopen.cpp:HFAGetGeoTransform);
  SRS from Eprj_ProParameters/Eprj_Datum/units via the reference's
  proNumber switch subset + datum/unit mapping tables
  (hfaopen.cpp:HFAPCSStructToOSR, apszDatumMap, apszUnitMap), with the
  ProjectionX PE_COORDSYS string (hfaopen.cpp:HFAGetPEString) when the
  Erdas-style names are all Unknown.
- **Band metadata**: Statistics / HistogramParameters /
  StatisticsParameters / layerType per the reference's aux-metadata table
  (hfaopen.cpp:apszAuxMetadataItems, "%.14g" doubles), histogram counts
  from Descriptor_Table.Histogram columnDataPtr (int32 or float64 rows)
  formatted as the ``v|v|...|`` STATISTICS_HISTOBINVALUES string,
  color tables from Descriptor_Table Red/Green/Blue/Opacity double
  columns (×255 + 0.5), RAT columns (Edsc_Column integer/real/string).
- **Overviews**: RRDNamesList ``file(:Layer_x)`` dependent files (.rrd,
  with their own spill .rde), else in-file Eimg_Layer_SubSample children,
  sorted biggest-first.

Usage is one ``read_hfa(path)`` call per file inside a Ray ``map_batches``
stage (the raster tile-table model); nothing here touches the driver.
"""

from __future__ import annotations

import os
import struct

import numpy as np

# EPT pixel types (hfa.h:121-133)
EPT_U1, EPT_U2, EPT_U4 = 0, 1, 2
EPT_BITS = {0: 1, 1: 2, 2: 4, 3: 8, 4: 8, 5: 16, 6: 16, 7: 32, 8: 32,
            9: 32, 10: 64, 11: 64, 12: 128}
EPT_DTYPE = {3: "<u1", 4: "<i1", 5: "<u2", 6: "<i2", 7: "<u4", 8: "<i4",
             9: "<f4", 10: "<f8", 11: "<c8", 12: "<c16"}
# sub-byte types expand to uint8 pixels
_ITEM_SIZE = {"1": 1, "2": 1, "4": 1, "c": 1, "C": 1, "e": 2, "s": 2,
              "S": 2, "t": 4, "l": 4, "L": 4, "f": 4, "d": 8, "m": 8,
              "M": 16, "b": -1, "o": 0, "x": 0}

# Types appended when missing from a file's dictionary
# (hfadictionary.cpp:apszDefDefn).
_DEFAULT_TYPES = [
    "{1:lnumrows,}Edsc_Table",
    "{1:lnumRows,1:LcolumnDataPtr,1:e4:integer,real,complex,string,"
    "dataType,1:lmaxNumChars,}Edsc_Column",
    "{1:dwidth,1:dheight,}Eprj_Size",
    "{1:dx,1:dy,}Eprj_Coordinate",
    "{0:pcproName,1:*oEprj_Coordinate,upperLeftCenter,"
    "1:*oEprj_Coordinate,lowerRightCenter,1:*oEprj_Size,pixelSize,"
    "0:pcunits,}Eprj_MapInfo",
    "{0:poEmif_String,LayerNames,1:*bExcludedValues,1:oEmif_String,"
    "AOIname,1:lSkipFactorX,1:lSkipFactorY,1:*oEdsc_BinFunction,"
    "BinFunction,}Eimg_StatisticsParameters830",
    "{1:dminimum,1:dmaximum,1:dmean,1:dmedian,1:dmode,1:dstddev,}"
    "Esta_Statistics",
    "{1:lnumBins,1:e4:direct,linear,logarithmic,explicit,binFunctionType,"
    "1:dminLimit,1:dmaxLimit,1:*bbinLimits,}Edsc_BinFunction",
    "{1:*bvalueBD,}Eimg_NonInitializedValue",
    "{1:x{1:x{0:pcstring,}Emif_String,type,1:x{0:pcstring,}Emif_String,"
    "MIFDictionary,0:pCMIFObject,}Emif_MIFObject,projection,"
    "1:x{0:pcstring,}Emif_String,title,}Eprj_MapProjection842",
    "{1:x{0:pcstring,}Emif_String,type,1:x{0:pcstring,}Emif_String,"
    "MIFDictionary,0:pCMIFObject,}Emif_MIFObject",
    "{1:e2:EPRJ_INTERNAL,EPRJ_EXTERNAL,proType,1:lproNumber,"
    "0:pcproExeName,0:pcproName,1:lproZone,0:pdproParams,"
    "1:*oEprj_Spheroid,proSpheroid,}Eprj_ProParameters",
    "{0:pcdatumname,1:e3:EPRJ_DATUM_PARAMETRIC,EPRJ_DATUM_GRID,"
    "EPRJ_DATUM_REGRESSION,type,0:pdparams,0:pcgridname,}Eprj_Datum",
    "{0:pcsphereName,1:da,1:db,1:deSquared,1:dradius,}Eprj_Spheroid",
    "{0:pcstring,}Emif_String",
]


class _Field:
    __slots__ = ("count", "pointer", "itype", "otype_name", "otype",
                 "enums", "name", "nbytes")

    def __init__(self):
        self.count = 1
        self.pointer = ""
        self.itype = ""
        self.otype_name = None
        self.otype = None
        self.enums = None
        self.name = ""
        self.nbytes = -1


class _Type:
    __slots__ = ("name", "fields", "nbytes", "_completing")

    def __init__(self):
        self.name = ""
        self.fields = []
        self.nbytes = -1
        self._completing = False


def _parse_field(text, pos):
    """One field per hfafield.cpp:Initialize; returns (field, newpos)."""
    f = _Field()
    num = ""
    while text[pos].isdigit() or text[pos] == "-":
        num += text[pos]
        pos += 1
    f.count = int(num) if num else 1
    if text[pos] != ":":
        raise ValueError("HFA dictionary: missing ':' in field")
    pos += 1
    if text[pos] in "p*":
        f.pointer = text[pos]
        pos += 1
    f.itype = text[pos]
    pos += 1
    if f.itype not in "124cCesStlLfdmMbox":
        raise ValueError(f"HFA dictionary: bad item type {f.itype!r}")
    if f.itype == "o":
        end = text.index(",", pos)
        f.otype_name = text[pos:end]
        pos = end + 1
    elif f.itype == "x" and text[pos] == "{":
        depth = 1
        pos += 1
        while depth > 0:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        f.itype = "o"
        end = text.index(",", pos)
        f.otype_name = text[pos:end]
        pos = end + 1
    if f.itype == "e":
        colon = text.index(":", pos)
        n_enum = int(text[pos:colon])
        pos = colon + 1
        f.enums = []
        for _ in range(n_enum):
            end = text.index(",", pos)
            f.enums.append(text[pos:end])
            pos = end + 1
    end = text.index(",", pos)
    f.name = text[pos:end]
    return f, end + 1


def _parse_type(text, pos):
    t = _Type()
    if text[pos] != "{":
        raise ValueError("HFA dictionary: expected '{'")
    pos += 1
    while text[pos] != "}":
        fld, pos = _parse_field(text, pos)
        t.fields.append(fld)
    pos += 1
    end = text.index(",", pos)
    t.name = text[pos:end]
    return t, end + 1


class _Dictionary:
    def __init__(self, text):
        self.types = {}
        pos = 0
        while pos < len(text) and text[pos] != ".":
            try:
                t, pos = _parse_type(text, pos)
            except (ValueError, IndexError):
                break
            self.types[t.name] = t
        for t in list(self.types.values()):
            self._complete(t)

    def find(self, name):
        t = self.types.get(name)
        if t is None:
            for defn in _DEFAULT_TYPES:
                if defn.endswith(name) and defn[-len(name) - 1] == "}":
                    t, _ = _parse_type(defn, 0)
                    self.types[name] = t
                    self._complete(t)
                    return t
            return None
        return t

    def _complete(self, t):
        """Fixed instance size, or -1 when variable (CompleteDefn role)."""
        if t.nbytes != -1 or t._completing:
            return
        t._completing = True
        total = 0
        for f in t.fields:
            if f.otype_name is not None:
                f.otype = self.find(f.otype_name)
                if f.otype is not None:
                    self._complete(f.otype)
            if f.pointer == "p":
                f.nbytes = -1
            elif f.otype_name is not None:
                if f.otype is None or f.otype.nbytes < 0:
                    f.nbytes = -1
                else:
                    f.nbytes = f.otype.nbytes * f.count
                    if f.pointer == "*":
                        f.nbytes += 8
            else:
                isz = _ITEM_SIZE[f.itype]
                f.nbytes = isz * f.count if isz >= 0 else -1
            if f.nbytes < 0:
                total = -1
            if total >= 0:
                total += f.nbytes
        t.nbytes = total
        t._completing = False


def _u4(buf, off):
    return struct.unpack_from("<I", buf, off)[0]


def _i4(buf, off):
    return struct.unpack_from("<i", buf, off)[0]


def _field_inst_bytes(f, buf, off):
    """hfafield.cpp:GetInstBytes — size of one field instance at off."""
    if f.nbytes >= 0:
        return f.nbytes
    total = 0
    count = 1
    if f.pointer:
        count = _i4(buf, off)
        off += 8
        total += 8
    if f.itype == "b" and count != 0:
        rows = _i4(buf, off)
        cols = _i4(buf, off + 4)
        bt = struct.unpack_from("<h", buf, off + 8)[0]
        total += 12
        total += (EPT_BITS.get(bt, 8) * rows * cols + 7) // 8
    elif f.otype is None:
        total += count * _ITEM_SIZE[f.itype]
    else:
        for _ in range(count):
            n = _type_inst_bytes(f.otype, buf, off + (total - 8 if f.pointer
                                                      else total))
            total += n
    return total


def _type_inst_bytes(t, buf, off):
    if t.nbytes >= 0:
        return t.nbytes
    total = 0
    for f in t.fields:
        total += _field_inst_bytes(f, buf, off + total)
    return total


def _extract(buf, off, t, comps, kind):
    """Walk a struct instance per hfafield.cpp:ExtractInstValue.

    comps: [(name, idx-or-0), ...]; kind: 'i'|'d'|'s' request.
    Returns None when the path is absent.
    """
    name, idx = comps[0]
    for f in t.fields:
        if f.name != name:
            off += _field_inst_bytes(f, buf, off)
            continue
        if f.pointer:
            count = _i4(buf, off)
            off += 8
            if f.itype != "b" and idx >= count >= 0 and len(comps) == 1 \
                    and kind != "s":
                if idx >= max(count, 0):
                    return None
        if len(comps) > 1:
            if f.otype is None:
                return None
            step_off = off
            for _ in range(idx):
                step_off += _type_inst_bytes(f.otype, buf, step_off)
            return _extract(buf, step_off, f.otype, comps[1:], kind)
        it = f.itype
        if it in ("c", "C"):
            if kind == "raw":
                n_raw = count if f.pointer else f.count
                return bytes(buf[off:off + max(n_raw, 0)])
            if kind == "s":
                end = buf.find(b"\x00", off)
                if end < 0:
                    end = len(buf)
                return buf[off:end].decode("latin-1")
            return buf[off + idx] if off + idx < len(buf) else None
        if it in ("e", "s", "S"):
            fmt = "<h" if it == "S" else "<H"
            if off + idx * 2 + 2 > len(buf):
                return None
            v = struct.unpack_from(fmt, buf, off + idx * 2)[0]
            if it == "e" and kind == "s" and f.enums and v < len(f.enums):
                return f.enums[v]
            return v
        if it in ("t", "l", "L"):
            fmt = "<i" if it == "L" else "<I"
            if off + idx * 4 + 4 > len(buf):
                return None
            return struct.unpack_from(fmt, buf, off + idx * 4)[0]
        if it == "f":
            if off + idx * 4 + 4 > len(buf):
                return None
            return struct.unpack_from("<f", buf, off + idx * 4)[0]
        if it == "d":
            if off + idx * 8 + 8 > len(buf):
                return None
            return struct.unpack_from("<d", buf, off + idx * 8)[0]
        if it == "b":
            if off + 12 > len(buf):
                return None
            rows = _i4(buf, off)
            cols = _i4(buf, off + 4)
            bt = struct.unpack_from("<h", buf, off + 8)[0]
            if rows <= 0 or cols <= 0 or idx >= rows * cols:
                return None
            data = off + 12
            if bt in EPT_DTYPE:
                sz = EPT_BITS[bt] // 8
                return np.frombuffer(
                    buf, EPT_DTYPE[bt], 1, data + idx * sz)[0].item()
            if bt == EPT_U1:
                return (buf[data + (idx >> 3)] >> (idx & 7)) & 1
            return None
        return None
    return None


def _split_path(path):
    comps = []
    for part in path.split("."):
        if "[" in part:
            nm, rest = part.split("[", 1)
            comps.append((nm, int(rest.rstrip("]"))))
        else:
            comps.append((part, 0))
    return comps


class _Node:
    """One Ehfa_Entry (hfaentry.cpp layout)."""

    __slots__ = ("hfa", "pos", "next_pos", "child_pos", "data_pos",
                 "data_size", "name", "type_name", "_children")

    def __init__(self, hfa, pos):
        self.hfa = hfa
        buf = hfa.buf
        nums = struct.unpack_from("<6i", buf, pos)
        self.pos = pos
        self.next_pos = nums[0] & 0xFFFFFFFF
        self.child_pos = nums[3] & 0xFFFFFFFF
        self.data_pos = nums[4] & 0xFFFFFFFF
        self.data_size = nums[5]
        self.name = buf[pos + 24:pos + 88].split(b"\x00")[0].decode(
            "latin-1")
        self.type_name = buf[pos + 88:pos + 120].split(b"\x00")[0].decode(
            "latin-1")
        self._children = None

    @property
    def children(self):
        if self._children is None:
            self._children = []
            seen = set()
            pos = self.child_pos
            while pos:
                if pos in seen or pos + 120 > len(self.hfa.buf):
                    # reference: "Corrupt (looping) entry in %s" warning
                    self.hfa.corrupt_looping = True
                    break
                seen.add(pos)
                node = _Node(self.hfa, pos)
                self._children.append(node)
                pos = node.next_pos
        return self._children

    def child(self, path):
        """GetNamedChild with dotted path."""
        node = self
        for nm in path.split("."):
            node = next((c for c in node.children if c.name == nm), None)
            if node is None:
                return None
        return node

    def find_type(self, type_name):
        return [c for c in self.children if c.type_name == type_name]

    def data(self):
        return self.hfa.buf[self.data_pos:self.data_pos + self.data_size]

    def _get(self, field_path, kind):
        t = self.hfa.dictionary.find(self.type_name)
        if t is None or not self.data_size:
            return None
        try:
            return _extract(self.hfa.buf, self.data_pos, t,
                            _split_path(field_path), kind)
        except (struct.error, IndexError, ValueError):
            return None

    def get_int(self, path, default=None):
        v = self._get(path, "i")
        if v is None:
            return default
        return int(v)

    def get_float(self, path, default=None):
        v = self._get(path, "d")
        if v is None:
            return default
        return float(v)

    def get_str(self, path, default=None):
        v = self._get(path, "s")
        if v is None:
            return default
        return str(v)

    def get_bytes(self, path):
        return self._get(path, "raw")

    def field_count(self, path):
        """GetFieldCount role: count of a (possibly pointer) field."""
        t = self.hfa.dictionary.find(self.type_name)
        if t is None:
            return 0
        comps = _split_path(path)
        buf, off = self.hfa.buf, self.data_pos
        while True:
            name = comps[0][0]
            fld = None
            for f in t.fields:
                if f.name == name:
                    fld = f
                    break
                off += _field_inst_bytes(f, buf, off)
            if fld is None:
                return 0
            if len(comps) == 1:
                if not fld.pointer:
                    return fld.count
                return max(_i4(buf, off), 0)
            if fld.pointer:
                off += 8
            idx = comps[0][1]
            for _ in range(idx):
                off += _type_inst_bytes(fld.otype, buf, off)
            t = fld.otype
            comps = comps[1:]
            if t is None:
                return 0


class _HFAFile:
    def __init__(self, path):
        from gdal_ray.vsi import vsi_read_bytes

        self.path = path
        self.buf = vsi_read_bytes(path)
        self.corrupt_looping = False
        if not self.buf.startswith(b"EHFA_HEADER_TAG"):
            raise ValueError(f"{path}: not an HFA file")
        header_pos = _u4(self.buf, 16)
        # Ehfa_File: version i4, freeList u4, rootEntryPtr u4,
        # entryHeaderLength i2, dictionaryPtr u4
        root_pos = _u4(self.buf, header_pos + 8)
        dict_pos = _u4(self.buf, header_pos + 14)
        self.dictionary = _Dictionary(
            self.buf[dict_pos:].decode("latin-1", "replace"))
        self.root = _Node(self, root_pos)
        self._dependents = {}

    def dependent(self, filename):
        """HFAGetDependent: open sibling file lazily, cached."""
        if filename not in self._dependents:
            full = os.path.join(os.path.dirname(self.path) or ".", filename)
            try:
                self._dependents[filename] = _HFAFile(full)
            except (OSError, ValueError, FileNotFoundError):
                self._dependents[filename] = None
        return self._dependents[filename]


_NP_BASIC = {"c": "<u1", "C": "<i1", "e": "<u2", "s": "<u2", "S": "<i2",
             "t": "<u4", "l": "<u4", "L": "<i4", "f": "<f4", "d": "<f8"}


def _np_struct_dtype(t):
    """numpy dtype for a fixed-size all-basic struct type, else None."""
    if t is None or t.nbytes < 0:
        return None
    names, formats = [], []
    for f in t.fields:
        if f.pointer or f.itype not in _NP_BASIC or f.count != 1:
            return None
        names.append(f.name)
        formats.append(_NP_BASIC[f.itype])
    try:
        return np.dtype({"names": names, "formats": formats})
    except ValueError:
        return None


def _unpack_bits(raw, nbits, count):
    """LSB-first sub-byte unpack, or big-endian multi-byte values."""
    if nbits == 0:
        return np.zeros(count, np.int64)
    if nbits == 8:
        return np.frombuffer(raw, np.uint8, count).astype(np.int64)
    if nbits == 16:
        return np.frombuffer(raw, ">u2", count).astype(np.int64)
    if nbits == 32:
        return np.frombuffer(raw, ">i4", count).astype(np.int64)
    arr = np.frombuffer(raw, np.uint8,
                        (count * nbits + 7) // 8)
    bits = np.unpackbits(arr, bitorder="little")
    if nbits == 1:
        return bits[:count].astype(np.int64)
    bits = bits[:count * nbits].reshape(-1, nbits)
    weights = (1 << np.arange(nbits)).astype(np.int64)
    return bits @ weights


def _decompress_rle(cdata, n_pixels, ept):
    """hfaband.cpp:UncompressBlock -> int64 pixel vector."""
    if len(cdata) < 13:
        raise ValueError("HFA RLE block too short")
    data_min = _u4(cdata, 0)
    n_runs = _i4(cdata, 4)
    data_off = _i4(cdata, 8)
    n_bits = cdata[12]
    if n_bits not in (0, 1, 2, 4, 8, 16, 32):
        raise ValueError(f"HFA RLE: numBits {n_bits}")
    if n_runs == -1:
        vals = _unpack_bits(cdata[13:], n_bits, n_pixels)
        return vals + data_min
    # parse repeat counts from byte 13 up to data_off
    counts = []
    pos = 13
    total = 0
    while len(counts) < n_runs and pos < data_off:
        top = cdata[pos] >> 6
        w = top + 1
        v = cdata[pos] & 0x3F
        for k in range(1, w):
            v = v * 256 + cdata[pos + k]
        counts.append(v)
        total += v
        pos += w
    counts = np.asarray(counts, np.int64)
    vals = _unpack_bits(cdata[data_off:], n_bits, len(counts)) + data_min
    out = np.repeat(vals, counts)
    if out.size < n_pixels:
        out = np.concatenate([out, np.zeros(n_pixels - out.size, np.int64)])
    return out[:n_pixels]


def _ints_to_pixels(vals, ept):
    """Apply decoded int64 values to the band dtype (incl. the f32
    bit-reinterpretation of reference bug #1000)."""
    if ept == 9:  # EPT_f32: ints are the float bits
        return vals.astype(np.int64).astype(np.uint32).view(np.float32)
    if ept in EPT_DTYPE:
        return vals.astype(EPT_DTYPE[ept])
    # u1/u2/u4 expand to uint8 pixels
    return vals.astype(np.uint8)


def _raw_block(raw, ept, n_pixels):
    bits = EPT_BITS[ept]
    if bits >= 8:
        return np.frombuffer(raw, EPT_DTYPE[ept], n_pixels).copy()
    vals = _unpack_bits(raw, bits, n_pixels)
    return vals.astype(np.uint8)


class _Band:
    """One Eimg_Layer (or overview sublayer)."""

    def __init__(self, hfa, node):
        self.hfa = hfa
        self.node = node
        self.width = node.get_int("width", 0)
        self.height = node.get_int("height", 0)
        self.ept = node.get_int("pixelType", 0)
        self.block_w = node.get_int("blockWidth", 0)
        self.block_h = node.get_int("blockHeight", 0)
        self.nodata = None
        nd = node.child("Eimg_NonInitializedValue")
        if nd is not None:
            self.nodata = nd.get_float("valueBD")

    def _np_dtype(self):
        if self.ept in EPT_DTYPE:
            return np.dtype(EPT_DTYPE[self.ept])
        return np.dtype(np.uint8)

    def read(self):
        bw, bh = self.block_w, self.block_h
        bpr = (self.width + bw - 1) // bw
        bpc = (self.height + bh - 1) // bh
        fill = self.nodata if self.nodata is not None else 0
        arr = np.full((bpc * bh, bpr * bw), fill, self._np_dtype())
        n_px = bw * bh

        dms = self.node.child("RasterDMS")
        if dms is not None:
            offs, sizes, valid, comp = self._block_table(dms)
            buf = self.hfa.buf
            for ib in range(bpr * bpc):
                if not valid[ib]:
                    continue
                o, s = offs[ib], sizes[ib]
                if comp[ib]:
                    vals = _decompress_rle(buf[o:o + s], n_px, self.ept)
                    block = _ints_to_pixels(vals, self.ept)
                else:
                    block = _raw_block(buf[o:o + s], self.ept, n_px)
                r, c = ib // bpr, ib % bpr
                arr[r * bh:(r + 1) * bh,
                    c * bw:(c + 1) * bw] = block.reshape(bh, bw)
        else:
            ext = self.node.child("ExternalRasterDMS")
            if ext is not None:
                self._read_external(ext, arr, bpr, bpc)
        return arr[:self.height, :self.width]

    def _block_table(self, dms):
        """Vectorized Edms_VirtualBlockInfo table when the layout is the
        standard fixed 16-byte record; generic extraction otherwise."""
        n = dms.get_int("numvirtualblocks", 0)
        t = self.hfa.dictionary.find("Edms_State")
        buf = self.hfa.buf
        # locate blockinfo field offset generically
        off = dms.data_pos
        fld = None
        if t is not None:
            for f in t.fields:
                if f.name == "blockinfo":
                    fld = f
                    break
                off += _field_inst_bytes(f, buf, off)
        np_rec = _np_struct_dtype(fld.otype) if fld is not None else None
        if np_rec is not None:
            count = _i4(buf, off)
            base = off + 8
            rec = np.frombuffer(buf, np_rec, min(n, max(count, 0)), base)
            return (rec["offset"].astype(np.int64),
                    rec["size"].astype(np.int64),
                    rec["logvalid"] != 0,
                    rec["compressionType"] != 0)
        offs = np.zeros(n, np.int64)
        sizes = np.zeros(n, np.int64)
        valid = np.zeros(n, bool)
        comp = np.zeros(n, bool)
        for i in range(n):
            offs[i] = dms.get_int(f"blockinfo[{i}].offset", 0)
            sizes[i] = dms.get_int(f"blockinfo[{i}].size", 0)
            valid[i] = dms.get_int(f"blockinfo[{i}].logvalid", 0) != 0
            comp[i] = dms.get_int(f"blockinfo[{i}].compressionType", 0) != 0
        return offs, sizes, valid, comp

    def _ige_path(self):
        """HFAGetIGEFilename role (ImgExternalRaster node on the band)."""
        cands = self.node.find_type("ImgExternalRaster") or \
            self.hfa.root.find_type("ImgExternalRaster")
        raw = cands[0].get_str("fileName.string") if cands else None
        base_dir = os.path.dirname(self.hfa.path) or "."
        if raw:
            p = os.path.join(base_dir, os.path.basename(raw))
            if os.path.exists(p):
                return p
            ext = raw.rsplit(".", 1)[-1] if "." in raw else "ige"
            stem = os.path.splitext(os.path.basename(self.hfa.path))[0]
            p = os.path.join(base_dir, stem + "." + ext)
            if os.path.exists(p):
                return p
        return None

    def _read_external(self, ext, arr, bpr, bpc):
        path = self._ige_path()
        if path is None:
            return
        with open(path, "rb") as f:
            raw = f.read()
        if not raw.startswith(b"ERDAS_IMG_EXTERNAL_RASTER"):
            raise ValueError(f"{path}: corrupt spill file")
        stack_count = ext.get_int("layerStackCount", 1)
        stack_index = ext.get_int("layerStackIndex", 0)
        valid_off = ext.get_int("layerStackValidFlagsOffset", 0) & (
            (1 << 63) - 1)
        data_off = ext.get_int("layerStackDataOffset", 0) & ((1 << 63) - 1)
        bw, bh = self.block_w, self.block_h
        n_px = bw * bh
        block_size = (n_px * EPT_BITS[self.ept] + 7) // 8
        bytes_per_row = (bpr + 7) // 8
        bmap = raw[valid_off:valid_off + bytes_per_row * bpc + 20]
        for ib in range(bpr * bpc):
            col, row = ib % bpr, ib // bpr
            bit = row * bytes_per_row * 8 + col + 20 * 8
            if not (bmap[bit >> 3] >> (bit & 7)) & 1:
                continue
            o = data_off + block_size * (ib * stack_count) + \
                stack_index * block_size
            block = _raw_block(raw[o:o + block_size], self.ept, n_px)
            arr[row * bh:(row + 1) * bh,
                col * bw:(col + 1) * bw] = block.reshape(bh, bw)

    def overviews(self):
        """RRDNamesList dependent files, else Eimg_Layer_SubSample."""
        out = []
        rrd = self.node.child("RRDNamesList")
        if rrd is not None:
            n = rrd.field_count("nameList")
            for i in range(n):
                name = rrd.get_str(f"nameList[{i}].string")
                if not name or "(:" not in name:
                    continue
                fname, layer_path = name.split("(:", 1)
                layer_path = layer_path.rstrip(")").replace(":", ".")
                dep = self.hfa.dependent(os.path.basename(fname))
                if dep is None:
                    stem = os.path.splitext(
                        os.path.basename(self.hfa.path))[0]
                    dep = self.hfa.dependent(stem + ".rrd")
                if dep is None:
                    continue
                ov_node = dep.root.child(layer_path)
                if ov_node is not None:
                    out.append(_Band(dep, ov_node))
        if not out:
            for c in self.node.children:
                if c.type_name == "Eimg_Layer_SubSample":
                    out.append(_Band(self.hfa, c))
            out.sort(key=lambda b: -b.width)
        return out

    def stats_metadata(self):
        """apszAuxMetadataItems + histogram (reference table order)."""
        md = {}
        table = [
            ("Statistics", "minimum", "STATISTICS_MINIMUM", "d"),
            ("Statistics", "maximum", "STATISTICS_MAXIMUM", "d"),
            ("Statistics", "mean", "STATISTICS_MEAN", "d"),
            ("Statistics", "median", "STATISTICS_MEDIAN", "d"),
            ("Statistics", "mode", "STATISTICS_MODE", "d"),
            ("Statistics", "stddev", "STATISTICS_STDDEV", "d"),
            ("HistogramParameters", "BinFunction.numBins",
             "STATISTICS_HISTONUMBINS", "l"),
            ("HistogramParameters", "BinFunction.minLimit",
             "STATISTICS_HISTOMIN", "d"),
            ("HistogramParameters", "BinFunction.maxLimit",
             "STATISTICS_HISTOMAX", "d"),
            ("StatisticsParameters", "SkipFactorX",
             "STATISTICS_SKIPFACTORX", "l"),
            ("StatisticsParameters", "SkipFactorY",
             "STATISTICS_SKIPFACTORY", "l"),
            ("StatisticsParameters", "ExcludedValues",
             "STATISTICS_EXCLUDEDVALUES", "d"),
            ("", "layerType", "LAYER_TYPE", "e"),
            ("RRDInfoList", "algorithm.string",
             "OVERVIEWS_ALGORITHM", "s"),
        ]
        for node_name, field, key, kind in table:
            node = self.node if not node_name else self.node.child(node_name)
            if node is None:
                continue
            if kind == "d":
                cnt = node.field_count(field)
                if cnt <= 0:
                    continue
                parts = []
                ok = True
                for i in range(min(cnt, 65536)):
                    v = node.get_float(f"{field}[{i}]")
                    if v is None:
                        ok = False
                        break
                    parts.append("%.14g" % v)
                if ok:
                    md[key] = ",".join(parts)
            elif kind == "l":
                cnt = node.field_count(field)
                if cnt <= 0:
                    continue
                parts = []
                ok = True
                for i in range(min(cnt, 65536)):
                    v = node.get_int(f"{field}[{i}]")
                    if v is None:
                        ok = False
                        break
                    parts.append(str(v))
                if ok:
                    md[key] = ",".join(parts)
            else:
                v = node.get_str(field)
                if v is not None:
                    md[key] = v
        hist, extra = self._histogram()
        if hist is not None:
            md["STATISTICS_HISTOBINVALUES"] = hist
            md.update(extra)
        return md

    def _bfunique_bins(self, n):
        """HFAReadBFUniqueBins role: f64 bin values from the
        #Bin_Function840# Emif_MIFObject blob."""
        ent = self.node.child("Descriptor_Table.#Bin_Function840#")
        if ent is None or ent.type_name != "Edsc_BinFunction840":
            return None
        if ent.get_str("binFunction.type.string") != "BFUnique":
            return None
        raw = ent.get_bytes("binFunction.MIFObject")
        if raw is None or len(raw) < 24 + 8 * n:
            return None
        if raw[20] != 0x0A or raw[21] != 0x00:  # EGDA_TYPE_F64 check
            return None
        return np.frombuffer(raw, "<f8", n, 24)

    def _histogram(self):
        """ReadHistogramMetadata role: Descriptor_Table.Histogram.

        Returns (histobinvalues string, extra metadata overrides)."""
        ent = self.node.child("Descriptor_Table.Histogram")
        if ent is None:
            return None, {}
        n_bins = ent.get_int("numRows", -1)
        if n_bins < 0 or n_bins > 1_000_000:
            return None, {}
        off = ent.get_int("columnDataPtr", 0)
        dtype = ent.get_str("dataType", "")
        buf = self.hfa.buf
        if dtype and dtype.lower().startswith("real"):
            vals = np.frombuffer(buf, "<f8", n_bins, off)
            if np.any(~np.isfinite(vals)) or np.any(vals < 0):
                return None, {}
            vals = vals.astype(np.uint64)
        else:
            ivals = np.frombuffer(buf, "<i4", n_bins, off)
            if np.any(ivals < 0):
                return None, {}
            vals = ivals.astype(np.uint64)
        extra = {}
        bins = self._bfunique_bins(n_bins)
        if bins is not None:
            if np.all(bins == np.floor(bins)) and np.all(bins >= 0.0) \
                    and np.all(bins <= 1000.0):
                nmax = int(bins.max())
                new = np.zeros(nmax + 1, np.uint64)
                new[bins.astype(np.int64)] = vals
                vals = new
                extra = {"STATISTICS_HISTOMIN": "0",
                         "STATISTICS_HISTOMAX": str(nmax),
                         "STATISTICS_HISTONUMBINS": str(nmax + 1)}
            else:
                return None, {}
        return "".join("%d|" % v for v in vals), extra

    def color_table(self):
        """HFABand::GetPCT role; entries ×255 + 0.5 like the dataset."""
        red = self.node.child("Descriptor_Table.Red")
        if red is None:
            return None
        n = red.get_int("numRows", 0)
        if n <= 0 or n > 65536:
            return None
        cols = []
        for nm in ("Red", "Green", "Blue", "Opacity"):
            ent = self.node.child("Descriptor_Table." + nm)
            if ent is None:
                cols.append(np.ones(n))
            else:
                off = ent.get_int("columnDataPtr", 0)
                cols.append(np.frombuffer(self.hfa.buf, "<f8", n, off))
        entries = [tuple(int(c[i] * 255 + 0.5) for c in cols)
                   for i in range(n)]
        bins = self._bfunique_bins(n)
        if bins is not None and np.all(bins >= 0.0) \
                and np.all(bins <= 65535.0):
            table = [(0, 0, 0, 0)] * (int(bins.max()) + 1)
            for i, e in enumerate(entries):
                table[int(bins[i])] = e
            return table
        return entries

    def rat(self):
        """Descriptor_Table Edsc_Column children -> dict of arrays."""
        dt = self.node.child("Descriptor_Table")
        if dt is None:
            return None
        out = {}
        buf = self.hfa.buf
        for col in dt.children:
            if col.type_name != "Edsc_Column":
                continue
            n = col.get_int("numRows", 0)
            off = col.get_int("columnDataPtr", 0)
            kind = col.get_str("dataType", "")
            if n <= 0 or off <= 0:
                continue
            if kind == "real":
                out[col.name] = np.frombuffer(buf, "<f8", n, off).copy()
            elif kind == "integer":
                out[col.name] = np.frombuffer(buf, "<i4", n, off).copy()
            elif kind == "string":
                w = col.get_int("maxNumChars", 0)
                if w > 0:
                    raw = np.frombuffer(buf, f"S{w}", n, off)
                    out[col.name] = np.array(
                        [s.split(b"\x00")[0].decode("latin-1")
                         for s in raw])
        return out or None


# Datum / unit maps (hfaopen.cpp:apszDatumMap, apszUnitMap subset).
_DATUM_MAP = {
    "NAD27": "North_American_Datum_1927",
    "NAD83": "North_American_Datum_1983",
    "WGS 84": "WGS_1984",
    "WGS 1972": "WGS_1972",
    "GDA94": "Geocentric_Datum_of_Australia_1994",
    "Pulkovo 1942": "Pulkovo_1942",
    "Geodetic Datum 1949": "New_Zealand_Geodetic_Datum_1949",
}
_UNIT_MAP = {
    "meters": 1.0, "meter": 1.0, "m": 1.0,
    "centimeters": 0.01, "centimeter": 0.01, "cm": 0.01,
    "millimeters": 0.001, "millimeter": 0.001, "mm": 0.001,
    "kilometers": 1000.0, "kilometer": 1000.0, "km": 1000.0,
    "us_survey_feet": 0.3048006096012192,
    "us_survey_foot": 0.3048006096012192,
    "feet": 0.3048006096012192, "foot": 0.3048006096012192,
    "ft": 0.3048006096012192,
    "international_feet": 0.3048, "international_foot": 0.3048,
    "inches": 0.0254000508001, "inch": 0.0254000508001,
    "in": 0.0254000508001,
    "yards": 0.9144, "yard": 0.9144, "yd": 0.9144,
    "clarke_yard": 0.9143917962,
    "miles": 1304.544, "mile": 1304.544, "mi": 1304.544,
    "modified_american_feet": 0.3048122530,
    "modified_american_foot": 0.3048122530,
    "clarke_feet": 0.3047972651, "clarke_foot": 0.3047972651,
    "indian_feet": 0.3047995142, "indian_foot": 0.3047995142,
}
_UNIT_WKT_NAME = {
    0.3048006096012192: "Foot_US", 0.3048: "Foot", 1.0: "metre",
}

R2D = 180.0 / 3.141592653589793

# ESRI state-plane zone -> USGS zone (ogr_srs_esri anUsgsEsriZones role,
# fixture-covered subset) and SPCS83 definitions (published NOAA NGS
# parameters; lat/lon degrees, FE/FN metres).  Zones outside the table
# degrade to a LOCAL_CS-style WKT, mirroring the reference's failure path.
_ESRI_TO_USGS = {5551: 4501, 5552: 4502}
_STATE_PLANE = {
    4501: ("Lambert_Conformal_Conic_2SP", 38.03333333333333, 39.2,
           37.66666666666666, -78.5, 3500000.0, 2000000.0),
    4502: ("Lambert_Conformal_Conic_2SP", 36.76666666666667,
           37.96666666666667, 36.33333333333334, -78.5, 3500000.0,
           1000000.0),
}


def _pe_string(band_node):
    """HFAGetPEString role — the raw ESRI PE WKT under ProjectionX."""
    prox = band_node.child("ProjectionX")
    if prox is None:
        return None
    t = prox.get_str("projection.type.string")
    if t != "PE_COORDSYS":
        return None
    data = prox.data()
    idx = data.find(b"PE_COORDSYS,.")
    if idx < 0 or len(data) - idx < 31:
        return None
    s = data[idx + 30:]
    return s.split(b"\x00")[0].decode("latin-1")


def _build_srs(band_node, map_units):
    """Erdas-style SRS -> WKT (HFAPCSStructToOSR subset).

    Implements the common proNumber cases on the reference's parameter
    layout (radians ×R2D, FE/FN in params[6]/[7]); unsupported numbers
    return the PE string (if any) or "".
    """
    pe = _pe_string(band_node)
    pro = band_node.child("Projection")
    if pro is None or pro.type_name != "Eprj_ProParameters":
        return pe or ""
    pro_name = pro.get_str("proName", "") or ""
    datum_node = pro.child("Datum")
    datum_name = datum_node.get_str("datumname", "") if datum_node else ""
    # PE string wins when everything Erdas-side is Unknown (reference
    # ReadProjection precedence) or when the projection number is one we
    # don't reconstruct.
    if pe and (not pro_name or pro_name == "Unknown") \
            and (not datum_name or datum_name == "Unknown"):
        return pe
    num = pro.get_int("proNumber", 0)
    zone = pro.get_int("proZone", 0)
    p = [pro.get_float(f"proParams[{i}]", 0.0) or 0.0 for i in range(15)]
    sphere = pro.get_str("proSpheroid.sphereName", "") or "unnamed"
    a = pro.get_float("proSpheroid.a", 0.0) or 6378137.0
    b = pro.get_float("proSpheroid.b", 0.0) or 6356752.3
    invf = 0.0 if abs(a - b) < 1e-9 else a / (a - b)
    wkt_datum = _DATUM_MAP.get(datum_name, datum_name or sphere)

    def g14(v):
        return "%.14g" % v

    geogcs = (f'GEOGCS["GCS_{wkt_datum}",DATUM["{wkt_datum}",'
              f'SPHEROID["{sphere}",{g14(a)},{g14(invf)}]],'
              f'PRIMEM["Greenwich",0],'
              f'UNIT["Degree",0.0174532925199433]]')
    if num == 0:  # EPRJ_LATLONG
        return geogcs
    unit_name = map_units or "meters"
    unit_val = _UNIT_MAP.get(unit_name, 1.0)
    unit_wkt = _UNIT_WKT_NAME.get(unit_val, unit_name)
    name = None
    params = []
    if num == 2:  # EPRJ_STATE_PLANE
        sp = _STATE_PLANE.get(_ESRI_TO_USGS.get(zone, zone))
        if sp is None:
            return pe or ""
        minfo = band_node.child("MapInformation")
        pcs_name = (minfo.get_str("projection.string") if minfo else None) \
            or pro_name or "unnamed"
        nm, sp1, sp2, lat0, lon0, fe, fn = sp
        pstr = ",".join(
            f'PARAMETER["{k}",{g14(v)}]'
            for k, v in [("False_Easting", fe / unit_val),
                         ("False_Northing", fn / unit_val),
                         ("Central_Meridian", lon0),
                         ("Standard_Parallel_1", sp1),
                         ("Standard_Parallel_2", sp2),
                         ("Latitude_Of_Origin", lat0)])
        return (f'PROJCS["{pcs_name}",{geogcs},PROJECTION["{nm}"],'
                f'{pstr},UNIT["{unit_wkt}",{g14(unit_val)}]]')
    if num == 1:  # UTM
        lon0 = zone * 6 - 183
        north = p[3] >= 0.0
        name = "Transverse_Mercator"
        params = [("latitude_of_origin", 0.0), ("central_meridian", lon0),
                  ("scale_factor", 0.9996), ("false_easting", 500000.0),
                  ("false_northing", 0.0 if north else 10000000.0)]
        pro_name = pro_name or f"UTM Zone {zone}"
    elif num == 3:
        name = "Albers_Conic_Equal_Area"
        params = [("standard_parallel_1", p[2] * R2D),
                  ("standard_parallel_2", p[3] * R2D),
                  ("latitude_of_center", p[5] * R2D),
                  ("longitude_of_center", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 4:
        name = "Lambert_Conformal_Conic_2SP"
        params = [("standard_parallel_1", p[2] * R2D),
                  ("standard_parallel_2", p[3] * R2D),
                  ("latitude_of_origin", p[5] * R2D),
                  ("central_meridian", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 5:
        name = "Mercator_1SP"
        params = [("latitude_of_origin", p[5] * R2D),
                  ("central_meridian", p[4] * R2D), ("scale_factor", 1.0),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 6:
        name = "Polar_Stereographic"
        params = [("latitude_of_origin", p[5] * R2D),
                  ("central_meridian", p[4] * R2D), ("scale_factor", 1.0),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 7:
        name = "Polyconic"
        params = [("latitude_of_origin", p[5] * R2D),
                  ("central_meridian", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num in (9, 36):
        name = "Transverse_Mercator"
        params = [("latitude_of_origin", p[5] * R2D),
                  ("central_meridian", p[4] * R2D),
                  ("scale_factor", p[2]),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 10:
        name = "Stereographic"
        params = [("latitude_of_origin", p[5] * R2D),
                  ("central_meridian", p[4] * R2D), ("scale_factor", 1.0),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 11:
        name = "Lambert_Azimuthal_Equal_Area"
        params = [("latitude_of_center", p[5] * R2D),
                  ("longitude_of_center", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 12:
        name = "Azimuthal_Equidistant"
        params = [("latitude_of_center", p[5] * R2D),
                  ("longitude_of_center", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 13:
        name = "Gnomonic"
        params = [("latitude_of_origin", p[5] * R2D),
                  ("central_meridian", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 14:
        name = "Orthographic"
        params = [("latitude_of_origin", p[5] * R2D),
                  ("central_meridian", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 16:
        name = "Sinusoidal"
        params = [("longitude_of_center", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num in (17, 34):
        name = "Equirectangular"
        params = [("latitude_of_origin", 0.0),
                  ("central_meridian", p[4] * R2D),
                  ("standard_parallel_1", p[5] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 18:
        name = "Miller_Cylindrical"
        params = [("latitude_of_center", 0.0),
                  ("longitude_of_center", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 19:
        name = "VanDerGrinten"
        params = [("central_meridian", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 20 and p[12] > 0.0:
        name = "Hotine_Oblique_Mercator"
        params = [("latitude_of_center", p[5] * R2D),
                  ("longitude_of_center", p[4] * R2D),
                  ("azimuth", p[3] * R2D),
                  ("rectified_grid_angle", 0.0),
                  ("scale_factor", p[2]),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    elif num == 58:
        name = "Cylindrical_Equal_Area"
        params = [("standard_parallel_1", p[2] * R2D),
                  ("central_meridian", p[4] * R2D),
                  ("false_easting", p[6]), ("false_northing", p[7])]
    if name is None:
        return pe or ""
    pstr = ",".join(f'PARAMETER["{k}",{g14(v)}]' for k, v in params)
    return (f'PROJCS["{pro_name or "unnamed"}",{geogcs},'
            f'PROJECTION["{name}"],{pstr},'
            f'UNIT["{unit_wkt}",{g14(unit_val)}]]')


def _geotransform(hfa, band_node):
    """HFAGetGeoTransform role -> (gt tuple or None, units string)."""
    mi = band_node.child("Map_Info")
    if mi is None:
        for c in band_node.children:
            if c.type_name == "Eprj_MapInfo":
                mi = c
                break
    if mi is not None:
        ulx = mi.get_float("upperLeftCenter.x", 0.0)
        uly = mi.get_float("upperLeftCenter.y", 0.0)
        lry = mi.get_float("lowerRightCenter.y", 0.0)
        pw = mi.get_float("pixelSize.width")
        ph = mi.get_float("pixelSize.height")
        if pw is None or ph is None:  # misnamed fields (#3338)
            pw = mi.get_float("pixelSize.x", 1.0)
            ph = mi.get_float("pixelSize.y", 1.0)
        units = mi.get_str("units", "") or ""
        gt1 = pw or 1.0
        gt5 = -ph if uly >= lry else ph
        gt5 = gt5 or 1.0
        gt = [ulx - gt1 * 0.5, gt1, 0.0, uly - gt5 * 0.5, 0.0, gt5]
        if units == "ds":
            gt = [v / 3600.0 for v in gt]
        return tuple(gt), units
    # MapToPixelXForm affine (rotated/sheared)
    xf = band_node.child("MapToPixelXForm.XForm0")
    units = ""
    minfo = band_node.child("MapInformation")
    if minfo is not None:
        units = minfo.get_str("units.string", "") or ""
    if xf is None:
        return None, units
    if xf.get_int("order") != 1 or xf.get_int("numdimtransform") != 2 \
            or xf.get_int("numdimpolynomial") != 2 \
            or xf.get_int("termcount") != 3:
        return None, units
    if band_node.child("MapToPixelXForm.XForm1") is not None:
        return None, units
    fwd = [xf.get_float("polycoefvector[0]", 0.0),
           xf.get_float("polycoefmtx[0]", 0.0),
           xf.get_float("polycoefmtx[2]", 0.0),
           xf.get_float("polycoefvector[1]", 0.0),
           xf.get_float("polycoefmtx[1]", 0.0),
           xf.get_float("polycoefmtx[3]", 0.0)]
    det = fwd[1] * fwd[5] - fwd[2] * fwd[4]
    if det == 0.0:
        return None, units
    inv_det = 1.0 / det
    gt = [0.0] * 6
    gt[1] = fwd[5] * inv_det
    gt[4] = -fwd[4] * inv_det
    gt[2] = -fwd[2] * inv_det
    gt[5] = fwd[1] * inv_det
    gt[0] = (fwd[2] * fwd[3] - fwd[0] * fwd[5]) * inv_det
    gt[3] = (-fwd[1] * fwd[3] + fwd[0] * fwd[4]) * inv_det
    # center -> corner of top-left pixel
    gt[0] -= gt[1] * 0.5 + gt[2] * 0.5
    gt[3] -= gt[4] * 0.5 + gt[5] * 0.5
    return tuple(gt), units


def hfa_file_list(path):
    """GetFileList role: label + spill + overview files."""
    hfa = _HFAFile(path)
    out = [path]
    bands = [_Band(hfa, n) for n in hfa.root.children
             if n.type_name == "Eimg_Layer"
             and n.get_int("width", 0) > 0]
    if bands:
        ige = bands[0]._ige_path()
        if ige:
            out.append(ige)
        for ov in bands[0].overviews():
            if ov.hfa.path not in out:
                out.append(ov.hfa.path)
                ovige = ov._ige_path()
                if ovige and ovige not in out:
                    out.append(ovige)
    return out


def read_hfa(path: str) -> dict:
    """HFA -> raster dict (bands, crs, geotransform, nodata, metadata,
    overviews, color_table, rat)."""
    hfa = _HFAFile(path)
    band_nodes = [n for n in hfa.root.children
                  if n.type_name == "Eimg_Layer"
                  and n.get_int("width", 0) > 0
                  and n.get_int("height", 0) > 0]
    if not band_nodes:
        raise ValueError(f"{path}: no Eimg_Layer bands")
    bands = [_Band(hfa, n) for n in band_nodes]
    arrays = [b.read() for b in bands]
    gt, units = _geotransform(hfa, band_nodes[0])
    crs = _build_srs(band_nodes[0], units)
    md = bands[0].stats_metadata()
    if hfa.corrupt_looping:
        md["_corrupt_looping"] = "true"
    overviews = []
    for b in bands:
        ovs = b.overviews()
        overviews.append([ov.read() for ov in ovs])
    return {
        "bands": arrays,
        "crs": crs,
        "geotransform": gt,
        "nodata": bands[0].nodata,
        "metadata": md,
        "overviews": overviews,
        "overview_nodata": [[ov.nodata for ov in b.overviews()]
                            for b in bands],
        "color_table": bands[0].color_table(),
        "rat": bands[0].rat(),
    }
