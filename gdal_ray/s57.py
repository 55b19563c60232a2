"""S-57 ENC (Electronic Navigational Chart) reader — the OGR S57 role.

From-scratch assembly of the IHO S-57 vector model on top of the
generic ISO 8211 reader (reference roles:
ogr/ogrsf_frmts/s57/s57reader.cpp ReadVector/ReadFeature +
AssembleLineGeometry/AssembleAreaGeometry/AssemblePointGeometry,
ogrs57layer.cpp layer split; object/attribute names from the IHO
catalogue in s57_catalog.py).

Model: a cell holds vector records (VRID keyed by RCNM/RCID —
110 isolated node, 120 connected node, 130 edge) carrying SG2D/SG3D
integer coordinates scaled by DSPM.COMF (depths by SOMF) and VRPT
links (an edge's two connected nodes), plus feature records
(FRID/FOID/ATTF/NATF/FSPT).  Features assemble per PRIM:

- P: referenced node's coordinates → POINT, or MULTIPOINT Z from a
  node's SG3D soundings (SOUNDG);
- L: each FSPT edge expands to start-node + SG2D + end-node,
  reversed when ORNT=2, then touching chains merge → LINESTRING /
  MULTILINESTRING;
- A: edges chained into closed rings; USAG=2 rings become holes →
  POLYGON.

One layer per object class (OBJL → catalogue acronym) plus the DSID
metadata layer.  Fields: RCID, PRIM, GRUP, OBJL, RVER, AGEN, FIDN,
FIDS, LNAM (AGEN/FIDN/FIDS hex), attributes by catalogue acronym
(list-type attributes as string lists, NATF at lexical level 2
decoded from UCS-2), plus LNAM_REFS/FFPT_RIND feature-relationship
lists (round 5 — GenerateFFPTAttributes parity; the earlier FFPT
boundary is closed).  ENC update files (.001+) apply sequentially.

Scale: one read task per cell; an ENC archive of thousands of cells
parallelizes across files (per-file shard contract).
"""
from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

from gdal_ray import iso8211
from gdal_ray.geom import wkb as gwkb
from gdal_ray.s57_catalog import ATTRIBUTES, OBJECT_CLASSES

RCNM_VI, RCNM_VC, RCNM_VE, RCNM_VF = 110, 120, 130, 140


def _same(a, b) -> bool:
    """Vertex equality: integer UOR coords divided by one COMF are
    bit-identical when equal — exact compare (np.allclose's default
    rtol would merge distinct nearby vertices)."""
    return bool(np.array_equal(np.asarray(a), np.asarray(b)))


class _Vector:
    __slots__ = ("coords", "depths", "links")

    def __init__(self):
        self.coords: np.ndarray | None = None
        self.depths: np.ndarray | None = None
        self.links: list[tuple[int, int, int, int]] = []  # rcnm,rcid,ornt,usag


def _name_ref(raw: bytes):
    """FSPT/VRPT NAME B(40): byte RCNM + uint32 RCID."""
    return raw[0], int.from_bytes(raw[1:5], "little")


class S57Cell:
    def __init__(self, path: str):
        self.reader = iso8211.read_ddf(path)
        self.comf = 1.0
        self.somf = 1.0
        self.aall = 1  # ATTF lexical level
        self.nall = 1  # NATF lexical level
        self.dsid: dict = {}
        self.vectors: dict[tuple[int, int], _Vector] = {}
        self.features: list[dict] = []
        self._load()
        self._apply_updates(path)

    def _load(self):
        for rec in self.reader.records:
            if "DSID" in rec.fields:
                self.dsid.update({f"DSID_{k}": v for k, v in
                                  rec.first("DSID").items()})
                if "DSSI" in rec.fields:
                    dssi = rec.first("DSSI")
                    self.aall = dssi.get("AALL", 1)
                    self.nall = dssi.get("NALL", 1)
                    self.dsid.update({f"DSSI_{k}": v
                                      for k, v in dssi.items()})
            elif "DSPM" in rec.fields:
                dspm = rec.first("DSPM")
                self.comf = float(dspm.get("COMF") or 1.0)
                self.somf = float(dspm.get("SOMF") or 1.0)
            elif "VRID" in rec.fields:
                self._load_vector(rec)
            elif "FRID" in rec.fields:
                self._load_feature(rec)

    def _apply_updates(self, path: str):
        """ENC update files: <cell>.001, .002, … beside the base .000
        are applied in sequence (s57reader.cpp FindAndApplyUpdates
        role).  DSID updates patch the dataset-id fields (UPDN/UADT/
        ISDT — gdal #2498); VRID/FRID records apply the RUIN
        instruction: 1 = insert, 2 = delete, 3 = modify (attributes
        replaced per ATTF/ATTV; FSPT pointer lists rewritten via the
        FSPC control field; SG2D coordinates via SGCC)."""
        import os
        import re

        base, ext = os.path.splitext(path)
        if not re.fullmatch(r"\.[0-9]{3}", ext):
            return
        n = int(ext[1:])
        while True:
            n += 1
            up = f"{base}.{n:03d}"
            if not os.path.exists(up):
                break
            for rec in iso8211.read_ddf(up).records:
                if "DSID" in rec.fields:
                    d = rec.first("DSID")
                    for k in ("UPDN", "UADT", "ISDT", "EDTN"):
                        if d.get(k) not in (None, ""):
                            self.dsid[f"DSID_{k}"] = d[k]
                elif "VRID" in rec.fields:
                    self._update_vector(rec)
                elif "FRID" in rec.fields:
                    self._update_feature(rec)

    def _update_vector(self, rec: iso8211.Record):
        vrid = rec.first("VRID")
        ruin = vrid.get("RUIN", 1)
        key = (vrid["RCNM"], vrid["RCID"])
        if ruin == 1:  # insert
            self._load_vector(rec)
            return
        if ruin == 2:  # delete
            self.vectors.pop(key, None)
            return
        v = self.vectors.get(key)
        if v is None:
            return
        sgcc = rec.first("SGCC")
        sg2 = rec.all("SG2D")
        sg3 = rec.all("SG3D")
        pts = None
        if sg2:
            pts = np.array([[p["XCOO"], p["YCOO"]] for p in sg2],
                           np.float64) / self.comf
        elif sg3:
            a = np.array([[p["XCOO"], p["YCOO"], p["VE3D"]] for p in sg3],
                         np.float64)
            a[:, :2] /= self.comf
            a[:, 2] /= self.somf
            pts = a[:, :2]
        if pts is not None and v.coords is not None and sgcc:
            ccui = sgcc.get("CCUI", 1)
            ccix = int(sgcc.get("CCIX", 1)) - 1
            ccnc = int(sgcc.get("CCNC", len(pts)))
            cur = v.coords
            if ccui == 1:  # insert before CCIX
                v.coords = np.concatenate(
                    [cur[:ccix], pts, cur[ccix:]])
            elif ccui == 2:  # delete CCNC from CCIX
                v.coords = np.concatenate(
                    [cur[:ccix], cur[ccix + ccnc:]])
            else:  # modify in place
                cur = cur.copy()
                cur[ccix:ccix + len(pts)] = pts
                v.coords = cur
        elif pts is not None:
            v.coords = pts
        if rec.all("VRPT"):
            v.links = [(*_name_ref(p["NAME"]), p.get("ORNT", 1),
                        p.get("USAG", 1)) for p in rec.all("VRPT")]

    def _update_feature(self, rec: iso8211.Record):
        frid = rec.first("FRID")
        ruin = frid.get("RUIN", 1)
        rcid = frid["RCID"]
        if ruin == 1:
            self._load_feature(rec)
            return
        idx = next((i for i, f in enumerate(self.features)
                    if f["RCID"] == rcid), None)
        if ruin == 2:
            if idx is not None:
                del self.features[idx]
            return
        if idx is None:
            return
        feat = self.features[idx]
        for p in rec.all("ATTF"):
            code = p.get("ATTL")
            name, _t = ATTRIBUTES.get(code, (f"ATTR_{code}", "S"))
            feat["attrs"][name] = p.get("ATVL", "")
        fspc = rec.first("FSPC")
        new_fspt = [(*_name_ref(p["NAME"]), p.get("ORNT", 1),
                     p.get("USAG", 1), p.get("MASK", 1))
                    for p in rec.all("FSPT")]
        if fspc and new_fspt is not None:
            fsui = fspc.get("FSUI", 1)
            fsix = int(fspc.get("FSIX", 1)) - 1
            nspt = int(fspc.get("NSPT", len(new_fspt)))
            cur = feat["fspt"]
            if fsui == 1:
                feat["fspt"] = cur[:fsix] + new_fspt + cur[fsix:]
            elif fsui == 2:
                feat["fspt"] = cur[:fsix] + cur[fsix + nspt:]
            else:
                cur = list(cur)
                cur[fsix:fsix + len(new_fspt)] = new_fspt
                feat["fspt"] = cur
        elif new_fspt:
            feat["fspt"] = new_fspt

    def _load_vector(self, rec: iso8211.Record):
        vrid = rec.first("VRID")
        key = (vrid["RCNM"], vrid["RCID"])
        v = _Vector()
        sg2 = rec.all("SG2D")
        sg3 = rec.all("SG3D")
        if sg2:
            a = np.array([[p["XCOO"], p["YCOO"]] for p in sg2], np.float64)
            v.coords = a / self.comf
        if sg3:
            a = np.array([[p["XCOO"], p["YCOO"], p["VE3D"]] for p in sg3],
                         np.float64)
            a[:, :2] /= self.comf
            a[:, 2] /= self.somf
            v.coords = a[:, :2]
            v.depths = a[:, 2]
        for p in rec.all("VRPT"):
            rcnm, rcid = _name_ref(p["NAME"])
            v.links.append((rcnm, rcid, p.get("ORNT", 1),
                            p.get("USAG", 1)))
        self.vectors[key] = v

    def _decode_atvl(self, val, lexical: int) -> str:
        if isinstance(val, str) and lexical == 2:
            return val  # already decoded text path
        return val

    def _load_feature(self, rec: iso8211.Record):
        frid = rec.first("FRID")
        foid = rec.first("FOID") or {}
        feat = {
            "RCID": frid["RCID"], "PRIM": frid["PRIM"],
            "GRUP": frid["GRUP"], "OBJL": frid["OBJL"],
            "RVER": frid["RVER"],
            "AGEN": foid.get("AGEN"), "FIDN": foid.get("FIDN"),
            "FIDS": foid.get("FIDS"),
        }
        if foid:
            feat["LNAM"] = "%04X%08X%04X" % (foid.get("AGEN", 0),
                                             foid.get("FIDN", 0),
                                             foid.get("FIDS", 0))
        # feature-to-feature relationships (s57reader.cpp
        # GenerateFFPTAttributes: LNAM hex in the spec's byte
        # permutation + RIND relationship-indicator list)
        refs, rinds = [], []
        for p in rec.all("FFPT"):
            ln = p.get("LNAM")
            if isinstance(ln, (bytes, bytearray)) and len(ln) >= 8:
                refs.append(
                    "%02X%02X%02X%02X%02X%02X%02X%02X" % (
                        ln[1], ln[0], ln[5], ln[4], ln[3], ln[2],
                        ln[7], ln[6]))
                rinds.append(int(p.get("RIND", 0)))
        if refs:
            feat["LNAM_REFS"] = refs
            feat["FFPT_RIND"] = rinds
        attrs = {}
        for p in rec.all("ATTF"):
            code = p.get("ATTL")
            name, atype = ATTRIBUTES.get(code, (f"ATTR_{code}", "S"))
            val = p.get("ATVL", "")
            if atype == "L":
                val = [x for x in str(val).split(",")]
            elif atype == "I":
                try:
                    val = int(val)
                except (TypeError, ValueError):
                    val = None
            elif atype == "F":
                try:
                    val = float(val)
                except (TypeError, ValueError):
                    val = None
            attrs[name] = val
        if self.nall == 2 and "NATF" in rec.raw:
            # lexical level 2: ATVL is UCS-2LE with a 2-byte (1F 00)
            # unit terminator the generic decoder can't know — reparse
            raw = rec.raw["NATF"]
            pos = 0
            while pos + 2 <= len(raw):
                code = int.from_bytes(raw[pos:pos + 2], "little")
                pos += 2
                end = pos
                while end + 2 <= len(raw) and \
                        raw[end:end + 2] != b"\x1f\x00":
                    end += 2
                val = raw[pos:end].decode("utf-16-le", "replace")
                pos = end + 2
                name, _t = ATTRIBUTES.get(code, (f"ATTR_{code}", "S"))
                attrs[name] = val
        else:
            for p in rec.all("NATF"):
                code = p.get("ATTL")
                name, _t = ATTRIBUTES.get(code, (f"ATTR_{code}", "S"))
                attrs[name] = p.get("ATVL", "")
        feat["attrs"] = attrs
        feat["fspt"] = [( *_name_ref(p["NAME"]), p.get("ORNT", 1),
                         p.get("USAG", 1), p.get("MASK", 1))
                        for p in rec.all("FSPT")]
        self.features.append(feat)

    # -- geometry assembly ----------------------------------------------------

    def _edge_line(self, rcid: int, ornt: int) -> np.ndarray | None:
        v = self.vectors.get((RCNM_VE, rcid))
        if v is None:
            return None
        pts = []
        start = end = None
        nodes = [l for l in v.links if l[0] == RCNM_VC]
        if nodes:
            start = self.vectors.get((RCNM_VC, nodes[0][1]))
            if len(nodes) > 1:
                end = self.vectors.get((RCNM_VC, nodes[1][1]))
        if start is not None and start.coords is not None:
            pts.append(start.coords)
        if v.coords is not None:
            pts.append(v.coords)
        if end is not None and end.coords is not None:
            pts.append(end.coords)
        if not pts:
            return None
        line = np.vstack(pts)
        return line[::-1] if ornt == 2 else line

    def _merge_chains(self, lines: list[np.ndarray]) -> list[np.ndarray]:
        chains: list[np.ndarray] = []
        for ln in lines:
            if chains and _same(chains[-1][-1], ln[0]):
                chains[-1] = np.vstack([chains[-1], ln[1:]])
            else:
                chains.append(ln)
        # second pass: try joining non-adjacent chains
        merged = True
        while merged and len(chains) > 1:
            merged = False
            for i in range(len(chains)):
                for j in range(len(chains)):
                    if i == j:
                        continue
                    if _same(chains[i][-1], chains[j][0]):
                        chains[i] = np.vstack([chains[i], chains[j][1:]])
                        chains.pop(j)
                        merged = True
                        break
                if merged:
                    break
        return chains

    def geometry(self, feat: dict) -> bytes | None:
        prim = feat["PRIM"]
        fspt = feat["fspt"]
        if prim == 1:  # point
            pts2 = []
            snd = []
            for rcnm, rcid, _o, _u, _m in fspt:
                v = self.vectors.get((rcnm, rcid))
                if v is None or v.coords is None:
                    continue
                if v.depths is not None:
                    for (x, y), z in zip(v.coords, v.depths):
                        snd.append((x, y, z))
                else:
                    pts2.extend(v.coords.tolist())
            if snd:
                parts = [gwkb.point_wkb_d([x, y, z], "xyz")
                         for x, y, z in snd]
                return gwkb.collection_wkb(gwkb.MULTIPOINT, parts, "xyz")
            if not pts2:
                return None
            if len(pts2) == 1:
                return gwkb.point_wkb(pts2[0][0], pts2[0][1])
            return gwkb.collection_wkb(
                gwkb.MULTIPOINT, [gwkb.point_wkb(x, y) for x, y in pts2])

        if prim == 2:  # line: ORNT applied, FSPT order (reference
            # AssembleLineGeometry role)
            lines = []
            for rcnm, rcid, ornt, _u, _m in fspt:
                if rcnm != RCNM_VE:
                    continue
                ln = self._edge_line(rcid, ornt)
                if ln is not None and len(ln) >= 2:
                    lines.append(ln)
            if not lines:
                return None
            chains = self._merge_chains(lines)
            if len(chains) == 1:
                return gwkb.linestring_wkb(chains[0])
            return gwkb.collection_wkb(
                gwkb.MULTILINESTRING, [gwkb.linestring_wkb(c) for c in chains])

        # area: natural edge direction (ORNT ignored), rings chained by
        # endpoint matching from the first edge on (the reference's
        # AssembleAreaGeometry → OGRBuildPolygonFromEdges path)
        ext = []
        inter = []
        for rcnm, rcid, _o, usag, _m in fspt:
            if rcnm != RCNM_VE:
                continue
            ln = self._edge_line(rcid, 1)
            if ln is not None and len(ln) >= 2:
                (inter if usag == 2 else ext).append(ln)
        rings = []
        for group in (ext, inter):
            while group:
                chain = [group.pop(0)]
                head = chain[0][0]
                while group and not _same(head, chain[-1][-1]):
                    tail = chain[-1][-1]
                    found = False
                    # first connecting edge in FSPT scan order, joined
                    # at the tail (OGRBuildPolygonFromEdges behavior)
                    for i, ln in enumerate(group):
                        if _same(ln[0], tail):
                            chain.append(group.pop(i)[1:])
                            found = True
                            break
                        if _same(ln[-1], tail):
                            chain.append(group.pop(i)[::-1][1:])
                            found = True
                            break
                    if not found:
                        break
                ring = np.vstack(chain)
                if not _same(ring[0], ring[-1]):
                    ring = np.vstack([ring, ring[:1]])
                rings.append(ring)
        if not rings:
            return None
        return gwkb.polygon_wkb(rings[0], rings[1:])


_LIST_ATTRS = [name for code, (name, t) in ATTRIBUTES.items() if t == "L"]


def list_layers(path: str) -> list[str]:
    cell = S57Cell(path)
    names = ["DSID"]
    seen = []
    for f in cell.features:
        acr = OBJECT_CLASSES.get(f["OBJL"], (f"OBJL_{f['OBJL']}",))[0]
        if acr not in seen:
            seen.append(acr)
    return names + sorted(seen)


def read_s57_local(path: str, layer: str,
                   geom_col: str = "geometry") -> pa.Table:
    cell = S57Cell(path)
    if layer == "DSID":
        vals = {k: [v] for k, v in cell.dsid.items()
                if isinstance(v, (int, float, str))}
        return pa.table(vals)
    feats = [f for f in cell.features
             if OBJECT_CLASSES.get(f["OBJL"],
                                   (f"OBJL_{f['OBJL']}",))[0] == layer]
    cols: dict[str, list] = {
        "RCID": [], "PRIM": [], "GRUP": [], "OBJL": [], "RVER": [],
        "AGEN": [], "FIDN": [], "FIDS": [], "LNAM": [],
    }
    attr_names: list[str] = []
    for f in feats:
        for a in f["attrs"]:
            if a not in attr_names:
                attr_names.append(a)
    geoms = []
    for f in feats:
        for k in ("RCID", "PRIM", "GRUP", "OBJL", "RVER", "AGEN", "FIDN",
                  "FIDS"):
            cols[k].append(f.get(k))
        cols["LNAM"].append(f.get("LNAM"))
        geoms.append(cell.geometry(f))
    out = {k: pa.array(v) for k, v in cols.items()}
    if any("LNAM_REFS" in f for f in feats):
        out["LNAM_REFS"] = pa.array(
            [f.get("LNAM_REFS") for f in feats], pa.list_(pa.string()))
        out["FFPT_RIND"] = pa.array(
            [f.get("FFPT_RIND") for f in feats], pa.list_(pa.int32()))
    for a in attr_names:
        vals = [f["attrs"].get(a) for f in feats]
        if a in _LIST_ATTRS:
            out[a] = pa.array(
                [v if isinstance(v, list) else (None if v is None else [v])
                 for v in vals], pa.list_(pa.string()))
        else:
            out[a] = pa.array([None if v is None else v for v in vals])
    out[geom_col] = pa.array(geoms, pa.binary())
    return pa.table(out)


def read_s57(path: str, layer: str, geom_col: str = "geometry"):
    """Ray Dataset over one object-class layer — one task per cell."""
    import ray.data as rd
    paths = [path] if isinstance(path, str) else list(path)
    ds = rd.from_items([{"path": p} for p in paths])

    def load(batch: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [read_s57_local(p.as_py(), layer, geom_col)
             for p in batch["path"]], promote_options="permissive")

    return ds.map_batches(load, batch_format="pyarrow")
