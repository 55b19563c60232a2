"""Baseline JPEG codec tests (gdal_ray/raster/jpeg.py) — mirrors the
PNG codec's golden-byte discipline: a hand-crafted spec-table JPEG
(built in this file directly from ITU-T T.81 Annex K constants,
independent of encode_jpeg), component-level IDCT/zigzag pins, and
encode→decode round-trip error bounds."""

import struct

import numpy as np
import pytest

from gdal_ray.raster import jpeg as J


class TestComponents:
    def test_idct_matches_direct_formula(self):
        """IDCT vs the literal T.81 A.3.3 cosine sum."""
        rng = np.random.default_rng(4)
        X = rng.normal(0, 50, (8, 8))
        direct = np.zeros((8, 8))
        for y in range(8):
            for x in range(8):
                s = 0.0
                for u in range(8):
                    for v in range(8):
                        cu = 1 / np.sqrt(2) if u == 0 else 1.0
                        cv = 1 / np.sqrt(2) if v == 0 else 1.0
                        s += cu * cv * X[u, v] * np.cos((2 * y + 1) * u * np.pi / 16) \
                            * np.cos((2 * x + 1) * v * np.pi / 16)
                direct[y, x] = s / 4.0
        np.testing.assert_allclose(J._idct2(X), direct, atol=1e-10)

    def test_dct_idct_inverse(self):
        rng = np.random.default_rng(5)
        X = rng.normal(0, 50, (8, 8))
        np.testing.assert_allclose(J._idct2(J._dct2(X)), X, atol=1e-10)

    def test_zigzag_is_spec_table(self):
        # T.81 Figure A.6 first/last rows and involution property
        assert list(J.ZIGZAG[:8]) == [0, 1, 8, 16, 9, 2, 3, 10]
        assert list(J.ZIGZAG[-4:]) == [47, 55, 62, 63]
        assert sorted(J.ZIGZAG) == list(range(64))

    def test_huffman_table_construction(self):
        # T.81 C.2: DC luminance codes are canonical
        t = J._build_decode_table(*J.HUFF_DC_LUM)
        assert t[(2, 0b00)] == 0
        assert t[(3, 0b010)] == 1
        assert t[(3, 0b110)] == 5
        assert t[(4, 0b1110)] == 6
        assert t[(9, 0b111111110)] == 11

    def test_extend(self):
        # T.81 Table F.1 EXTEND examples
        assert J._extend(0b1, 1) == 1 and J._extend(0b0, 1) == -1
        assert J._extend(0b11, 2) == 3 and J._extend(0b00, 2) == -3
        assert J._extend(0b100100, 6) == 36


class TestSpecGolden:
    """An 8×8 constant-200 grayscale JPEG hand-assembled from the
    Annex K tables: DC diff 36 → category 6 → code 1110 + 100100,
    EOB 1010, padded with 1s ⇒ entropy bytes E9 2B.  decode_jpeg must
    return exactly 200 everywhere."""

    def _golden_bytes(self) -> bytes:
        out = bytearray(b"\xff\xd8")
        zz = J.QT_LUM[J.ZIGZAG].astype(np.uint8)
        out += b"\xff\xdb" + struct.pack(">H", 67) + b"\x00" + zz.tobytes()
        out += b"\xff\xc0" + struct.pack(">H", 11) + struct.pack(
            ">BHHB", 8, 8, 8, 1) + bytes([1, 0x11, 0])
        for tc, (bits, vals) in ((0, J.HUFF_DC_LUM), (1, J.HUFF_AC_LUM)):
            payload = bytes([tc << 4]) + bytes(bits) + bytes(vals)
            out += b"\xff\xc4" + struct.pack(">H", len(payload) + 2) + payload
        out += b"\xff\xda" + struct.pack(">H", 8) + bytes(
            [1, 1, 0x00, 0, 63, 0])
        out += bytes([0xE9, 0x2B])  # hand-coded entropy bits
        out += b"\xff\xd9"
        return bytes(out)

    def test_constant_gray_golden(self):
        img = J.decode_jpeg(self._golden_bytes())
        assert img.shape == (8, 8)
        assert (img == 200).all()

    def test_golden_matches_own_encoder_semantics(self):
        # encode_jpeg at quality 50 uses the unscaled Annex K table, so
        # its output must decode to the same constant
        img = J.decode_jpeg(J.encode_jpeg(np.full((8, 8), 200, np.uint8),
                                          quality=50))
        assert (img == 200).all()


class TestRoundtrip:
    def test_smooth_gradient_exact(self):
        gy, gx = np.mgrid[0:32, 0:48]
        img = (gy * 2 + gx).astype(np.uint8)
        out = J.decode_jpeg(J.encode_jpeg(img, quality=95))
        assert out.shape == img.shape
        assert int(np.abs(out.astype(int) - img.astype(int)).max()) == 0

    def test_noise_error_bounded(self):
        rng = np.random.default_rng(3)
        img = np.clip(rng.normal(128, 30, (40, 56)), 0, 255).astype(np.uint8)
        out = J.decode_jpeg(J.encode_jpeg(img, quality=95))
        rmse = float(np.sqrt(((out.astype(float) - img) ** 2).mean()))
        assert rmse < 4.0

    def test_color_roundtrip(self):
        gy, gx = np.mgrid[0:24, 0:40]
        img = np.stack([gx * 3 % 256, gy * 5 % 256, (gx + gy) * 2 % 256],
                       axis=-1).astype(np.uint8)
        out = J.decode_jpeg(J.encode_jpeg(img, quality=95))
        assert out.shape == img.shape
        assert int(np.abs(out.astype(int) - img.astype(int)).max()) <= 4

    def test_non_multiple_of_8_size(self):
        rng = np.random.default_rng(9)
        img = np.clip(rng.normal(100, 20, (13, 21)), 0, 255).astype(np.uint8)
        out = J.decode_jpeg(J.encode_jpeg(img, quality=90))
        assert out.shape == (13, 21)

    def test_quality_monotone(self):
        rng = np.random.default_rng(10)
        img = np.clip(rng.normal(128, 40, (32, 32)), 0, 255).astype(np.uint8)
        errs = []
        for q in (30, 60, 90):
            out = J.decode_jpeg(J.encode_jpeg(img, quality=q))
            errs.append(float(np.sqrt(((out.astype(float) - img) ** 2).mean())))
        assert errs[0] > errs[1] > errs[2]


class TestSampling420:
    def _craft_420(self, y_const: float, cb_const: float, cr_const: float,
                   h: int = 16, w: int = 16) -> bytes:
        """Hand-assemble a one-MCU 4:2:0 color JPEG with constant
        planes (DC-only blocks) using the encoder's bit-writer but NOT
        encode_jpeg (which is 4:4:4) — exercises the decoder's MCU
        sampling walk + upsampling."""
        out = bytearray(b"\xff\xd8")
        for tq, q in ((0, J.QT_LUM), (1, J.QT_CHROM)):
            zz = q[J.ZIGZAG].astype(np.uint8)
            out += b"\xff\xdb" + struct.pack(">H", 67) + bytes([tq]) + zz.tobytes()
        out += b"\xff\xc0" + struct.pack(">H", 17) + struct.pack(
            ">BHHB", 8, h, w, 3) + bytes([1, 0x22, 0, 2, 0x11, 1, 3, 0x11, 1])
        enc = {}
        for tc, th, tab in ((0, 0, J.HUFF_DC_LUM), (1, 0, J.HUFF_AC_LUM),
                            (0, 1, J.HUFF_DC_CHROM), (1, 1, J.HUFF_AC_CHROM)):
            payload = bytes([tc << 4 | th]) + bytes(tab[0]) + bytes(tab[1])
            out += b"\xff\xc4" + struct.pack(">H", len(payload) + 2) + payload
            enc[(tc, th)] = J._build_encode_table(*tab)
        out += b"\xff\xda" + struct.pack(">H", 12) + bytes(
            [3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0])
        bw = J._BitWriter()

        def dc(val, qtab, dct, act, pred):
            coef = int(np.round((val - 128.0) * 8.0 / qtab[0]))
            diff = coef - pred
            t = J._cat(diff)
            ln, code = enc[dct][t]
            bw.write(code, ln)
            if t:
                u = diff if diff >= 0 else diff + (1 << t) - 1
                bw.write(u & ((1 << t) - 1), t)
            ln, code = enc[act][0x00]  # EOB
            bw.write(code, ln)
            return coef

        py = 0
        for _ in range(4):  # 4 luma blocks in the 4:2:0 MCU
            py = dc(y_const, J.QT_LUM, (0, 0), (1, 0), py)
        dc(cb_const, J.QT_CHROM, (0, 1), (1, 1), 0)
        dc(cr_const, J.QT_CHROM, (0, 1), (1, 1), 0)
        bw.flush()
        out += bw.out + b"\xff\xd9"
        return bytes(out)

    def test_420_constant_color(self):
        y, cb, cr = 80.0, 151.0, 109.0
        img = J.decode_jpeg(self._craft_420(y, cb, cr))
        assert img.shape == (16, 16, 3)
        # independent expected values: quantized DC reconstruction +
        # BT.601 conversion computed here from the spec formulas
        yq = round((y - 128.0) * 8.0 / J.QT_LUM[0]) * J.QT_LUM[0] / 8.0 + 128.0
        cbq = round((cb - 128.0) * 8.0 / J.QT_CHROM[0]) * J.QT_CHROM[0] / 8.0 + 128.0
        crq = round((cr - 128.0) * 8.0 / J.QT_CHROM[0]) * J.QT_CHROM[0] / 8.0 + 128.0
        exp_r = int(np.clip(round(yq + 1.402 * (crq - 128.0)), 0, 255))
        exp_g = int(np.clip(round(yq - 0.344136 * (cbq - 128.0)
                                  - 0.714136 * (crq - 128.0)), 0, 255))
        exp_b = int(np.clip(round(yq + 1.772 * (cbq - 128.0)), 0, 255))
        assert (img[..., 0] == exp_r).all()
        assert (img[..., 1] == exp_g).all()
        assert (img[..., 2] == exp_b).all()


class TestErrors:
    def test_not_jpeg(self):
        with pytest.raises(ValueError):
            J.decode_jpeg(b"\x89PNG")

    def test_lossless_sof_raises(self):
        gy, gx = np.mgrid[0:8, 0:8]
        buf = bytearray(J.encode_jpeg((gy + gx).astype(np.uint8)))
        i = bytes(buf).find(b"\xff\xc0")
        buf[i + 1] = 0xC3  # flip SOF0 -> SOF3 (lossless, unsupported)
        with pytest.raises(NotImplementedError):
            J.decode_jpeg(bytes(buf))


class TestProgressive:
    """Progressive (SOF2) decode: a test-side progressive encoder
    (T.81 G.2 / libjpeg jcphuff.c structure) produces a stream that
    must decode IDENTICALLY to the baseline encoding of the same
    quantized coefficients."""

    def _tables(self):
        # simple valid Huffman tables: 16 symbols of length 5..8
        from gdal_ray.raster import jpeg as J

        # DC: categories 0..11
        dc_bits = [0] * 16
        dc_bits[7] = 12  # all length-8
        dc_vals = list(range(12))
        # AC: enough (r,s) symbols for the test data: sizes 1..10 with
        # runs 0..15 plus ZRL and EOB
        ac_vals = [0x00, 0xF0]
        for r in range(16):
            for s in range(1, 11):
                ac_vals.append((r << 4) | s)
        ac_bits = [0] * 16
        ac_bits[8] = len(ac_vals)  # all codes length 9 (162 < 512)
        return (dc_bits, dc_vals), (ac_bits, ac_vals)

    def _build_streams(self, coeff_blocks, w, h, q=16):
        """coeff_blocks: list of 64-int zigzag-order blocks (one comp,
        8x8 grid row-major). Returns (baseline_bytes, progressive_bytes)."""
        import struct

        from gdal_ray.raster import jpeg as J

        (dcb, dcv), (acb, acv) = self._tables()
        dctab = J._build_encode_table(dcb, dcv)
        actab = J._build_encode_table(acb, acv)

        def seg(marker, payload):
            return bytes([0xFF, marker]) + struct.pack(
                ">H", len(payload) + 2) + payload

        qtab = bytes([0]) + bytes([q] * 64)
        dht = (bytes([0x00]) + bytes(dcb) + bytes(dcv)
               + bytes([0x10]) + bytes(acb) + bytes(acv))
        sof = lambda m: seg(m, bytes([8]) + struct.pack(">HH", h, w)
                            + bytes([1, 1, 0x11, 0]))
        head = b"\xff\xd8" + seg(0xDB, qtab) + seg(0xC4, dht)

        def cat_bits(v):
            c = J._cat(v)
            return c, (v if v >= 0 else v + (1 << c) - 1)

        def _fin(writer):
            writer.flush()
            return bytes(writer.out)

        # ---- baseline entropy
        bw = J._BitWriter()
        pred = 0
        for coef in coeff_blocks:
            c, vb = cat_bits(coef[0] - pred)
            pred = coef[0]
            bw.write(dctab[c][1], dctab[c][0])
            if c:
                bw.write(vb, c)
            k = 1
            while k < 64:
                r = 0
                while k < 64 and coef[k] == 0:
                    r += 1
                    k += 1
                if k == 64:
                    bw.write(actab[0x00][1], actab[0x00][0])
                    break
                while r > 15:
                    bw.write(actab[0xF0][1], actab[0xF0][0])
                    r -= 16
                s, vb2 = cat_bits(coef[k])
                sym = (r << 4) | s
                bw.write(actab[sym][1], actab[sym][0])
                bw.write(vb2, s)
                k += 1
        base = (head + sof(0xC0)
                + seg(0xDA, bytes([1, 1, 0x00, 0, 63, 0]))
                + _fin(bw) + b"\xff\xd9")

        # ---- progressive scans
        def sos(ss, se, ah, al):
            return seg(0xDA, bytes([1, 1, 0x00, ss, se, (ah << 4) | al]))

        # scan 1: DC first, Al=1
        w1 = J._BitWriter()
        pred = 0
        for coef in coeff_blocks:
            v = coef[0] >> 1
            c, vb = cat_bits(v - pred)
            pred = v
            w1.write(dctab[c][1], dctab[c][0])
            if c:
                w1.write(vb, c)
        # scan 2: AC 1-63 first, Al=1
        w2 = J._BitWriter()
        for coef in coeff_blocks:
            k = 1
            r = 0
            while k < 64:
                v = coef[k] >> 1 if coef[k] >= 0 else -((-coef[k]) >> 1)
                if v == 0:
                    r += 1
                    k += 1
                    continue
                while r > 15:
                    w2.write(actab[0xF0][1], actab[0xF0][0])
                    r -= 16
                s, vb2 = cat_bits(v)
                sym = (r << 4) | s
                w2.write(actab[sym][1], actab[sym][0])
                w2.write(vb2, s)
                r = 0
                k += 1
            if r:
                w2.write(actab[0x00][1], actab[0x00][0])  # EOB (run 1)
        # scan 3: DC refine (Al=0)
        w3 = J._BitWriter()
        for coef in coeff_blocks:
            w3.write(coef[0] & 1, 1)
        # scan 4: AC refine Ah=1 Al=0 — mirrors libjpeg
        # encode_mcu_AC_refine: ZRLs are emitted EAGERLY at the first
        # nonzero coefficient once r > 15 (within the EOB span), each
        # flushing only the correction bits buffered BEFORE that zero
        # run, so the decoder's interleaved reads line up exactly.
        w4 = J._BitWriter()
        for coef in coeff_blocks:
            absv = [abs(int(v)) for v in coef]
            eob = 0
            for k in range(1, 64):
                if absv[k] == 1:
                    eob = k
            r = 0
            pending = []
            for k in range(1, 64):
                temp = absv[k]
                if temp == 0:
                    r += 1
                    continue
                while r > 15 and k <= eob:
                    w4.write(actab[0xF0][1], actab[0xF0][0])
                    r -= 16
                    for b in pending:
                        w4.write(b, 1)
                    pending = []
                if temp > 1:
                    pending.append(temp & 1)
                    continue
                sym = (r << 4) | 1
                w4.write(actab[sym][1], actab[sym][0])
                w4.write(1 if coef[k] > 0 else 0, 1)
                for b in pending:
                    w4.write(b, 1)
                pending = []
                r = 0
            if r or pending:
                w4.write(actab[0x00][1], actab[0x00][0])  # EOB
                for b in pending:
                    w4.write(b, 1)
        prog = (head + sof(0xC2)
                + sos(0, 0, 0, 1) + _fin(w1)
                + sos(1, 63, 0, 1) + _fin(w2)
                + sos(0, 0, 1, 0) + _fin(w3)
                + sos(1, 63, 1, 0) + _fin(w4)
                + b"\xff\xd9")
        return base, prog

    def test_progressive_equals_baseline(self):
        import numpy as np

        from gdal_ray.raster.jpeg import decode_jpeg

        rng = np.random.default_rng(11)
        blocks = []
        for _ in range(6):  # 16x24 image: 2 rows x 3 cols of blocks
            coef = np.zeros(64, np.int64)
            coef[0] = int(rng.integers(-60, 60))
            nz = rng.choice(np.arange(1, 64), size=12, replace=False)
            coef[nz] = rng.integers(-40, 40, size=12)
            blocks.append(coef)
        base, prog = self._build_streams(blocks, w=24, h=16)
        a = decode_jpeg(base)
        b = decode_jpeg(prog)
        assert a.shape == b.shape == (16, 24)
        assert np.array_equal(a, b)

    def test_fixture_decodes(self):
        import numpy as np

        from gdal_ray.raster.jpeg import decode_jpeg

        p = ("/root/reference/doc/images/gdal-tshirt-front.jpg")
        import os

        if not os.path.exists(p):
            import pytest

            pytest.skip("fixture absent")
        img = decode_jpeg(open(p, "rb").read())
        assert img.shape == (480, 480, 3)
        # non-trivial content
        assert img.std() > 10
        g = decode_jpeg(open(
            "/root/reference/autotest/gdrivers/data/jpeg/"
            "arcgis_geodataxform_gcp.jpg", "rb").read())
        assert g.shape == (30, 30)


def test_12bit_precision():
    """12bit_rose_extract.jpg — the reference's test_jpeg_10 pins the
    band mean in [3613, 3614] and GDT_UInt16."""
    import numpy as np

    from gdal_ray.raster.jpeg import decode_jpeg

    a = decode_jpeg(open(
        "/root/reference/autotest/gdrivers/data/jpeg/"
        "12bit_rose_extract.jpg", "rb").read())
    assert a.dtype == np.uint16
    assert a.shape == (50, 50)
    assert a.max() <= 4095
    assert 3613 <= float(a.mean()) <= 3614
