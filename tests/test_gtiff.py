"""GeoTIFF codec tests — round-trips across dtypes/compressions,
LZW encoder/decoder self-consistency, and reference-parity pins
against the public GDAL autotest rasters (read-only inputs; the
famous byte.tif band checksum is 4672)."""

import os

import numpy as np
import pytest

from conftest import ref_path
from gdal_ray.raster import gtiff
from gdal_ray.raster.checksum import checksum_array

REF = "autotest/gcore/data"


def _rand(dtype, shape=(37, 53), seed=1):
    rng = np.random.default_rng(seed)
    if np.issubdtype(np.dtype(dtype), np.floating):
        return rng.normal(0, 100, shape).astype(dtype)
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, shape, dtype=dtype,
                        endpoint=True)


class TestRoundTrip:
    @pytest.mark.parametrize("dtype", [
        "uint8", "int16", "uint16", "int32", "float32", "float64"])
    @pytest.mark.parametrize("comp", ["none", "deflate", "lzw"])
    def test_single_band(self, dtype, comp):
        arr = _rand(dtype)
        gt = (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0)
        data = gtiff.encode_geotiff(arr, "EPSG:26711", gt, nodata=0,
                                    compression=comp)
        g = gtiff.decode_geotiff(data)
        np.testing.assert_array_equal(g["bands"][0], arr)
        assert g["crs"] == "EPSG:26711"
        assert g["geotransform"] == gt
        assert g["nodata"] == 0.0

    def test_multiband_rgb(self):
        bands = [_rand("uint8", seed=s) for s in (1, 2, 3)]
        data = gtiff.encode_geotiff(bands, "EPSG:4326",
                                    (-180, 0.1, 0, 90, 0, -0.1))
        g = gtiff.decode_geotiff(data)
        assert len(g["bands"]) == 3
        for a, b in zip(g["bands"], bands):
            np.testing.assert_array_equal(a, b)
        assert g["crs"] == "EPSG:4326"

    def test_geographic_vs_projected_keys(self):
        a = _rand("uint8", (5, 5))
        for crs in ("EPSG:4326", "EPSG:32611", "EPSG:3857"):
            g = gtiff.decode_geotiff(gtiff.encode_geotiff(a, crs))
            assert g["crs"] == crs


class TestLZW:
    def test_stream_roundtrip_wide_codes(self):
        # enough entropy to push the code width through 10/11/12 bits
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, 300_000, dtype=np.uint8).tobytes()
        enc = gtiff._lzw_encode(data)
        assert gtiff._lzw_decode(enc, len(data)) == data

    def test_stream_roundtrip_runs(self):
        data = (b"A" * 10000 + b"B" * 3 + b"A" * 5000) * 3
        enc = gtiff._lzw_encode(data)
        assert len(enc) < len(data) // 10
        assert gtiff._lzw_decode(enc, len(data)) == data


class TestReferenceParity:
    def test_byte_tif(self):
        """The canonical autotest raster: 20x20 uint8, EPSG:26711,
        gt (440720,60,0,3751320,0,-60), band checksum 4672."""
        g = gtiff.decode_geotiff(open(ref_path(f"{REF}/byte.tif"), "rb").read())
        arr = g["bands"][0]
        assert arr.shape == (20, 20) and arr.dtype == np.uint8
        assert checksum_array(arr) == 4672
        assert g["crs"] == "EPSG:26711"
        np.testing.assert_allclose(
            g["geotransform"], (440720.0, 60.0, 0.0, 3751320.0, 0.0, -60.0))

    def test_dtype_variants_checksum_4672(self):
        """autotest tiff_read.py init_list: these all pin band-1
        checksum 4672 (same data as byte.tif in wider types)."""
        for name in ("int16.tif", "uint16.tif", "int32.tif",
                     "uint32.tif", "float32.tif", "float64.tif"):
            g = gtiff.decode_geotiff(open(ref_path(f"{REF}/{name}"), "rb").read())
            assert checksum_array(g["bands"][0]) == 4672, name

    def test_rgbsmall(self):
        """3-band RGB: every band reads; re-encode through this
        writer round-trips bit-exactly."""
        g = gtiff.decode_geotiff(open(ref_path(f"{REF}/rgbsmall.tif"), "rb").read())
        assert len(g["bands"]) == 3
        assert g["bands"][0].shape == (50, 50)
        again = gtiff.decode_geotiff(
            gtiff.encode_geotiff(g["bands"], g["crs"], g["geotransform"]))
        for a, b in zip(again["bands"], g["bands"]):
            np.testing.assert_array_equal(a, b)

    def test_tiled_and_strip_layouts(self):
        """Partial final strip/tile handling (autotest #1179 files):
        band-2 checksum 15234 across chunky/planar × strip/tile, and
        all four layouts decode to identical pixels."""
        decoded = {}
        for name in ("contig_tiled.tif", "separate_tiled.tif",
                     "contig_strip.tif", "seperate_strip.tif"):
            g = gtiff.decode_geotiff(open(ref_path(f"{REF}/{name}"), "rb").read())
            assert checksum_array(g["bands"][1]) == 15234, name
            decoded[name] = g["bands"]
        base = decoded["contig_tiled.tif"]
        for name, bands in decoded.items():
            for a, b in zip(bands, base):
                np.testing.assert_array_equal(a, b, err_msg=name)


class TestDatasetIO:
    def test_read_geotiff_dataset(self, ray_session, tmp_path):
        arr = _rand("int16", (64, 80))
        p = str(tmp_path / "t.tif")
        gtiff.write_geotiff(p, arr, "EPSG:32633",
                            (500000.0, 10.0, 0.0, 4649776.0, 0.0, -10.0))
        ds = gtiff.read_geotiff(p, tile_size=32)
        rows = ds.take_all()
        assert sum(r["width"] * r["height"] for r in rows) == 64 * 80
        assert all(r["crs"] == "EPSG:32633" for r in rows)
        from gdal_ray.raster import model
        import pyarrow as pa

        back = model.to_array(pa.Table.from_pylist(
            rows, schema=model.tile_schema()))
        np.testing.assert_array_equal(back, arr)


class TestCOG:
    """encode_cog: tiled + overview IFD chain + COG byte layout."""

    def _arr(self, h=600, w=500):
        import numpy as np

        y, x = np.mgrid[0:h, 0:w]
        return ((x * 7 + y * 13) % 251).astype(np.uint8)

    def test_roundtrip_full_res(self):
        from gdal_ray.raster.gtiff import decode_geotiff, encode_cog
        import numpy as np

        a = self._arr()
        data = encode_cog([a], crs="EPSG:32633",
                          geotransform=(100.0, 10.0, 0.0, 5000.0, 0.0, -10.0),
                          nodata=0.0)
        g = decode_geotiff(data)
        assert np.array_equal(g["bands"][0], a)
        assert g["crs"] == "EPSG:32633"
        assert g["geotransform"] == (100.0, 10.0, 0.0, 5000.0, 0.0, -10.0)
        assert g["nodata"] == 0.0

    def test_overview_chain_matches_reduce(self):
        from gdal_ray.raster.gtiff import decode_geotiff, encode_cog, ifd_offsets
        from gdal_ray.raster.overview import reduce_2x2
        import numpy as np

        a = self._arr()
        data = encode_cog([a], min_overview_size=128)
        offs = ifd_offsets(data)
        assert len(offs) >= 2  # full + at least one overview
        want = a
        for i in range(1, len(offs)):
            want = reduce_2x2(want, "average").astype(a.dtype)
            got = decode_geotiff(data, ifd_index=i)["bands"][0]
            assert np.array_equal(got, want), f"overview {i} mismatch"

    def test_cog_layout(self):
        """COG contract: every IFD before any tile data; tile data of
        the SMALLEST overview first, full-res last."""
        import struct

        from gdal_ray.raster.gtiff import encode_cog, ifd_offsets, _read_ifd

        data = encode_cog([self._arr()], min_overview_size=128)
        offs = ifd_offsets(data)
        tile_starts = []
        for o in offs:
            tags = _read_ifd(data, "<", o)
            tile_starts.append(min(tags[324]))
        assert max(offs) < min(tile_starts)  # IFDs lead the file
        # smallest overview's tiles come first
        assert tile_starts == sorted(tile_starts, reverse=True)

    def test_multiband_float(self):
        from gdal_ray.raster.gtiff import decode_geotiff, encode_cog
        import numpy as np

        rng = np.random.default_rng(7)
        b1 = rng.random((300, 300)).astype(np.float32)
        b2 = rng.random((300, 300)).astype(np.float32)
        g = decode_geotiff(encode_cog([b1, b2]))
        assert np.array_equal(g["bands"][0], b1)
        assert np.array_equal(g["bands"][1], b2)

    def test_write_cog_file(self, tmp_path):
        from gdal_ray.raster.gtiff import decode_geotiff, write_cog
        import numpy as np

        a = self._arr(100, 100)
        p = tmp_path / "x_cog.tif"
        write_cog(str(p), [a])
        g = decode_geotiff(p.read_bytes())
        assert np.array_equal(g["bands"][0], a)


class TestBigTIFF:
    """BigTIFF (magic 43, 64-bit offsets) — reference fixture parity
    across byte orders and offset types (frmts/gtiff BigTIFF support;
    fixtures from autotest/gcore/data/bigtiff_*.tif) + write
    roundtrip with IF_NEEDED auto-promotion."""

    def test_reference_fixtures_all_variants(self):
        import glob

        expected = {
            "bigtiff_one_strip": ((1, 1), 3),
            "bigtiff_two_strip": ((2, 1), 9),
            "bigtiff_four_strip": ((4, 1), 27),
            "bigtiff_one_block": ((1, 1), 3),
        }
        seen = 0
        for f in sorted(glob.glob(
            ref_path(f"{REF}/bigtiff_*.tif")
        )):
            if "header_extract" in f:   # intentionally truncated
                continue
            d = gtiff.decode_geotiff(open(f, "rb").read())
            b = d["bands"][0]
            for stem, (shape, cks) in expected.items():
                if stem in f:
                    assert b.shape == shape, f
                    assert checksum_array(b) == cks, f
                    seen += 1
        assert seen >= 12   # le/be x long/long8/short variants

    def test_forced_bigtiff_roundtrip(self):
        arr = (np.arange(200 * 300, dtype=np.uint16) % 1000).reshape(
            200, 300)
        blob = gtiff.encode_geotiff(
            [arr, (arr * 2) % 999], crs="EPSG:32633",
            geotransform=(10.0, 2.0, 0.0, 20.0, 0.0, -2.0),
            nodata=7.0, bigtiff=True,
        )
        assert blob[2:4] == b"\x2b\x00"         # magic 43
        assert blob[4:8] == b"\x08\x00\x00\x00"  # offsetsize 8, pad 0
        d = gtiff.decode_geotiff(blob)
        assert np.array_equal(d["bands"][0], arr)
        assert np.array_equal(d["bands"][1], (arr * 2) % 999)
        assert d["crs"] == "EPSG:32633" and d["nodata"] == 7.0
        assert d["geotransform"] == (10.0, 2.0, 0.0, 20.0, 0.0, -2.0)

    def test_small_stays_classic(self):
        blob = gtiff.encode_geotiff(np.zeros((4, 4), np.uint8))
        assert blob[2:4] == b"\x2a\x00"

    @pytest.mark.skipif(
        os.environ.get("GDAL_RAY_SLOW") != "1",
        reason="4 GiB allocation; set GDAL_RAY_SLOW=1",
    )
    def test_over_4gib_auto_promotes(self):
        """>4 GiB uncompressed payload: IF_NEEDED must emit BigTIFF and
        the strip offsets past 2^32 must read back exactly."""
        h, w = 33000, 33000  # uint32 -> 4.356 GB
        arr = np.zeros((h, w), np.uint32)
        arr[::1000, ::1000] = np.arange(33 * 33, dtype=np.uint32).reshape(
            33, 33)
        blob = gtiff.encode_geotiff(arr, compression="none")
        assert blob[2:4] == b"\x2b\x00"
        assert len(blob) > 0xFFFFFFFF
        d = gtiff.decode_geotiff(blob)
        assert np.array_equal(d["bands"][0][::1000, ::1000],
                              arr[::1000, ::1000])
        assert int(d["bands"][0].sum()) == int(arr.sum())


class TestFloatPredictor3:
    """TIFF floating-point predictor (3): libtiff fpAcc semantics —
    per-row byte-plane shuffle (MSB plane first) + byte-wise
    horizontal accumulation at sample stride. Reference fixtures pin
    checksum 4672 (autotest tiff_read.py:75)."""

    @pytest.mark.parametrize("name", [
        "gtiff/float32_LZW_predictor_3.tif",
        "gtiff/float64_LZW_predictor_3.tif",
        "gtiff/float32_lzw_predictor_3_big_endian.tif",
    ])
    def test_reference_fixture_checksum(self, name):
        d = gtiff.decode_geotiff(
            open(ref_path(f"{REF}/{name}"), "rb").read()
        )
        assert checksum_array(d["bands"][0]) == 4672
        base = gtiff.decode_geotiff(
            open(ref_path(f"{REF}/byte.tif"), "rb").read()
        )["bands"][0]
        assert np.array_equal(d["bands"][0].astype(np.float64),
                              base.astype(np.float64))


class TestLZWWidthBoundaries:
    def test_roundtrip_across_all_widths(self):
        """Random data grows the table past every width switch (511 /
        1023 / 2047) and through a 4095 reset — regression for the
        round-4 off-by-one fix (old 510/1022/2046 decoder boundaries
        desynced on libtiff streams; caught by the predictor-3
        fixtures)."""
        rng = np.random.default_rng(0)
        blob = bytes(rng.integers(0, 256, 200_000, dtype=np.uint8))
        assert gtiff._lzw_decode(gtiff._lzw_encode(blob), len(blob)) == blob
        rep = bytes(np.tile(np.arange(64, dtype=np.uint8), 5000))
        assert gtiff._lzw_decode(gtiff._lzw_encode(rep), len(rep)) == rep


class TestJpegInTiff:
    """New-style JPEG-in-TIFF (compression 7) through the engine's own
    T.81 codec: JPEGTables (tag 347) splice + self-contained
    tablesmode-zero strips + YCbCr 3-band + oversized last stripe +
    irregular tiles. Checksums land within the float-IDCT vs
    libjpeg-fixed-point rounding band (±10) of the autotest pins
    (tiff_write.py:5942-5957, tiff_read.py:3974-3988)."""

    @pytest.mark.parametrize("name,expected", [
        ("byte_jpg_tablesmodezero.tif", 4743),
        ("byte_jpg_unusual_jpegtable.tif", 4771),
        ("tif_jpeg_too_big_last_stripe.tif", 4557),
        ("tif_jpeg_ycbcr_too_big_last_stripe.tif", 4557),
    ])
    def test_reference_fixture_near_checksum(self, name, expected):
        d = gtiff.decode_geotiff(
            open(ref_path(f"{REF}/{name}"), "rb").read()
        )
        assert abs(checksum_array(d["bands"][0]) - expected) <= 10, name

    def test_lossy_content_close_to_original(self):
        base = gtiff.decode_geotiff(
            open(ref_path(f"{REF}/byte.tif"), "rb").read()
        )["bands"][0].astype(np.float64)
        d = gtiff.decode_geotiff(
            open(ref_path(f"{REF}/byte_jpg_tablesmodezero.tif"), "rb").read()
        )["bands"][0].astype(np.float64)
        assert np.corrcoef(base.ravel(), d.ravel())[0, 1] > 0.9

    def test_irregular_tiles(self):
        d = gtiff.decode_geotiff(
            open(ref_path(f"{REF}/irregular_tile_size_jpeg_in_tiff.tif"),
                 "rb").read()
        )
        assert d["bands"][0].shape == (256, 512)

    def test_unsupported_component_counts_raise(self):
        with pytest.raises(ValueError):
            gtiff.decode_geotiff(
                open(ref_path(f"{REF}/stefan_full_rgba_jpeg_contig.tif"),
                     "rb").read()
            )


class TestJpegWrite:
    """JPEG-compressed GeoTIFF/COG WRITE (round 5 — frmts/gtiff JPEG
    codec + JPEGTables writer role, tiff_write.py JPEG cases as the
    reference model): abbreviated per-strip/per-tile streams + one
    shared tables-only JPEGTables tag, read back through the engine's
    own comp==7 splice path."""

    @staticmethod
    def _smooth(h=211, w=300):
        x = np.linspace(0, 6, w)
        y = np.linspace(0, 5, h)
        g = ((np.sin(y)[:, None] * np.cos(x)[None, :]) * 100 + 120)
        g = g.astype(np.uint8)
        r = np.clip(g.astype(int) + 40, 0, 255).astype(np.uint8)
        b = np.clip(255 - g.astype(int), 0, 255).astype(np.uint8)
        return g, r, b

    @pytest.mark.parametrize("nbands", [1, 3])
    def test_strip_roundtrip(self, nbands):
        g, r, b = self._smooth()
        bands = [g] if nbands == 1 else [r, g, b]
        data = gtiff.encode_geotiff(bands, crs="EPSG:3857",
                                    compression="jpeg", jpeg_quality=90)
        d = gtiff.decode_geotiff(data)
        assert len(d["bands"]) == nbands
        for got, want in zip(d["bands"], bands):
            assert got.shape == want.shape
            mae = np.abs(got.astype(int) - want.astype(int)).mean()
            assert mae < 1.5, mae
        assert d["crs"] == "EPSG:3857"

    @pytest.mark.parametrize("nbands", [1, 3])
    def test_cog_roundtrip_with_overviews(self, nbands):
        g, r, b = self._smooth()
        bands = [g] if nbands == 1 else [r, g, b]
        data = gtiff.encode_cog(bands, crs="EPSG:3857",
                                compression="jpeg", jpeg_quality=90,
                                tile_size=64, min_overview_size=64)
        d = gtiff.decode_geotiff(data)
        for got, want in zip(d["bands"], bands):
            mae = np.abs(got.astype(int) - want.astype(int)).mean()
            assert mae < 1.5, mae
        # each overview IFD decodes (own JPEGTables tag) at half size
        d1 = gtiff.decode_geotiff(data, ifd_index=1)
        assert d1["bands"][0].shape == (106, 150)

    def test_streams_are_abbreviated_with_shared_tables(self):
        g, _, _ = self._smooth(64, 64)
        data = gtiff.encode_geotiff([g], compression="jpeg")
        # exactly ONE DQT marker in the whole file (inside JPEGTables),
        # none in the strip streams
        assert data.count(b"\xff\xdb") == 1
        assert data.count(b"\xff\xc4") == 2  # DC + AC huffman, gray
        # the strip still carries its own SOF0 + SOS
        assert data.count(b"\xff\xc0") == 1
        assert data.count(b"\xff\xda") == 1

    def test_wrong_dtype_or_band_count_raises(self):
        with pytest.raises(ValueError, match="JPEG"):
            gtiff.encode_geotiff([np.zeros((8, 8), np.uint16)],
                                 compression="jpeg")
        with pytest.raises(ValueError, match="JPEG"):
            gtiff.encode_cog([np.zeros((8, 8), np.uint8)] * 2,
                             compression="jpeg")

    def test_reference_fixture_reencode_near_checksum(self):
        """byte.tif → JPEG write → read: checksum stays inside the
        lossy band the autotest pins allow for q≈90 JPEG (the
        tiff_write JPEG cases accept a version-dependent range)."""
        base = gtiff.decode_geotiff(
            open(ref_path(f"{REF}/byte.tif"), "rb").read())
        arr = base["bands"][0].astype(np.uint8)
        data = gtiff.encode_geotiff([arr], compression="jpeg",
                                    jpeg_quality=95)
        got = gtiff.decode_geotiff(data)["bands"][0]
        assert np.corrcoef(arr.ravel().astype(float),
                           got.ravel().astype(float))[0, 1] > 0.98
        assert abs(checksum_array(got) - 4672) < 150
