"""Multimodal plumbing tests (decode stubbed, pipeline real)."""

import numpy as np
import pyarrow as pa
import pytest

from gdal_ray.stages import multimodal as mm


def test_decoder_requires_codec():
    with pytest.raises(NotImplementedError):
        mm.ImageDecoder()


def test_media_batch_size():
    assert mm.media_batch_size(1024 * 1024) == 64
    assert mm.media_batch_size(0) > 0


def test_full_pipeline_with_fake_decoder(ray_session):
    import ray.data as rd

    payloads = [bytes([i] * (10 + i)) for i in range(20)]
    t = pa.table(
        {"id": pa.array(range(20), pa.int64()),
         "media": pa.array(payloads, pa.binary())}
    )
    ds = rd.from_arrow(t)
    ds = ds.map_batches(lambda b: mm.media_meta(b, "media", "fake"),
                        batch_format="pyarrow")
    ds = ds.map_batches(
        mm.FakeImageDecoder,
        batch_format="pyarrow",
        batch_size=mm.media_batch_size(16),
        concurrency=(1, 2),
    )
    ds = ds.map_batches(mm.resize_stage, batch_format="pyarrow")
    out = ds.to_pandas()
    assert len(out) == 20
    assert out["media_meta"][0]["n_bytes"] == 10
    shp = out["pixels_shape"][0]
    assert list(shp) == [4, 4, 3]
    px = np.frombuffer(out["pixels"][0], dtype=np.uint8)
    assert px.shape == (48,)
    # determinism: same payload -> same pixels
    t2 = rd.from_arrow(t).map_batches(
        mm.FakeImageDecoder, batch_format="pyarrow", concurrency=1
    ).to_pandas()
    ds3 = rd.from_arrow(t).map_batches(
        mm.FakeImageDecoder, batch_format="pyarrow", concurrency=1
    ).to_pandas()
    assert (t2["pixels"] == ds3["pixels"]).all()


def test_png_decoder_real_roundtrip(ray_session):
    """The PNG decode path is REAL (no fake): encode tensors with the
    engine codec, run the actor-pool decode stage, get the exact
    pixels back."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from gdal_ray.raster.png import encode_png
    from gdal_ray.stages.multimodal import png_decode_stage

    rng = np.random.default_rng(8)
    imgs = [rng.integers(0, 256, (12, 9, 3), dtype=np.uint8) for _ in range(6)]
    t = pa.table(
        {
            "img_id": pa.array(np.arange(6, dtype=np.int64)),
            "media": pa.array([encode_png(im) for im in imgs], pa.binary()),
        }
    )
    out = png_decode_stage(rd.from_arrow(t)).to_pandas().sort_values("img_id")
    for i, row in out.iterrows():
        shape = tuple(row["pixels_shape"])
        got = np.frombuffer(row["pixels"], dtype=np.uint8).reshape(shape)
        assert (got == imgs[row["img_id"]]).all()


class TestWebpDecodeStage:
    def test_webp_actor_pool_decode(self, ray_session):
        """Lossless-WebP media column decodes to RGBA tensors through
        the same actor-pool plumbing (engine VP8L codec)."""
        import ray.data as rd

        from gdal_ray.raster.webp import encode_webp_lossless
        from gdal_ray.stages.multimodal import webp_decode_stage

        rng = np.random.default_rng(12)
        imgs = [rng.integers(0, 256, (5, 7, 4), dtype=np.uint8)
                for _ in range(4)]
        t = pa.table({
            "id": pa.array(range(4), pa.int64()),
            "media": pa.array([encode_webp_lossless(i) for i in imgs],
                              pa.binary()),
        })
        out = webp_decode_stage(rd.from_arrow(t)) \
            .to_pandas().sort_values("id")
        for i, row in out.iterrows():
            got = np.frombuffer(row["pixels"], np.uint8).reshape(
                row["pixels_shape"])
            assert np.array_equal(got, imgs[row["id"]])


class TestWavDecodeStage:
    def test_roundtrip_formats(self):
        from gdal_ray.stages.multimodal import decode_wav, encode_wav

        rng = np.random.default_rng(5)
        for dtype, ch in [(np.int16, 1), (np.int16, 2), (np.uint8, 1),
                          (np.int32, 2), (np.float32, 1),
                          (np.float64, 2)]:
            if np.issubdtype(dtype, np.floating):
                s = rng.standard_normal((500, ch)).astype(dtype)
            else:
                info = np.iinfo(dtype)
                s = rng.integers(info.min, info.max, (500, ch),
                                 dtype=dtype)
            out, rate = decode_wav(encode_wav(s, 16000))
            assert rate == 16000
            assert np.array_equal(out, s), (dtype, ch)

    def test_stdlib_wave_interop(self, tmp_path):
        """Our reader decodes files written by the stdlib wave module
        (an independent implementation of the same spec)."""
        import wave

        from gdal_ray.stages.multimodal import decode_wav

        rng = np.random.default_rng(6)
        s = rng.integers(-30000, 30000, (400, 2), dtype=np.int16)
        p = str(tmp_path / "t.wav")
        with wave.open(p, "wb") as w:
            w.setnchannels(2)
            w.setsampwidth(2)
            w.setframerate(44100)
            w.writeframes(s.tobytes())
        out, rate = decode_wav(open(p, "rb").read())
        assert rate == 44100 and np.array_equal(out, s)

    def test_actor_pool_stage(self, ray_session):
        import ray.data as rd

        from gdal_ray.stages.multimodal import encode_wav, wav_decode_stage

        rng = np.random.default_rng(7)
        clips = [rng.integers(-1000, 1000, (256, 1), dtype=np.int16)
                 for _ in range(3)]
        t = pa.table({
            "id": pa.array(range(3), pa.int64()),
            "media": pa.array([encode_wav(c, 8000) for c in clips],
                              pa.binary()),
        })
        out = wav_decode_stage(rd.from_arrow(t)) \
            .to_pandas().sort_values("id")
        for _, row in out.iterrows():
            got = np.frombuffer(row["samples"], np.int16).reshape(
                row["samples_shape"])
            assert np.array_equal(got, clips[row["id"]])
            assert row["sample_rate"] == 8000
            assert 0 <= row["rms"] <= row["peak"] <= 1.0

    def test_compressed_wav_is_boundary(self):
        import struct

        from gdal_ray.stages.multimodal import decode_wav

        fmt = struct.pack("<HHIIHH", 0x55, 1, 8000, 8000, 1, 0)  # MP3
        body = (b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", 4) + b"\0\0\0\0")
        blob = b"RIFF" + struct.pack("<I", len(body)) + body
        with pytest.raises(NotImplementedError):
            decode_wav(blob)


class TestVideo:
    """MJPEG-in-AVI container + frame-sampling stage
    (gdal_ray/stages/video.py)."""

    def _clip(self, n=6, w=48, h=32, fps=12.5):
        from gdal_ray.raster.jpeg import encode_jpeg
        from gdal_ray.stages.video import write_avi

        frames, orig = [], []
        for i in range(n):
            y, x = np.mgrid[0:h, 0:w]
            img = np.stack([(x * 4 + i * 10) % 256, (y * 6) % 256,
                            ((x + y) * 3) % 256], -1).astype(np.uint8)
            orig.append(img)
            frames.append(encode_jpeg(img, quality=95))
        return write_avi(frames, w, h, fps=fps), frames, orig

    def test_container_roundtrip(self):
        from gdal_ray.stages.video import parse_avi, read_avi_frames

        avi, frames, _ = self._clip()
        info = parse_avi(avi)
        assert (info.width, info.height) == (48, 32)
        assert info.fps == 12.5
        assert info.handler == "MJPG"
        assert info.n_frames == len(info.frames) == 6
        got = read_avi_frames(avi, [0, 3, 5])
        assert got == [frames[0], frames[3], frames[5]]

    def test_idx1_entries(self):
        import struct

        avi, frames, _ = self._clip(n=3)
        p = avi.find(b"idx1")
        assert p > 0
        (size,) = struct.unpack_from("<I", avi, p + 4)
        assert size == 3 * 16
        movi = avi.find(b"movi")
        off_acc = 4
        for i in range(3):
            ckid, flags, off, sz = struct.unpack_from(
                "<4sIII", avi, p + 8 + 16 * i)
            assert ckid == b"00dc" and flags == 0x10
            assert sz == len(frames[i])
            # offset from 'movi' fourcc must land on the chunk header
            assert avi[movi + off : movi + off + 4] == b"00dc"
            off_acc += 8 + sz + (sz & 1)

    def test_decode_parity_with_original(self):
        from gdal_ray.raster.jpeg import decode_jpeg
        from gdal_ray.stages.video import read_avi_frames

        avi, _, orig = self._clip()
        for i, jp in zip([0, 5], read_avi_frames(avi, [0, 5])):
            dec = decode_jpeg(jp)
            assert np.abs(dec.astype(int) - orig[i].astype(int)).max() <= 4

    def test_sampler_stage(self, ray_session):
        import ray.data as rd

        from gdal_ray.stages.video import video_sample_stage

        avi, _, _ = self._clip(n=10)
        avi2, _, _ = self._clip(n=2)
        ds = rd.from_arrow(pa.table({
            "vid_id": pa.array([1, 2], pa.int64()),
            "media": pa.array([avi, avi2], pa.binary()),
        }))
        out = video_sample_stage(ds, k=4).to_pandas().sort_values("vid_id")
        assert list(out["frames_shape"].iloc[0]) == [4, 32, 48, 3]
        assert list(out["frames_shape"].iloc[1]) == [2, 32, 48, 3]
        assert list(out["frame_idx"].iloc[0]) == [0, 3, 6, 9]
        assert list(out["frame_idx"].iloc[1]) == [0, 1]
        assert out["n_frames"].tolist() == [10, 2]
        assert out["fps"].tolist() == [12.5, 12.5]
        raw = out["frames"].iloc[0]
        assert len(raw) == 4 * 32 * 48 * 3

    def test_non_mjpg_boundary(self):
        import struct

        from gdal_ray.stages.video import read_avi_frames

        avi, _, _ = self._clip(n=2)
        bad = avi.replace(b"vidsMJPG", b"vidscvid", 1)
        with pytest.raises(NotImplementedError):
            read_avi_frames(bad, [0])


class TestAudioFeatures:
    """Spectral features with closed-form sine-wave oracles."""

    def _sine(self, freq, sr=16000, secs=1.0):
        import numpy as np

        t = np.arange(int(sr * secs)) / sr
        return np.sin(2 * np.pi * freq * t).astype(np.float32), sr

    def test_sine_closed_forms(self):
        import numpy as np

        from gdal_ray.stages.multimodal import audio_features

        x, sr = self._sine(440.0)
        f = audio_features(x, sr)
        assert abs(f["duration_s"] - 1.0) < 1e-9
        assert abs(f["rms"] - 1 / np.sqrt(2)) < 1e-3
        assert abs(f["zcr_hz"] - 2 * 440.0) < 5.0
        assert abs(f["spectral_centroid_hz"] - 440.0) < 5.0
        # a higher tone moves every spectral feature up
        f2 = audio_features(*self._sine(2000.0))
        assert f2["spectral_centroid_hz"] > 4 * f["spectral_centroid_hz"] / 5 + 1000
        assert f2["rolloff85_hz"] > f["rolloff85_hz"]

    def test_silence_and_empty(self):
        import numpy as np

        from gdal_ray.stages.multimodal import audio_features

        f = audio_features(np.zeros(1000), 8000)
        assert f["rms"] == 0.0 and f["spectral_centroid_hz"] == 0.0
        f0 = audio_features(np.zeros(0), 8000)
        assert f0["duration_s"] == 0.0

    def test_stage_over_dataset(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from gdal_ray.stages.multimodal import (
            AudioFeatureExtractor,
            encode_wav,
        )

        clips = []
        for freq in (220.0, 880.0):
            x, sr = self._sine(freq)
            clips.append(encode_wav((x * 32767).astype(np.int16), sr))
        clips.append(b"not a wav")
        t = pa.table({"clip_id": pa.array([1, 2, 3], pa.int64()),
                      "media": pa.array(clips, pa.binary())})
        out = rd.from_arrow(t).map_batches(
            AudioFeatureExtractor(), batch_format="pyarrow").to_pandas()
        out = out.set_index("clip_id")
        assert abs(out.loc[1, "zcr_hz"] - 440.0) < 5
        assert abs(out.loc[2, "zcr_hz"] - 1760.0) < 10
        assert out.loc[3, ["rms"]].isna().all()  # bad payload -> nulls


class TestImageFeatures:
    """image_features closed forms + the decoded-column stage."""

    def test_closed_forms(self):
        import numpy as np

        from gdal_ray.stages.multimodal import image_features

        flat = np.full((8, 8), 100, np.uint8)
        f = image_features(flat)
        assert f["img_std"] == 0.0 and f["edge_density"] == 0.0
        assert abs(f["entropy_bits"]) < 1e-12
        cb = (np.indices((8, 8)).sum(0) % 2 * 255).astype(np.uint8)
        f2 = image_features(cb)
        assert f2["edge_density"] == 1.0      # every neighbor flips
        assert abs(f2["entropy_bits"] - 1.0) < 1e-12  # two equal bins
        wide = np.zeros((4, 16), np.uint8)
        assert image_features(wide)["aspect"] == 4.0

    def test_stage_after_png_decode(self, ray_session):
        import numpy as np
        import pyarrow as pa
        import ray.data as rd

        from gdal_ray.raster import png as pngmod
        from gdal_ray.stages.multimodal import (
            ImageFeatureExtractor,
            PngImageDecoder,
        )

        flat = np.full((8, 8, 3), 7, np.uint8)
        rng = np.random.default_rng(2)
        noisy = rng.integers(0, 256, (8, 8, 3), dtype=np.uint8)
        t = pa.table({
            "img_id": pa.array([1, 2], pa.int64()),
            "media": pa.array([pngmod.encode_png(flat),
                               pngmod.encode_png(noisy)], pa.binary()),
        })
        out = rd.from_arrow(t) \
            .map_batches(PngImageDecoder(), batch_format="pyarrow") \
            .map_batches(ImageFeatureExtractor(),
                         batch_format="pyarrow").to_pandas() \
            .set_index("img_id")
        assert out.loc[1, "img_std"] == 0.0
        assert out.loc[2, "entropy_bits"] > 5.0  # near-uniform noise


class TestCompressedAudio:
    """Round-5 boundary close: G.711 A-law/µ-law (audioop oracle,
    exact) and IMA/DVI ADPCM (spec forward-coder synthesis)."""

    def _wav(self, fmt_code, channels, rate, bits, data, extra=b"",
             block_align=None):
        import struct

        ba = block_align if block_align else channels * bits // 8
        fmt = struct.pack("<HHIIHH", fmt_code, channels, rate, 0, ba,
                          bits) + extra
        return (b"RIFF" + struct.pack("<I", 36 + len(data)) + b"WAVE"
                + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                + b"data" + struct.pack("<I", len(data)) + data)

    def test_g711_luts_vs_audioop(self):
        audioop = pytest.importorskip("audioop")
        from gdal_ray.stages.multimodal import _ALAW_LUT, _ULAW_LUT

        allb = bytes(range(256))
        assert (np.frombuffer(audioop.ulaw2lin(allb, 2), "<i2")
                == _ULAW_LUT).all()
        assert (np.frombuffer(audioop.alaw2lin(allb, 2), "<i2")
                == _ALAW_LUT).all()

    def test_g711_wav_decode(self):
        audioop = pytest.importorskip("audioop")
        from gdal_ray.stages.multimodal import decode_wav

        pcm = (np.sin(np.linspace(0, 20, 400)) * 20000).astype("<i2")
        for code, enc_fn, dec_fn in (
                (7, audioop.lin2ulaw, audioop.ulaw2lin),
                (6, audioop.lin2alaw, audioop.alaw2lin)):
            enc = enc_fn(pcm.tobytes(), 2)
            arr, rate = decode_wav(self._wav(code, 1, 8000, 8, enc))
            assert rate == 8000
            assert (arr[:, 0] == np.frombuffer(dec_fn(enc, 2),
                                               "<i2")).all()

    @staticmethod
    def _ima_encode(samples):
        from gdal_ray.stages.multimodal import _IMA_INDEX, _IMA_STEPS

        pred, index, nibbles = int(samples[0]), 0, []
        for s in samples[1:]:
            step = int(_IMA_STEPS[index])
            diff = int(s) - pred
            nib = 0
            if diff < 0:
                nib, diff = 8, -diff
            if diff >= step:
                nib |= 4
                diff -= step
            if diff >= step >> 1:
                nib |= 2
                diff -= step >> 1
            if diff >= step >> 2:
                nib |= 1
            d = step >> 3
            if nib & 1:
                d += step >> 2
            if nib & 2:
                d += step >> 1
            if nib & 4:
                d += step
            pred = pred - d if nib & 8 else pred + d
            pred = max(-32768, min(32767, pred))
            index = max(0, min(88, index + int(_IMA_INDEX[nib & 7])))
            nibbles.append(nib)
        return nibbles

    @staticmethod
    def _pack(nibs):
        out = bytearray()
        for i in range(0, len(nibs), 2):
            out.append(nibs[i]
                       | ((nibs[i + 1] if i + 1 < len(nibs) else 0)
                          << 4))
        return bytes(out)

    def test_ima_adpcm_mono(self):
        import struct

        from gdal_ray.stages.multimodal import decode_wav

        samples = (np.sin(np.linspace(0, 4 * np.pi, 2021))
                   * 8000).astype(np.int16)
        block = struct.pack("<hBB", int(samples[0]), 0, 0) \
            + self._pack(self._ima_encode(samples))
        w = self._wav(0x11, 1, 8000, 4, block,
                      extra=struct.pack("<HH", 2, 2021),
                      block_align=len(block))
        arr, rate = decode_wav(w)
        assert rate == 8000 and arr.shape[1] == 1
        err = np.abs(arr[:, 0].astype(int)
                     - samples[:len(arr)].astype(int))
        assert arr[0, 0] == samples[0]  # header predictor verbatim
        assert err.max() < 200  # ADPCM tracking error bound

    def test_ima_adpcm_stereo_interleave(self):
        import struct

        from gdal_ray.stages.multimodal import decode_wav

        s = (np.sin(np.linspace(0, 4 * np.pi, 2021))
             * 8000).astype(np.int16)
        pl = self._pack(self._ima_encode(s))
        pr = self._pack(self._ima_encode((-s).astype(np.int16)))
        body = bytearray()
        for g in range(0, min(len(pl), len(pr)) // 4 * 4, 4):
            body += pl[g:g + 4]
            body += pr[g:g + 4]
        block = (struct.pack("<hBB", int(s[0]), 0, 0)
                 + struct.pack("<hBB", int(-s[0]), 0, 0) + bytes(body))
        arr, _ = decode_wav(self._wav(0x11, 2, 8000, 4, block,
                                      block_align=len(block)))
        assert arr.shape[1] == 2
        n = len(arr)
        assert np.abs(arr[:, 0].astype(int)
                      - s[:n].astype(int)).max() < 200
        assert np.abs(arr[:, 1].astype(int)
                      + s[:n].astype(int)).max() < 200

    def test_mp3_still_boundary(self):
        from gdal_ray.stages.multimodal import decode_wav

        with pytest.raises(NotImplementedError):
            decode_wav(self._wav(0x55, 1, 44100, 0, b"\x00" * 64))


class TestMSADPCM:
    """Microsoft ADPCM (format 2): spec forward-coder synthesis
    through decode_wav."""

    def test_ms_adpcm_mono(self):
        import struct

        from gdal_ray.stages.multimodal import (
            _MS_ADAPT,
            _MS_COEFS,
            decode_wav,
        )

        def encode(samples, block_samples):
            out = b""
            i = 0
            while i < len(samples):
                blk = samples[i:i + block_samples]
                if len(blk) < 3:
                    break
                pred, delta = 0, 16
                s2, s1 = int(blk[0]), int(blk[1])
                hdr = struct.pack("<Bhhh", pred, delta, s1, s2)
                nibbles = []
                prev1, prev2, d = s1, s2, delta
                c1, c2 = _MS_COEFS[pred]
                for s in blk[2:]:
                    p = (prev1 * c1 + prev2 * c2) >> 8
                    code = max(-8, min(7, int(round((int(s) - p)
                                                    / d))))
                    nib = code & 0x0F
                    samp = max(-32768, min(32767, p + d * code))
                    prev2, prev1 = prev1, samp
                    d = max(16, (_MS_ADAPT[nib] * d) >> 8)
                    nibbles.append(nib)
                packed = bytearray()
                for k in range(0, len(nibbles) - 1, 2):
                    packed.append((nibbles[k] << 4) | nibbles[k + 1])
                if len(nibbles) % 2:
                    packed.append(nibbles[-1] << 4)
                out += hdr + bytes(packed)
                i += block_samples
            return out, 7 + (block_samples - 2 + 1) // 2

        samples = (np.sin(np.linspace(0, 4 * np.pi, 1026))
                   * 8000).astype(np.int16)
        enc, ba = encode(samples, 514)
        fmt = struct.pack("<HHIIHH", 2, 1, 8000, 0, ba, 4) \
            + struct.pack("<HH", 32, 514)
        wav = (b"RIFF" + struct.pack("<I", 36 + len(enc)) + b"WAVE"
               + b"fmt " + struct.pack("<I", len(fmt)) + fmt
               + b"data" + struct.pack("<I", len(enc)) + enc)
        arr, rate = decode_wav(wav)
        assert rate == 8000
        err = np.abs(arr[:, 0].astype(int)
                     - samples[:len(arr)].astype(int))
        assert err.max() < 64  # coder quantization bound
        # the two stored header samples decode verbatim
        assert arr[0, 0] == samples[0] and arr[1, 0] == samples[1]
