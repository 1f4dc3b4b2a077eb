import struct
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from litedepth.pngio import (
    load_image, read_f32, read_png, save_image, write_f32, write_png,
)

# malformed files are rebuilt in pytest's tmp_path for every example; the
# rest of the settings come from conftest.py's profile
fuzz = settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
PNG_KINDS = {"rgb8": ((3,), np.uint8), "gray8": ((), np.uint8), "gray16": ((), np.uint16)}


def png_blob(tmp_path, kind, h, w, seed):
    """The bytes write_png produces for a random image of the given kind."""
    channels, dtype = PNG_KINDS[kind]
    img = np.random.default_rng(seed).integers(0, np.iinfo(dtype).max, (h, w) + channels,
                                               dtype=dtype, endpoint=True)
    write_png(tmp_path / "src.png", img)
    return (tmp_path / "src.png").read_bytes()


png_files = st.tuples(st.sampled_from(sorted(PNG_KINDS)),
                    st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 16))


def rejects(reader, path, blob):
    """reader(path) on blob raises ValueError and names the path."""
    path.write_bytes(blob)
    with pytest.raises(ValueError) as err:
        reader(path)
    assert str(path) in str(err.value)


class TestPng:
    def test_rgb8_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(20, 30, 3), dtype=np.uint8)
        p = tmp_path / "x.png"
        write_png(p, img)
        np.testing.assert_array_equal(read_png(p), img)

    def test_gray16_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 65536, size=(12, 17), dtype=np.uint16)
        p = tmp_path / "d.png"
        write_png(p, img)
        back = read_png(p)
        assert back.dtype == np.uint16
        np.testing.assert_array_equal(back[:, :, 0], img)

    def test_gray8_roundtrip(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(8, 9), dtype=np.uint8)
        p = tmp_path / "g.png"
        write_png(p, img)
        np.testing.assert_array_equal(read_png(p)[:, :, 0], img)

    def test_float_save_load(self, tmp_path, rng):
        img = rng.random((3, 10, 14))
        p = tmp_path / "f.png"
        save_image(p, img)
        back = load_image(p)
        assert back.shape == (3, 10, 14)
        assert np.abs(back - img).max() <= 0.5 / 255.0 + 1e-9

    def test_all_filter_types_decode(self, tmp_path, rng):
        # hand-build a png using each filter type once
        import struct
        import zlib
        from litedepth.pngio import _SIGNATURE, _chunk
        w, h, bpp = 6, 5, 3
        img = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        rows = []
        prev = np.zeros(w * bpp, dtype=np.int64)
        flat = img.reshape(h, w * bpp).astype(np.int64)
        for y, f in enumerate((0, 1, 2, 3, 4)):
            cur = flat[y]
            if f == 0:
                enc = cur
            elif f == 1:
                left = np.concatenate([np.zeros(bpp, np.int64), cur[:-bpp]])
                enc = (cur - left) % 256
            elif f == 2:
                enc = (cur - prev) % 256
            elif f == 3:
                left = np.concatenate([np.zeros(bpp, np.int64), cur[:-bpp]])
                enc = (cur - (left + prev) // 2) % 256
            else:
                enc = np.zeros_like(cur)
                for x in range(w * bpp):
                    a = cur[x - bpp] if x >= bpp else 0
                    b = prev[x]
                    c = prev[x - bpp] if x >= bpp else 0
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                    enc[x] = (cur[x] - pred) % 256
            rows.append(bytes([f]) + bytes(enc.astype(np.uint8)))
            prev = cur
        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        blob = (_SIGNATURE + _chunk(b"IHDR", ihdr)
                + _chunk(b"IDAT", zlib.compress(b"".join(rows)))
                + _chunk(b"IEND", b""))
        p = tmp_path / "filters.png"
        p.write_bytes(blob)
        np.testing.assert_array_equal(read_png(p), img)

    def test_not_a_png_rejected(self, tmp_path):
        p = tmp_path / "bad.png"
        p.write_bytes(b"definitely not a png")
        with pytest.raises(ValueError, match="not a png"):
            read_png(p)


class TestMalformedPng:
    """Every truncation, flipped byte or forged size raises ValueError with the
    path; nothing from struct or zlib escapes."""

    @fuzz
    @given(png_files, st.data())
    def test_truncation(self, tmp_path, spec, data):
        blob = png_blob(tmp_path, *spec)
        cut = data.draw(st.integers(0, len(blob) - 1))
        rejects(read_png, tmp_path / "cut.png", blob[:cut])

    @fuzz
    @given(png_files, st.data())
    def test_flipped_byte(self, tmp_path, spec, data):
        blob = bytearray(png_blob(tmp_path, *spec))
        at = data.draw(st.integers(0, len(blob) - 1))
        blob[at] ^= data.draw(st.integers(1, 255))
        rejects(read_png, tmp_path / "flip.png", bytes(blob))

    @fuzz
    @given(png_files, st.integers(0, 2 ** 32 - 1), st.integers(0, 2 ** 32 - 1))
    def test_forged_dimensions(self, tmp_path, spec, w, h):
        kind, true_h, true_w, _ = spec
        bpp = {"rgb8": 3, "gray8": 1, "gray16": 2}[kind]
        # sizes that inflate to the same byte count decode as another image
        assume(h * (w * bpp + 1) != true_h * (true_w * bpp + 1))
        blob = png_blob(tmp_path, *spec)
        ihdr = struct.pack(">II", w, h) + blob[24:29]      # keep depth, color, methods
        forged = (blob[:16] + ihdr + struct.pack(">I", zlib.crc32(b"IHDR" + ihdr))
                  + blob[33:])
        rejects(read_png, tmp_path / "forged.png", forged)

    def test_missing_iend(self, tmp_path):
        blob = png_blob(tmp_path, "rgb8", 4, 5, 0)
        rejects(read_png, tmp_path / "noend.png", blob[:-12])


class TestRawF32:
    def test_roundtrip_with_header(self, tmp_path, rng):
        arr = rng.standard_normal((2, 6, 9)).astype(np.float32)
        p = tmp_path / "x.f32"
        write_f32(p, arr)
        header = p.read_bytes().split(b"\n")[0]
        assert header == b"9 6 2"
        np.testing.assert_array_equal(read_f32(p), arr)

    def test_single_plane_from_2d(self, tmp_path, rng):
        arr = rng.standard_normal((4, 5)).astype(np.float32)
        p = tmp_path / "d.f32"
        write_f32(p, arr)
        back = read_f32(p)
        assert back.shape == (1, 4, 5)
        np.testing.assert_array_equal(back[0], arr)

    def test_truncated_rejected(self, tmp_path):
        p = tmp_path / "t.f32"
        p.write_bytes(b"4 4 1\n" + b"\x00" * 8)
        with pytest.raises(ValueError, match="expected"):
            read_f32(p)


def f32_blob(tmp_path, c, h, w, seed):
    arr = np.random.default_rng(seed).standard_normal((c, h, w)).astype(np.float32)
    write_f32(tmp_path / "src.f32", arr)
    return (tmp_path / "src.f32").read_bytes()


f32_files = st.tuples(st.integers(1, 3), st.integers(1, 5),
                    st.integers(1, 5), st.integers(0, 2 ** 16))


class TestMalformedF32:
    @fuzz
    @given(f32_files, st.data())
    def test_truncation(self, tmp_path, spec, data):
        blob = f32_blob(tmp_path, *spec)
        cut = data.draw(st.integers(0, len(blob) - 1))
        rejects(read_f32, tmp_path / "cut.f32", blob[:cut])

    @fuzz
    @given(f32_files, st.data())
    def test_flipped_header_byte(self, tmp_path, spec, data):
        # the planes carry no checksum, so only header bytes (and the
        # newline ending it) can be checked
        blob = bytearray(f32_blob(tmp_path, *spec))
        at = data.draw(st.integers(0, blob.index(b"\n")))
        blob[at] ^= data.draw(st.integers(1, 255))
        rejects(read_f32, tmp_path / "flip.f32", bytes(blob))

    @fuzz
    @given(f32_files, st.lists(st.integers(0, 2 ** 40), min_size=3, max_size=3))
    def test_forged_dimensions(self, tmp_path, spec, dims):
        c, h, w, _ = spec
        assume(dims[0] * dims[1] * dims[2] != c * h * w)
        blob = f32_blob(tmp_path, *spec)
        body = blob[blob.index(b"\n"):]
        rejects(read_f32, tmp_path / "forged.f32", b"%d %d %d" % tuple(dims) + body)

    @pytest.mark.parametrize("header", [b"4 4\n", b"4 4 1 1\n", b"04 4 1\n", b"4\t4 1\n",
                                        b"+4 4 1\n", b"4 0 1\n", b"4 4 x\n", b"4 4 1"])
    def test_bad_headers(self, tmp_path, header):
        rejects(read_f32, tmp_path / "h.f32", header + b"\x00" * 64)
