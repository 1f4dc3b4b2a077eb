"""Minimal PNG and raw-float file I/O.

PNG support covers what the pipeline needs without an imaging dependency:
writing 8-bit RGB and 16-bit grayscale, reading non-interlaced 8/16-bit
gray/RGB(A) images with any scanline filter. The raw float format is a
one-line ASCII header "width height channels" followed by the planes as
little-endian float32.
"""

from __future__ import annotations

import struct
import sys
import zlib
from pathlib import Path
from typing import Union

import numpy as np

__all__ = ["load_image", "read_f32", "read_png", "save_image", "write_f32",
           "write_png"]

_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(kind: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + kind + payload
            + struct.pack(">I", zlib.crc32(kind + payload) & 0xFFFFFFFF))


def write_png(path: Union[str, Path], arr: np.ndarray) -> None:
    """Write uint8 gray/RGB (H,W) or (H,W,3), or uint16 gray (H,W)."""
    arr = np.asarray(arr)
    if arr.dtype == np.uint8 and arr.ndim == 3 and arr.shape[2] == 3:
        color, depth = 2, 8
    elif arr.dtype == np.uint8 and arr.ndim == 2:
        color, depth = 0, 8
    elif arr.dtype == np.uint16 and arr.ndim == 2:
        color, depth = 0, 16
    else:
        raise ValueError(
            f"unsupported array for png: shape {arr.shape} dtype {arr.dtype}")
    h, w = arr.shape[:2]
    raw = arr.astype(">u2") if depth == 16 else arr
    rows = raw.reshape(h, -1).view(np.uint8).reshape(h, -1)
    scanlines = b"".join(b"\x00" + rows[i].tobytes() for i in range(h))
    ihdr = struct.pack(">IIBBBBB", w, h, depth, color, 0, 0, 0)
    payload = (_SIGNATURE + _chunk(b"IHDR", ihdr)
               + _chunk(b"IDAT", zlib.compress(scanlines, 6))
               + _chunk(b"IEND", b""))
    Path(path).write_bytes(payload)


def _unfilter(data: np.ndarray, h: int, stride: int, bpp: int) -> np.ndarray:
    rows = data.reshape(h, stride + 1)
    filters = rows[:, 0]
    out = rows[:, 1:].astype(np.int64)
    prev = np.zeros(stride, dtype=np.int64)
    for y in range(h):
        f, row = filters[y], out[y]
        if f == 1:      # Sub: cumulative per byte lane
            for lane in range(bpp):
                row[lane::bpp] = np.cumsum(row[lane::bpp]) % 256
        elif f == 2:    # Up
            row += prev
            row %= 256
        elif f == 3:    # Average, byte by byte on Python ints
            # bpp zeros in front stand for the bytes left of the row
            cur, up = [0] * bpp + row.tolist(), [0] * bpp + prev.tolist()
            for x in range(bpp, stride + bpp):
                cur[x] = (cur[x] + ((cur[x - bpp] + up[x]) >> 1)) & 255
            row[:] = cur[bpp:]
        elif f == 4:    # Paeth, likewise
            cur, up = [0] * bpp + row.tolist(), [0] * bpp + prev.tolist()
            for x in range(bpp, stride + bpp):
                a, b, c = cur[x - bpp], up[x], up[x - bpp]
                pa, pb, pc = abs(b - c), abs(a - c), abs(a + b - c - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                cur[x] = (cur[x] + pred) & 255
            row[:] = cur[bpp:]
        elif f != 0:
            raise ValueError(f"unknown png filter {f} on row {y}")
        prev = row
    return out.astype(np.uint8)


def read_png(path: Union[str, Path]) -> np.ndarray:
    """Read a PNG into (H, W, C) uint8 or uint16 (alpha dropped).

    Every chunk's CRC is checked. A truncated, corrupt or inconsistent file
    raises ``ValueError`` naming the path.
    """
    blob = Path(path).read_bytes()
    if blob[:8] != _SIGNATURE:
        raise ValueError(f"{path}: not a png file")
    pos, idat, ihdr = 8, [], None
    while True:
        if pos + 12 > len(blob):
            raise ValueError(f"{path}: truncated before the IEND chunk")
        (length,) = struct.unpack_from(">I", blob, pos)
        end = pos + 8 + length
        if end + 4 > len(blob):
            raise ValueError(f"{path}: chunk at byte {pos} runs past the end of the file")
        kind, payload = blob[pos + 4:pos + 8], blob[pos + 8:end]
        if zlib.crc32(blob[pos + 4:end]) != struct.unpack_from(">I", blob, end)[0]:
            raise ValueError(f"{path}: CRC mismatch in the {kind!r} chunk at byte {pos}")
        pos = end + 4
        if kind == b"IHDR":
            if length != 13:
                raise ValueError(f"{path}: IHDR holds {length} bytes, expected 13")
            ihdr = struct.unpack(">IIBBBBB", payload)
        elif kind == b"IDAT":
            idat.append(payload)
        elif kind == b"IEND":
            break
    if ihdr is None:
        raise ValueError(f"{path}: missing IHDR")
    w, h, depth, color, compression, filtering, interlace = ihdr
    if w == 0 or h == 0:
        raise ValueError(f"{path}: empty image {w}x{h}")
    if compression or filtering:
        raise ValueError(f"{path}: unknown compression {compression} / filter method {filtering}")
    if interlace:
        raise ValueError(f"{path}: interlaced png is not supported")
    channels = {0: 1, 2: 3, 4: 2, 6: 4}.get(color)
    if channels is None or depth not in (8, 16):
        raise ValueError(f"{path}: unsupported color type {color} / depth {depth}")
    bpp = channels * depth // 8
    stride = w * bpp
    expected = h * (stride + 1)
    inflater = zlib.decompressobj()
    try:
        # one byte past the expected size shows excess data without inflating it all
        raw = inflater.decompress(b"".join(idat), min(expected + 1, sys.maxsize))
    except zlib.error as exc:
        raise ValueError(f"{path}: corrupt image data ({exc})") from None
    if len(raw) != expected or not inflater.eof:
        raise ValueError(f"{path}: image data does not match its {w}x{h} header")
    try:
        pixels = _unfilter(np.frombuffer(raw, dtype=np.uint8).copy(), h, stride, bpp)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if depth == 16:
        img = pixels.reshape(h, w * channels, 2).astype(np.uint16)
        img = (img[:, :, 0] << 8) | img[:, :, 1]
        img = img.reshape(h, w, channels)
    else:
        img = pixels.reshape(h, w, channels)
    if color == 4:
        img = img[:, :, :1]
    elif color == 6:
        img = img[:, :, :3]
    return img


def save_image(path: Union[str, Path], img: np.ndarray) -> None:
    """Quantize a float (3, H, W) or (H, W, 3) image in [0, 1] to 8-bit png."""
    img = np.asarray(img)
    if img.ndim == 3 and img.shape[0] == 3:
        img = img.transpose(1, 2, 0)
    write_png(path, (np.clip(img, 0.0, 1.0) * 255.0).round().astype(np.uint8))


def load_image(path: Union[str, Path]) -> np.ndarray:
    """Read a PNG as float64 (3, H, W) in [0, 1]; grayscale is replicated."""
    img = read_png(path)
    scale = 65535.0 if img.dtype == np.uint16 else 255.0
    img = img.astype(np.float64) / scale
    if img.shape[2] == 1:
        img = np.repeat(img, 3, axis=2)
    return img.transpose(2, 0, 1)


def write_f32(path: Union[str, Path], arr: np.ndarray) -> None:
    """Write (H, W) or (C, H, W) float data as header + planar f32 LE."""
    arr = np.asarray(arr, dtype=np.float32)
    if arr.ndim == 2:
        arr = arr[None]
    c, h, w = arr.shape
    with open(path, "wb") as fh:
        fh.write(f"{w} {h} {c}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def read_f32(path: Union[str, Path]) -> np.ndarray:
    """Read the planar float format back as (C, H, W) float32.

    The header must be exactly "width height channels" in positive decimal
    integers; any other header or a data size that does not match it raises
    ``ValueError`` naming the path.
    """
    blob = Path(path).read_bytes()
    nl = blob.find(b"\n")
    header = blob[:max(nl, 0)]
    dims = [int(f) for f in header.split(b" ") if f.isdigit()]
    if len(dims) != 3 or b"%d %d %d" % tuple(dims) != header or 0 in dims:
        raise ValueError(f"{path}: header {header[:40]!r} is not 'width height channels'")
    w, h, c = dims
    data = blob[nl + 1:]
    if len(data) != 4 * w * h * c:
        raise ValueError(f"{path}: expected {w * h * c} floats, found {len(data) / 4:g}")
    return np.frombuffer(data, dtype="<f4").reshape(c, h, w).astype(np.float32)
