"""Minimal 8-bit PNG and binary PGM/PPM codecs.

Only what the package needs: 8-bit grayscale or RGB, no interlacing, no
palette, no alpha. Written files use scanline filter 0 and a fixed zlib
level, so identical pixel data always produces identical bytes.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"
_ZLIB_LEVEL = 6
# largest pixel count a header may declare (8192 x 8192), checked before
# any pixel data is inflated or allocated
MAX_PIXELS = 1 << 26


class ImageFormatError(ValueError):
    pass


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (struct.pack(">I", len(payload)) + tag + payload
            + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF))


def write_png(path: str, pixels: np.ndarray) -> None:
    """pixels: uint8 array [H, W] or [H, W, C] with C in {1, 3}."""
    arr = np.asarray(pixels, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    if c not in (1, 3):
        raise ImageFormatError(f"write_png: {c} channels unsupported")
    color_type = 0 if c == 1 else 2
    ihdr = struct.pack(">IIBBBBB", w, h, 8, color_type, 0, 0, 0)
    raw = bytearray()
    for row in arr:
        raw.append(0)  # filter: none
        raw.extend(row.tobytes())
    idat = zlib.compress(bytes(raw), _ZLIB_LEVEL)
    with open(path, "wb") as fh:
        fh.write(_PNG_SIG)
        fh.write(_chunk(b"IHDR", ihdr))
        fh.write(_chunk(b"IDAT", idat))
        fh.write(_chunk(b"IEND", b""))


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    if pb <= pc:
        return b
    return c


def _unfilter(raw: bytes, h: int, w: int, c: int) -> np.ndarray:
    stride = w * c
    out = np.zeros((h, stride), dtype=np.uint8)
    pos = 0
    prev = np.zeros(stride, dtype=np.uint8)
    for y in range(h):
        ftype = raw[pos]
        pos += 1
        line = np.frombuffer(raw[pos:pos + stride], dtype=np.uint8).copy()
        pos += stride
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub
            for i in range(c, stride):
                line[i] = (int(line[i]) + int(line[i - c])) & 0xFF
        elif ftype == 2:  # Up
            line = (line.astype(np.int16) + prev).astype(np.uint8)
        elif ftype == 3:  # Average
            for i in range(stride):
                left = int(line[i - c]) if i >= c else 0
                line[i] = (int(line[i]) + (left + int(prev[i])) // 2) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(stride):
                left = int(line[i - c]) if i >= c else 0
                ul = int(prev[i - c]) if i >= c else 0
                line[i] = (int(line[i])
                           + _paeth(left, int(prev[i]), ul)) & 0xFF
        else:
            raise ImageFormatError(f"PNG: unknown filter type {ftype}")
        out[y] = line
        prev = out[y]
    return out.reshape(h, w, c)


def _check_extent(path: str, width: int, height: int) -> None:
    if width < 1 or height < 1:
        raise ImageFormatError(
            f"{path}: image extent {width}x{height} (need at least 1x1)")
    if width * height > MAX_PIXELS:
        raise ImageFormatError(
            f"{path}: image extent {width}x{height} is above the limit of "
            f"MAX_PIXELS={MAX_PIXELS} pixels")


def read_png(path: str) -> np.ndarray:
    """Returns a uint8 array [H, W, C], C in {1, 3}."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != _PNG_SIG:
        raise ImageFormatError(f"{path}: not a PNG file")
    pos = 8
    width = height = None
    color_type = bit_depth = None
    idat = bytearray()
    while pos < len(blob):
        if pos + 8 > len(blob):
            raise ImageFormatError(f"{path}: truncated PNG chunk header")
        length = struct.unpack(">I", blob[pos:pos + 4])[0]
        tag = blob[pos + 4:pos + 8]
        payload = blob[pos + 8:pos + 8 + length]
        if len(payload) != length:
            raise ImageFormatError(f"{path}: truncated PNG chunk {tag!r}")
        pos += 12 + length
        if tag == b"IHDR":
            if length != 13:
                raise ImageFormatError(
                    f"{path}: IHDR payload is {length} bytes (need 13)")
            (width, height, bit_depth, color_type, comp, filt,
             interlace) = struct.unpack(">IIBBBBB", payload)
            _check_extent(path, width, height)
            if bit_depth != 8:
                raise ImageFormatError(
                    f"{path}: bit depth {bit_depth} unsupported (need 8)")
            if color_type not in (0, 2):
                raise ImageFormatError(
                    f"{path}: color type {color_type} unsupported "
                    "(need grayscale or RGB)")
            if interlace != 0:
                raise ImageFormatError(f"{path}: interlaced PNG unsupported")
        elif tag == b"IDAT":
            idat.extend(payload)
        elif tag == b"IEND":
            break
    if width is None:
        raise ImageFormatError(f"{path}: missing IHDR")
    channels = 1 if color_type == 0 else 3
    expected = height * (width * channels + 1)
    # inflate at most one byte past what the IHDR promises, so a stream
    # that inflates to far more is rejected without allocating it
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(bytes(idat), expected + 1)
    except zlib.error as exc:
        raise ImageFormatError(f"{path}: corrupt IDAT stream: {exc}") from exc
    if len(raw) != expected:
        raise ImageFormatError(
            f"{path}: PNG payload size {len(raw)} != expected {expected}")
    if not inflater.eof:
        raise ImageFormatError(f"{path}: truncated IDAT stream")
    return _unfilter(raw, height, width, channels)


# ---------------------------------------------------------------------------
# binary PGM (P5) / PPM (P6), max-val 255
# ---------------------------------------------------------------------------

def write_pnm(path: str, pixels: np.ndarray) -> None:
    arr = np.asarray(pixels, dtype=np.uint8)
    if arr.ndim == 2:
        arr = arr[:, :, None]
    h, w, c = arr.shape
    if c == 1:
        header = f"P5\n{w} {h}\n255\n".encode("ascii")
    elif c == 3:
        header = f"P6\n{w} {h}\n255\n".encode("ascii")
    else:
        raise ImageFormatError(f"write_pnm: {c} channels unsupported")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(arr.tobytes())


def read_pnm(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:2] not in (b"P5", b"P6"):
        raise ImageFormatError(f"{path}: not a binary PGM/PPM file")
    channels = 1 if blob[:2] == b"P5" else 3
    # header: magic, width, height, maxval as whitespace-separated tokens,
    # with '#' comments allowed
    tokens = []
    pos = 2
    while len(tokens) < 3:
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos:pos + 1] == b"#":
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError(f"{path}: malformed PNM header")
        tokens.append(blob[start:pos])
    pos += 1  # single whitespace after maxval
    try:
        w, h, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ImageFormatError(f"{path}: non-numeric PNM header") from exc
    if maxval != 255:
        raise ImageFormatError(
            f"{path}: max-val {maxval} unsupported (need 255)")
    _check_extent(path, w, h)
    data = blob[pos:pos + h * w * channels]
    if len(data) != h * w * channels:
        raise ImageFormatError(f"{path}: truncated PNM payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w, channels).copy()
