"""Bit-packed sign tensors and XNOR/popcount arithmetic kernels.

Sign values are stored one bit per element inside 64-bit words: bit 1
encodes +1, bit 0 encodes -1, element index i occupies bit (i mod 64) of
word (i div 64), little-endian within the word. Padding bits past the
logical length are always zero so whole-word popcounts stay correct after
masking the final word.

All operations are pure functions of immutable inputs and safe to share
across threads.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError

WORD_BITS = 64

_MAGIC = b"PBT1"


@dataclass(frozen=True, eq=False)
class PackedBitTensor:
    """Sign tensor packed one bit per element into uint64 words."""

    shape: tuple[int, ...]
    words: np.ndarray  # 1-D uint64
    bit_len: int

    def __eq__(self, other):
        if not isinstance(other, PackedBitTensor):
            return NotImplemented
        return (
            self.shape == other.shape
            and self.bit_len == other.bit_len
            and np.array_equal(self.words, other.words)
        )

    def validate(self) -> None:
        """Raise ValueError if any structural invariant is broken."""
        n = math.prod(self.shape)
        if self.bit_len != n:
            raise ValueError(f"bit_len {self.bit_len} != prod(shape) {n}")
        expect = _word_count(self.bit_len)
        if self.words.shape != (expect,):
            raise ValueError(f"words length {self.words.shape} != {expect}")
        if self.words.dtype != np.uint64:
            raise ValueError(f"words dtype {self.words.dtype} != uint64")
        tail = self.bit_len % WORD_BITS
        if tail and self.words.size:
            mask = np.uint64((1 << tail) - 1)
            if self.words[-1] & ~mask:
                raise ValueError("padding bits past bit_len are not zero")


def _word_count(bit_len: int) -> int:
    return (bit_len + WORD_BITS - 1) // WORD_BITS


def _words_to_bits(words: np.ndarray, bit_len: int) -> np.ndarray:
    """The first ``bit_len`` bits of the uint64 ``words`` along the last axis,
    one uint8 0/1 each, in the packed order."""
    raw = words.astype("<u8", copy=False).view(np.uint8)
    return np.unpackbits(raw, axis=-1, count=bit_len, bitorder="little")


def pack(values) -> PackedBitTensor:
    """Pack signs of ``values`` (>= 0 maps to +1, i.e. Sign(0) = +1)."""
    arr = np.asarray(values)
    if arr.size:
        finite = np.isfinite(arr)
        if not finite.all():
            idx = np.unravel_index(int(np.argmin(finite)), arr.shape)
            raise ValueError(f"non-finite element at index {tuple(int(i) for i in idx)}")
    bits = (arr >= 0).astype(np.uint8).reshape(1, -1)
    return PackedBitTensor(
        shape=tuple(int(d) for d in arr.shape),
        words=_pack_rows(bits)[0],
        bit_len=int(arr.size),
    )


def unpack(t: PackedBitTensor, dtype=np.float32) -> np.ndarray:
    """Expand back to a dense array of -1.0 / +1.0 values."""
    bits = _words_to_bits(t.words, t.bit_len)
    return (bits.astype(dtype) * 2 - 1).reshape(t.shape)


def xnor_dot(a: PackedBitTensor, b: PackedBitTensor) -> int:
    """Signed dot product of two packed sign vectors: the one-row case of
    the packed GEMM, 2 * popcount(XNOR(a, b) masked to n bits) - n."""
    if a.bit_len != b.bit_len:
        raise ValueError(f"length mismatch: {a.bit_len} vs {b.bit_len}")
    return int(_xnor_gemm_words(a.words[None], b.words[None], a.bit_len)[0, 0])


def _pack_rows(bits: np.ndarray) -> np.ndarray:
    """Pack each row of a uint8 0/1 matrix into its own uint64 words."""
    rows, n = bits.shape
    wpr = _word_count(n)
    if n == 0:
        return np.zeros((rows, 0), dtype=np.uint64)
    raw = np.packbits(bits, axis=1, bitorder="little")
    pad = wpr * 8 - raw.shape[1]
    if pad:
        raw = np.pad(raw, ((0, 0), (0, pad)))
    return np.ascontiguousarray(raw).view("<u8").astype(np.uint64, copy=False)


def _xnor_gemm_words(aw: np.ndarray, bw: np.ndarray, n: int) -> np.ndarray:
    """out[i, j] = signed dot of row-packed aw[i] and bw[j] (n logical bits)."""
    ra = aw.shape[0]
    rb = bw.shape[0]
    if n == 0:
        return np.zeros((ra, rb), dtype=np.int64)
    tail = n % WORD_BITS
    mask = np.uint64((1 << tail) - 1)  # clears the last word's padding bits past n
    out = np.empty((ra, rb), dtype=np.int64)
    # chunk rows of a to bound the [chunk, rb, words] intermediate
    chunk = max(1, (1 << 22) // max(1, rb * aw.shape[1]))
    for lo in range(0, ra, chunk):
        hi = min(ra, lo + chunk)
        x = np.invert(aw[lo:hi, None, :] ^ bw[None, :, :])
        if tail:
            x[..., -1] &= mask
        pop = np.bitwise_count(x).sum(axis=-1, dtype=np.int64)
        out[lo:hi] = 2 * pop - n
    return out


def binary_gemm(w: PackedBitTensor, x: PackedBitTensor) -> np.ndarray:
    """XNOR/popcount matrix product: entry (b, o) = xnor_dot(w row o, x row b).

    ``w`` has shape [out, in], ``x`` has shape [batch, in]; the result is an
    exact integer matrix [batch, out].
    """
    if len(w.shape) != 2 or len(x.shape) != 2:
        raise ValueError(f"expected 2-D operands, got {w.shape} and {x.shape}")
    if w.shape[1] != x.shape[1]:
        raise ValueError(f"inner dims differ: {w.shape[1]} vs {x.shape[1]}")
    n = w.shape[1]
    ww = _pack_rows(_words_to_bits(w.words, w.bit_len).reshape(w.shape))
    xw = _pack_rows(_words_to_bits(x.words, x.bit_len).reshape(x.shape))
    return _xnor_gemm_words(xw, ww, n)


def _conv_out_size(size: int, k: int, stride: int, padding: int) -> int:
    padded = size + 2 * padding
    if padded < k:
        raise ValueError(f"kernel size {k} exceeds padded input {padded}")
    if (padded - k) % stride:
        raise ValueError(
            f"non-integral output size: ({size} + 2*{padding} - {k}) / {stride}"
        )
    return (padded - k) // stride + 1


def _windows(x: np.ndarray, k: int, stride: int, padding: int, pad_value) -> np.ndarray:
    """[..., C, H, W] padded with ``pad_value`` -> strided window view [..., C, H', W', k, k].

    Pads in the channel-last view, so the padded copy of a channel-last
    input is channel-last too."""
    if padding:
        pads = ((0, 0),) * (x.ndim - 3) + ((padding, padding),) * 2 + ((0, 0),)
        x = np.moveaxis(np.pad(np.moveaxis(x, -3, -1), pads, constant_values=pad_value), -1, -3)
    win = np.lib.stride_tricks.sliding_window_view(x, (k, k), axis=(-2, -1))
    return win[..., ::stride, ::stride, :, :]


def im2col_binary_conv(
    inp: PackedBitTensor,
    kernels: PackedBitTensor,
    stride: int = 1,
    padding: int = 0,
) -> np.ndarray:
    """Exact +/-1 cross-correlation via packed patches and the XNOR GEMM.

    ``inp`` is [C, H, W], ``kernels`` is [F, C, k, k]; padding contributes
    logical -1. Each output pixel's padded window (``_windows``) packs into
    one patch row in (k, k, C) order, as the kernels do. Returns an integer
    tensor [F, H', W'].
    """
    if len(inp.shape) != 3:
        raise ValueError(f"input must be [C, H, W], got {inp.shape}")
    if len(kernels.shape) != 4 or kernels.shape[2] != kernels.shape[3]:
        raise ValueError(f"kernels must be [F, C, k, k], got {kernels.shape}")
    if kernels.shape[1] != inp.shape[0]:
        raise ValueError(
            f"channel mismatch: input {inp.shape[0]}, kernels {kernels.shape[1]}"
        )
    f, c, k, _ = kernels.shape
    ho = _conv_out_size(inp.shape[1], k, stride, padding)
    wo = _conv_out_size(inp.shape[2], k, stride, padding)
    in_bits = _words_to_bits(inp.words, inp.bit_len).reshape(inp.shape)
    win = _windows(in_bits, k, stride, padding, pad_value=0)  # [C, H', W', k, k]
    patches = _pack_rows(np.moveaxis(win, 0, -1).reshape(ho * wo, k * k * c))
    kern_bits = _words_to_bits(kernels.words, kernels.bit_len).reshape(f, c, k, k)
    kern = _pack_rows(np.moveaxis(kern_bits, 1, -1).reshape(f, k * k * c))  # (k, k, C) columns
    out = _xnor_gemm_words(patches, kern, c * k * k)  # [H'*W', F]
    return out.T.reshape(f, ho, wo)


def to_bytes(t: PackedBitTensor) -> bytes:
    """Serialize: magic "PBT1", rank u32, dims u32, bit_len u64, raw LE words."""
    head = [_MAGIC]
    head.append(np.uint32(len(t.shape)).astype("<u4").tobytes())
    head.append(np.asarray(t.shape, dtype="<u4").tobytes())
    head.append(np.uint64(t.bit_len).astype("<u8").tobytes())
    head.append(t.words.astype("<u8").tobytes())
    return b"".join(head)


class _Reader:
    """Bounds-checked cursor over untrusted bytes, the one way every loader
    reads them. Reads are views, not copies. Lengths are Python ints, so no
    header can wrap them; a read past the end, or ``rest`` of the wrong
    length, raises DataError naming ``what``, the format being read."""

    def __init__(self, data, what: str, off: int = 0):
        self.data, self.what, self.off = memoryview(data), what, off

    def take(self, n: int) -> memoryview:
        left = len(self.data) - self.off
        if n > left:
            raise DataError(f"truncated {self.what}: {n} bytes wanted at {self.off}, {left} left")
        self.off += n
        return self.data[self.off - n : self.off]

    def unpack(self, fmt: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def rest(self, n: int) -> memoryview:
        """The last ``n`` bytes, which must be exactly all that is left."""
        extra = len(self.data) - self.off - n
        if extra > 0:
            raise DataError(f"{self.what}: {extra} bytes after the last section")
        return self.take(n)


def from_bytes(data: bytes) -> PackedBitTensor:
    """Inverse of :func:`to_bytes`; rejects malformed or corrupt buffers."""
    if data[:4] != _MAGIC:
        raise DataError("bad PackedBitTensor magic")
    r = _Reader(data, "PackedBitTensor", off=4)
    (rank,) = r.unpack("<I")
    shape = r.unpack(f"<{rank}I")
    (bit_len,) = r.unpack("<Q")
    words = np.frombuffer(r.rest(8 * _word_count(bit_len)), dtype="<u8").astype(np.uint64)
    t = PackedBitTensor(shape=shape, words=words, bit_len=bit_len)
    try:
        t.validate()
    except ValueError as e:
        raise DataError(str(e)) from e
    return t

