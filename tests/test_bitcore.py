import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binn import bitcore
from binn.errors import DataError


def sign_pm1(x):
    """Reference sign with Sign(0) = +1."""
    return np.where(np.asarray(x) >= 0, 1.0, -1.0)


def dense_dot(a, b):
    """Naive +/-1 dot product oracle on unpacked values."""
    return int(np.dot(bitcore.unpack(a, np.float64), bitcore.unpack(b, np.float64)))


def dense_conv(inp_pm1, kern_pm1, stride, padding):
    """Naive +/-1 cross-correlation; padding contributes -1."""
    c, h, w = inp_pm1.shape
    f, _, k, _ = kern_pm1.shape
    padded = np.full((c, h + 2 * padding, w + 2 * padding), -1.0)
    padded[:, padding : padding + h, padding : padding + w] = inp_pm1
    ho = (h + 2 * padding - k) // stride + 1
    wo = (w + 2 * padding - k) // stride + 1
    out = np.zeros((f, ho, wo))
    for fi in range(f):
        for i in range(ho):
            for j in range(wo):
                patch = padded[:, i * stride : i * stride + k, j * stride : j * stride + k]
                out[fi, i, j] = np.sum(patch * kern_pm1[fi])
    return out.astype(np.int64)


# ---------------------------------------------------------------- pack/unpack


def test_pack_low_to_high_bit_order():
    t = bitcore.pack([+1.0, -1.0, -1.0, +1.0])
    assert t.bit_len == 4
    assert t.words.tolist() == [0b1001]


def test_pack_zeros_sign_convention_and_padding():
    t = bitcore.pack(np.zeros(70))
    assert t.words.size == 2
    assert t.words[0] == np.uint64(0xFFFFFFFFFFFFFFFF)
    assert t.words[1] == np.uint64((1 << 6) - 1)
    t.validate()


def test_pack_unpack_roundtrip_random():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(1000)
    assert np.array_equal(bitcore.unpack(bitcore.pack(x)), sign_pm1(x).astype(np.float32))


def test_pack_rejects_nonfinite_with_index():
    x = np.zeros((3, 4))
    x[1, 2] = np.nan
    with pytest.raises(ValueError, match=r"\(1, 2\)"):
        bitcore.pack(x)
    x[1, 2] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        bitcore.pack(x)


def test_unpack_examples():
    t = bitcore.PackedBitTensor(shape=(4,), words=np.array([0b1001], dtype=np.uint64), bit_len=4)
    assert bitcore.unpack(t).tolist() == [1.0, -1.0, -1.0, 1.0]
    empty = bitcore.pack(np.zeros(0))
    assert bitcore.unpack(empty).size == 0
    assert bitcore.pack(bitcore.unpack(empty)) == empty


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32), max_size=300))
def test_pack_unpack_mutual_inverse(vals):
    t = bitcore.pack(np.asarray(vals, dtype=np.float32))
    assert bitcore.pack(bitcore.unpack(t)) == t
    assert np.array_equal(bitcore.unpack(t), sign_pm1(vals).astype(np.float32))


# ------------------------------------------------------------------ xnor_dot


def test_xnor_dot_identical_and_antipodal():
    rng = np.random.default_rng(0)
    a = bitcore.pack(rng.standard_normal(64))
    assert bitcore.xnor_dot(a, a) == 64
    b = bitcore.pack(-bitcore.unpack(a))
    assert bitcore.xnor_dot(a, b) == -64


def test_xnor_dot_matches_dense_oracle_n257():
    rng = np.random.default_rng(1)
    a = bitcore.pack(rng.standard_normal(257))
    b = bitcore.pack(rng.standard_normal(257))
    assert bitcore.xnor_dot(a, b) == dense_dot(a, b)


def test_xnor_dot_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        bitcore.xnor_dot(bitcore.pack(np.ones(3)), bitcore.pack(np.ones(4)))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 200), st.integers(0, 2**32 - 1))
def test_xnor_dot_symmetry_and_oracle(n, seed):
    rng = np.random.default_rng(seed)
    a = bitcore.pack(rng.standard_normal(n))
    b = bitcore.pack(rng.standard_normal(n))
    d = bitcore.xnor_dot(a, b)
    assert d == bitcore.xnor_dot(b, a)
    assert d == dense_dot(a, b)
    assert bitcore.xnor_dot(a, a) == n
    assert abs(d) <= n and (d - n) % 2 == 0


def test_xnor_dot_exhaustive_small_n():
    # every pair of sign vectors for n <= 6
    for n in range(1, 7):
        pats = np.array(
            [[(v >> i) & 1 for i in range(n)] for v in range(1 << n)], dtype=np.float64
        )
        pm = pats * 2 - 1
        packed = [bitcore.pack(row) for row in pm]
        expect = pm @ pm.T
        for i in range(1 << n):
            for j in range(1 << n):
                assert bitcore.xnor_dot(packed[i], packed[j]) == int(expect[i, j])


# ---------------------------------------------------------------- binary_gemm


def test_gemm_single_row():
    rng = np.random.default_rng(3)
    v = rng.standard_normal(70)
    w = bitcore.pack(v.reshape(1, 70))
    x = bitcore.pack(v.reshape(1, 70))
    assert bitcore.binary_gemm(w, x).tolist() == [[70]]


def test_gemm_identity_pattern_4x4():
    # +1 on the diagonal, -1 elsewhere; frozen from the dense oracle
    m = -np.ones((4, 4))
    np.fill_diagonal(m, 1.0)
    w = bitcore.pack(m)
    out = bitcore.binary_gemm(w, w)
    assert out.tolist() == [[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]]


def test_gemm_matches_dense_oracle():
    rng = np.random.default_rng(4)
    wv = sign_pm1(rng.standard_normal((8, 100)))
    xv = sign_pm1(rng.standard_normal((3, 100)))
    out = bitcore.binary_gemm(bitcore.pack(wv), bitcore.pack(xv))
    assert np.array_equal(out, (xv @ wv.T).astype(np.int64))


def test_gemm_dim_mismatch():
    w = bitcore.pack(np.ones((2, 5)))
    x = bitcore.pack(np.ones((2, 6)))
    with pytest.raises(ValueError, match="inner dims"):
        bitcore.binary_gemm(w, x)
    with pytest.raises(ValueError, match="2-D"):
        bitcore.binary_gemm(bitcore.pack(np.ones(5)), x)


# ----------------------------------------------------------------------- conv


def test_conv_all_plus_one():
    inp = bitcore.pack(np.ones((1, 3, 3)))
    kp = bitcore.pack(np.ones((1, 1, 3, 3)))
    assert bitcore.im2col_binary_conv(inp, kp, 1, 0).tolist() == [[[9]]]
    km = bitcore.pack(-np.ones((1, 1, 3, 3)))
    assert bitcore.im2col_binary_conv(inp, km, 1, 0).tolist() == [[[-9]]]


def test_conv_matches_dense_oracle():
    # 9x9 with k=3, stride 2, pad 1 gives an integral output size
    rng = np.random.default_rng(5)
    iv = sign_pm1(rng.standard_normal((3, 9, 9)))
    kv = sign_pm1(rng.standard_normal((4, 3, 3, 3)))
    out = bitcore.im2col_binary_conv(bitcore.pack(iv), bitcore.pack(kv), stride=2, padding=1)
    assert np.array_equal(out, dense_conv(iv, kv, 2, 1))


@pytest.mark.parametrize("stride,padding", [(1, 0), (2, 1), (3, 2)])
def test_conv_random_shapes_vs_oracle(stride, padding):
    rng = np.random.default_rng(stride * 10 + padding)
    for _ in range(5):
        c = int(rng.integers(1, 4))
        f = int(rng.integers(1, 4))
        k = int(rng.integers(1, 4))
        h = int(rng.integers(k, k + 2)) * stride + k - 2 * padding
        if h < 1:
            continue
        iv = sign_pm1(rng.standard_normal((c, h, h)))
        kv = sign_pm1(rng.standard_normal((f, c, k, k)))
        out = bitcore.im2col_binary_conv(bitcore.pack(iv), bitcore.pack(kv), stride, padding)
        assert np.array_equal(out, dense_conv(iv, kv, stride, padding))


def test_conv_error_cases():
    inp = bitcore.pack(np.ones((1, 5, 5)))
    kern = bitcore.pack(np.ones((1, 1, 3, 3)))
    with pytest.raises(ValueError, match="non-integral"):
        bitcore.im2col_binary_conv(inp, kern, stride=3, padding=0)
    big = bitcore.pack(np.ones((1, 1, 7, 7)))
    with pytest.raises(ValueError, match="exceeds padded input"):
        bitcore.im2col_binary_conv(inp, big, stride=1, padding=0)
    wrong_c = bitcore.pack(np.ones((1, 2, 3, 3)))
    with pytest.raises(ValueError, match="channel mismatch"):
        bitcore.im2col_binary_conv(inp, wrong_c, stride=1, padding=1)


# ------------------------------------------------------------------- padding


def test_padding_corruption_is_masked_and_canonicalized():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(70)
    clean = bitcore.pack(x)
    garbage = clean.words.copy()
    garbage[-1] |= np.uint64(0xABCD) << np.uint64(16)
    dirty = bitcore.PackedBitTensor(shape=(70,), words=garbage, bit_len=70)
    other = bitcore.pack(rng.standard_normal(70))
    # ops mask the tail, so garbage in padding cannot change results
    assert bitcore.xnor_dot(dirty, other) == bitcore.xnor_dot(clean, other)
    assert np.array_equal(bitcore.unpack(dirty), bitcore.unpack(clean))
    with pytest.raises(ValueError, match="padding"):
        dirty.validate()


def test_validate_counts_elements_without_wrapping():
    # 2**32 * 2**32 wraps to 0 in int64, which would match bit_len 0
    t = bitcore.PackedBitTensor((2**32, 2**32), np.zeros(0, np.uint64), 0)
    with pytest.raises(ValueError, match="bit_len"):
        t.validate()


# -------------------------------------------------------------- serialization


def test_serialization_golden_bytes():
    t = bitcore.pack([+1.0, -1.0, -1.0, +1.0])
    golden = (
        b"PBT1"
        + (1).to_bytes(4, "little")
        + (4).to_bytes(4, "little")
        + (4).to_bytes(8, "little")
        + (0b1001).to_bytes(8, "little")
    )
    assert bitcore.to_bytes(t) == golden
    assert bitcore.from_bytes(golden) == t


def test_serialization_roundtrip_shapes():
    rng = np.random.default_rng(8)
    for shape in [(0,), (1,), (70,), (3, 5), (2, 3, 4), (1, 2, 3, 4)]:
        t = bitcore.pack(rng.standard_normal(shape))
        assert bitcore.from_bytes(bitcore.to_bytes(t)) == t


def test_serialization_rejects_garbage():
    t = bitcore.pack(np.ones(10))
    blob = bitcore.to_bytes(t)
    with pytest.raises(DataError, match="magic"):
        bitcore.from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(DataError):
        bitcore.from_bytes(blob[:-3])
    with pytest.raises(DataError):
        bitcore.from_bytes(blob + b"\x00" * 8)
    # corrupt padding bits must be rejected, not silently accepted
    bad = bytearray(blob)
    bad[-1] |= 0x80
    with pytest.raises(DataError, match="padding"):
        bitcore.from_bytes(bytes(bad))


def test_words_to_bits_decodes_each_row_of_the_last_axis():
    # [rows, k, words], as theorem 1's bagged members draw them; 100 bits
    # leave padding in each row's last word
    rng = np.random.default_rng(5)
    rows = [[bitcore.pack(rng.standard_normal(100)) for _ in range(3)] for _ in range(4)]
    bits = bitcore._words_to_bits(np.array([[t.words for t in row] for row in rows]), 100)
    assert bits.shape == (4, 3, 100)
    for got, row in zip(bits, rows):
        for g, t in zip(got, row):
            assert np.array_equal(g * 2.0 - 1.0, bitcore.unpack(t))
