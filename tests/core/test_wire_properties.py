"""Seeded randomized property tests for the lossless index codecs.

Driven by :mod:`tests.proptest` (200 cases per property, shrink on
failure).  Two properties per codec, per the wire-stack contract:

* **Bit-exact roundtrip** — ``decode(encode(x)) == x`` for any 1-D
  int32/int64 vector: sorted or unsorted, empty, single-element,
  duplicate-heavy, or spanning the full dtype range (maximal deltas).
* **Bounded encoded size** — the raw-frame fallback guarantees
  ``encoded_nbytes <= raw_nbytes + FRAME_HEADER_BYTES`` for *any*
  input, so a pathological payload can never inflate wire traffic by
  more than one header.

A third property checks frame concatenation: decoding the
concatenation of per-rank frames — each rank's frame from a randomly
chosen codec — yields the rank-order concatenation of the vectors, the
exact composition the allgather relies on, and agrees with a per-frame
reference decode.

A fourth property pins the rank-batched delta encoder
(``DeltaBitpackCodec.encode_batch``) byte for byte to the per-vector
reference encoder below.
"""

import numpy as np
import pytest

from repro.core.wire.codecs import (
    FRAME_HEADER_BYTES,
    DeltaBitpackCodec,
    EntropyCodec,
    RunLengthCodec,
    _decode_entropy_payload,
    _decode_rle_payload,
    decode_frames,
)

from ..proptest import run_property

# ---------------------------------------------------------------------------
# Reference oracle: a per-vector delta-bitpack encoder and a per-frame
# decoder, one block at a time.  They share no code with the batched
# codec, so the property tests below compare two implementations.
# ---------------------------------------------------------------------------

_DTYPE_CODES = {np.dtype(np.int32): 0, np.dtype(np.int64): 1}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}


def _ref_frame(kind: int, dtype: np.dtype, n: int, payload: bytes) -> np.ndarray:
    head = bytes([kind, _DTYPE_CODES[dtype]]) + int(n).to_bytes(8, "little")
    return np.frombuffer(head + payload, dtype=np.uint8)


def _ref_zigzag_deltas(arr: np.ndarray) -> np.ndarray:
    u = arr.astype(np.int64).view(np.uint64)
    signed = (u[1:] - u[:-1]).view(np.int64)
    mask = np.where(signed < 0, np.uint64(2**64 - 1), np.uint64(0))
    return (signed.view(np.uint64) << np.uint64(1)) ^ mask


def _ref_pack_low_bits(vals: np.ndarray, width: int) -> np.ndarray:
    bits = np.unpackbits(vals.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1)
    return np.packbits(bits[:, 64 - width:])


def _ref_unpack_low_bits(buf: np.ndarray, n: int, width: int) -> np.ndarray:
    if width == 0:
        return np.zeros(n, dtype=np.uint64)
    bits = np.unpackbits(buf, count=n * width).reshape(n, width)
    full = np.zeros((n, 64), dtype=np.uint8)
    full[:, 64 - width:] = bits
    return np.packbits(full.reshape(-1)).view(">u8").astype(np.uint64)


def ref_delta_encode(arr: np.ndarray, block: int = 128) -> np.ndarray:
    """One vector's delta-bitpack frame, block by block."""
    dtype = arr.dtype
    if arr.size == 0:
        return _ref_frame(2, dtype, 0, b"")
    zz = _ref_zigzag_deltas(arr)
    chunks = [block.to_bytes(4, "little"), arr[:1].astype("<i8").tobytes()]
    for start in range(0, zz.size, block):
        blk = zz[start:start + block]
        width = int(blk.max()).bit_length()
        chunks.append(bytes([width]))
        if width:
            chunks.append(_ref_pack_low_bits(blk, width).tobytes())
    payload = b"".join(chunks)
    if len(payload) >= arr.nbytes:
        le = arr.astype(dtype.newbyteorder("<")).tobytes()
        return _ref_frame(1, dtype, arr.size, le)
    return _ref_frame(2, dtype, arr.size, payload)


def ref_decode_frames(buf: np.ndarray, dtype) -> np.ndarray:
    """Decode frames one at a time (raw and delta by the reference)."""
    want = np.dtype(dtype)
    raw = buf.tobytes()
    parts, offset = [], 0
    while offset < len(raw):
        kind, n = raw[offset], int.from_bytes(raw[offset + 2:offset + 10], "little")
        assert _CODE_DTYPES[raw[offset + 1]] == want
        offset += FRAME_HEADER_BYTES
        if n == 0:
            continue
        if kind == 1:
            u = np.frombuffer(raw, want.newbyteorder("<"), n, offset).astype(np.int64)
            offset += n * want.itemsize
        elif kind == 2:
            block = int.from_bytes(raw[offset:offset + 4], "little")
            first = np.frombuffer(raw, "<i8", 1, offset + 4).view(np.uint64)
            offset += 12
            deltas = []
            for start in range(0, n - 1, block):
                blk_n = min(block, n - 1 - start)
                width = raw[offset]
                nbytes = (blk_n * width + 7) // 8
                packed = np.frombuffer(raw, np.uint8, nbytes, offset + 1)
                deltas.append(_ref_unpack_low_bits(packed, blk_n, width))
                offset += 1 + nbytes
            zz = np.concatenate([np.zeros(0, np.uint64)] + deltas)
            signed = (zz >> np.uint64(1)) ^ (np.uint64(0) - (zz & np.uint64(1)))
            u = np.cumsum(np.concatenate((first, signed))).view(np.int64)
        elif kind == 3:
            u, offset = _decode_rle_payload(raw, offset, n)
        else:
            u, offset = _decode_entropy_payload(raw, offset, n)
        parts.append(np.asarray(u).view(np.int64).astype(want))
    return np.concatenate([np.zeros(0, want)] + parts)


N_CASES = 200

_DTYPES = (np.int32, np.int64)


def _gen_vector_case(rng):
    return {
        "n": int(rng.integers(0, 513)),
        "dtype_index": int(rng.integers(0, len(_DTYPES))),
        "shape_kind": int(rng.integers(0, 5)),
        "block": int(rng.integers(1, 257)),
    }


def _make_vector(params: dict, rng) -> np.ndarray:
    """One random index vector in the shape family ``shape_kind`` picks:
    0 = sorted unique Zipf-ish draws, 1 = unsorted draws with
    duplicates, 2 = dense ranges (run-heavy), 3 = full-dtype-range
    extremes (maximal deltas), 4 = constant (all-duplicate)."""
    dtype = np.dtype(_DTYPES[params["dtype_index"]])
    n = params["n"]
    info = np.iinfo(dtype)
    kind = params["shape_kind"]
    if kind == 0:
        v = np.unique(rng.integers(0, 100_000, n).astype(dtype))
    elif kind == 1:
        v = rng.integers(0, max(1, n), n).astype(dtype)
    elif kind == 2:
        start = int(rng.integers(0, 1000))
        v = (start + np.arange(n)).astype(dtype)
    elif kind == 3:
        v = rng.integers(
            int(info.min), int(info.max), n, dtype=np.int64, endpoint=True
        ).astype(dtype)
    else:
        v = np.full(n, int(rng.integers(0, 1000)), dtype=dtype)
    return v


def _codecs(params: dict):
    return (
        DeltaBitpackCodec(block=params["block"]),
        RunLengthCodec(),
        EntropyCodec(),
    )


def _prop_roundtrip(params: dict, rng) -> None:
    vec = _make_vector(params, rng)
    for codec in _codecs(params):
        frame = codec.encode(vec)
        assert frame.dtype == np.uint8, f"{codec.name}: frame not uint8"
        back = codec.decode(frame, vec.dtype)
        assert back.dtype == vec.dtype, (
            f"{codec.name}: dtype {back.dtype} != {vec.dtype}"
        )
        assert np.array_equal(back, vec), (
            f"{codec.name}: roundtrip mismatch on {vec.dtype} shape-kind "
            f"{params['shape_kind']}"
        )


def _prop_size_bound(params: dict, rng) -> None:
    vec = _make_vector(params, rng)
    for codec in _codecs(params):
        frame = codec.encode(vec)
        assert frame.nbytes <= vec.nbytes + FRAME_HEADER_BYTES, (
            f"{codec.name}: {frame.nbytes} bytes for a {vec.nbytes}-byte "
            "input exceeds the raw-fallback bound"
        )


def _prop_concatenation(params: dict, rng) -> None:
    world = 1 + params["shape_kind"]  # reuse the shrinkable small int
    vecs = [_make_vector(params, rng) for _ in range(world)]
    codecs = _codecs(params)
    mixed = [codecs[int(rng.integers(0, len(codecs)))] for _ in vecs]
    buffers = [np.concatenate([codec.encode(v) for v in vecs]) for codec in codecs]
    buffers.append(np.concatenate([c.encode(v) for c, v in zip(mixed, vecs)]))
    for name, buf in zip([c.name for c in codecs] + ["mixed"], buffers):
        got = decode_frames(buf, vecs[0].dtype)
        assert np.array_equal(got, np.concatenate(vecs)), (
            f"{name}: concatenated frames did not decode to the "
            "rank-order concatenation"
        )
        ref = ref_decode_frames(buf, vecs[0].dtype)
        assert got.dtype == ref.dtype and np.array_equal(got, ref), (
            f"{name}: batched decode disagrees with the per-frame reference"
        )


def _gen_batch_case(rng):
    return {
        "world": int(rng.integers(0, 9)),
        "dtype_index": int(rng.integers(0, len(_DTYPES))),
        "block": int(rng.choice([1, 2, 7, 128, int(rng.integers(1, 300))])),
        "seed": int(rng.integers(0, 2**31)),
    }


def _prop_batch_matches_reference(params: dict, rng) -> None:
    """Ragged per-rank vectors of every shape family, lengths 0 and 1
    included; extremes force raw-fallback frames, long vectors span
    many blocks."""
    rng = np.random.default_rng(params["seed"])
    vecs = []
    for _ in range(params["world"]):
        n = int(rng.choice([0, 1, 2, 3, int(rng.integers(0, 700))]))
        vecs.append(_make_vector({
            "n": n,
            "dtype_index": params["dtype_index"],
            "shape_kind": int(rng.integers(0, 5)),
        }, rng))
    codec = DeltaBitpackCodec(block=params["block"])
    frames = codec.encode_batch(vecs)
    assert len(frames) == len(vecs)
    for v, frame in zip(vecs, frames):
        ref = ref_delta_encode(v, params["block"])
        assert frame.dtype == np.uint8 and frame.tobytes() == ref.tobytes(), (
            f"batched frame for a {v.dtype} vector of {v.size} differs "
            "from the per-vector reference"
        )
        assert codec.encode(v).tobytes() == ref.tobytes()


class TestLosslessRoundtripProperty:
    def test_roundtrip_bit_exact(self):
        assert run_property(_prop_roundtrip, _gen_vector_case, N_CASES) == N_CASES

    def test_encoded_size_bounded(self):
        assert (
            run_property(_prop_size_bound, _gen_vector_case, N_CASES) == N_CASES
        )

    def test_frame_concatenation_composes(self):
        assert (
            run_property(_prop_concatenation, _gen_vector_case, N_CASES)
            == N_CASES
        )

    def test_batched_delta_encode_matches_reference(self):
        assert (
            run_property(
                _prop_batch_matches_reference, _gen_batch_case, N_CASES
            )
            == N_CASES
        )


EXTREME_BATCHES = [
    [np.array([np.iinfo(np.int64).min, np.iinfo(np.int64).max])],
    [np.array([np.iinfo(np.int64).max, np.iinfo(np.int64).min, 0, 1])],
    [np.zeros(0, np.int64), np.array([5]), np.zeros(0, np.int64)],
    [np.arange(0, 3000, 3), np.arange(10**12, 10**12 + 400)],
    [np.array([np.iinfo(np.int32).min, np.iinfo(np.int32).max], np.int32),
     np.arange(-50, 50, dtype=np.int32)],
    [np.int64(7) ** np.arange(23)],  # widths grow to 63 bits
]


@pytest.mark.parametrize("block", [1, 3, 128, 1000])
@pytest.mark.parametrize("batch", EXTREME_BATCHES, ids=range(len(EXTREME_BATCHES)))
def test_batched_delta_extremes_match_reference(batch, block):
    frames = DeltaBitpackCodec(block=block).encode_batch(batch)
    for v, frame in zip(batch, frames):
        assert frame.tobytes() == ref_delta_encode(v, block).tobytes()
    buf = np.concatenate(frames)
    np.testing.assert_array_equal(
        decode_frames(buf, batch[0].dtype), np.concatenate(batch)
    )
