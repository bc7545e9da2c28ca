"""Lossless integer codecs for the index ALLGATHER wire format.

The paper's §III-C compression halves *value* traffic with FP16, but the
Θ(G·K) index ALLGATHER of the uniqueness exchange (§III-A) still ships
raw int64 word indices.  Sorted unique Zipf indices are extremely
compressible: consecutive deltas are tiny (most fit in a few bits) and
dense index ranges collapse into runs.  The codecs here exploit exactly
that, with **bit-exact** roundtrip guarantees — ``decode(encode(x))``
equals ``x`` bit for bit, for any 1-D int32/int64 input, sorted or not.

Frame format
------------
Every ``encode`` produces a *self-delimiting* uint8 frame::

    byte 0      frame kind (1 = raw, 2 = delta-bitpack, 3 = run-length,
                4 = entropy)
    byte 1      dtype code (0 = int32, 1 = int64)
    bytes 2-9   element count n (u64, little-endian)
    payload     kind-specific, parseable given the header

Self-delimitation is what makes the codecs compose with allgatherv
semantics: the collective concatenates per-rank frames into one uint8
buffer, and :func:`decode_frames` walks the frames back out — so the
decoded result is exactly the rank-order concatenation of the original
per-rank vectors, with per-rank boundaries preserved.

Payloads
--------
* **raw** — the input bytes verbatim (little-endian).  Every codec falls
  back to a raw frame when its encoding would not beat it, which yields
  the hard bound ``encoded_nbytes <= raw_nbytes + FRAME_HEADER_BYTES``.
* **delta-bitpack** — block size as 4 bytes, first value as 8 bytes,
  then the zigzag-encoded deltas of consecutive elements, bit-packed in
  blocks whose width is chosen from each block's largest delta.  The
  block size rides in the payload so frames decode regardless of which
  ``DeltaBitpackCodec(block=...)`` produced them.  Deltas are taken in
  modular uint64 arithmetic, so unsorted inputs and maximal-span int64
  pairs (``[int64.min, int64.max]``) roundtrip exactly.  Each block is
  its width byte, then every delta's low ``width`` bits MSB-first,
  zero-padded to a byte boundary.
* **run-length** — ``(start, length)`` pairs for maximal runs of
  consecutive ``+1`` increments; ideal for dense index ranges.
* **entropy** — canonical Huffman over the *bit-widths* of the zigzag
  modular deltas, followed by each delta's raw low bits (top bit
  implicit).  Width symbols concentrate the skew of a Zipf-sorted index
  vector into a few-bit prefix code, beating fixed per-block widths
  because every delta pays only its own width plus ~H(width) bits.

Rank batching
-------------
The allgather encodes one vector per rank.
:meth:`DeltaBitpackCodec.encode_batch` encodes all of them in one
vectorised pass (``encode`` is the one-vector case of it), and
:func:`decode_frames` decodes every raw and delta frame of a gathered
buffer at once; Python only walks frame headers and width bytes.

Neither codec sorts: both are order-preserving, and the *caller* decides
whether sorting is safe (the unique exchange sorts before encoding
because ``np.unique`` downstream is order-insensitive; the baseline
allgather must not, since index order pairs with value rows).
"""

from __future__ import annotations

import heapq
from collections.abc import Sequence

import numpy as np

from ..compression import WireCodec

__all__ = [
    "DELTA_BLOCK",
    "FRAME_HEADER_BYTES",
    "DeltaBitpackCodec",
    "EntropyCodec",
    "LosslessIntCodec",
    "RunLengthCodec",
    "decode_frames",
]

#: Bytes of the per-frame header (kind + dtype code + element count).
FRAME_HEADER_BYTES = 10

#: Deltas per bit-packing block; each block stores one width byte.
#: Small blocks adapt the width to Zipf's skew — a sorted word-LM index
#: vector packs its dense head at a few bits while the sparse tail's
#: huge deltas stay confined to their own blocks.  128 roughly doubles
#: the measured reduction on 1B-Word-shaped payloads vs 1024, at less
#: than 1% width-byte overhead.
DELTA_BLOCK = 128

_KIND_RAW = 1
_KIND_DELTA = 2
_KIND_RLE = 3
_KIND_ENTROPY = 4

#: Width symbols for the entropy codec: bit_length of a zigzag delta,
#: an integer in [0, 64].
_N_WIDTH_SYMBOLS = 65

_DTYPE_CODES = {np.dtype(np.int32): 0, np.dtype(np.int64): 1}
_CODE_DTYPES = {code: dt for dt, code in _DTYPE_CODES.items()}

_U64_ONE = np.uint64(1)
_U64_ZERO = np.uint64(0)


def _check_input(arr: np.ndarray) -> np.dtype:
    """Validate a codec input; return its dtype."""
    if not isinstance(arr, np.ndarray):
        raise ValueError(f"codec input must be an ndarray, got {type(arr).__name__}")
    if arr.ndim != 1:
        raise ValueError(f"index codecs take 1-D arrays, got shape {arr.shape}")
    if arr.dtype not in _DTYPE_CODES:
        raise ValueError(
            f"index codecs take int32/int64 arrays, got {arr.dtype}"
        )
    return arr.dtype


def _header(kind: int, dtype: np.dtype, n: int) -> bytes:
    return bytes([kind, _DTYPE_CODES[dtype]]) + int(n).to_bytes(8, "little")


def _zigzag(signed: np.ndarray) -> np.ndarray:
    """Map int64 to uint64 so small-magnitude values get small codes."""
    return (signed.view(np.uint64) << _U64_ONE) ^ (signed >> 63).view(np.uint64)


def _unzigzag(zz: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_zigzag`; returns the uint64 bit pattern."""
    mask = _U64_ZERO - (zz & _U64_ONE)
    return (zz >> _U64_ONE) ^ mask


def _bit_length_u64(x: np.ndarray) -> np.ndarray:
    """Exact ``int.bit_length`` (0..64) of each uint64, as int64.

    Each 32-bit half is exact in float64, so ``frexp``'s exponent is
    its bit length (``frexp(0)`` gives 0).
    """
    hi = np.frexp((x >> np.uint64(32)).astype(np.float64))[1]
    lo = np.frexp((x & np.uint64(0xFFFFFFFF)).astype(np.float64))[1]
    return np.where(hi > 0, hi + 32, lo).astype(np.int64)


def _excl_cumsum(x: np.ndarray) -> np.ndarray:
    """Exclusive prefix sum: where each ragged segment starts."""
    out = np.cumsum(x)
    out -= x
    return out


def _ragged_arange(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s + l) for s, l in zip(starts, lengths)])``."""
    return np.repeat(starts - _excl_cumsum(lengths), lengths) + np.arange(
        int(lengths.sum())
    )


def _put_bits(
    words: np.ndarray, pos: np.ndarray, width: np.ndarray, vals: np.ndarray
) -> None:
    """Add each value's low ``width`` (1..64) bits, MSB-first, at bit ``pos``.

    Bit ``p`` of a byte stream is bit ``63 - p % 64`` of big-endian
    uint64 word ``p // 64``; a value spills into the next word when it
    does not fit.  Values must be below ``2**width`` and their bit
    ranges disjoint, so adding is OR-ing.
    """
    word = pos >> 6
    r = (pos & 63).view(np.uint64)
    top = vals << (64 - width).view(np.uint64)  # left-aligned in a word
    np.add.at(words, word, top >> r)
    # ``(x << 1) << (63 - r)`` is ``x << (64 - r)``, and 0 at r = 0.
    np.add.at(words, word + 1, (top << _U64_ONE) << (63 - r))


def _get_bits(words: np.ndarray, pos: np.ndarray, width: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_put_bits` for widths 1..64 (one word of slack)."""
    word = pos >> 6
    r = (pos & 63).view(np.uint64)
    # ``(x >> 1) >> (63 - r)`` is ``x >> (64 - r)``, and 0 at r = 0.
    head = (words[word] << r) | ((words[word + 1] >> _U64_ONE) >> (63 - r))
    return head >> (64 - width).view(np.uint64)


def _modular_deltas(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(int64 view of the values, zigzagged modular consecutive deltas)."""
    v = np.ascontiguousarray(arr.astype(np.int64, copy=False))
    u = v.view(np.uint64)
    du = u[1:] - u[:-1]  # wraps mod 2**64: exact for any int64 span
    return v, _zigzag(du.view(np.int64))


def _frame_bytes(kind: int, dtype: np.dtype, n: int, payload: bytes) -> np.ndarray:
    return np.frombuffer(_header(kind, dtype, n) + payload, dtype=np.uint8)


def _raw_frame(arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
    payload = np.ascontiguousarray(arr, dtype=dtype.newbyteorder("<")).tobytes()
    return _frame_bytes(_KIND_RAW, dtype, arr.size, payload)


class LosslessIntCodec(WireCodec):
    """Base class for the self-delimiting lossless integer codecs.

    Subclasses implement ``encode`` (and may vectorise ``encode_batch``
    over ranks); ``decode`` is shared because every frame carries its
    own kind byte — a buffer may even mix frames from different codecs
    (as a chunked or mixed-codec gather produces).
    """

    #: Roundtrip is bit-exact; the sanitizer can verify it cheaply.
    lossless = True
    #: Encoded size depends on the data, not just the dtype.
    data_dependent = True

    def decode(self, arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
        """Decode a (possibly multi-frame) uint8 buffer back to indices."""
        return decode_frames(arr, dtype)

    def wire_dtype(self, dtype: np.dtype) -> np.dtype:
        """Frames are always byte streams."""
        return np.dtype(np.uint8)


class DeltaBitpackCodec(LosslessIntCodec):
    """Sort-free delta + per-block bit-packing (the unique-index codec).

    Encodes consecutive differences (zigzagged, modular-uint64) with a
    per-block bit width chosen from the block's largest delta, so sorted
    Zipf index vectors — whose deltas are overwhelmingly tiny — pack
    into a few bits per index instead of 64.  Falls back to a raw frame
    whenever packing would not beat the input bytes.

    Parameters
    ----------
    block:
        Deltas per packing block (one width byte each).  Smaller blocks
        adapt faster to mixed-magnitude deltas at one byte per block of
        overhead.
    """

    def __init__(self, block: int = DELTA_BLOCK):
        if block <= 0:
            raise ValueError("block must be positive")
        self.block = int(block)

    @property
    def name(self) -> str:
        """Short stable name used in registries and ledger scopes."""
        return "delta"

    def encode(self, arr: np.ndarray) -> np.ndarray:
        """Encode one index vector into a self-delimiting uint8 frame."""
        return self.encode_batch([arr])[0]

    def encode_batch(self, arrays: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Encode every rank's vector in one vectorised pass.

        All vectors share one dtype, as one gathered buffer must.
        Frames are byte-identical to encoding each vector alone; they
        are returned as consecutive views of one buffer.  The vectors
        are concatenated, deltas are taken across the concatenation and
        the ones that straddle a rank boundary dropped; block widths
        come from one ``maximum.reduceat``, and every delta is packed at
        its block's width in one pass.
        """
        world = len(arrays)
        if world == 0:
            return []
        dtypes = {_check_input(a) for a in arrays}
        if len(dtypes) != 1:
            raise ValueError(f"one dtype per batch, got {sorted(map(str, dtypes))}")
        (dtype,) = dtypes
        n = np.fromiter((a.size for a in arrays), dtype=np.int64, count=world)
        v = np.concatenate(arrays).astype(np.int64, copy=False)
        starts = _excl_cumsum(n)
        nonempty = n > 0

        # Modular deltas within each rank's vector (zigzagged).
        u = v.view(np.uint64)
        du = np.empty_like(u)
        du[1:] = u[1:] - u[:-1]  # wraps mod 2**64: exact for any int64 span
        inner = np.ones(v.size, dtype=bool)
        inner[starts[nonempty]] = False
        zz = _zigzag(du[inner].view(np.int64))

        # Blocks: ``nb`` per rank, ``blk_len`` deltas each.
        m = np.maximum(n - 1, 0)
        nb = -(-m // self.block)
        blk_rank = np.repeat(np.arange(world), nb)
        blk_first = _excl_cumsum(nb)
        blk_k = np.arange(blk_rank.size) - blk_first[blk_rank]
        blk_start = _excl_cumsum(m)[blk_rank] + blk_k * self.block
        blk_len = np.minimum(self.block, m[blk_rank] - blk_k * self.block)
        width = _bit_length_u64(np.maximum.reduceat(zz, blk_start))
        blk_bytes = (blk_len * width + 7) // 8

        # Frame sizes; a delta frame must beat the raw bytes.
        cs = np.concatenate(([0], np.cumsum(1 + blk_bytes)))
        blk_pos = cs[:-1] - cs[blk_first][blk_rank]  # offset in the rank's blocks
        payload = 12 + cs[blk_first + nb] - cs[blk_first]
        delta = nonempty & (payload < n * dtype.itemsize)
        body = np.where(delta, payload, n * dtype.itemsize)
        size = FRAME_HEADER_BYTES + body
        off = _excl_cumsum(size)
        out = np.zeros(int(size.sum()), dtype=np.uint8)

        head = np.empty((world, FRAME_HEADER_BYTES), dtype=np.uint8)
        head[:, 0] = np.where(delta | ~nonempty, _KIND_DELTA, _KIND_RAW)
        head[:, 1] = _DTYPE_CODES[dtype]
        head[:, 2:] = n.astype("<u8").view(np.uint8).reshape(world, 8)
        out[off[:, None] + np.arange(FRAME_HEADER_BYTES)] = head

        d = np.flatnonzero(delta)
        prelude = np.empty((d.size, 12), dtype=np.uint8)
        prelude[:, :4] = np.array([self.block], dtype="<u4").view(np.uint8)
        prelude[:, 4:] = v[starts[d]].astype("<i8").view(np.uint8).reshape(-1, 8)
        out[(off[d] + FRAME_HEADER_BYTES)[:, None] + np.arange(12)] = prelude

        # Width bytes, then each block's deltas bit-packed from the next
        # byte on (zero padding to the block's byte boundary is free).
        packed_blk = delta[blk_rank]
        width_at = off[blk_rank] + FRAME_HEADER_BYTES + 12 + blk_pos
        out[width_at[packed_blk]] = width[packed_blk]
        w = np.repeat(np.where(packed_blk, width, 0), blk_len)
        pos = np.repeat(8 * (width_at + 1) - blk_start * width, blk_len)
        pos += np.arange(zz.size) * w
        packed = w > 0
        if packed.any():
            words = np.zeros(out.size // 8 + 2, dtype=np.uint64)
            _put_bits(words, pos[packed], w[packed], zz[packed])
            out |= words.astype(">u8").view(np.uint8)[:out.size]

        # Raw fallback frames: the input bytes, little-endian.
        raw = nonempty & ~delta
        if raw.any():
            r = np.flatnonzero(raw)
            nbytes = n[r] * dtype.itemsize
            out[_ragged_arange(off[r] + FRAME_HEADER_BYTES, nbytes)] = (
                v[_ragged_arange(starts[r], n[r])]
                .astype(dtype.newbyteorder("<")).view(np.uint8)
            )
        ends = (off + size).tolist()
        return [out[a:b] for a, b in zip(off.tolist(), ends)]

    def estimate_nbytes(self, arr: np.ndarray, sample: int = 1024) -> int:
        """Cheap encoded-size estimate from a strided sorted sample.

        Used by the adaptive selector's crossover model.  Sampling every
        ``stride``-th element of the sorted input multiplies typical
        deltas by ``stride``, so the estimate is conservative (it
        over-states the encoded size); the hard raw-fallback bound caps
        it either way.
        """
        _check_input(arr)
        if arr.size <= 1:
            return FRAME_HEADER_BYTES + arr.nbytes
        stride = max(1, arr.size // sample)
        probe = np.sort(arr[::stride])
        est = self.encode(probe).size / probe.size * arr.size
        return int(min(est, FRAME_HEADER_BYTES + arr.nbytes))


class RunLengthCodec(LosslessIntCodec):
    """Run-length codec for contiguous index ranges.

    Encodes maximal runs of consecutive ``+1`` increments as
    ``(start, length)`` pairs — 16 bytes per run regardless of run
    length, so dense index ranges (e.g. a saturated vocabulary head)
    collapse to almost nothing.  Falls back to a raw frame when the
    input is run-poor.
    """

    @property
    def name(self) -> str:
        """Short stable name used in registries and ledger scopes."""
        return "rle"

    def encode(self, arr: np.ndarray) -> np.ndarray:
        """Encode one index vector into a self-delimiting uint8 frame."""
        dtype = _check_input(arr)
        n = arr.size
        if n == 0:
            return _frame_bytes(_KIND_RLE, dtype, 0, b"")
        v = np.ascontiguousarray(arr.astype(np.int64, copy=False))
        u = v.view(np.uint64)
        breaks = np.flatnonzero((u[1:] - u[:-1]) != _U64_ONE)
        run_starts = np.concatenate(([0], breaks + 1))
        run_lengths = np.diff(np.concatenate((run_starts, [n])))
        n_runs = run_starts.size
        payload_size = 8 + 16 * n_runs
        if payload_size >= arr.nbytes:
            return _raw_frame(arr, dtype)
        payload = (
            int(n_runs).to_bytes(8, "little")
            + v[run_starts].astype("<i8", copy=False).tobytes()
            + run_lengths.astype("<u8").tobytes()
        )
        return _frame_bytes(_KIND_RLE, dtype, n, payload)

    def estimate_nbytes(self, arr: np.ndarray, sample: int = 1024) -> int:
        """Cheap encoded-size estimate from a contiguous prefix slice.

        A strided sample would destroy runs, so the run density is
        measured on ``arr[:sample]`` and extrapolated.
        """
        _check_input(arr)
        if arr.size <= 1:
            return FRAME_HEADER_BYTES + arr.nbytes
        probe = np.sort(arr[: int(sample)])
        est = self.encode(probe).size / probe.size * arr.size
        return int(min(est, FRAME_HEADER_BYTES + arr.nbytes))


def _huffman_code_lengths(counts: np.ndarray) -> np.ndarray:
    """Huffman code lengths per symbol (0 for absent symbols).

    Deterministic: ties in the merge heap break on insertion order, so
    identical inputs yield identical tables on every rank.  A lone
    symbol gets length 1 (the code ``0``).
    """
    syms = np.flatnonzero(counts)
    lengths = np.zeros(counts.size, dtype=np.uint8)
    if syms.size == 0:
        return lengths
    if syms.size == 1:
        lengths[syms[0]] = 1
        return lengths
    heap: list[tuple[int, int, list[int]]] = [
        (int(counts[s]), i, [int(s)]) for i, s in enumerate(syms)
    ]
    heapq.heapify(heap)
    tie = len(heap)
    while len(heap) > 1:
        fa, _, sa = heapq.heappop(heap)
        fb, _, sb = heapq.heappop(heap)
        for s in sa:
            lengths[s] += 1
        for s in sb:
            lengths[s] += 1
        heapq.heappush(heap, (fa + fb, tie, sa + sb))
        tie += 1
    return lengths


def _canonical_code_table(
    lengths: np.ndarray,
) -> list[tuple[int, int, int]]:
    """Canonical codes from code lengths: ``(symbol, length, code)``.

    Symbols sort by (length, symbol); codes count up within a length
    and left-shift on every length increase — the standard canonical
    construction, so the 65-byte length table alone reproduces the
    codebook at decode time.
    """
    order = sorted((int(L), s) for s, L in enumerate(lengths) if L)
    table: list[tuple[int, int, int]] = []
    code = -1
    prev_len = 0
    for length, sym in order:
        code = (code + 1) << (length - prev_len)
        prev_len = length
        table.append((sym, length, code))
    return table


class EntropyCodec(LosslessIntCodec):
    """Canonical-Huffman entropy coder over delta bit-widths.

    The delta-bitpack codec spends one width per *block*; this codec
    spends a Huffman code per *delta*, coding each delta as its width
    symbol followed by ``width - 1`` raw low bits (the top bit of a
    ``width``-bit value is implicitly 1).  On Zipf-sorted unique index
    vectors the width distribution is sharply peaked, so the per-delta
    cost approaches ``H(width) + E[width - 1]`` bits — measurably below
    the per-block packed width.  Falls back to a raw frame whenever the
    coded payload would not beat the input bytes, preserving the
    ``encoded <= raw + FRAME_HEADER_BYTES`` bound.

    Payload layout (after the shared frame header)::

        8 bytes    first value (<i8)
        65 bytes   canonical code lengths for width symbols 0..64
        8 bytes    bitstream length in bits (u64, little-endian)
        k bytes    packed bitstream (``np.packbits`` bit order)
    """

    @property
    def name(self) -> str:
        """Short stable name used in registries and ledger scopes."""
        return "entropy"

    def encode(self, arr: np.ndarray) -> np.ndarray:
        """Encode one index vector into a self-delimiting uint8 frame."""
        dtype = _check_input(arr)
        n = arr.size
        if n == 0:
            return _frame_bytes(_KIND_ENTROPY, dtype, 0, b"")
        if n == 1:
            # No deltas to code; the 81-byte payload floor always loses.
            return _raw_frame(arr, dtype)
        v, zz = _modular_deltas(arr)
        widths = _bit_length_u64(zz)
        counts = np.bincount(widths, minlength=_N_WIDTH_SYMBOLS)
        lengths = _huffman_code_lengths(counts)
        codes = np.zeros(_N_WIDTH_SYMBOLS, dtype=np.uint64)
        for sym, _length, code in _canonical_code_table(lengths):
            codes[sym] = code
        per_delta_bits = lengths[widths].astype(np.int64) + np.maximum(
            widths - 1, 0
        )
        offsets = np.zeros(per_delta_bits.size, dtype=np.int64)
        np.cumsum(per_delta_bits[:-1], out=offsets[1:])
        total_bits = int(per_delta_bits.sum())
        bits = np.zeros(total_bits, dtype=np.uint8)
        for sym in np.flatnonzero(counts):
            mask = widths == sym
            off = offsets[mask]
            length = int(lengths[sym])
            code = int(codes[sym])
            for j in range(length):
                if (code >> (length - 1 - j)) & 1:
                    bits[off + j] = 1
            if sym > 1:
                vals = zz[mask]
                for j in range(int(sym) - 1):
                    bits[off + length + j] = (
                        (vals >> np.uint64(int(sym) - 2 - j)) & _U64_ONE
                    ).astype(np.uint8)
        payload = (
            np.array([v[0]], dtype="<i8").tobytes()
            + lengths.tobytes()
            + int(total_bits).to_bytes(8, "little")
            + np.packbits(bits).tobytes()
        )
        if len(payload) >= arr.nbytes:
            return _raw_frame(arr, dtype)
        return _frame_bytes(_KIND_ENTROPY, dtype, n, payload)

    def estimate_nbytes(self, arr: np.ndarray, sample: int = 1024) -> int:
        """Cheap encoded-size estimate from a strided sorted sample.

        Same conservative construction as the delta codec's estimator:
        striding a sorted vector multiplies typical deltas by the
        stride, over-stating widths and therefore the coded size.
        """
        _check_input(arr)
        if arr.size <= 1:
            return FRAME_HEADER_BYTES + arr.nbytes
        stride = max(1, arr.size // sample)
        probe = np.sort(arr[::stride])
        est = self.encode(probe).size / probe.size * arr.size
        return int(min(est, FRAME_HEADER_BYTES + arr.nbytes))


def _decode_rle_payload(raw: bytes, offset: int, n: int) -> tuple[np.ndarray, int]:
    """Decode a run-length payload; return (uint64 values, new offset)."""
    n_runs = int.from_bytes(raw[offset:offset + 8], "little")
    offset += 8
    starts = np.frombuffer(raw, dtype="<i8", count=n_runs, offset=offset)
    offset += 8 * n_runs
    lengths = np.frombuffer(raw, dtype="<u8", count=n_runs, offset=offset)
    offset += 8 * n_runs
    if n_runs == 0 or lengths.min() == 0 or lengths.max() > n or int(
        lengths.sum()
    ) != n:
        raise ValueError("corrupt run-length frame: run lengths do not sum to n")
    su = starts.astype(np.int64).view(np.uint64)
    lu = lengths.astype(np.uint64)
    steps = np.ones(n, dtype=np.uint64)
    steps[0] = su[0]
    if n_runs > 1:
        firsts = np.cumsum(lu)[:-1].astype(np.intp)
        steps[firsts] = su[1:] - (su[:-1] + lu[:-1] - _U64_ONE)
    return np.cumsum(steps), offset


def _decode_entropy_payload(
    raw: bytes, offset: int, n: int
) -> tuple[np.ndarray, int]:
    """Decode an entropy payload; return (uint64 values, new offset)."""
    first = np.frombuffer(raw, dtype="<i8", count=1, offset=offset)
    offset += 8
    lengths = np.frombuffer(
        raw, dtype=np.uint8, count=_N_WIDTH_SYMBOLS, offset=offset
    )
    offset += _N_WIDTH_SYMBOLS
    nbits = int.from_bytes(raw[offset:offset + 8], "little")
    offset += 8
    nbytes = (nbits + 7) // 8
    packed = np.frombuffer(raw, dtype=np.uint8, count=nbytes, offset=offset)
    offset += nbytes
    codebook = {
        (length, code): sym
        for sym, length, code in _canonical_code_table(lengths)
    }
    if n > 1 and not codebook:
        raise ValueError("corrupt entropy frame: empty codebook")
    bits = np.unpackbits(packed, count=nbits).tolist() if nbits else []
    zz = np.empty(n - 1, dtype=np.uint64)
    pos = 0
    lookup = codebook.get
    for i in range(n - 1):
        code = 0
        length = 0
        while True:
            if pos >= nbits:
                raise ValueError("corrupt entropy frame: truncated bitstream")
            code = (code << 1) | bits[pos]
            pos += 1
            length += 1
            sym = lookup((length, code))
            if sym is not None:
                break
        if sym == 0:
            zz[i] = 0
        else:
            val = 1
            for _ in range(sym - 1):
                if pos >= nbits:
                    raise ValueError(
                        "corrupt entropy frame: truncated bitstream"
                    )
                val = (val << 1) | bits[pos]
                pos += 1
            zz[i] = val
    if pos != nbits:
        raise ValueError("corrupt entropy frame: trailing bits")
    u = np.empty(n, dtype=np.uint64)
    u[0] = first.astype(np.int64)[0:1].view(np.uint64)[0]
    if n > 1:
        np.cumsum(_unzigzag(zz), out=u[1:])
        u[1:] += u[0]
    return u, offset


def decode_frames(arr: np.ndarray, dtype: np.dtype) -> np.ndarray:
    """Decode a concatenation of frames back into one index vector.

    ``arr`` is the uint8 buffer an allgather of per-rank frames yields;
    the result is the rank-order concatenation of the original vectors.
    ``dtype`` must match the dtype recorded in every frame — a mismatch
    means the caller lost track of what was encoded, which is an error,
    not a cast.  Any malformed buffer raises ``ValueError``.

    Python walks only the frame headers and the delta width bytes.  Raw
    and delta frames are then decoded together: every raw element and
    every delta frame's first value starts a segment, the packed deltas
    are read with one bit gather, and a segmented uint64 cumsum yields
    the values.  Run-length and entropy frames use their own payload
    decoders.
    """
    if arr.dtype != np.uint8:
        raise ValueError(f"expected a uint8 frame buffer, got {arr.dtype}")
    want = np.dtype(dtype)
    if want not in _DTYPE_CODES:
        raise ValueError(f"frames hold int32/int64 indices, not {want}")
    buf = np.ascontiguousarray(arr).reshape(-1)
    raw = buf.tobytes()
    size = len(raw)
    itemsize = want.itemsize
    raw_spans: list[tuple[int, int, int]] = []  # (byte offset, element offset, n)
    firsts: list[tuple[int, int]] = []  # (byte offset, element offset)
    blocks: list[tuple[int, int, int, int]] = []  # (byte, element, n, width)
    others: list[tuple[int, np.ndarray]] = []  # (element offset, uint64 values)
    total = offset = 0
    while offset < size:
        if offset + FRAME_HEADER_BYTES > size:
            raise ValueError("truncated frame header")
        kind = raw[offset]
        if kind not in (_KIND_RAW, _KIND_DELTA, _KIND_RLE, _KIND_ENTROPY):
            raise ValueError(f"unknown frame kind {kind}")
        frame_dtype = _CODE_DTYPES.get(raw[offset + 1])
        if frame_dtype is None:
            raise ValueError(f"unknown frame dtype code {raw[offset + 1]}")
        if frame_dtype != want:
            raise ValueError(
                f"frame holds {frame_dtype} but decode asked for {want}"
            )
        n = int.from_bytes(raw[offset + 2:offset + 10], "little")
        offset += FRAME_HEADER_BYTES
        if n == 0:
            continue
        if kind == _KIND_RAW:
            if offset + n * itemsize > size:
                raise ValueError("corrupt raw frame: truncated payload")
            raw_spans.append((offset, total, n))
            offset += n * itemsize
        elif kind == _KIND_DELTA:
            if offset + 12 > size:
                raise ValueError("corrupt delta frame: truncated payload")
            block = int.from_bytes(raw[offset:offset + 4], "little")
            if block == 0:
                raise ValueError("corrupt delta frame: block size 0")
            firsts.append((offset + 4, total))
            offset += 12
            done = 1
            while done < n:
                if offset >= size:
                    raise ValueError("corrupt delta frame: truncated payload")
                width = raw[offset]
                if width > 64:
                    raise ValueError(f"corrupt delta frame: width {width} > 64")
                blk_n = min(block, n - done)
                end = offset + 1 + (blk_n * width + 7) // 8
                if end > size:
                    raise ValueError("corrupt delta frame: truncated payload")
                if width:  # a zero-width block is all-zero deltas
                    blocks.append((offset + 1, total + done, blk_n, width))
                offset = end
                done += blk_n
        else:
            decode = (
                _decode_rle_payload if kind == _KIND_RLE else _decode_entropy_payload
            )
            vals, offset = decode(raw, offset, n)
            others.append((total, vals))
        total += n

    steps = np.zeros(total, dtype=np.uint64)
    is_start = np.zeros(total, dtype=bool)
    if raw_spans:
        byte_at, elem_at, count = np.array(raw_spans, dtype=np.int64).T
        elems = _ragged_arange(elem_at, count)
        le = buf[_ragged_arange(byte_at, count * itemsize)].view(
            want.newbyteorder("<")
        )
        steps[elems] = le.astype(np.int64).view(np.uint64)
        is_start[elems] = True
    if firsts:
        byte_at, elem_at = np.array(firsts, dtype=np.int64).T
        le = buf[byte_at[:, None] + np.arange(8)].reshape(-1).view("<i8")
        steps[elem_at] = le.astype(np.int64).view(np.uint64)
        is_start[elem_at] = True
    if blocks:
        byte_at, elem_at, count, width = np.array(blocks, dtype=np.int64).T
        w = np.repeat(width, count)
        local = np.arange(w.size) - np.repeat(_excl_cumsum(count), count)
        words = np.zeros(size // 8 + 2, dtype=">u8")
        words.view(np.uint8)[:size] = buf
        steps[_ragged_arange(elem_at, count)] = _unzigzag(_get_bits(
            words.astype(np.uint64), 8 * np.repeat(byte_at, count) + local * w, w
        ))
    for at, vals in others:
        steps[at:at + vals.size] = vals
        is_start[at:at + vals.size] = True
    # Segmented cumsum: every segment restarts at its start value.
    seg_starts = np.flatnonzero(is_start)
    seg = np.cumsum(is_start) - 1
    run = np.cumsum(np.where(is_start, _U64_ZERO, steps))
    u = run - (run[seg_starts] - steps[seg_starts])[seg]
    return u.view(np.int64).astype(want, copy=False)
