"""Fountain codec tests.

The field arithmetic is checked against an independent bit-level
multiplier, and decoder ranks against a from-scratch elimination that
shares no code with the package.
"""

import hashlib

import numpy as np
import pytest

from vancast.fountain import (
    CodedChunk,
    DecoderState,
    GF_INV,
    GF_MUL,
    RankDeficientError,
    chunks_to_wire,
    decode,
    derive_coefficients,
    encode,
    rank,
    wire_to_chunks,
)


def slow_mul(a, b):
    """Carry-less multiply with polynomial reduction, one bit at a time."""
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
        b >>= 1
    return acc


def slow_inv(a):
    for c in range(1, 256):
        if slow_mul(a, c) == 1:
            return c
    raise AssertionError(f"{a} has no inverse")


def oracle_rank(rows):
    """Row rank over GF(256) by plain elimination, using slow_mul only."""
    work = [list(r) for r in rows]
    n_cols = len(work[0])
    rank = 0
    for col in range(n_cols):
        pivot = None
        for i in range(rank, len(work)):
            if work[i][col]:
                pivot = i
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = slow_inv(work[rank][col])
        work[rank] = [slow_mul(inv, v) for v in work[rank]]
        for i in range(len(work)):
            if i != rank and work[i][col]:
                f = work[i][col]
                work[i] = [v ^ slow_mul(f, p) for v, p in zip(work[i], work[rank])]
        rank += 1
    return rank


# --- field arithmetic -------------------------------------------------------


def test_known_product_and_inverse():
    # 0x53 * 0xCA = 1 under the 0x11B polynomial.
    assert GF_MUL[0x53, 0xCA] == 0x01
    assert GF_INV[0x53] == 0xCA
    assert GF_INV[0xCA] == 0x53


def test_mul_table_matches_bit_oracle_everywhere():
    expect = np.array(
        [[slow_mul(a, b) for b in range(256)] for a in range(256)], dtype=np.uint8
    )
    assert np.array_equal(GF_MUL, expect)


def test_field_axioms_random_triples():
    rng = np.random.default_rng(2024)
    triples = rng.integers(0, 256, size=(10_000, 3))
    for a, b, c in triples:
        a, b, c = int(a), int(b), int(c)
        assert GF_MUL[a, b] == GF_MUL[b, a]
        assert GF_MUL[a, GF_MUL[b, c]] == GF_MUL[GF_MUL[a, b], c]
        # addition is XOR, and multiplication distributes over it
        assert GF_MUL[a, b ^ c] == GF_MUL[a, b] ^ GF_MUL[a, c]
    assert GF_MUL[0, 173] == 0
    assert GF_MUL[1, 173] == 173


def test_every_nonzero_element_has_inverse():
    for a in range(1, 256):
        assert GF_MUL[a, GF_INV[a]] == 1


def test_inverse_of_zero_rejected():
    # zero has no inverse: no product with it is 1, and its table entry is 0
    assert not (GF_MUL[0] == 1).any()
    assert GF_INV[0] == 0


def test_tables_are_contiguous_uint8():
    # _pivot XORs rows gathered from GF_MUL into uint8 rows in place, and
    # value comparisons alone would not see another dtype.
    assert GF_MUL.dtype == np.uint8 and GF_MUL.shape == (256, 256)
    assert GF_MUL.flags.c_contiguous
    assert GF_INV.dtype == np.uint8 and GF_INV.shape == (256,)


# --- coefficient derivation -------------------------------------------------


def test_low_ids_are_unit_vectors():
    k = 30
    for cid in range(k):
        vec = derive_coefficients(cid, k)
        assert vec[cid] == 1
        assert int(vec.sum()) == 1


def test_high_ids_deterministic_and_nonzero():
    a = derive_coefficients(310, 300)
    b = derive_coefficients(310, 300)
    assert np.array_equal(a, b)
    assert a.shape == (300,)
    assert a.any()
    # distinct ids give distinct vectors (overwhelmingly; frozen here)
    c = derive_coefficients(311, 300)
    assert not np.array_equal(a, c)


def test_coefficient_argument_validation():
    with pytest.raises(ValueError):
        derive_coefficients(-1, 10)
    with pytest.raises(ValueError):
        derive_coefficients(0, 0)


# --- encode -----------------------------------------------------------------


def test_encode_is_systematic():
    data = bytes(range(200))
    chunks = encode(data, k=10, n=15)
    assert len(chunks) == 15
    assert [c.chunk_id for c in chunks] == list(range(15))
    joined = b"".join(c.payload for c in chunks[:10])
    assert joined == data  # 200 bytes split exactly into 10 * 20


def test_encode_pads_last_symbol():
    data = b"\x01\x02\x03"
    chunks = encode(data, k=2, n=3, symbol_size=2)
    assert chunks[0].payload == b"\x01\x02"
    assert chunks[1].payload == b"\x03\x00"


def test_encode_input_validation():
    with pytest.raises(ValueError):
        encode(b"", k=4, n=6)
    with pytest.raises(ValueError):
        encode(b"x" * 100, k=4, n=3)  # n < k
    with pytest.raises(ValueError):
        encode(b"x" * 100, k=4, n=6, symbol_size=10)  # 100 > 4*10


@pytest.mark.parametrize(
    "size, k, n, digest",
    [
        (400_000, 300, 450, "b7e222832ea7b1e1f779e294494098cdcf7700a06894269db8a1d23802bf5a2d"),
        (1000, 77, 131, "659741dccf5e23ac9362b884ac58236e47c7459a86147eba65d82b0845418821"),
    ],
)
def test_encode_wire_bytes_pinned(size, k, n, digest):
    """Coded payloads are part of the wire format: pin them to the byte.

    The digests were recorded with the per-chunk table-lookup encoder
    that preceded gf_matmul.  The second geometry has 13-byte symbols,
    which do not fill whole 8-byte words.
    """
    data = np.random.default_rng(size).integers(0, 256, size=size, dtype=np.uint8).tobytes()
    wire = chunks_to_wire(encode(data, k=k, n=n))
    assert hashlib.sha256(wire).hexdigest() == digest


def test_encode_infers_symbol_size():
    data = bytes(range(256)) + bytes(range(145))
    chunks = encode(data, k=4, n=6)
    assert {len(c.payload) for c in chunks} == {101}  # ceil(401 / 4)
    assert decode(chunks[2:], 4, len(data)) == data


# --- decode round trips -----------------------------------------------------


@pytest.mark.parametrize("length", [1, 1333, 1334, 400_000])
def test_roundtrip_systematic_default_geometry(length):
    rng = np.random.default_rng(length)
    data = rng.integers(0, 256, size=length, dtype=np.uint8).tobytes()
    chunks = encode(data)
    assert decode(chunks[:300], 300, length) == data


def test_roundtrip_random_subsets_small():
    rng = np.random.default_rng(99)
    data = rng.integers(0, 256, size=5000, dtype=np.uint8).tobytes()
    chunks = encode(data, k=25, n=40)
    for _ in range(30):
        picks = rng.choice(40, size=25, replace=False)
        subset = [chunks[int(i)] for i in picks]
        assert decode(subset, 25, len(data)) == data


def test_roundtrip_random_subset_full_geometry():
    rng = np.random.default_rng(7)
    data = rng.integers(0, 256, size=400_000, dtype=np.uint8).tobytes()
    chunks = encode(data)
    picks = rng.choice(450, size=300, replace=False)
    subset = [chunks[int(i)] for i in picks]
    assert decode(subset, 300, 400_000) == data


def test_decode_out_of_order_subsets():
    """Chunk order does not matter: shuffled subsets of every size decode."""
    rng = np.random.default_rng(8080)
    data = rng.integers(0, 256, size=4321, dtype=np.uint8).tobytes()
    k, n = 40, 90
    chunks = encode(data, k=k, n=n)
    for size in (k, k + 1, 55, n):
        for _ in range(6):
            picks = rng.permutation(n)[:size]
            subset = [chunks[int(i)] for i in picks]
            if rank(picks, k) == k:
                assert decode(subset, k, len(data)) == data
            else:
                with pytest.raises(RankDeficientError):
                    decode(subset, k, len(data))
    # only coded chunks, in reverse id order
    assert decode(chunks[:k - 1:-1], k, len(data)) == data


def test_decode_falls_back_to_every_row_when_the_leading_square_is_singular():
    """Holding ids 0 and 1 of k = 4 leaves columns 2 and 3 missing.  The
    first two coded ids, 5 and 90, are dependent on them, so the leading
    square block is singular; id 91 makes the whole set span."""
    rng = np.random.default_rng(2013)
    data = rng.integers(0, 256, size=37, dtype=np.uint8).tobytes()
    k = 4
    chunks = encode(data, k=k, n=92)
    c5, c90 = derive_coefficients(5, k).tolist(), derive_coefficients(90, k).tolist()
    assert slow_mul(c5[2], c90[3]) == slow_mul(c5[3], c90[2])  # singular on columns 2, 3
    assert oracle_rank([c5[2:], c90[2:]]) == 1
    held = [chunks[i] for i in (91, 0, 90, 1, 5)]
    assert rank([c.chunk_id for c in held], k) == k
    assert decode(held, k, len(data)) == data
    with pytest.raises(RankDeficientError) as err:
        decode(held[1:], k, len(data))
    assert err.value.rank == rank([0, 1, 5, 90], k) == 3


def test_299_chunks_never_enough():
    """One chunk short of the threshold can never span the symbol space."""
    rng = np.random.default_rng(31)
    data = rng.integers(0, 256, size=3000, dtype=np.uint8).tobytes()
    k, n = 30, 45
    chunks = encode(data, k=k, n=n)
    for _ in range(20):
        picks = rng.choice(n, size=k - 1, replace=False)
        subset = [chunks[int(i)] for i in picks]
        with pytest.raises(RankDeficientError) as err:
            decode(subset, k, len(data))
        assert err.value.rank <= k - 1


def test_decode_input_validation():
    data = b"q" * 64
    chunks = encode(data, k=4, n=8)
    with pytest.raises(ValueError):
        decode([], 4, 64)
    with pytest.raises(ValueError):
        decode([chunks[0], chunks[0], chunks[1], chunks[2]], 4, 64)
    odd = CodedChunk(3, chunks[3].payload + b"\x00")
    with pytest.raises(ValueError):
        decode([chunks[0], chunks[1], chunks[2], odd], 4, 64)
    with pytest.raises(ValueError):
        decode(chunks[:4], 4, 10_000)  # original_len too large
    with pytest.raises(ValueError, match=">= 0"):
        decode([CodedChunk(-1, chunks[0].payload)] + chunks[1:5], 4, 64)


# --- incremental decoder state ----------------------------------------------


def test_rank_monotone_and_matches_oracle():
    """Absorb random rows; rank must match a from-scratch elimination."""
    rng = np.random.default_rng(5150)
    k = 10
    for _ in range(40):
        state = DecoderState(k)
        absorbed = []
        prev_rank = 0
        for _ in range(14):
            row = rng.integers(0, 256, size=k, dtype=np.uint8)
            grew = state.absorb_row(row.copy())
            absorbed.append([int(v) for v in row])
            assert state.rank - prev_rank in (0, 1)
            assert grew == (state.rank == prev_rank + 1)
            assert state.rank == oracle_rank(absorbed)
            prev_rank = state.rank


def test_absorb_after_complete_is_noop():
    state = DecoderState(4)
    for cid in range(4):
        assert state.absorb_row(derive_coefficients(cid, 4))
    assert state.is_complete
    assert not state.absorb_row(derive_coefficients(7, 4))
    assert state.rank == 4


def test_dependent_row_does_not_raise_rank():
    state = DecoderState(6)
    r1 = derive_coefficients(8, 6)
    assert state.absorb_row(r1.copy())
    assert not state.absorb_row(r1.copy())  # the same row again
    # a GF-scaled copy is dependent too
    scaled = GF_MUL[np.uint8(17), r1]
    assert not state.absorb_row(scaled)
    assert state.rank == 1


def test_absorb_row_rejects_bad_shapes():
    state = DecoderState(3)
    with pytest.raises(ValueError, match="coeffs"):
        state.absorb_row(np.array([1, 0], dtype=np.uint8))
    with pytest.raises(ValueError, match="coeffs"):
        state.absorb_row(np.zeros((3, 1), dtype=np.uint8))
    with pytest.raises(ValueError, match="coeffs"):
        state.absorb_row(np.zeros(4, dtype=np.uint8))
    assert state.rank == 0


@pytest.mark.parametrize("coeffs", [[256, 0], [1.7, 0], [-1, 0], [1.0, 0], [True, False]])
def test_absorb_row_rejects_coefficients_outside_gf256(coeffs):
    state = DecoderState(2)
    with pytest.raises(ValueError, match="coeffs must be integers in 0..255"):
        state.absorb_row(np.array(coeffs))
    assert state.rank == 0
    # any integer dtype holding 0..255 is taken
    assert state.absorb_row(np.array([255, 0], dtype=np.int64))
    assert state.absorb_row([0, 1])


def _incremental_rank(ids, k):
    state = DecoderState(k)
    for cid in sorted(ids):
        state.absorb_row(derive_coefficients(cid, k))
    return state.rank


def test_batch_rank_matches_incremental_and_oracle():
    rng = np.random.default_rng(6060)
    k, n = 6, 300
    deficient = 0
    for trial in range(1500):
        size = int(rng.integers(1, 10)) if trial % 10 == 0 else k
        ids = [int(i) for i in rng.choice(n, size=size, replace=False)]
        got = rank(ids, k)
        assert got == _incremental_rank(ids, k)
        if got < k or trial % 50 == 0:
            rows = [[int(v) for v in derive_coefficients(cid, k)] for cid in ids]
            assert got == oracle_rank(rows)
        deficient += got < min(k, size)
    # square coded blocks are singular with probability about 1/255
    assert deficient > 0


def test_batch_rank_finds_deficient_300_sets():
    rng = np.random.default_rng(2026)
    k, n = 300, 450
    found = 0
    for _ in range(1000):
        ids = rng.choice(n, size=k, replace=False)
        got = rank(ids, k)
        if got < k:
            assert got == _incremental_rank([int(i) for i in ids], k)
            found += 1
            if found == 2:
                break
    assert found == 2
    ids = list(range(k - 20)) + list(range(k, k + 10))
    assert rank(ids, k) == _incremental_rank(ids, k) == k - 10
    assert rank(ids + ids[:5], k) == k - 10  # duplicates ignored
    assert rank(range(n), k) == k


def test_rank_argument_validation():
    with pytest.raises(ValueError):
        rank([0, 1], 0)
    with pytest.raises(ValueError):
        rank([-1, 1], 4)


def test_out_of_order_absorb_still_decodes():
    """Coded chunks arriving before their systematic peers must not hurt."""
    rng = np.random.default_rng(404)
    data = rng.integers(0, 256, size=900, dtype=np.uint8).tobytes()
    k, n = 9, 14
    chunks = encode(data, k=k, n=n)
    order = [12, 13, 0, 10, 4, 2, 11, 8, 1, 9]
    state = DecoderState(k)
    raised = []
    for cid in order:
        if state.absorb(chunks[cid]):
            raised.append(chunks[cid])
        if state.is_complete:
            break
    assert state.is_complete and len(raised) == k
    assert decode(raised, k, len(data)) == data


# --- wire format ------------------------------------------------------------


def test_wire_record_layout():
    chunk = CodedChunk(1, b"ab")
    assert chunk.to_wire() == b"\x01\x00\x00\x00ab"
    assert chunk.wire_size == 6
    back = CodedChunk.from_wire(chunk.to_wire())
    assert back == chunk


def test_wire_stream_roundtrip():
    data = bytes(range(120))
    chunks = encode(data, k=6, n=9)
    blob = chunks_to_wire(chunks)
    assert len(blob) == 9 * (4 + 20)
    back = wire_to_chunks(blob, 20)
    assert back == chunks


def test_wire_stream_rejects_partial_records():
    with pytest.raises(ValueError):
        wire_to_chunks(b"\x00" * 25, 20)
    for size in (-4, -10, 0):
        with pytest.raises(ValueError, match="symbol_size"):
            wire_to_chunks(b"\x00" * 12, size)
    with pytest.raises(ValueError):
        CodedChunk.from_wire(b"\x00\x00")


# --- spanning probability (battery-sized check lives in the acceptance suite)


def test_random_subsets_usually_span():
    rng = np.random.default_rng(1812)
    k, n = 300, 450
    ok = 0
    trials = 60
    for _ in range(trials):
        ids = sorted(int(i) for i in rng.choice(n, size=k, replace=False))
        state = DecoderState(k)
        for cid in ids:
            state.absorb_row(derive_coefficients(cid, k))
            if state.is_complete:
                break
        ok += state.is_complete
    assert ok >= 59  # theory: each subset spans with probability ~0.996
