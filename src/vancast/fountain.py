"""Systematic random linear fountain code over GF(256).

A file is split into ``k`` equal-size symbols.  Chunk ids ``0..k-1``
carry the symbols verbatim (the systematic part); ids ``k`` and above
carry random linear combinations of all ``k`` symbols.  The combination
coefficients are derived deterministically from the chunk id alone, so
a receiver never needs the coefficient vector on the wire: any set of
chunks whose derived coefficient matrix reaches rank ``k`` decodes the
file exactly.

Field arithmetic uses the AES polynomial x^8 + x^4 + x^3 + x + 1
(0x11B): addition is XOR, and doubling is a shift reduced by it
(:func:`_double`), the field's one definition here.  The dense tables
``GF_MUL[a, b]`` and ``GF_INV[a]`` that elimination reads are built at
import time by :func:`gf_matmul` from those doublings (``GF_INV[0]`` is
0, as zero has no inverse).

All payload arithmetic is one kernel, :func:`gf_matmul`, a blocked
matrix product that gathers from 4-bit product tables built from
doubled rows.  Encoding is one product of the coded ids' coefficient
rows by the symbols.  Decoding places the held systematic symbols by
index and solves for the missing ones only: a Gauss-Jordan over the
coded rows' coefficients on the missing columns picks the pivot rows
and their inverse, and two products give the symbols, the first over
the known columns only.  The elimination reduces the leading square
block of coded rows first and all of them only when that block is
singular (:func:`_eliminate`).  :func:`decode` is the only code that
turns chunks into file bytes.  :func:`rank` runs the same elimination
without payloads, and :class:`DecoderState` tracks rank chunk by chunk
in a reduced basis that grows by the same pivot step, :func:`_pivot`.
"""

from __future__ import annotations

import hashlib
import math
import struct
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GF_POLY = 0x11B

# Domain-separation key for the coefficient generator.  Changing this
# changes every non-systematic chunk, so it is part of the wire format.
COEFF_KEY = b"vancast/rlc/coeff/v1"

DEFAULT_K = 300
DEFAULT_N = 450


# Rows of X per block of gf_matmul.  A block's product tables take
# _BLOCK × 32 × words × 8 bytes: 0.68 MB at the default 1334-byte symbols,
# so the kernel's scratch stays under 1 MB.
_BLOCK = 16
_BYTE_LOW_BITS = np.uint64(0x0101010101010101)
_BYTE_HIGH_BITS = np.uint64(0xFEFEFEFEFEFEFEFE)
_POLY_LOW = np.uint64(GF_POLY & 0xFF)


def _double(words: np.ndarray) -> np.ndarray:
    """2·x for every byte of a uint64 array, 8 bytes a word at a time.

    Each byte shifts left; bytes whose top bit fell off are reduced by
    the low byte of the field polynomial.
    """
    carry = (words >> 7) & _BYTE_LOW_BITS
    return ((words << 1) & _BYTE_HIGH_BITS) ^ (carry * _POLY_LOW)


def gf_matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix product (m×n)·(n×S) over GF(256), as a (m, S) uint8 array.

    X is taken in blocks of ``_BLOCK`` rows, each row zero-padded to
    whole uint64 words.  For a block, each row X_j gets two 16-entry
    product tables, ``tab[h, v, j] = (v << 4h)·X_j``: entries 1, 2, 4 and
    8 of the two halves are the 8 doublings 2^t·X_j, and every other
    entry is the XOR of two built before it, since a·x is the XOR of
    2^t·x over the set bits t of a.  Each column j then adds to every
    output row at once the entry of A[i, j]'s low four bits and the
    entry of its high four bits, by two gathers (split tables, after
    Plank, Greenan & Miller, FAST 2013).
    """
    a = np.asarray(a, dtype=np.uint8)
    x = np.asarray(x, dtype=np.uint8)
    if a.ndim != 2 or x.ndim != 2 or a.shape[1] != x.shape[0]:
        raise ValueError(f"cannot multiply shapes {a.shape} and {x.shape}")
    m, n = a.shape
    size = x.shape[1]
    words = -(-size // 8)
    out = np.zeros((m, words), dtype=np.uint64)
    tab = np.zeros((2, 16, min(n, _BLOCK), words), dtype=np.uint64)
    padded = tab.view(np.uint8)
    for b0 in range(0, n, _BLOCK):
        nb = min(_BLOCK, n - b0)
        block = tab[:, :, :nb]
        padded[0, 1, :nb, :size] = x[b0 : b0 + nb]
        for t in range(1, 8):
            block[t // 4, 1 << t % 4] = _double(block[(t - 1) // 4, 1 << (t - 1) % 4])
        for w in (2, 4, 8):
            np.bitwise_xor(block[:, w, None], block[:, 1:w], out=block[:, w + 1 : 2 * w])
        col = a[:, b0 : b0 + nb].T
        low, high = (col & 15).astype(np.intp), (col >> 4).astype(np.intp)
        for j in range(nb):
            out ^= block[0, :, j][low[j]]
            out ^= block[1, :, j][high[j]]
    return out.view(np.uint8)[:, :size]


# Every product a·b as one gf_matmul of the column 0..255 by the row
# 0..255, and each inverse as the b with a·b = 1 (none for 0, read as 0).
GF_MUL = gf_matmul(np.arange(256)[:, None], np.arange(256)[None, :])
GF_INV = np.argmax(GF_MUL == 1, axis=1).astype(np.uint8)


def derive_coefficients(chunk_id: int, k: int) -> np.ndarray:
    """Coefficient vector (length k, dtype uint8) for a chunk id.

    Ids below ``k`` map to unit vectors.  Higher ids are expanded with
    SHA-256 in counter mode, keyed by ``COEFF_KEY`` and the id, so both
    ends of a transfer derive identical vectors with no shared state.
    The all-zero draw (probability 256**-k) is rejected and retried
    with an incremented attempt counter.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if chunk_id < 0:
        raise ValueError(f"chunk_id must be >= 0, got {chunk_id}")
    if chunk_id < k:
        vec = np.zeros(k, dtype=np.uint8)
        vec[chunk_id] = 1
        return vec
    return np.frombuffer(_coeff_bytes(chunk_id, k), dtype=np.uint8).copy()


@lru_cache(maxsize=4096)
def _coeff_bytes(chunk_id: int, k: int) -> bytes:
    for attempt in range(256):
        blocks = []
        need = (k + 31) // 32
        for counter in range(need):
            h = hashlib.sha256(
                COEFF_KEY + struct.pack("<QII", chunk_id, attempt, counter)
            )
            blocks.append(h.digest())
        raw = b"".join(blocks)[:k]
        if any(raw):
            return raw
    raise RuntimeError("coefficient generator returned 256 all-zero vectors")


@dataclass(frozen=True)
class CodedChunk:
    """One transferable unit: a chunk id plus its payload bytes."""

    chunk_id: int
    payload: bytes

    def to_wire(self) -> bytes:
        """Serialize as a 4-byte little-endian id followed by the payload."""
        return struct.pack("<I", self.chunk_id) + self.payload

    @classmethod
    def from_wire(cls, record: bytes) -> "CodedChunk":
        if len(record) < 5:
            raise ValueError(f"wire record too short: {len(record)} bytes")
        (chunk_id,) = struct.unpack_from("<I", record)
        return cls(chunk_id, record[4:])

    @property
    def wire_size(self) -> int:
        return 4 + len(self.payload)


def encode(
    data: bytes,
    k: int = DEFAULT_K,
    n: int = DEFAULT_N,
    symbol_size: int | None = None,
) -> list[CodedChunk]:
    """Produce the n coded chunks (ids 0..n-1) for a file.

    The file is zero-padded to k symbols of ``symbol_size`` bytes (by
    default the fewest that hold it); the first k chunks are those
    symbols and the rest are GF(256) linear combinations under
    :func:`derive_coefficients`, computed as one :func:`gf_matmul` of
    their coefficient rows by the symbols.
    """
    if n < k:
        raise ValueError(f"need n >= k, got n={n} k={k}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if len(data) == 0:
        raise ValueError("cannot encode an empty file")
    if symbol_size is None:
        symbol_size = math.ceil(len(data) / k)
    if symbol_size < 1:
        raise ValueError(f"symbol_size must be >= 1, got {symbol_size}")
    if len(data) > k * symbol_size:
        raise ValueError(
            f"file of {len(data)} bytes does not fit in "
            f"{k} symbols of {symbol_size} bytes"
        )
    syms = np.zeros((k, symbol_size), dtype=np.uint8)
    syms.reshape(-1)[: len(data)] = np.frombuffer(data, dtype=np.uint8)
    coded = gf_matmul(_coefficient_rows(range(k, n), k), syms)
    return [CodedChunk(i, syms[i].tobytes()) for i in range(k)] + [
        CodedChunk(k + j, row.tobytes()) for j, row in enumerate(coded)
    ]


class RankDeficientError(ValueError):
    """Decode attempted with fewer than k independent chunks."""

    def __init__(self, rank: int, k: int):
        super().__init__(f"coefficient matrix has rank {rank}, need {k}")
        self.rank = rank
        self.k = k


def _coefficient_rows(ids, k: int) -> np.ndarray:
    """Read-only (len(ids), k) coefficient matrix of coded ids (all >= k)."""
    raw = b"".join(_coeff_bytes(int(cid), k) for cid in ids)
    return np.frombuffer(raw, dtype=np.uint8).reshape(-1, k)


def _pivot(rows: np.ndarray, p: int, c: int) -> None:
    """Scale row p to a leading 1 at column c and clear column c from the
    other rows, in place.  Row p must be zero left of c: only columns c
    onward change."""
    col = rows[:, c]
    lead = rows[p, c]
    if lead != 1:
        rows[p, c:] = GF_MUL[GF_INV[lead], rows[p, c:]]
    hit = np.flatnonzero(col)
    hit = hit[hit != p]
    if hit.size:
        rows[hit, c:] ^= np.take(GF_MUL[col[hit]], rows[p, c:], axis=1)


def _gauss_jordan(rows: np.ndarray, ncols: int) -> np.ndarray:
    """Reduce ``rows`` in place to reduced echelon form on its first ncols columns.

    Row operations run across the full width, so columns to the right
    of ``ncols`` ride along (an identity block there ends up holding
    the inverse).  The pivot of each column is the first row, in row
    order, not yet used as a pivot with a nonzero entry there.  Returns
    the pivot row of each of the ncols columns, -1 where there is none;
    the rank is the number of pivots.
    """
    free = np.ones(len(rows), dtype=bool)
    pivots = np.full(ncols, -1, dtype=np.intp)
    for c in range(ncols):
        cand = np.flatnonzero(free & (rows[:, c] != 0))
        if cand.size == 0:
            continue
        p = cand[0]
        free[p] = False
        pivots[c] = p
        _pivot(rows, p, c)
    return pivots


def _eliminate(
    coeffs: np.ndarray, miss: np.ndarray, inverse: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Jordan of the rows of ``coeffs`` on the columns ``miss``,
    the leading square block first.

    With r = |miss|, the first r rows are reduced alone, and all rows only
    when those are singular (about 1 time in 256 for random rows).  As
    pivots go to the first free row in row order, a nonsingular leading
    block gets the pivots all rows would, so the rank is exact either
    way.  With ``inverse``, the reduced rows are augmented with an
    identity, which ends up holding the inverse of the pivot rows'
    square block.  Returns the reduced rows and, as
    :func:`_gauss_jordan` does, the pivot row of each column.
    """
    r = miss.size
    for rows in (coeffs[:r], coeffs):
        c = len(rows)
        work = np.zeros((c, r + c if inverse else r), dtype=np.uint8)
        work[:, :r] = rows[:, miss]
        if inverse:
            work[:, r:] = np.eye(c, dtype=np.uint8)
        pivots = _gauss_jordan(work, r)
        if c == len(coeffs) or (pivots >= 0).all():
            return work, pivots


def _solve(
    symbols: np.ndarray, known: np.ndarray, coeffs: np.ndarray, payloads: np.ndarray
) -> None:
    """Fill the rows of ``symbols`` not flagged in ``known``, in place.

    ``known`` flags the columns K whose symbols are already placed;
    ``coeffs`` and ``payloads`` are the other received rows, with
    ``coeffs · symbols = payloads``.  With M the missing columns, one
    elimination over the coefficients on M (:func:`_eliminate`, with the
    inverse) picks r = |M| pivot rows and the inverse of their square
    block B, and two matrix products finish the job:

        S_M = B^-1 · (P ⊕ A_K · S_K)

    over the pivot rows and the known columns only.  Raises
    :class:`RankDeficientError` with rank |K| + rank(coeffs on M) when
    the rows do not span.
    """
    miss = np.flatnonzero(~known)
    r = miss.size
    work, pivots = _eliminate(coeffs, miss, inverse=True)
    found = int(np.count_nonzero(pivots >= 0))
    if found < r:
        raise RankDeficientError(len(known) - r + found, len(known))
    rhs = payloads[pivots] ^ gf_matmul(coeffs[np.ix_(pivots, known)], symbols[known])
    symbols[miss] = gf_matmul(work[pivots][:, r + pivots], rhs)


def _split_ids(ids: list[int], k: int) -> tuple[np.ndarray, int]:
    """Known-column mask of sorted distinct ids, and where their coded suffix starts."""
    if ids and ids[0] < 0:
        raise ValueError(f"chunk ids must be >= 0, got {ids[0]}")
    s = bisect_left(ids, k)
    known = np.zeros(k, dtype=bool)
    known[ids[:s]] = True
    return known, s


def rank(ids, k: int) -> int:
    """Rank of the coefficient rows of a set of chunk ids (duplicates ignored).

    It is the number of distinct systematic ids plus the rank of the
    coded ids' coefficients on the missing systematic columns, found by
    the elimination :func:`decode` uses (:func:`_eliminate`), with no
    payload work.  The set decodes iff the rank is k.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    ids = sorted({int(cid) for cid in ids})
    known, s = _split_ids(ids, k)
    miss = np.flatnonzero(~known)
    if miss.size == 0 or s == len(ids):
        return s
    _, pivots = _eliminate(_coefficient_rows(ids[s:], k), miss, inverse=False)
    return s + int(np.count_nonzero(pivots >= 0))


class DecoderState:
    """Incremental rank of received chunks over GF(256).

    Rows are absorbed one at a time into a fully reduced basis, whose
    rows each have a 1 at their pivot column and 0 at every other one.
    A new row is reduced against all the pivots it hits at once; what is
    left, if anything, joins the basis by :func:`_pivot`.  So the rank
    is known after every absorb.  Payloads take no part: a receiver
    stops at rank k and passes the chunks whose absorb returned True to
    :func:`decode`.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self.k = k
        self.rank = 0
        # The reduced basis, and each basis row's pivot column.
        self._basis = np.zeros((k, k), dtype=np.uint8)
        self._pivots = np.zeros(k, dtype=np.intp)

    @property
    def is_complete(self) -> bool:
        return self.rank >= self.k

    def absorb(self, chunk: CodedChunk) -> bool:
        """Absorb a coded chunk.  Returns True if it raised the rank."""
        return self.absorb_row(derive_coefficients(chunk.chunk_id, self.k))

    def absorb_row(self, coeffs: np.ndarray) -> bool:
        """Absorb a raw coefficient row.  Returns True if it raised the rank."""
        k = self.k
        if np.shape(coeffs) != (k,):
            raise ValueError(
                f"coeffs has shape {np.shape(coeffs)}, decoder expects ({k},)"
            )
        values = np.asarray(coeffs)
        if values.dtype.kind not in "iu" or ((values < 0) | (values > 255)).any():
            raise ValueError(f"coeffs must be integers in 0..255, got {values.dtype} "
                             f"from {values.min()} to {values.max()}")
        if self.is_complete:
            return False

        r = self.rank
        basis, pivots = self._basis[:r], self._pivots[:r]
        row = np.array(coeffs, dtype=np.uint8)
        f = row[pivots]
        # Subtract f·basis, which leaves 0 at every pivot column.  A unit
        # basis row changes nothing else, so only the other rows hit need
        # the product.
        hit = np.flatnonzero(f)
        dense = hit[np.count_nonzero(basis[hit], axis=1) > 1]
        row ^= np.bitwise_xor.reduce(GF_MUL[f[dense, None], basis[dense]], axis=0)
        row[pivots] = 0
        nz = np.flatnonzero(row)
        if nz.size == 0:
            return False
        self._basis[r] = row
        self._pivots[r] = nz[0]
        _pivot(self._basis[: r + 1], r, nz[0])
        self.rank += 1
        return True


def decode(chunks: list[CodedChunk], k: int, original_len: int) -> bytes:
    """Recover the original file from any rank-k set of chunks.

    The chunks are taken in id order.  If all k systematic chunks are
    held, their payloads are the file; otherwise they are placed by
    index, and the coded ones solve for the missing symbols only (see
    :func:`_solve`).  Raises :class:`RankDeficientError`
    (carrying the achieved rank) if the set does not span, and
    ValueError for malformed input: no chunks, duplicate or negative
    ids, or mismatched payload sizes.
    """
    if not chunks:
        raise ValueError("no chunks to decode")
    chunks = sorted(chunks, key=lambda c: c.chunk_id)
    ids = [c.chunk_id for c in chunks]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate chunk ids in decode input")
    sizes = {len(c.payload) for c in chunks}
    if len(sizes) != 1:
        raise ValueError(f"mixed payload sizes in decode input: {sorted(sizes)}")
    symbol_size = sizes.pop()
    if original_len < 1 or original_len > k * symbol_size:
        raise ValueError(
            f"original_len {original_len} impossible for k={k}, "
            f"symbol_size={symbol_size}"
        )
    known, s = _split_ids(ids, k)
    if s == k:
        # The systematic chunks are the file: no coded payload is read.
        return b"".join(c.payload for c in chunks[:k])[:original_len]
    payloads = np.frombuffer(b"".join(c.payload for c in chunks), dtype=np.uint8)
    payloads = payloads.reshape(-1, symbol_size)
    symbols = np.zeros((k, symbol_size), dtype=np.uint8)
    symbols[known] = payloads[:s]
    _solve(symbols, known, _coefficient_rows(ids[s:], k), payloads[s:])
    return symbols.reshape(-1)[:original_len].tobytes()


def chunks_to_wire(chunks: list[CodedChunk]) -> bytes:
    """Concatenate fixed-size wire records (ids must share a payload size)."""
    return b"".join(c.to_wire() for c in chunks)


def wire_to_chunks(data: bytes, symbol_size: int) -> list[CodedChunk]:
    """Split a byte string into wire records of 4 + symbol_size bytes."""
    if symbol_size < 1:
        raise ValueError(f"symbol_size must be >= 1, got {symbol_size}")
    record = 4 + symbol_size
    if len(data) % record != 0:
        raise ValueError(
            f"wire stream of {len(data)} bytes is not a whole number of "
            f"{record}-byte records"
        )
    return [
        CodedChunk.from_wire(data[off : off + record])
        for off in range(0, len(data), record)
    ]
