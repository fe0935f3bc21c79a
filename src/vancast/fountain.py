"""Systematic random linear fountain code over GF(256).

A file is split into ``k`` equal-size symbols.  Chunk ids ``0..k-1``
carry the symbols verbatim (the systematic part); ids ``k`` and above
carry random linear combinations of all ``k`` symbols.  The combination
coefficients are derived deterministically from the chunk id alone, so
a receiver never needs the coefficient vector on the wire: any set of
chunks whose derived coefficient matrix reaches rank ``k`` decodes the
file exactly.

Field arithmetic uses the AES polynomial x^8 + x^4 + x^3 + x + 1
(0x11B): addition is XOR, and products and inverses are read from the
dense tables ``GF_MUL[a, b]`` and ``GF_INV[a]`` built at import time
(``GF_INV[0]`` is 0, as zero has no inverse).
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

GF_POLY = 0x11B

# Domain-separation key for the coefficient generator.  Changing this
# changes every non-systematic chunk, so it is part of the wire format.
COEFF_KEY = b"vancast/rlc/coeff/v1"

DEFAULT_K = 300
DEFAULT_N = 450


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    """Build exp/log tables, then dense mul/inv lookup tables.

    The generator is 3: under the 0x11B polynomial, 2 only generates a
    51-element subgroup, so repeated doubling would not enumerate the
    whole field.
    """
    exp = np.zeros(255, dtype=np.int64)
    log = np.zeros(256, dtype=np.int64)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= x << 1
        if x & 0x100:
            x ^= GF_POLY
    # mul[a, b] = exp[(log a + log b) mod 255], with the zero row/column
    # patched afterwards since log(0) is undefined.
    idx = (log[:, None] + log[None, :]) % 255
    mul = exp[idx].astype(np.uint8)
    mul[0, :] = 0
    mul[:, 0] = 0
    inv = np.zeros(256, dtype=np.uint8)
    inv[1:] = exp[(255 - log[1:]) % 255]
    return mul, inv


GF_MUL, GF_INV = _build_tables()


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
class SourceBlock:
    """A file padded out to k symbols of symbol_size bytes each."""

    k: int
    symbol_size: int
    original_len: int
    symbols: np.ndarray  # shape (k, symbol_size), dtype uint8

    @classmethod
    def from_file(
        cls, data: bytes, k: int = DEFAULT_K, symbol_size: int | None = None
    ) -> "SourceBlock":
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
        buf = np.zeros(k * symbol_size, dtype=np.uint8)
        buf[: len(data)] = np.frombuffer(data, dtype=np.uint8)
        return cls(k, symbol_size, len(data), buf.reshape(k, symbol_size))


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

    The first k chunks are the file symbols themselves; the rest are
    GF(256) linear combinations under :func:`derive_coefficients`.
    """
    if n < k:
        raise ValueError(f"need n >= k, got n={n} k={k}")
    block = SourceBlock.from_file(data, k, symbol_size)
    syms = block.symbols
    chunks = [CodedChunk(i, syms[i].tobytes()) for i in range(k)]
    for cid in range(k, n):
        coeffs = derive_coefficients(cid, k)
        nz = np.flatnonzero(coeffs)
        terms = GF_MUL[coeffs[nz][:, None], syms[nz]]
        payload = np.bitwise_xor.reduce(terms, axis=0)
        chunks.append(CodedChunk(cid, payload.tobytes()))
    return chunks


class RankDeficientError(ValueError):
    """Decode attempted with fewer than k independent chunks."""

    def __init__(self, rank: int, k: int):
        super().__init__(f"coefficient matrix has rank {rank}, need {k}")
        self.rank = rank
        self.k = k


class DecoderState:
    """Incremental Gaussian elimination over GF(256).

    Rows are absorbed one at a time and reduced against the pivots seen
    so far, so the rank is known after every absorb and a decoder can
    stop listening the moment it hits rank k.  Stored pivot rows are
    normalized to a leading 1 but not back-eliminated; ``solve`` runs
    the back-substitution once at the end.
    """

    def __init__(self, k: int, payload_size: int = 0):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if payload_size < 0:
            raise ValueError("payload_size must be >= 0")
        self.k = k
        self.payload_size = payload_size
        self.rank = 0
        self._rows = np.zeros((k, k + payload_size), dtype=np.uint8)
        self._filled = np.zeros(k, dtype=bool)
        # Pivot rows whose coefficient part is exactly a unit vector can
        # all be eliminated in one vectorized pass; with a systematic
        # code they are the common case by far.
        self._unit = np.zeros(k, dtype=bool)

    @property
    def is_complete(self) -> bool:
        return self.rank >= self.k

    def absorb(self, chunk: CodedChunk) -> bool:
        """Absorb a coded chunk.  Returns True if it raised the rank."""
        payload = np.frombuffer(chunk.payload, dtype=np.uint8)
        if len(payload) != self.payload_size:
            raise ValueError(
                f"payload of {len(payload)} bytes, decoder expects "
                f"{self.payload_size}"
            )
        return self.absorb_row(derive_coefficients(chunk.chunk_id, self.k), payload)

    def absorb_row(self, coeffs: np.ndarray, payload: np.ndarray | None = None) -> bool:
        """Absorb a raw (coefficients, payload) row.  True if rank grew."""
        k = self.k
        row = np.zeros(k + self.payload_size, dtype=np.uint8)
        row[:k] = coeffs
        if payload is not None:
            row[k:] = payload

        if self.is_complete:
            return False

        # Fast path: clear every unit-pivot column in one shot.
        hit = np.flatnonzero(self._unit & (row[:k] != 0))
        if hit.size:
            factors = row[hit]
            if self.payload_size:
                terms = GF_MUL[factors[:, None], self._rows[hit, k:]]
                row[k:] ^= np.bitwise_xor.reduce(terms, axis=0)
            row[hit] = 0

        # General elimination against the remaining pivots.
        col = 0
        while True:
            nz = np.flatnonzero(row[col:k])
            if nz.size == 0:
                return False
            col += int(nz[0])
            if not self._filled[col]:
                break
            row ^= GF_MUL[row[col], self._rows[col]]

        lead = int(row[col])
        if lead != 1:
            row = GF_MUL[GF_INV[lead], row]
        self._rows[col] = row
        self._filled[col] = True
        self._unit[col] = int(np.count_nonzero(row[:k])) == 1
        self.rank += 1
        return True

    def solve(self) -> np.ndarray:
        """Back-substitute and return the (k, payload_size) symbol array."""
        if not self.is_complete:
            raise RankDeficientError(self.rank, self.k)
        k = self.k
        symbols = np.zeros((k, self.payload_size), dtype=np.uint8)
        for j in range(k - 1, -1, -1):
            acc = self._rows[j, k:].copy()
            nzcols = np.flatnonzero(self._rows[j, j + 1 : k])
            if nzcols.size:
                nzcols += j + 1
                terms = GF_MUL[self._rows[j, nzcols][:, None], symbols[nzcols]]
                acc ^= np.bitwise_xor.reduce(terms, axis=0)
            symbols[j] = acc
        return symbols


def decode(chunks: list[CodedChunk], k: int, original_len: int) -> bytes:
    """Recover the original file from any rank-k set of chunks.

    Raises :class:`RankDeficientError` (carrying the achieved rank) if
    the set does not span, and ValueError for malformed input: no
    chunks, duplicate ids, or mismatched payload sizes.
    """
    if not chunks:
        raise ValueError("no chunks to decode")
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
    state = DecoderState(k, symbol_size)
    # Systematic ids first: they absorb without any elimination work.
    for chunk in sorted(chunks, key=lambda c: c.chunk_id):
        state.absorb(chunk)
        if state.is_complete:
            break
    if not state.is_complete:
        raise RankDeficientError(state.rank, k)
    return state.solve().tobytes()[:original_len]


def chunks_to_wire(chunks: list[CodedChunk]) -> bytes:
    """Concatenate fixed-size wire records (ids must share a payload size)."""
    return b"".join(c.to_wire() for c in chunks)


def wire_to_chunks(data: bytes, symbol_size: int) -> list[CodedChunk]:
    """Split a byte string into wire records of 4 + symbol_size bytes."""
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
