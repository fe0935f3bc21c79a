"""Fountain codec walkthrough: encode a file, lose most of it, decode anyway.

Run:  python3 demos/codec_roundtrip.py
"""

import numpy as np

from vancast.fountain import DecoderState, chunks_to_wire, decode, encode, wire_to_chunks

rng = np.random.default_rng(0)
data = rng.bytes(120_000)
k, n = 300, 450

chunks = encode(data, k=k, n=n)
print(f"{len(data)} bytes -> {n} chunks of {len(chunks[0].payload)} B payload "
      f"({chunks[0].wire_size} B on the wire); any {k} independent ones suffice")

# The code is systematic: the first k chunks are the file itself.
flat = b"".join(c.payload for c in chunks[:k])
assert flat[: len(data)] == data
print(f"chunks 0..{k - 1} are the raw file symbols (systematic prefix)")

# Simulate heavy loss: keep a random 310 of the 450, decode, compare.
kept = sorted(rng.choice(n, size=310, replace=False).tolist())
recovered = decode([chunks[i] for i in kept], k, len(data))
assert recovered == data
print(f"decoded exactly from a random {len(kept)}-chunk subset "
      f"({n - len(kept)} chunks lost)")

# A receiver tracks rank as chunks arrive, mixing raw and combined chunks
# in arrival order, keeps those that raised it and decodes once at rank k.
dec = DecoderState(k)
raised = []
for i, cid in enumerate(rng.permutation(n).tolist()):
    if dec.absorb(chunks[cid]):
        raised.append(chunks[cid])
    if dec.is_complete:
        print(f"rank hit {k} after absorbing {i + 1} chunks in random order")
        break
assert decode(raised, k, len(data)) == data
print(f"decoded exactly from the {len(raised)} chunks that raised the rank")

# Chunks survive serialization: what travels is id + payload, nothing else.
wire = chunks_to_wire([chunks[i] for i in kept])
again = wire_to_chunks(wire, symbol_size=len(chunks[0].payload))
assert decode(again, k, len(data)) == data
print(f"round-tripped {len(wire)} wire bytes and decoded again")
