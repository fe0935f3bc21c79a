"""numpy's draws from a PCG64 generator (O'Neill, PCG, 2014), made by
hand from bulk reads of its 64-bit words.  No other module reads raw
words, moves a generator or touches its kept half.

A whole-word draw (``random``, ``uniform``: :func:`uniform`) takes the
next word.  A bounded draw (``integers(bound)`` for bound <= 2**32, and
``choice``'s Floyd picks) takes a 32-bit half: the one the last such draw
kept (``has_uint32``, ``uinteger``; taking it clears ``has_uint32``
only), else the next word's low half, keeping the high half.  Lemire's
multiply and shift makes it a value below bound, redrawn while the
product's low half is below ``2**32 % bound`` (Lemire, ACM TOMACS 2019).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

READ = 64  # words a read ahead takes, for draws of one value at a time
LOW = 0xFFFF_FFFF  # the low 32 bits of a word or of a Lemire product
WIDE = 2**32 - 1  # picks among this many or more are left to numpy's choice, whose draws change


class Reader:
    """numpy's draws of a PCG64 Generator, made from bulk reads of its words.

    Closed, it holds nothing and ``choice`` is the Generator's own.  A draw
    or read opens it: it takes over the kept half (``has_half``, ``half``)
    and holds the words read, ``words[at:]`` not drawn yet (a list when
    :meth:`below` reads ``READ`` ahead, an array of exact reads).  After
    :meth:`give_back` numpy's whole-word draws may follow; after
    :meth:`close`, which also writes the kept half back, any draw may, and
    ``choice`` closes it first.  Whoever opens a reader closes it, in a
    ``finally``.  Any bit generator but PCG64 is refused by name.
    """

    __slots__ = ("rng", "bits", "choice", "words", "at", "has_half", "half", "_drawn")

    def __init__(self, rng: np.random.Generator):
        if not isinstance(rng.bit_generator, np.random.PCG64):
            raise ValueError(f"vancast draws from PCG64's raw words, got a "
                             f"{type(rng.bit_generator).__name__} generator")
        self.rng, self.bits, self.choice = rng, rng.bit_generator, rng.choice
        self.words, self.at = [], 0  # words read, a list or an array; words[at:] not drawn
        self.has_half, self.half = 0, None  # half is None while closed
        self._drawn = 0  # words drawn before words[0] since the last give-back

    def _open(self) -> None:
        state = self.bits.state
        self.has_half, self.half = state["has_uint32"], state["uinteger"]
        self.choice = self._closing_choice

    def read(self, n: int, halves: int = 0) -> None:
        """Read, as one array with the words not drawn yet, n words more and
        those that ``halves`` draws of :meth:`below` take if none is rejected."""
        if self.half is None:
            self._open()
        n += (halves - self.has_half + 1) // 2
        rest, words = self.words[self.at:], self.bits.random_raw(n)
        self._drawn += self.at
        self.words = np.concatenate((np.asarray(rest, np.uint64), words)) if len(rest) else words
        self.at = 0

    def below(self, bound: int) -> int:
        """One ``rng.integers(bound)`` draw, for 2 <= bound <= 2**32."""
        threshold = 2**32 % bound  # numpy's: a product whose low half is below it is redrawn
        while True:
            if self.has_half:
                self.has_half = 0
                m = self.half * bound
            else:
                at = self.at
                if at == len(self.words):
                    if self.half is None:  # closed: open, which may bring a kept half
                        self._open()
                        continue
                    self._drawn += at
                    self.words, at = self.bits.random_raw(READ).tolist(), 0
                word = int(self.words[at])
                self.at, self.has_half, self.half = at + 1, 1, word >> 32
                m = (word & LOW) * bound
            if m & LOW >= threshold:
                return m >> 32

    def take(self, n: int) -> np.ndarray:
        """The next n words, as ``random_raw(n)`` gives them; the kept half
        stays kept."""
        short = n - (len(self.words) - self.at)
        if short > 0 or isinstance(self.words, list):
            self.read(max(short, 0))
        at = self.at
        self.at = at + n
        return self.words[at:at + n]

    def drawn(self) -> int:
        """Words drawn since the last :meth:`give_back` or :meth:`mark`."""
        return self._drawn + self.at

    def give_back(self) -> None:
        """Give back the words read and not drawn: the generator then stands
        just past the words drawn.  The kept half stays here."""
        if unread := len(self.words) - self.at:
            self.bits.advance(-unread)
        self.words, self.at, self._drawn = [], 0, 0

    def mark(self) -> int:
        """Give back the words not drawn and return the generator's 128-bit
        state, from which :meth:`drawn` counts and :func:`replayer` reads."""
        self.give_back()
        return self.bits.state["state"]["state"]

    def close(self) -> None:
        """Put the generator where numpy's own draws would have left it."""
        if self.half is None:
            return
        self.give_back()
        state = self.bits.state
        state["has_uint32"], state["uinteger"] = self.has_half, self.half
        self.bits.state = state
        self.has_half, self.half = 0, None
        self.choice = self.rng.choice

    def _closing_choice(self, *args, **kwargs):
        """``rng.choice``, after closing."""
        self.close()
        return self.rng.choice(*args, **kwargs)


def uniform(words: np.ndarray, low: float, high: float) -> np.ndarray:
    """``rng.uniform(low, high, size=len(words))``, made from these words:
    numpy's ``next_double`` is a word's top 53 bits times 2**-53, and a
    power of two folded into the scale rounds the same."""
    values = (words >> 11) * ((high - low) * 2.0**-53)
    values += low
    return values


def replayer(rng: np.random.Generator) -> Callable[[int, int, int], np.ndarray]:
    """A function ``words(state, drawn, n)``: the n words a :class:`Reader`
    of rng takes after drawing ``drawn`` words from a :meth:`Reader.mark`
    state, read again from a scratch PCG64 with rng's increment, never
    from rng."""
    bits = np.random.PCG64(0)
    state = bits.state
    state["state"]["inc"] = Reader(rng).bits.state["state"]["inc"]

    def words(block: int, drawn: int, n: int) -> np.ndarray:
        state["state"]["state"] = block
        bits.state = state
        bits.advance(drawn)
        return bits.random_raw(n)

    return words
