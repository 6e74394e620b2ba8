"""Lockstep Mersenne Twister: B generator states advanced columnwise.

The scan kernel's cost is dominated by *seeding*: every atlas entity
derives its own :class:`random.Random` from 32 bytes of SHA-256
material, and CPython's ``init_by_array`` walk (1,247 sequential state
updates) costs more than all of the entity's draws combined.  This
module runs that walk for a whole batch of streams at once: the state
is a ``(624, B)`` uint32 matrix and each scalar update becomes one
vector operation over all B streams — bit-identical to seeding B
independent ``random.Random`` instances, at a fraction of the per-
stream cost.

Output generation mirrors CPython exactly: after seeding, ``mti`` sits
at 624, so the first tempered outputs come from a (partial) twist of
the freshly seeded state.  :meth:`LockstepMT.words` materialises
tempered outputs row-by-row — row *k* holds every stream's *k*-th
``getrandbits(32)`` — growing lazily because most scan entities consume
a dozen words while the occasional rejection-loop straggler needs a few
more.

Exactness boundary: CPython builds the ``init_by_array`` key from the
seed integer's 32-bit digits, so a seed whose *top* 32 bits are zero
(probability 2^-32 for SHA-256 material) yields a shorter key than the
lockstep 8-word layout assumes.  Those streams are flagged in
:attr:`LockstepMT.irregular` and must be handled by a scalar fallback;
the vector path never silently mis-seeds them.
"""

from __future__ import annotations

import numpy as np

N_MT = 624          # state words per stream
M_MT = 397          # twist offset
_PARTIAL_LIMIT = N_MT - M_MT  # rows producible before a full twist: 227

_MATRIX_A = np.uint32(0x9908B0DF)
_UPPER = np.uint32(0x80000000)
_LOWER = np.uint32(0x7FFFFFFF)
_ONE = np.uint32(1)


def _init_genrand_column() -> "np.ndarray":
    """The init_genrand(19650218) state shared by every stream."""
    init = [19650218]
    for i in range(1, N_MT):
        prev = init[i - 1]
        init.append(
            (1812433253 * (prev ^ (prev >> 30)) + i) & 0xFFFFFFFF)
    return np.array(init, dtype=np.uint32)


_INIT_COLUMN = _init_genrand_column()


def key_words(materials: "np.ndarray | bytes") -> "np.ndarray":
    """``(8, B)`` init_by_array key words for 32-byte seed materials.

    ``materials`` is the concatenated seed bytes (B * 32).  CPython
    seeds from ``int.from_bytes(material, "big")`` and splits that
    integer into little-endian 32-bit digits, which is exactly the
    big-endian word view reversed.
    """
    words = np.frombuffer(bytes(materials), dtype=">u4").reshape(-1, 8)
    return np.ascontiguousarray(words[:, ::-1].T.astype(np.uint32))


def seed_states(key: "np.ndarray") -> "np.ndarray":
    """Run init_by_array for B lockstep streams: key ``(key_len, B)``.

    Returns the seeded state matrix ``(624, B)`` with the implicit
    generator position at 624 (a twist precedes the first output),
    matching ``random.Random(seed_int)`` for every stream whose key
    really is ``key_len`` words (see :attr:`LockstepMT.irregular`).
    """
    key_len, batch = key.shape
    mt = np.empty((N_MT, batch), dtype=np.uint32)
    mt[:] = _INIT_COLUMN[:, None]
    # key[j] + j is loop-invariant per key row; hoist the add.
    keyj = [key[j] + np.uint32(j) for j in range(key_len)]
    scratch = np.empty(batch, dtype=np.uint32)
    i = 1
    j = 0
    for _step in range(max(N_MT, key_len)):
        prev = mt[i - 1]
        np.right_shift(prev, np.uint32(30), out=scratch)
        np.bitwise_xor(prev, scratch, out=scratch)
        np.multiply(scratch, np.uint32(1664525), out=scratch)
        np.bitwise_xor(mt[i], scratch, out=scratch)
        np.add(scratch, keyj[j], out=mt[i])
        i += 1
        j += 1
        if i >= N_MT:
            mt[0] = mt[N_MT - 1]
            i = 1
        if j >= key_len:
            j = 0
    for _step in range(N_MT - 1):
        prev = mt[i - 1]
        np.right_shift(prev, np.uint32(30), out=scratch)
        np.bitwise_xor(prev, scratch, out=scratch)
        np.multiply(scratch, np.uint32(1566083941), out=scratch)
        np.bitwise_xor(mt[i], scratch, out=scratch)
        np.subtract(scratch, np.uint32(i), out=mt[i])
        i += 1
        if i >= N_MT:
            mt[0] = mt[N_MT - 1]
            i = 1
    mt[0] = np.uint32(0x80000000)
    return mt


def _temper(y: "np.ndarray") -> "np.ndarray":
    y = y ^ (y >> np.uint32(11))
    y = y ^ ((y << np.uint32(7)) & np.uint32(0x9D2C5680))
    y = y ^ ((y << np.uint32(15)) & np.uint32(0xEFC60000))
    return y ^ (y >> np.uint32(18))


def _twist_rows(mt: "np.ndarray", lo: int, hi: int) -> "np.ndarray":
    """Tempered outputs ``lo..hi`` of the first block (hi <= 227).

    Rows below :data:`_PARTIAL_LIMIT` only read the *seeded* state, so
    they can be produced without committing the full twist.
    """
    y = (mt[lo:hi] & _UPPER) | (mt[lo + 1:hi + 1] & _LOWER)
    out = mt[M_MT + lo:M_MT + hi] ^ (y >> _ONE) ^ ((y & _ONE) * _MATRIX_A)
    return _temper(out)


def _full_twist(mt: "np.ndarray") -> None:
    """Advance the state matrix by one whole twist, in place.

    The reference loop is self-referential past index 454 (it reads
    values the same pass already wrote), so the vector form runs in
    four dependency-ordered chunks.
    """
    def turn(lo: int, hi: int, src_lo: int) -> None:
        y = (mt[lo:hi] & _UPPER) | (mt[lo + 1:hi + 1] & _LOWER)
        mt[lo:hi] = mt[src_lo:src_lo + hi - lo] ^ (y >> _ONE) \
            ^ ((y & _ONE) * _MATRIX_A)

    turn(0, 227, M_MT)          # reads only pre-twist state
    turn(227, 454, 0)           # reads chunk-1 results
    turn(454, 623, 227)         # reads chunk-2 results
    y = (mt[N_MT - 1] & _UPPER) | (mt[0] & _LOWER)
    mt[N_MT - 1] = mt[M_MT - 1] ^ (y >> _ONE) ^ ((y & _ONE) * _MATRIX_A)


class WordBudgetExceeded(Exception):
    """A stream consumed more than one twist block of outputs.

    The scan kernel sizes its blocks generously (no legitimate entity
    draw sequence approaches 624 words), so this only fires for the
    astronomically improbable rejection-loop runaway — which then takes
    the scalar fallback rather than an inexact vector result.
    """


class LockstepMT:
    """B bit-identical MT19937 streams with lazily grown output rows."""

    __slots__ = ("batch", "irregular", "_mt", "_out", "_rows", "_twisted")

    def __init__(self, materials: bytes | bytearray):
        """``materials`` holds B concatenated 32-byte seed digests."""
        key = key_words(materials)
        self.batch = key.shape[1]
        # CPython's key drops leading zero 32-bit digits: a material
        # whose top word is zero seeds with a shorter key than the
        # lockstep layout.  Flag those streams for the scalar path.
        self.irregular = np.flatnonzero(key[7] == 0)
        self._mt = seed_states(key)
        self._out: "np.ndarray | None" = None
        self._rows = 0
        self._twisted = False

    def words(self, rows: int) -> "np.ndarray":
        """Tempered output matrix with at least ``rows`` rows.

        Row *k*, column *s* is stream *s*'s ``getrandbits(32)`` number
        *k*.  Grows in place; previously returned rows keep their
        values.  Raises :class:`WordBudgetExceeded` past one block.
        """
        if rows <= self._rows:
            return self._out
        if rows > N_MT:
            raise WordBudgetExceeded(rows)
        if rows <= _PARTIAL_LIMIT and not self._twisted:
            grown = np.empty((rows, self.batch), dtype=np.uint32)
            if self._rows:
                grown[:self._rows] = self._out[:self._rows]
            grown[self._rows:] = _twist_rows(self._mt, self._rows, rows)
            self._out = grown
            self._rows = rows
            return self._out
        # Commit the full twist once; every row of the block is then
        # one temper away.  (The partial rows already handed out are a
        # prefix of the same block, so values never change.)
        if not self._twisted:
            _full_twist(self._mt)
            self._twisted = True
            self._out = _temper(self._mt)
            self._rows = N_MT
        return self._out
