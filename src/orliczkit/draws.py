"""Seeded input draws, bit for bit what NumPy's spawned generators draw.

Input i of a seeded batch is drawn by `np.random.default_rng(child i)`, for
the children of `np.random.SeedSequence(seed).spawn(count)`. This module
gives the same bits without a `SeedSequence` or a `Generator` per input:
`child_seeds` computes every child's PCG64 seed at once; `jumped_words`
reads the raw words of many children at once, by jumping each one's LCG
state ahead in 128-bit arithmetic on uint64 arrays; and `in_states` sets one
Generator to each child's seeded state in turn, for the draws that stay
NumPy's calls. `uniform`, `halves` and `spikes` read NumPy's draws off raw
words.
"""

from __future__ import annotations

import functools

import numpy as np


# NumPy's SeedSequence hash constants (numpy/random/bit_generator.pyx) and
# PCG64's 128-bit LCG multiplier (PCG_DEFAULT_MULTIPLIER_128). Python ints
# below 2^32 keep a uint32 array uint32 under NEP 50 and legacy promotion
# alike, and those below 2^64 keep a uint64 array uint64.
_MASK32, _MASK64, _MASK128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


@functools.lru_cache(maxsize=16)   # start depends on the seed's length alone
def _hash_constants(const: int, mult: int, start: int, count: int) -> np.ndarray:
    """Pairs start, ..., start + count - 1 of SeedSequence's running hash
    constant, (c, c * mult mod 2^32) with each next pair starting from the
    last product, as a read-only (2, count, 1) uint32 array: xor and mult
    columns."""
    chain = [const]
    for _ in range(start + count):
        chain.append(chain[-1] * mult & _MASK32)
    table = np.array([chain[start:-1], chain[start + 1 :]], dtype=np.uint32)[:, :, None]
    table.flags.writeable = False
    return table


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


# 128-bit numbers are (hi, lo) pairs of uint64 arrays. Array products and
# sums wrap mod 2^64 silently; NumPy warns only where uint64 scalars wrap, so
# every operand here is an array.
def _mulhi(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products a * b, from the 32-bit
    halves (Warren, Hacker's Delight, mulhu)."""
    a0, a1, b0, b1 = a & _MASK32, a >> 32, b & _MASK32, b >> 32
    t = a1 * b0 + (a0 * b0 >> 32)
    w = (t & _MASK32) + a0 * b1
    return a1 * b1 + (t >> 32) + (w >> 32)


def child_seeds(seed: int, count: int) -> np.ndarray:
    """The 128-bit seed s and increment inc = 2i + 1 that PCG64 takes from
    child i of `np.random.SeedSequence(seed).spawn(count)`, as a (4, count)
    uint64 array of rows s hi, s lo, inc hi, inc lo. The child's seeded
    state is (s + inc) * mult + inc.

    Child i's SeedSequence mixes the entropy [seed words, zeros up to 4
    words, i] into a pool of four words. Everything before i depends on the
    seed alone: it is the pool of `SeedSequence(seed)`, after 4 + 12 hash
    constants for the first four words and 4 for each word beyond. i is
    mixed into the four pool words of every child at once, as (4, count)
    uint32 arrays, and the pool gives each child's four 64-bit words: s,
    then i.
    """
    seq = np.random.SeedSequence(seed)
    # the child index, the last entropy word, meets one hash constant per
    # pool word: (4, 1) columns against the (count,) row of indices
    used = 16 + 4 * max(0, -(-int(seq.entropy).bit_length() // 32) - 4)
    xor, mult = _hash_constants(_INIT_A, _MULT_A, used, 4)
    index = np.arange(count, dtype=np.uint32)
    pool = _mix(seq.pool[:, None], _hashmix(index, xor, mult))
    # generate_state(4, np.uint64): 32-bit words from pool rows 0-3 twice,
    # paired little-endian
    xor, mult = _hash_constants(_INIT_B, _MULT_B, 0, 8)
    words32 = _hashmix(pool, xor.reshape(2, 4, 1), mult.reshape(2, 4, 1)).reshape(8, -1)
    seeds = words32.T.astype("<u4", order="C").view("<u8").astype(np.uint64).T.copy()
    i_hi, i_lo = seeds[2:]
    seeds[2], seeds[3] = i_hi << 1 | i_lo >> 63, i_lo << 1 | 1
    return seeds


@functools.lru_cache(maxsize=None)   # one entry per row length, at most JUMP_ATOMS
def _jumps(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The hi and lo words of the jump constants for j = 1, ..., m, as
    read-only (2, 1, m) arrays: A_(j+1) in row 0 and C_(j+2) in row 1, with
    A_j = mult^j and C_j = 1 + mult + ... + mult^(j - 1) mod 2^128.

    j steps of the LCG take a state S to A_j * S + C_j * inc (Brown, "Random
    number generation with arbitrary strides", 1994), and the seeded state
    is A_1 * s + C_2 * inc, so the state after seeding and j steps is
    A_(j+1) * s + C_(j+2) * inc."""
    a, c, table = _PCG_MULT, 1 + _PCG_MULT, []
    for _ in range(m):
        a, c = a * _PCG_MULT & _MASK128, (c * _PCG_MULT + 1) & _MASK128
        table.append(((a >> 64, c >> 64), (a & _MASK64, c & _MASK64)))
    hi, lo = np.array(table, dtype=np.uint64).transpose(1, 2, 0)[:, :, None, :]
    hi.flags.writeable = lo.flags.writeable = False
    return hi, lo


def jumped_words(seeds: np.ndarray, m: int) -> np.ndarray:
    """Raw words 1, ..., m of each column's child generator, bitwise its
    `random_raw(m)`, as a (columns, m) uint64 array. PCG64 steps its state,
    then outputs the XSL-RR of the new one, (hi ^ lo) rotated right by
    hi >> 58 (O'Neill, "PCG", 2014), so word j is that of A_(j+1) * s +
    C_(j+2) * inc, for every row and word at once."""
    k_hi, k_lo = _jumps(m)
    x_hi, x_lo = seeds[0::2, :, None], seeds[1::2, :, None]   # s in row 0, inc in row 1
    lows = k_lo * x_lo
    lo = lows[0] + lows[1]
    hi = _mulhi(k_lo, x_lo) + k_lo * x_hi + k_hi * x_lo
    hi = hi[0] + hi[1] + (lo < lows[0])
    word, rot = hi ^ lo, hi >> 58
    return word >> rot | word << ((64 - rot) & 63)


def in_states(rng: np.random.Generator, seeds: np.ndarray):
    """rng in the seeded PCG64 state of each column's child, in turn: the
    same Generator each time, so a row is drawn before the next one is
    asked for."""
    bitgen = rng.bit_generator
    for s_hi, s_lo, i_hi, i_lo in seeds.T.tolist():
        inc = i_hi << 64 | i_lo
        state = ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128
        bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                        "has_uint32": 0, "uinteger": 0}
        yield rng


# Routing of `verify.generate_inputs`: a batch of at least JUMP_ROWS inputs
# on at most JUMP_ATOMS atoms reads its words by the jump, any other batch
# through NumPy's calls per row. A jump is about 30 array operations, about
# 25 us whatever the batch, and then about 40 ns per word, where a row
# through NumPy costs a state set (about 3 us) and then about 1 ns per word.
# On ROADMAP aim 1's cost curve, `mixed` batches at n = 8 break even at 20-24
# inputs, and at 24 inputs the jump loses from n = 9 on (+28% at n = 12).
# At most 8 atoms also keeps every spikes row's size at 1 or 2, the only
# sizes `_spikes_jumped` reads.
JUMP_ROWS = 24
JUMP_ATOMS = 8


def words_of(rng: np.random.Generator, seeds: np.ndarray, m: int, jumped: bool) -> np.ndarray:
    """Raw words 1, ..., m of each column's child generator, (columns, m):
    by the jump, or by NumPy's `random_raw` per row."""
    if jumped:
        return jumped_words(seeds, m)
    return np.array([g.bit_generator.random_raw(m) for g in in_states(rng, seeds)])


def uniform(lo: float, hi: float, words: np.ndarray) -> np.ndarray:
    """Generator.uniform(lo, hi) read off raw PCG64 words, one per draw:
    lo + (hi - lo) * next_double, where next_double is the word's top 53
    bits times 2^-53."""
    return lo + (hi - lo) * ((words >> 11) * 2.0**-53)


def halves(words: np.ndarray) -> np.ndarray:
    """The 32-bit halves of raw PCG64 words in the order NumPy's 32-bit
    draws take them, the low half of each word first, on the last axis."""
    return words.astype("<u8", copy=False).view("<u4")


def _lemire(half: np.ndarray, size) -> tuple[np.ndarray, np.ndarray]:
    """Lemire's draw on [0, size) from each 32-bit half (as uint64), as
    NumPy's `integers` and `choice` make it for a size below 2^32: the top
    word of half * size, and whether the draw rejects, which it does where
    the low word is below 2^32 mod size."""
    scaled = half * size
    return scaled >> 32, (scaled & _MASK32) < (1 << 32) % size


def _spikes_numpy(rng: np.random.Generator, seeds: np.ndarray, n: int):
    """The spikes rows of the children of seeds, drawn through NumPy:
    the size k = integers(1, max(2, n // 3 + 1)) and the support
    choice(n, k, replace=False), then integers(0, 2, k) signs and
    uniform(0.25, 1.0, k) magnitudes, which are read off raw words. Returns
    each row's k and, for its k atoms in turn, the support's atom, the sign
    bit and the magnitude's word.

    `choice` may leave a 32-bit half buffered in the generator (always at
    n = 2-5; at n >= 6 after a rejection), which is then the first sign:
    row r's signs are that half where there is one, then the halves of its
    first sign_words words, and its magnitudes take one word each after
    those. Every index is taken once for the whole batch, on the rows' words
    laid end to end: the j-th draw of row r is draw before[r] + j of the
    batch, and row r's words follow the sign words and draws of the rows
    above it."""
    top = max(2, n // 3 + 1)
    heads, supports, words = [], [], []
    for g in in_states(rng, seeds):
        bitgen = g.bit_generator
        k = int(g.integers(1, top))
        supports.append(g.choice(n, size=k, replace=False))
        state = bitgen.state
        held = state["has_uint32"]
        sign_words = (k - held + 1) // 2
        heads.append((k, held, state["uinteger"], sign_words))
        words.append(bitgen.random_raw(sign_words + k))
    k, held, half, sign_words = np.array(heads).T
    through = sign_words.cumsum()   # the sign words up to and including each row
    before = k.cumsum() - k
    draw = np.arange(before[-1] + k[-1])
    words = np.concatenate(words)
    bits = halves(words)[draw + (2 * (through - sign_words) + before - held).repeat(k)] >> 31
    buffered = held.nonzero()[0]
    if buffered.size:
        bits[before[buffered]] = half[buffered] >> 31
    return k, np.concatenate(supports), bits, words[draw + through.repeat(k)]


def _spikes_jumped(seeds: np.ndarray, n: int):
    """The spikes rows of the children of seeds, at n <= JUMP_ATOMS = 8,
    read off their first five jumped words as `_spikes_numpy` returns them,
    for each row whose 32-bit draws meet no rejection; and the mask of those
    rows.

    The 32-bit draws are Lemire draws on successive halves. The size k is
    integers(1, top) with top = max(2, n // 3 + 1): 1 with no draw at n <= 5,
    1 or 2 by a draw on [0, 2) at n = 6-8, which never rejects. Then come
    Floyd's draws inside `choice`, on [0, j] for j = n - k, ..., n - 1 (none
    at j = 0), where j stands in for a draw already taken, and at k = 2 the
    shuffle's, on [0, 2), whose 0 swaps the two atoms. The k sign halves come
    next, and the k magnitude words start at the next whole word."""
    words = jumped_words(seeds, 5)
    half = halves(words).astype(np.uint64)
    if n >= 6:
        k, at = 1 + (half[:, 0] >> 31), 1   # at: the first half after the size's
    else:
        k, at = np.ones(len(words), dtype=np.uint64), 0
    two = k == 2
    first, bad = _lemire(half[:, at], n + 1 - k)
    second, reject = _lemire(half[:, at + 1], n)
    bad |= reject & two
    second[second == first] = n - 1
    swap = two & (half[:, at + 2] >> 31 == 0)
    support = np.stack((np.where(swap, second, first), np.where(swap, first, second)), axis=1)
    k = k.astype(np.intp)
    signs_at = at + (n > 1) * (2 * k - 1)
    rows, pick = np.arange(len(words))[:, None], np.arange(2)
    bits = half[rows, signs_at[:, None] + pick] >> 31
    mags = words[rows, (signs_at + k + 1)[:, None] // 2 + pick]
    ok = ~bad
    take = ok[:, None] & (pick < k[:, None])
    return k[ok], support[take].astype(np.intp), bits[take], mags[take], ok


def spikes(rows: np.ndarray, rng: np.random.Generator, seeds: np.ndarray,
           signed: np.ndarray, jumped: bool) -> None:
    """Write the spikes rows of the children of seeds: by the jump where
    `_spikes_jumped` reads them, and the others through NumPy."""
    n, rest = rows.shape[1], np.arange(len(rows))
    if jumped:
        k, support, bits, mags, ok = _spikes_jumped(seeds, n)
        rows[rest[ok].repeat(k), support] = uniform(0.25, 1.0, mags) * signed[bits]
        rest = rest[~ok]
    if rest.size:
        k, support, bits, mags = _spikes_numpy(rng, seeds[:, rest], n)
        rows[rest.repeat(k), support] = uniform(0.25, 1.0, mags) * signed[bits]
