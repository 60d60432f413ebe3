"""Linear extensions of a labeled poset and their descent/fixed statistics.

A linear extension is stored as a word of labels w_1 .. w_p. Position i
is a descent when w_i > w_{i+1}. A label is fixed when it is adjacent to
a descent, or when the largest position of a preceding larger label
beats the largest position of a label that is forced below it in the
poset (max over the empty forced set counting as 0).

The extensions are listed one way, by ``extension_records``, which
streams them from a walk that carries both statistics along each prefix
in O(p) memory. The (des, fix) tally that the closed form needs comes
from a DP over the order ideals of the poset (Stanley, *EC1* 3.5: the
extensions are the maximal chains of that lattice), not from the walk.
The word-by-word definition of the fixed labels, which both are tested
against, lives in ``tests/reference.py``.
"""

from __future__ import annotations

import math
from typing import Iterator, NamedTuple

from .dib_poset import NaturalLabeling

Word = tuple[int, ...]


class LinearExtensionRecord(NamedTuple):
    """A named tuple: sorts, iterates, equals and hashes like its fields."""

    word: Word
    descents: frozenset[int]
    fixed: frozenset[int]

    @property
    def des(self) -> int:
        return len(self.descents)

    @property
    def fix(self) -> int:
        return len(self.fixed)


def _walk(labeling: NaturalLabeling) -> Iterator[tuple[list[int], int, int]]:
    """Walk the extensions in lexicographic order, one at a time.

    Yields (word, des, fixed) per extension: the word of labels 1..p,
    its descent count, and its fixed labels as a bitmask (bit l - 1 for
    label l). The word is one buffer that the walk overwrites; copy it
    to keep it. Internally label l is the integer l - 1, placed when
    every lower cover is, with des and fixed carried along the prefix:
    a descent fixes both of its labels, and a label after an ascent is
    fixed when a larger label follows the last of its lower covers.
    Memory stays O(p); the empty poset yields one empty word.
    """
    lower, upper = labeling.lower_covers, labeling.upper_covers
    p = labeling.p
    if p == 0:
        yield [], 0, 0
        return
    needs = [sum(1 << a for a in lower[x]) for x in range(p)]

    word = [0] * p  # labels 1..p
    pos = [0] * p  # 1-based position of each placed label
    # per depth d: labels placed at positions 1..d, labels free to come
    # next, candidates not yet tried there, des and fixed of the prefix
    placed = [0] * (p + 1)
    free = [0] * (p + 1)
    todo = [0] * (p + 1)
    des = [0] * (p + 1)
    fixed = [0] * (p + 1)
    free[0] = todo[0] = sum(1 << x for x in range(p) if not lower[x])
    last = p - 1
    d = 0
    while d >= 0:
        cand = todo[d]
        if not cand:
            d -= 1
            continue
        bit = cand & -cand
        todo[d] = cand ^ bit
        x = bit.bit_length() - 1
        prefix = placed[d]
        n_des = des[d]
        n_fixed = fixed[d]
        if d and word[d - 1] > x + 1:
            n_des += 1
            n_fixed |= bit | 1 << (word[d - 1] - 1)
        else:
            below_end = 0
            for a in lower[x]:
                if pos[a] > below_end:
                    below_end = pos[a]
            # labels placed after the last lower cover, larger than x
            if (prefix ^ placed[below_end]) >> (x + 1):
                n_fixed |= bit
        word[d] = x + 1
        pos[x] = d + 1
        if d == last:
            yield word, n_des, n_fixed
            continue
        prefix |= bit
        nxt = free[d] ^ bit
        for y in upper[x]:
            if needs[y] & prefix == needs[y]:
                nxt |= 1 << y
        d += 1
        placed[d] = prefix
        free[d] = todo[d] = nxt
        des[d] = n_des
        fixed[d] = n_fixed


def des_fix_counts(labeling: NaturalLabeling) -> dict[tuple[int, int], int]:
    """Number of extensions with each (des, fix) pair, without visiting
    the extensions one by one.

    A DP over prefixes, one layer per position. Prefixes that agree on
    their state place their remaining labels alike, so they merge and
    keep a count per (des, fix-so-far). Labels are indices label - 1.
    The state is:
      - the placed set (the free labels, whose lower covers are all
        placed, follow from it and are kept once per placed set);
      - the last label, and whether a label larger than it was placed
        after its last lower cover;
      - that flag for each free label, as a bitmask.
    Placing y after `last` is a descent iff last > y. That settles
    `last`: it is fixed iff the step is a descent or its flag is set.
    y sets the flag of every other free label smaller than it; labels
    that y frees start with a clear flag. A descent into y needs no
    case of its own: under a natural labeling `last` is not below y, so
    it set y's flag when it was placed. The last label is settled by
    its flag alone. Merged states never outnumber the walk's prefixes.

    A state's counts are packed into one int (Kronecker substitution):
    the count of (des, fix) sits in slot (p + 1) * des + fix, slot s
    being bits W * s .. W * s + W - 1, since fix <= p. A step shifts
    the int by 0, by W when it fixes `last` (one slot up), or by
    W * (p + 2) when it descends (a descent also fixes `last`), and a
    merge is one addition. W is the bit length of p!, so 2^W > p!, and
    no slot carries into the next: a slot of a state at depth d counts
    prefixes of length d, at most p!/(p - d)! <= p!, and a slot of the
    result counts extensions, at most p!.
    """
    lower, upper = labeling.lower_covers, labeling.upper_covers
    p = labeling.p
    needs = [sum(1 << a for a in below) for below in lower]
    width = math.factorial(p).bit_length()
    des_shift = width * (p + 2)
    free_of = {0: sum(1 << x for x in range(p) if not needs[x])}
    # per placed set, one move per free label y: y, the placed set after
    # it, the flags it sets, and the mask that clears its own flag
    moves_of: dict[int, list[tuple[int, int, int, int]]] = {}
    # last = -1 stands for the empty prefix: every label ascends from it
    layer = {(0, -1, 0, 0): 1}
    for _ in range(p):
        nxt: dict[tuple[int, int, int, int], int] = {}
        get = nxt.get
        for (placed, last, last_flag, flags), packed in layer.items():
            moves = moves_of.get(placed)
            if moves is None:
                free = free_of[placed]
                moves = moves_of[placed] = []
                todo = free
                while todo:
                    bit = todo & -todo
                    todo ^= bit
                    y = bit.bit_length() - 1
                    now_placed = placed | bit
                    if now_placed not in free_of:
                        now_free = free ^ bit
                        for z in upper[y]:
                            if needs[z] & now_placed == needs[z]:
                                now_free |= 1 << z
                        free_of[now_placed] = now_free
                    moves.append((y, now_placed, free & (bit - 1), ~bit))
            ascent = packed << width if last_flag else packed
            for y, now_placed, smaller, clear in moves:
                key = (now_placed, y, flags >> y & 1, (flags | smaller) & clear)
                nxt[key] = get(key, 0) + (packed << des_shift if last > y else ascent)
        layer = nxt
    total = 0
    for (_, _, last_flag, _), packed in layer.items():
        total += packed << width if last_flag else packed
    out: dict[tuple[int, int], int] = {}
    mask = (1 << width) - 1
    slot = 0
    while total:
        if total & mask:
            out[divmod(slot, p + 1)] = total & mask
        total >>= width
        slot += 1
    return out


def descent_stats(word: Word) -> tuple[frozenset[int], int]:
    """Descent positions (1-based) and their count."""
    descents = frozenset(
        i for i in range(1, len(word)) if word[i - 1] > word[i]
    )
    return descents, len(descents)


def extension_records(labeling: NaturalLabeling) -> Iterator[LinearExtensionRecord]:
    """Every extension as a record of its word, descent positions and
    fixed labels, streamed in lexicographic order of the words."""
    for word, _, fixed in _walk(labeling):
        descents, _ = descent_stats(word)
        labels = frozenset(l for l in range(1, len(word) + 1) if fixed >> (l - 1) & 1)
        yield LinearExtensionRecord(tuple(word), descents, labels)
