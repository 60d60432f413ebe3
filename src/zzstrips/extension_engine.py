"""Linear extensions of a labeled poset and their descent/fixed statistics.

A linear extension is stored as a word of labels w_1 .. w_p. Position i
is a descent when w_i > w_{i+1}. A label is fixed when it is adjacent to
a descent, or when the largest position of a preceding larger label
beats the largest position of a label that is forced below it in the
poset (max over the empty forced set counting as 0).

Both routes here take the moves between the order ideals of the poset
(Stanley, *EC1* 3.5: the extensions are the maximal chains of that
lattice) and settle the fixed labels by one rule. ``extension_records``
streams the extensions from a depth-first walk over the moves; the
(des, fix) tally that the closed form needs comes from a DP that merges
prefixes by state. The word-by-word definition of the fixed labels,
which both are tested against, lives in ``tests/reference.py``.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .dib_poset import NaturalLabeling, _bits

Word = tuple[int, ...]
Move = tuple[int, int, int, int]


class LinearExtensionRecord(NamedTuple):
    """A named tuple: sorts, iterates, equals and hashes like its fields.
    The descent positions and the fixed labels ascend."""

    word: Word
    descents: tuple[int, ...]
    fixed: tuple[int, ...]

    @property
    def des(self) -> int:
        return len(self.descents)

    @property
    def fix(self) -> int:
        return len(self.fixed)


def _ideal_moves(labeling: NaturalLabeling) -> tuple[dict[int, list[Move]], int]:
    """Each order ideal's moves, and e(P), the number of extensions.

    An ideal is a bitmask of placed labels (label - 1). It moves by each
    free label y in increasing y: (y, the ideal after y, the free labels
    below y, the mask clearing y). Each ideal counts the maximal chains
    below it (Stanley, *EC1* 3.5); the full ideal's count is e(P).
    """
    lower, upper = labeling.lower_covers, labeling.upper_covers
    p = labeling.p
    needs = [sum(1 << a for a in below) for below in lower]
    moves_of: dict[int, list[Move]] = {}
    chains = {0: 1}
    # (ideal, its free labels); the list grows as it is read, each layer
    # after the one before, so an ideal's count is complete before it is read
    ideals = [(0, sum(1 << x for x in range(p) if not needs[x]))]
    for placed, free in ideals:
        count = chains[placed]
        moves = moves_of[placed] = []
        todo = free
        while todo:
            bit = todo & -todo
            todo ^= bit
            y = bit.bit_length() - 1
            now_placed = placed | bit
            if now_placed in chains:
                chains[now_placed] += count
            else:
                chains[now_placed] = count
                now_free = free ^ bit
                for z in upper[y]:
                    if needs[z] & now_placed == needs[z]:
                        now_free |= 1 << z
                ideals.append((now_placed, now_free))
            moves.append((y, now_placed, free & (bit - 1), ~bit))
    return moves_of, chains[(1 << p) - 1]


def des_fix_counts(labeling: NaturalLabeling) -> dict[tuple[int, int], int]:
    """Number of extensions with each (des, fix) pair, without visiting
    the extensions one by one.

    A DP over prefixes, one layer per position. Prefixes that agree on
    their state place their remaining labels alike, so they merge and
    keep a count per (des, fix-so-far). Labels are indices label - 1.
    The state is:
      - the placed set, whose free labels and moves are kept once;
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
    merge is one addition. W is the bit length of e(P), the number of
    extensions, so no slot carries into the next: the prefixes a slot
    counts share their placed set, so one completion of the rest makes
    them distinct extensions, and a slot never exceeds e(P) < 2^W. The
    moves and e(P) come from ``_ideal_moves``.
    """
    p = labeling.p
    moves_of, extensions = _ideal_moves(labeling)
    width = extensions.bit_length()
    des_shift = width * (p + 2)
    # last = -1 stands for the empty prefix: every label ascends from it
    layer = {(0, -1, 0, 0): 1}
    for _ in range(p):
        nxt: dict[tuple[int, int, int, int], int] = {}
        get = nxt.get
        for (placed, last, last_flag, flags), packed in layer.items():
            ascent = packed << width if last_flag else packed
            descent = packed << des_shift
            for y, now_placed, smaller, clear in moves_of[placed]:
                key = (now_placed, y, flags >> y & 1, (flags | smaller) & clear)
                nxt[key] = get(key, 0) + (descent if last > y else ascent)
        layer = nxt
    total = sum(packed << width if flag else packed for (_, _, flag, _), packed in layer.items())
    out: dict[tuple[int, int], int] = {}
    mask = (1 << width) - 1
    slot = 0
    while total:
        if total & mask:
            out[divmod(slot, p + 1)] = total & mask
        total >>= width
        slot += 1
    return out


def extension_records(labeling: NaturalLabeling) -> Iterator[LinearExtensionRecord]:
    """Every extension as a record of its word, descent positions and
    fixed labels, streamed in lexicographic order of the words.

    The walk takes the moves of ``des_fix_counts`` depth first with one
    unmerged state per position (last label, flags, and the descent
    positions and fixed labels so far as bitmasks, bit i for position or
    label i), and settles each label where the DP does: on the next move
    or at the end. Memory is those states plus the order-ideal move
    table; the empty poset yields one empty word.
    """
    p = labeling.p
    if p == 0:
        yield LinearExtensionRecord((), (), ())
        return
    moves_of, _ = _ideal_moves(labeling)
    word = [0] * p  # labels 1..p
    # per depth d: the moves not yet tried after the first d labels, and
    # the state of that prefix (last = -1 for the empty one)
    stack = [(iter(moves_of[0]), -1, 0, 0, 0, 0)] * p
    d = 0
    while d >= 0:
        todo, last, flag, flags, descents, fixed = stack[d]
        for y, now_placed, smaller, clear in todo:
            break
        else:
            d -= 1
            continue
        if last > y or flag:
            fixed |= 2 << last
        descents |= (last > y) << d
        word[d] = y + 1
        flag = flags >> y & 1
        if d == p - 1:
            fixed |= flag << y + 1
            yield LinearExtensionRecord(tuple(word), tuple(_bits(descents)), tuple(_bits(fixed)))
            continue
        d += 1
        stack[d] = (iter(moves_of[now_placed]), y, flag, (flags | smaller) & clear, descents, fixed)
