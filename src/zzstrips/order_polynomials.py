"""Strict order polynomials, their subposet-weighted extension, and the
Zhang-Zhang polynomial of a strip.

The production route is the closed formula over linear extensions:
``closed_form`` groups them by their (descent count, fixed count) pair
through ``des_fix_counts``, and ``ClosedForm.row_blocks`` reads ZZ
values off that form, for one n (``evaluate``, ``zz_polynomial``) or a
range of n alike. ``extended_poly_subposet_sum`` is the oracle: the
definitional sum of strict order polynomials over all induced
subposets, which must agree exactly with the closed formula. The
brute-force strict maps, the proper-sextet coefficients by subposet
sums and the extension formula summed term by term are test references
and live in ``tests/reference.py``. All arithmetic is exact integer
arithmetic.
"""

from __future__ import annotations

import json
import math
import struct
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple

from .dib_poset import (
    DibPoset,
    build_poset,
    induced_subposets,
    natural_labeling,
)
from .errors import GuardExceeded, NonKekuleanError, json_field, json_int, json_list
from .extension_engine import des_fix_counts
from .strip_geometry import StripSpec

DEFAULT_SUBSET_GUARD = 20
# rows per block of ClosedForm.row_blocks; the CLI writes its streamed
# lines in blocks of as many
ROW_BLOCK = 256


class ZzPolynomial(NamedTuple):
    """Exact integer polynomial in x, coefficients stored ascending.

    The empty tuple is the zero polynomial; otherwise the trailing
    coefficient is nonzero. A named tuple: sorts, iterates, equals and
    hashes like the plain tuple (coeffs,)."""

    coeffs: tuple[int, ...]

    @classmethod
    def from_coeffs(cls, coeffs: Iterable[int]) -> "ZzPolynomial":
        values = list(coeffs)
        while values and values[-1] == 0:
            values.pop()
        return cls(tuple(values))

    @classmethod
    def zero(cls) -> "ZzPolynomial":
        return cls(())

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def clar_number(self) -> int:
        return self.degree

    @property
    def kekule_count(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def evaluate(self, x: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * x + c
        return total

    def __str__(self) -> str:
        return self._terms("x^{}")

    def to_latex(self) -> str:
        return self._terms("x^{{{}}}")

    def _terms(self, power_format: str) -> str:
        """Nonzero terms, highest power first, joined by " + ";
        power_format writes x^k for k >= 2."""
        if self.is_zero:
            return "0"
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                power = "x" if k == 1 else power_format.format(k)
                terms.append(power if c == 1 else f"{c}{power}")
        return " + ".join(terms)

    def to_json(self) -> str:
        return json.dumps({"coeffs": list(self.coeffs)})

    @classmethod
    def from_json(cls, text: str) -> "ZzPolynomial":
        coeffs = json_list(json_field(json.loads(text), "coeffs"), "coeffs")
        return cls.from_coeffs(json_int(c, "coefficient") for c in coeffs)


def strict_order_poly(poset: DibPoset, n: int) -> int:
    """Number of strictly order-preserving maps into {1, .., n}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    counts = des_fix_counts(natural_labeling(poset))
    return sum(mult * math.comb(n + des, poset.p) for (des, _), mult in counts.items())


def extended_poly_subposet_sum(
    poset: DibPoset, n: int, max_p: int = DEFAULT_SUBSET_GUARD
) -> tuple[int, ...]:
    """E(n, z) by its definition: sum of strict order polynomials over
    all induced subposets, weighted by z^|subposet|."""
    if poset.p > max_p:
        raise GuardExceeded(f"poset size {poset.p} exceeds subset guard {max_p}")
    coeffs = [0] * (poset.p + 1)
    for sub in induced_subposets(poset):
        coeffs[sub.p] += strict_order_poly(sub, n)
    return tuple(coeffs)


def _group_sum(p: int, groups: Iterable[tuple[int, int, int]], n: int) -> tuple[int, ...]:
    # sum over groups of mult * C(p - fix, k - fix) * C(n + des, k) z^k
    if n < 0:
        raise ValueError("n must be nonnegative")
    coeffs = [0] * (p + 1)
    for des, fix, mult in groups:
        for k in range(fix, p + 1):
            coeffs[k] += mult * math.comb(p - fix, k - fix) * math.comb(n + des, k)
    return tuple(coeffs)


def zz_polynomial(spec: StripSpec) -> ZzPolynomial:
    """Zhang-Zhang polynomial of the strip, via the DIB poset.

    Non-Kekulean strips have no Kekule structure at all, hence the zero
    polynomial. An invalid strip raises InvalidStripError from
    build_poset.
    """
    try:
        form = closed_form(spec)
    except NonKekuleanError:
        return ZzPolynomial.zero()
    return form.evaluate(spec.n)


class ClosedForm(
    NamedTuple("ClosedForm", [("p", int), ("groups", tuple[tuple[int, int, int], ...])])
):
    """Binomial closed form of the ZZ polynomial, with n left symbolic.

    Linear extensions are grouped by their (descent count, fixed count)
    pair; each (des, fix, mult) of groups contributes
    mult * C(p - fix, k - fix) * C(n + des, k) * (1 + x)^k. A named
    tuple: sorts, iterates, equals and hashes like (p, groups); _make
    and _replace skip the constructor's checks."""

    __slots__ = ()

    def __new__(cls, p: int, groups: tuple[tuple[int, int, int], ...]) -> "ClosedForm":
        # the forms closed_form builds: a poset has at least one linear
        # extension, and row_blocks relies on every term being
        # nonnegative and nondecreasing in n
        if p < 0 or not groups:
            raise ValueError(f"a closed form needs p >= 0 and a group, got p={p}")
        for des, fix, mult in groups:
            if des < 0 or not 0 <= fix <= p or mult < 1:
                raise ValueError(
                    f"group (des={des}, fix={fix}, mult={mult}) outside "
                    f"des >= 0, 0 <= fix <= {p}, mult >= 1"
                )
        return super().__new__(cls, p, groups)

    @property
    def extension_count(self) -> int:
        return sum(mult for _, _, mult in self.groups)

    def evaluate(self, n: int) -> ZzPolynomial:
        """ZZ(S_n, x), the one row of row_blocks(n, n)."""
        return ZzPolynomial.from_coeffs(next(self.row_blocks(n, n))[1:])

    def row_blocks(self, lo: int, hi: int) -> Iterator[tuple[int, ...]]:
        """The rows (n, c_0, .., c_p) of ZZ(S_n, x) = sum of c_i x^i for
        n = lo..hi, flattened into one tuple per block of at most
        ROW_BLOCK rows. Rows at small n, whose c_p is still 0, lead the
        range. evaluate(n) is the one row of row_blocks(n, n).

        Each row is one int, n | ZZ(S_n, 2^W) << W, whose W-bit slots
        hold n and then c_0, .., c_p: at x = 2^W each (1+x)^k of the
        form is (1 + 2^W)^k (Kronecker substitution). Every slot is a
        polynomial in n of degree at most max(p, 1), so the rows at the
        first max(p, 1) + 1 values of n, each E(n, 1 + 2^W) by Horner's
        rule, seed a difference table, and a block is max(p, 1) running
        sums over it. Slots are 64 bits wide when n and ZZ(S_hi, 1) fit
        them, and a block then decodes in one join of to_bytes and one
        struct unpack; wider slots decode by shift and mask.
        """
        if hi < lo:
            return
        # the z^k coefficients of E(n, z) at each seed n
        seeds = range(lo, min(hi, lo + max(self.p, 1)) + 1)
        zcoeffs = [_group_sum(self.p, self.groups, n) for n in seeds]
        # Each coefficient is a sum of nonnegative terms that never
        # decrease with n, so none exceeds ZZ(S_hi, 1) = E(hi, 2).
        top = zcoeffs[-1] if seeds[-1] == hi else _group_sum(self.p, self.groups, hi)
        width = max(ZzPolynomial(top).evaluate(2).bit_length(), hi.bit_length())
        slots = self.p + 2
        if width <= 64:
            width, row_bytes = 64, 8 * slots

            def decode(rows: list[int]) -> tuple[int, ...]:
                data = b"".join([row.to_bytes(row_bytes, "little") for row in rows])
                return struct.unpack(f"<{slots * len(rows)}Q", data)
        else:
            shifts = range(0, width * slots, width)
            mask = (1 << width) - 1

            def decode(rows: list[int]) -> tuple[int, ...]:
                return tuple([row >> s & mask for row in rows for s in shifts])
        # z = 1 + x at x = 2^width, so E(n, z) is ZZ(S_n, x) packed.
        # diffs[j]: j-th forward difference of the packed rows at the
        # first n of the next block. Its slots may be negative, but the
        # additions are exact on the whole int and only rows are decoded.
        z = 1 + (1 << width)
        rows = [n | ZzPolynomial(c).evaluate(z) << width for n, c in zip(seeds, zcoeffs)]
        diffs: list[int] = []
        while rows:
            diffs.append(rows[0])
            rows = [b - a for a, b in zip(rows, rows[1:])]
        # The highest difference is constant (a range of fewer values than
        # the degree needs takes it so and still meets every seed row).
        # Each lower one is a running sum of the one above, from its value
        # at the block's first n; its value past the block starts the next.
        for first in range(lo, hi + 1, ROW_BLOCK):
            rows = [diffs[-1]] * min(ROW_BLOCK, hi + 1 - first)
            for j in range(len(diffs) - 2, -1, -1):
                rows = list(accumulate(rows, initial=diffs[j]))
                diffs[j] = rows.pop()
            yield decode(rows)

    def _term_pieces(self, des: int, fix: int, mult: int, latex: bool) -> str:
        def c(top: str, bottom: str) -> str:
            if latex:
                return rf"\binom{{{top}}}{{{bottom}}}"
            return f"C({top},{bottom})"

        upper = str(self.p - fix)
        lower = "k" if fix == 0 else f"k-{fix}"
        shift = "n" if des == 0 else f"n+{des}"
        piece = f"{c(upper, lower)}{c(shift, 'k')}"
        if mult != 1:
            piece = f"{mult}{piece}"
        return piece

    def as_text(self) -> str:
        if self.p == 0:
            return "1"
        body = " + ".join(self._term_pieces(d, f, m, latex=False) for d, f, m in self.groups)
        return f"sum_{{k=0..{self.p}}} [ {body} ] (1+x)^k"

    def as_latex(self) -> str:
        if self.p == 0:
            return "1"
        body = " + ".join(self._term_pieces(d, f, m, latex=True) for d, f, m in self.groups)
        return rf"\sum_{{k=0}}^{{{self.p}}} \left[ {body} \right] (1+x)^{{k}}"

    def to_dict(self) -> dict:
        """The JSON object of ``to_json``, before encoding."""
        return {
            "p": self.p,
            "groups": [{"des": d, "fix": f, "mult": m} for d, f, m in self.groups],
        }

    def to_json(self) -> str:
        """json.dumps(self.to_dict()), built from the ints directly."""
        groups = ", ".join(f'{{"des": {d}, "fix": {f}, "mult": {m}}}' for d, f, m in self.groups)
        return f'{{"p": {self.p}, "groups": [{groups}]}}'

    @classmethod
    def from_json(cls, text: str) -> "ClosedForm":
        data = json.loads(text)
        return cls(
            json_int(json_field(data, "p"), "p"),
            tuple(
                tuple(json_int(json_field(g, key), key) for key in ("des", "fix", "mult"))
                for g in json_list(json_field(data, "groups"), "groups")
            ),
        )


def closed_form(spec: StripSpec) -> ClosedForm:
    """Group the linear extensions by (des, fix) into the symbolic form."""
    poset = build_poset(spec)
    counts = des_fix_counts(natural_labeling(poset))
    groups = tuple((d, f, counts[(d, f)]) for d, f in sorted(counts))
    return ClosedForm(poset.p, groups)
