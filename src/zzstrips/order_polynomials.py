"""Strict order polynomials, their subposet-weighted extension, and the
Zhang-Zhang polynomial of a strip.

The production route is the closed formula over linear extensions:
``closed_form`` groups them by their (descent count, fixed count) pair
through ``des_fix_counts``, and ``zz_polynomial`` evaluates that form at
the strip's n. ``extended_poly_subposet_sum`` is the oracle: the
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
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Sequence

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

    def coefficient(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

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


def _substitute_one_plus_x(zcoeffs: Sequence[int]) -> ZzPolynomial:
    # z^k expands to sum_i C(k, i) x^i
    out = [0] * len(zcoeffs)
    for k, c in enumerate(zcoeffs):
        if c == 0:
            continue
        for i in range(k + 1):
            out[i] += c * math.comb(k, i)
    return ZzPolynomial.from_coeffs(out)


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
        # extension, and evaluate_range relies on every term being
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
        return _substitute_one_plus_x(_group_sum(self.p, self.groups, n))

    def evaluate_range(self, lo: int, hi: int) -> Iterator[ZzPolynomial]:
        """evaluate(n) for n = lo..hi in turn; nothing when hi < lo.

        Each x^i coefficient is a polynomial in n of degree <= p, so its
        (p+1)-th difference vanishes. The first d + 1 values, with
        d = min(p, hi - lo), come from evaluate. When more follow, the
        difference table holds one packed int per row, each coefficient
        in a slot of its own, and every later n costs d additions of
        those ints plus one unpack of the p + 1 slots of the first row.
        """
        if lo < 0:
            raise ValueError("n must be nonnegative")
        return self._stepped(lo, hi)

    def _stepped(self, lo: int, hi: int) -> Iterator[ZzPolynomial]:
        d = min(self.p, hi - lo)
        if hi <= lo + d:
            yield from map(self.evaluate, range(lo, hi + 1))
            return
        # Each coefficient is a sum of nonnegative terms that never
        # decrease with n, so none exceeds ZZ(S_hi, 1) = sum_k z_k 2^k at
        # hi, and slots of that many bits hold every value yielded.
        width = sum(z << k for k, z in enumerate(_group_sum(self.p, self.groups, hi))).bit_length()
        shifts = range(0, width * (self.p + 1), width)
        mask = (1 << width) - 1
        # diffs[j]: j-th backward difference of the packed coefficient
        # vector at the last n yielded, x^i in bits width*i onwards. Its
        # slots may be negative, but only diffs[0] is decoded and the
        # additions are exact on the whole int.
        diffs: list[int] = []
        for n in range(lo, lo + d + 1):
            zz = self.evaluate(n)
            yield zz
            row = sum(c << s for c, s in zip(zz.coeffs, shifts))
            for j, prev in enumerate(diffs):
                diffs[j], row = row, row - prev
            diffs.append(row)
        # One step of n adds diffs[j + 1], already stepped, to diffs[j],
        # from j = d - 1 down to 0: a running sum over the reversed table.
        table = diffs[::-1]
        for _ in range(lo + d + 1, hi + 1):
            table = list(accumulate(table))
            packed = table[-1]
            # n > p here, so the x^p coefficient, sum of mult * C(n + des, p),
            # is positive: the slots carry no trailing zero to strip
            yield ZzPolynomial(tuple([packed >> s & mask for s in shifts]))

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
        return json.dumps(self.to_dict())

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
