"""Sumset factorization of splitting types: bipartite reducibility over P^1.

A degree multiset {a_m} is reducible for shape (d_a, d_b) iff it factors
as {b_i + c_j + t}. The search is exact integer backtracking on the
residual multiset: the smallest unexplained exponent must join either
factor, which makes the branching complete and terminating. One residual
is kept for the whole search: a step removes only the new sums and
backtracking puts them back. The branch order (b first, then c) is
fixed, and with it the first witness found; tests/test_oracle_references.py
holds it to the former rebuild-per-node search.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .errors import OutOfRange, ShapeMismatch, TooLarge, WrongLength

SIZE_CAP = 36


@dataclass(frozen=True)
class SplittingType:
    """Sorted line-bundle degrees of a split bundle."""

    degrees: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(sorted(int(d) for d in self.degrees)))

    def shifted(self, s: int) -> "SplittingType":
        return SplittingType(tuple(d + s for d in self.degrees))


@dataclass(frozen=True)
class SumsetFactorization:
    """Multisets b, c and twist t with {b_i + c_j + t} = degrees."""

    b: tuple[int, ...]
    c: tuple[int, ...]
    t: int

    def recombine(self) -> tuple[int, ...]:
        return tuple(sorted(x + y + self.t for x in self.b for y in self.c))


def _take(res: dict[int, int], sums: list[int]) -> bool:
    """Remove sums from res, keeping no zero count; if one is missing, put back those removed and return False."""
    for k, x in enumerate(sums):
        if x not in res:
            _put_back(res, sums[:k])
            return False
        res[x] -= 1
        if not res[x]:
            del res[x]
    return True


def _put_back(res: dict[int, int], sums: list[int]) -> None:
    for x in sums:
        res[x] = res.get(x, 0) + 1


def _search(res: dict[int, int], b: list[int], c: list[int], d_a: int, d_b: int) -> bool:
    """Grow b, then c, by s = min(res) until res, the target less every b_i + c_j, is empty; else False, all restored."""
    if not res:
        return True
    s = min(res)
    for grow, other, size in ((b, c, d_a), (c, b, d_b)):
        if len(grow) < size:
            sums = [s + y for y in other]
            if _take(res, sums):
                grow.append(s)
                if _search(res, b, c, d_a, d_b):
                    return True
                grow.pop()
                _put_back(res, sums)
    return False


def factor_sumset(a: SplittingType, d_a: int, d_b: int) -> SumsetFactorization | None:
    """Find b, c, t with {b_i + c_j + t} = degrees, or None.

    Canonical form: b and c sorted with b_1 = c_1 = 0, the twist t equal
    to the smallest degree.
    """
    degrees = a.degrees
    if d_a < 1 or d_b < 1:
        raise OutOfRange(f"factor shape must be at least 1 x 1, got {d_a} x {d_b}")
    if len(degrees) != d_a * d_b:
        raise ShapeMismatch(f"{len(degrees)} degrees do not fill a {d_a} x {d_b} shape")
    if len(degrees) > SIZE_CAP:
        raise TooLarge(f"sumset search capped at {SIZE_CAP} degrees")
    t = degrees[0]
    res = dict(Counter(d - t for d in degrees))
    _take(res, [0])  # 0 + 0, the smallest degree less t
    b, c = [0], [0]
    if not _search(res, b, c, d_a, d_b):
        return None
    return SumsetFactorization(tuple(sorted(b)), tuple(sorted(c)), t)


def parallelogram(a: SplittingType) -> bool:
    """a_1 + a_4 = a_2 + a_3 on the sorted degrees: the (2,2) reducibility test."""
    d = a.degrees
    if len(d) != 4:
        raise WrongLength(f"parallelogram test needs exactly 4 degrees, got {len(d)}")
    return d[0] + d[3] == d[1] + d[2]
