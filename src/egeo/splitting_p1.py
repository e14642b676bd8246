"""Sumset factorization of splitting types: bipartite reducibility over P^1.

A degree multiset {a_m} is reducible for shape (d_a, d_b) iff it factors
as {b_i + c_j + t}. The search is exact integer backtracking on the
residual multiset: the smallest unexplained exponent must join either
factor, which makes the branching complete and terminating.
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


def _residual(target: Counter, b: list[int], c: list[int]) -> Counter | None:
    res = target.copy()
    for x in b:
        for y in c:
            res[x + y] -= 1
            if res[x + y] < 0:
                return None
    return +res  # drop zeros


def _search(target: Counter, b: list[int], c: list[int], d_a: int, d_b: int):
    res = _residual(target, b, c)
    if res is None:
        return None
    if len(b) == d_a and len(c) == d_b:
        return (b, c) if not res else None
    s = min(res)
    if len(b) < d_a:
        out = _search(target, b + [s], c, d_a, d_b)
        if out is not None:
            return out
    if len(c) < d_b:
        out = _search(target, b, c + [s], d_a, d_b)
        if out is not None:
            return out
    return None


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
    target = Counter(d - t for d in degrees)
    found = _search(target, [0], [0], d_a, d_b)
    if found is None:
        return None
    b, c = found
    return SumsetFactorization(tuple(sorted(b)), tuple(sorted(c)), t)


def parallelogram(a: SplittingType) -> bool:
    """a_1 + a_4 = a_2 + a_3 on the sorted degrees: the (2,2) reducibility test."""
    d = a.degrees
    if len(d) != 4:
        raise WrongLength(f"parallelogram test needs exactly 4 degrees, got {len(d)}")
    return d[0] + d[3] == d[1] + d[2]
