"""Witten-Kontsevich intersection numbers <tau_k1 ... tau_kn>_g by the DVV
(Virasoro) recursion, independent of the engine."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations


def _dfact(n: int) -> int:
    """Double factorial, with (-1)!! = 1."""
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


@lru_cache(maxsize=None)
def _wk(g: int, ks: tuple[int, ...]) -> Fraction:
    n = len(ks)
    if g < 0 or 2 * g - 2 + n <= 0 or sum(ks) != 3 * g - 3 + n:
        return Fraction(0)
    if (g, ks) == (0, (0, 0, 0)):
        return Fraction(1)
    if (g, ks) == (1, (1,)):
        return Fraction(1, 24)
    if ks[0] == 0:
        return Fraction(0)
    k, rest = ks[0] - 1, ks[1:]
    total = Fraction(0)
    for j, kj in enumerate(rest):
        bumped = rest[:j] + (kj + k,) + rest[j + 1:]
        total += Fraction(_dfact(2 * k + 2 * kj + 1), _dfact(2 * kj - 1)) * wk(g, bumped)
    for r in range(k):
        s = k - 1 - r
        weight = Fraction(_dfact(2 * r + 1) * _dfact(2 * s + 1), 2)
        split = wk(g - 1, rest + (r, s))
        for size in range(len(rest) + 1):
            for pick in combinations(range(len(rest)), size):
                left = tuple(rest[i] for i in pick)
                right = tuple(rest[i] for i in range(len(rest)) if i not in pick)
                for g1 in range(g + 1):
                    split += wk(g1, left + (r,)) * wk(g - g1, right + (s,))
        total += weight * split
    return total / _dfact(2 * k + 3)


def wk(g: int, ks) -> Fraction:
    """<prod_i tau_{k_i}>_g; symmetric in the k_i."""
    return _wk(g, tuple(sorted(ks, reverse=True)))
