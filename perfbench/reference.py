"""A fixed stdlib workload that measures how fast the machine runs right now.

    python3 perfbench/reference.py

It makes 60 000 random ``Fraction`` values, files them in a dict keyed by
tuples and combines them in a shuffled order: allocation, hashing and
scattered memory reads on top of exact arithmetic, the mix the eorec
engine spends its time on.  Its work never changes, so only the machine
can change its time.  ``run.py`` times it between jobs and scales its
time metrics by it.  It prints nothing, and exits 1 if a check fails.
"""

from __future__ import annotations

import random
from fractions import Fraction

N = 60_000


def main() -> int:
    rng = random.Random(1)
    xs = [Fraction(rng.randrange(1, 10**6), rng.randrange(1, 10**6)) for _ in range(N)]
    table = {(i % 1000, i % 997): x for i, x in enumerate(xs)}
    order = list(range(N))
    rng.shuffle(order)
    acc = 0
    for i in order:
        acc += (xs[i] * xs[order[i]] + table[(i % 1000, i % 997)]).numerator % 7
    # (i % 1000, i % 997) repeats only after 997 000 > N steps: one key per x
    return 0 if len(table) == N and 0 < acc < 7 * N else 1


if __name__ == "__main__":
    raise SystemExit(main())
