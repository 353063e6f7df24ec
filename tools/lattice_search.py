"""Search the generator of compare's rank-1 Korobov lattice.

    python3 tools/lattice_search.py [--points 4096] [--dims 256]
    python3 tools/lattice_search.py --points 257

A Korobov lattice of n points in s dimensions has the generating vector
z_j = g^(j-1) mod n, j = 1..s, and the points {k z / n}, k = 0..n-1.
For n a power of two or a prime, a g prime to n (odd, or not a multiple
of n) makes every z_j prime to n, so every 1-D projection of the points
is a permutation of {k/n}.  This script scores each such g in [1, n/2]
by the weighted P_2 criterion with product weights gamma_j = 1/j^2,

    P_2 = -1 + (1/n) sum_k prod_j (1 + gamma_j 2 pi^2 B_2({k z_j / n})),

for B_2(x) = x^2 - x + 1/6 the Bernoulli polynomial: the squared
worst-case error of the lattice in the weighted Korobov space of
smoothness 1 (Dick, Kuo and Sloan 2013, section 5).  A g and n - g give
the same criterion, since B_2(1 - x) = B_2(x), so the upper half is
left out.  It prints the g of the least criterion, the smallest among
ties, and the order of g mod n: the vector z repeats after that many
coordinates, so a point set of more coordinates than the order reuses
its z_j.  The order is at most n/4 for n a power of two and n - 1 for
a prime, so a prime n of few points keeps a long period.  numpy only;
at s = 256 the search takes about half a minute at n = 4096 and under a
second at n = 257.
"""

from __future__ import annotations

import argparse

import numpy as np


def generating_vector(n: int, g: int, s: int) -> np.ndarray:
    """z_j = g^(j-1) mod n for j = 1..s, as int64."""
    z = np.empty(s, dtype=np.int64)
    z[0] = 1
    for j in range(1, s):
        z[j] = z[j - 1] * g % n
    return z


def order(n: int, g: int) -> int:
    """The least k >= 1 with g^k = 1 mod n, for g prime to n: the period
    of z_j."""
    k, x = 1, g % n
    while x != 1:
        k, x = k + 1, x * g % n
    return k


def criterion(n: int, g: int, s: int) -> float:
    """The weighted P_2 criterion of the Korobov lattice (n, g) in s
    dimensions, with gamma_j = 1/j^2."""
    z = generating_vector(n, g, s)
    gamma = 1.0 / np.arange(1, s + 1) ** 2
    x = (np.arange(n, dtype=np.int64)[:, None] * z % n) / n
    terms = 1.0 + gamma * (2.0 * np.pi**2) * (x * x - x + 1.0 / 6.0)
    return float(np.prod(terms, axis=1).mean() - 1.0)


def search(n: int, s: int) -> tuple:
    """(g, criterion) of the least criterion over the g in [1, n/2]
    prime to n."""
    scores = {g: criterion(n, g, s) for g in range(1, n // 2 + 1) if np.gcd(g, n) == 1}
    best = min(scores, key=lambda g: (scores[g], g))
    return best, scores[best]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=4096, help="n, a power of two or a prime")
    parser.add_argument("--dims", type=int, default=256, help="s, the dimensions scored")
    args = parser.parse_args()
    g, score = search(args.points, args.dims)
    print(
        f"n = {args.points}, s = {args.dims}: g = {g}, order {order(args.points, g)}, "
        f"P_2 = {score:.6e}"
    )


if __name__ == "__main__":
    main()
