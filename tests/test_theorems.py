"""Theorems about monomial algebras as a third check, beside the two engines.

Each test draws seeded random algebras and asks only the public ``qd.gldim``;
a draw that is not admissible is skipped.
"""

import math
import random
from collections import Counter

import quiverdim as qd


def random_walks(rng: random.Random, q: qd.Quiver, count: int, lengths: range) -> list[qd.Path]:
    """``count`` random walks, each from a random arrow along random out-arrows
    for a length drawn from ``lengths``, cut short where no arrow leaves; the
    walks of length >= 2 are the relations."""
    paths = []
    for _ in range(count):
        arrow = rng.choice(q.arrows)
        word = [arrow.id]
        for _ in range(rng.choice(lengths) - 1):
            outs = q.out_arrows(arrow.target)
            if not outs:
                break
            arrow = rng.choice(outs)
            word.append(arrow.id)
        if len(word) >= 2:
            paths.append(q.path(q.arrow(word[0]).source, tuple(word)))
    return paths


def gldim_or_none(q: qd.Quiver, relations: list[qd.Path]):
    """The global dimension of kQ/I, or None when I is not admissible."""
    try:
        return qd.gldim(qd.Algebra(q, relations))
    except qd.NotAdmissibleError:
        return None


def test_no_loops_theorem():
    # Igusa (1990): a finite-dimensional monomial algebra whose quiver has a
    # loop has infinite global dimension.
    rng = random.Random(83)
    admissible = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        v = rng.randint(1, n)
        arrows = [qd.Arrow("loop", v, v)]
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
        for k in range(rng.randint(0, 4) if pairs else 0):
            arrows.append(qd.Arrow(f"x{k}", *rng.choice(pairs)))
        q = qd.Quiver(n, tuple(arrows))
        d = gldim_or_none(q, random_walks(rng, q, rng.randint(1, 6), range(2, 5)))
        if d is not None:
            admissible += 1
            assert d == math.inf, q
    assert admissible >= 1500  # 1,848 of the 3,000 draws


def test_serial_bound_on_oriented_cycles():
    # Gustafson (1985): a finite global dimension of a monomial algebra on the
    # oriented n-cycle is at most 2n - 2.
    rng = random.Random(89)
    highest: Counter[int] = Counter()
    for _ in range(3000):
        n = rng.randint(2, 7)
        q = qd.Quiver(n, tuple(qd.Arrow(f"c{i}", i, i % n + 1) for i in range(1, n + 1)))
        d = gldim_or_none(q, random_walks(rng, q, rng.randint(1, n), range(2, 2 * n + 1)))
        if d is not None and d != math.inf:
            assert d <= 2 * n - 2, q
            highest[n] = max(highest[n], d)
    assert set(highest) == set(range(2, 8))
    # the draws reach the bound on the shorter cycles
    assert [highest[n] for n in (2, 3, 4)] == [2, 4, 6]
