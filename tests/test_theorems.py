"""Theorems about monomial algebras as a third check, beside the two engines.

Each test draws seeded random algebras and skips a draw that is not
admissible.  The theorems ask only the public ``qd.gldim``; on quivers with
loops the two engines are also checked against each other.
"""

import math
import random
from collections import Counter

import quiverdim as qd
from quiverdim import oracle
from quiverdim.algebra import ModuleSpec


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


def quiver_with_a_loop(rng: random.Random, n_max: int) -> qd.Quiver:
    """1..n_max vertices, one loop and 0..4 arrows between distinct vertices."""
    n = rng.randint(1, n_max)
    v = rng.randint(1, n)
    arrows = [qd.Arrow("loop", v, v)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    for k in range(rng.randint(0, 4) if pairs else 0):
        arrows.append(qd.Arrow(f"x{k}", *rng.choice(pairs)))
    return qd.Quiver(n, tuple(arrows))


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
        q = quiver_with_a_loop(rng, 4)
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


def test_engines_agree_on_quivers_with_a_loop():
    # With a loop the chain walk meets the same state again and again; the
    # mod-p oracle resolves by linear algebra and shares none of that walk.
    rng = random.Random(97)
    builds = (ModuleSpec.simple, ModuleSpec.delta, ModuleSpec.gamma, ModuleSpec.projective)
    compared = 0
    for _ in range(1500):
        q = quiver_with_a_loop(rng, 3)
        algebra = qd.Algebra(q, random_walks(rng, q, rng.randint(1, 6), range(2, 5)))
        if not algebra.admissibility.ok:
            continue
        compared += 1
        for spec in (build(q, v) for build in builds for v in q.vertices()):
            chain = qd.resolve(algebra, spec, max_deg=6)
            matrix = oracle.minimal_resolution(algebra, spec, 6)
            assert (chain.betti, chain.complete) == (matrix.betti, matrix.complete), (q, spec)
    assert compared >= 900  # 940 of the 1,500 draws, at most 32 paths each


def test_pdims_with_a_loop_do_not_depend_on_the_labels():
    rng = random.Random(101)
    checked = 0
    for _ in range(1500):
        q = quiver_with_a_loop(rng, 4)
        relations = random_walks(rng, q, rng.randint(1, 6), range(2, 5))
        algebra = qd.Algebra(q, relations)
        if not algebra.admissibility.ok:
            continue
        checked += 1
        sigma = qd.Relabeling(tuple(rng.sample(range(1, q.n + 1), q.n)))
        moved = [qd.Path(sigma.apply(p.source), sigma.apply(p.target), p.word) for p in relations]
        pdims = qd.pdims_of_simples(qd.Algebra(qd.relabel(q, sigma), moved))
        assert pdims == {sigma.apply(v): d for v, d in qd.pdims_of_simples(algebra).items()}, q
    assert checked >= 900  # 918 of the 1,500 draws, with 972 finite pdims
