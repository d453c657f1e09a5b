import random

import pytest

import quiverdim as qd


def complete_quiver(n: int, r: int = 1) -> qd.Quiver:
    """Loopless quiver with r parallel arrows between every ordered pair.

    Arrow ids are ``a{i}{j}`` below 10 vertices and ``a{i}_{j}`` from 10 on,
    where plain concatenation would repeat ids (1 -> 11 and 11 -> 1).
    """
    sep = "_" if n >= 10 else ""
    arrows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            for t in range(r):
                suffix = "" if r == 1 else f"x{t}"
                arrows.append(qd.Arrow(f"a{i}{sep}{j}{suffix}", i, j))
    return qd.Quiver(n, tuple(arrows))


def linear_quiver(n: int) -> qd.Quiver:
    return qd.Quiver(n, tuple(qd.Arrow(f"a{i}", i, i + 1) for i in range(1, n)))


def golden_quiver() -> qd.Quiver:
    """The 3-vertex quiver with arrows both ways around every pair."""
    return qd.Quiver(
        3,
        (
            qd.Arrow("a", 1, 2),
            qd.Arrow("b", 2, 3),
            qd.Arrow("c", 3, 1),
            qd.Arrow("d", 2, 1),
            qd.Arrow("e", 3, 2),
            qd.Arrow("f", 1, 3),
        ),
    )


GOLDEN_RELATION_WORDS = (("a", "d"), ("b", "c"), ("b", "e"), ("f", "c"), ("f", "e"))


def golden_algebra() -> qd.Algebra:
    q = golden_quiver()
    return qd.Algebra(q, [q.path(q.arrow(w[0]).source, w) for w in GOLDEN_RELATION_WORDS])


def one_loop_algebra(power: int = 3) -> qd.Algebra:
    q = qd.Quiver(1, (qd.Arrow("a", 1, 1),))
    return qd.Algebra(q, [q.path(1, ("a",) * power)])


def random_loopless_quiver(rng: random.Random, n_max: int = 6, r_max: int = 2) -> qd.Quiver:
    n = rng.randint(1, n_max)
    arrows = []
    k = 0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            mult = rng.choices(range(r_max + 1), weights=[6, 3, 1][: r_max + 1])[0]
            for _ in range(mult):
                arrows.append(qd.Arrow(f"r{k}", i, j))
                k += 1
    return qd.Quiver(n, tuple(arrows))


def brute_force_nonzero_paths(q: qd.Quiver, relation_words, cap: int = 100_000):
    """Independent enumeration: extend paths arrow by arrow, full infix scan.

    Shares no code with the package's suffix automaton; used as the oracle
    for basis counts.  Only safe on admissible inputs (or use the cap).
    """

    def contains(word, sub):
        return any(
            word[s : s + len(sub)] == sub for s in range(len(word) - len(sub) + 1)
        )

    found = []

    def grow(source, at, word):
        found.append((source, at, word))
        if len(found) > cap:
            raise RuntimeError("brute force cap hit")
        for a in q.out_arrows(at):
            w2 = word + (a.id,)
            if not any(contains(w2, r) for r in relation_words):
                grow(source, a.target, w2)

    for v in q.vertices():
        grow(v, v, ())
    return found


@pytest.fixture
def golden():
    return golden_algebra()


@pytest.fixture
def complete4_algebra():
    q = complete_quiver(4)
    return qd.Algebra(q, qd.local_max_ideal(q))
