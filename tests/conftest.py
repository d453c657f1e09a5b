import itertools
import math
import random
from collections import Counter

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


def short_paths(q: qd.Quiver) -> list[qd.Path]:
    """Every path of length 2 or 3, the candidate generators of a brute-force
    ideal."""
    words = [(a, b) for a in q.arrows for b in q.out_arrows(a.target)]
    words += [(a, b, c) for a, b in words for c in q.out_arrows(b.target)]
    return [q.path(w[0].source, tuple(a.id for a in w)) for w in words]


def sqh_conditions(q: qd.Quiver, paths, order: qd.Relabeling) -> dict[int, tuple[bool, bool]]:
    """Per vertex i, whether R(i) is projective and whether Delta(i) has the
    right composition factors under ``order``, both from their definitions
    on ``paths``, the nonzero paths ``brute_force_nonzero_paths`` lists.

    R(i) is projective iff each down-arrow a starts as many nonzero paths as
    start at a's target, and Delta(i) has the right factors iff each nonzero
    path of length >= 1 from i that does not start with a down-arrow ends
    above i.
    """
    starts = Counter(source for source, _, _ in paths)
    firsts = Counter(word[0] for _, _, word in paths if word)
    rank = order.apply
    conditions = {}
    for i in q.vertices():
        down = {a.id: a.target for a in q.out_arrows(i) if rank(a.target) < rank(i)}
        r_ok = all(firsts[a] == starts[t] for a, t in down.items())
        delta_ok = all(
            rank(t) > rank(i) for s, t, w in paths if s == i and w and w[0] not in down
        )
        conditions[i] = (r_ok, delta_ok)
    return conditions


def brute_force_sqh_spectrum(q: qd.Quiver) -> dict[int, bool]:
    """Every finite global dimension of an admissible algebra kQ/I, where I
    runs over the reduced monomial ideals generated by paths of length 2 or
    3, mapped to whether one of the ideals reaching it is strongly
    quasi-hereditary under some order of the vertices.

    The global dimension comes from ``qd.gldim``; strong quasi-heredity is
    decided by ``sqh_conditions`` on brute-force paths, not by the package.
    Tries all 2**len(short_paths(q)) generator sets, so keep q small.
    """
    paths = short_paths(q)
    orders = [qd.Relabeling(m) for m in itertools.permutations(range(1, q.n + 1))]
    spectrum: dict[int, bool] = {}
    for size in range(len(paths) + 1):
        for ideal in itertools.combinations(paths, size):
            words = {g.word for g in ideal}
            if any(len(w) == 3 and (w[:2] in words or w[1:] in words) for w in words):
                continue  # not reduced: the same ideal has fewer generators
            algebra = qd.Algebra(q, ideal)
            if not algebra.admissibility.ok:
                continue
            d = qd.gldim(algebra)
            if d != math.inf and not spectrum.get(d):
                nonzero = brute_force_nonzero_paths(q, words)
                spectrum[d] = any(
                    all(r and delta for r, delta in sqh_conditions(q, nonzero, o).values())
                    for o in orders
                )
    return spectrum


@pytest.fixture
def golden():
    return golden_algebra()


@pytest.fixture
def complete4_algebra():
    q = complete_quiver(4)
    return qd.Algebra(q, qd.local_max_ideal(q))
