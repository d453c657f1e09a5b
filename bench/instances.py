"""Quivers, ideals and QV1 text for the benchmark, built without the package.

Arrow ids are ``a{i}_{j}_{t}`` (the t-th arrow from i to j), which stay
distinct for any vertex count.  Relation words are in traversal order, as in
QV1 files.  Nothing here imports ``quiverdim``: the inputs must not depend on
the code being measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Arrow = tuple[str, int, int]  # (id, source, target)
Word = tuple[str, ...]


@dataclass(frozen=True)
class Quiver:
    n: int
    arrows: tuple[Arrow, ...]

    def out(self, v: int) -> list[Arrow]:
        return [a for a in self.arrows if a[1] == v]

    def between(self, i: int, j: int) -> list[str]:
        return [a[0] for a in self.arrows if a[1] == i and a[2] == j]


def arrow_id(i: int, j: int, t: int = 0) -> str:
    return f"a{i}_{j}_{t}"


def complete(n: int, r: int = 1) -> Quiver:
    """r parallel arrows between every ordered pair of distinct vertices."""
    return Quiver(
        n,
        tuple(
            (arrow_id(i, j, t), i, j)
            for i in range(1, n + 1)
            for j in range(1, n + 1)
            if i != j
            for t in range(r)
        ),
    )


def line(n: int) -> Quiver:
    """A_n: 1 -> 2 -> ... -> n."""
    return Quiver(n, tuple((arrow_id(i, i + 1), i, i + 1) for i in range(1, n)))


def cycle(n: int) -> Quiver:
    """The one-cycle 1 -> 2 -> ... -> n -> 1."""
    return Quiver(n, line(n).arrows + ((arrow_id(n, 1), n, 1),))


def local_max(q: Quiver) -> list[Word]:
    """Every 2-path u -> v -> w whose middle vertex exceeds both ends."""
    return sorted(
        (a, b)
        for a, u, v in q.arrows
        if u < v
        for b, _, w in q.out(v)
        if w < v
    )


def consecutive(q: Quiver, steps: list[int], length: int) -> list[Word]:
    """All words of ``length`` arrows along the vertex walk ``steps``,
    starting at each position where the walk is long enough."""
    words = []
    for start in range(len(steps) - length):
        walk = steps[start : start + length + 1]
        partial: list[Word] = [()]
        for x, y in zip(walk, walk[1:]):
            partial = [w + (a,) for w in partial for a in q.between(x, y)]
        words.extend(partial)
    return words


def chain(q: Quiver, m: int) -> list[Word]:
    """Local-max relations plus the consecutive 2-paths along 1 -> ... -> m."""
    return sorted(set(local_max(q)) | set(consecutive(q, list(range(1, m + 1)), 2)))


def line_relations(n: int) -> list[Word]:
    return consecutive(line(n), list(range(1, n + 1)), 2)


def cycle_relations(n: int, length: int) -> list[Word]:
    """Every consecutive ``length``-path around the one-cycle."""
    walk = list(range(1, n + 1)) * (length + 1)
    return sorted(set(consecutive(cycle(n), walk[: n + length], length)))


def random_quiver(rng: random.Random, n: int) -> tuple[Quiver, list[Word]]:
    """An n-vertex quiver with loops and random 2- and 3-relations.

    Most loops get a power relation; the other relations are random walks,
    so they always compose.  They are not reduced, so the parser's
    reduction runs.  With these densities about half of the instances are
    not admissible.
    """
    arrows = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            p = 0.1 if i == j else 1.0 / n
            for t in range(2):
                if rng.random() < p:
                    arrows.append((arrow_id(i, j, t), i, j))
    q = Quiver(n, tuple(arrows))
    words: set[Word] = set()
    for aid, s, t in arrows:
        if s == t and rng.random() < 0.9:
            words.add((aid,) * rng.choice((2, 3)))
    for _ in range(rng.randint(1, max(1, 3 * len(arrows)))):
        if not arrows:
            break
        aid, _, at = rng.choice(arrows)
        word = [aid]
        for _ in range(rng.choice((1, 1, 2))):
            nxt = q.out(at)
            if not nxt:
                break
            aid, _, at = rng.choice(nxt)
            word.append(aid)
        if len(word) >= 2:
            words.add(tuple(word))
    return q, sorted(words)


def qv1(q: Quiver, relations: list[Word]) -> str:
    lines = [f"quiver {q.n}"]
    lines.extend(f"arrow {aid} {s} {t}" for aid, s, t in q.arrows)
    if relations:
        lines.append("relations")
        lines.extend("rel " + " ".join(w) for w in relations)
    return "\n".join(lines) + "\n"
