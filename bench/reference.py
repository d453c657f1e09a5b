"""Brute-force answers for small inputs, sharing no code with the package.

Paths are explicit words; a word is zero when some relation occurs in it as
a contiguous infix (every infix of a relation's length is looked up).  For
a monomial algebra the kernel of P(t(x)) -> xA is the direct sum of zA over
the minimal nonzero paths z with x.z zero, so projective dimensions follow
from a graph on basis paths whose edges are found by scanning the basis.
This is the textbook construction (Green-Happel-Zacharia 1985), evaluated
on full paths rather than on the relation pieces the chain engine walks.
"""

from __future__ import annotations

import math
from collections import Counter

from instances import Quiver, Word

INF = math.inf


class TooLarge(Exception):
    """The brute force would exceed its path cap on this input."""


class Reference:
    def __init__(self, q: Quiver, relations: list[Word], cap: int = 50_000):
        self.q = q
        self.rels = {tuple(w) for w in relations}
        self.lengths = sorted({len(w) for w in self.rels})
        self.cap = cap
        self.target = {aid: t for aid, _, t in q.arrows}
        self.out = {v: [a[0] for a in q.out(v)] for v in range(1, q.n + 1)}
        self._basis_cache: dict[int, list[tuple[Word, int]]] = {}

    def is_zero(self, word: Word) -> bool:
        return any(
            word[s : s + k] in self.rels
            for k in self.lengths
            for s in range(len(word) - k + 1)
        )

    def admissible(self) -> bool:
        """No nonzero path of length S + lmax, S the number of window states.

        A nonzero path that long repeats a (vertex, last lmax-1 arrows)
        state, and repeating the loop between the two visits never creates
        a relation, so the algebra is infinite-dimensional; conversely an
        infinite-dimensional one has nonzero paths of every length.
        """
        lmax = max((len(r) for r in self.rels), default=1)
        states = {(v, ()) for v in range(1, self.q.n + 1)}
        limit = None
        length = 0
        seen = set()
        while states:
            if limit is None and length == lmax - 1:
                limit = length + self._window_count(lmax - 1) + lmax
            # The state set evolves deterministically, so a repeat means it
            # never empties.
            key = frozenset(states)
            if key in seen or (limit is not None and length >= limit):
                return False
            seen.add(key)
            grown = set()
            for v, window in states:
                for aid in self.out[v]:
                    word = window + (aid,)
                    if not self.is_zero(word):
                        grown.add((self.target[aid], word[-(lmax - 1) :] if lmax > 1 else ()))
            states = grown
            length += 1
        return True

    def _window_count(self, k: int) -> int:
        paths = [(v, ()) for v in range(1, self.q.n + 1)]
        for _ in range(k):
            paths = [(self.target[a], w + (a,)) for v, w in paths for a in self.out[v]]
            if len(paths) > self.cap:
                raise TooLarge("too many windows")
        return len(paths)

    def basis_from(self, v: int) -> list[tuple[Word, int]]:
        """Nonzero paths from v as (word, end vertex), shortest first."""
        if v not in self._basis_cache:
            self._basis_cache[v] = self._paths_from(v)
        return self._basis_cache[v]

    def _paths_from(self, v: int) -> list[tuple[Word, int]]:
        found = [((), v)]
        level = found
        while level:
            level = [
                (w + (a,), self.target[a])
                for w, at in level
                for a in self.out[at]
                if not self.is_zero(w + (a,))
            ]
            found.extend(level)
            if len(found) > self.cap:
                raise TooLarge(f"more than {self.cap} paths from {v}")
        return found

    def successors(self, word: Word, end: int) -> list[tuple[Word, int]]:
        """Minimal nonzero paths z from ``end`` with word.z zero."""
        killing = [(z, t) for z, t in self.basis_from(end) if z and self.is_zero(word + z)]
        return [
            (z, t)
            for z, t in killing
            if not any(len(u) < len(z) and z[: len(u)] == u for u, _ in killing)
        ]

    def _starts(self, i: int) -> list[tuple[Word, int]]:
        return [((a,), self.target[a]) for a in self.out[i]]

    def pdim_simple(self, i: int) -> float:
        starts = self._starts(i)
        if not starts:
            return 0
        depth: dict[Word, float] = {}
        on_stack: set[Word] = set()

        def longest(word: Word, end: int) -> float:
            if word in on_stack:
                return INF
            if word not in depth:
                on_stack.add(word)
                kids = self.successors(word, end)
                depth[word] = 0 if not kids else 1 + max(longest(z, t) for z, t in kids)
                on_stack.discard(word)
            return depth[word]

        return 1 + max(longest(w, t) for w, t in starts)

    def pdims(self) -> dict[int, float]:
        return {i: self.pdim_simple(i) for i in range(1, self.q.n + 1)}

    def betti_simple(self, i: int) -> list[dict[int, int]]:
        """Betti data of S(i), when its pdim is finite, by walking the graph
        level by level."""
        betti = [{i: 1}]
        level = self._starts(i)
        while level:
            counts = Counter(t for _, t in level)
            betti.append({v: counts[v] for v in sorted(counts)})
            level = [kid for w, t in level for kid in self.successors(w, t)]
        return betti

    def sqh(self) -> dict[int, dict[str, bool]]:
        """The three per-vertex strong quasi-heredity conditions.

        R-projective: no relation starts with an arrow to a smaller vertex,
        i.e. that arrow generates a copy of P(target).  Delta factors (and
        the Hom form of the same count): the paths from i that do not start
        with such an arrow end at i exactly once and never below i.
        """
        report = {}
        for i in range(1, self.q.n + 1):
            down = {aid for aid, s, t in self.q.arrows if s == i and t < i}
            r_ok = all(not self.successors((a,), self.target[a]) for a in down)
            counts = Counter(t for w, t in self.basis_from(i) if not w or w[0] not in down)
            delta_ok = counts[i] == 1 and all(counts[j] == 0 for j in range(1, i))
            report[i] = {
                "r_projective_ok": r_ok,
                "delta_factors_ok": delta_ok,
                "hom_delta_ok": delta_ok,
            }
        return report
