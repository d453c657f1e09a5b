"""Finite quivers, paths, subquiver embeddings and vertex relabelings.

Vertices are the integers 1..n.  Arrows carry symbolic string ids, which
stay stable under relabeling.  Path words are stored in traversal order:
the first-traversed arrow comes first.  (Algebraic texts often write the
product of arrows in composition order, i.e. reversed; every word in this
package, including relation words in files, is a traversal-order word.)
``Arrow``, ``Path`` and ``Embedding`` are ``NamedTuple`` values, hashed and
compared as plain tuples: a ``Path`` equals the tuple ``(source, target,
word)``, and ``len(path)`` is 3, so code must use ``path.length``; likewise
``len(emb)`` is 4, so code must use ``emb.m``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

_ID_RE = re.compile(r"\w+\Z", re.ASCII)


class CompositionError(ValueError):
    """Raised when two paths with mismatched endpoints are composed."""


class SearchBudgetExceeded(RuntimeError):
    """Raised when a subquiver search exceeds its node budget."""


class Arrow(NamedTuple):
    id: str
    source: int
    target: int

    @property
    def is_loop(self) -> bool:
        return self.source == self.target


class Path(NamedTuple):
    """An oriented path: ``word`` lists arrow ids in traversal order.

    The empty word is the trivial path at ``source`` (= ``target``).
    """

    source: int
    target: int
    word: tuple[str, ...]

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def is_trivial(self) -> bool:
        return not self.word

    def sort_key(self):
        return (len(self.word), self.word, self.source)

    def __str__(self) -> str:
        if not self.word:
            return f"e{self.source}"
        return ".".join(self.word)


def compose(p: Path, q: Path) -> Path:
    """Concatenate two paths: first traverse ``p``, then ``q``."""
    if p.target != q.source:
        raise CompositionError(
            f"cannot compose: {p} ends at {p.target}, {q} starts at {q.source}"
        )
    return Path(p.source, q.target, p.word + q.word)


@dataclass(frozen=True)
class Quiver:
    """Finite directed multigraph on vertices 1..n with named arrows.

    The constructor checks the arrows; ``qvfile.parse`` checks them line by
    line instead, to name the line, and builds its quiver with ``_checked``
    from the id table it checked them with.
    """

    n: int
    arrows: tuple[Arrow, ...]

    @classmethod
    def _checked(cls, n: int, by_id: dict[str, Arrow]) -> "Quiver":
        q = object.__new__(cls)  # n >= 0 and arrows that pass __post_init__
        vars(q).update(n=n, arrows=tuple(by_id.values()), arrow_by_id=by_id)
        return q

    def __post_init__(self):
        object.__setattr__(self, "arrows", tuple(self.arrows))
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for a in self.arrows:
            if not _ID_RE.match(a.id):
                raise ValueError(f"arrow id {a.id!r} is not an ASCII word")
            if a.id in seen:
                raise ValueError(f"duplicate arrow id {a.id!r}")
            seen.add(a.id)
            if not (1 <= a.source <= self.n and 1 <= a.target <= self.n):
                raise ValueError(f"arrow {a.id} has endpoint outside 1..{self.n}")

    @cached_property
    def arrow_by_id(self) -> dict[str, Arrow]:
        return {a.id: a for a in self.arrows}

    @cached_property
    def _out(self) -> dict[int, tuple[Arrow, ...]]:
        out: dict[int, list[Arrow]] = {v: [] for v in self.vertices()}
        for a in self.arrows:
            out[a.source].append(a)
        return {v: tuple(sorted(out[v], key=itemgetter(2, 0))) for v in out}

    @cached_property
    def _inc(self) -> dict[int, tuple[Arrow, ...]]:
        inc: dict[int, list[Arrow]] = {v: [] for v in self.vertices()}
        for a in self.arrows:
            inc[a.target].append(a)
        return {v: tuple(sorted(inc[v], key=itemgetter(1, 0))) for v in inc}

    def vertices(self) -> range:
        return range(1, self.n + 1)

    def arrow(self, arrow_id: str) -> Arrow:
        try:
            return self.arrow_by_id[arrow_id]
        except KeyError:
            raise KeyError(f"unknown arrow id {arrow_id!r}") from None

    def out_arrows(self, v: int) -> tuple[Arrow, ...]:
        self._check_vertex(v)
        return self._out[v]

    def in_arrows(self, v: int) -> tuple[Arrow, ...]:
        self._check_vertex(v)
        return self._inc[v]

    def r(self, i: int, j: int) -> int:
        """Number of arrows i -> j."""
        self._check_vertex(i)
        self._check_vertex(j)
        return sum(1 for a in self._out[i] if a.target == j)

    def _check_vertex(self, v: int) -> None:
        if not (1 <= v <= self.n):
            raise ValueError(f"unknown vertex {v} (quiver has vertices 1..{self.n})")

    def trivial_path(self, v: int) -> Path:
        return self.path(v, ())

    def path(self, source: int, word) -> Path:
        """Build a path from a traversal-order word, validating composability."""
        self._check_vertex(source)
        at = source
        for arrow_id in word:
            a = self.arrow(arrow_id)
            if a.source != at:
                raise CompositionError(
                    f"word {tuple(word)} breaks at {arrow_id!r}: "
                    f"expected source {at}, got {a.source}"
                )
            at = a.target
        return Path(source, at, tuple(word))

    def has_path(self, p: Path) -> bool:
        """True if ``path`` builds ``p`` from its source and word: the ids,
        the composition and both declared endpoints hold in this quiver."""
        source, target, word = p
        try:
            return self.path(source, word) == (source, target, tuple(word))
        except (KeyError, ValueError):  # an unknown id or vertex, or a CompositionError
            return False


class StructurePredicates(NamedTuple):
    has_oriented_cycle: bool


def structure_predicates(q: Quiver) -> StructurePredicates:
    return StructurePredicates(has_oriented_cycle(q))


def has_oriented_cycle(q: Quiver) -> bool:
    targets = {v: tuple(a.target for a in q.out_arrows(v)) for v in q.vertices()}
    return find_cycle(q.vertices(), targets.get, {}) is not None


def find_cycle(starts: Iterable, successors: Callable, longest: dict) -> Optional[list]:
    """The walk on which a depth-first search from ``starts`` first meets a
    cycle, or None.

    The package's one search of a graph given by ``successors`` (node ->
    sequence of nodes), run on the chain graph of ``homology``, the trie
    automaton of ``Algebra`` and the quiver itself.  Iterative, in successor
    order, it stops at the first edge back to an open node (one still on
    the stack) and returns the open nodes, then that node again, after
    writing ``math.inf`` into ``longest`` for every open node: each reaches
    the cycle, which runs from that node's first occurrence.  A node it
    finishes gets the edge count of its longest path, which is ``math.inf``
    exactly when it reaches a node already marked so.  Nodes already in
    ``longest`` are skipped, so a later walk that meets a cycle only
    through them returns None.
    ``successors`` is called once per node entered.
    """
    for s in starts:
        if s in longest:
            continue
        kids = successors(s)
        stack = [(s, kids, iter(kids))]
        open_nodes = {s}
        while stack:
            node, kids, todo = stack[-1]
            for child in todo:
                if child in open_nodes:
                    # child -> ... -> node, and the edge node -> child closes it
                    for frame in stack:
                        longest[frame[0]] = math.inf
                    return [frame[0] for frame in stack] + [child]
                if child not in longest:
                    grand = successors(child)
                    open_nodes.add(child)
                    stack.append((child, grand, iter(grand)))
                    break
            else:
                longest[node] = 1 + max(map(longest.__getitem__, kids), default=-1)
                open_nodes.remove(node)
                stack.pop()
    return None


class Embedding(NamedTuple):
    """A simple directed path v_1 -> ... -> v_m realized by chosen arrows.

    ``cycle_arrow`` (with 1-based ``return_index`` i) is an optional extra
    arrow v_m -> v_i with i < m, turning the line into the one-cycle shape.
    """

    vertices: tuple[int, ...]
    arrows: tuple[str, ...]
    cycle_arrow: Optional[str] = None
    return_index: Optional[int] = None

    @property
    def m(self) -> int:
        return len(self.vertices)


SEARCH_BUDGET = 1_000_000  # search nodes per find_a_embeddings call, read at its start


def find_a_embeddings(q: Quiver, m: int) -> Iterator[Embedding]:
    """Yield every simple directed path on m distinct vertices (none, at
    once, when m exceeds the vertex count).

    One embedding per choice of vertices AND arrows, in the preorder of the
    search: start vertices ascend, and each vertex's out-arrows are tried
    by (target, id), the order of its ``Quiver._out`` row.  That is not
    lexicographic on the vertex sequence: with arrows a, b: 1 -> 2,
    c: 2 -> 4 and d: 2 -> 3 the order is 1-a-2-d-3, 1-a-2-c-4, 1-b-2-d-3,
    1-b-2-c-4.  Iterative backtracking over the ``_out`` rows.  A search
    node is a prefix, counted as it is entered, and each is one loop turn:
    of the main loop, or, for a full line, of the loop over its parent's
    row, which yields each line without stacking it.  Raises
    SearchBudgetExceeded on entering node ``SEARCH_BUDGET + 1`` (the
    problem is longest-path-hard in general, instances here are small).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if m > q.n:
        return
    # tuple.__new__ builds an Embedding without the NamedTuple constructor's argument handling
    out, make, steps, budget = q._out, tuple.__new__, 0, SEARCH_BUDGET
    over = f"embedding search exceeded {budget} nodes"
    seen = [False] * (q.n + 1)  # by vertex: on the current prefix
    for start in q.vertices():
        # vertices[k] is entered by arrows[k] (None at the start); todo[k]
        # holds the out-arrows of vertices[k] not tried yet.
        vertices, arrows, todo = [start], [None], []
        seen[start] = True
        while True:  # the prefix ``vertices`` was just entered
            steps += 1
            if steps > budget:
                raise SearchBudgetExceeded(over)
            depth = len(vertices)
            if depth < m - 1:
                todo.append(iter(out[vertices[-1]]))
            else:
                if depth == m:  # m == 1: the start alone is a line
                    yield make(Embedding, ((start,), (), None, None))
                else:  # each child is a line: enter, yield and leave it here
                    head, word = tuple(vertices), tuple(arrows[1:])
                    for arrow_id, _, target in out[vertices[-1]]:  # (id, source, target)
                        if not seen[target]:
                            steps += 1
                            if steps > budget:
                                raise SearchBudgetExceeded(over)
                            line = (head + (target,), word + (arrow_id,), None, None)
                            yield make(Embedding, line)
                seen[vertices.pop()] = False
                arrows.pop()
            while todo:  # on to the next prefix, stepping back past spent rows
                for arrow_id, _, target in todo[-1]:
                    if not seen[target]:
                        break
                else:
                    todo.pop()
                    seen[vertices.pop()] = False
                    arrows.pop()
                    continue
                vertices.append(target)
                arrows.append(arrow_id)
                seen[target] = True
                break
            else:  # every prefix from this start is done
                break


def is_extendable(q: Quiver, emb: Embedding) -> Optional[Arrow]:
    """A witness arrow from the last embedded vertex back to an earlier
    vertex of the line, if any: the first by (target, id), the order of
    ``out_arrows``."""
    line = emb.vertices[:-1]
    for a in q.out_arrows(emb.vertices[-1]):
        if a.target in line:
            return a
    return None


def find_x_embedding(q: Quiver, m: int) -> Optional[Embedding]:
    """First extendable A_m embedding, completed by a return arrow.

    Among the return arrows of that embedding the one with maximal return
    index is chosen (ties by arrow id), so the cycle is as short as possible.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    for emb in find_a_embeddings(q, m):
        pos = {v: k for k, v in enumerate(emb.vertices[:-1], 1)}
        returns = (a for a in q.out_arrows(emb.vertices[-1]) if a.target in pos)
        best = min(returns, key=lambda a: (-pos[a.target], a.id), default=None)
        if best is not None:
            return Embedding(emb.vertices, emb.arrows, best.id, pos[best.target])
    return None


@dataclass(frozen=True)
class Relabeling:
    """A bijection of 1..n; ``mapping[old - 1]`` is the new label."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mapping", tuple(self.mapping))
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise ValueError("relabeling must be a permutation of 1..n")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def apply(self, v: int) -> int:
        return self.mapping[v - 1]

    def inverse(self) -> "Relabeling":
        inv = [0] * self.n
        for old, new in enumerate(self.mapping, start=1):
            inv[new - 1] = old
        return Relabeling(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Relabeling":
        return Relabeling(tuple(range(1, n + 1)))


def relabel(q: Quiver, sigma: Relabeling) -> Quiver:
    """Rename vertices by ``sigma``; arrow ids and their order are kept."""
    if sigma.n != q.n:
        raise ValueError("relabeling size does not match quiver")
    return Quiver(
        q.n,
        tuple(Arrow(a.id, sigma.apply(a.source), sigma.apply(a.target)) for a in q.arrows),
    )


def relabeling_from_embedding(q: Quiver, emb: Embedding) -> Relabeling:
    """Send the embedded vertices to 1..m in path order, the rest to m+1..n
    in ascending original order."""
    inside = set(emb.vertices)
    return Relabeling([*emb.vertices, *(v for v in q.vertices() if v not in inside)]).inverse()
