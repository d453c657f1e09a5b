"""Minimal projective resolutions of truncated projectives, combinatorially.

For a monomial algebra the kernel of P(target g) -> <g> (right-multiplication
onto the submodule generated by a nonzero path g) is generated by the minimal
nonzero completions of g to a zero path, and those completions depend on g
alone.  Resolving M(i, S) therefore walks a transition graph on generator
paths, the chain graph: level 1 holds the killed arrows, each later level
the successors of the previous one.  A cycle reachable in that graph means
infinite projective dimension; otherwise the walk terminates and yields
exact Betti data.

A chain node's successors, and so the longest chain from it, depend only
on the automaton state of ``Algebra`` its word reaches, so the walk runs on
int states.  One iterative depth-first walk, ``quiver.find_cycle``, serves
``pdim``, ``resolve`` and ``gldim``, as it serves the admissibility check
and ``quiver.has_oriented_cycle``.  ``pdim`` and ``gldim`` memoise the
longest chain from every state entered in ``Algebra.depths``, ``math.inf``
once it is known to reach a cycle, and later walks skip it.  ``resolve``
counts generators per state, at the state's vertex, and looks for a cycle
of (path, state) pairs with a fresh memo: the cycle a fresh algebra would
report, whatever ran before.  Only relations are consulted, never the path
basis: the cost tracks the relation count and the chain-graph size.
The linear-algebra engine in ``oracle`` recomputes all of this independently.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Sequence, Union

from .algebra import Algebra, ModuleSpec
from .quiver import Path, find_cycle

ExtNat = Union[int, float]
INFINITE: ExtNat = math.inf


class InfiniteResolutionError(RuntimeError):
    """Exact resolution requested for a module of infinite projective dimension."""

    def __init__(self, cycle: list[Path]):
        self.cycle = cycle
        super().__init__(
            "resolution does not terminate; generator cycle: "
            + " -> ".join(str(p) for p in cycle)
        )


@dataclass(frozen=True)
class Resolution:
    """Betti data: ``betti[d]`` maps a vertex v to the multiplicity of P(v)
    in homological degree d.  ``complete`` is False when truncated."""

    betti: tuple[dict[int, int], ...]
    complete: bool

    def pdim(self) -> ExtNat:
        if not self.complete:
            raise ValueError("resolution is truncated; pdim unknown")
        return len(self.betti) - 1


def chain_successors(algebra: Algebra, g: Path) -> tuple[Path, ...]:
    """Minimal nonzero paths p with source target(g) making g.p zero: the
    successors of the state g reaches, which ``Algebra.state_of`` checks."""
    if g.length < 1:
        raise ValueError("successors need a path of length >= 1")
    return tuple(p for p, _ in _paths(algebra, algebra.state_of(g)))


def _successors(algebra: Algebra, state: int) -> tuple[tuple[int, int, int], ...]:
    """(state, length, relation leaf) of each successor p of a chain node g
    in ``state``, memoised per state.  p completes a relation u ++ p with u
    a nonempty suffix of g, and no proper prefix of p does.  So the walk
    reads p along the automaton while the node's word is longer than the
    part of p read (still reaches into g): a state it reaches is pushed,
    and a leaf, a relation longer than p, ends p.  p's own state is the
    first node on its relation's failure chain that fits in p.  The one
    reader of a row that tells a leaf from a state: it needs the leaf."""
    found = algebra.successors.get(state)
    if found is None:
        relations, moves, vertex = algebra.relations, algebra.transitions, algebra.vertex_of
        children, depth, fail = relations.children, relations.depth, relations.fail
        found = []
        todo = [(state, 0)] if state > 0 else []
        while todo:
            node, k = todo.pop()
            k += 1
            for t in moves[node]:
                if t > 0 and depth[t] > k:
                    if children[t]:
                        todo.append((t, k))
                        continue
                    back = fail[t]
                    while depth[back] > k:
                        back = fail[back]
                    found.append((back or -vertex[t], k, t))
        algebra.successors[state] = found = tuple(found)
    return found


def _paths(algebra: Algebra, state: int) -> list[tuple[Path, int]]:
    """The successors of ``state`` as (path, state) pairs, in the order of
    ``Path.sort_key``: p is the last arrows of its relation."""
    word_at, vertex = algebra.relations.word_at, algebra.vertex_of
    found = sorted((k, word_at[leaf][-k:], t, leaf) for t, k, leaf in _successors(algebra, state))
    return [(Path(vertex[state], vertex[leaf], word), t) for _, word, t, leaf in found]


def _level_one(algebra: Algebra, spec: ModuleSpec) -> list[tuple[Path, int]]:
    """The killed arrows of ``spec`` as (path, state) pairs, in id order."""
    algebra.check_module(spec)  # every killed arrow starts at spec.vertex
    row = zip(algebra.quiver._out[spec.vertex], algebra.transitions[-spec.vertex])
    # a root's row holds states only: no relation is one arrow long
    return [(Path(a.source, a.target, (a.id,)), t) for a, t in sorted(row) if a.id in spec.killed]


def resolve(
    algebra: Algebra, spec: ModuleSpec, max_deg: Optional[int] = None
) -> Resolution:
    """Minimal projective resolution of M(i, S) as Betti data.

    Exact when ``max_deg`` is None (raises InfiniteResolutionError if the
    module has infinite projective dimension); otherwise truncated at
    ``max_deg`` and flagged incomplete if there is more.
    """
    if max_deg is not None and max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    algebra.require_admissible()
    level = _level_one(algebra, spec)
    if max_deg is None:
        # a fresh memo: the cycle a fresh algebra reports
        walk = find_cycle(level, lambda node: _paths(algebra, node[1]), {})
        if walk is not None:
            raise InfiniteResolutionError([g for g, _ in walk[walk.index(walk[-1]) : -1]])
    betti: list[dict[int, int]] = [{spec.vertex: 1}]
    states = Counter(state for _, state in level)  # state -> generators in this degree
    degree = 0
    while states:
        degree += 1
        if max_deg is not None and degree > max_deg:
            return Resolution(tuple(betti), complete=False)
        counts: Counter[int] = Counter()
        nxt: Counter[int] = Counter()
        for state, mult in states.items():
            counts[algebra.vertex_of[state]] += mult
            for t, _, _ in _successors(algebra, state):
                nxt[t] += mult
        betti.append({v: counts[v] for v in sorted(counts)})
        states = nxt
    return Resolution(tuple(betti), complete=True)


def pdim(algebra: Algebra, spec: ModuleSpec) -> ExtNat:
    """Projective dimension of M(i, S); math.inf when unbounded."""
    algebra.require_admissible()
    return _pdim(algebra, [state for _, state in _level_one(algebra, spec)])


def _pdim(algebra: Algebra, starts: Sequence[int]) -> ExtNat:
    if not starts:
        return 0
    depths = algebra.depths

    def kids(state: int) -> list[int]:
        return [t for t, _, _ in _successors(algebra, state)]

    if find_cycle(starts, kids, depths) is not None:
        return INFINITE
    return 1 + max(map(depths.__getitem__, starts))


def pdims_of_simples(algebra: Algebra) -> dict[int, ExtNat]:
    """``pdim`` of each simple, whose level one is every out-arrow."""
    algebra.require_admissible()
    moves = algebra.transitions  # a root's row holds states only
    return {v: _pdim(algebra, moves[-v]) for v in algebra.quiver.vertices()}


def gldim(algebra: Algebra) -> ExtNat:
    """Global dimension: the maximum projective dimension of the simples."""
    values = pdims_of_simples(algebra)
    return max(values.values(), default=0)


def check_euler_identity(algebra: Algebra, spec: ModuleSpec, res: Resolution) -> bool:
    """Alternating Betti sum of projective composition vectors equals the
    module's composition vector, vertex by vertex (exact integers).  The
    projectives' vectors come from a table built once per algebra."""
    if not res.complete:
        raise ValueError("Euler identity needs a complete resolution")
    projective = algebra.basis.projective_vectors
    total: Counter[int] = Counter()
    for d, layer in enumerate(res.betti):
        for v, mult in layer.items():
            total.update({w: (-1) ** d * mult * c for w, c in projective[v].items()})
    return total == Counter(algebra.composition_vector(spec))
