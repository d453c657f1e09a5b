"""The strong quasi-heredity check.

An algebra here is strongly quasi-hereditary when for every vertex i the
submodule of P(i) generated by the arrows to smaller vertices is a direct
sum of the matching projectives, and the radical of the standard module
Delta(i) only has composition factors above i.  "Smaller" and "above" refer
to an order on the vertices: the labels 1..n unless a ``Relabeling`` is
given, in which case i precedes j when the relabeling sends i below j.  For
monomial ideals both conditions are word-combinatorial, and neither a matrix
nor the path basis is built: the first asks whether a relation starts with
a down-arrow, a child of the relation trie's root, and the second is
reachability in the automaton of ``Algebra``, whose states are numbered
trie nodes.  Each out-arrow is sorted into down or not by comparing ranks,
so a vertex costs time linear in its out-degree.  The Hom criterion
dim Hom(P(j), Delta(i)) = [Delta(i) : S(j)] counts the same paths it
reaches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import Algebra
from .quiver import Relabeling


@dataclass(frozen=True)
class SqhVertexReport:
    """The two defining conditions at one vertex.

    ``hom_delta_ok`` (dim Hom(P(j), Delta(i)) is 1 for j = i and 0 for j
    below i) always equals ``delta_factors_ok``: dim Hom(P(j), M) is the
    multiplicity of S(j) in M.  It is kept for the reports that print it.
    """

    r_projective_ok: bool
    delta_factors_ok: bool
    hom_delta_ok: bool


@dataclass(frozen=True)
class SqhReport:
    vertices: dict[int, SqhVertexReport]
    overall: bool


def check_strongly_qh(algebra: Algebra, order: Optional[Relabeling] = None) -> SqhReport:
    """Per-vertex report; ``overall`` is the conjunction of the two defining
    conditions, read off the relation trie and the automaton, never the
    path basis.  Each nonzero path from i not starting with a down-arrow is
    a factor of Delta(i) at its end, so the factors are right iff no such
    path of length >= 1 reaches a vertex ranked <= i.

    Vertex i is smaller than j when ``order.apply(i) < order.apply(j)``; with
    no order, when i < j.  The report is keyed by the original labels.
    """
    q = algebra.quiver
    algebra.require_admissible()
    order = order or Relabeling.identity(q.n)
    if order.n != q.n:
        raise ValueError(f"order has {order.n} vertices, the quiver {q.n}")
    rank = order.apply
    # low[s]: the lowest rank of a vertex reachable from automaton state s; a
    # leaf reaches none, so it ranks above all.  The admissibility walk measured
    # every state (the set is reduced), and s -> t has longest[s] > longest[t].
    longest, moves, vertex = algebra.state_depths, algebra.transitions, algebra.vertex_of
    low = dict.fromkeys(algebra.relations.word_at, q.n + 1)
    for s in sorted(moves, key=longest.get):
        low[s] = min([rank(vertex[s])] + [low[t] for t in moves[s]])
    starts = algebra.relations.children[0]  # the first arrows of the relations
    per_vertex: dict[int, SqhVertexReport] = {}
    for i in q.vertices():
        r = rank(i)
        # the image of a down-arrow is projective iff no relation starts with it
        r_ok = not any(a.id in starts for a in q.out_arrows(i) if rank(a.target) < r)
        row = zip(q.out_arrows(i), moves[-i])  # a root's row holds states only
        delta_ok = all(low[s] > r for a, s in row if rank(a.target) >= r)
        per_vertex[i] = SqhVertexReport(r_ok, delta_ok, delta_ok)
    overall = all(r.r_projective_ok and r.delta_factors_ok for r in per_vertex.values())
    return SqhReport(per_vertex, overall)
