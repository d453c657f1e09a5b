"""Minimal projective resolutions of truncated projectives, combinatorially.

For a monomial algebra the kernel of P(target g) -> <g> (right-multiplication
onto the submodule generated by a nonzero path g) is generated by the minimal
nonzero completions of g to a zero path, and those completions depend on g
alone.  Resolving M(i, S) therefore walks a transition graph on generator
paths: level 1 holds the killed arrows, each later level the successors of
the previous one.  A cycle reachable in that graph means infinite projective
dimension; otherwise the walk terminates and yields exact Betti data.

Only relations are consulted, never the path basis: zero tests and
successors go through the algebra's ``RelationIndex``, and successors are
memoised on the algebra, so the cost tracks the relation count and the
chain-graph size, not the (possibly exponential) dimension.  The
linear-algebra engine in ``oracle`` recomputes all of this independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .algebra import Algebra, ModuleSpec
from .quiver import Path

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
    """Minimal nonzero paths p with source target(g) making g.p zero.

    Found from each relation r = u ++ v with u a nonempty suffix of word(g):
    then g.v contains r.  The relation index maps every proper prefix u of a
    relation to its remainders v, so only the suffixes of word(g) shorter
    than the longest relation are looked up.  Candidates with another
    candidate as a proper prefix are redundant and dropped; the survivors are
    exactly the minimal generators of the kernel of P(target g) -> <g>.
    The result is memoised on the algebra; the checks on ``g`` run every call.
    """
    if g.length < 1:
        raise ValueError("successors need a path of length >= 1")
    if algebra.is_zero_path(g):
        raise ValueError(f"{g} is zero in the algebra")
    cached = algebra.successors.get(g)
    if cached is None:
        cached = algebra.successors[g] = _successors(algebra, g)
    return cached


def _successors(algebra: Algebra, g: Path) -> tuple[Path, ...]:
    word, rests = g.word, algebra.index.rests
    candidates = {
        v
        for cut in range(1, min(len(word), algebra.lmax - 1) + 1)
        for v in rests.get(word[-cut:], ())
        if not algebra.is_zero_word(v)
    }
    minimal = [
        v
        for v in candidates
        if not any(u != v and v[: len(u)] == u for u in candidates)
    ]
    return tuple(
        sorted(
            (algebra.quiver.path(g.target, v) for v in minimal),
            key=Path.sort_key,
        )
    )


def _level_one(algebra: Algebra, spec: ModuleSpec) -> list[Path]:
    algebra.check_module(spec)
    q = algebra.quiver
    return sorted(
        (q.path(spec.vertex, (aid,)) for aid in spec.killed), key=Path.sort_key
    )


def _find_cycle(algebra: Algebra, starts: list[Path]) -> Optional[list[Path]]:
    """A generator-path cycle reachable from ``starts``, or None."""
    color: dict[Path, int] = {}
    parent: dict[Path, Path] = {}
    for s in starts:
        if color.get(s, 0):
            continue
        color[s] = 1
        stack = [(s, iter(chain_successors(algebra, s)))]
        while stack:
            node, kids = stack[-1]
            for child in kids:
                state = color.get(child, 0)
                if state == 1:
                    chain = [node]
                    cur = node
                    while cur != child:
                        cur = parent[cur]
                        chain.append(cur)
                    chain.reverse()  # child -> ... -> node, edge node -> child closes
                    return chain
                if state == 0:
                    parent[child] = node
                    color[child] = 1
                    stack.append((child, iter(chain_successors(algebra, child))))
                    break
            else:
                color[node] = 2
                stack.pop()
    return None


def resolve(
    algebra: Algebra, spec: ModuleSpec, max_deg: Optional[int] = None
) -> Resolution:
    """Minimal projective resolution of M(i, S) as Betti data.

    Exact when ``max_deg`` is None (raises InfiniteResolutionError if the
    module has infinite projective dimension); otherwise truncated at
    ``max_deg`` and flagged incomplete if there is more.
    """
    algebra.require_admissible()
    level = _level_one(algebra, spec)
    if max_deg is None:
        cycle = _find_cycle(algebra, level)
        if cycle is not None:
            raise InfiniteResolutionError(cycle)
    betti: list[dict[int, int]] = [{spec.vertex: 1}]
    degree = 0
    while level:
        degree += 1
        if max_deg is not None and degree > max_deg:
            return Resolution(tuple(betti), complete=False)
        counts: dict[int, int] = {}
        for g in level:
            counts[g.target] = counts.get(g.target, 0) + 1
        betti.append({v: counts[v] for v in sorted(counts)})
        nxt: list[Path] = []
        for g in level:
            nxt.extend(chain_successors(algebra, g))
        level = sorted(nxt, key=Path.sort_key)
    return Resolution(tuple(betti), complete=True)


def pdim(algebra: Algebra, spec: ModuleSpec) -> ExtNat:
    """Projective dimension of M(i, S); math.inf when unbounded."""
    algebra.require_admissible()
    starts = _level_one(algebra, spec)
    if not starts:
        return 0
    if _find_cycle(algebra, starts) is not None:
        return INFINITE
    depth: dict[Path, int] = {}

    def longest(g: Path) -> int:
        # reachable subgraph is acyclic here, so plain memoized recursion
        if g not in depth:
            kids = chain_successors(algebra, g)
            depth[g] = 0 if not kids else 1 + max(longest(k) for k in kids)
        return depth[g]

    return 1 + max(longest(g) for g in starts)


def pdims_of_simples(algebra: Algebra) -> dict[int, ExtNat]:
    q = algebra.quiver
    return {i: pdim(algebra, ModuleSpec.simple(q, i)) for i in q.vertices()}


def gldim(algebra: Algebra) -> ExtNat:
    """Global dimension: the maximum projective dimension of the simples."""
    values = pdims_of_simples(algebra)
    return max(values.values(), default=0)


def verify_local_max_resolution(algebra: Algebra):
    """Check the two-step closed form for the local-max ideal.

    For that ideal each simple S(i) resolves as
    degree 1 = sum of P(j)^r(i,j) over j != i, and
    degree 2 = sum of P(k)^{r(i,j) r(j,k)} over j > i, k < j.
    Returns (ok, mismatches) where each mismatch is
    (vertex i, degree, vertex v, expected, got).
    """
    q = algebra.quiver
    mismatches = []
    for i in q.vertices():
        deg1: dict[int, int] = {}
        for j in q.vertices():
            if j != i and q.r(i, j):
                deg1[j] = q.r(i, j)
        deg2: dict[int, int] = {}
        for j in q.vertices():
            if j <= i:
                continue
            for k in q.vertices():
                if k < j and q.r(i, j) and q.r(j, k):
                    deg2[k] = deg2.get(k, 0) + q.r(i, j) * q.r(j, k)
        expected = [{i: 1}]
        if deg1:
            expected.append(deg1)
        if deg2:
            expected.append(deg2)
        got = resolve(algebra, ModuleSpec.simple(q, i))
        for d in range(max(len(expected), len(got.betti))):
            want = expected[d] if d < len(expected) else {}
            have = got.betti[d] if d < len(got.betti) else {}
            for v in sorted(set(want) | set(have)):
                if want.get(v, 0) != have.get(v, 0):
                    mismatches.append((i, d, v, want.get(v, 0), have.get(v, 0)))
    return (not mismatches, mismatches)


def check_euler_identity(algebra: Algebra, spec: ModuleSpec, res: Resolution) -> bool:
    """Alternating Betti sum of projective composition vectors equals the
    module's composition vector, vertex by vertex (exact integers)."""
    if not res.complete:
        raise ValueError("Euler identity needs a complete resolution")
    total: dict[int, int] = {}
    sign = 1
    for layer in res.betti:
        for v, mult in layer.items():
            pv = algebra.composition_vector(ModuleSpec.projective(algebra.quiver, v))
            for w, c in pv.items():
                total[w] = total.get(w, 0) + sign * mult * c
        sign = -sign
    target = algebra.composition_vector(spec)
    return all(total.get(v, 0) == target.get(v, 0) for v in set(total) | set(target))
