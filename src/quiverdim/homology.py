"""Minimal projective resolutions of truncated projectives, combinatorially.

For a monomial algebra the kernel of P(target g) -> <g> (right-multiplication
onto the submodule generated by a nonzero path g) is generated by the minimal
nonzero completions of g to a zero path, and those completions depend on g
alone.  Resolving M(i, S) therefore walks a transition graph on generator
paths, the chain graph: level 1 holds the killed arrows, each later level
the successors of the previous one.  A cycle reachable in that graph means
infinite projective dimension; otherwise the walk terminates and yields
exact Betti data.

One iterative depth-first walk, ``quiver.find_cycle`` (called through
``_walk``), serves ``pdim``, ``resolve`` and ``gldim``; the admissibility
check of ``algebra`` and ``quiver.has_oriented_cycle`` use the same walk on
their own graphs.  For ``pdim`` and ``gldim`` the longest chain length from
every path it enters is memoised in ``Algebra.depths``, ``math.inf`` once
the path is known to reach a cycle, and later walks skip it.  ``resolve``
walks with a fresh memo, so the cycle it reports is the one a fresh algebra
would, whatever ran before; its own level walk visits every node that
search does.  Successors are memoised in ``Algebra.successors`` and found
in one pass over the relation-prefix table, with no zero test.  A miss
checks the path, so a path from a caller is checked once; the paths the
walk builds itself are entered in the memo unexpanded and never checked: a
level one holds arrows, and a successor is a proper suffix of a relation of
a reduced set, so both are nonzero.  The simples of ``gldim`` take their
level one straight from the quiver's out-arrows.  Only relations are
consulted, never the path basis: the cost tracks the relation count and
the chain-graph size, not the (possibly exponential) dimension.
The linear-algebra engine in ``oracle`` recomputes all of this independently.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Optional, Union

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
    """Minimal nonzero paths p with source target(g) making g.p zero.

    Found from each relation r = u ++ v with u a nonempty suffix of word(g):
    then g.v contains r.  ``RelationSet.remainders`` looks each suffix of
    word(g) up among the proper prefixes of the relations; v is nonzero, as
    a proper infix of a relation of a reduced set.  A candidate with another
    one as a proper prefix is redundant and dropped; the survivors are
    exactly the minimal generators of the kernel of P(target g) -> <g>.
    The result is memoised on the algebra, and ``g`` is checked only on a
    cache miss.  A path in the memo needs no check: it passed the checks,
    or the walk entered it (mapped to None) as an arrow or as a successor.
    """
    memo = algebra.successors
    cached = memo.get(g)
    if cached is None:
        if g not in memo:
            if g.length < 1:
                raise ValueError("successors need a path of length >= 1")
            if algebra.is_zero_path(g):
                raise ValueError(f"{g} is zero in the algebra")
        found = set(algebra.relations.remainders(g.word))
        minimal = [v for v in found if not any(v[:k] in found for k in range(1, len(v)))]
        minimal.sort()
        minimal.sort(key=len)  # all start at target(g): the order of Path.sort_key
        arrows = algebra.quiver.arrow_by_id
        cached = tuple(Path(g.target, arrows[v[-1]].target, v) for v in minimal)
        for k in cached:
            memo.setdefault(k, None)
        memo[g] = cached
    return cached


def _enter(algebra: Algebra, vertex: int, arrows) -> list[Path]:
    """Arrows out of ``vertex`` as paths in id order, entered in the memo."""
    level = [Path(vertex, a.target, (a.id,)) for a in sorted(arrows)]
    for g in level:
        algebra.successors.setdefault(g, None)
    return level


def _level_one(algebra: Algebra, spec: ModuleSpec) -> list[Path]:
    algebra.check_module(spec)  # every killed arrow starts at spec.vertex
    arrows = algebra.quiver.arrow_by_id
    return _enter(algebra, spec.vertex, [arrows[aid] for aid in spec.killed])


def _walk(algebra: Algebra, starts: list[Path], depths: dict) -> Optional[list[Path]]:
    return find_cycle(starts, lambda g: chain_successors(algebra, g), depths)


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
        cycle = _walk(algebra, level, {})  # a fresh memo: the cycle a fresh algebra reports
        if cycle is not None:
            raise InfiniteResolutionError(cycle)
    betti: list[dict[int, int]] = [{spec.vertex: 1}]
    paths = Counter(level)  # generator path -> multiplicity in this degree
    degree = 0
    while paths:
        degree += 1
        if max_deg is not None and degree > max_deg:
            return Resolution(tuple(betti), complete=False)
        counts: Counter[int] = Counter()
        nxt: Counter[Path] = Counter()
        for g, mult in paths.items():
            counts[g.target] += mult
            for k in chain_successors(algebra, g):
                nxt[k] += mult
        betti.append({v: counts[v] for v in sorted(counts)})
        paths = nxt
    return Resolution(tuple(betti), complete=True)


def pdim(algebra: Algebra, spec: ModuleSpec) -> ExtNat:
    """Projective dimension of M(i, S); math.inf when unbounded."""
    algebra.require_admissible()
    return _pdim(algebra, _level_one(algebra, spec))


def _pdim(algebra: Algebra, starts: list[Path]) -> ExtNat:
    if not starts:
        return 0
    if _walk(algebra, starts, algebra.depths) is not None:
        return INFINITE
    return 1 + max(algebra.depths[g] for g in starts)


def pdims_of_simples(algebra: Algebra) -> dict[int, ExtNat]:
    """``pdim`` of each simple, whose level one is every out-arrow."""
    algebra.require_admissible()
    return {v: _pdim(algebra, _enter(algebra, v, out)) for v, out in algebra.quiver._out.items()}


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
