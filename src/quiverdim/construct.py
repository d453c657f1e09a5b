"""Ideal constructions that pin the global dimension, and the planner.

Every ideal is built in the quiver's own labels from a vertex order and a
walk.  The base ideal kills every length-2 path whose middle vertex ranks
above both endpoints in the order ("local max"); it always forces global
dimension at most 2.  Two refinements steer the dimension higher along a
walk, the vertex sequence of an embedded line or one-cycle: the consecutive
length-2 relations through every three vertices in a row, or those relations
short of the tail plus every length-3 path through the walk's last four
vertices.  The planner orders the vertices along the walk, picks a
construction for a requested target and only issues a certificate after
recomputing the global dimension from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import homology, qh
from .algebra import Algebra, RelationSet, reduce_relations
from .homology import ExtNat
from .quiver import (
    Embedding,
    Path,
    Quiver,
    Relabeling,
    SearchBudgetExceeded,
    find_a_embeddings,
    find_cycle,
    find_x_embedding,
    is_extendable,
    relabeling_from_embedding,
    structure_predicates,
)

# certificate kinds
SEMISIMPLE = "semisimple"
HEREDITARY = "hereditary"
LOCAL_MAX = "local-max"
LINE_CHAIN = "line-chain"  # non-extendable line, consecutive relations
CYCLE_CHAIN = "cycle-chain"  # one-cycle, consecutive relations
CYCLE_CUBIC = "cycle-cubic"  # one-cycle, consecutive + length-3 tail


def _require_loopless(q: Quiver) -> None:
    for a in q.arrows:
        if a.is_loop:
            raise ValueError(f"quiver has a loop {a.id!r} at {a.source}")


def _paths_through(q: Quiver, walk: Sequence[int]) -> list[Path]:
    """Every path along the vertex sequence ``walk``, over all parallel
    arrows between consecutive vertices."""
    words = [()]
    for u, v in zip(walk, walk[1:]):
        ids = [aid for aid, _, target in q.out_arrows(u) if target == v]
        words = [w + (aid,) for w in words for aid in ids]
    if not words:
        raise ValueError(f"missing arrows along {' -> '.join(map(str, walk))}")
    return [Path(walk[0], walk[-1], w) for w in words]


def _ideal(
    q: Quiver, rank: Callable[[int], int], walk: Sequence[int] = (), cubic: bool = False
) -> RelationSet:
    """The local-max relations under ``rank`` (every length-2 path whose
    middle vertex ranks above both ends), plus the consecutive relations
    through every three vertices in a row of ``walk``.  With ``cubic`` the
    last two of those windows give way to every length-3 path through the
    last four vertices of ``walk``."""
    _require_loopless(q)
    gens = []
    for v in q.vertices():
        top = rank(v)
        ins = [(aid, s) for aid, s, _ in q.in_arrows(v) if rank(s) < top]
        outs = [(bid, t) for bid, _, t in q.out_arrows(v) if rank(t) < top]
        gens.extend(Path(s, t, (aid, bid)) for aid, s in ins for bid, t in outs)
    chain = walk[:-2] if cubic else walk
    for k in range(len(chain) - 2):
        gens.extend(_paths_through(q, chain[k : k + 3]))
    if cubic:
        gens.extend(_paths_through(q, walk[-4:]))
    return reduce_relations(gens)


def _identity(v: int) -> int:
    return v


def local_max_ideal(q: Quiver) -> RelationSet:
    """All length-2 paths through a middle vertex larger than both ends."""
    return _ideal(q, _identity)


def chain_ideal(q: Quiver, m: int) -> RelationSet:
    """Local-max ideal plus consecutive relations along 1..m (needs m >= 2)."""
    if not (2 <= m <= q.n):
        raise ValueError(f"m must be within 2..{q.n}")
    return _ideal(q, _identity, range(1, m + 1))


def chain_cubic_ideal(q: Quiver, m: int) -> RelationSet:
    """Local-max ideal, consecutive relations up to m-4, and every length-3
    path (m-3) -> (m-2) -> (m-1) -> m (needs m >= 4)."""
    if not (4 <= m <= q.n):
        raise ValueError(f"m must be within 4..{q.n}")
    return _ideal(q, _identity, range(1, m + 1), cubic=True)


def gldim2_achievable(q: Quiver) -> tuple[bool, Optional[tuple[Path, Relabeling]]]:
    """Loopless with a composable arrow pair?  The witness is the first
    length-2 path by arrow ids (the least by ``Path.sort_key``), and the
    relabeling that moves its middle vertex to n."""
    if any(a.is_loop for a in q.arrows):
        return False, None
    # Arrows compare as (id, source, target) tuples, and ids are unique.
    a = min((a for a in q.arrows if q._out[a.target]), default=None)
    if a is None:
        return False, None
    b = min(q._out[a.target])
    order = tuple(v for v in q.vertices() if v != a.target) + (a.target,)
    return True, (Path(a.source, b.target, (a.id, b.id)), Relabeling(order).inverse())


@dataclass(frozen=True)
class Certificate:
    """A verified construction: the ideal (in the quiver's own labels), how
    it was found, and the recomputed homological data.

    ``relabeling`` is the vertex order the ideal was built under, and under
    which it is strongly quasi-hereditary: vertex i precedes j when
    ``relabeling.apply(i) < relabeling.apply(j)``.  Pass it as ``order`` to
    ``qh.check_strongly_qh``.
    """

    kind: str
    target: int
    m: Optional[int]
    embedding: Optional[Embedding]
    relabeling: Relabeling
    ideal: RelationSet
    verified_gldim: ExtNat
    pdims: dict[int, ExtNat]


@dataclass(frozen=True)
class PlanResult:
    certificate: Optional[Certificate]
    attempts: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.certificate is not None


def _non_extendable_line(q: Quiver, m: int) -> Optional[Embedding]:
    for emb in find_a_embeddings(q, m):
        if is_extendable(q, emb) is None:
            return emb
    return None


def _arrows_ascending(q: Quiver) -> Relabeling:
    """An order of the vertices of an acyclic quiver in which every arrow
    ascends.  The path algebra kQ is strongly quasi-hereditary under it,
    since each Delta(i) is then P(i)."""
    targets = {v: tuple(a.target for a in q.out_arrows(v)) for v in q.vertices()}
    longest: dict = {}
    find_cycle(q.vertices(), targets.get, longest)
    # An arrow u -> v has longest[u] > longest[v].
    ranked = sorted(q.vertices(), key=lambda v: -longest[v])
    return Relabeling(tuple(ranked)).inverse()


def _certify(
    q: Quiver,
    kind: str,
    target: int,
    ideal: RelationSet,
    sigma: Relabeling,
    emb: Optional[Embedding],
    m: Optional[int],
) -> Certificate:
    # every route builds its ideal from q's own arrows: Algebra need not check it again
    algebra = Algebra(q, ideal._of(q))
    pdims = homology.pdims_of_simples(algebra)
    verified = max(pdims.values(), default=0)
    if verified != target:
        raise AssertionError(
            f"internal error: construction {kind} claimed gldim {target} "
            f"but verification found {verified}"
        )
    return Certificate(
        kind=kind,
        target=target,
        m=m,
        embedding=emb,
        relabeling=sigma,
        ideal=ideal,
        verified_gldim=verified,
        pdims=pdims,
    )


def achieve_gldim(q: Quiver, target: int) -> PlanResult:
    """Find an admissible monomial ideal with the requested global dimension.

    Routes, in order: the empty ideal (targets 0 and 1; target 1 keeps the
    identity order when kQ is sqh under it, else orders the vertices so that
    every arrow ascends); the local-max ideal (target 2) under the identity
    order when it is non-empty, else under the order that puts a composable
    pair's middle vertex last; and for target k >= 3 a walk along a
    non-extendable line on k+1 vertices with consecutive relations, a
    one-cycle on k vertices with consecutive relations, or a one-cycle on
    k+1 vertices with the length-3 tail family.  Each walk's ideal is built
    under the order that ranks the walk first, in path order, and the other
    vertices after it in ascending order.  A route whose embedding search
    exceeds its budget is noted in the attempts, and the next route is
    tried.  Failure only means these constructions do not apply, not that
    the target is impossible.
    """
    if target < 0:
        raise ValueError("target must be >= 0")
    attempts: list[str] = []
    identity = Relabeling.identity(q.n)
    empty = RelationSet(())

    if target == 0:
        if not q.arrows:
            cert = _certify(q, SEMISIMPLE, 0, empty, identity, None, None)
            return PlanResult(cert, tuple(attempts))
        return PlanResult(None, ("quiver has arrows, so the zero ideal is not semisimple",))

    if target == 1:
        preds = structure_predicates(q)
        if q.arrows and not preds.has_oriented_cycle:
            order = identity
            if not qh.check_strongly_qh(Algebra(q, empty)).overall:
                order = _arrows_ascending(q)
            cert = _certify(q, HEREDITARY, 1, empty, order, None, None)
            return PlanResult(cert, tuple(attempts))
        why = "no arrows" if not q.arrows else "oriented cycle forces relations"
        return PlanResult(None, (f"global dimension 1 needs an acyclic quiver with arrows: {why}",))

    if target == 2:
        ok, witness = gldim2_achievable(q)
        if not ok:
            return PlanResult(
                None,
                ("global dimension 2 needs a loopless quiver with a composable arrow pair",),
            )
        sigma = identity
        ideal = local_max_ideal(q)
        if not ideal:  # no vertex is a local max in the quiver's own order
            sigma = witness[1]
            ideal = _ideal(q, sigma.apply)
        cert = _certify(q, LOCAL_MAX, 2, ideal, sigma, None, None)
        return PlanResult(cert, tuple(attempts))

    # target >= 3
    try:
        _require_loopless(q)
    except ValueError as exc:
        return PlanResult(None, (str(exc) + "; loops force infinite global dimension",))

    m = target + 1
    routes = (
        (LINE_CHAIN, "non-extendable line", m, _non_extendable_line, False),
        (CYCLE_CHAIN, "one-cycle", target, find_x_embedding, False),
        (CYCLE_CUBIC, "one-cycle", m, find_x_embedding, True),
    )
    for kind, shape, size, search, cubic in routes:
        try:
            emb = search(q, size)
        except SearchBudgetExceeded as exc:
            attempts.append(f"{shape} on {size} vertices: {exc}")
            continue
        if emb is None:
            attempts.append(f"no {shape} on {size} vertices")
            continue
        sigma = relabeling_from_embedding(q, emb)
        ideal = _ideal(q, sigma.apply, emb.vertices, cubic)
        cert = _certify(q, kind, target, ideal, sigma, emb, size)
        return PlanResult(cert, tuple(attempts))

    attempts.append(f"target {target} is not achievable by the supported constructions")
    return PlanResult(None, tuple(attempts))
