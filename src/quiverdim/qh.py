"""Strongly quasi-hereditary checks and structural exact-sequence identities.

An algebra here is strongly quasi-hereditary when for every vertex i the
submodule of P(i) generated by the arrows to smaller vertices is a direct
sum of the matching projectives, and the radical of the standard module
Delta(i) only has composition factors above i.  "Smaller" and "above" refer
to an order on the vertices: the labels 1..n unless a ``Relabeling`` is
given, in which case i precedes j when the relabeling sends i below j.  For
monomial ideals both conditions are word-combinatorial, and neither a matrix
nor the path basis is built: the second is reachability in the window
automaton of ``Algebra``, and the Hom criterion dim Hom(P(j), Delta(i)) =
[Delta(i) : S(j)] counts the same paths it reaches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from . import homology
from .algebra import Algebra, ModuleSpec
from .homology import ExtNat
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
    conditions, read off the relations and the window automaton, never the
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
    # low[s]: the lowest rank of a vertex reachable from automaton state s.
    # The admissibility walk measured every state; s -> t has longest[s] > longest[t].
    longest = algebra.window_depths
    low: dict = {}
    for s in sorted(longest, key=longest.get):
        low[s] = min([rank(s[0])] + [low[t] for _, t in algebra._window_transitions(s)])
    per_vertex: dict[int, SqhVertexReport] = {}
    for i in q.vertices():
        down = [a for a in q.out_arrows(i) if rank(a.target) < rank(i)]
        # the image of a down-arrow is projective iff no relation starts with it
        r_ok = not any(algebra.relations.remainders((a.id,)) for a in down)
        steps = algebra._window_transitions((i, ()))
        delta_ok = all(low[s] > rank(i) for a, s in steps if a not in down)
        per_vertex[i] = SqhVertexReport(r_ok, delta_ok, delta_ok)
    overall = all(r.r_projective_ok and r.delta_factors_ok for r in per_vertex.values())
    return SqhReport(per_vertex, overall)


def ringel_bound_check(algebra: Algebra, order: Optional[Relabeling] = None) -> bool:
    """Strongly quasi-hereditary algebras (under ``order``, see
    ``check_strongly_qh``) have global dimension at most n."""
    report = check_strongly_qh(algebra, order=order)
    if not report.overall:
        raise ValueError("algebra is not strongly quasi-hereditary")
    return homology.gldim(algebra) <= algebra.quiver.n


def _total(*vectors: Counter[int]) -> Counter[int]:
    """The sum of composition vectors; unlike ``+`` it keeps negative counts."""
    acc: Counter[int] = Counter()
    for vec in vectors:
        acc.update(vec)
    return acc


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    ok: bool
    detail: str = ""


def verify_sequence_identities(algebra: Algebra, m: int) -> list[IdentityCheck]:
    """Exact integer identities satisfied by chain-ideal algebras (line or
    one-cycle on 1..m with consecutive relations).

    Composition vectors of P, Delta and Gamma are compared degree by degree
    against the exact sequences relating them, and the projective-dimension
    recurrences along the line are checked with the chain engine.
    """
    q = algebra.quiver
    if not (2 <= m <= q.n):
        raise ValueError(f"m must be within 2..{q.n}")
    algebra.require_admissible()
    P, Gamma, Delta = ModuleSpec.projective, ModuleSpec.gamma, ModuleSpec.delta

    def cv(spec: ModuleSpec, k: int = 1) -> Counter[int]:
        """``k`` times the composition vector of ``spec``."""
        return Counter({v: k * c for v, c in algebra.composition_vector(spec).items()})

    def cv_r(i: int, k: int = 1) -> Counter[int]:
        """``k`` times that of R(i), the sum of P(j)^r(i,j) over j < i."""
        return _total(*(cv(P(q, j), k * q.r(i, j)) for j in range(1, i) if q.r(i, j)))

    checks: list[IdentityCheck] = []

    for i in range(1, m - 1):
        lhs, r_i = cv(P(q, i)), cv_r(i)
        gamma_next = cv(Gamma(q, i + 1), q.r(i, i + 1))
        deltas = (cv(Delta(q, j), q.r(i, j)) for j in range(i + 2, q.n + 1) if q.r(i, j))
        checks.append(
            IdentityCheck(
                f"simple_filtration_{i}",
                lhs == _total(Counter({i: 1}), r_i, gamma_next, *deltas),
                f"cv(P({i})) vs S+R+Gamma+Delta pieces",
            )
        )
        checks.append(
            IdentityCheck(
                f"gamma_filtration_{i}",
                lhs == _total(cv(Gamma(q, i)), r_i, gamma_next),
                f"cv(P({i})) vs Gamma({i})+R+Gamma({i+1}) pieces",
            )
        )

    r = q.r(m - 1, m)
    checks.append(
        IdentityCheck(
            "gamma_tail",
            _total(cv(P(q, m - 1)), cv(Gamma(q, m - 1), -1))
            == _total(cv_r(m - 1), cv(P(q, m), r), cv_r(m, -r)),
            f"cv(P({m-1})) - cv(Gamma({m-1})) vs R({m-1}) + r*(P({m}) - R({m}))",
        )
    )

    for j in q.vertices():
        pd = homology.pdim(algebra, ModuleSpec.delta(q, j))
        checks.append(
            IdentityCheck(f"delta_pdim_{j}", pd <= 1, f"pdim(Delta({j})) = {pd}")
        )

    gamma_pd: dict[int, ExtNat] = {
        i: homology.pdim(algebra, ModuleSpec.gamma(q, i)) for i in range(1, m)
    }
    for i in range(1, m - 1):
        ok = gamma_pd[i] == gamma_pd[i + 1] + 1
        checks.append(
            IdentityCheck(
                f"gamma_recurrence_{i}",
                ok,
                f"pdim(Gamma({i}))={gamma_pd[i]} vs pdim(Gamma({i+1}))+1={gamma_pd[i+1]+1}",
            )
        )
        spd = homology.pdim(algebra, ModuleSpec.simple(q, i))
        checks.append(
            IdentityCheck(
                f"simple_recurrence_{i}",
                spd == gamma_pd[i + 1] + 1,
                f"pdim(S({i}))={spd} vs pdim(Gamma({i+1}))+1={gamma_pd[i+1]+1}",
            )
        )
    return checks
