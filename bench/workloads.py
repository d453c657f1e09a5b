"""The four workloads: QV1 inputs, CLI operations and their expected answers.

Each workload is a list of operations run in order as one pass.  Every
operation carries the answer it must produce and where that answer comes
from: a closed form, or the brute force in ``reference``.  No answer is
taken from the package being measured.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import instances as I
from reference import INF, Reference, TooLarge


@dataclass(frozen=True)
class Expect:
    exit_code: int
    answer: Optional[dict]  # JSON fields the output must contain, or None
    source: str
    # A further check of the JSON output: why it is wrong, or None.
    audit: Optional[Callable[[dict], Optional[str]]] = None
    # The exception this operation raises at present; it fails the run but
    # is not a wrong answer.  Any other exception is.
    known_failure: Optional[str] = None


@dataclass
class Case:
    name: str
    quiver: I.Quiver
    relations: list

    @cached_property
    def text(self) -> str:
        return I.qv1(self.quiver, self.relations)

    @cached_property
    def reference(self) -> Reference:
        return Reference(self.quiver, self.relations)


@dataclass
class Op:
    case: Case
    args: tuple[str, ...]  # command first, then flags; the file is inserted after it
    expect: Callable[[], Expect]  # evaluated after the measured loop

    @cached_property
    def expected(self) -> Expect:
        return self.expect()

    def argv(self, path: str) -> list[str]:
        return [self.args[0], path, *self.args[1:]]

    @property
    def label(self) -> str:
        return " ".join((self.args[0], self.case.name, *self.args[1:]))


def _ext(value) -> object:
    return "inf" if value == INF else int(value)


def _gldim_answer(pdims: dict[int, float]) -> dict:
    return {
        "gldim": _ext(max(pdims.values(), default=0)),
        "pdims": {str(v): _ext(d) for v, d in pdims.items()},
    }


def _betti_answer(betti: list[dict[int, int]], complete: bool) -> dict:
    return {
        "betti": [{str(v): m for v, m in layer.items()} for layer in betti],
        "complete": complete,
        "pdim": len(betti) - 1 if complete else None,
    }


LOCAL_MAX = "closed form: the local-max ideal resolves every simple in two steps"
CYCLE_CHAIN = "closed form: consecutive relations on an m-vertex one-cycle give gldim m"
LINE = "closed form: A_n with consecutive 2-relations has pdim S(i) = n - i"
CYCLE = "closed form: a one-cycle with consecutive relations is periodic"
PLANNER = "closed form: a construction is achieved with gldim equal to its target"
PLANNER_AUDITED = PLANNER + "; its ideal is audited by brute force in reference.py"
ENGINES = "the two engines must agree, so verify reports ok"
BRUTE = "brute force in reference.py"


def _local_max_pdims(q: I.Quiver) -> dict[int, int]:
    """pdim S(i): 2 if some i -> j -> k with j > i and k < j, else 1 if i has
    an out-arrow, else 0."""
    pd = {}
    for i in range(1, q.n + 1):
        two = any(j > i and any(k < j for _, _, k in q.out(j)) for _, _, j in q.out(i))
        pd[i] = 2 if two else (1 if q.out(i) else 0)
    return pd


def gldim_dense(rng: random.Random) -> list[Op]:
    ops = []

    def add(name, q, rels, expect):
        ops.append(Op(Case(name, q, rels), ("gldim", "--json"), expect))

    for n, r in ((4, 1), (5, 1), (6, 1), (7, 1), (4, 2), (5, 2)):
        q = I.complete(n, r)
        pd = _local_max_pdims(q)
        add(f"K{n}x{r}-localmax", q, I.local_max(q),
            lambda pd=pd: Expect(0, _gldim_answer(pd), LOCAL_MAX))
    for n in (5, 6, 7):
        q = I.complete(n)
        add(f"K{n}-chain{n}", q, I.chain(q, n), lambda n=n: Expect(0, {"gldim": n}, CYCLE_CHAIN))
    return ops


def _line_betti(n: int) -> list[dict[int, int]]:
    return [{d + 1: 1} for d in range(n)]


def _cycle_betti(n: int, length: int, max_deg: int) -> list[dict[int, int]]:
    """S(1) on the cycle: the syzygies start at vertices advancing by 1 and
    length - 1 in turn."""
    at, betti = 1, []
    for d in range(max_deg + 1):
        betti.append({(at - 1) % n + 1: 1})
        at += 1 if d % 2 == 0 else length - 1
    return betti


def _random_cases(rng: random.Random) -> list[tuple[Case, bool]]:
    """Random instances on 3-9 vertices: for each vertex count, as many
    admissible ones as not.  Fixing the mix keeps the latency percentiles
    from depending on how the seed happens to split it."""
    out: list[tuple[Case, bool]] = []
    for n in range(3, 10):
        quota = {True: RANDOM_PER_KIND, False: RANDOM_PER_KIND}
        while quota[True] or quota[False]:
            q, rels = I.random_quiver(rng, n)
            case = Case(f"rand{len(out):03d}-n{n}", q, rels)
            try:
                ok = case.reference.admissible()
                if ok:
                    for v in range(1, n + 1):
                        case.reference.basis_from(v)
            except TooLarge:
                continue
            if quota[ok]:
                quota[ok] -= 1
                out.append((case, ok))
    return out


RANDOM_PER_KIND = 7  # per vertex count and admissibility
MAX_DEG = 8


def chains_long(rng: random.Random) -> list[Op]:
    ops = []
    for n in (25, 50, 100):
        case = Case(f"A{n}-consecutive", I.line(n), I.line_relations(n))
        pd = {i: n - i for i in range(1, n + 1)}
        ops.append(Op(case, ("gldim", "--json"), lambda pd=pd: Expect(0, _gldim_answer(pd), LINE)))
        betti = _line_betti(n)
        ops.append(
            Op(case, ("resolve", "--module", "S:1", "--json"),
               lambda b=betti: Expect(0, _betti_answer(b, True), LINE))
        )
    for n in (20, 40, 60):
        for length in (2, 3):
            case = Case(f"C{n}-rel{length}", I.cycle(n), I.cycle_relations(n, length))
            pd = {i: INF for i in range(1, n + 1)}
            ops.append(
                Op(case, ("gldim", "--json"), lambda pd=pd: Expect(0, _gldim_answer(pd), CYCLE))
            )
            betti = _cycle_betti(n, length, MAX_DEG)
            ops.append(
                Op(case, ("resolve", "--module", "S:1", "--max-deg", str(MAX_DEG), "--json"),
                   lambda b=betti: Expect(0, _betti_answer(b, False), CYCLE))
            )
    for case, admissible in _random_cases(rng):
        if not admissible:
            ops.append(Op(case, ("gldim", "--json"), lambda: Expect(2, None, BRUTE)))
            continue
        ops.append(
            Op(case, ("gldim", "--json"),
               lambda c=case: Expect(0, _gldim_answer(c.reference.pdims()), BRUTE))
        )
        ops.append(
            Op(case, ("resolve", "--module", "S:1", "--json"), lambda c=case: _resolve_s1(c))
        )
    return ops


def _resolve_s1(case: Case) -> Expect:
    if case.reference.pdim_simple(1) == INF:
        return Expect(1, None, BRUTE)
    return Expect(0, _betti_answer(case.reference.betti_simple(1), True), BRUTE)


def _audit_construct(q: I.Quiver) -> Callable[[dict], Optional[str]]:
    """Rebuild the returned ideal from its generators and check its
    admissibility, pdims and gldim by brute force."""

    def audit(payload: dict) -> Optional[str]:
        generators = payload.get("certificate", {}).get("generators")
        if generators is None:
            return "no generators in the certificate"
        ref = Reference(q, [tuple(g) for g in generators])
        if not ref.admissible():
            return "the returned ideal is not admissible"
        want = _gldim_answer(ref.pdims())
        for key, value in want.items():
            if payload.get(key) != value:
                return f"{key} = {payload.get(key)!r}, brute force gives {value!r}"
        return None

    return audit


def construct(rng: random.Random) -> list[Op]:
    ops = []

    def add(case, target, audit=True, known_failure=None):
        answer = {"achieved": True, "gldim": target, "target": target}
        check = _audit_construct(case.quiver) if audit else None
        ops.append(
            Op(case, ("construct", "--target", str(target), "--json"),
               lambda: Expect(0, answer, PLANNER_AUDITED if audit else PLANNER, check,
                              known_failure))
        )

    for n in (4, 5, 6, 7):
        case = Case(f"K{n}", I.complete(n), [])
        for t in range(2, n):
            add(case, t)
    # Many cheap lines put the 90th percentile inside the K7 operations
    # rather than on the slowest of them.  Their sizes put the median inside
    # the K5 operations and A20, which take 16-21 ms; the lines around that
    # step by 13-30% in time, so a median among them moved with any
    # reordering.
    for n in (3, 4, 5, 6, 8, 10, 12, 14, 16, 18, 20, 26, 28, 30, 40):
        add(Case(f"A{n}", I.line(n), []), n - 1)
    # The planner's line search exceeds its node budget here (the cycle
    # route would succeed), so this operation fails until that is fixed.
    # Its ideal is not audited: the K7 ideals already span 3,500-5,500
    # paths, about 4x more per vertex, so K10's exceed the brute force's cap.
    add(Case("K10", I.complete(10), []), 9, audit=False, known_failure="SearchBudgetExceeded")
    return ops


def golden() -> tuple[I.Quiver, list]:
    """The 3-vertex algebra with arrows both ways around every pair."""
    ends = {"a": (1, 2), "b": (2, 3), "c": (3, 1), "d": (2, 1), "e": (3, 2), "f": (1, 3)}
    ids = {c: I.arrow_id(s, t) for c, (s, t) in ends.items()}
    q = I.Quiver(3, tuple((ids[c], s, t) for c, (s, t) in ends.items()))
    return q, [tuple(ids[c] for c in w) for w in ("ad", "bc", "be", "fc", "fe")]


def crosscheck(rng: random.Random) -> list[Op]:
    cases = [Case(f"K{n}-localmax", I.complete(n), I.local_max(I.complete(n))) for n in (3, 4, 5)]
    k5 = I.complete(5)
    cases.append(Case("K5-chain5", k5, I.chain(k5, 5)))
    cases.extend(Case(f"A{n}-consecutive", I.line(n), I.line_relations(n)) for n in range(8, 17))
    cases.append(Case("golden", *golden()))
    ops = []
    for case in cases:
        ops.append(Op(case, ("verify", "--json"), lambda: Expect(0, {"ok": True}, ENGINES)))
        ops.append(Op(case, ("check-sqh", "--json"), lambda c=case: _sqh(c)))
    return ops


def _sqh(case: Case) -> Expect:
    vertices = case.reference.sqh()
    overall = all(r["r_projective_ok"] and r["delta_factors_ok"] for r in vertices.values())
    answer = {"sqh": {"overall": overall, "vertices": {str(v): r for v, r in vertices.items()}}}
    return Expect(0 if overall else 1, answer, BRUTE)


WORKLOADS: dict[str, Callable[[random.Random], list[Op]]] = {
    "gldim-dense": gldim_dense,
    "chains-long": chains_long,
    "construct": construct,
    "crosscheck": crosscheck,
}


def build(workload: str, seed: int) -> list[Op]:
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))


def cases(ops: list[Op]) -> list[Case]:
    """Distinct cases in first-use order."""
    seen: dict[str, Case] = {}
    for op in ops:
        seen.setdefault(op.case.name, op.case)
    return list(seen.values())
