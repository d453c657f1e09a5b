import itertools
import random

import pytest

import quiverdim as qd
from quiverdim import construct, homology
from quiverdim.algebra import ModuleSpec

from conftest import (
    GOLDEN_RELATION_WORDS,
    brute_force_nonzero_paths,
    brute_force_sqh_spectrum,
    complete_quiver,
    golden_quiver,
    linear_quiver,
    random_loopless_quiver,
    short_paths,
)


def test_local_max_ideal_golden_exact():
    ideal = qd.local_max_ideal(golden_quiver())
    assert {g.word for g in ideal} == set(GOLDEN_RELATION_WORDS)


def test_local_max_ideal_complete4_count():
    # brute-force count of 2-paths through a dominating middle vertex
    q = complete_quiver(4)
    expect = {
        (a.id, b.id)
        for a in q.arrows
        for b in q.out_arrows(a.target)
        if a.target > a.source and a.target > b.target
    }
    ideal = qd.local_max_ideal(q)
    assert {g.word for g in ideal} == expect
    assert len(ideal) == 14


def test_local_max_ideal_trivial_cases():
    assert len(qd.local_max_ideal(linear_quiver(2))) == 0
    assert len(qd.local_max_ideal(qd.Quiver(3, ()))) == 0


def test_local_max_ideal_rejects_loops():
    q = qd.Quiver(1, (qd.Arrow("a", 1, 1),))
    with pytest.raises(ValueError):
        qd.local_max_ideal(q)


def test_chain_ideal_golden_m3():
    q = golden_quiver()
    ideal = qd.chain_ideal(q, 3)
    base = {g.word for g in qd.local_max_ideal(q)}
    assert {g.word for g in ideal} == base | {("a", "b")}


def test_chain_ideal_m2_adds_nothing():
    q = golden_quiver()
    assert {g.word for g in qd.chain_ideal(q, 2)} == {
        g.word for g in qd.local_max_ideal(q)
    }


def test_chain_ideal_missing_arrows():
    q = qd.Quiver(3, (qd.Arrow("a", 1, 2),))
    with pytest.raises(ValueError):
        qd.chain_ideal(q, 3)


def test_chain_ideal_multiplicities():
    q = complete_quiver(3, r=2)
    ideal = qd.chain_ideal(q, 3)
    consec = [g for g in ideal if q.arrow(g.word[0]).target == 2 and g.target == 3]
    assert len(consec) == 4  # 2 arrows 1->2 times 2 arrows 2->3


def test_chain_cubic_ideal_n5_m4():
    q = complete_quiver(5)
    ideal = qd.chain_cubic_ideal(q, 4)
    base = {g.word for g in qd.local_max_ideal(q)}
    assert {g.word for g in ideal} == base | {("a12", "a23", "a34")}
    with pytest.raises(ValueError):
        qd.chain_cubic_ideal(q, 3)


def test_chain_cubic_consecutive_range():
    q = complete_quiver(6)
    ideal = qd.chain_cubic_ideal(q, 5)  # consecutive for i <= 1 only
    words = {g.word for g in ideal}
    assert ("a12", "a23") in words
    assert ("a23", "a34") not in words
    assert ("a23", "a34", "a45") in words


def test_gldim2_achievable_cases():
    ok, witness = construct.gldim2_achievable(golden_quiver())
    assert ok and witness is not None
    path, sigma = witness
    # first 2-path lexicographically, middle vertex sent to n
    assert path.word == ("a", "b")
    assert sigma.apply(2) == 3
    loop = qd.Quiver(1, (qd.Arrow("a", 1, 1),))
    assert construct.gldim2_achievable(loop) == (False, None)
    assert construct.gldim2_achievable(linear_quiver(2)) == (False, None)


def test_gldim2_witness_is_the_least_length2_path():
    """``gldim2_achievable`` against its definition by brute force: no
    witness on a quiver with a loop or without a length-2 path, else the
    least length-2 path by ``Path.sort_key`` and the relabeling that moves
    its middle vertex to n and keeps the others in order."""
    rng = random.Random(28)
    seen = {"loop": 0, "none": 0, "witness": 0, "parallel": 0}
    for trial in range(400):
        q = random_loopless_quiver(rng, n_max=6)
        if trial % 4 == 0:
            v = rng.randint(1, q.n)
            q = qd.Quiver(q.n, q.arrows + (qd.Arrow(rng.choice(["a", "z"]), v, v),))
        ends = [(a.source, a.target) for a in q.arrows]
        seen["parallel"] += len(set(ends)) < len(ends)
        pairs = [
            qd.Path(a.source, b.target, (a.id, b.id))
            for a in q.arrows
            for b in q.arrows
            if a.target == b.source
        ]
        if any(a.source == a.target for a in q.arrows) or not pairs:
            seen["loop" if pairs else "none"] += 1
            assert construct.gldim2_achievable(q) == (False, None)
            continue
        seen["witness"] += 1
        least = sorted(pairs, key=qd.Path.sort_key)[0]
        middle = q.arrow(least.word[0]).target
        order = [v for v in q.vertices() if v != middle] + [middle]
        assert construct.gldim2_achievable(q) == (True, (least, qd.Relabeling(order).inverse()))
    assert min(seen.values()) > 10, seen


def test_achieve_gldim_0_and_1():
    empty = qd.Quiver(2, ())
    res = construct.achieve_gldim(empty, 0)
    assert res.ok and res.certificate.kind == construct.SEMISIMPLE
    assert res.certificate.verified_gldim == 0
    assert not construct.achieve_gldim(golden_quiver(), 0).ok

    line = linear_quiver(3)
    res = construct.achieve_gldim(line, 1)
    assert res.ok and res.certificate.kind == construct.HEREDITARY
    assert len(res.certificate.ideal) == 0
    assert not construct.achieve_gldim(golden_quiver(), 1).ok  # has cycles
    assert not construct.achieve_gldim(empty, 1).ok  # no arrows


def test_achieve_gldim_2_uses_local_max():
    res = construct.achieve_gldim(linear_quiver(3), 2)
    assert res.ok and res.certificate.kind == construct.LOCAL_MAX
    assert res.certificate.verified_gldim == 2
    assert not construct.achieve_gldim(linear_quiver(2), 2).ok


def test_achieve_gldim_golden_target3():
    res = construct.achieve_gldim(golden_quiver(), 3)
    assert res.ok
    cert = res.certificate
    assert cert.kind == construct.CYCLE_CHAIN and cert.m == 3
    assert cert.embedding.vertices == (1, 2, 3)
    assert cert.embedding.cycle_arrow == "e"
    words = {g.word for g in cert.ideal}
    assert words == set(GOLDEN_RELATION_WORDS) | {("a", "b")}
    assert cert.verified_gldim == 3


def test_achieve_gldim_line_route():
    q = linear_quiver(4)
    res = construct.achieve_gldim(q, 3)
    assert res.ok
    cert = res.certificate
    assert cert.kind == construct.LINE_CHAIN and cert.m == 4
    assert {g.word for g in cert.ideal} == {("a1", "a2"), ("a2", "a3")}
    assert cert.verified_gldim == 3


def test_achieve_gldim_complete6_targets():
    q = complete_quiver(6)
    for target in (2, 3, 4, 5):
        res = construct.achieve_gldim(q, target)
        assert res.ok, (target, res.attempts)
        cert = res.certificate
        assert cert.verified_gldim == target
        assert max((g.length for g in cert.ideal), default=0) <= 3
        assert max(cert.pdims.values()) == target


@pytest.mark.parametrize(
    "budget, note",
    [
        (1955, "non-extendable line on 6 vertices: embedding search exceeded 1955 nodes"),
        (1956, "no non-extendable line on 6 vertices"),
    ],
)
def test_line_route_counts_every_line_it_rejects(monkeypatch, budget, note):
    # Every line of K6 on 6 vertices is extendable, so the line route enters
    # 1,956 nodes, each line among them, and finds none.
    monkeypatch.setattr(qd.quiver, "SEARCH_BUDGET", budget)
    res = construct.achieve_gldim(complete_quiver(6), 5)
    assert res.attempts == (note,)
    assert res.certificate.kind == construct.CYCLE_CHAIN


def test_achieve_gldim_unreachable_reports():
    res = construct.achieve_gldim(linear_quiver(2), 3)
    assert not res.ok
    assert any("not achievable" in note for note in res.attempts)
    loop = qd.Quiver(2, (qd.Arrow("a", 1, 1), qd.Arrow("b", 1, 2)))
    res = construct.achieve_gldim(loop, 3)
    assert not res.ok and any("loop" in note for note in res.attempts)


def test_target_above_the_vertex_count_searches_nothing():
    # No embedding has more vertices than the quiver, so each route answers
    # "no ..." at once instead of spending its search budget.
    res = construct.achieve_gldim(complete_quiver(10), 50)
    assert res.attempts == (
        "no non-extendable line on 51 vertices",
        "no one-cycle on 50 vertices",
        "no one-cycle on 51 vertices",
        "target 50 is not achievable by the supported constructions",
    )


def test_certificate_replays_deterministically():
    q = complete_quiver(5)
    first = construct.achieve_gldim(q, 4)
    second = construct.achieve_gldim(q, 4)
    assert first.certificate == second.certificate
    cert = first.certificate
    # rebuild from (kind, embedding, relabeling) and compare the ideal
    sigma = cert.relabeling
    relabeled = qd.relabel(q, sigma)
    if cert.kind == construct.CYCLE_CHAIN:
        rebuilt = qd.chain_ideal(relabeled, cert.m)
    elif cert.kind == construct.LINE_CHAIN:
        rebuilt = qd.chain_ideal(relabeled, cert.m)
    else:
        rebuilt = qd.chain_cubic_ideal(relabeled, cert.m)
    inv = sigma.inverse()
    pulled = {
        (inv.apply(g.source), g.word) for g in rebuilt
    }
    assert pulled == {(g.source, g.word) for g in cert.ideal}
    assert tuple(cert.ideal) == _pull_back(rebuilt, sigma)


def _pull_back(relabeled, sigma):
    """Generators built on ``relabel(q, sigma)``, in their order, with each
    endpoint moved back to the labels of q."""
    inv = sigma.inverse()
    return tuple(qd.Path(inv.apply(g.source), inv.apply(g.target), g.word) for g in relabeled)


def _ideal_by_definition(q, kind, m):
    """The ideal of a certificate ``kind`` on q in labels 1..n, read off
    its definition, without the package's builder: every length-2 path
    whose middle vertex is larger than both ends; for the chain kinds every
    path i -> i+1 -> i+2 with i + 2 <= m (i + 2 <= m - 2 for the cubic
    kind); for the cubic kind also every path m-3 -> m-2 -> m-1 -> m that
    has none of those as an infix.  In the order of a reduced relation set."""
    last = 0 if kind == construct.LOCAL_MAX else m - 2 if kind == construct.CYCLE_CUBIC else m
    gens = []
    for p in short_paths(q):
        vs = (p.source,) + tuple(q.arrow(x).target for x in p.word)
        if len(vs) == 3:
            consecutive = vs == (vs[0], vs[0] + 1, vs[0] + 2) and vs[2] <= last
            if vs[1] > max(vs[0], vs[2]) or consecutive:
                gens.append(p)
        elif kind == construct.CYCLE_CUBIC and vs == tuple(range(m - 3, m + 1)):
            gens.append(p)
    twos = {p.word for p in gens if p.length == 2}
    gens = [p for p in gens if p.length == 2 or not {p.word[:2], p.word[1:]} & twos]
    return sorted(gens, key=lambda p: (p.length, p.word, p.source))


def _relabeled_reference(q, cert):
    """A certificate's ideal rebuilt the way the relabeling describes it:
    relabel q, build the ideal from its definition in labels 1..m, move it
    back."""
    if cert.kind in (construct.SEMISIMPLE, construct.HEREDITARY):
        return ()
    sigma = cert.relabeling
    if cert.embedding is not None:
        assert sigma == qd.relabeling_from_embedding(q, cert.embedding)
    return _pull_back(_ideal_by_definition(qd.relabel(q, sigma), cert.kind, cert.m), sigma)


def test_certificates_equal_the_relabeled_construction():
    """The ideal built in q's own labels from an order and a walk equals,
    generator by generator and in order, the one built on the relabeled
    copy and moved back: on K2-K7, 200 random quivers and oriented cycles
    with shuffled labels (the only ones here that take the cubic route),
    every target."""
    rng = random.Random(61)
    quivers = [complete_quiver(n) for n in range(2, 8)]
    quivers += [random_loopless_quiver(rng, n_max=7) for _ in range(200)]
    for n in range(3, 8):
        cycle = rng.sample(range(1, n + 1), n)
        arrows = tuple(qd.Arrow(f"c{k}", cycle[k - 1], cycle[k % n]) for k in range(1, n + 1))
        quivers.append(qd.Quiver(n, arrows))
    kinds = set()
    for q in quivers:
        for target in range(q.n + 2):
            cert = construct.achieve_gldim(q, target).certificate
            if cert is None:
                continue
            kinds.add(cert.kind)
            assert tuple(cert.ideal) == _relabeled_reference(q, cert), (q, target)
    assert kinds == {
        construct.SEMISIMPLE,
        construct.HEREDITARY,
        construct.LOCAL_MAX,
        construct.LINE_CHAIN,
        construct.CYCLE_CHAIN,
        construct.CYCLE_CUBIC,
    }


def test_local_max_under_every_order_equals_the_relabeled_one():
    checked = 0
    for q in all_small_quivers(3, 3):
        if any(a.is_loop for a in q.arrows):
            continue
        for perm in itertools.permutations(q.vertices()):
            sigma = qd.Relabeling(perm)
            expect = _pull_back(
                _ideal_by_definition(qd.relabel(q, sigma), construct.LOCAL_MAX, None), sigma
            )
            assert tuple(construct._ideal(q, sigma.apply)) == expect, (q, perm)
            checked += 1
    assert checked > 500


def test_walk_may_revisit_a_vertex():
    # x: 2 -> 1, y: 2 -> 3, z: 3 -> 2 along the walk 2, 3, 2, 1: a relabeling
    # cannot put vertex 2 at two places of the walk.
    q = qd.Quiver(3, (qd.Arrow("x", 2, 1), qd.Arrow("y", 2, 3), qd.Arrow("z", 3, 2)))
    ideal = construct._ideal(q, construct._identity, (2, 3, 2, 1))
    assert [str(g) for g in ideal] == ["y.z", "z.x"]
    algebra = qd.Algebra(q, ideal)
    assert qd.gldim(algebra) == 3
    assert len(brute_force_nonzero_paths(q, ideal.words())) == len(algebra.basis)


def test_certificate_ideal_valid_on_original_quiver():
    q = complete_quiver(5)
    for target in (2, 3, 4):
        cert = construct.achieve_gldim(q, target).certificate
        algebra = qd.Algebra(q, cert.ideal)
        assert algebra.admissibility.ok
        assert qd.gldim(algebra) == target


def test_planner_covers_long_paths():
    rng = random.Random(47)
    found_any = False
    for _ in range(20):
        q = random_loopless_quiver(rng, n_max=6)
        longest = 1
        for m in range(2, q.n + 1):
            if next(iter(qd.find_a_embeddings(q, m)), None) is None:
                break
            longest = m
        for k in range(2, longest):
            res = construct.achieve_gldim(q, k)
            assert res.ok, (k, longest, res.attempts)
            found_any = True
    assert found_any


def test_local_max_bound_random_suite():
    rng = random.Random(53)
    for _ in range(25):
        q = random_loopless_quiver(rng, n_max=6, r_max=2)
        algebra = qd.Algebra(q, qd.local_max_ideal(q))
        adm = algebra.admissibility
        assert adm.ok
        assert adm.bound - 1 < 2 * q.n - 1  # longest nonzero path below the bound


def test_gldim2_iff_nonempty_ideal():
    rng = random.Random(59)
    for _ in range(25):
        q = random_loopless_quiver(rng, n_max=5)
        ideal = qd.local_max_ideal(q)
        algebra = qd.Algebra(q, ideal)
        g = qd.gldim(algebra)
        if len(ideal):
            assert g == 2
        elif q.arrows:
            assert g == 1
        else:
            assert g == 0


def all_small_quivers(max_n=3, max_arrows=3):
    """Every quiver on <= max_n vertices with <= max_arrows arrows
    (multiplicities allowed, loops allowed)."""
    for n in range(1, max_n + 1):
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        for size in range(max_arrows + 1):
            for combo in itertools.combinations_with_replacement(pairs, size):
                arrows = tuple(
                    qd.Arrow(f"a{k}", s, t) for k, (s, t) in enumerate(combo)
                )
                yield qd.Quiver(n, arrows)


def test_corollary_exhaustive_small_quivers():
    count = pos = 0
    for q in all_small_quivers():
        count += 1
        loopless = not any(a.is_loop for a in q.arrows)
        composable = any(q.out_arrows(a.target) for a in q.arrows)
        expect = loopless and composable
        ok, witness = construct.gldim2_achievable(q)
        assert ok == expect, q
        if ok:
            pos += 1
            res = construct.achieve_gldim(q, 2)
            assert res.ok and res.certificate.verified_gldim == 2
    assert count == 259 and pos > 0


def test_planner_reaches_exactly_the_sqh_spectrum():
    """On 400 small quivers (random.Random(12), 2-5 vertices, no loops, at
    most 13 paths of length 2-3), the planner certifies a target exactly when
    some reduced ideal generated by paths of length 2-3 reaches it and is
    strongly quasi-hereditary under some vertex order.  A target in the sqh
    spectrum that the planner misses is a missing construction."""
    rng = random.Random(12)
    checked = 0
    while checked < 400:
        q = random_loopless_quiver(rng, n_max=5)
        if q.n < 2 or len(short_paths(q)) > 13:
            continue
        checked += 1
        spectrum = brute_force_sqh_spectrum(q)
        certified = set()
        for target in range(max(q.n, *spectrum) + 2):
            cert = qd.achieve_gldim(q, target).certificate
            if cert is None:
                continue
            algebra = qd.Algebra(q, cert.ideal)
            assert qd.check_strongly_qh(algebra, order=cert.relabeling).overall, (q, target)
            assert cert.verified_gldim in spectrum, (q, target)
            certified.add(target)
        assert certified == {d for d, sqh in spectrum.items() if sqh}, q
