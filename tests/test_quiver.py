import random

import pytest

import quiverdim as qd
from quiverdim import oracle
from quiverdim.quiver import structure_predicates

from conftest import (
    complete_quiver,
    golden_algebra,
    golden_quiver,
    linear_quiver,
    random_loopless_quiver,
)


def test_compose_with_trivial_is_identity():
    q = golden_quiver()
    p = q.path(1, ("a", "b"))
    assert qd.compose(q.trivial_path(1), p) == p
    assert qd.compose(p, q.trivial_path(3)) == p


def test_compose_golden_example():
    q = golden_quiver()
    ab = qd.compose(q.path(1, ("a",)), q.path(2, ("b",)))
    assert ab.word == ("a", "b")
    assert (ab.source, ab.target) == (1, 3)
    assert ab.length == 2


def test_compose_rejects_mismatched_endpoints():
    q = golden_quiver()
    with pytest.raises(qd.CompositionError):
        qd.compose(q.path(1, ("a",)), q.path(3, ("c",)))


def test_path_validation():
    q = golden_quiver()
    with pytest.raises(qd.CompositionError):
        q.path(1, ("a", "c"))  # c starts at 3, not 2
    with pytest.raises(KeyError):
        q.path(1, ("zz",))


def test_paths_and_arrows_are_immutable_values():
    q = complete_quiver(5, r=2)
    a = q.arrow("a12x0")
    assert a == qd.Arrow("a12x0", 1, 2) and hash(a) == hash(qd.Arrow("a12x0", 1, 2))
    p = q.path(1, ("a12x0", "a23x1"))
    same = qd.Path(1, 3, ("a12x0", "a23x1"))
    assert p == same and hash(p) == hash(same) and {same: 0}[p] == 0
    assert p == (1, 3, ("a12x0", "a23x1")) and p.length == 2 and len(p) == 3
    for value, field in ((a, "id"), (a, "target"), (p, "word"), (p, "source")):
        with pytest.raises(AttributeError):
            setattr(value, field, 1)
    assert repr(a) == str(a) == "Arrow(id='a12x0', source=1, target=2)"
    assert repr(p) == "Path(source=1, target=3, word=('a12x0', 'a23x1'))"
    assert str(p) == "a12x0.a23x1" and str(q.trivial_path(4)) == "e4"
    assert qd.Arrow("b", 1, 2) < qd.Arrow("b", 2, 1) < qd.Arrow("c", 1, 1)
    # out-arrows by target, then id; parallel arrows stay adjacent
    assert [b.id for b in q.out_arrows(3)] == [
        "a31x0", "a31x1", "a32x0", "a32x1", "a34x0", "a34x1", "a35x0", "a35x1"
    ]
    for v in q.vertices():
        outs = q.out_arrows(v)
        assert list(outs) == sorted(outs, key=lambda b: (b.target, b.id))
        assert sorted(outs) == sorted(b for b in q.arrows if b.source == v)


def test_quiver_rejects_bad_arrows():
    with pytest.raises(ValueError):
        qd.Quiver(2, (qd.Arrow("a", 1, 3),))
    with pytest.raises(ValueError):
        qd.Quiver(2, (qd.Arrow("a", 1, 2), qd.Arrow("a", 2, 1)))


def test_r_multiplicities():
    q = complete_quiver(3, r=2)
    assert q.r(1, 2) == 2
    assert q.r(1, 1) == 0


def assert_embedding_valid(q, emb):
    """``emb`` is a path of ``q`` on distinct vertices, closed by its return
    arrow, if it has one, into the vertex at ``return_index``."""
    assert len(set(emb.vertices)) == emb.m
    steps = list(zip(emb.vertices, emb.vertices[1:]))
    assert [(q.arrow(a).source, q.arrow(a).target) for a in emb.arrows] == steps
    assert (emb.cycle_arrow is None) == (emb.return_index is None)
    if emb.cycle_arrow is not None:
        assert 1 <= emb.return_index < emb.m
        back = q.arrow(emb.cycle_arrow)
        assert (back.source, back.target) == (emb.vertices[-1], emb.vertices[emb.return_index - 1])


def test_a_embedding_counts_complete4():
    q = complete_quiver(4)
    assert sum(1 for _ in qd.find_a_embeddings(q, 2)) == 12
    assert sum(1 for _ in qd.find_a_embeddings(q, 4)) == 24


def test_a_embeddings_empty_on_arrowless():
    q = qd.Quiver(3, ())
    assert list(qd.find_a_embeddings(q, 2)) == []


def test_a_embeddings_are_valid_and_deterministic():
    q = golden_quiver()
    first = list(qd.find_a_embeddings(q, 3))
    second = list(qd.find_a_embeddings(q, 3))
    assert first == second
    for emb in first:
        assert_embedding_valid(q, emb)


def test_parallel_arrows_give_distinct_embeddings():
    q = complete_quiver(2, r=2)
    assert sum(1 for _ in qd.find_a_embeddings(q, 2)) == 4


def test_search_budget(monkeypatch):
    monkeypatch.setattr(qd.quiver, "SEARCH_BUDGET", 3)
    q = complete_quiver(5)
    with pytest.raises(qd.SearchBudgetExceeded):
        list(qd.find_a_embeddings(q, 5))


def search_preorder(q, m):
    """Every prefix the embedding search enters, in its order: start
    vertices ascend, out-arrows go by (target, id), no vertex repeats, and
    a prefix of m vertices has no children."""
    prefixes = []

    def grow(vertices, arrows):
        prefixes.append((vertices, arrows))
        if len(vertices) == m:
            return
        outs = [a for a in q.arrows if a.source == vertices[-1]]
        for a in sorted(outs, key=lambda a: (a.target, a.id)):
            if a.target not in vertices:
                grow(vertices + (a.target,), arrows + (a.id,))

    for v in q.vertices():
        grow((v,), ())
    return prefixes


def test_search_order_is_preorder_by_target_then_id():
    arrows = (("a", 1, 2), ("b", 1, 2), ("c", 2, 4), ("d", 2, 3))
    q = qd.Quiver(4, tuple(qd.Arrow(*a) for a in arrows))
    got = [(emb.vertices, emb.arrows) for emb in qd.find_a_embeddings(q, 3)]
    assert got == [
        ((1, 2, 3), ("a", "d")),
        ((1, 2, 4), ("a", "c")),
        ((1, 2, 3), ("b", "d")),
        ((1, 2, 4), ("b", "c")),
    ]


def test_search_matches_brute_force_node_for_node(monkeypatch):
    # the yield order and the node at which the budget runs out are pinned
    # to the preorder of search_preorder
    rng = random.Random(29)
    parallel = 0
    for _ in range(40):
        q = random_loopless_quiver(rng, n_max=6, r_max=2)
        parallel += any(q.r(a.source, a.target) > 1 for a in q.arrows)
        for m in range(1, q.n + 1):
            prefixes = search_preorder(q, m)
            lines = [qd.Embedding(vs, arrows) for vs, arrows in prefixes if len(vs) == m]
            assert list(qd.find_a_embeddings(q, m)) == lines
            total = len(prefixes)
            for budget in sorted({1, 2, 3, 7, total // 2 + 1, total - 1, total} - {0}):
                monkeypatch.setattr(qd.quiver, "SEARCH_BUDGET", budget)
                got, raised = [], False
                try:
                    for emb in qd.find_a_embeddings(q, m):
                        got.append(emb)
                except qd.SearchBudgetExceeded:
                    raised = True
                assert raised == (total > budget)
                assert got == lines[: sum(len(vs) == m for vs, _ in prefixes[:budget])]
            monkeypatch.undo()
    assert parallel > 10


def test_is_extendable_linear_none():
    q = linear_quiver(3)
    emb = next(qd.find_a_embeddings(q, 3))
    assert emb.vertices == (1, 2, 3)
    assert qd.is_extendable(q, emb) is None


def test_is_extendable_golden_witness():
    q = golden_quiver()
    emb = next(qd.find_a_embeddings(q, 3))
    assert emb.vertices == (1, 2, 3)
    witness = qd.is_extendable(q, emb)
    assert witness is not None and witness.id == "c"


def test_is_extendable_complete4_always():
    q = complete_quiver(4)
    for emb in qd.find_a_embeddings(q, 4):
        assert qd.is_extendable(q, emb) is not None


def test_x_embedding_golden_prefers_maximal_return():
    q = golden_quiver()
    emb = qd.find_x_embedding(q, 3)
    assert emb is not None
    assert emb.vertices == (1, 2, 3)
    assert emb.cycle_arrow == "e" and emb.return_index == 2
    assert_embedding_valid(q, emb)


def test_x_embedding_absent_on_acyclic():
    q = linear_quiver(4)
    for m in (2, 3, 4):
        assert qd.find_x_embedding(q, m) is None


def test_x_embedding_two_cycle():
    q = qd.Quiver(2, (qd.Arrow("u", 1, 2), qd.Arrow("v", 2, 1)))
    emb = qd.find_x_embedding(q, 2)
    assert emb is not None
    assert emb.vertices == (1, 2) and emb.cycle_arrow == "v" and emb.return_index == 1


def test_x_embedding_iff_some_a_embedding_extendable():
    rng = random.Random(7)
    for _ in range(30):
        q = random_loopless_quiver(rng, n_max=5)
        for m in (2, 3):
            expect = any(
                qd.is_extendable(q, emb) is not None
                for emb in qd.find_a_embeddings(q, m)
            )
            assert (qd.find_x_embedding(q, m) is not None) == expect


def test_relabel_roundtrip_and_invariants():
    rng = random.Random(11)
    for _ in range(25):
        q = random_loopless_quiver(rng, n_max=6)
        perm = list(range(1, q.n + 1))
        rng.shuffle(perm)
        sigma = qd.Relabeling(tuple(perm))
        q2 = qd.relabel(q, sigma)
        assert qd.relabel(q2, sigma.inverse()) == q
        assert len(q2.arrows) == len(q.arrows)
        assert sum(a.is_loop for a in q2.arrows) == sum(a.is_loop for a in q.arrows)
        preds, preds2 = structure_predicates(q), structure_predicates(q2)
        assert preds.has_oriented_cycle == preds2.has_oriented_cycle
        multiset = sorted(q.r(i, j) for i in q.vertices() for j in q.vertices())
        multiset2 = sorted(q2.r(i, j) for i in q2.vertices() for j in q2.vertices())
        assert multiset == multiset2


def test_relabeling_from_embedding_layout():
    q = golden_quiver()
    emb = qd.find_x_embedding(q, 2)
    sigma = qd.relabeling_from_embedding(q, emb)
    # embedded vertices take 1..m in path order, the rest ascend
    assert [sigma.apply(v) for v in emb.vertices] == [1, 2]
    leftovers = [v for v in q.vertices() if v not in emb.vertices]
    assert [sigma.apply(v) for v in leftovers] == sorted(
        sigma.apply(v) for v in leftovers
    )


def test_relabeling_identity_on_identity_embedding():
    q = linear_quiver(4)
    emb = next(qd.find_a_embeddings(q, 4))
    sigma = qd.relabeling_from_embedding(q, emb)
    assert sigma == qd.Relabeling.identity(4)


def test_relabeling_must_be_bijective():
    with pytest.raises(ValueError):
        qd.Relabeling((1, 1, 3))


def test_structure_predicates():
    loop = qd.Quiver(1, (qd.Arrow("a", 1, 1),))
    assert structure_predicates(loop) == (True,)
    a2 = qd.Quiver(2, (qd.Arrow("a", 1, 2),))
    assert structure_predicates(a2) == (False,)
    assert structure_predicates(golden_quiver()) == (True,)


def test_has_path_refuses_what_path_refuses():
    q = golden_quiver()  # a: 1->2, b: 2->3, c: 3->1, d: 2->1, e: 3->2, f: 1->3
    assert q.has_path(qd.Path(1, 3, ("a", "b"))) and q.has_path(qd.Path(1, 3, ["a", "b"]))
    assert q.has_path(q.trivial_path(3))
    refused = [
        qd.Path(1, 2, ("zz",)),  # unknown id
        qd.Path(1, 1, ("a", "c")),  # a ends at 2, c starts at 3
        qd.Path(2, 2, ("a",)),  # a starts at 1
        qd.Path(1, 3, ("a",)),  # a ends at 2
        qd.Path(0, 0, ()),
        qd.Path(4, 4, ()),
        qd.Path(0, 2, ("a",)),
        qd.Path(4, 2, ("a",)),
    ]
    for p in refused:
        assert not q.has_path(p), p


def _golden_simple():
    algebra = golden_algebra()
    return algebra, qd.ModuleSpec.simple(algebra.quiver, 1)


def _truncated_euler():
    algebra, spec = _golden_simple()
    return qd.check_euler_identity(algebra, spec, qd.resolve(algebra, spec, max_deg=0))


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: qd.Quiver(-1, ()), "vertex count must be nonnegative", id="n"),
        pytest.param(
            lambda: qd.Quiver(2, (qd.Arrow("a-b", 1, 2),)),
            "arrow id 'a-b' is not an ASCII word",
            id="arrow-id",
        ),
        pytest.param(
            lambda: next(qd.find_a_embeddings(golden_quiver(), 0)), "m must be >= 1", id="line-m"
        ),
        pytest.param(lambda: qd.find_x_embedding(golden_quiver(), 1), "m must be >= 2", id="cycle-m"),
        pytest.param(
            lambda: qd.relabel(golden_quiver(), qd.Relabeling.identity(4)),
            "relabeling size does not match quiver",
            id="relabel",
        ),
        pytest.param(lambda: qd.chain_ideal(golden_quiver(), 1), "m must be within 2..3", id="chain-m"),
        pytest.param(lambda: qd.achieve_gldim(golden_quiver(), -1), "target must be >= 0", id="target"),
        pytest.param(_truncated_euler, "Euler identity needs a complete resolution", id="euler"),
        pytest.param(
            lambda: oracle.minimal_resolution(*_golden_simple(), -1),
            "max_deg must be >= 0",
            id="oracle-max-deg",
        ),
        pytest.param(
            lambda: qd.check_strongly_qh(golden_algebra(), qd.Relabeling.identity(2)),
            "order has 2 vertices, the quiver 3",
            id="sqh-order",
        ),
    ],
)
def test_input_guards_raise_value_error(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message
