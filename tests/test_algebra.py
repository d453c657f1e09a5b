import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverdim as qd
from quiverdim.algebra import ModuleSpec

from conftest import (
    GOLDEN_RELATION_WORDS,
    brute_force_nonzero_paths,
    complete_quiver,
    golden_algebra,
    golden_quiver,
    linear_quiver,
    one_loop_algebra,
    random_loopless_quiver,
)


def test_reduce_drops_superwords():
    q = linear_quiver(4)
    short = q.path(1, ("a1", "a2"))
    long = q.path(1, ("a1", "a2", "a3"))
    rs = qd.reduce_relations([short, long])
    assert rs.generators == (short,)
    # idempotent
    assert qd.reduce_relations(rs.generators).generators == (short,)


def test_reduce_keeps_golden_generators():
    q = golden_quiver()
    gens = [q.path(q.arrow(w[0]).source, w) for w in GOLDEN_RELATION_WORDS]
    rs = qd.reduce_relations(gens)
    assert {g.word for g in rs} == set(GOLDEN_RELATION_WORDS)


def test_reduce_empty():
    assert qd.reduce_relations([]).generators == ()


def test_reduce_rejects_short_relations():
    q = golden_quiver()
    with pytest.raises(qd.NotAdmissibleError):
        qd.reduce_relations([q.path(1, ("a",))])
    with pytest.raises(qd.NotAdmissibleError):
        qd.reduce_relations([q.trivial_path(1)])


def test_relationset_rejects_unreduced():
    q = linear_quiver(4)
    with pytest.raises(ValueError):
        qd.RelationSet((q.path(1, ("a1", "a2")), q.path(1, ("a1", "a2", "a3"))))


def test_is_zero_path(golden):
    q = golden.quiver
    assert golden.is_zero_path(q.path(1, ("a", "d")))
    assert not golden.is_zero_path(q.trivial_path(2))
    assert not golden.is_zero_path(q.path(1, ("a", "b")))


def test_is_zero_extra_relation_flips():
    q = golden_quiver()
    gens = [q.path(q.arrow(w[0]).source, w) for w in GOLDEN_RELATION_WORDS]
    prime = qd.Algebra(q, gens + [q.path(1, ("a", "b"))])
    assert prime.is_zero_path(q.path(1, ("a", "b")))


def test_is_zero_rejects_foreign_path(golden):
    other = linear_quiver(3)
    with pytest.raises(ValueError):
        golden.is_zero_path(other.path(1, ("a1",)))


def test_zero_is_monotone_under_extension():
    rng = random.Random(3)
    for _ in range(20):
        q = random_loopless_quiver(rng, n_max=5)
        algebra = qd.Algebra(q, qd.local_max_ideal(q))
        for p in algebra.basis.paths:
            for a in q.out_arrows(p.target):
                grown = p.word + (a.id,)
                if algebra.is_zero_word(grown):
                    for b in q.out_arrows(a.target):
                        assert algebra.is_zero_word(grown + (b.id,))


def test_admissible_golden(golden):
    adm = golden.admissibility
    assert adm.ok and adm.bound == 5  # longest nonzero path has length 4


def test_admissible_complete4_bound(complete4_algebra):
    # longest nonzero path descends 4..1 and climbs back: length 6, so N = 7
    adm = complete4_algebra.admissibility
    assert adm.ok
    oracle = brute_force_nonzero_paths(
        complete4_algebra.quiver, complete4_algebra.relations.words()
    )
    assert adm.bound == 1 + max(len(w) for (_, _, w) in oracle) == 7
    assert adm.bound <= 2 * 4 - 1


def test_admissible_one_loop_cube():
    adm = one_loop_algebra(3).admissibility
    assert adm.ok and adm.bound == 3


def test_not_admissible_cycle_witness():
    q = golden_quiver()
    algebra = qd.Algebra(q, ())
    adm = algebra.admissibility
    assert not adm.ok
    w = adm.witness_cycle
    assert w is not None and w.source == w.target and w.length >= 1
    assert not algebra.is_zero_path(w)
    with pytest.raises(qd.NotAdmissibleError):
        algebra.require_admissible()


def test_empty_relations_acyclic_admissible():
    q = linear_quiver(4)
    adm = qd.Algebra(q, ()).admissibility
    assert adm.ok and adm.bound == 4


def test_basis_golden_dimension_21(golden):
    oracle = brute_force_nonzero_paths(golden.quiver, GOLDEN_RELATION_WORDS)
    assert len(oracle) == 21
    assert golden.dim == 21
    by_len = Counter(len(w) for (_, _, w) in oracle)
    assert by_len == Counter({0: 3, 1: 6, 2: 7, 3: 4, 4: 1})
    assert Counter(p.length for p in golden.basis.paths) == by_len


def test_basis_single_vertex():
    algebra = qd.Algebra(qd.Quiver(1, ()), ())
    assert algebra.dim == 1


def test_basis_cap():
    q = linear_quiver(5)
    algebra = qd.Algebra(q, (), basis_cap=3)
    with pytest.raises(qd.BasisCapExceeded):
        algebra.basis


def test_basis_subpath_closed():
    rng = random.Random(5)
    quivers = [golden_quiver()] + [random_loopless_quiver(rng, n_max=5) for _ in range(10)]
    for q in quivers:
        algebra = qd.Algebra(q, qd.local_max_ideal(q))
        words = {(p.source, p.word) for p in algebra.basis.paths}
        for p in algebra.basis.paths:
            for s in range(p.length):
                for t in range(s, p.length + 1):
                    sub = p.word[s:t]
                    src = p.source if s == 0 else q.arrow(p.word[s - 1]).target
                    assert (src, sub) in words


def test_basis_deterministic(golden):
    again = golden_algebra()
    assert [p.word for p in golden.basis.paths] == [p.word for p in again.basis.paths]


def test_dim_projective_and_composition_vectors(complete4_algebra):
    algebra = complete4_algebra
    q = algebra.quiver
    assert algebra.dim_projective(1) == 8
    assert algebra.composition_vector(ModuleSpec.projective(q, 1)) == {1: 1, 2: 1, 3: 2, 4: 4}
    for i in q.vertices():
        assert algebra.composition_vector(ModuleSpec.simple(q, i)) == {i: 1}
    with pytest.raises(ValueError):
        algebra.dim_projective(9)


def test_total_dim_is_sum_of_projectives(golden):
    assert golden.dim == sum(golden.dim_projective(i) for i in (1, 2, 3)) == 21


def test_module_spec_validation():
    q = golden_quiver()
    with pytest.raises(ValueError):
        ModuleSpec.of(q, 1, ["b"])  # b starts at 2
    algebra = golden_algebra()
    with pytest.raises(ValueError):
        algebra.module_basis(ModuleSpec(1, frozenset({"b"})))


def test_module_shorthands():
    q = golden_quiver()
    assert ModuleSpec.projective(q, 2).killed == frozenset()
    assert ModuleSpec.simple(q, 2).killed == {"b", "d"}
    assert ModuleSpec.delta(q, 2).killed == {"d"}
    assert ModuleSpec.gamma(q, 2).killed == {"d", "b"}
    assert ModuleSpec.gamma(q, 3).killed == {"c", "e"}  # no vertex 4


def test_delta_gamma_composition_vectors(golden):
    q = golden.quiver
    assert golden.composition_vector(ModuleSpec.delta(q, 1)) == golden.composition_vector(
        ModuleSpec.projective(q, 1)
    )
    cv = golden.composition_vector(ModuleSpec.delta(q, 3))
    assert cv[3] == 1 and all(v >= 3 or c == 0 for v, c in cv.items())


# -- relation index against a naive infix scan -------------------------------

LOOPS = qd.Quiver(1, tuple(qd.Arrow(x, 1, 1) for x in "abc"))
letters = st.sampled_from("abc")
words = st.lists(letters, min_size=0, max_size=9).map(tuple)
relation_words = st.lists(
    st.lists(letters, min_size=2, max_size=4).map(tuple), max_size=8
)


def naive_contains(word, infix):
    k = len(infix)
    return any(word[s : s + k] == infix for s in range(len(word) - k + 1))


def naive_successors(algebra, word):
    """Split every relation r = u ++ v, keep v when u ends ``word``."""
    rels = algebra.relations.words()
    candidates = {
        r[cut:]
        for r in rels
        for cut in range(1, len(r))
        if cut <= len(word) and word[len(word) - cut :] == r[:cut]
        and not any(naive_contains(r[cut:], x) for x in rels)
    }
    return sorted(
        v for v in candidates if not any(u != v and v[: len(u)] == u for u in candidates)
    )


def loop_algebra(rels):
    return qd.Algebra(LOOPS, [LOOPS.path(1, w) for w in rels])


@settings(max_examples=300, deadline=None)
@given(rels=relation_words, word=words)
def test_index_zero_tests_match_naive_scan(rels, word):
    algebra = loop_algebra(rels)
    kept = [
        r for r in set(rels) if not any(x != r and naive_contains(r, x) for x in rels)
    ]
    assert sorted(algebra.relations.words()) == sorted(kept)
    assert algebra.is_zero_word(word) == any(naive_contains(word, r) for r in kept)
    assert algebra._kills_suffix(word) == any(
        len(r) <= len(word) and word[len(word) - len(r) :] == r for r in kept
    )


@settings(max_examples=300, deadline=None)
@given(rels=relation_words, word=words.filter(bool))
def test_index_successors_match_relation_splits(rels, word):
    algebra = loop_algebra(rels)
    if algebra.is_zero_word(word):
        return
    g = LOOPS.path(1, word)
    got = qd.chain_successors(algebra, g)
    assert sorted(p.word for p in got) == naive_successors(algebra, word)
    assert qd.chain_successors(algebra, g) == got  # memoised answer is the same
