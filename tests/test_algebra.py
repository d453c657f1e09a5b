import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quiverdim as qd
from quiverdim import qvfile
from quiverdim.algebra import ModuleSpec
from quiverdim.quiver import find_cycle, has_oriented_cycle

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


def test_relationset_reduces_unreduced():
    q = linear_quiver(4)
    rs = qd.RelationSet((q.path(1, ("a1", "a2")), q.path(1, ("a1", "a2", "a3"))))
    assert rs.generators == (q.path(1, ("a1", "a2")),)


def test_reduction_sorts_and_refuses_a_repeated_word():
    q = qd.Quiver(6, tuple(qd.Arrow(x, i, i + 1) for i, x in enumerate("abcde", start=1)))
    long, middle, tail = q.path(1, tuple("abcde")), q.path(2, tuple("bcd")), q.path(4, ("d", "e"))
    assert qd.reduce_relations([long, middle, tail]).generators == (tail, middle)
    # one word with other endpoints is a repeat, which no reduction can drop
    for repeat in (qd.RelationSet, qd.reduce_relations):
        with pytest.raises(ValueError) as info:
            repeat([qd.Path(1, 1, ("a", "b")), qd.Path(2, 1, ("a", "b"))])
        assert str(info.value) == "relation set not reduced: a.b is an infix of a.b"


def trie_tables(relations):
    return relations.children, relations.fail, relations.depth, relations.word_at


@pytest.mark.parametrize(
    "words, numberings",
    [
        # a1.a2.a3 stops at a1.a2, a node a1.a2 made: one numbering
        ([("a1", "a2"), ("a1", "a2", "a3")], 1),
        # a1.a2.a3 makes a1.a2.a3 before it finds a2.a3 ending there: two
        ([("a2", "a3"), ("a1", "a2", "a3")], 2),
    ],
)
def test_the_trie_is_numbered_again_only_for_a_node_of_a_dropped_word(
    words, numberings, monkeypatch
):
    q = linear_quiver(4)
    paths = [q.path(q.arrow(w[0]).source, w) for w in words]
    calls = []
    number = qd.RelationSet._number

    def spy(self, words):
        calls.append(words)
        return number(self, words)

    monkeypatch.setattr(qd.RelationSet, "_number", spy)
    relations = qd.RelationSet(tuple(paths))
    assert len(calls) == numberings
    monkeypatch.undo()
    assert relations.generators == (paths[0],)
    assert trie_tables(relations) == trie_tables(qd.RelationSet((paths[0],)))


def fan(m: int):
    """Arrows c_j: 1 -> 2 and a_k: 2 -> 3, and the relations c_j a0: the
    automaton's rows hold m^2 + 2m entries."""
    arrows = [qd.Arrow(f"c{j}", 1, 2) for j in range(m)]
    arrows += [qd.Arrow(f"a{k}", 2, 3) for k in range(m)]
    q = qd.Quiver(3, tuple(arrows))
    return q, [q.path(1, (f"c{j}", "a0")) for j in range(m)]


def test_transition_cap(monkeypatch):
    q, relations = fan(3)
    monkeypatch.setattr(qd.algebra, "MAX_TRANSITIONS", 15)
    algebra = qd.Algebra(q, relations)
    assert sum(map(len, algebra.transitions.values())) == 15
    monkeypatch.setattr(qd.algebra, "MAX_TRANSITIONS", 14)
    with pytest.raises(ValueError) as info:
        qd.Algebra(q, relations)
    assert str(info.value) == (
        "the automaton needs 15 transitions, more than 14; "
        "is the relation set too large for this quiver?"
    )


def test_automaton_near_the_cap_stays_small():
    # fan(1000) has 1,002,000 row entries: one int each, no (arrow, state)
    # pair; the admissibility walk reads the rows as they are, not a copy
    q, relations = fan(1000)
    tracemalloc.start()
    try:
        algebra = qd.Algebra(q, relations)
        built = tracemalloc.get_traced_memory()[1]
        assert algebra.admissibility.ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, peak
    assert peak - built < 2**20, (built, peak)


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


def test_parsed_relations_are_checked_against_another_quiver(golden):
    q, relations = qvfile.parse(qvfile.emit(golden.quiver, golden.relations))
    assert qd.Algebra(q, relations).relations is relations
    # the same arrow ids, every arrow reversed: a.d no longer starts at 1
    reversed_q = qd.Quiver(q.n, tuple(qd.Arrow(a.id, a.target, a.source) for a in q.arrows))
    with pytest.raises(ValueError, match="is not a path of the quiver"):
        qd.Algebra(reversed_q, relations)


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
    assert len(golden.basis) == 21
    by_len = Counter(len(w) for (_, _, w) in oracle)
    assert by_len == Counter({0: 3, 1: 6, 2: 7, 3: 4, 4: 1})
    assert Counter(p.length for p in golden.basis.paths) == by_len


def test_basis_single_vertex():
    algebra = qd.Algebra(qd.Quiver(1, ()), ())
    assert len(algebra.basis) == 1


def test_basis_cap(monkeypatch):
    monkeypatch.setattr(qd.algebra, "MAX_BASIS_PATHS", 3)
    q = linear_quiver(5)
    algebra = qd.Algebra(q, ())
    with pytest.raises(qd.BasisCapExceeded):
        algebra.basis


def test_basis_cap_stops_before_building_a_whole_level(monkeypatch):
    # 1 -> 2 (x20), 2 -> 3 (x10), 3 -> 4 (x20), no relations: the levels hold
    # 50, 400 and 4,000 paths.  Past a cap of 100 at most one path's
    # out-arrows (20) are built, not the whole second level.
    arrows = [qd.Arrow(f"a{k}", 1, 2) for k in range(20)]
    arrows += [qd.Arrow(f"b{k}", 2, 3) for k in range(10)]
    arrows += [qd.Arrow(f"c{k}", 3, 4) for k in range(20)]
    algebra = qd.Algebra(qd.Quiver(4, tuple(arrows)), ())
    built = 0

    class CountedPath(qd.Path):
        def __new__(cls, *fields):
            nonlocal built
            built += 1
            return qd.Path(*fields)

    monkeypatch.setattr(qd.algebra, "MAX_BASIS_PATHS", 100)
    monkeypatch.setattr(qd.algebra, "Path", CountedPath)
    with pytest.raises(qd.BasisCapExceeded, match="more than 100 nonzero paths"):
        algebra.basis
    assert 100 - 4 < built <= 100 + 20


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


def test_basis_matches_brute_force_on_random_algebras():
    # Loops and parallel arrows allowed; relations are random walks of
    # length 2-3.  The basis must list exactly the brute-force paths, sorted.
    rng = random.Random(1060)
    admissible = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, 6))]
        q = qd.Quiver(n, tuple(qd.Arrow(f"x{k}", s, t) for k, (s, t) in enumerate(pairs)))
        words = []
        for _ in range(rng.randint(0, 8)):
            arrow = rng.choice(q.arrows)
            word = [arrow.id]
            for _ in range(rng.randint(1, 2)):
                if not q.out_arrows(arrow.target):
                    break
                arrow = rng.choice(q.out_arrows(arrow.target))
                word.append(arrow.id)
            if len(word) >= 2:
                words.append(tuple(word))
        algebra = qd.Algebra(q, [q.path(q.arrow(w[0]).source, w) for w in words])
        if not algebra.admissibility.ok:
            continue
        admissible += 1
        brute = brute_force_nonzero_paths(q, words)
        assert list(algebra.basis.paths) == sorted(brute, key=lambda p: (len(p[2]), p[2], p[0]))
    assert admissible > 1000


def test_dim_projective_and_composition_vectors(complete4_algebra):
    algebra = complete4_algebra
    q = algebra.quiver
    assert len(algebra.basis.by_source[1]) == 8
    assert algebra.composition_vector(ModuleSpec.projective(q, 1)) == {1: 1, 2: 1, 3: 2, 4: 4}
    for i in q.vertices():
        assert algebra.composition_vector(ModuleSpec.simple(q, i)) == {i: 1}


def test_total_dim_is_sum_of_projectives(golden):
    basis = golden.basis
    assert len(basis) == sum(len(basis.by_source[i]) for i in (1, 2, 3)) == 21


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


def trie_words(relations):
    """The word of every trie node, by node number."""
    words = [()] * len(relations.children)
    for k, kids in enumerate(relations.children):
        for aid, child in kids.items():
            words[child] = words[k] + (aid,)
    return words


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
    # The trie holds every nonempty prefix once, the relations as its
    # leaves, and links each node to its longest proper suffix among them.
    rs = algebra.relations
    node_words = trie_words(rs)
    prefixes = {r[:cut] for r in kept for cut in range(1, len(r) + 1)}
    assert sorted(node_words[1:]) == sorted(prefixes)
    assert {node_words[k] for k, kids in enumerate(rs.children) if k and not kids} == set(kept)
    assert rs.word_at == {k: w for k, w in enumerate(node_words) if w in kept}
    for k, w in enumerate(node_words):
        assert rs.depth[k] == len(w)
        suffixes = [w[cut:] for cut in range(1, len(w)) if w[cut:] in prefixes]
        assert node_words[rs.fail[k]] == max(suffixes, key=len, default=())
    # The constructor is the reduction.
    paths = [LOOPS.path(1, w) for w in rels]
    assert qd.RelationSet(paths) == qd.reduce_relations(paths)
    short = paths + [LOOPS.path(1, ("a",))]
    with pytest.raises(qd.NotAdmissibleError):
        qd.RelationSet(short)
    with pytest.raises(qd.NotAdmissibleError):
        qd.reduce_relations(short)


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


# -- admissibility against brute force ----------------------------------------


@st.composite
def monomial_inputs(draw):
    """A random quiver, loops and parallel arrows allowed, and relation words
    drawn as walks of length 2-3; admissible or not."""
    n = draw(st.integers(1, 3))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    pairs = draw(st.lists(ends, max_size=6))
    q = qd.Quiver(n, tuple(qd.Arrow(f"x{k}", s, t) for k, (s, t) in enumerate(pairs)))
    words = []
    for _ in range(draw(st.integers(0, 8)) if q.arrows else 0):
        arrow = draw(st.sampled_from(q.arrows))
        word = [arrow.id]
        for _ in range(draw(st.integers(1, 2))):
            outs = q.out_arrows(arrow.target)
            if not outs:
                break
            arrow = draw(st.sampled_from(outs))
            word.append(arrow.id)
        if len(word) >= 2:
            words.append(tuple(word))
    return q, words


@settings(max_examples=300, deadline=None)
@given(case=monomial_inputs())
def test_admissibility_matches_brute_force(case):
    q, rels = case
    algebra = qd.Algebra(q, [q.path(q.arrow(w[0]).source, w) for w in rels])
    adm = algebra.admissibility
    if adm.ok:
        longest = max(len(w) for _, _, w in brute_force_nonzero_paths(q, rels))
        assert adm.bound == 1 + longest
    else:
        # A closed path whose powers up to lmax + 1 hold every window of
        # its infinite repetition that a relation could fill.
        w = adm.witness_cycle
        assert w.length >= 1 and w.source == w.target and q.has_path(w)
        for k in range(1, algebra.lmax + 2):
            assert not any(naive_contains(w.word * k, r) for r in rels), k
    assert has_oriented_cycle(q) == (not qd.Algebra(q).admissibility.ok)


def brute_force_transitions(q, words):
    """The window automaton of every state reachable from the (v, ()) starts,
    each step decided by testing every relation word as a suffix of the
    grown window; a state keeps the last lmax - 1 arrows."""
    keep = max(max(map(len, words), default=0) - 1, 0)
    table, todo = {}, [(v, ()) for v in q.vertices()]
    while todo:
        state = todo.pop()
        if state in table:
            continue
        vertex, window = state
        moves = []
        for a in q.out_arrows(vertex):
            grown = window + (a.id,)
            if not any(len(r) <= len(grown) and grown[len(grown) - len(r) :] == r for r in words):
                moves.append((a, (a.target, grown[max(len(grown) - keep, 0) :])))
        table[state] = tuple(moves)
        todo.extend(nxt for _, nxt in moves)
    return table


def random_monomial_input(rng):
    """A quiver with loops and parallel arrows on 1-4 vertices, and relation
    walks of length 2-4."""
    n = rng.randint(1, 4)
    pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, 7))]
    q = qd.Quiver(n, tuple(qd.Arrow(f"x{k}", s, t) for k, (s, t) in enumerate(pairs)))
    relations = []
    for _ in range(rng.randint(0, 8)):
        walk = [rng.choice(q.arrows)]
        for _ in range(rng.randint(1, 3)):
            if q.out_arrows(walk[-1].target):
                walk.append(rng.choice(q.out_arrows(walk[-1].target)))
        if len(walk) >= 2:
            relations.append(q.path(walk[0].source, tuple(a.id for a in walk)))
    return q, relations


def brute_force_admissibility(q, words):
    """Admissibility by the window automaton of ``brute_force_transitions``,
    walked from the (v, ()) starts in vertex order: the bound, or the cycle
    the walk closes, each step the first arrow from one window to the next."""
    table = brute_force_transitions(q, words)
    starts = [(v, ()) for v in q.vertices()]
    longest = {}
    walk = find_cycle(starts, lambda s: [t for _, t in table[s]], longest)
    if walk is None:
        return qd.Admissibility(True, bound=1 + max((longest[s] for s in starts), default=0))
    cycle = walk[walk.index(walk[-1]) :]
    word = tuple(
        next(a.id for a, t in table[s] if t == after) for s, after in zip(cycle, cycle[1:])
    )
    witness = q.path(cycle[0][0], word)
    return qd.Admissibility(
        False, witness_cycle=witness, reason=f"nonzero cycle {witness} never vanishes"
    )


def test_killed_arrow_step_matches_suffix_test():
    """Admissible or not, the bound and the witness cycle are those of the
    brute-force window walk, and each trie state moves as the suffix test
    on its own word says."""
    rng = random.Random(11)
    for case in range(2000):
        q, relations = random_monomial_input(rng)
        algebra = qd.Algebra(q, relations)
        words = algebra.relations.words()
        assert algebra.admissibility == brute_force_admissibility(q, words), case
        if algebra.admissibility.ok:  # what qh reads: every state measured, leaves at -1
            depths = algebra.state_depths
            assert all(s in depths for s in algebra.transitions), case
            assert all(depths[leaf] == -1 for leaf in algebra.relations.word_at), case
        node_words = trie_words(algebra.relations)
        states = [s for s in algebra.transitions if s < 0 or algebra.relations.children[s]]
        assert sorted(algebra.transitions) == sorted(states)
        assert len(states) == q.n + len({w[:cut] for w in words for cut in range(1, len(w))})
        for s in states:
            vertex = algebra.vertex_of[s]
            if s > 0:
                assert q.path(q.arrow(node_words[s][0]).source, node_words[s]).target == vertex
            row = []
            for a in q.out_arrows(vertex):
                grown = (node_words[s] if s > 0 else ()) + (a.id,)
                suffixes = [grown[cut:] for cut in range(len(grown))]
                if any(w in words for w in suffixes):  # the relation leaf
                    row.append(node_words.index(next(w for w in suffixes if w in words)))
                else:  # the longest suffix that is a proper prefix of a relation
                    inner = [w for w in suffixes if w in node_words]
                    row.append(node_words.index(inner[0]) if inner else -a.target)
            assert algebra.transitions[s] == tuple(row), (case, s)
