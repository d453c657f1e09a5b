import math
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import quiverdim as qd
from quiverdim.algebra import ModuleSpec

from conftest import (
    complete_quiver,
    golden_algebra,
    linear_quiver,
    one_loop_algebra,
    random_loopless_quiver,
)


def chain_algebra(n):
    q = linear_quiver(n)
    return qd.Algebra(q, qd.chain_ideal(q, n))


def test_successors_complete4(complete4_algebra):
    q = complete4_algebra.quiver
    succ = qd.chain_successors(complete4_algebra, q.path(1, ("a12",)))
    assert [p.word for p in succ] == [("a21",)]
    assert qd.chain_successors(complete4_algebra, q.path(2, ("a21",))) == ()


def test_successors_chain_walk():
    algebra = chain_algebra(4)
    q = algebra.quiver
    s1 = qd.chain_successors(algebra, q.path(1, ("a1",)))
    assert [p.word for p in s1] == [("a2",)]
    s2 = qd.chain_successors(algebra, s1[0])
    assert [p.word for p in s2] == [("a3",)]
    assert qd.chain_successors(algebra, s2[0]) == ()


def test_successors_prune_prefixes():
    algebra = one_loop_algebra(3)
    q = algebra.quiver
    succ = qd.chain_successors(algebra, q.path(1, ("a", "a")))
    # both splits produce candidates a and aa; aa has a as a proper prefix
    assert [p.word for p in succ] == [("a",)]


def test_successors_reject_bad_input(golden):
    q = golden.quiver
    bad = [
        q.trivial_path(1),
        q.path(1, ("a", "d")),  # zero
        qd.Path(1, 1, ("a",)),  # a runs 1 -> 2
        qd.Path(3, 2, ("a",)),
    ]
    for warm in (False, True):
        if warm:  # the walk has expanded the state of a, a level-one arrow
            assert qd.gldim(golden) == 2
            assert golden.state_of(q.path(1, ("a",))) in golden.successors
        for g in bad:
            with pytest.raises(ValueError):
                qd.chain_successors(golden, g)


def test_resolve_simple_complete4(complete4_algebra):
    q = complete4_algebra.quiver
    res = qd.resolve(complete4_algebra, ModuleSpec.simple(q, 1))
    assert res.complete
    assert res.betti == ({1: 1}, {2: 1, 3: 1, 4: 1}, {1: 3, 2: 2, 3: 1})


def test_resolve_projective_is_immediate(golden):
    for i in (1, 2, 3):
        res = qd.resolve(golden, ModuleSpec.projective(golden.quiver, i))
        assert res.betti == ({i: 1},) and res.complete
        assert qd.pdim(golden, ModuleSpec.projective(golden.quiver, i)) == 0


def test_gamma_pdim_nonextendable_variant():
    q5 = complete_quiver(5)
    arrows = tuple(a for a in q5.arrows if not (a.source == 4 and a.target in (1, 2, 3)))
    q = qd.Quiver(5, arrows)
    algebra = qd.Algebra(q, qd.chain_ideal(q, 4))
    assert qd.pdim(algebra, ModuleSpec.gamma(q, 3)) == 1
    assert qd.gldim(algebra) == 3


def test_one_loop_dimensions():
    algebra = one_loop_algebra(3)
    q = algebra.quiver
    assert qd.pdim(algebra, ModuleSpec.simple(q, 1)) == math.inf
    assert qd.pdim(algebra, ModuleSpec.projective(q, 1)) == 0
    assert qd.gldim(algebra) == math.inf


def test_infinite_resolution_error_carries_cycle():
    algebra = one_loop_algebra(3)
    q = algebra.quiver
    with pytest.raises(qd.InfiniteResolutionError) as exc:
        qd.resolve(algebra, ModuleSpec.simple(q, 1))
    assert exc.value.cycle
    truncated = qd.resolve(algebra, ModuleSpec.simple(q, 1), max_deg=6)
    assert not truncated.complete
    assert len(truncated.betti) == 7
    assert all(layer == {1: 1} for layer in truncated.betti)


def test_golden_gldims(golden):
    assert qd.gldim(golden) == 2
    q = golden.quiver
    prime = qd.Algebra(q, list(golden.relations) + [q.path(1, ("a", "b"))])
    assert qd.gldim(prime) == 3


def test_linear_chain_pdims():
    for n in range(2, 9):
        algebra = chain_algebra(n)
        q = algebra.quiver
        for i in q.vertices():
            assert qd.pdim(algebra, ModuleSpec.simple(q, i)) == n - i
        assert qd.gldim(algebra) == n - 1


def test_pdim_agrees_with_public_successor_chains():
    # pdim must equal 1 + the longest chain through chain_successors
    rng = random.Random(17)
    for _ in range(10):
        q = random_loopless_quiver(rng, n_max=5)
        algebra = qd.Algebra(q, qd.local_max_ideal(q))

        def longest(g, seen=None):
            kids = qd.chain_successors(algebra, g)
            return 0 if not kids else 1 + max(longest(k) for k in kids)

        for i in q.vertices():
            spec = ModuleSpec.simple(q, i)
            starts = [q.path(i, (aid,)) for aid in sorted(spec.killed)]
            expect = 0 if not starts else 1 + max(longest(s) for s in starts)
            assert qd.pdim(algebra, spec) == expect


def local_max_mismatches(algebra):
    """The vertices i, with their Betti data, where ``resolve`` departs from
    the local-max ideal's closed form: S(i) resolves as the sum of
    P(j)^r(i,j) over j != i, then of P(k)^{r(i,j) r(j,k)} over j > i, k < j."""
    q = algebra.quiver
    mismatches = []
    for i in q.vertices():
        deg2 = Counter()
        for j in range(i + 1, q.n + 1):
            for k in range(1, j):
                deg2[k] += q.r(i, j) * q.r(j, k)
        want = [Counter({i: 1}), +Counter({j: q.r(i, j) for j in q.vertices() if j != i}), +deg2]
        while not want[-1]:
            want.pop()
        got = [Counter(layer) for layer in qd.resolve(algebra, ModuleSpec.simple(q, i)).betti]
        if got != want:
            mismatches.append((i, got))
    return mismatches


def test_verify_local_max_closed_form_positive(complete4_algebra):
    assert local_max_mismatches(complete4_algebra) == []


def test_verify_local_max_closed_form_random():
    rng = random.Random(23)
    for _ in range(25):
        q = random_loopless_quiver(rng, n_max=6, r_max=2)
        algebra = qd.Algebra(q, qd.local_max_ideal(q))
        assert local_max_mismatches(algebra) == []
        assert qd.gldim(algebra) <= 2


def test_verify_local_max_closed_form_arrowless():
    algebra = qd.Algebra(qd.Quiver(3, ()), ())
    assert local_max_mismatches(algebra) == []


def test_verify_local_max_closed_form_detects_mismatch(golden):
    q = golden.quiver
    prime = qd.Algebra(q, list(golden.relations) + [q.path(1, ("a", "b"))])
    assert local_max_mismatches(prime)


def test_gldim_invariant_under_relabeling():
    rng = random.Random(29)
    for _ in range(10):
        q = random_loopless_quiver(rng, n_max=5)
        if not q.arrows:
            continue
        ideal = qd.local_max_ideal(q)
        algebra = qd.Algebra(q, ideal)
        perm = list(range(1, q.n + 1))
        rng.shuffle(perm)
        sigma = qd.Relabeling(tuple(perm))
        q2 = qd.relabel(q, sigma)
        moved = [q2.path(sigma.apply(g.source), g.word) for g in ideal]
        assert qd.gldim(qd.Algebra(q2, moved)) == qd.gldim(algebra)


def test_loops_force_infinite_gldim():
    rng = random.Random(31)
    for _ in range(12):
        n = rng.randint(1, 4)
        v = rng.randint(1, n)
        arrows = [qd.Arrow("loop", v, v)]
        k = 0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if rng.random() < 0.4 and i != j:
                    arrows.append(qd.Arrow(f"r{k}", i, j))
                    k += 1
        q = qd.Quiver(n, tuple(arrows))
        # radical-square-zero ideal: every length-2 path is a relation
        gens = [
            q.path(a.source, (a.id, b.id))
            for a in q.arrows
            for b in q.out_arrows(a.target)
        ]
        algebra = qd.Algebra(q, gens)
        assert algebra.admissibility.ok
        assert qd.gldim(algebra) == math.inf
    for power in (2, 3, 5):
        assert qd.gldim(one_loop_algebra(power)) == math.inf


def test_gldim_zero_semisimple():
    assert qd.gldim(qd.Algebra(qd.Quiver(2, ()), ())) == 0


def test_euler_identity_everywhere():
    rng = random.Random(37)
    cases = [golden_algebra(), chain_algebra(5)]
    for _ in range(8):
        q = random_loopless_quiver(rng, n_max=5)
        cases.append(qd.Algebra(q, qd.local_max_ideal(q)))
    for algebra in cases:
        q = algebra.quiver
        for i in q.vertices():
            for build in (ModuleSpec.simple, ModuleSpec.projective, ModuleSpec.delta, ModuleSpec.gamma):
                spec = build(q, i)
                res = qd.resolve(algebra, spec)
                assert res.complete
                assert qd.check_euler_identity(algebra, spec, res)


def test_euler_identity_reads_projectives_from_the_basis(golden):
    q = golden.quiver
    vectors = golden.basis.projective_vectors
    assert golden.basis.projective_vectors is vectors  # built once per algebra
    for v in q.vertices():
        assert vectors[v] == golden.composition_vector(ModuleSpec.projective(q, v))
    spec = ModuleSpec.simple(q, 1)
    res = qd.resolve(golden, spec)
    assert qd.check_euler_identity(golden, spec, res)
    one_more = qd.Resolution(res.betti + ({1: 1},), complete=True)
    assert not qd.check_euler_identity(golden, spec, one_more)


def test_resolution_pdim_accessor(golden):
    res = qd.resolve(golden, ModuleSpec.simple(golden.quiver, 1))
    assert res.pdim() == 2
    truncated = qd.resolve(golden, ModuleSpec.simple(golden.quiver, 1), max_deg=1)
    with pytest.raises(ValueError):
        truncated.pdim()


def test_resolve_rejects_a_negative_max_deg(golden):
    spec = ModuleSpec.simple(golden.quiver, 1)
    assert qd.resolve(golden, spec, max_deg=0).betti == ({1: 1},)
    with pytest.raises(ValueError, match="max_deg must be >= 0"):
        qd.resolve(golden, spec, max_deg=-1)


@pytest.mark.parametrize("n", [8, 12])
def test_homology_never_builds_the_basis(n, monkeypatch):
    # K8 has 21,845 nonzero paths under the local-max ideal, far above the
    # cap: pdim, resolve and gldim must work from the relations alone.
    monkeypatch.setattr(qd.algebra, "MAX_BASIS_PATHS", 1000)
    q = complete_quiver(n)
    local_max = qd.Algebra(q, qd.local_max_ideal(q))
    chain = qd.Algebra(q, qd.chain_ideal(q, n))
    assert qd.gldim(local_max) == 2
    assert local_max_mismatches(local_max) == []
    assert qd.gldim(chain) == n
    assert qd.pdims_of_simples(chain) == {i: n + 1 - i for i in q.vertices()}
    for i in q.vertices():
        res = qd.resolve(chain, ModuleSpec.simple(q, i))
        assert res.pdim() == n + 1 - i
        assert res.betti[1] == {j: 1 for j in q.vertices() if j != i}
    for algebra in (local_max, chain):
        assert qd.pdims_of_simples(algebra) == {
            i: qd.pdim(algebra, ModuleSpec.simple(q, i)) for i in q.vertices()
        }
        with pytest.raises(qd.BasisCapExceeded):
            algebra.basis


def test_homology_rejects_foreign_killed_arrows(golden):
    spec = ModuleSpec(1, frozenset({"b"}))  # b starts at 2
    with pytest.raises(ValueError, match="killed set contains non-out-arrows of 1"):
        qd.pdim(golden, spec)
    with pytest.raises(ValueError, match="killed set contains non-out-arrows of 1"):
        qd.resolve(golden, spec)


def test_long_line_does_not_recurse():
    # a recursive longest-path search overflows the stack from about 340 vertices
    algebra = chain_algebra(2000)
    q = algebra.quiver
    assert qd.gldim(algebra) == 1999
    assert qd.pdim(algebra, ModuleSpec.simple(q, 1)) == 1999
    res = qd.resolve(algebra, ModuleSpec.simple(q, 1))
    assert res.complete
    assert res.betti == tuple({d + 1: 1} for d in range(2000))


# -- long relations: closed forms ----------------------------------------------


def cyclic_nakayama(n):
    """The oriented n-cycle with one relation of length n from vertex 2 and
    one of length n + 1 from each of vertices 3..n."""
    q = qd.Quiver(n, tuple(qd.Arrow(f"c{i}", i, i % n + 1) for i in range(1, n + 1)))
    around = [f"c{i}" for i in range(1, n + 1)] * 3

    def walk(v, length):
        return q.path(v, tuple(around[v - 1 : v - 1 + length]))

    return qd.Algebra(q, [walk(2, n)] + [walk(v, n + 1) for v in range(3, n + 1)])


def trie_state_bound(algebra):
    return algebra.quiver.n + sum(g.length - 1 for g in algebra.relations)


def test_cyclic_nakayama_reaches_gustafsons_bound():
    # Gustafson (1985): a finite gldim on the oriented n-cycle is at most 2n - 2.
    for n in range(3, 41):
        algebra = cyclic_nakayama(n)
        assert qd.gldim(algebra) == 2 * n - 2, n
        assert len(algebra.transitions) <= trie_state_bound(algebra)


def test_one_long_loop_relation():
    for length in range(2, 201):
        algebra = one_loop_algebra(length)
        assert algebra.admissibility.bound == length
        assert qd.gldim(algebra) == math.inf
        assert len(algebra.transitions) <= trie_state_bound(algebra)


# -- the shared chain-graph memo ----------------------------------------------


@st.composite
def monomial_algebras(draw):
    """Random quivers, loops and cycles allowed, with random monomial
    relations drawn as walks of length 2-4; only admissible ones are kept."""
    n = draw(st.integers(1, 4))
    ends = st.tuples(st.integers(1, n), st.integers(1, n))
    pairs = draw(st.lists(ends, min_size=1, max_size=7))
    q = qd.Quiver(n, tuple(qd.Arrow(f"x{k}", s, t) for k, (s, t) in enumerate(pairs)))
    relations = []
    for _ in range(draw(st.integers(0, 8))):
        arrow = draw(st.sampled_from(q.arrows))
        word = [arrow.id]
        for _ in range(draw(st.integers(1, 3))):
            outs = q.out_arrows(arrow.target)
            if not outs:
                break
            arrow = draw(st.sampled_from(outs))
            word.append(arrow.id)
        if len(word) >= 2:
            relations.append(q.path(q.arrow(word[0]).source, tuple(word)))
    algebra = qd.Algebra(q, relations)
    assume(algebra.admissibility.ok)
    return algebra


def standard_specs(q):
    return [
        build(q, i)
        for build in (ModuleSpec.simple, ModuleSpec.delta, ModuleSpec.gamma)
        for i in q.vertices()
    ]


def cold(algebra):
    return qd.Algebra(algebra.quiver, algebra.relations)


@settings(max_examples=300, deadline=None)
@given(algebra=monomial_algebras(), data=st.data())
def test_shared_memo_matches_fresh_algebras(algebra, data):
    q = algebra.quiver
    specs = data.draw(st.permutations(standard_specs(q)))
    for spec in specs:
        assert qd.pdim(algebra, spec) == qd.pdim(cold(algebra), spec), spec
    warm = cold(algebra)
    qd.pdims_of_simples(warm)
    for spec in specs:
        if qd.pdim(warm, spec) != math.inf:
            continue
        cycles = []
        for target in (warm, cold(algebra)):
            with pytest.raises(qd.InfiniteResolutionError) as exc:
                qd.resolve(target, spec)
            cycles.append(exc.value.cycle)
        assert cycles[0] == cycles[1]
        cycle = cycles[0]
        for g, h in zip(cycle, cycle[1:] + cycle[:1]):
            assert h in qd.chain_successors(warm, g)
