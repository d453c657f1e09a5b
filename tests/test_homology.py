import math
import random

import pytest

import quiverdim as qd
from quiverdim import homology
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
    with pytest.raises(ValueError):
        qd.chain_successors(golden, q.trivial_path(1))
    with pytest.raises(ValueError):
        qd.chain_successors(golden, q.path(1, ("a", "d")))


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


def test_verify_local_max_closed_form_positive(complete4_algebra):
    ok, mismatches = qd.verify_local_max_resolution(complete4_algebra)
    assert ok and mismatches == []


def test_verify_local_max_closed_form_random():
    rng = random.Random(23)
    for _ in range(25):
        q = random_loopless_quiver(rng, n_max=6, r_max=2)
        algebra = qd.Algebra(q, qd.local_max_ideal(q))
        ok, mismatches = qd.verify_local_max_resolution(algebra)
        assert ok, mismatches
        assert qd.gldim(algebra) <= 2


def test_verify_local_max_closed_form_arrowless():
    algebra = qd.Algebra(qd.Quiver(3, ()), ())
    assert qd.verify_local_max_resolution(algebra)[0]


def test_verify_local_max_closed_form_detects_mismatch(golden):
    q = golden.quiver
    prime = qd.Algebra(q, list(golden.relations) + [q.path(1, ("a", "b"))])
    ok, mismatches = qd.verify_local_max_resolution(prime)
    assert not ok and mismatches


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


def test_resolution_pdim_accessor(golden):
    res = qd.resolve(golden, ModuleSpec.simple(golden.quiver, 1))
    assert res.pdim() == 2
    truncated = qd.resolve(golden, ModuleSpec.simple(golden.quiver, 1), max_deg=1)
    with pytest.raises(ValueError):
        truncated.pdim()


@pytest.mark.parametrize("n", [8, 12])
def test_homology_never_builds_the_basis(n):
    # K8 has 21,845 nonzero paths under the local-max ideal, far above the
    # cap: pdim, resolve and gldim must work from the relations alone.
    q = complete_quiver(n)
    local_max = qd.Algebra(q, qd.local_max_ideal(q), basis_cap=1000)
    chain = qd.Algebra(q, qd.chain_ideal(q, n), basis_cap=1000)
    assert qd.gldim(local_max) == 2
    assert qd.verify_local_max_resolution(local_max) == (True, [])
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
