import random

import pytest

import quiverdim as qd
from quiverdim import homology, oracle
from quiverdim.algebra import ModuleSpec

from conftest import (
    complete_quiver,
    golden_algebra,
    linear_quiver,
    one_loop_algebra,
    random_loopless_quiver,
)

ALL_SPECS = (ModuleSpec.simple, ModuleSpec.delta, ModuleSpec.gamma)


def test_rep_dims_match_figures(complete4_algebra):
    q = complete4_algebra.quiver
    rep = oracle.rep_of(complete4_algebra, ModuleSpec.projective(q, 1))
    assert rep.dims == {1: 1, 2: 1, 3: 2, 4: 4}


def test_rep_of_simple_is_indicator(golden):
    q = golden.quiver
    for i in q.vertices():
        rep = oracle.rep_of(golden, ModuleSpec.simple(q, i))
        assert rep.dims == {v: (1 if v == i else 0) for v in q.vertices()}
        assert all(not m.size or not m.any() for m in rep.action.values())


def test_rep_of_delta_in_chain_setting():
    q = complete_quiver(5)
    algebra = qd.Algebra(q, qd.chain_ideal(q, 4))
    rep = oracle.rep_of(algebra, ModuleSpec.delta(q, 2))
    assert rep.dims == {1: 0, 2: 1, 3: 1, 4: 1, 5: 3}
    assert rep.total_dim == 6


def test_relation_matrices_vanish():
    cases = [golden_algebra()]
    q = complete_quiver(5)
    cases.append(qd.Algebra(q, qd.chain_ideal(q, 4)))
    rng = random.Random(41)
    for _ in range(6):
        rq = random_loopless_quiver(rng, n_max=5)
        cases.append(qd.Algebra(rq, qd.local_max_ideal(rq)))
    for algebra in cases:
        for i in algebra.quiver.vertices():
            rep = oracle.rep_of(algebra, ModuleSpec.projective(algebra.quiver, i))
            assert oracle.check_relations(algebra, rep)


def test_rep_dims_match_composition_vectors(golden):
    q = golden.quiver
    for i in q.vertices():
        for build in ALL_SPECS + (ModuleSpec.projective,):
            spec = build(q, i)
            rep = oracle.rep_of(golden, spec)
            cv = golden.composition_vector(spec)
            assert {v: d for v, d in rep.dims.items() if d} == cv


def test_radical_and_top(complete4_algebra):
    q = complete4_algebra.quiver
    for i in q.vertices():
        rep = oracle.rep_of(complete4_algebra, ModuleSpec.projective(q, i))
        assert oracle.top_dims(rep) == {i: 1}


def test_syzygy_of_projective_vanishes(golden):
    q = golden.quiver
    for i in q.vertices():
        rep = oracle.rep_of(golden, ModuleSpec.projective(q, i))
        assert oracle.syzygy(golden, rep).total_dim == 0


def test_minimal_resolution_simple_complete4(complete4_algebra):
    q = complete4_algebra.quiver
    res = oracle.minimal_resolution(complete4_algebra, ModuleSpec.simple(q, 1), 8)
    assert res.complete
    assert res.betti == ({1: 1}, {2: 1, 3: 1, 4: 1}, {1: 3, 2: 2, 3: 1})


def test_engines_agree_on_golden(golden):
    q = golden.quiver
    for i in q.vertices():
        for build in ALL_SPECS:
            spec = build(q, i)
            chain = qd.resolve(golden, spec, max_deg=8)
            matrix = oracle.minimal_resolution(golden, spec, 8)
            assert chain.betti == matrix.betti
            assert chain.complete == matrix.complete


def test_engines_agree_on_truncated_infinite():
    algebra = one_loop_algebra(3)
    q = algebra.quiver
    chain = qd.resolve(algebra, ModuleSpec.simple(q, 1), max_deg=8)
    matrix = oracle.minimal_resolution(algebra, ModuleSpec.simple(q, 1), 8)
    assert chain.betti == matrix.betti and not matrix.complete


def test_engines_agree_random_suite_two_fields():
    rng = random.Random(43)
    cases = []
    for _ in range(8):
        q = random_loopless_quiver(rng, n_max=5)
        cases.append(qd.Algebra(q, qd.local_max_ideal(q)))
    q5 = complete_quiver(5)
    cases.append(qd.Algebra(q5, qd.chain_ideal(q5, 4)))
    cases.append(qd.Algebra(q5, qd.chain_cubic_ideal(q5, 4)))
    for algebra in cases:
        if algebra.dim > 200:
            continue
        q = algebra.quiver
        for i in q.vertices():
            for build in ALL_SPECS:
                spec = build(q, i)
                chain = qd.resolve(algebra, spec, max_deg=8)
                res2 = oracle.minimal_resolution(algebra, spec, 8, p=2)
                res101 = oracle.minimal_resolution(algebra, spec, 8, p=101)
                assert chain.betti == res2.betti == res101.betti
                assert chain.complete == res2.complete == res101.complete


def test_field_validation(golden):
    q = golden.quiver
    with pytest.raises(ValueError):
        oracle.rep_of(golden, ModuleSpec.simple(q, 1), p=6)
    with pytest.raises(ValueError):
        oracle.rep_of(golden, ModuleSpec.simple(q, 1), p=10**6 + 3)
    oracle.rep_of(golden, ModuleSpec.simple(q, 1), p=2)


def test_one_loop_quadratic_alternating_syzygies():
    algebra = one_loop_algebra(2)
    q = algebra.quiver
    res = oracle.minimal_resolution(algebra, ModuleSpec.simple(q, 1), 5)
    assert res.betti == ({1: 1},) * 6 and not res.complete
