import itertools
import random
import time
from collections import Counter

import pytest

import quiverdim as qd
from quiverdim import construct, homology
from quiverdim.algebra import ModuleSpec

from conftest import (
    brute_force_nonzero_paths,
    complete_quiver,
    golden_algebra,
    linear_quiver,
    one_loop_algebra,
    random_loopless_quiver,
    short_paths,
    sqh_conditions,
)
from test_construct import all_small_quivers


def chain5_algebra():
    q = complete_quiver(5)
    return qd.Algebra(q, qd.chain_ideal(q, 4))


def test_golden_algebras_are_sqh(golden):
    assert qd.check_strongly_qh(golden).overall
    q = golden.quiver
    prime = qd.Algebra(q, list(golden.relations) + [q.path(1, ("a", "b"))])
    report = qd.check_strongly_qh(prime)
    assert report.overall
    for r in report.vertices.values():
        assert r.r_projective_ok and r.delta_factors_ok and r.hom_delta_ok


def test_one_loop_not_sqh():
    report = qd.check_strongly_qh(one_loop_algebra(3))
    assert not report.overall
    assert not report.vertices[1].delta_factors_ok


def test_linear_chain_is_sqh():
    for n in (2, 5, 8):
        q = linear_quiver(n)
        algebra = qd.Algebra(q, qd.chain_ideal(q, n))
        assert qd.check_strongly_qh(algebra).overall


def test_constructed_algebras_are_sqh():
    q = complete_quiver(6)
    for target in (2, 3, 4, 5):
        cert = construct.achieve_gldim(q, target).certificate
        algebra = qd.Algebra(q, cert.ideal)
        assert qd.check_strongly_qh(algebra).overall, target


def test_hom_route_matches_combinatorial_route():
    rng = random.Random(61)
    algebras = [golden_algebra(), one_loop_algebra(3), chain5_algebra()]
    for _ in range(10):
        q = random_loopless_quiver(rng, n_max=5)
        algebras.append(qd.Algebra(q, qd.local_max_ideal(q)))
    for algebra in algebras:
        report = qd.check_strongly_qh(algebra)
        for r in report.vertices.values():
            assert r.hom_delta_ok == r.delta_factors_ok
        # Both conditions from their definitions, on brute-force paths only.
        q = algebra.quiver
        paths = brute_force_nonzero_paths(q, algebra.relations.words())
        for labels in itertools.permutations(q.vertices()):
            order = qd.Relabeling(labels)
            report = qd.check_strongly_qh(algebra, order=order)
            for i, want in sqh_conditions(q, paths, order).items():
                got = report.vertices[i]
                assert (got.r_projective_ok, got.delta_factors_ok) == want, (q, i)


def test_hom_delta_ok_matches_matrix_fibers():
    # dim Hom(P(j), Delta(i)) is the dimension of Delta(i)'s fiber at j, read
    # here off the matrix engine's representation, not composition vectors
    from quiverdim import oracle

    rng = random.Random(67)
    algebras = [golden_algebra()]
    for _ in range(10):
        q = random_loopless_quiver(rng, n_max=5)
        algebras.append(qd.Algebra(q, qd.local_max_ideal(q)))
    for algebra in algebras:
        q = algebra.quiver
        report = qd.check_strongly_qh(algebra)
        for i in q.vertices():
            dims = oracle.rep_of(algebra, ModuleSpec.delta(q, i)).dims
            hom_ok = dims[i] == 1 and all(dims[j] == 0 for j in range(1, i))
            assert report.vertices[i].hom_delta_ok == hom_ok, (algebra.relations, i)


def _random_admissible_algebra(rng: random.Random) -> qd.Algebra:
    """A random quiver on 1-4 vertices with loops and parallel arrows, and a
    random admissible ideal of paths of length 2 and 3."""
    while True:
        n = rng.randint(1, 4)
        arrows = [
            qd.Arrow(f"x{k}", rng.randint(1, n), rng.randint(1, n))
            for k in range(rng.randint(1, 2 * n))
        ]
        q = qd.Quiver(n, tuple(arrows))
        ideal = [p for p in short_paths(q) if rng.random() < 0.6]
        algebra = qd.Algebra(q, ideal)
        if algebra.admissibility.ok:
            return algebra


def test_delta_factors_match_composition_vectors():
    # The reachability test against the definition: [Delta(i) : S(i)] = 1
    # and [Delta(i) : S(j)] = 0 for j ranked below i, read off the basis.
    rng = random.Random(71)
    for _ in range(150):
        algebra = _random_admissible_algebra(rng)
        q = algebra.quiver
        labels = list(q.vertices())
        rng.shuffle(labels)
        order = qd.Relabeling(labels)
        rank = order.apply
        report = qd.check_strongly_qh(algebra, order=order)
        for i in q.vertices():
            down = {a.id for a in q.out_arrows(i) if rank(a.target) < rank(i)}
            cv = algebra.composition_vector(ModuleSpec(i, frozenset(down)))
            below = [j for j in q.vertices() if rank(j) < rank(i)]
            expect = cv.get(i, 0) == 1 and all(cv.get(j, 0) == 0 for j in below)
            assert report.vertices[i].delta_factors_ok == expect, (q, algebra.relations, i)


def test_sqh_never_builds_the_basis(monkeypatch):
    # K8 has 21,845 nonzero paths under the local-max ideal, and kQ of the
    # transitive tournament on 21 vertices about 2**21, both above the cap.
    monkeypatch.setattr(qd.algebra, "MAX_BASIS_PATHS", 1000)
    q = complete_quiver(8)
    algebra = qd.Algebra(q, qd.local_max_ideal(q))
    report = qd.check_strongly_qh(algebra)
    assert report.overall
    with pytest.raises(qd.BasisCapExceeded):
        algebra.basis
    n = 21
    t21 = qd.Quiver(
        n, tuple(qd.Arrow(f"a{i}_{j}", i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))
    )
    cert = construct.achieve_gldim(t21, 1).certificate
    assert cert.kind == construct.HEREDITARY
    assert cert.relabeling == qd.Relabeling.identity(n)
    assert cert.verified_gldim == 1


def test_sqh_is_linear_in_the_out_degree():
    # a star of 20,000 arrows 2 -> 1: a scan of the down-arrows per
    # out-arrow took about 7 s here, the filter on ranks takes milliseconds
    m = 20_000
    q = qd.Quiver(2, tuple(qd.Arrow(f"a{k}", 2, 1) for k in range(m)))
    algebra = qd.Algebra(q, ())
    start = time.perf_counter()
    report = qd.check_strongly_qh(algebra)
    assert time.perf_counter() - start < 1
    assert report.overall


def test_r_projective_failure_detected():
    # relation starting with a down-arrow breaks condition (1)
    q = qd.Quiver(2, (qd.Arrow("dn", 2, 1), qd.Arrow("up", 1, 2)))
    algebra = qd.Algebra(q, [q.path(2, ("dn", "up"))])
    report = qd.check_strongly_qh(algebra)
    assert not report.vertices[2].r_projective_ok
    assert not report.overall


def test_exact_sequence_dimension_identity():
    # cv(Delta(i)) + sum r(i,j) cv(P(j)) over j < i equals cv(P(i))
    for algebra in (golden_algebra(), chain5_algebra()):
        q = algebra.quiver
        report = qd.check_strongly_qh(algebra)
        for i in q.vertices():
            if not report.vertices[i].r_projective_ok:
                continue
            total = dict(algebra.composition_vector(ModuleSpec.delta(q, i)))
            for j in range(1, i):
                for v, c in algebra.composition_vector(
                    ModuleSpec.projective(q, j)
                ).items():
                    total[v] = total.get(v, 0) + q.r(i, j) * c
            assert total == algebra.composition_vector(ModuleSpec.projective(q, i))


def _total(*vectors):
    """The sum of composition vectors; unlike ``+`` it keeps negative counts."""
    acc = Counter()
    for vec in vectors:
        acc.update(vec)
    return acc


def assert_sequence_identities(algebra, m):
    """The exact identities of a chain-ideal algebra (line or one-cycle on
    1..m with consecutive relations): composition vectors of P, Delta and
    Gamma against the exact sequences relating them, degree by degree, and
    the projective-dimension recurrences along the line.  Returns the
    vertices whose Gamma recurrence was checked."""
    q = algebra.quiver
    assert 2 <= m <= q.n
    P, Gamma, Delta = ModuleSpec.projective, ModuleSpec.gamma, ModuleSpec.delta

    def cv(build, v, k=1):
        """``k`` times the composition vector of ``build(q, v)``."""
        return Counter({w: k * c for w, c in algebra.composition_vector(build(q, v)).items()})

    def cv_r(i, k=1):
        """``k`` times that of R(i), the sum of P(j)^r(i,j) over j < i."""
        return _total(*(cv(P, j, k * q.r(i, j)) for j in range(1, i)))

    recurrences = range(1, m - 1)
    for i in recurrences:
        lhs, r_i, gamma_next = cv(P, i), cv_r(i), cv(Gamma, i + 1, q.r(i, i + 1))
        deltas = (cv(Delta, j, q.r(i, j)) for j in range(i + 2, q.n + 1))
        assert lhs == _total(Counter({i: 1}), r_i, gamma_next, *deltas), i
        assert lhs == _total(cv(Gamma, i), r_i, gamma_next), i
    r = q.r(m - 1, m)
    assert _total(cv(P, m - 1), cv(Gamma, m - 1, -1)) == _total(
        cv_r(m - 1), cv(P, m, r), cv_r(m, -r)
    )
    for j in q.vertices():
        assert homology.pdim(algebra, Delta(q, j)) <= 1, j
    gamma_pd = {i: homology.pdim(algebra, Gamma(q, i)) for i in range(1, m)}
    for i in recurrences:
        assert gamma_pd[i] == gamma_pd[i + 1] + 1, i
        assert homology.pdim(algebra, ModuleSpec.simple(q, i)) == gamma_pd[i + 1] + 1, i
    return list(recurrences)


def test_sequence_identities_chain5():
    assert assert_sequence_identities(chain5_algebra(), 4) == [1, 2]


def test_sequence_identities_m2_vacuous(golden):
    assert assert_sequence_identities(golden, 2) == []


def test_gamma_pdim_dichotomy():
    q5 = complete_quiver(5)
    full = qd.Algebra(q5, qd.chain_ideal(q5, 4))
    assert homology.pdim(full, ModuleSpec.gamma(q5, 3)) == 2  # return arrows exist
    arrows = tuple(
        a for a in q5.arrows if not (a.source == 4 and a.target in (1, 2, 3))
    )
    trimmed_q = qd.Quiver(5, arrows)
    trimmed = qd.Algebra(trimmed_q, qd.chain_ideal(trimmed_q, 4))
    assert homology.pdim(trimmed, ModuleSpec.gamma(trimmed_q, 3)) == 1


def test_ringel_bound():
    # strongly quasi-hereditary algebras have global dimension at most n
    q = complete_quiver(6)
    algebras = [
        qd.Algebra(q, construct.achieve_gldim(q, t).certificate.ideal) for t in (2, 3, 4, 5)
    ]
    for n in (3, 6):
        lin = linear_quiver(n)
        algebras.append(qd.Algebra(lin, qd.chain_ideal(lin, n)))
    algebras.append(qd.Algebra(qd.Quiver(2, ()), ()))
    for algebra in algebras:
        assert qd.check_strongly_qh(algebra).overall
        assert qd.gldim(algebra) <= algebra.quiver.n
    assert not qd.check_strongly_qh(one_loop_algebra(3)).overall


def test_certificate_order_is_sqh_order():
    # The local-max ideal of 3 -> 1 -> 2 is empty in its own labels, so the
    # target-2 route moves vertex 1 to the top; the result is sqh in that
    # order only.
    q = qd.Quiver(3, (qd.Arrow("a", 1, 2), qd.Arrow("b", 3, 1)))
    cert = construct.achieve_gldim(q, 2).certificate
    assert cert.relabeling != qd.Relabeling.identity(3)
    algebra = qd.Algebra(q, cert.ideal)
    assert not qd.check_strongly_qh(algebra).overall
    report = qd.check_strongly_qh(algebra, order=cert.relabeling)
    assert report.overall
    assert all(r.hom_delta_ok for r in report.vertices.values())
    for q in all_small_quivers(3, 3):
        for target in range(2, q.n + 1):
            cert = construct.achieve_gldim(q, target).certificate
            if cert is not None:
                algebra = qd.Algebra(q, cert.ideal)
                assert qd.check_strongly_qh(algebra, order=cert.relabeling).overall, (q, target)
                assert qd.gldim(algebra) <= q.n
