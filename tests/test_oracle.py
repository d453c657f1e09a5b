import math
import pathlib
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import quiverdim as qd
from quiverdim import cli, oracle
from quiverdim.algebra import ModuleSpec

from conftest import (
    complete_quiver,
    golden_algebra,
    linear_quiver,
    one_loop_algebra,
    random_loopless_quiver,
)

ALL_SPECS = (ModuleSpec.simple, ModuleSpec.delta, ModuleSpec.gamma)
GOLDEN_QV = str(pathlib.Path(__file__).parent / "golden" / "golden.qv")


def test_rep_dims_match_figures(complete4_algebra):
    q = complete4_algebra.quiver
    rep = oracle.rep_of(complete4_algebra, ModuleSpec.projective(q, 1))
    assert rep.dims == {1: 1, 2: 1, 3: 2, 4: 4}


def test_projective_path_trees_are_built_once_per_algebra(complete4_algebra, monkeypatch):
    algebra, q = complete4_algebra, complete4_algebra.quiver
    built = []
    path_tree = oracle._path_tree
    monkeypatch.setattr(oracle, "_path_tree", lambda paths: built.append(paths) or path_tree(paths))
    specs = [make(q, i) for make in ALL_SPECS for i in q.vertices()]
    for spec in specs:
        oracle.minimal_resolution(algebra, spec, 8)
    trees = algebra.basis.trees
    # one tree per module for rep_of, one per vertex a cover starts at
    assert len(built) == len(specs) + len(trees) and trees
    for v, tree in trees.items():
        assert tree == path_tree(algebra.basis.by_source[v])


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


def assert_relations_vanish(algebra, rep):
    """Every relation's product of action matrices is zero on ``rep``."""
    for rel in algebra.relations:
        m = np.eye(rep.dims[rel.source], dtype=np.int64)
        for arrow_id in rel.word:
            m = oracle._mul(rep.action[arrow_id], m, rep.p)
        assert not m.any(), rel


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
            assert_relations_vanish(algebra, rep)


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
        lifts = oracle._top_lifts(rep)  # the top rep / rad rep: a copy of S(i)
        assert {v: len(ks) for v, ks in lifts.items() if ks} == {i: 1}


def test_syzygy_of_projective_vanishes(golden):
    q = golden.quiver
    for i in q.vertices():
        rep = oracle.rep_of(golden, ModuleSpec.projective(q, i))
        assert oracle.syzygy(golden, rep, oracle._top_lifts(rep)).total_dim == 0


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
        if len(algebra.basis) > 200:
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


def test_products_check_their_exactness_bound():
    # (p-1)**2 * k must stay below 2**53; a zero-stride view costs no memory
    wide = np.lib.stride_tricks.as_strided(
        np.zeros(1, dtype=np.int64), shape=(1, 2**34), strides=(0, 0)
    )
    with pytest.raises(OverflowError):
        oracle._mul(wide, wide.T, oracle.MAX_PRIME)
    assert oracle._mul(np.ones((1, 3), dtype=np.int64), np.ones((3, 1), dtype=np.int64), 2) == 1
    # below 2**53 the product runs in float64: for MAX_PRIME the sums of
    # 10**4 terms (p-1)**2 reach about 1.07e13, every partial sum exact
    for p in (2, 101, oracle.MAX_PRIME):
        a = np.full((3, 10**4), p - 1, dtype=np.int64)
        b = np.full((10**4, 2), p - 1, dtype=np.int64)
        assert np.array_equal(oracle._mul(a, b, p), (a @ b) % p)
    # past 2**53 it raises: this sum, odd and about 1.8e16, has no float64
    # representation
    p, k = oracle.MAX_PRIME, 2**24 - 1
    tall = np.lib.stride_tricks.as_strided(
        np.full(1, p - 2, dtype=np.int64), shape=(1, k), strides=(0, 0)
    )
    assert (p - 1) ** 2 * k >= 2**53
    with pytest.raises(OverflowError):
        oracle._mul(tall, tall.T, p)


def test_the_caps_keep_every_product_exact():
    # A product's inner dimension is a module fiber (at most MAX_BASIS_PATHS
    # paths) or a kernel fiber (at most isqrt(MAX_ENTRIES) vectors), so
    # _mul never meets its bound; raising a cap past it fails here.
    k = max(qd.algebra.MAX_BASIS_PATHS, math.isqrt(oracle.MAX_ENTRIES))
    assert (oracle.MAX_PRIME - 1) ** 2 * k < 2**53


def test_an_oversized_cover_is_refused_before_it_is_built(monkeypatch):
    # Arrows 1 -> 2 (a0..a63), c: 2 -> 3, 3 -> 4 (x30), 4 -> 5 (x30) and
    # relations a_t c: the second syzygy of S(1) is covered by 64 copies of
    # P(2), which has 932 paths.  The cap refuses that cover by its size
    # alone, without listing its 59,648 elements.
    arrows = [qd.Arrow(f"a{t}", 1, 2) for t in range(64)] + [qd.Arrow("c", 2, 3)]
    arrows += [qd.Arrow(f"d{t}", 3, 4) for t in range(30)]
    arrows += [qd.Arrow(f"e{t}", 4, 5) for t in range(30)]
    q = qd.Quiver(5, tuple(arrows))
    algebra = qd.Algebra(q, [q.path(1, (f"a{t}", "c")) for t in range(64)])
    algebra.basis
    # the cover of S(1) is P(1): 64 elements at vertex 2, 64 * 64 entries
    monkeypatch.setattr(oracle, "MAX_ENTRIES", 64 * 64)
    tracemalloc.start()
    try:
        with pytest.raises(oracle.OracleCapExceeded, match="has 1920 basis elements at vertex 4;"):
            oracle.minimal_resolution(algebra, ModuleSpec.simple(q, 1), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # listing the cover first took 4.6 MB


def _broom(arms, sinks):
    """Arrows a0..a{arms-1}: 1 -> 2, c: 2 -> 3, one arrow from 3 to each of
    ``sinks`` sinks, and the relations a_t c: the second syzygy of S(1) is
    ``arms`` copies of P(3), with an arms-square kernel basis and arrow
    matrix per sink, while no vertex holds more than arms**2 entries."""
    arrows = [qd.Arrow(f"a{t}", 1, 2) for t in range(arms)] + [qd.Arrow("c", 2, 3)]
    arrows += [qd.Arrow(f"s{t}", 3, 4 + t) for t in range(sinks)]
    q = qd.Quiver(3 + sinks, tuple(arrows))
    return qd.Algebra(q, [q.path(1, (f"a{t}", "c")) for t in range(arms)])


def test_an_oversized_syzygy_is_refused_before_it_is_built(monkeypatch):
    # The broom with 256 arms and 8 sinks: the second syzygy of S(1) needs
    # 256**2 entries for the kernel basis at vertex 3 and 2 * 256**2 per
    # sink, 1,114,112 in all (8.9 MB), each vertex far under MAX_ENTRIES.
    algebra = _broom(256, 8)
    algebra.basis
    monkeypatch.setattr(oracle, "MAX_SYZYGY_ENTRIES", 17 * 256**2 - 1)
    tracemalloc.start()
    try:
        with pytest.raises(oracle.OracleCapExceeded, match="syzygy needs 1114112 matrix entries"):
            oracle.minimal_resolution(algebra, ModuleSpec.simple(algebra.quiver, 1), 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6
    monkeypatch.setattr(oracle, "MAX_SYZYGY_ENTRIES", 17 * 256**2)
    res = oracle.minimal_resolution(algebra, ModuleSpec.simple(algebra.quiver, 1), 3)
    assert res.betti == ({1: 1}, {2: 256}, {3: 256}) and res.complete


def _rank_by_hand(rows, p):
    """The rank mod p of a list of integer rows, by plain row reduction."""
    rows = [[int(x) % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inverse % p
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _matrix_of_rank(rng, rows, cols, rank, p):
    """A random rows x cols matrix of the given rank mod p: a product of a
    factor with the identity at ``rank`` random rows and one with the
    identity at ``rank`` random columns, all other entries random."""
    left = rng.integers(0, p, size=(rows, rank))
    left[rng.choice(rows, rank, replace=False)] = np.eye(rank, dtype=np.int64)
    right = rng.integers(0, p, size=(rank, cols))
    right[:, rng.choice(cols, rank, replace=False)] = np.eye(rank, dtype=np.int64)
    return oracle._mul(left, right, p)


def test_elimination_on_general_entries():
    # Path-basis modules give 0/1 kernels; these matrices have entries all over [0, p).
    rng = np.random.default_rng(29)
    shapes = [(r, c) for r in (1, 3, 7) for c in (1, 4, 9)] + [(30, 45), (45, 30)]
    for p in (2, 3, 101, oracle.MAX_PRIME):
        for rows, cols in shapes:
            for rank in sorted({0, 1, min(rows, cols) // 2, min(rows, cols)}):
                m = _matrix_of_rank(rng, rows, cols, rank, p)
                assert _rank_by_hand(m.tolist(), p) == rank
                rr, pivots = oracle._rref(m, p)
                # reduced: identity at the pivots, zero left of each pivot
                assert len(pivots) == rank and pivots == sorted(set(pivots))
                assert np.array_equal(rr[:, pivots], np.eye(rank, dtype=np.int64))
                assert all(not rr[i, : pivots[i]].any() for i in range(rank))
                assert rr.min(initial=0) >= 0 and rr.max(initial=0) < p
                # the same row space as m
                assert _rank_by_hand(m.tolist() + rr.tolist(), p) == rank
                basis, free = oracle._nullspace(m, p)
                assert free == sorted(set(range(cols)) - set(pivots))
                assert np.array_equal(basis[:, free], np.eye(len(free), dtype=np.int64))
                assert not (m @ basis.T % p).any()
                # a vector off the span: m sends e at a pivot column to that
                # nonzero column of m, and e at a free column is zero at every pivot
                offs = ([pivots[0]] if rank else [], [free[0]] if free else [])
                for (span, unit), off in zip(((basis, free), (rr, pivots)), offs):
                    c = rng.integers(0, p, size=(len(unit), 3))
                    y = oracle._mul(span.T, c, p)
                    assert np.array_equal(oracle._coords(span, unit, y, p), c)
                    for j in off:
                        y[j, 1] = (y[j, 1] + 1) % p
                        with pytest.raises(ArithmeticError):
                            oracle._coords(span, unit, y, p)


def test_elimination_on_empty_shapes():
    # No rows or no columns: no pivots, and the kernel is the whole space.
    for rows, cols in ((0, 3), (3, 0), (0, 0)):
        rr, pivots = oracle._rref(np.zeros((rows, cols), dtype=np.int64), 101)
        assert rr.shape == (0, cols) and rr.dtype == np.int64 and pivots == []
        basis, free = oracle._nullspace(np.zeros((rows, cols), dtype=np.int64), 101)
        assert basis.dtype == np.int64 and free == list(range(cols))
        assert np.array_equal(basis, np.eye(cols, dtype=np.int64))


def test_one_loop_quadratic_alternating_syzygies():
    algebra = one_loop_algebra(2)
    q = algebra.quiver
    res = oracle.minimal_resolution(algebra, ModuleSpec.simple(q, 1), 5)
    assert res.betti == ({1: 1},) * 6 and not res.complete


def test_sub_rep_rejects_bases_not_closed_under_arrows(complete4_algebra):
    q = complete4_algebra.quiver
    rep = oracle.rep_of(complete4_algebra, ModuleSpec.projective(q, 1))
    whole = {v: (np.eye(d, dtype=np.int64), list(range(d))) for v, d in rep.dims.items()}
    assert oracle._sub_rep(rep, whole).dims == rep.dims
    # the top alone: arrow 1 -> 2 maps it to a nonzero vector outside the zero fiber
    top = {v: (np.zeros((0, d), dtype=np.int64), []) for v, d in rep.dims.items()}
    top[1] = whole[1]
    with pytest.raises(ArithmeticError):
        oracle._sub_rep(rep, top)
    # a proper nonzero subspace at 3 that misses the image of arrow 2 -> 3
    image = rep.action["a23"] @ whole[2][0].T
    assert image.any()
    missing = int(np.flatnonzero(image[:, 0])[0])
    kept = [k for k in range(rep.dims[3]) if k != missing]
    part = dict(whole)
    part[3] = (np.eye(rep.dims[3], dtype=np.int64)[kept], kept)
    with pytest.raises(ArithmeticError):
        oracle._sub_rep(rep, part)


def _random_monomial_algebra(rng):
    """Loops and parallel arrows allowed; relations are random walks of
    length 2-4.  None when the result is not admissible."""
    n = rng.randint(1, 4)
    pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(1, 6))]
    q = qd.Quiver(n, tuple(qd.Arrow(f"x{k}", s, t) for k, (s, t) in enumerate(pairs)))
    relations = []
    for _ in range(rng.randint(0, 8)):
        arrow = rng.choice(q.arrows)
        word = [arrow.id]
        for _ in range(rng.randint(1, 3)):
            outs = q.out_arrows(arrow.target)
            if not outs:
                break
            arrow = rng.choice(outs)
            word.append(arrow.id)
        if len(word) >= 2:
            relations.append(q.path(q.arrow(word[0]).source, tuple(word)))
    algebra = qd.Algebra(q, relations)
    return algebra if algebra.admissibility.ok else None


def _sparse_line_algebra(rng, n=40):
    """A long line whose relations have length 2 or 3, so every module lives
    on at most three of its vertices and most fibers are zero."""
    q = linear_quiver(n)
    relations = []
    for i in range(1, n - 1):
        k = rng.choice((2, 3))
        if i + k <= n:
            relations.append(q.path(i, tuple(f"a{j}" for j in range(i, i + k))))
    return qd.Algebra(q, relations)


def _agree_over_two_fields(algebra, specs, max_deg=6):
    for spec in specs:
        chain = qd.resolve(algebra, spec, max_deg=max_deg)
        for p in (2, 101):
            matrix = oracle.minimal_resolution(algebra, spec, max_deg, p=p)
            assert matrix.betti == chain.betti, (algebra.relations, spec, p)
            assert matrix.complete == chain.complete, (algebra.relations, spec, p)


def test_engines_agree_with_loops_parallel_arrows_and_sparse_support():
    rng = random.Random(71)
    checked = 0
    while checked < 25:
        algebra = _random_monomial_algebra(rng)
        if algebra is None or len(algebra.basis) > 150:
            continue
        q = algebra.quiver
        builds = ALL_SPECS + (ModuleSpec.projective,)
        _agree_over_two_fields(algebra, [b(q, i) for b in builds for i in q.vertices()])
        checked += 1
    for _ in range(2):
        algebra = _sparse_line_algebra(rng)
        q = algebra.quiver
        builds = (ModuleSpec.simple, ModuleSpec.projective)
        _agree_over_two_fields(algebra, [b(q, i) for b in builds for i in q.vertices()])


def _per_path_cover_kernels(algebra, rep, p):
    """The cover construction the index-map one replaced, kept as its
    reference: one product per (generator, path), a dense 0/1 matrix per
    cover arrow, and each kernel in RREF.  Returns the cover's dimensions,
    its arrow matrices and the kernel per vertex."""
    q = algebra.quiver
    lifts = oracle._top_lifts(rep)
    elements = {w: [] for w in q.vertices()}
    images = {}
    for v in sorted(lifts):
        for k in lifts[v]:
            for path in algebra.basis.by_source[v]:
                if path.is_trivial:
                    img = np.zeros(rep.dims[v], dtype=np.int64)
                    img[k] = 1
                else:
                    last = path.word[-1]
                    parent = images[(v, k, qd.Path(v, q.arrow(last).source, path.word[:-1]))]
                    img = oracle._mul(rep.action[last], parent, p)
                images[(v, k, path)] = img
                elements[path.target].append((v, k, path))
    index = {elem: i for w in q.vertices() for i, elem in enumerate(elements[w])}
    dims = {w: len(elements[w]) for w in q.vertices()}
    action = {}
    for a in q.arrows:
        m = np.zeros((dims[a.target], dims[a.source]), dtype=np.int64)
        for col, (v, k, path) in enumerate(elements[a.source]):
            row = index.get((v, k, qd.Path(v, a.target, path.word + (a.id,))))
            if row is not None:
                m[row, col] = 1
        action[a.id] = m
    kernels = {}
    for w in q.vertices():
        n = dims[w]
        if not rep.dims[w]:
            kernels[w] = (np.eye(n, dtype=np.int64), list(range(n)))
        elif not n:
            kernels[w] = (np.zeros((0, 0), dtype=np.int64), [])
        else:
            matrix = np.column_stack([images[elem] for elem in elements[w]])
            kernels[w] = oracle._rref(oracle._nullspace(matrix, p)[0], p)
    return dims, action, kernels


def _random_suite():
    """The algebras of the loops, parallel arrows and sparse support test."""
    rng = random.Random(71)
    checked = 0
    while checked < 25:
        algebra = _random_monomial_algebra(rng)
        if algebra is None or len(algebra.basis) > 150:
            continue
        builds = ALL_SPECS + (ModuleSpec.projective,)
        yield algebra, builds
        checked += 1
    for _ in range(2):
        yield _sparse_line_algebra(rng), (ModuleSpec.simple, ModuleSpec.projective)


def _fiber_index_rep(algebra, spec, p):
    """The construction of ``rep_of`` that the path tree replaced, kept as
    its reference: index every basis path of the module within its fiber,
    then look each grown path up."""
    q = algebra.quiver
    index = {}
    dims = {v: 0 for v in q.vertices()}
    by_vertex = {v: [] for v in q.vertices()}
    for path in algebra.module_basis(spec):
        index[path] = dims[path.target]
        dims[path.target] += 1
        by_vertex[path.target].append(path)
    action = {}
    for a in q.arrows:
        m = np.zeros((dims[a.target], dims[a.source]), dtype=np.int64)
        for col, path in enumerate(by_vertex[a.source]):
            row = index.get(qd.Path(path.source, a.target, path.word + (a.id,)))
            if row is not None:
                m[row, col] = 1
        action[a.id] = m
    return oracle.Rep(q, p, dims, action)


def test_rep_of_matches_the_fiber_index_construction():
    for algebra, builds in _random_suite():
        q = algebra.quiver
        for spec in (b(q, i) for b in builds for i in q.vertices()):
            rep, want = oracle.rep_of(algebra, spec), _fiber_index_rep(algebra, spec, 101)
            assert rep.dims == want.dims, (algebra.relations, spec)
            assert rep.action.keys() == want.action.keys()
            for a in q.arrows:
                assert rep.action[a.id].dtype == want.action[a.id].dtype
                assert np.array_equal(rep.action[a.id], want.action[a.id]), (spec, a)


def _scrambled(rep, rng):
    """``rep`` in another basis at every vertex, changed by a random unit
    upper triangular matrix: the path basis makes every cover map and
    kernel a coordinate one, this basis does not."""
    p, change, inverse = rep.p, {}, {}
    for v, d in rep.dims.items():
        unit = np.eye(d, dtype=np.int64)
        change[v] = np.triu(rng.integers(0, p, size=(d, d)), 1) + unit
        inverse[v] = oracle._rref(np.hstack([change[v], unit]), p)[0][:, d:]
    action = {
        a.id: oracle._mul(
            oracle._mul(change[a.target], rep.action[a.id], p), inverse[a.source], p
        )
        for a in rep.quiver.arrows
    }
    return oracle.Rep(rep.quiver, p, dict(rep.dims), action)


def test_syzygy_matches_the_per_path_construction():
    rng = np.random.default_rng(5)
    for algebra, builds in _random_suite():
        q = algebra.quiver
        for spec in (b(q, i) for b in builds for i in q.vertices()):
            for p in (2, 101):
                path_basis = oracle.rep_of(algebra, spec, p)
                for rep in (path_basis, _scrambled(path_basis, rng)):
                    _compare_three_syzygies(algebra, rep, spec)


def _compare_three_syzygies(algebra, rep, spec):
    """Three syzygies in a row: the same cover and, at every vertex, the same
    kernel (compared by RREF) as the per-path construction, and a result
    that is a representation of the algebra."""
    q, p = algebra.quiver, rep.p
    empty = (np.zeros((0, 0), dtype=np.int64), [])
    for _ in range(3):
        dims, action, kernels = _per_path_cover_kernels(algebra, rep, p)
        cover, bases = oracle._cover_kernels(algebra, rep, oracle._top_lifts(rep))
        assert cover.dims == dims
        for a in q.arrows:
            unit = np.eye(dims[a.source], dtype=np.int64)
            assert np.array_equal(cover.apply(a.id, unit), action[a.id])
        for w in q.vertices():
            basis, unit = bases.get(w, empty)
            rref, pivots = oracle._rref(basis, p) if unit else (basis, unit)
            assert pivots == kernels[w][1], (algebra.relations, spec, p, w)
            assert np.array_equal(rref, kernels[w][0]), (algebra.relations, spec, p, w)
        rep = oracle.syzygy(algebra, rep, oracle._top_lifts(rep))
        assert_relations_vanish(algebra, rep)
        for a in q.arrows:
            assert rep.action[a.id].shape == (rep.dims[a.target], rep.dims[a.source])
        if not rep.total_dim:
            break


def test_memoised_resolutions_equal_fresh_ones(monkeypatch):
    # One shared algebra resolves every module at each max_deg in turn, so
    # later requests start from the memo: its cut tails, its loops and
    # steps other modules took.  Each answer must be the one a fresh
    # algebra gives, and the shared one must have resolved less.
    calls = Counter()
    syzygy = oracle.syzygy

    def counted(algebra, rep, lifts):
        calls[algebra] += 1
        return syzygy(algebra, rep, lifts)

    monkeypatch.setattr(oracle, "syzygy", counted)
    rng = random.Random(83)
    algebras = [one_loop_algebra(3)]
    while len(algebras) < 13:
        algebra = _random_monomial_algebra(rng)
        if algebra is not None and len(algebra.basis) <= 150:
            algebras.append(algebra)
    builds = ALL_SPECS + (ModuleSpec.projective,)
    shared_calls = fresh_calls = 0
    for shared in algebras:
        q = shared.quiver
        specs = [b(q, i) for b in builds for i in q.vertices()]
        for p in (2, 101):
            for max_deg in (3, 8, 0, 8):
                for spec in specs:
                    fresh = qd.Algebra(q, shared.relations)
                    want = oracle.minimal_resolution(fresh, spec, max_deg, p)
                    got = oracle.minimal_resolution(shared, spec, max_deg, p)
                    assert got == want, (shared.relations, spec, p, max_deg)
                    fresh_calls += calls.pop(fresh)
            # the memo keeps a representation only at a cut tail
            tails = sum(isinstance(s, oracle.Rep) for s in shared.basis.syzygies[p].values())
            assert tails <= len(specs)
        shared_calls += calls.pop(shared)
    assert shared_calls < fresh_calls / 4


def _line_file(tmp_path, n):
    """A_n with every consecutive 2-path a relation."""
    lines = [f"quiver {n}"] + [f"arrow a{i} {i} {i + 1}" for i in range(1, n)]
    lines += ["relations"] + [f"rel a{i} a{i + 1}" for i in range(1, n - 1)]
    path = tmp_path / f"a{n}.qv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("name, want", [("A16", 31), ("golden", 10)])
def test_verify_resolves_each_distinct_representation_once(
    name, want, tmp_path, monkeypatch, capsys
):
    # verify resolves S, Delta and Gamma of every vertex to degree 8: 123
    # syzygies on A16 and 14 on golden.qv when each starts afresh
    keys = []
    syzygy = oracle.syzygy

    def recorded(algebra, rep, lifts):
        keys.append(oracle._digest(rep))
        return syzygy(algebra, rep, lifts)

    monkeypatch.setattr(oracle, "syzygy", recorded)
    path = _line_file(tmp_path, 16) if name == "A16" else GOLDEN_QV
    assert cli.main(["verify", path]) == 0
    assert capsys.readouterr().out.endswith("all checks passed\n")
    assert len(keys) == len(set(keys)) == want
