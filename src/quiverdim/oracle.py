"""Independent linear-algebra engine over a prime field.

Modules become explicit quiver representations on the path basis; projective
covers, syzygies and minimal resolutions are computed by exact modular
Gaussian elimination with deterministic pivoting (numpy int64 arrays carry
the arithmetic; with p <= ~10^4 nothing overflows).  All ideals here are
monomial, so every computed dimension is independent of the chosen prime;
that independence is itself asserted in the test suite.  This engine shares
no resolution logic with ``homology`` and serves as its cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import Algebra, ModuleSpec
from .homology import Resolution
from .quiver import Path, Quiver

DEFAULT_PRIME = 101


MAX_PRIME = 32749  # keeps every int64 intermediate below 2**45


def _require_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not prime")
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} too large (max {MAX_PRIME})")


# -- exact mod-p matrix kit ---------------------------------------------------


def _rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; pivot = first nonzero entry per column."""
    m = np.array(m % p, dtype=np.int64)
    rows, cols = m.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = (m[r] * pow(int(m[r, c]), -1, p)) % p
        others = np.nonzero(m[:, c])[0]
        others = others[others != r]
        if others.size:
            m[others] = (m[others] - np.outer(m[others, c], m[r])) % p
        pivot_cols.append(c)
        r += 1
    return m[: len(pivot_cols)], pivot_cols


def _nullspace(m: np.ndarray, p: int) -> np.ndarray:
    """Canonical kernel basis (rows), one vector per free column, ascending."""
    rows, cols = m.shape
    rr, pivots = _rref(m, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, f in enumerate(free):
        basis[k, f] = 1
        for row_i, c in enumerate(pivots):
            basis[k, c] = (-int(rr[row_i, f])) % p
    return basis


def _coords(basis: np.ndarray, pivots: list[int], y: np.ndarray, p: int) -> np.ndarray:
    """Coordinates of y in an RREF basis; y must lie in the span."""
    c = y[pivots] % p
    if np.any((y - c @ basis) % p):
        raise ArithmeticError("vector outside subspace; not a subrepresentation?")
    return c


# -- representations ----------------------------------------------------------


@dataclass
class Rep:
    """A representation: a dimension per vertex and a matrix per arrow
    (rows = target dimension, columns = source dimension)."""

    quiver: Quiver
    p: int
    dims: dict[int, int]
    action: dict[str, np.ndarray]

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())


def rep_of(algebra: Algebra, spec: ModuleSpec, p: int = DEFAULT_PRIME) -> Rep:
    """M(i, S) on its path basis: an arrow acts by appending itself."""
    _require_prime(p)
    q = algebra.quiver
    paths = algebra.module_basis(spec)
    index: dict[Path, int] = {}
    dims = {v: 0 for v in q.vertices()}
    by_vertex: dict[int, list[Path]] = {v: [] for v in q.vertices()}
    for path in paths:
        index[path] = dims[path.target]
        dims[path.target] += 1
        by_vertex[path.target].append(path)
    action: dict[str, np.ndarray] = {}
    for a in q.arrows:
        m = np.zeros((dims[a.target], dims[a.source]), dtype=np.int64)
        for col, path in enumerate(by_vertex[a.source]):
            grown = Path(path.source, a.target, path.word + (a.id,))
            row = index.get(grown)
            if row is not None:
                m[row, col] = 1
        action[a.id] = m
    # structural sanity: every relation annihilates every basis path
    for rel in algebra.relations:
        for path in paths:
            if path.target == rel.source:
                if Path(path.source, rel.target, path.word + rel.word) in index:
                    raise AssertionError(f"relation {rel} does not vanish on {path}")
    return Rep(q, p, dims, action)


def check_relations(algebra: Algebra, rep: Rep) -> bool:
    """Multiply out every relation's action matrices and test for zero."""
    for rel in algebra.relations:
        m = None
        for arrow_id in rel.word:
            step = rep.action[arrow_id]
            m = step if m is None else (step @ m) % rep.p
        if np.any(m):
            return False
    return True


def _radical(rep: Rep) -> dict[int, tuple[np.ndarray, list[int]]]:
    """RREF basis of the radical (sum of all incoming arrow images)."""
    out: dict[int, tuple[np.ndarray, list[int]]] = {}
    for v in rep.quiver.vertices():
        pieces = [
            rep.action[a.id].T for a in rep.quiver.in_arrows(v) if rep.dims[a.source]
        ]
        if pieces:
            stacked = np.vstack(pieces)
            out[v] = _rref(stacked, rep.p)
        else:
            out[v] = (np.zeros((0, rep.dims[v]), dtype=np.int64), [])
    return out


def top_dims(rep: Rep) -> dict[int, int]:
    """Multiplicities of the simples in rep / rad rep (nonzero entries only)."""
    rad = _radical(rep)
    out = {}
    for v in sorted(rep.dims):
        t = rep.dims[v] - len(rad[v][1])
        if t:
            out[v] = t
    return out


def _sub_rep(parent: Rep, bases: dict[int, tuple[np.ndarray, list[int]]]) -> Rep:
    """Materialize a subrepresentation from per-vertex RREF bases."""
    dims = {v: bases[v][0].shape[0] for v in parent.quiver.vertices()}
    action: dict[str, np.ndarray] = {}
    for a in parent.quiver.arrows:
        src_rows = bases[a.source][0]
        tgt_rows, tgt_piv = bases[a.target]
        m = np.zeros((dims[a.target], dims[a.source]), dtype=np.int64)
        for j in range(src_rows.shape[0]):
            y = (parent.action[a.id] @ src_rows[j]) % parent.p
            m[:, j] = _coords(tgt_rows, tgt_piv, y, parent.p)
        action[a.id] = m
    return Rep(parent.quiver, parent.p, dims, action)


def _top_lifts(rep: Rep) -> dict[int, list[np.ndarray]]:
    """Standard basis vectors completing the radical to the whole fiber."""
    rad = _radical(rep)
    lifts: dict[int, list[np.ndarray]] = {}
    for v in rep.quiver.vertices():
        taken = set(rad[v][1])
        vecs = []
        for k in range(rep.dims[v]):
            if k not in taken:
                e = np.zeros(rep.dims[v], dtype=np.int64)
                e[k] = 1
                vecs.append(e)
        lifts[v] = vecs
    return lifts


def syzygy(algebra: Algebra, rep: Rep) -> Rep:
    """Kernel of the minimal projective cover map onto ``rep``.

    The cover is the sum of P(v), one copy per top generator; its basis is
    (generator, path) pairs, on which arrows act by appending.  Images of
    basis elements under the cover map are built incrementally (path by
    extension), the kernel per vertex via one nullspace each.
    """
    q = algebra.quiver
    p = rep.p
    lifts = _top_lifts(rep)
    gens = [(v, k) for v in sorted(lifts) for k in range(len(lifts[v]))]
    elements: dict[int, list[tuple[int, int, Path]]] = {w: [] for w in q.vertices()}
    images: dict[tuple[int, int, Path], np.ndarray] = {}
    for (v, k) in gens:
        for path in algebra.basis.by_source[v]:
            if path.is_trivial:
                img = lifts[v][k]
            else:
                last = path.word[-1]
                parent = Path(v, q.arrow(last).source, path.word[:-1])
                img = (rep.action[last] @ images[(v, k, parent)]) % p
            images[(v, k, path)] = img
            elements[path.target].append((v, k, path))
    index = {elem: i for w in q.vertices() for i, elem in enumerate(elements[w])}
    cover_dims = {w: len(elements[w]) for w in q.vertices()}
    cover_action: dict[str, np.ndarray] = {}
    for a in q.arrows:
        m = np.zeros((cover_dims[a.target], cover_dims[a.source]), dtype=np.int64)
        for col, (v, k, path) in enumerate(elements[a.source]):
            grown = path.word + (a.id,)
            if not algebra.is_zero_word(grown):
                m[index[(v, k, Path(v, a.target, grown))], col] = 1
        cover_action[a.id] = m
    cover = Rep(q, p, cover_dims, cover_action)
    kernels: dict[int, tuple[np.ndarray, list[int]]] = {}
    for w in q.vertices():
        matrix = np.zeros((rep.dims[w], cover_dims[w]), dtype=np.int64)
        for col, elem in enumerate(elements[w]):
            matrix[:, col] = images[elem]
        kernels[w] = _rref(_nullspace(matrix, p), p)
    return _sub_rep(cover, kernels)


def minimal_resolution(
    algebra: Algebra, spec: ModuleSpec, max_deg: int, p: int = DEFAULT_PRIME
) -> Resolution:
    """Betti data of a minimal resolution, truncated after ``max_deg``."""
    if max_deg < 0:
        raise ValueError("max_deg must be >= 0")
    algebra.require_admissible()
    current = rep_of(algebra, spec, p)
    betti: list[dict[int, int]] = []
    for _ in range(max_deg + 1):
        if current.total_dim == 0:
            return Resolution(tuple(betti), complete=True)
        betti.append(top_dims(current))
        current = syzygy(algebra, current)
    return Resolution(tuple(betti), complete=current.total_dim == 0)
