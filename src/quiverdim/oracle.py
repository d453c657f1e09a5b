"""Independent linear-algebra engine over a prime field.

Modules become explicit quiver representations on the path basis; projective
covers, syzygies and minimal resolutions are computed by exact modular
Gaussian elimination with deterministic pivoting.  Linear algebra runs only
on a module's support: a vertex or arrow whose fiber is zero costs no
elimination and no product, a subrepresentation takes one matrix product per
arrow, and each module's radical is built once per homological degree.
numpy int64 arrays carry the arithmetic; an entry is below p, so a product
with inner dimension k is exact while (p-1)**2 * k < 2**63, which ``_mul``
checks before every product.  All ideals here are monomial, so every
computed dimension is independent of the chosen prime; that independence is
itself asserted in the test suite.  This engine shares no resolution logic
with ``homology`` and serves as its cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import Algebra, ModuleSpec
from .homology import Resolution
from .quiver import Path, Quiver

DEFAULT_PRIME = 101


# (p-1)**2 < 2**30, so an int64 product is exact for inner dimension below 2**33
MAX_PRIME = 32749


def _require_prime(p: int) -> None:
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} too large (max {MAX_PRIME})")
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


# -- exact mod-p matrix kit ---------------------------------------------------


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for entries in [0, p); raises if int64 could overflow."""
    k = a.shape[-1]
    if (p - 1) ** 2 * k >= 2**63:
        raise OverflowError(f"int64 product of inner dimension {k} not exact mod {p}")
    return (a @ b) % p


def _rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; pivot = first nonzero entry per column."""
    rows, cols = m.shape
    if not rows or not cols:
        return np.zeros((0, cols), dtype=np.int64), []
    m = np.array(m % p, dtype=np.int64)
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
            m[others] = (m[others] - _mul(m[others, c : c + 1], m[r : r + 1], p)) % p
        pivot_cols.append(c)
        r += 1
    return m[: len(pivot_cols)], pivot_cols


def _nullspace(m: np.ndarray, p: int) -> np.ndarray:
    """Canonical kernel basis (rows), one vector per free column, ascending."""
    rows, cols = m.shape
    if not rows or not cols:
        return np.eye(cols, dtype=np.int64)
    rr, pivots = _rref(m, p)
    is_free = np.ones(cols, dtype=bool)
    is_free[pivots] = False
    free = np.flatnonzero(is_free)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-rr[:, free].T) % p
    return basis


def _coords(basis: np.ndarray, pivots: list[int], y: np.ndarray, p: int) -> np.ndarray:
    """Coordinates of the columns of y in an RREF basis (one column each);
    every column must lie in the span.  The basis is the identity at the
    pivots, so only the other rows can differ from the span's image."""
    c = y[pivots] % p
    free = np.delete(np.arange(basis.shape[1]), pivots)
    if np.any((y[free] - _mul(basis[:, free].T, c, p)) % p):
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
    return Rep(q, p, dims, action)


def check_relations(algebra: Algebra, rep: Rep) -> bool:
    """Multiply out every relation's action matrices and test for zero."""
    for rel in algebra.relations:
        m = None
        for arrow_id in rel.word:
            step = rep.action[arrow_id]
            m = step if m is None else _mul(step, m, rep.p)
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
        if pieces and rep.dims[v]:
            out[v] = _rref(np.vstack(pieces), rep.p)
        else:
            out[v] = (np.zeros((0, rep.dims[v]), dtype=np.int64), [])
    return out


def _top_lifts(rep: Rep) -> dict[int, list[int]]:
    """Per vertex, the coordinates whose unit vectors complete the radical
    to the whole fiber: the non-pivot columns of its RREF basis."""
    rad = _radical(rep)
    return {
        v: sorted(set(range(rep.dims[v])) - set(rad[v][1])) for v in rep.quiver.vertices()
    }


def top_dims(rep: Rep) -> dict[int, int]:
    """Multiplicities of the simples in rep / rad rep (nonzero entries only)."""
    return {v: len(ks) for v, ks in _top_lifts(rep).items() if ks}


def _sub_rep(parent: Rep, bases: dict[int, tuple[np.ndarray, list[int]]]) -> Rep:
    """Materialize a subrepresentation from per-vertex RREF bases.

    Each arrow maps its source basis with one product; the coordinates are
    read at the target pivots, after checking that every image lies in the
    target subspace (``ArithmeticError`` otherwise).
    """
    p = parent.p
    dims = {v: bases[v][0].shape[0] for v in parent.quiver.vertices()}
    action: dict[str, np.ndarray] = {}
    for a in parent.quiver.arrows:
        if dims[a.source] and parent.dims[a.target]:
            images = _mul(parent.action[a.id], bases[a.source][0].T, p)
            action[a.id] = _coords(*bases[a.target], images, p)
        else:
            action[a.id] = np.zeros((dims[a.target], dims[a.source]), dtype=np.int64)
    return Rep(parent.quiver, p, dims, action)


def syzygy(
    algebra: Algebra, rep: Rep, lifts: Optional[dict[int, list[int]]] = None
) -> Rep:
    """Kernel of the minimal projective cover map onto ``rep``.

    The cover is the sum of P(v), one copy per top generator; its basis is
    (generator, path) pairs, on which arrows act by appending.  Images of
    basis elements under the cover map are built incrementally (path by
    extension), the kernel per vertex via one nullspace each.  ``lifts`` is
    ``_top_lifts(rep)`` when the caller already has it.
    """
    q = algebra.quiver
    p = rep.p
    if lifts is None:
        lifts = _top_lifts(rep)
    empty = np.zeros(0, dtype=np.int64)  # the image at every zero fiber
    elements: dict[int, list[tuple[int, int, Path]]] = {w: [] for w in q.vertices()}
    images: dict[tuple[int, int, Path], np.ndarray] = {}
    for v in sorted(lifts):
        for k in lifts[v]:
            for path in algebra.basis.by_source[v]:
                if path.is_trivial:
                    img = np.zeros(rep.dims[v], dtype=np.int64)
                    img[k] = 1
                else:
                    last = path.word[-1]
                    parent = images[(v, k, Path(v, q.arrow(last).source, path.word[:-1]))]
                    if rep.dims[path.target]:
                        img = _mul(rep.action[last], parent, p)
                    else:
                        img = empty
                images[(v, k, path)] = img
                elements[path.target].append((v, k, path))
    index = {elem: i for w in q.vertices() for i, elem in enumerate(elements[w])}
    cover_dims = {w: len(elements[w]) for w in q.vertices()}
    cover_action: dict[str, np.ndarray] = {}
    for a in q.arrows:
        m = np.zeros((cover_dims[a.target], cover_dims[a.source]), dtype=np.int64)
        for col, (v, k, path) in enumerate(elements[a.source]):
            # appending a is nonzero exactly when the grown path is in the basis
            row = index.get((v, k, Path(v, a.target, path.word + (a.id,))))
            if row is not None:
                m[row, col] = 1
        cover_action[a.id] = m
    cover = Rep(q, p, cover_dims, cover_action)
    kernels: dict[int, tuple[np.ndarray, list[int]]] = {}
    for w in q.vertices():
        n = cover_dims[w]
        if not rep.dims[w]:
            kernels[w] = (np.eye(n, dtype=np.int64), list(range(n)))
        elif not n:
            kernels[w] = (np.zeros((0, 0), dtype=np.int64), [])
        else:
            matrix = np.column_stack([images[elem] for elem in elements[w]])
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
        lifts = _top_lifts(current)
        betti.append({v: len(ks) for v, ks in lifts.items() if ks})
        current = syzygy(algebra, current, lifts)
    return Resolution(tuple(betti), complete=current.total_dim == 0)
