"""Independent linear-algebra engine over a prime field.

Modules become explicit quiver representations on the path basis; projective
covers, syzygies and minimal resolutions are computed by exact modular
Gaussian elimination with deterministic pivoting.  This engine shares no
resolution logic with ``homology`` and serves as its cross-check; nor does
``Algebra.basis``, which it reads, share the chain engine's automaton.  All
ideals here are monomial, so every computed dimension is independent of the
chosen prime; that independence is itself asserted in the test suite.

Cost model.  Linear algebra runs only on a module's support: a vertex or
arrow whose fiber is zero costs no elimination and no product.  A module
M(i, S) and a projective cover both read their basis as ``_path_tree``, the
paths from a vertex as a tree under removal of the last arrow: an arrow
sends each path's parent to the path, one entry per path.  A projective's
tree is built once per algebra and kept with the basis, in
``BasisIndex.trees``; every cover of every syzygy reads it there.  A syzygy is
the kernel of the projective cover, whose basis is (generator, path) pairs
on which an arrow acts by appending itself: it sends each pair to one pair
or to zero.  The cover's arrows are therefore kept as index maps, and
restricting them to the kernel is a row gather, not a matrix product.  The
images of the cover basis under the cover map are built one path length at
a time, one product per (length, last arrow) over all generators at once.
Each kernel takes one elimination; its basis is the identity at the free
columns, which is all that reading coordinates in it needs.  A cover fiber
whose elimination would need more than ``MAX_ENTRIES`` matrix entries is
refused before anything is allocated, with ``OracleCapExceeded``.

Arithmetic.  Entries are integers in [0, p) held as int64.  A product
with inner dimension k runs in float64, through BLAS, and is exact while
every partial sum stays an integer below 2**53, that is while
(p-1)**2 * k < 2**53; ``_mul`` checks that bound before every product and
raises past it.  The caps keep every product inside it: k is a fiber of a
module (at most ``MAX_BASIS_PATHS`` paths) or of a kernel (at most
isqrt(``MAX_ENTRIES``) vectors), and (``MAX_PRIME``-1)**2 * 10**6 is about
1.07e15.  Elimination updates rows entrywise, with products below p**2 and
no sums.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Union

import numpy as np

from .algebra import Algebra, ModuleSpec
from .homology import Resolution
from .quiver import Path, Quiver

DEFAULT_PRIME = 101


# (p-1)**2 < 2**30, so a float64 product is exact for inner dimension below
# 2**23, above every fiber the basis and entry caps allow
MAX_PRIME = 32749


# The most entries one elimination of ``_cover_kernels`` may use: at a
# vertex whose module fiber has r and cover fiber n basis elements, the
# images are an r x n matrix and the kernel basis up to n x n, so a cover
# fiber with n * max(r, n) above this is refused before anything is
# allocated (8 bytes an entry: 128 MiB).
MAX_ENTRIES = 2**24


class OracleCapExceeded(ValueError):
    """A cover fiber too large for the oracle to eliminate."""


def _require_prime(p: int) -> None:
    if p > MAX_PRIME:
        raise ValueError(f"modulus {p} too large (max {MAX_PRIME})")
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


# -- exact mod-p matrix kit ---------------------------------------------------


def _mul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """(a @ b) mod p for entries in [0, p), as int64, through an exact
    float64 product; raises where a partial sum could reach 2**53."""
    k = a.shape[-1]
    if (p - 1) ** 2 * k >= 2**53:
        raise OverflowError(f"float64 product of inner dimension {k} not exact mod {p}")
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64) % p


def _rref(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form; pivot = first nonzero entry per column."""
    rows, cols = m.shape
    m = np.asarray(m, dtype=np.int64) % p
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = m[r:, c].nonzero()[0]
        if not nz.size:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        lead = int(m[r, c])
        if lead != 1:
            m[r] = (m[r] * pow(lead, -1, p)) % p
        others = m[:, c].nonzero()[0]
        if others.size > 1:
            # a rank-one update: entrywise products below p**2, no sums
            others = others[others != r]
            m[others] = (m[others] - m[others, c : c + 1] * m[r]) % p
        pivot_cols.append(c)
        r += 1
    return m[: len(pivot_cols)], pivot_cols


def _nullspace(m: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Canonical kernel basis (rows), one vector per free column, ascending,
    and those free columns: the basis is the identity there."""
    cols = m.shape[1]
    rr, pivots = _rref(m, p)
    free = sorted(set(range(cols)).difference(pivots))
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = (-rr[:, free].T) % p
    return basis, free


def _coords(basis: np.ndarray, unit: list[int], y: np.ndarray, p: int) -> np.ndarray:
    """Coordinates of the columns of y in a basis (rows) that is the
    identity at the columns ``unit`` (one column of coordinates each); every
    column must lie in the span.  The coordinates are y's entries at
    ``unit``, so only the other entries can differ from the span's image."""
    c = y[unit] % p
    if len(unit) < basis.shape[1]:  # else the basis spans the whole space
        rest = np.ones(basis.shape[1], dtype=bool)
        rest[unit] = False
        if np.any((y[rest] - _mul(basis[:, rest].T, c, p)) % p):
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

    def apply(self, arrow_id: str, x: np.ndarray) -> np.ndarray:
        """The arrow's images of the columns of x."""
        return _mul(self.action[arrow_id], x, self.p)


@dataclass
class _Cover:
    """A projective cover on its (generator, path) basis.  For each pair
    (src, dst) in ``maps[a]``, arrow a sends the element at row src[i] of
    its source fiber to the one at row dst[i] of its target fiber; it sends
    every other element to zero."""

    quiver: Quiver
    p: int
    dims: dict[int, int]
    maps: dict[str, list[tuple[np.ndarray, np.ndarray]]]

    def apply(self, arrow_id: str, x: np.ndarray) -> np.ndarray:
        """The arrow's images of the columns of x: row gathers."""
        a = self.quiver.arrow_by_id[arrow_id]
        out = np.zeros((self.dims[a.target], x.shape[1]), dtype=np.int64)
        for src, dst in self.maps.get(arrow_id, ()):
            out[dst] = x[src]
        return out


def _path_tree(paths: tuple[Path, ...]) -> tuple[Counter, list[tuple[int, str, int, int]]]:
    """The paths from one vertex, in basis order, as a tree under removal
    of the last arrow: how many end at each vertex, and per nontrivial
    path (length, last arrow, index of its parent among the paths ending
    where the parent ends, its own index among the paths ending where it
    ends).  ``paths`` is closed under taking prefixes, as the basis and
    every module basis are."""
    count: Counter[int] = Counter()
    index: dict[tuple[str, ...], int] = {}
    steps = []
    for path in paths:
        j = index[path.word] = count[path.target]
        count[path.target] = j + 1
        if path.word:
            steps.append((len(path.word), path.word[-1], index[path.word[:-1]], j))
    return count, steps


def rep_of(algebra: Algebra, spec: ModuleSpec, p: int = DEFAULT_PRIME) -> Rep:
    """M(i, S) on its path basis: an arrow acts by appending itself, so it
    sends each path's parent in ``_path_tree`` to the path."""
    _require_prime(p)
    q = algebra.quiver
    count, steps = _path_tree(algebra.module_basis(spec))
    dims = {v: count[v] for v in q.vertices()}
    action = {a.id: np.zeros((dims[a.target], dims[a.source]), dtype=np.int64) for a in q.arrows}
    for _, arrow_id, parent, j in steps:
        action[arrow_id][j, parent] = 1
    return Rep(q, p, dims, action)


def _radical(rep: Rep) -> dict[int, list[int]]:
    """Per vertex, the pivot columns of an RREF basis of the radical (the
    sum of all incoming arrow images); none at a zero fiber."""
    q = rep.quiver
    out: dict[int, list[int]] = {}
    for v, d in rep.dims.items():
        pieces = [rep.action[a.id].T for a in q.in_arrows(v) if rep.dims[a.source]] if d else []
        out[v] = _rref(np.vstack(pieces), rep.p)[1] if pieces else []
    return out


def _top_lifts(rep: Rep) -> dict[int, list[int]]:
    """Per vertex, the coordinates whose unit vectors complete the radical
    to the whole fiber: the non-pivot columns of its RREF basis."""
    rad = _radical(rep)
    return {v: sorted(set(range(rep.dims[v])) - set(rad[v])) for v in rep.quiver.vertices()}


def _sub_rep(
    parent: Union[Rep, _Cover], bases: dict[int, tuple[np.ndarray, list[int]]]
) -> Rep:
    """Materialize a subrepresentation from per-vertex bases (rows), each
    the identity at the listed columns, as an RREF basis is at its pivots;
    a vertex without a basis is a zero fiber.

    Each arrow maps its source basis with one ``parent.apply``; the
    coordinates are read at the target's listed columns, after checking
    that every image lies in the target subspace (``ArithmeticError``
    otherwise).
    """
    p = parent.p
    dims = {v: len(bases[v][1]) if v in bases else 0 for v in parent.quiver.vertices()}
    action: dict[str, np.ndarray] = {}
    for a in parent.quiver.arrows:
        if dims[a.source] and parent.dims[a.target]:
            images = parent.apply(a.id, bases[a.source][0].T)
            action[a.id] = _coords(*bases[a.target], images, p)
        else:
            action[a.id] = np.zeros((dims[a.target], dims[a.source]), dtype=np.int64)
    return Rep(parent.quiver, p, dims, action)


def _cover_kernels(
    algebra: Algebra, rep: Rep, lifts: dict[int, list[int]]
) -> tuple[_Cover, dict[int, tuple[np.ndarray, list[int]]]]:
    """The projective cover of ``rep`` with top lifts ``lifts``, and per
    vertex a basis of the kernel of the cover map, the identity at the
    listed columns; a zero fiber of the cover has none.

    The cover is the sum of P(v), one copy per top generator; at each
    vertex w its basis lists, generator by generator, the generator's paths
    ending at w in basis order.  Arrows act by appending, so they are index
    maps.  The images of the basis under the cover map are built level by
    level: the paths of one length with one last arrow take one product
    over all generators.  Each kernel is one nullspace; at a zero fiber of
    ``rep`` it is the whole cover fiber.
    """
    q = algebra.quiver
    arrows = q.arrow_by_id
    basis = algebra.basis
    tops = [v for v in sorted(lifts) if lifts[v]]
    cover_dims = dict.fromkeys(q.vertices(), 0)
    for v in tops:
        if v not in basis.trees:
            basis.trees[v] = _path_tree(basis.by_source[v])
        for w, n in basis.trees[v][0].items():
            cover_dims[w] += n * len(lifts[v])
    for w, n in cover_dims.items():
        if n * max(rep.dims[w], n) > MAX_ENTRIES:
            raise OracleCapExceeded(
                f"the oracle's projective cover has {n} basis elements at vertex {w}; "
                f"eliminating there needs more than {MAX_ENTRIES} matrix entries"
            )
    filled = dict.fromkeys(q.vertices(), 0)
    units: list[tuple[int, int, int]] = []  # (vertex, top coordinate, column)
    # (length, last arrow) -> rows of the parents and of the grown paths
    levels: dict[tuple[int, str], tuple[list[int], list[int]]] = {}
    for v in tops:
        count, steps = basis.trees[v]
        for k in lifts[v]:
            start = {w: filled[w] for w in count}
            for w, n in count.items():
                filled[w] += n
            units.append((v, k, start[v]))
            for length, arrow_id, parent, j in steps:
                a = arrows[arrow_id]
                src, dst = levels.setdefault((length, arrow_id), ([], []))
                src.append(start[a.source] + parent)
                dst.append(start[a.target] + j)
    images = {
        w: np.zeros((rep.dims[w], n), dtype=np.int64)
        for w, n in cover_dims.items()
        if rep.dims[w] and n
    }
    for v, k, col in units:
        images[v][k, col] = 1
    maps: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for length, arrow_id in sorted(levels):
        src, dst = (np.array(rows, dtype=np.intp) for rows in levels[(length, arrow_id)])
        maps.setdefault(arrow_id, []).append((src, dst))
        a = arrows[arrow_id]
        if a.source in images and a.target in images:
            images[a.target][:, dst] = rep.apply(arrow_id, images[a.source][:, src])
    kernels: dict[int, tuple[np.ndarray, list[int]]] = {}
    for w, n in cover_dims.items():
        if w in images:
            kernels[w] = _nullspace(images[w], rep.p)
        elif n:  # a zero fiber of rep: the kernel is the whole cover fiber
            kernels[w] = (np.eye(n, dtype=np.int64), list(range(n)))
    return _Cover(q, rep.p, cover_dims, maps), kernels


def syzygy(algebra: Algebra, rep: Rep, lifts: dict[int, list[int]]) -> Rep:
    """Kernel of the minimal projective cover map onto ``rep``, on the
    kernel bases of ``_cover_kernels``; ``lifts`` is ``_top_lifts(rep)``."""
    return _sub_rep(*_cover_kernels(algebra, rep, lifts))


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
