"""Monomial bound quiver algebras: kQ/I for an ideal generated by paths.

The quotient has the relation-avoiding paths as a basis, so everything is
word combinatorics: a path is zero exactly when some generator word occurs
in it as a contiguous infix.  ``RelationIndex`` answers every such test by
hashing the windows whose length is a relation length, instead of scanning
the relations.  Admissibility (all long enough paths vanish) is decided on
a forbidden-suffix automaton whose states are short nonzero windows; the
algebra is finite-dimensional iff that automaton is acyclic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .quiver import Path, Quiver

DEFAULT_BASIS_CAP = 1_000_000


class NotAdmissibleError(ValueError):
    """The relation set does not give a finite-dimensional quotient."""


class BasisCapExceeded(RuntimeError):
    """Path enumeration hit the safety cap."""


class RelationIndex:
    """Generator words hashed for every zero test.

    ``words`` is the set of words and ``lengths`` their distinct lengths in
    ascending order, so an infix or suffix test looks up one window per
    relation length and start instead of scanning the relations.  ``rests``
    maps each nonempty proper prefix u of a relation r = u ++ v to the
    remainders v.
    """

    def __init__(self, words: Iterable[tuple[str, ...]]):
        self.words = frozenset(words)
        self.lengths = tuple(sorted({len(w) for w in self.words}))
        rests: dict[tuple[str, ...], list[tuple[str, ...]]] = {}
        for w in self.words:
            for cut in range(1, len(w)):
                rests.setdefault(w[:cut], []).append(w[cut:])
        self.rests = {u: tuple(vs) for u, vs in rests.items()}

    def first_infix(
        self, word: tuple[str, ...], shorter_than: Optional[int] = None
    ) -> Optional[tuple[str, ...]]:
        """The shortest, then leftmost, relation word occurring in ``word``.

        Only relations shorter than ``shorter_than`` count if it is given.
        """
        words, n = self.words, len(word)
        top = n if shorter_than is None else shorter_than - 1
        for k in self.lengths:
            if k > top:
                return None
            for s in range(n - k + 1):
                if word[s : s + k] in words:
                    return word[s : s + k]
        return None

    def has_suffix(self, word: tuple[str, ...]) -> bool:
        words, n = self.words, len(word)
        for k in self.lengths:
            if k > n:
                return False
            if word[n - k :] in words:
                return True
        return False


def reduce_relations(paths: Iterable[Path]) -> "RelationSet":
    """Drop every relation containing another one as an infix; reject short ones."""
    unique = sorted(set(paths), key=Path.sort_key)
    for p in unique:
        if p.length < 2:
            raise NotAdmissibleError(
                f"zero relation {p} has length {p.length}; relations must have length >= 2"
            )
    # Distinct paths of length >= 1 have distinct words (an arrow fixes its
    # source), so a relation is redundant iff a shorter word occurs in it.
    index = RelationIndex(p.word for p in unique)
    kept = [p for p in unique if index.first_infix(p.word, shorter_than=p.length) is None]
    return RelationSet(tuple(kept))


@dataclass(frozen=True)
class RelationSet:
    """A reduced set of zero-relation paths (no word an infix of another).

    ``index`` is the ``RelationIndex`` of the generator words.
    """

    generators: tuple[Path, ...]

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        words = [g.word for g in self.generators]
        for g in self.generators:
            if g.length < 2:
                raise NotAdmissibleError(
                    f"zero relation {g} has length {g.length}; relations must have length >= 2"
                )
        index = RelationIndex(words)
        seen: set[tuple[str, ...]] = set()
        for w in words:
            u = w if w in seen else index.first_infix(w, shorter_than=len(w))
            if u is not None:
                raise ValueError(
                    f"relation set not reduced: {'.'.join(u)} is an infix of {'.'.join(w)}"
                )
            seen.add(w)
        object.__setattr__(self, "index", index)

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def words(self) -> tuple[tuple[str, ...], ...]:
        return tuple(g.word for g in self.generators)


@dataclass(frozen=True)
class ModuleSpec:
    """A truncated projective: P(vertex) modulo the out-arrows in ``killed``.

    Covers the standard shorthands: the projective itself (nothing killed),
    the simple (everything killed), the standard module Delta (arrows to
    smaller vertices killed) and Gamma (additionally arrows to vertex+1).
    """

    vertex: int
    killed: frozenset[str]

    @staticmethod
    def projective(q: Quiver, i: int) -> "ModuleSpec":
        q._check_vertex(i)
        return ModuleSpec(i, frozenset())

    @staticmethod
    def simple(q: Quiver, i: int) -> "ModuleSpec":
        return ModuleSpec(i, frozenset(a.id for a in q.out_arrows(i)))

    @staticmethod
    def delta(q: Quiver, i: int) -> "ModuleSpec":
        return ModuleSpec(i, frozenset(a.id for a in q.out_arrows(i) if a.target < i))

    @staticmethod
    def gamma(q: Quiver, i: int) -> "ModuleSpec":
        killed = {a.id for a in q.out_arrows(i) if a.target < i or a.target == i + 1}
        return ModuleSpec(i, frozenset(killed))

    @staticmethod
    def of(q: Quiver, i: int, arrow_ids: Iterable[str]) -> "ModuleSpec":
        q._check_vertex(i)
        ids = frozenset(arrow_ids)
        out = {a.id for a in q.out_arrows(i)}
        bad = ids - out
        if bad:
            raise ValueError(f"not out-arrows of {i}: {sorted(bad)}")
        return ModuleSpec(i, ids)

    def describe(self) -> str:
        return f"M({self.vertex}, {{{','.join(sorted(self.killed))}}})"


@dataclass(frozen=True)
class Admissibility:
    """Outcome of the admissibility check.

    ``ok`` with ``bound`` N means every length-N path is zero and some
    length-(N-1) path is not.  Otherwise ``witness_cycle`` is a nonzero path
    that can be traversed forever.
    """

    ok: bool
    bound: Optional[int] = None
    witness_cycle: Optional[Path] = None
    reason: str = ""


class BasisIndex:
    """All nonzero paths, sorted by (length, word, source vertex)."""

    def __init__(self, quiver: Quiver, paths: list[Path]):
        self.quiver = quiver
        self.paths = tuple(paths)
        by_source: dict[int, list[Path]] = {v: [] for v in quiver.vertices()}
        for p in self.paths:
            by_source[p.source].append(p)
        self.by_source = {v: tuple(ps) for v, ps in by_source.items()}

    def __len__(self) -> int:
        return len(self.paths)

    @cached_property
    def dims_by_source(self) -> dict[int, int]:
        return {v: len(self.by_source[v]) for v in self.quiver.vertices()}

    def count(self, source: int, target: int, length: Optional[int] = None) -> int:
        return sum(
            1
            for p in self.by_source[source]
            if p.target == target and (length is None or p.length == length)
        )


class Algebra:
    """kQ modulo a reduced monomial ideal, with cached basis and automaton.

    ``successors`` memoises ``homology.chain_successors`` per generator path:
    the chain graph belongs to the algebra, not to one module, so every
    simple, ``pdim``, ``resolve`` and cycle search shares it.  Apart from
    these caches the algebra is immutable after construction, and it stays
    safe to share between threads: every cache entry is deterministic, so a
    race only computes the same value twice.
    """

    def __init__(
        self,
        quiver: Quiver,
        relations: RelationSet | Iterable[Path] = (),
        basis_cap: int = DEFAULT_BASIS_CAP,
    ):
        self.quiver = quiver
        if not isinstance(relations, RelationSet):
            relations = reduce_relations(relations)
        for g in relations:
            if not quiver.has_path(g):
                raise ValueError(f"relation {g} is not a path of the quiver")
        self.relations = relations
        self.basis_cap = basis_cap
        self.index = relations.index
        self.lmax = max(self.index.lengths, default=0)
        self.successors: dict[Path, tuple[Path, ...]] = {}

    # -- zero tests ---------------------------------------------------------

    def is_zero_word(self, word: tuple[str, ...]) -> bool:
        return self.index.first_infix(word) is not None

    def is_zero_path(self, p: Path) -> bool:
        if not self.quiver.has_path(p):
            raise ValueError(f"{p} is not a path of this algebra's quiver")
        return self.is_zero_word(p.word)

    def _kills_suffix(self, word: tuple[str, ...]) -> bool:
        """True if some generator is a suffix of ``word`` (new zero occurrence)."""
        return self.index.has_suffix(word)

    # -- admissibility ------------------------------------------------------

    @cached_property
    def admissibility(self) -> Admissibility:
        return self._check_admissible()

    def _window_transitions(self, vertex: int, window: tuple[str, ...]):
        """Automaton step: extend a nonzero window by each out-arrow."""
        keep = max(self.lmax - 1, 0)
        for a in self.quiver.out_arrows(vertex):
            grown = window + (a.id,)
            if self._kills_suffix(grown):
                continue
            yield a, (a.target, grown[-keep:] if keep else ())

    def _check_admissible(self) -> Admissibility:
        starts = [(v, ()) for v in self.quiver.vertices()]
        # Iterative DFS, 3-coloring: a back edge is an infinite nonzero walk.
        color: dict = {}
        longest: dict = {}
        parent_arrow: dict = {}
        parent_of: dict = {}
        for s in starts:
            if s in color:
                continue
            stack = [(s, None)]
            while stack:
                state, it = stack[-1]
                if it is None:
                    color[state] = 1
                    it = iter(list(self._window_transitions(*state)))
                    stack[-1] = (state, it)
                advanced = False
                for a, nxt in it:
                    if color.get(nxt, 0) == 1:
                        cycle_word = [a.id]
                        cur = state
                        while cur != nxt:
                            cycle_word.append(parent_arrow[cur])
                            cur = parent_of[cur]
                        cycle_word.reverse()
                        base = nxt[0]
                        witness = self.quiver.path(base, tuple(cycle_word))
                        return Admissibility(
                            False,
                            witness_cycle=witness,
                            reason=f"nonzero cycle {witness} never vanishes",
                        )
                    if color.get(nxt, 0) == 0:
                        parent_arrow[nxt] = a.id
                        parent_of[nxt] = state
                        stack.append((nxt, None))
                        advanced = True
                        break
                if not advanced:
                    color[state] = 2
                    longest[state] = max(
                        (
                            1 + longest[nxt]
                            for _, nxt in self._window_transitions(*state)
                        ),
                        default=0,
                    )
                    stack.pop()
        longest_nonzero = max((longest[s] for s in starts), default=0)
        return Admissibility(True, bound=longest_nonzero + 1)

    def require_admissible(self) -> None:
        adm = self.admissibility
        if not adm.ok:
            raise NotAdmissibleError(adm.reason)

    # -- basis --------------------------------------------------------------

    @cached_property
    def basis(self) -> BasisIndex:
        self.require_admissible()
        return self._enumerate_basis()

    def _enumerate_basis(self) -> BasisIndex:
        level = sorted(
            (self.quiver.trivial_path(v) for v in self.quiver.vertices()),
            key=Path.sort_key,
        )
        paths: list[Path] = []
        while level:
            paths.extend(level)
            if len(paths) > self.basis_cap:
                raise BasisCapExceeded(
                    f"more than {self.basis_cap} nonzero paths; "
                    "is the relation set admissible?"
                )
            nxt = []
            for p in level:
                for a in self.quiver.out_arrows(p.target):
                    grown = p.word + (a.id,)
                    if not self._kills_suffix(grown):
                        nxt.append(Path(p.source, a.target, grown))
            level = sorted(nxt, key=Path.sort_key)
        return BasisIndex(self.quiver, paths)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def dim_projective(self, i: int) -> int:
        self.quiver._check_vertex(i)
        return len(self.basis.by_source[i])

    # -- truncated projectives ---------------------------------------------

    def check_module(self, spec: ModuleSpec) -> None:
        """Raise ValueError unless ``spec`` kills only out-arrows of its vertex."""
        self.quiver._check_vertex(spec.vertex)
        out = {a.id for a in self.quiver.out_arrows(spec.vertex)}
        bad = spec.killed - out
        if bad:
            raise ValueError(
                f"killed set contains non-out-arrows of {spec.vertex}: {sorted(bad)}"
            )

    def module_basis(self, spec: ModuleSpec) -> tuple[Path, ...]:
        """Basis of M(i, S): paths from i whose first arrow is not killed."""
        self.check_module(spec)
        return tuple(
            p
            for p in self.basis.by_source[spec.vertex]
            if p.is_trivial or p.word[0] not in spec.killed
        )

    def composition_vector(self, spec: ModuleSpec) -> dict[int, int]:
        """Composition factor counts: basis paths of M(i, S) grouped by target."""
        counts = Counter(p.target for p in self.module_basis(spec))
        return {v: counts[v] for v in sorted(counts)}

    def module_dim(self, spec: ModuleSpec) -> int:
        return len(self.module_basis(spec))
