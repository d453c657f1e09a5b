"""Monomial bound quiver algebras: kQ/I for an ideal generated by paths.

The quotient has the relation-avoiding paths as a basis, so everything is
word combinatorics: a path is zero exactly when some generator word occurs
in it as a contiguous infix.  ``RelationSet`` owns the generator words and
answers every such test by hashing the windows whose length is a relation
length, instead of scanning the relations.  Admissibility (all long enough
paths vanish) is decided on a forbidden-suffix automaton whose states are
short nonzero windows; the algebra is finite-dimensional iff that automaton
is acyclic.  The search is ``quiver.find_cycle``, the walk ``homology`` runs
on its chain graph: it returns a cycle of states, read back as a witness
path, or the longest path of every state, which gives the nilpotency bound.
The automaton step, memoised per state, is the one place that decides
whether appending an arrow keeps a path nonzero; a state reads the arrows it
kills off ``RelationSet.rests`` at once.  The basis grows paths through it,
and the sqh test of ``qh`` walks it without the basis.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional

from .quiver import Path, Quiver, find_cycle

DEFAULT_BASIS_CAP = 1_000_000


class NotAdmissibleError(ValueError):
    """The relation set does not give a finite-dimensional quotient."""


class BasisCapExceeded(RuntimeError):
    """Path enumeration hit the safety cap."""


def reduce_relations(paths: Iterable[Path]) -> "RelationSet":
    """Drop every relation containing another one as an infix; reject short ones."""
    reduced = object.__new__(RelationSet)
    reduced._admit(set(paths), drop=True)
    return reduced


@dataclass(frozen=True)
class RelationSet:
    """A reduced set of zero-relation paths (no word an infix of another).

    The constructor rejects short or unreduced generators; ``reduce_relations``
    drops the unreduced ones instead.  The generator words are hashed for
    every zero test: ``_words`` is the set of words and ``lengths`` their
    distinct lengths in ascending order, so an infix or suffix test looks up
    one window per relation length and start instead of scanning the
    relations.  ``rests`` maps each nonempty proper prefix u of a relation
    r = u ++ v to the remainders v.  ``_quiver`` is None, or the quiver
    every generator was built from, set by ``_of``: a set is trusted only
    when ``qvfile.parse`` or the planner built it for that very quiver.
    """

    generators: tuple[Path, ...]

    def __post_init__(self):
        self._admit(self.generators, drop=False)

    def _admit(self, paths: Iterable[Path], drop: bool) -> None:
        """Index ``paths`` shortest first and make them the generators.

        A path is redundant iff a kept, shorter word occurs in it (an infix
        of an infix is one), so the lookups hold only kept words.  With
        ``drop`` a redundant path is left out and the rest are kept in
        sorted order; otherwise it raises, and the generators keep their
        given order.  Distinct paths of length >= 2 of one quiver have
        distinct words (an arrow fixes its source); a repeated word means a
        repeated or malformed path.
        """
        given = tuple(paths)
        words, lengths, rests = set(), [], {}
        vars(self).update(_words=words, lengths=lengths, rests=rests, _quiver=None)
        kept = []
        for p in sorted(given, key=Path.sort_key):
            word = p.word
            if len(word) < 2:
                raise NotAdmissibleError(
                    f"zero relation {p} has length {p.length}; relations must have length >= 2"
                )
            u = self.first_infix(word)
            if u is None:
                kept.append(p)
                words.add(word)
                if not lengths or lengths[-1] < len(word):  # shortest first: stays ascending
                    lengths.append(len(word))
                for cut in range(1, len(word)):
                    rests.setdefault(word[:cut], []).append(word[cut:])
            elif not drop or u == word:
                raise ValueError(
                    f"relation set not reduced: {'.'.join(u)} is an infix of {'.'.join(word)}"
                )
        object.__setattr__(self, "generators", tuple(kept) if drop else given)

    def _of(self, quiver: Quiver) -> "RelationSet":
        vars(self)["_quiver"] = quiver
        return self

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def words(self) -> tuple[tuple[str, ...], ...]:
        return tuple(g.word for g in self.generators)

    def first_infix(self, word: tuple[str, ...]) -> Optional[tuple[str, ...]]:
        """The shortest, then leftmost, relation word occurring in ``word``."""
        words, n = self._words, len(word)
        for k in self.lengths:
            if k >= n:  # the one window of length n is the word itself
                return word if k == n and word in words else None
            for s in range(n - k + 1):
                if word[s : s + k] in words:
                    return word[s : s + k]
        return None

    def has_suffix(self, word: tuple[str, ...]) -> bool:
        words, n = self._words, len(word)
        for k in self.lengths:
            if k > n:
                return False
            if word[n - k :] in words:
                return True
        return False

    def remainders(self, word: tuple[str, ...]) -> list[tuple[str, ...]]:
        """Every v with r = u ++ v a relation, u a nonempty suffix of ``word``
        and v nonempty."""
        rests = self.rests
        return [v for cut in range(1, len(word) + 1) for v in rests.get(word[-cut:], ())]


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
    """All nonzero paths, sorted by (length, word, source vertex).

    The tables other layers derive from the paths from each vertex live
    here, so each is built once per algebra, when first needed:
    ``projective_vectors`` for the Euler check of ``homology``, and
    ``trees``, which ``oracle`` fills with its path tree of a vertex's
    paths the first time a projective cover needs it.
    """

    def __init__(self, paths: list[Path]):
        self.paths = tuple(paths)
        by_source: dict[int, list[Path]] = {}
        for p in self.paths:  # the trivial paths come first, by source
            by_source.setdefault(p.source, []).append(p)
        self.by_source = {v: tuple(ps) for v, ps in by_source.items()}
        self.trees: dict[int, tuple] = {}

    @cached_property
    def projective_vectors(self) -> dict[int, Counter[int]]:
        """Per vertex v, the composition vector of P(v): how many paths
        from v end at each vertex."""
        return {v: Counter(p.target for p in ps) for v, ps in self.by_source.items()}

    def __len__(self) -> int:
        return len(self.paths)


class Algebra:
    """kQ modulo a reduced monomial ideal, with cached basis and automaton.

    The chain graph of ``homology`` belongs to the algebra, not to one
    module, so every simple, ``pdim``, ``resolve`` and cycle search shares
    it.  ``successors`` memoises ``homology.chain_successors`` per generator
    path; a path the walk has produced but not yet expanded maps to None.
    ``depths`` holds the longest chain length from each path a
    ``pdim`` walk has entered, ``math.inf`` for a path that reaches a cycle;
    the length depends on the path and the relations alone, so a depth
    recorded for one module holds for every other.  ``resolve`` searches
    for its cycle with a fresh memo and leaves ``depths`` alone.
    ``transitions`` memoises the window automaton's step per state, and
    ``window_depths`` the longest path from each state, which the
    admissibility walk leaves for ``qh``.  Apart from these caches the
    algebra is immutable after construction, and it stays safe to share
    between threads: every cache entry is deterministic, so a race only
    computes the same value twice.  The constructor checks that every
    relation is a path of ``quiver``, unless ``qvfile.parse`` or the
    planner built the set from this very quiver object.
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
        if relations._quiver is not quiver:
            for g in relations:
                if not quiver.has_path(g):
                    raise ValueError(f"relation {g} is not a path of the quiver")
        self.relations = relations
        self.basis_cap = basis_cap
        self.lmax = max(relations.lengths, default=0)
        self.successors: dict[Path, Optional[tuple[Path, ...]]] = {}
        self.depths: dict[Path, int | float] = {}
        self.transitions: dict[tuple, tuple] = {}
        self.window_depths: dict[tuple, int | float] = {}

    # -- zero tests ---------------------------------------------------------

    def is_zero_word(self, word: tuple[str, ...]) -> bool:
        return self.relations.first_infix(word) is not None

    def is_zero_path(self, p: Path) -> bool:
        if not self.quiver.has_path(p):
            raise ValueError(f"{p} is not a path of this algebra's quiver")
        return self.is_zero_word(p.word)

    # Not called by the package; bench/tracing.py counts algebra.zero_tests through this name.
    def _kills_suffix(self, word: tuple[str, ...]) -> bool:
        """True if some generator is a suffix of ``word`` (new zero occurrence)."""
        return self.relations.has_suffix(word)

    # -- admissibility ------------------------------------------------------

    @cached_property
    def admissibility(self) -> Admissibility:
        return self._check_admissible()

    def _window_transitions(self, state: tuple) -> tuple:
        """Automaton step, memoised in ``transitions``: the (arrow, next
        state) pairs of a state (v, w), which stands for the nonzero paths
        ending at v with last lmax-1 arrows w (all, if fewer).  The killed
        arrows are the length-1 remainders in ``rests`` of w's suffixes:
        w's length-1 ``RelationSet.remainders``, looked up only at the
        suffixes one shorter than a relation, which is measurably faster."""
        moves = self.transitions.get(state)
        if moves is None:
            vertex, window = state
            rests, n, killed = self.relations.rests, len(window), set()
            for k in self.relations.lengths:
                if k > n + 1:
                    break
                for v in rests.get(window[n + 1 - k :], ()):
                    if len(v) == 1:
                        killed.add(v[0])
            cut = 1 - self.lmax  # grown[cut:] keeps lmax-1 arrows; () if lmax is 0
            moves = []
            for a in self.quiver._out[vertex]:
                if a.id not in killed:
                    moves.append((a, (a.target, (window + (a.id,))[cut:])))
            self.transitions[state] = moves = tuple(moves)
        return moves

    def _next_states(self, state: tuple) -> tuple:
        return tuple([s for _, s in self._window_transitions(state)])

    def _check_admissible(self) -> Admissibility:
        starts = [(v, ()) for v in self.quiver.vertices()]
        longest = self.window_depths  # filled once: ``admissibility`` is cached
        cycle = find_cycle(starts, self._next_states, longest)
        if cycle is None:
            return Admissibility(True, bound=1 + max((longest[s] for s in starts), default=0))
        # Each step of the witness is the first arrow from one state to the next.
        word = tuple(
            next(a.id for a, nxt in self._window_transitions(state) if nxt == after)
            for state, after in zip(cycle, cycle[1:] + cycle[:1])
        )
        witness = self.quiver.path(cycle[0][0], word)
        return Admissibility(
            False, witness_cycle=witness, reason=f"nonzero cycle {witness} never vanishes"
        )

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
        """Grow (path, automaton state) pairs level by level."""
        level = [(self.quiver.trivial_path(v), (v, ())) for v in self.quiver.vertices()]
        paths: list[Path] = []
        while level:
            level.sort(key=lambda pair: pair[0].sort_key())
            paths.extend(p for p, _ in level)
            if len(paths) > self.basis_cap:
                raise BasisCapExceeded(
                    f"more than {self.basis_cap} nonzero paths; "
                    "is the relation set admissible?"
                )
            level = [
                (Path(p.source, a.target, p.word + (a.id,)), after)
                for p, state in level
                for a, after in self._window_transitions(state)
            ]
        return BasisIndex(paths)

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
