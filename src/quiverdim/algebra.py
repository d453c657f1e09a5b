"""Monomial bound quiver algebras: kQ/I for an ideal generated by paths.

The quotient has the relation-avoiding paths as a basis, so everything is
word combinatorics: a path is zero exactly when some generator word occurs
in it as a contiguous infix.  ``RelationSet`` numbers the generator words
once as a trie with failure links (Aho-Corasick, 1975), the one relation
index: building it drops redundant words, one walk on it tests for zero.
``Algebra`` turns the trie into its one automaton, on int states, whose
transition table decides for the chain engine whether appending an arrow
keeps a path nonzero.  A state's row holds one int per out-arrow of its
vertex: the next state, or the relation leaf the arrow completes.  A trie
node's row is its failure link's row with the node's own children put
in; the entries are counted before any row is built, and more than
``MAX_TRANSITIONS`` are refused.  The algebra is finite-dimensional iff
the automaton is acyclic.  The search is ``quiver.find_cycle``, the walk
``homology`` runs on its chain graph, on the rows as they are: its memo
holds each leaf at -1 from the start, and it enters no node in its memo.
It returns a cycle of states, read back as a witness path, or the longest
path of every state: the nilpotency bound.  ``qh`` reads the table too,
the basis does not: it grows from the generator words with its own
suffix test, so the oracle and the Euler check also check the automaton.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional

from .quiver import Path, Quiver, find_cycle

MAX_BASIS_PATHS = 1_000_000  # the most nonzero paths ``basis`` lists, read when it runs
MAX_TRANSITIONS = 10_000_000  # the most automaton rows' entries, read when they are built


class NotAdmissibleError(ValueError):
    """The relation set does not give a finite-dimensional quotient."""


class BasisCapExceeded(ValueError):
    """The basis has more than ``MAX_BASIS_PATHS`` paths."""


def reduce_relations(paths: Iterable[Path]) -> "RelationSet":
    """The reduced ``RelationSet`` of ``paths``; the package reduces through this name."""
    return RelationSet(tuple(paths))


@dataclass(frozen=True)
class RelationSet:
    """A reduced set of zero-relation paths (no word an infix of another).

    The constructor is the reduction: it rejects a short path, drops every
    path with another one's word as an infix, and keeps the rest sorted by
    ``Path.sort_key``.  The trie numbers node 0 for the empty word and a
    node for every other prefix of a relation, in order of ``depth``
    (length); ``children`` maps an arrow id to the node one arrow longer,
    ``fail`` gives each node's longest proper suffix among the nodes, and
    ``word_at`` the word of each leaf, a relation.  ``_quiver`` is None, or
    the quiver every generator was built from, set by ``_of``: a set is
    trusted only when ``qvfile.parse`` or the planner built it for that very
    quiver.
    """

    generators: tuple[Path, ...]

    def __post_init__(self):
        # dict.fromkeys keeps the given order, often sorted already, which
        # sorted() then only checks; set() would shuffle it
        ordered = sorted(dict.fromkeys(self.generators), key=Path.sort_key)
        if ordered and ordered[0].length < 2:  # the short paths sort first
            p = ordered[0]
            raise NotAdmissibleError(
                f"zero relation {p} has length {p.length}; relations must have length >= 2"
            )
        vars(self)["_quiver"] = None
        dropped, stray = self._number([p.word for p in ordered])
        if dropped:
            ordered = [p for i, p in enumerate(ordered) if i not in dropped]
            if stray:  # number the kept words again: no node of a dropped word stays
                self._number([p.word for p in ordered])
        object.__setattr__(self, "generators", tuple(ordered))

    def _number(self, words: list[tuple[str, ...]]) -> tuple[set[int], bool]:
        """Build the trie one depth at a time, so that a node's failure link,
        a shorter node, exists when the node is made.  ``out`` links a node to
        the deepest node on its failure chain, itself included, where a word
        ends; ``words`` come shortest first, so a word ends before a longer
        one passes.  A word stops at the first node where another one ends
        inside it, and its index is in the set returned.  The flag returned
        tells whether such a word made a node: a word keeps its place among
        the words at each depth, so one that made a node made every later
        node on its way, the one it stops at too.  Distinct paths of one
        quiver have distinct words (an arrow fixes its source), so a word
        that ends where the same word ended raises."""
        children: list[dict[str, int]] = [{}]
        depth, fail, out, word_at = [0], [0], [0], {}
        vars(self).update(children=children, depth=depth, fail=fail, word_at=word_at)
        dropped: set[int] = set()
        stray = False
        level = [(0, i, word) for i, word in enumerate(words)]
        d = 0
        while level:
            grown = []
            for node, i, word in level:
                aid = word[d]
                child = children[node].get(aid)
                made = child is None
                if made:
                    child = children[node][aid] = len(children)
                    back = fail[node]
                    while back and aid not in children[back]:
                        back = fail[back]
                    link = children[back].get(aid, 0) if node else 0
                    fail.append(link)
                    out.append(out[link])
                    children.append({})
                    depth.append(d + 1)
                if out[child]:  # a prefix, an infix, or the same word, ends here
                    if out[child] == child and d + 1 == len(word):
                        w = ".".join(word)
                        raise ValueError(f"relation set not reduced: {w} is an infix of {w}")
                    dropped.add(i)
                    stray |= made
                elif d + 1 < len(word):
                    grown.append((child, i, word))
                else:
                    word_at[child], out[child] = word, child
            level = grown
            d += 1
        return dropped, stray

    def _of(self, quiver: Quiver) -> "RelationSet":
        vars(self)["_quiver"] = quiver
        return self

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def words(self) -> tuple[tuple[str, ...], ...]:
        return tuple(g.word for g in self.generators)

    def walk(self, word: tuple[str, ...]) -> Iterator[int]:
        """The node after each arrow of ``word``, its longest suffix in the
        trie: a relation ends there iff it is a leaf, in ``word_at``."""
        children, fail = self.children, self.fail
        node = 0
        for aid in word:
            while node and aid not in children[node]:
                node = fail[node]
            node = children[node].get(aid, 0)
            yield node


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
        ids = frozenset(arrow_ids)
        bad = ids - {a.id for a in q.out_arrows(i)}  # out_arrows checks the vertex
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
    paths the first time a projective cover needs it.  ``syzygies`` is the
    oracle's memo of resolution steps, one table per prime, keyed by a
    digest of a representation's matrices (see ``oracle``).
    """

    def __init__(self, paths: list[Path]):
        self.paths = tuple(paths)
        by_source: dict[int, list[Path]] = {}
        for p in self.paths:  # the trivial paths come first, by source
            by_source.setdefault(p.source, []).append(p)
        self.by_source = {v: tuple(ps) for v, ps in by_source.items()}
        self.trees: dict[int, tuple] = {}
        self.syzygies: dict[int, dict[bytes, object]] = {}

    @cached_property
    def projective_vectors(self) -> dict[int, Counter[int]]:
        """Per vertex v, the composition vector of P(v): how many paths
        from v end at each vertex."""
        return {v: Counter(p.target for p in ps) for v, ps in self.by_source.items()}

    def __len__(self) -> int:
        return len(self.paths)


class Algebra:
    """kQ modulo a reduced monomial ideal, with cached basis and automaton.

    An automaton state is an int: the root -v of vertex v, or a trie node
    k > 0 that is not a relation.  It stands for the nonzero paths ending
    there whose longest suffix that is a proper prefix of a relation is
    node k's word (none, for a root).  ``transitions`` maps a state to its
    row, one int per out-arrow of its vertex in ``Quiver._out`` order: the
    next state, or the relation leaf the arrow completes, a trie node with
    no children.  ``vertex_of`` maps a state or leaf to its vertex.
    ``state_depths`` maps each leaf to -1, and the admissibility walk adds
    the longest path from each state, which it leaves for ``qh``.

    The chain graph of ``homology`` belongs to the algebra, so every
    simple, ``pdim``, ``resolve`` and cycle search shares it.  A chain
    node's successors depend only on the state its word reaches:
    ``successors`` memoises them per state, and ``depths`` holds the longest
    chain from each state a ``pdim`` walk has entered, ``math.inf`` for one
    that reaches a cycle.  Apart from these caches the algebra is immutable
    after construction, and safe to share between threads: every cache entry
    is deterministic, so a race only computes the same value twice.  The
    constructor checks that every relation is a path of ``quiver``, unless
    ``qvfile.parse`` or the planner built the set from this very quiver.
    Only ``verify``, ``oracle-check`` and ``render`` build ``basis``.
    """

    def __init__(self, quiver: Quiver, relations: RelationSet | Iterable[Path] = ()):
        self.quiver = quiver
        if not isinstance(relations, RelationSet):
            relations = reduce_relations(relations)
        if relations._quiver is not quiver:
            for g in relations:
                if not quiver.has_path(g):
                    raise ValueError(f"relation {g} is not a path of the quiver")
        self.relations = relations
        self.lmax = max(relations.depth)
        self.successors: dict[int, tuple[tuple[int, int, int], ...]] = {}
        self.depths: dict[int, int | float] = {}
        self.state_depths: dict[int, int | float] = dict.fromkeys(relations.word_at, -1)
        self._number_states()

    def _number_states(self) -> None:
        """Fill ``transitions`` and ``vertex_of`` in trie order: a node moves
        to its children, and elsewhere as its failure link (or its vertex's
        root) does, a shorter state already done.  Both end at the node's
        vertex, so a node's row is a copy of its link's row with its
        children put in at their arrows' columns.  A row holds an entry per
        out-arrow of its state's vertex, so the entries are counted first,
        and more than ``MAX_TRANSITIONS`` raise before any row is built."""
        children, fail = self.relations.children, self.relations.fail
        out, arrows = self.quiver._out, self.quiver.arrow_by_id
        rows, vertex = self.transitions, self.vertex_of = {}, {}
        for own in children:
            for aid, child in own.items():
                vertex[child] = arrows[aid].target
        inner = [node for node in range(1, len(children)) if children[node]]
        total = len(self.quiver.arrows) + sum(len(out[vertex[node]]) for node in inner)
        cap = MAX_TRANSITIONS
        if total > cap:
            raise ValueError(
                f"the automaton needs {total} transitions, more than {cap}; "
                "is the relation set too large for this quiver?"
            )
        first = children[0]
        for v in self.quiver.vertices():
            vertex[-v] = v
            rows[-v] = tuple(first.get(a.id) or -a.target for a in out[v])
        column = {a.id: i for row in out.values() for i, a in enumerate(row)}
        for node in inner:  # a leaf is a relation, not a state
            row = list(rows[fail[node] or -vertex[node]])
            for aid, child in children[node].items():
                row[column[aid]] = child
            rows[node] = tuple(row)

    # -- zero tests ---------------------------------------------------------

    def is_zero_word(self, word: tuple[str, ...]) -> bool:
        return any(node in self.relations.word_at for node in self.relations.walk(word))

    def is_zero_path(self, p: Path) -> bool:
        if not self.quiver.has_path(p):
            raise ValueError(f"{p} is not a path of this algebra's quiver")
        return self.is_zero_word(p.word)

    # Not called by the package; bench/tracing.py counts algebra.zero_tests through this name.
    def _kills_suffix(self, word: tuple[str, ...]) -> bool:
        """True if some generator is a suffix of ``word`` (new zero occurrence)."""
        return [0, *self.relations.walk(word)][-1] in self.relations.word_at

    def state_of(self, p: Path) -> int:
        """The state ``p`` reaches from the root of its source, read off the
        trie.  Raises ValueError unless ``p`` is a nonzero path of the quiver."""
        if not self.quiver.has_path(p):
            raise ValueError(f"{p} is not a path of this algebra's quiver")
        node = 0
        for node in self.relations.walk(p.word):
            if node in self.relations.word_at:
                raise ValueError(f"{p} is zero in the algebra")
        return node or -p.target

    # -- admissibility ------------------------------------------------------

    @cached_property
    def admissibility(self) -> Admissibility:
        return self._check_admissible()

    def _check_admissible(self) -> Admissibility:
        starts = [-v for v in self.quiver.vertices()]
        longest = self.state_depths  # filled once: ``admissibility`` is cached
        walk = find_cycle(starts, self.transitions.__getitem__, longest)
        if walk is None:
            return Admissibility(True, bound=1 + max((longest[s] for s in starts), default=0))
        witness = self._witness(walk)
        return Admissibility(
            False, witness_cycle=witness, reason=f"nonzero cycle {witness} never vanishes"
        )

    def _witness(self, walk: list[int]) -> Path:
        """The cycle ``walk`` closes, each step the first arrow from one state
        to the next, rotated to start where the same walk on windows (vertex
        and last lmax-1 arrows), which fix the state, would close it: at the
        first t whose window recurs at t + c along the walk's word followed
        by the cycle's periodic extension."""
        moves, out, vertex = self.transitions, self.quiver._out, self.vertex_of
        word = [out[vertex[s]][moves[s].index(after)].id for s, after in zip(walk, walk[1:])]
        p = walk.index(walk[-1])
        cycle, c, keep = word[p:], len(word) - p, max(self.lmax - 1, 0)
        ahead = word + cycle * (keep // c + 1)
        t = next(
            t for t in range(max(p, keep), p + keep + 1)
            if ahead[t - keep : t] == ahead[t + c - keep : t + c]
        )
        i = (t - p) % c
        start = vertex[walk[p + i]]
        return Path(start, start, tuple(cycle[i:] + cycle[:i]))

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
        """Grow the nonzero paths level by level from the generator words,
        not the trie: a path stays nonzero with an arrow appended unless the
        longer word ends with a generator.  The cap is checked before each
        path grows, so at most one path's out-arrows are built past it."""
        gens = set(self.relations.words())
        lengths = {len(w) for w in gens}
        out, cap = self.quiver._out, MAX_BASIS_PATHS
        level = [self.quiver.trivial_path(v) for v in self.quiver.vertices()]
        paths: list[Path] = []
        while level:
            level.sort(key=Path.sort_key)
            paths.extend(level)
            grown = []
            for source, target, word in level:
                if len(paths) + len(grown) > cap:
                    raise BasisCapExceeded(
                        f"more than {cap} nonzero paths; is the relation set admissible?"
                    )
                for a in out[target]:
                    w = word + (a.id,)
                    if not any(w[-k:] in gens for k in lengths):
                        grown.append(Path(source, a.target, w))
            level = grown
        return BasisIndex(paths)

    # -- truncated projectives ---------------------------------------------

    def check_module(self, spec: ModuleSpec) -> None:
        """Raise ValueError unless ``spec`` kills only out-arrows of its vertex,
        a vertex of the quiver, which ``out_arrows`` checks."""
        bad = spec.killed - {a.id for a in self.quiver.out_arrows(spec.vertex)}
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
