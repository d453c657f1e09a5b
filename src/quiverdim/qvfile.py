"""The QV1 text format for quivers with optional zero relations.

Line-oriented::

    quiver 3
    arrow a 1 2
    arrow b 2 3
    relations
    rel a b

A line ends at ``\n``, ``\r\n`` or ``\r``; ``#`` starts a comment and blank
lines are ignored.  Fields are separated by ASCII spaces and tabs only.
``rel`` lines list arrow ids in traversal order (first arrow first); the
emitter also writes the reversed, composition-order string in a trailing
comment, the order algebra texts usually print.

``parse`` checks each arrow and relation once, on its line, so an error
names the first bad line; neither the ``Quiver`` nor the ``Algebra`` built
from its result checks them again.
Numbers are ASCII digits, and a quiver has at most ``MAX_VERTICES``
vertices.

``parse`` tests a line's directive in the order of how often it occurs:
``rel``, ``arrow``, then ``quiver`` and ``relations``, which come once.
Each check is the same whatever the order, so the first bad line and its
message are too.  A line pays for dropping empty fields only when it has
one, and an endpoint's width is compared against the vertex count's,
taken once on the ``quiver`` line.
"""

from __future__ import annotations

import hashlib
import re

from .algebra import RelationSet, reduce_relations
from .quiver import _ID_RE, Arrow, Path, Quiver

MAX_VERTICES = 100_000
_DIGITS = re.compile(r"[0-9]+\Z")  # int() would also take "+1", "1_0" and other scripts' digits
_INTEGER = re.compile(r"-?[0-9]+\Z")  # an endpoint; a negative one is refused as out of range


class QvParseError(ValueError):
    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def parse(text: str) -> tuple[Quiver, RelationSet]:
    n = width = None
    by_id: dict[str, Arrow] = {}
    paths: list[Path] = []
    in_relations = False
    new = tuple.__new__  # Arrow and Path values, without their Python-level __new__
    arrow_of = by_id.__getitem__
    # not splitlines(), which also ends a line at \x0c, \x85, U+2028 and more
    lines = text.replace("\r\n", "\n").replace("\r", "\n").replace("\t", " ").split("\n")
    for line_no, raw in enumerate(lines, start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        # tabs are spaces by now; not split(), which also separates at \x0b,
        # \xa0, U+3000 and more
        fields = raw.split(" ")
        if "" in fields:
            fields = [f for f in fields if f]
            if not fields:
                continue
        directive = fields[0]
        if directive == "rel":
            if not in_relations:
                raise QvParseError(line_no, "'rel' before 'relations'")
            if len(fields) < 2:
                raise QvParseError(line_no, "empty relation")
            word = tuple(fields[1:])
            try:  # one lookup per arrow; an unknown id is reported before a break
                walk = list(map(arrow_of, word))
            except KeyError as exc:
                message = f"unknown arrow id {exc.args[0]!r} in relation"
                raise QvParseError(line_no, message) from None
            _, start, at = walk[0]
            for bid, source, target in walk[1:]:
                if at != source:  # the message of Quiver.path's CompositionError
                    raise QvParseError(line_no, f"relation does not compose: word {word} "
                                       f"breaks at {bid!r}: expected source {at}, "
                                       f"got {source}")
                at = target
            if len(word) < 2:
                raise QvParseError(line_no, "relations must have length >= 2")
            paths.append(new(Path, (start, at, word)))
        elif directive == "arrow":
            if n is None:
                raise QvParseError(line_no, "'arrow' before 'quiver'")
            if in_relations:
                raise QvParseError(line_no, "'arrow' after 'relations'")
            if len(fields) != 4:
                raise QvParseError(line_no, "expected: arrow <id> <source> <target>")
            _, aid, source, target = fields
            if not _ID_RE.match(aid):  # the message of Quiver's own check
                raise QvParseError(line_no, f"arrow id {aid!r} is not an ASCII word")
            if aid in by_id:
                raise QvParseError(line_no, f"duplicate arrow id {aid!r}")
            if not (_INTEGER.match(source) and _INTEGER.match(target)):
                raise QvParseError(line_no, "arrow endpoints must be integers")
            source, target = source.lstrip("0") or "0", target.lstrip("0") or "0"
            if len(source) > width or len(target) > width:
                raise QvParseError(line_no, f"endpoint outside 1..{n}")
            s, t = int(source), int(target)
            if not (1 <= s <= n and 1 <= t <= n):
                raise QvParseError(line_no, f"endpoint outside 1..{n}")
            by_id[aid] = new(Arrow, (aid, s, t))
        elif directive == "quiver":
            if n is not None:
                raise QvParseError(line_no, "duplicate 'quiver' directive")
            if len(fields) != 2 or not _DIGITS.match(fields[1]):
                raise QvParseError(line_no, "expected: quiver <vertex count>")
            # numbers are compared by their significant digits first, as
            # int() refuses a string of more than 4,300 digits
            digits = fields[1].lstrip("0") or "0"
            if len(digits) > len(str(MAX_VERTICES)) or int(digits) > MAX_VERTICES:
                raise QvParseError(line_no, f"more than {MAX_VERTICES} vertices")
            n = int(digits)
            width = len(str(n))  # the most significant digits an endpoint may have
        elif directive == "relations":
            if n is None:
                raise QvParseError(line_no, "'relations' before 'quiver'")
            if in_relations:
                raise QvParseError(line_no, "duplicate 'relations' directive")
            in_relations = True
        else:
            raise QvParseError(line_no, f"unknown directive {directive!r}")
    if n is None:
        raise QvParseError(1, "missing 'quiver' directive")
    quiver = Quiver._checked(n, by_id)
    return quiver, reduce_relations(paths)._of(quiver)


def emit(quiver: Quiver, relations: RelationSet = RelationSet(())) -> str:
    lines = [f"quiver {quiver.n}"]
    for a in quiver.arrows:
        lines.append(f"arrow {a.id} {a.source} {a.target}")
    if len(relations):
        lines.append("relations")
        lines.append("# rel words are in traversal order (first-traversed first)")
        for g in relations:
            composition = "".join(reversed(g.word))
            lines.append(f"rel {' '.join(g.word)}  # composition order: {composition}")
    return "\n".join(lines) + "\n"


def load(path: str) -> tuple[Quiver, RelationSet, str]:
    """Parse a file; returns (quiver, relations, sha256 content hash)."""
    with open(path, "rb") as fh:
        data = fh.read()
    digest = hashlib.sha256(data).hexdigest()
    quiver, relations = parse(data.decode("utf-8"))
    return quiver, relations, digest
