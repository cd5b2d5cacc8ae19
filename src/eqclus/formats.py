"""Plain-text file formats: instances, clusterings, hypergraphs, 3DM systems.

All formats are UTF-8 and whitespace-separated with a literal header token.

  instance:    ECL 1        then  p d n k B  and n lines of d integers
  clustering:  ASSIGN 1 n k then  n lines, line i = cluster of the i-th point
  hypergraph:  RSM r n m    then  m lines of r vertex indices (1-based)
  3DM system:  TDM n m      then  m lines x y z (1-based per side)

A clustering file holds no ids: it is read and written against the ids of the
points it clusters (an instance's, or a generic kernel's), and line i is the
cluster of the i-th of them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from .core import Clustering, Instance, make_instance

if TYPE_CHECKING:  # generators is imported where it is used: it pulls in dataclasses
    from .generators import Hypergraph, TdmInstance


class FormatError(ValueError):
    """Input text does not match the expected file format."""


class _Tokens:
    def __init__(self, text: str, what: str):
        self.items = text.split()
        self.pos = 0
        self.what = what

    def next(self) -> str:
        if self.pos >= len(self.items):
            raise FormatError(f"{self.what}: unexpected end of input")
        tok = self.items[self.pos]
        self.pos += 1
        return tok

    def next_int(self) -> int:
        tok = self.next()
        try:
            return int(tok)
        except ValueError:
            raise FormatError(f"{self.what}: expected integer, got {tok!r}") from None

    def ints(self, count: int) -> list[int]:
        """The next `count` integers, converted in one pass."""
        end = self.pos + count
        try:
            values = list(map(int, self.items[self.pos:end]))
        except ValueError:
            values = []
        if len(values) != count:  # redo token by token for next_int's error message
            return [self.next_int() for _ in range(count)]
        self.pos = end
        return values

    def expect(self, literal: str) -> None:
        tok = self.next()
        if tok != literal:
            raise FormatError(f"{self.what}: expected {literal!r}, got {tok!r}")

    def done(self) -> None:
        if self.pos != len(self.items):
            raise FormatError(f"{self.what}: trailing data from token {self.items[self.pos]!r}")


def parse_instance(text: str) -> Instance:
    t = _Tokens(text, "instance")
    t.expect("ECL")
    t.expect("1")
    p, d, n, k, B = (t.next_int() for _ in range(5))
    if d < 1 or n < 0:
        raise FormatError("instance: bad header dimensions")
    body = t.ints(n * d)
    t.done()
    rows = [body[i:i + d] for i in range(0, n * d, d)]
    return make_instance(rows, p=p, k=k, B=B)


def format_instance(inst: Instance) -> str:
    lines = ["ECL 1", f"{inst.p} {inst.dim} {inst.n} {inst.k} {inst.B}"]
    lines.extend(" ".join(str(c) for c in pt.coords) for pt in inst.points)
    return "\n".join(lines) + "\n"


def parse_clustering(text: str, ids: Sequence[int]) -> Clustering:
    t = _Tokens(text, "clustering")
    t.expect("ASSIGN")
    t.expect("1")
    n = t.next_int()
    k = t.next_int()
    if n < 0 or k < 1:
        raise FormatError("clustering: bad header")
    if n != len(ids):
        raise FormatError(f"clustering: {n} entries for {len(ids)} points")
    assignment = {}
    for pid in ids:
        idx = t.next_int()
        if not 1 <= idx <= k:
            raise FormatError(f"clustering: index {idx} out of range 1..{k}")
        assignment[pid] = idx
    t.done()
    return Clustering(assignment, k)


def format_clustering(c: Clustering, ids: Sequence[int]) -> str:
    lines = [f"ASSIGN 1 {len(ids)} {c.k}"]
    lines.extend(str(c.assignment[pid]) for pid in ids)
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> Hypergraph:
    t = _Tokens(text, "hypergraph")
    t.expect("RSM")
    r = t.next_int()
    n = t.next_int()
    m = t.next_int()
    if r < 3:  # before the edges: with r <= 0 no edge reads a token, so m alone sizes the list
        raise FormatError("hypergraph: uniformity r must be >= 3")
    edges = [tuple(t.next_int() for _ in range(r)) for _ in range(m)]
    t.done()
    from .generators import Hypergraph

    try:
        return Hypergraph(r, n, tuple(edges))
    except ValueError as exc:
        raise FormatError(f"hypergraph: {exc}") from None


def parse_tdm(text: str) -> TdmInstance:
    t = _Tokens(text, "3DM system")
    t.expect("TDM")
    n = t.next_int()
    m = t.next_int()
    triples = [(t.next_int(), t.next_int(), t.next_int()) for _ in range(m)]
    t.done()
    from .generators import TdmInstance

    try:
        return TdmInstance(n, tuple(triples))
    except ValueError as exc:
        raise FormatError(f"3DM system: {exc}") from None


def parse_matching(text: str) -> list[int]:
    """Whitespace-separated 1-based edge/triple indices."""
    t = _Tokens(text, "matching")
    out = []
    while t.pos < len(t.items):
        out.append(t.next_int())
    return out
