"""Weighted dual graphs of resolutions, rational cycles on them, and the
line-oriented text format they are stored in.

A vertex is a curve: ``exc`` (a complete exceptional curve, drawn as a
circle), ``cen`` (a distinguished complete central curve, drawn filled), or
``tra`` (a non-complete transversal germ, which carries no self-intersection
number). Edges carry positive integer multiplicities; graphs have no
self-loops. Every graph is checked once, where it comes from: ``parse``
checks text line by line and names the line, and ``DualGraph`` checks a
direct build; either way every self-intersection and multiplicity is an
``int`` (not a ``bool``), and the intersection matrices and solves built on
a graph trust that. Graphs are immutable after construction, so every
derived computation is pure: a graph keeps one {neighbour: multiplicity}
dict per vertex, in sorted-edge order, and hands out only copies of them
(``neighbors`` a tuple, the blow-down a ``dict.copy``).
"""

from __future__ import annotations

import re
from enum import Enum
from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linalg import SymMatrix, Value, _fraction, format_rational, rational


class GraphError(Exception):
    """Base class for graph construction and query errors."""


class DuplicateId(GraphError):
    pass


class UnknownVertex(GraphError):
    pass


class SelfIntOnTransversal(GraphError):
    pass


class TransversalInSubset(GraphError):
    pass


class BadToken(GraphError):
    """A graph name, vertex id or label that the text format cannot hold."""


class DslSyntaxError(GraphError):
    """A malformed line in the text format; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class VertexKind(Enum):
    EXCEPTIONAL = "exc"
    CENTRAL = "cen"
    TRANSVERSAL = "tra"


class Vertex(NamedTuple):
    id: str
    kind: VertexKind
    self_int: int | None
    label: str | None = None

    @property
    def complete(self) -> bool:
        return self.kind is not VertexKind.TRANSVERSAL


# a token holds no whitespace or "#"; an id, which cycle lines also hold, no "," or "="
_NAME_TOKEN, _ID_TOKEN = re.compile(r"[^\s#]+"), re.compile(r"[^\s#,=]+")


def _check_token(pattern: re.Pattern, what: str, token: str) -> None:
    if not isinstance(token, str) or not pattern.fullmatch(token):
        raise BadToken(f"{what} {token!r} cannot be written in the text format")


class DualGraph:
    """A weighted dual graph: named vertices plus a multiset of edges."""

    __slots__ = ("name", "vertices", "_by_id", "_edges", "_adjacency", "_blown")

    def __init__(
        self,
        name: str,
        vertices: Sequence[Vertex],
        edges: Mapping[tuple[str, str], int] | Iterable[tuple[str, str]],
    ):
        _check_token(_NAME_TOKEN, "graph name", name)
        by_id: dict[str, Vertex] = {}
        id_ok = _ID_TOKEN.fullmatch
        for v in vertices:
            vid = v.id
            if not (isinstance(vid, str) and id_ok(vid)):
                raise BadToken(f"vertex id {vid!r} cannot be written in the text format")
            if v.label is not None:
                _check_token(_NAME_TOKEN, "label", v.label)
            if vid in by_id:
                raise DuplicateId(f"duplicate vertex id {vid!r}")
            if v.kind is VertexKind.TRANSVERSAL:
                if v.self_int is not None:
                    raise SelfIntOnTransversal(
                        f"transversal vertex {vid!r} cannot carry a self-intersection"
                    )
            elif type(v.self_int) is not int:
                raise GraphError(
                    f"complete vertex {vid!r} needs an int self-intersection, not {v.self_int!r}"
                )
            by_id[vid] = v

        table: dict[tuple[str, str], int] = {}
        items = edges.items() if isinstance(edges, Mapping) else ((e, 1) for e in edges)
        for (a, b), mult in items:
            if a == b:
                raise GraphError(f"self-loop at {a!r}")
            if a not in by_id:
                raise UnknownVertex(f"edge endpoint {a!r} is not a vertex")
            if b not in by_id:
                raise UnknownVertex(f"edge endpoint {b!r} is not a vertex")
            if type(mult) is not int or mult <= 0:
                raise GraphError(f"edge multiplicity must be a positive int, not {mult!r}")
            key = (a, b) if a <= b else (b, a)
            table[key] = table.get(key, 0) + mult
        self._fill(name, by_id, table)

    @classmethod
    def _of_parts(
        cls, name: str, by_id: dict[str, Vertex], edges: dict[tuple[str, str], int]
    ) -> "DualGraph":
        """Build, unchecked, from parts that pass every check ``__init__``
        makes (the graph counterpart of ``SymMatrix._of_rows``): ``by_id``,
        kept as it is, maps each id in vertex order to its vertex, and
        ``edges`` maps each ``_edge_key`` of two distinct ids to their total
        multiplicity. ``parse`` and ``_from_view`` have checked their parts."""
        graph = cls.__new__(cls)
        graph._fill(name, by_id, edges)
        return graph

    def _fill(
        self, name: str, by_id: dict[str, Vertex], edges: dict[tuple[str, str], int]
    ) -> None:
        self.name, self.vertices, self._by_id = name, tuple(by_id.values()), by_id
        self._edges = edges = dict(sorted(edges.items()))
        self._adjacency = adjacency = {vid: {} for vid in by_id}
        for (a, b), mult in edges.items():
            adjacency[a][b] = adjacency[b][a] = mult
        self._blown = None  # (frozenset of ids, weight, nbrs, record) of the last _blow_down

    # -- queries ---------------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        try:
            return self._by_id[vid]
        except KeyError:
            raise UnknownVertex(f"no vertex {vid!r}") from None

    def ids(self) -> list[str]:
        return [v.id for v in self.vertices]

    def complete_ids(self) -> list[str]:
        # the checks give a self-intersection to exactly the complete vertices
        return [v.id for v in self.vertices if v.self_int is not None]

    def exceptional_ids(self) -> list[str]:
        exceptional = VertexKind.EXCEPTIONAL  # one lookup, not one per vertex
        return [v.id for v in self.vertices if v.kind is exceptional]

    def labeled(self, label: str) -> list[str]:
        return [v.id for v in self.vertices if v.label == label]

    def edges(self) -> dict[tuple[str, str], int]:
        return dict(self._edges)

    def neighbors(self, vid: str) -> tuple[tuple[str, int], ...]:
        """(neighbor id, edge multiplicity) pairs, in the order of ``edges``."""
        self.vertex(vid)
        return tuple(self._adjacency[vid].items())

    def components(self, subset: Iterable[str] | None = None) -> list[set[str]]:
        """Connected components of the subgraph induced on subset (all
        vertices by default), as sets of ids sorted by smallest member."""
        pool = set(self._by_id if subset is None else subset)
        if not pool <= self._by_id.keys():
            raise UnknownVertex(f"no vertex {min(pool - self._by_id.keys())!r}")
        comps: list[set[str]] = []
        while pool:
            # the smallest id left opens the next component, so the
            # components come out sorted by smallest member
            start = min(pool)
            pool.remove(start)
            comp = {start}
            frontier = [start]
            while frontier:
                for other in self._adjacency[frontier.pop()]:
                    if other in pool:
                        pool.remove(other)
                        comp.add(other)
                        frontier.append(other)
            comps.append(comp)
        return comps

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DualGraph)
            and self.name == other.name
            and self.vertices == other.vertices
            and self._edges == other._edges
        )

    def __repr__(self) -> str:
        return f"DualGraph({self.name!r}, {list(self.vertices)!r}, {self._edges!r})"

    # -- intersection theory ---------------------------------------------

    def intersection_matrix(self, subset: Sequence[str] | None = None) -> tuple[SymMatrix, list[str]]:
        """The intersection form on a subset of complete vertices: diagonal
        entries are self-intersections, off-diagonal entries the total edge
        multiplicities. Returns the matrix plus the vertex order used; the
        cost is linear in the subset size plus its edges."""
        order = list(self.complete_ids() if subset is None else subset)
        by_id, weight = self._by_id, {}
        for vid in order:
            v = by_id.get(vid)
            if v is None:
                raise UnknownVertex(f"no vertex {vid!r}")
            if (w := v.self_int) is None:
                raise TransversalInSubset(f"{vid!r} is transversal")
            weight[vid] = w
        if len(weight) != len(order):
            raise GraphError("subset contains repeated ids")
        return _view_form(weight, self._adjacency)

    def _int_view(self, ids: Iterable[str]) -> tuple[dict, dict[str, dict[str, int]]]:
        """Mutable plain copies of the self-intersections of the given
        vertices and of their {neighbour: multiplicity} maps among them."""
        try:
            weight = {vid: self._by_id[vid].self_int for vid in ids}
        except KeyError as exc:  # the first unknown id, in the order given
            raise UnknownVertex(f"no vertex {exc.args[0]!r}") from None
        adjacency = self._adjacency
        if len(weight) == len(adjacency):  # the whole graph: nothing to filter
            return weight, {vid: adjacency[vid].copy() for vid in weight}
        nbrs = {vid: {w: m for w, m in adjacency[vid].items() if w in weight} for vid in weight}
        return weight, nbrs

    def _blow_down(self, ids: Sequence[str]) -> tuple[dict, dict, list]:
        """Blow down the complete (-1)-curves of ``_int_view(ids)``, smallest
        id first: the view left, and the record of (curve, [(neighbour,
        multiplicity), ...]) per step. The graph keeps the last one, by set of
        ids, and shares it read-only, in the dict order of the call that built it.

        A step, O(deg^2 + log c) for c current (-1)-curves, raises each
        complete neighbour by m^2 and joins each pair by m_a m_b: the Schur
        complement of a -1 pivot, so the complete form keeps its kind and
        corank and loses a negative square (Artin 1962). Replaying the
        record carries a right-hand side b of M x = b (a step on E adds
        m_a b_E to each b_a); ``_pull_back`` then gives x_E = sum m_a x_a - b_E.
        The (-1)-curves wait in one heap; a weight only grows, so a curve
        raised off -1 leaves for good, and its entry is skipped when it comes up.
        """
        key = frozenset(ids)
        if self._blown is not None and self._blown[0] == key:
            return self._blown[1:]
        weight, nbrs = self._int_view(ids)
        minus = [vid for vid, w in weight.items() if w == -1]
        heapify(minus)
        record = []
        while minus:
            vid = heappop(minus)
            if weight[vid] != -1:  # raised since it was pushed
                continue
            del weight[vid]
            incident = list(nbrs.pop(vid).items())
            record.append((vid, incident))
            for i, (a, ma) in enumerate(incident):
                del nbrs[a][vid]
                w = weight[a]
                if w is not None:  # a transversal germ has no weight to raise
                    weight[a] = w = w + ma * ma
                    if w == -1:
                        heappush(minus, a)
                for b, mb in incident[i + 1:]:
                    nbrs[a][b] = nbrs[b][a] = nbrs[a].get(b, 0) + ma * mb
        self._blown = key, weight, nbrs, record
        return weight, nbrs, record

    def _from_view(self, weight: dict, nbrs: dict[str, dict[str, int]]) -> "DualGraph":
        """The graph of a view that ``_blow_down`` left: the vertices still in
        it, with their weights there, and its edges. A blow-down keeps every
        weight an int and every multiplicity a positive int, so the parts
        pass the checks of ``__init__`` and are built unchecked."""
        by_id = {
            vid: Vertex(vid, v.kind, weight[vid], v.label)
            for vid, v in self._by_id.items()
            if vid in weight
        }
        edges = {(a, b): m for a, row in nbrs.items() for b, m in row.items() if a < b}
        return DualGraph._of_parts(self.name, by_id, edges)


def _view_parts(weight: dict, nbrs: dict, record: list, complete: bool = False) -> int:
    """How many connected components the curves of a blown-down view came in
    (with ``complete``, its complete curves, by the edges among them). A step
    joins the neighbours of its curve pairwise, so it closes a component only
    when no neighbour counts; the view holds the rest."""
    skip = {vid for vid, w in weight.items() if w is None} if complete else ()
    parts = 0
    for _, incident in record:
        for a, _ in incident:
            if a not in skip:
                break
        else:
            parts += 1
    pool = set(weight).difference(skip)
    while pool:
        parts += 1
        frontier = {pool.pop()}
        while frontier:
            frontier = {b for a in frontier for b in nbrs[a] if b in pool}
            pool -= frontier
    return parts


def _view_form(weight: dict, nbrs: dict[str, dict[str, int]]) -> tuple[SymMatrix, list[str]]:
    """The intersection form of the curves of ``weight``, in its order, with
    the multiplicities in ``nbrs`` between them (others are skipped, so a
    graph's adjacency serves too). A graph's checks made every entry an int
    and the adjacency symmetric, and a blow-down keeps both, so the rows need
    none of the checks of ``from_sparse``. Of the transversal germs in
    ``weight``, the smallest id is named, whichever order it was built in."""
    order = list(weight)
    index = {vid: i for i, vid in enumerate(order)}
    rows = []
    for i, vid in enumerate(order):
        if (w := weight[vid]) is None:
            germ = min(v for v in order if weight[v] is None)
            raise TransversalInSubset(f"{germ!r} is transversal")
        row = {index[b]: m for b, m in nbrs[vid].items() if b in index}
        if w:
            row[i] = w
        rows.append(row)
    return SymMatrix._of_rows(tuple(rows)), order


def _pull_back(record: list, coeffs: dict, rhs: Mapping | None = None) -> dict:
    """Extend a cycle on the residual of ``DualGraph._blow_down`` to its
    total transform, last step first: a contracted curve E gets the sum of
    m_a z_a over the curves it met, less rhs[E] for the right-hand side
    carried forwards through the steps. Transversal germs count as zero."""
    for vid, incident in reversed(record):
        z = 0 if rhs is None else -rhs[vid]
        for a, m in incident:  # a loop, not sum(): most curves meet one or two
            z += m * coeffs.get(a, 0)
        coeffs[vid] = z
    return coeffs


_ZERO = Fraction(0)  # shared: a Fraction is immutable


class Cycle(Value):
    """A formal rational combination of vertices; ids absent from the map
    have coefficient zero. The map keeps the nonzero coefficients only,
    sorted by id, so that its repr depends on the value alone; the private
    ``_named`` keeps every id given, in order, so that a cycle read as a map
    of pinned values keeps a pin of 0, and ``serialize`` writes it."""

    __slots__ = ("coefficients", "_named")

    def __init__(self, coefficients: Mapping[str, Fraction] | None = None):
        given = coefficients or {}
        clean = {}
        for k in sorted(given):
            if type(q := given[k]) is int:  # most cycles are of ints: no call to rational
                if q:
                    clean[k] = _fraction(q, 1)
            elif q := (q if type(q) is Fraction else rational(q)):  # a solve's: no call
                clean[k] = q
        object.__setattr__(self, "coefficients", clean)
        object.__setattr__(self, "_named", tuple(given))

    def coeff(self, vid: str) -> Fraction:
        return self.coefficients.get(vid, _ZERO)

    def __add__(self, other: "Cycle") -> "Cycle":
        merged = dict(self.coefficients)
        for k, v in other.coefficients.items():
            merged[k] = merged.get(k, _ZERO) + v
        return Cycle(merged)

    def render(self) -> str:
        return ", ".join(f"{k}={format_rational(v)}" for k, v in sorted(self.coefficients.items()))


def cycle_dot(g: DualGraph, z: Cycle, vid: str) -> Fraction:
    """The intersection number of the cycle with the curve at ``vid``:
    coefficient times self-intersection plus edge-weighted neighbor
    coefficients. The vertex must be complete."""
    v = g.vertex(vid)
    if not v.complete:
        raise TransversalInSubset(f"{vid!r} is transversal")
    total = z.coeff(vid) * v.self_int
    for other, mult in g.neighbors(vid):
        total += mult * z.coeff(other)
    return total


# -- text format -----------------------------------------------------------


class ParseResult(NamedTuple):
    graph: DualGraph
    cycles: dict[str, Cycle]
    expects: list[tuple[str, str, int]]  # (key, value, line number), as written


_KINDS = {k.value: k for k in VertexKind}


def parse(text: str) -> ParseResult:
    """Parse the line-oriented graph format.

    Grammar (one directive per line, ``#`` starts a comment)::

        graph <name>
        v <id> [<self_int> | ~] [exc|cen|tra] [label=<string>]
        e <id> <id> [m=<positive int>]
        cycle <name>: <id>=<rational>, ...
        expect <key> = <value>

    An omitted self-intersection means -2; ``~`` marks a transversal vertex,
    which has none. Kind defaults to ``exc``; integers are ASCII digits.
    """
    name: str | None = None
    by_id: dict[str, Vertex] = {}
    edges: dict[tuple[str, str], int] = {}
    cycles: dict[str, Cycle] = {}
    expects: list[tuple[str, str, int]] = []
    exceptional, transversal = VertexKind.EXCEPTIONAL, VertexKind.TRANSVERSAL

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.partition("#")[0]
        parts = line.split()
        if not parts:
            continue
        directive, n = parts[0], len(parts)

        if directive == "v":
            if n < 2:
                raise DslSyntaxError(lineno, "expected: v <id> ...")
            vid = parts[1]
            if vid in by_id:
                raise DuplicateId(f"line {lineno}: duplicate vertex id {vid!r}")
            self_int, i = -2, 2
            transversal_marker = explicit_weight = False
            if n > 2:
                token = parts[2]
                if token == "~":
                    transversal_marker, self_int, i = True, None, 3
                elif (token[1:] if token[0] in "+-" else token).isdigit():
                    try:  # isdigit and int take any Unicode digit; the format, ASCII only
                        if not token.isascii():
                            raise ValueError
                        self_int = int(token)
                    except ValueError:  # or more digits than int reads
                        raise DslSyntaxError(lineno, f"bad self-intersection: {token!r}") from None
                    explicit_weight, i = True, 3
            kind = exceptional
            if i < n and parts[i] in _KINDS:
                kind, i = _KINDS[parts[i]], i + 1
            elif transversal_marker:
                kind = transversal
            label = None
            if i < n and parts[i].startswith("label="):
                label, i = parts[i][6:], i + 1
            if i < n:
                raise DslSyntaxError(lineno, f"trailing tokens: {' '.join(parts[i:])!r}")
            if transversal_marker and kind is not transversal:
                raise DslSyntaxError(lineno, "~ marks a transversal vertex")
            if kind is transversal:
                if explicit_weight:
                    raise SelfIntOnTransversal(
                        f"line {lineno}: transversal {vid!r} cannot carry a self-intersection"
                    )
                self_int = None
            elif self_int > -1:  # a complete vertex has an int here
                raise DslSyntaxError(
                    lineno, f"complete vertex {vid!r} needs self-intersection <= -1"
                )
            # ``DualGraph`` checks these too, without a line to name. The
            # split and the "#" cut leave no whitespace or "#" in a token,
            # so of what its id pattern rejects only "," and "=" can be left;
            # and a label can be empty
            if "," in vid or "=" in vid:
                raise BadToken(
                    f"line {lineno}: vertex id {vid!r} cannot be written in the text format"
                )
            if label == "":
                raise BadToken(f"line {lineno}: label '' cannot be written in the text format")
            by_id[vid] = tuple.__new__(Vertex, (vid, kind, self_int, label))

        elif directive == "e":
            if n != 3 and n != 4:
                raise DslSyntaxError(lineno, "expected: e <id> <id> [m=<mult>]")
            a, b, mult = parts[1], parts[2], 1
            if n == 4:
                if not parts[3].startswith("m="):
                    raise DslSyntaxError(lineno, f"bad edge option {parts[3]!r}")
                token = parts[3][2:]
                try:  # as for a self-intersection
                    if not (token.isascii() and token.lstrip("+-").isdigit()):
                        raise ValueError
                    mult = int(token)
                except ValueError:
                    raise DslSyntaxError(lineno, f"bad edge multiplicity: {token!r}") from None
                if mult <= 0:
                    raise DslSyntaxError(lineno, "edge multiplicity must be positive")
            if a not in by_id:
                raise UnknownVertex(f"line {lineno}: unknown vertex {a!r} in edge")
            if b not in by_id:
                raise UnknownVertex(f"line {lineno}: unknown vertex {b!r} in edge")
            if a == b:
                raise DslSyntaxError(lineno, "self-loops are not allowed")
            key = (a, b) if a <= b else (b, a)
            edges[key] = edges.get(key, 0) + mult

        elif directive == "graph":
            if name is not None:
                raise DslSyntaxError(lineno, "second graph directive")
            if n != 2:
                raise DslSyntaxError(lineno, "expected: graph <name>")
            name = parts[1]

        elif directive == "cycle":
            body = line.strip()[len("cycle"):].strip()
            if ":" not in body:
                raise DslSyntaxError(lineno, "expected: cycle <name>: id=value, ...")
            cname, assigns = body.split(":", 1)
            cname = cname.strip()
            if not cname:
                raise DslSyntaxError(lineno, "cycle needs a name")
            if cname in cycles:
                raise DslSyntaxError(lineno, f"duplicate cycle {cname!r}")
            coeffs: dict[str, Fraction] = {}
            for piece in assigns.split(","):
                piece = piece.strip()
                if not piece:
                    continue
                if "=" not in piece:
                    raise DslSyntaxError(lineno, f"bad coefficient {piece!r}")
                vid, value = (x.strip() for x in piece.split("=", 1))
                if vid not in by_id:
                    raise UnknownVertex(f"line {lineno}: unknown vertex {vid!r} in cycle")
                if vid in coeffs:
                    raise DslSyntaxError(lineno, f"repeated vertex {vid!r} in cycle {cname!r}")
                try:
                    coeffs[vid] = rational(value)
                except (ValueError, ZeroDivisionError):
                    raise DslSyntaxError(lineno, f"bad rational {value!r}") from None
            cycles[cname] = Cycle(coeffs)

        elif directive == "expect":
            body = line.strip()[len("expect"):].strip()
            if "=" not in body:
                raise DslSyntaxError(lineno, "expected: expect <key> = <value>")
            key, value = (x.strip() for x in body.split("=", 1))
            if not key:
                raise DslSyntaxError(lineno, "expect needs a key")
            expects.append((key, value, lineno))

        else:
            raise DslSyntaxError(lineno, f"unknown directive {directive!r}")

    if name is None:
        raise DslSyntaxError(1, "missing graph directive")
    # the lines above made every check of DualGraph, each naming its line
    return ParseResult(DualGraph._of_parts(name, by_id, edges), cycles, expects)


def serialize(
    g: DualGraph,
    cycles: Mapping[str, Cycle] | None = None,
    expects: Sequence[tuple[str, str]] | None = None,
) -> str:
    """Render a graph (plus optional cycles and expectations) in the text
    format: vertices in input order, edges sorted lexicographically, cycles
    sorted by name, each with every id it was given (a 0 too) in vertex
    order. parse(serialize(...)) reproduces the same graph.

    The format holds a complete curve of self-intersection -1 or less only
    (``parse`` rejects any other), so a graph with one, a fiber residual
    say, raises GraphError.
    """
    out = [f"graph {g.name}"]
    for v in g.vertices:
        bits = ["v", v.id]
        if v.kind is VertexKind.TRANSVERSAL:
            bits.append("~")
            bits.append("tra")
        elif v.self_int > -1:
            raise GraphError(
                f"complete vertex {v.id!r} has self-intersection {v.self_int}, "
                "which the text format cannot hold"
            )
        else:
            bits.append(str(v.self_int))
            if v.kind is VertexKind.CENTRAL:
                bits.append("cen")
        if v.label is not None:
            bits.append(f"label={v.label}")
        out.append(" ".join(bits))
    for (a, b), mult in sorted(g.edges().items()):
        out.append(f"e {a} {b}" + (f" m={mult}" if mult != 1 else ""))
    order = {vid: i for i, vid in enumerate(g.ids())}
    for cname in sorted(cycles or {}):
        z = (cycles or {})[cname]
        body = ", ".join(
            f"{vid}={format_rational(z.coeff(vid))}"
            for vid in sorted(z._named, key=lambda x: order[x])
        )
        out.append(f"cycle {cname}: {body}")
    for key, value in expects or []:
        out.append(f"expect {key} = {value}")
    return "\n".join(out) + "\n"
