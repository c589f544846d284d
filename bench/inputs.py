"""Seeded inputs for the benchmark workloads.

Every generator lives here, in the benchmark's own code, so that edits to
the test suite or the library cannot shift a workload. The program under test
only ever sees the `.dg` text built below; the structured fields next to it
are what the oracles check the program's answers against.

The same seed always gives the same inputs (string seeds are hashed with
SHA-512 by ``random.Random``, independent of ``PYTHONHASHSEED``).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from pathlib import Path

TREE_WEIGHTS = (-2, -3, -4, -5)
# The number of leaves pinned to their free codiscrepancy in each tree op.
TREE_PINS = 3


def size_ladder(lo: int, hi: int) -> list[int]:
    """Every size in [lo, hi] once, in an order whose prefixes stay spread
    over the whole range (bit-reversed index), so a pass cut short by the
    clock still samples small and large inputs alike."""
    sizes = list(range(lo, hi + 1))
    bits = max(1, (len(sizes) - 1).bit_length())
    order = sorted(range(len(sizes)), key=lambda i: int(f"{i:0{bits}b}"[::-1], 2))
    return [sizes[i] for i in order]


# -- tree-codisc ------------------------------------------------------------


@dataclass(frozen=True)
class TreeCase:
    """A random tree of exceptional curves n0..n{n-1} plus a transversal
    germ ``t`` meeting ``n{attach}``; the file carries the cycle ``s: t=1``."""

    text: str
    weights: tuple[int, ...]
    parent: tuple[int, ...]  # parent[i] < i for i >= 1; parent[0] == -1
    attach: int
    pins: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.weights)

    def neighbors(self) -> list[list[int]]:
        nbrs: list[list[int]] = [[] for _ in self.weights]
        for i, p in enumerate(self.parent):
            if p >= 0:
                nbrs[i].append(p)
                nbrs[p].append(i)
        return nbrs


def tree_det(weights, parent, removed=frozenset()) -> int:
    """Determinant of the intersection form of a forest given by parent
    pointers (parent[i] < i), over the vertices not in ``removed``.

    Integer dynamic programming over subtrees, independent of the library's
    rational elimination: for a subtree rooted at v with children c,
    det = w_v * prod det(c) - sum_c det(c minus its root) * prod_{c' != c} det(c').
    """
    n = len(weights)
    prod = [1] * n  # product of the children's subtree determinants
    cross = [0] * n  # sum over children of det(child minus root) * other products
    det = [0] * n
    total = 1
    for v in range(n - 1, -1, -1):
        if v in removed:
            continue
        det[v] = weights[v] * prod[v] - cross[v]
        p = parent[v]
        if p < 0 or p in removed:
            total *= det[v]
        else:
            cross[p] = cross[p] * det[v] + prod[p] * prod[v]
            prod[p] *= det[v]
    return total


def tree_case(rng: random.Random, n: int) -> TreeCase:
    """Draw trees of size n until one passes the screen: at least three
    leaves, and both the full form and the form with the pinned leaves
    removed are invertible, so every solve in the op has a unique answer."""
    while True:
        # Same distribution as tests/util.random_tree_graph: vertex i hangs
        # off a uniformly chosen earlier vertex, weights uniform.
        weights = tuple(rng.choice(TREE_WEIGHTS) for _ in range(n))
        parent = (-1,) + tuple(rng.randrange(i) for i in range(1, n))
        degree = [0] * n
        for i in range(1, n):
            degree[i] += 1
            degree[parent[i]] += 1
        leaves = [i for i in range(n) if degree[i] == 1]
        if len(leaves) < TREE_PINS:
            continue
        pins = tuple(sorted(rng.sample(leaves, TREE_PINS)))
        if tree_det(weights, parent) == 0:
            continue
        if tree_det(weights, parent, frozenset(pins)) == 0:
            continue
        attach = rng.randrange(n)
        lines = [f"graph tree{n}"]
        lines += [f"v n{i} {w}" for i, w in enumerate(weights)]
        lines.append("v t ~")
        lines += [f"e n{parent[i]} n{i}" for i in range(1, n)]
        lines.append(f"e n{attach} t")
        lines.append("cycle s: t=1")
        text = "\n".join(lines) + "\n"
        return TreeCase(text, weights, parent, attach, pins)


def tree_passes(seed: int, lo: int, hi: int, passes: int) -> list[list[TreeCase]]:
    """``passes`` blocks of distinct trees, each block holding one tree of
    every size in [lo, hi]."""
    rng = random.Random(f"tree-codisc:{seed}")
    ladder = size_ladder(lo, hi)
    return [[tree_case(rng, n) for n in ladder] for _ in range(passes)]


# -- blowup-classify --------------------------------------------------------


def _ade_base(family: str, rank: int):
    """Vertices b1..br, edges, and the fundamental cycle (highest root) of
    the all-(-2) graph of type A_r, D_r or E_r."""
    ids = [f"b{i}" for i in range(1, rank + 1)]
    if family == "A":
        edges = list(zip(ids, ids[1:]))
        z = [1] * rank
    elif family == "D":
        # chain b1..b(r-1), with br hanging off b(r-2)
        edges = list(zip(ids[:-1], ids[1:-1])) + [(ids[rank - 3], ids[-1])]
        z = [1] + [2] * (rank - 3) + [1, 1]
    else:
        # chain b1..b(r-1), with br hanging off b3
        edges = list(zip(ids[:-1], ids[1:-1])) + [(ids[2], ids[-1])]
        z = {6: [1, 2, 3, 2, 1, 2], 7: [2, 3, 4, 3, 2, 1, 2], 8: [2, 4, 6, 5, 4, 3, 2, 3]}[rank]
    return ids, edges, dict(zip(ids, z))


@dataclass(frozen=True)
class BlowupCase:
    """A configuration made by k point blow-ups over a base.

    ``kind`` is ``smooth`` (blow-ups of a smooth point), ``duval`` (of the
    minimal resolution of ``ade``), or ``fiber`` (of a ruling fiber, a single
    0-curve). ``disc`` holds each curve's discrepancy a(E) over the base
    (not used for fibers) and ``mult`` the multiplicities of the total
    transform: of the maximal ideal (the fundamental cycle) for smooth and
    Du Val bases, of the fiber for fiber bases."""

    text: str
    kind: str
    ade: tuple[str, int] | None
    k: int
    self_int: dict
    edges: frozenset
    disc: dict
    mult: dict

    @property
    def n(self) -> int:
        return len(self.self_int)


BLOWUP_BASES = ("smooth", "A", "D", "E", "fiber")
ADE_RANKS = {"A": (1, 12), "D": (4, 12), "E": (6, 8)}


def blowup_case(rng: random.Random, base: str, k: int, rank: int = 0) -> BlowupCase:
    """Blow up k points over the base, each either a general point of a
    uniformly chosen curve or a uniformly chosen intersection point, with
    equal chance. ``rank`` picks the A/D/E rank, cyclically in its range."""
    self_int: dict[str, int] = {}
    disc: dict[str, int] = {}
    mult: dict[str, int] = {}
    edges: list[tuple[str, str]] = []
    ade = None
    if base in ADE_RANKS:
        lo, hi = ADE_RANKS[base]
        ade = (base, lo + rank % (hi - lo + 1))
        ids, edges, z = _ade_base(*ade)
        for vid in ids:
            self_int[vid], disc[vid], mult[vid] = -2, 0, z[vid]
        kind = "duval"
    elif base == "fiber":
        self_int["f"], disc["f"], mult["f"] = 0, 0, 1
        kind = "fiber"
    else:
        kind = "smooth"

    curves = list(self_int)
    for step in range(1, k + 1):
        new = f"x{step}"
        if not curves:
            # the first blow-up of the smooth point itself
            disc[new], mult[new] = 1, 1
        elif edges and rng.random() < 0.5:
            a, b = edges.pop(rng.randrange(len(edges)))
            self_int[a] -= 1
            self_int[b] -= 1
            edges += [(a, new), (b, new)]
            disc[new] = disc[a] + disc[b] + 1
            mult[new] = mult[a] + mult[b]
        else:
            c = rng.choice(curves)
            self_int[c] -= 1
            edges.append((c, new))
            disc[new] = disc[c] + 1
            mult[new] = mult[c]
        self_int[new] = -1
        curves.append(new)

    name = f"{kind}-{ade[0]}{ade[1]}" if ade else kind
    lines = [f"graph {name}-k{k}"]
    lines += [f"v {vid} {w}" for vid, w in self_int.items()]
    lines += [f"e {a} {b}" for a, b in edges]
    text = "\n".join(lines) + "\n"
    return BlowupCase(text, kind, ade, k, self_int, frozenset(frozenset(e) for e in edges),
                      disc, mult)


def blowup_passes(seed: int, lo: int, hi: int, passes: int) -> list[list[BlowupCase]]:
    """``passes`` blocks of distinct configurations, each block holding one
    configuration for every k in [lo, hi], the bases and ranks taken in turn."""
    rng = random.Random(f"blowup-classify:{seed}")
    ladder = size_ladder(lo, hi)
    return [[blowup_case(rng, BLOWUP_BASES[i % len(BLOWUP_BASES)], k, i // len(BLOWUP_BASES) + p)
             for i, k in enumerate(ladder)]
            for p in range(passes)]


# -- catalog-cli ------------------------------------------------------------


@dataclass(frozen=True)
class CliCall:
    """One ``resgraph`` invocation and the exit code its fixture documents."""

    argv: tuple[str, ...]
    exit_code: int


CATALOG_DIR = Path("src/resgraph/data/catalog")
README_CALLS = (
    ("pair", "--weights", "3,2,1,1", "--degrees", "1,1", "--k", "-4"),
    ("wdisc", "--index", "4", "--weights", "3,2,1,1"),
    ("genus", "--weights", "2,1,1", "--degree", "5", "--correction", "1/2"),
)
VERIFY_CALL = CliCall(("catalog", "verify", "--json"), 0)


def _expects(text: str) -> list[tuple[str, str]]:
    found = []
    for line in text.splitlines():
        m = re.match(r"\s*expect\s+(.*?)\s*=\s*(\S+)\s*$", line.split("#", 1)[0])
        if m:
            found.append((m.group(1), m.group(2)))
    return found


def _codisc_exit(text: str) -> int:
    """1 when codisc confirms the fixture's rejection (a rejected fixture
    with a pinned root carrying a tail), else 0."""
    rejected = ("rejected", "true") in _expects(text)
    pinned = re.search(r"^\s*cycle\s+pinned\s*:", text, re.M) is not None
    tail_root = "label=tail-root" in text
    return 1 if rejected and pinned and tail_root else 0


def catalog_calls(root: Path, smoke: bool = False) -> list[CliCall]:
    """One pass of the catalog-cli workload, with fixture paths relative to
    the repository root, as a user in a checkout would type them."""
    paths = sorted((root / CATALOG_DIR).glob("*/*.dg"))
    if smoke:
        paths = [p for p in paths if p.stem == "conic-fiber"]
    fixtures = [(p.relative_to(root).as_posix(), p.read_text(encoding="utf-8")) for p in paths]
    calls = [CliCall(("classify", rel), 0) for rel, _ in fixtures]
    for rel, text in fixtures:
        if rel.split("/")[-2] in ("classification", "duval", "rejected"):
            calls.append(CliCall(("codisc", rel), _codisc_exit(text)))
    for rel, text in fixtures:
        for key, _ in _expects(text):
            head, *rest = key.split()
            if head == "pullback" and rest:
                calls.append(CliCall(("pullback", rel, "--attached", rest[0]), 0))
    for rel, text in fixtures:
        for key, _ in _expects(text):
            head, *rest = key.split()
            if head == "trivial" and rest:
                calls.append(CliCall(("triviality", rel, "--cycle", rest[0]), 0))
    calls += [CliCall(argv, 0) for argv in README_CALLS]
    calls.append(VERIFY_CALL)
    return calls
