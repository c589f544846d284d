import pickle
import random
import sys
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, log2

import pytest

from resgraph import catalog, linalg
from resgraph.linalg import (
    INDEFINITE,
    NEGATIVE_DEFINITE,
    NEGATIVE_SEMIDEFINITE,
    SingularMatrix,
    SymMatrix,
    UnderdeterminedSystem,
    definiteness,
    format_rational,
    kernel_basis,
    primitive_integer_vector,
    rational,
    solve,
)
from resgraph.graph import Cycle, DualGraph, Vertex, VertexKind
import util
from util import (
    ade_graph,
    apply,
    attach_chain,
    attach_fork_tail,
    back_substitute_oracle,
    dense_definiteness,
    dense_kernel_basis,
    dense_rank,
    dense_rows,
    dense_solve,
    eliminate_oracle,
    integral_rows,
    lcm_rows,
    negated,
    pd_by_leading_minors,
    permuted,
    point_blowups,
    psd_by_minors,
    quadratic_form,
    random_cyclic_graph,
    random_tree_graph,
    sym_matrix,
)


def test_rational_parsing_and_format():
    assert rational("3/4") == Fraction(3, 4)
    assert rational("-2") == Fraction(-2)
    assert rational(5) == Fraction(5)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-6, 3)) == "-2"


def test_a_number_past_the_digit_limit_prints_in_full():
    """``str`` refuses an int of more than 4300 digits (CPython's default
    limit); ``format_rational``, and so a cycle and a check record, write it
    out all the same."""
    digits = "1" + "0" * 4999 + "1"
    big = 10**5000 + 1
    assert len(digits) > sys.get_int_max_str_digits()
    assert format_rational(Fraction(big)) == format_rational(big) == digits
    assert format_rational(Fraction(-big, 3)) == f"-{digits}/3"
    assert format_rational(Fraction(3, big)) == f"3/{digits}"
    assert Cycle({"b": Fraction(big, 7), "a": 1}).render() == f"a=1, b={digits}/7"
    assert catalog._render(Fraction(-big)) == f"-{digits}"


@pytest.mark.parametrize("text", ["1.5", "1e3", "1e10000000", "1_000", "3/-4", "", "/2", "0x10", "٣"])
def test_rational_rejects_strings_outside_p_over_q(text):
    with pytest.raises(ValueError):
        rational(text)


@pytest.mark.parametrize("value", [0.5, 2.0, None])
def test_rational_rejects_what_is_not_an_exact_rational(value):
    with pytest.raises(TypeError) as err:
        rational(value)
    assert str(err.value) == f"not an exact rational: {value!r}"


def test_rational_accepts_signs_and_surrounding_space():
    assert rational(" +3/4 ") == Fraction(3, 4)
    assert rational("-12/8") == Fraction(-3, 2)
    with pytest.raises(ZeroDivisionError):
        rational("1/0")


def test_symmetry_is_enforced():
    with pytest.raises(ValueError):
        sym_matrix([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        sym_matrix([[0, 1]])
    with pytest.raises(ValueError):
        SymMatrix.from_sparse([{1: 1}, {}])
    with pytest.raises(ValueError):
        SymMatrix.from_sparse([{0: -2, 1: 1}, {0: 2, 1: -2}])
    with pytest.raises(ValueError):
        SymMatrix.from_sparse([{3: 1}])


@pytest.mark.parametrize("entry, text", [(Fraction(-3, 2), "-3/2"), ("-6/4", "-3/2"), ("1/3", "1/3")])
def test_from_sparse_refuses_an_entry_that_is_not_an_integer(entry, text):
    with pytest.raises(ValueError) as err:
        SymMatrix.from_sparse([{0: -2, 1: 1}, {0: 1, 1: entry}])
    assert type(err.value) is ValueError and str(err.value) == f"entry (1,1) is {text}, not an integer"


def test_from_sparse_stores_integral_fractions_and_strings_as_ints():
    m = SymMatrix.from_sparse([{0: Fraction(-2), 1: "1"}, {0: 1, 1: "-2"}, {2: Fraction(-6, 3)}])
    assert m._rows == ({0: -2, 1: 1}, {0: 1, 1: -2}, {2: -2})
    assert all(type(v) is int for row in m._rows for v in row.values())
    assert m == sym_matrix([[-2, 1, 0], [1, -2, 0], [0, 0, -2]])


def test_sparse_and_dense_constructors_agree():
    dense = sym_matrix([[-2, 1, 0], [1, -2, 0], [0, 0, 0]])
    sparse = SymMatrix.from_sparse([{0: -2, 1: 1}, {0: 1, 1: -2, 2: 0}, {}])
    assert sparse == dense and hash(sparse) == hash(dense)
    assert dense_rows(sparse) == dense_rows(dense) and repr(sparse) == repr(dense)
    assert sparse[2, 2] == 0 and sparse[-1, 0] == 0 and sparse[0, -2] == 1


def test_solve_one_by_one():
    assert solve(sym_matrix([[-1]]), [-2]) == [Fraction(2)]


def test_solve_a2_zero_rhs():
    m = sym_matrix([[-2, 1], [1, -2]])
    assert solve(m, [0, 0]) == [Fraction(0), Fraction(0)]


def test_solve_reproduces_rhs_exactly():
    rng = random.Random(20240)
    for _ in range(50):
        n = rng.randint(1, 6)
        while True:
            rows = [
                [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
                for _ in range(n)
            ]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[j][i] = rows[i][j]
            m = sym_matrix(integral_rows(rows))
            b = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)]
            try:
                x = solve(m, b)
            except (SingularMatrix, UnderdeterminedSystem):
                continue
            assert apply(m, x) == b
            break


def test_solve_singular_no_solution():
    m = sym_matrix([[1, 1], [1, 1]])
    with pytest.raises(SingularMatrix):
        solve(m, [0, 1])


@pytest.mark.parametrize("b", [[1], [1, 1, 1]])
def test_solve_rejects_a_right_hand_side_of_the_wrong_length(b):
    with pytest.raises(ValueError) as err:
        solve(sym_matrix([[-2, 1], [1, -2]]), b)
    assert type(err.value) is ValueError and str(err.value) == "right-hand side has wrong length"


def test_solve_underdetermined():
    m = sym_matrix([[1, 1], [1, 1]])
    with pytest.raises(UnderdeterminedSystem) as info:
        solve(m, [1, 1])
    assert info.value.rank == dense_rank(m) == 1
    assert UnderdeterminedSystem("not unique").rank is None


def test_definiteness_negative_definite_1x1():
    assert definiteness(sym_matrix([[-1]])).render() == "NegativeDefinite"


def test_definiteness_degenerate_rank_one():
    res = definiteness(sym_matrix([[-2, 2], [2, -2]]))
    assert res.kind == NEGATIVE_SEMIDEFINITE
    assert res.corank == 1
    assert res.kernel == [[1, 1]]


def test_definiteness_indefinite():
    assert definiteness(sym_matrix([[1, 0], [0, -1]])).kind == INDEFINITE
    assert definiteness(sym_matrix([[0, 1], [1, 0]])).kind == INDEFINITE


def test_definiteness_zero_matrix_is_semidefinite():
    res = definiteness(sym_matrix([[0, 0], [0, 0]]))
    assert res.kind == NEGATIVE_SEMIDEFINITE
    assert res.corank == 2


def test_negative_definite_quadratic_form_is_negative():
    rng = random.Random(7)
    m = sym_matrix([[-2, 1, 0], [1, -2, 1], [0, 1, -2]])
    assert definiteness(m).kind == NEGATIVE_DEFINITE
    for _ in range(100):
        x = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(3)]
        if any(c != 0 for c in x):
            assert quadratic_form(m, x) < 0


def test_definiteness_invariant_under_permutation():
    rng = random.Random(99)
    rows = [[-3, 1, 0, 1], [1, -2, 1, 0], [0, 1, -2, 0], [1, 0, 0, -1]]
    m = sym_matrix(rows)
    base = definiteness(m).render()
    for _ in range(20):
        perm = list(range(4))
        rng.shuffle(perm)
        assert definiteness(permuted(m, perm)).render() == base


def test_definiteness_agrees_with_minor_oracle():
    rng = random.Random(1234)
    seen = {NEGATIVE_DEFINITE: 0, NEGATIVE_SEMIDEFINITE: 0, INDEFINITE: 0}
    for _ in range(120):
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-3, 2)) for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[j][i] = rows[i][j]
        m = sym_matrix(rows)
        res = definiteness(m)
        seen[res.kind] += 1
        neg = negated(m)
        if res.kind == NEGATIVE_DEFINITE:
            assert pd_by_leading_minors(neg)
        elif res.kind == NEGATIVE_SEMIDEFINITE:
            assert psd_by_minors(neg) and not pd_by_leading_minors(neg)
            for vec in res.kernel:
                assert apply(m, [Fraction(c) for c in vec]) == [Fraction(0)] * n
        else:
            assert not psd_by_minors(neg)
    assert all(count > 0 for count in seen.values())


def test_primitive_integer_vector():
    assert primitive_integer_vector([Fraction(1, 2), Fraction(3, 2)]) == [1, 3]
    assert primitive_integer_vector([Fraction(-2), Fraction(4)]) == [1, -2]
    assert primitive_integer_vector([Fraction(0), Fraction(-3, 7)]) == [0, 1]
    with pytest.raises(ValueError):
        primitive_integer_vector([Fraction(0)])


def test_kernel_basis_dimension():
    m = sym_matrix([[1, 1, 0], [1, 1, 0], [0, 0, 0]])
    basis = kernel_basis(m)
    assert len(basis) == 2
    for vec in basis:
        assert apply(m, [Fraction(c) for c in vec]) == [Fraction(0)] * 3


def _outcome(fn, *args):
    """The result of fn, or the type of the linear algebra error it raised;
    ``solve`` must give an UnderdeterminedSystem the dense oracle's rank."""
    try:
        return fn(*args)
    except (SingularMatrix, UnderdeterminedSystem) as exc:
        if fn is solve and type(exc) is UnderdeterminedSystem:
            assert exc.rank == dense_rank(args[0])
        return type(exc)


def _eliminations(fn, *args):
    """fn(*args), and the dimensions of the matrices it eliminated."""
    dims, eliminate = [], linalg._eliminate

    def counting(M, *args, **kwargs):
        dims.append(M.dimension)
        return eliminate(M, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(linalg, "_eliminate", counting)
        return fn(*args), dims


def _reduced(x) -> bool:
    """A Fraction whose fields are in lowest terms with a positive
    denominator: the only form ``==`` and ``hash`` treat correctly."""
    return type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1


def _agrees_with_dense(m: SymMatrix, rng: random.Random) -> tuple[str, int]:
    """Compare solve, definiteness and kernel_basis with the dense oracles,
    bit for bit; returns the kind of form and the kernel dimension."""
    n = m.dimension
    free_rhs = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
    x = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    for b in (free_rhs, apply(m, x)):
        got = _outcome(solve, m, b)
        assert got == _outcome(dense_solve, m, b)
        if isinstance(got, list):
            assert all(map(_reduced, got))
    res, dims = _eliminations(definiteness, m)
    assert dims == [n]  # the kernel too is read off that one elimination
    assert (res.kind, res.corank, res.kernel) == dense_definiteness(m)
    kernel = kernel_basis(m)
    assert kernel == dense_kernel_basis(m)
    return res.kind, len(kernel)


def test_sparse_kernel_matches_dense_oracle_on_random_matrices():
    rng = random.Random(31337)
    coranks = []
    for _ in range(400):
        n = rng.randint(1, 7)
        if rng.random() < 0.5:
            # low rank: a sum of a few symmetric rank-one terms
            rows = [[Fraction(0)] * n for _ in range(n)]
            for _ in range(rng.randint(0, n)):
                v = [Fraction(rng.choice([0, 0, 1, -1, 2])) for _ in range(n)]
                sign = rng.choice([1, -1])
                for i in range(n):
                    for j in range(n):
                        rows[i][j] += sign * v[i] * v[j]
        else:
            rows = [
                [Fraction(rng.choice([0, 0, 0, 1, -1, 2]), rng.randint(1, 3)) for _ in range(n)]
                for _ in range(n)
            ]
            for i in range(n):
                for j in range(i + 1, n):
                    rows[j][i] = rows[i][j]
        for i in range(n):
            if rng.random() < 0.4:
                rows[i][i] = Fraction(0)
        coranks.append(_agrees_with_dense(sym_matrix(integral_rows(rows)), rng)[1])
    assert sum(1 for k in coranks if k >= 2) >= 20


def _star(legs: int, center: int) -> DualGraph:
    vertices = [Vertex("c", VertexKind.EXCEPTIONAL, center)]
    vertices += [Vertex(f"l{i}", VertexKind.EXCEPTIONAL, -2) for i in range(legs)]
    return DualGraph("star", vertices, [("c", f"l{i}") for i in range(legs)])


def test_sparse_kernel_matches_dense_oracle_on_graphs():
    rng = random.Random(4242)
    graphs = [ade_graph("A", n) for n in (1, 2, 7, 30, 60)]
    graphs += [
        random_tree_graph(rng, n, weights=weights)
        for n, weights in ((12, (-1, -2)), (25, (-2, -3)), (40, (-1, -2, -3)), (60, (-2, -3, -4, -5)))
    ]
    graphs += [_star(legs, center) for legs, center in ((3, -1), (4, -2), (5, -2), (8, -3))]
    graphs += [attach_fork_tail(ade_graph("A", 20), "v20", k) for k in (1, 10, 35)]
    kinds = set()
    for g in graphs:
        m, _ = g.intersection_matrix()
        kinds.add(_agrees_with_dense(m, rng)[0])
    assert kinds == {NEGATIVE_DEFINITE, NEGATIVE_SEMIDEFINITE, INDEFINITE}


@pytest.mark.parametrize("seed", range(4))
def test_solvers_are_bit_identical_whichever_constructor_and_rhs_type(seed):
    # intersection_matrix hands int rows to the kernel as they are; from_sparse
    # of the same dense entries checks and converts them, and Fractions in b
    # take the scaling load
    rng = random.Random(seed)
    fiber = DualGraph("fiber", [Vertex("f", VertexKind.EXCEPTIONAL, 0)], {})
    graphs = [
        random_tree_graph(rng, 40),
        random_cyclic_graph(rng, 40),
        point_blowups(rng, DualGraph("smooth", [], {}), 25),
        point_blowups(rng, fiber, 25),
        point_blowups(rng, ade_graph("E", 7), 10),
    ]
    kinds = set()
    for g in graphs:
        m, _ = g.intersection_matrix()
        checked = sym_matrix(dense_rows(m))
        assert checked == m
        b = [rng.randint(-4, 4) for _ in range(m.dimension)]
        rhs = (b, [Fraction(x) for x in b])
        results = [_outcome(solve, M, v) for M in (m, checked) for v in rhs]
        assert all(r == results[0] for r in results)
        if isinstance(results[0], list):
            assert all(type(x) is Fraction for x in results[0])
        found = [definiteness(M) for M in (m, checked)]
        assert found[0].kind == found[1].kind and found[0].corank == found[1].corank
        assert found[0].kernel == found[1].kernel
        assert kernel_basis(m) == kernel_basis(checked)
        kinds.add(found[0].kind)
    assert NEGATIVE_DEFINITE in kinds and NEGATIVE_SEMIDEFINITE in kinds


def test_integral_rows_under_a_rational_rhs_eliminate_as_the_lcm_setup():
    # a pinned solve: the rows next to a pin carry its denominator in b, the
    # others an int or a Fraction of denominator 1
    rng = random.Random("rows")
    for n in (1, 2, 5, 20, 60):
        for _ in range(5):
            g = random_tree_graph(rng, n)
            ids = g.ids()
            pins = {vid: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                    for vid in rng.sample(ids, rng.randint(0, n // 2))}
            unknowns = [vid for vid in ids if vid not in pins]
            m, order = g.intersection_matrix(unknowns)
            b = []
            for vid in order:
                c = 2 + g.vertex(vid).self_int
                for other, mult in g.neighbors(vid):
                    if other in pins:
                        c -= mult * pins[other]
                b.append(c if rng.random() < 0.5 else Fraction(c))
            assert linalg._eliminate(m, b) == linalg._eliminate(*lcm_rows(m, b))


def test_solve_large_tree_and_chain_residuals():
    rng = random.Random(2000)
    for g in (random_tree_graph(rng, 2000), ade_graph("A", 2000)):
        m, order = g.intersection_matrix()
        b = [Fraction(2 + g.vertex(vid).self_int) for vid in order]
        b[0] += 1
        assert apply(m, solve(m, b)) == b


def _within_hadamard(m: SymMatrix) -> None:
    """The integer rows stay within Hadamard's bound on the minors of M, as
    Bareiss's exact divisions would keep them: the content gcds stop the
    growth that repeated scaling alone would cause."""
    rows, _, _, _ = linalg._eliminate(m)
    hadamard = sum(log2(sum(x * x for x in row.values())) / 2 for row in m._rows)
    assert max(abs(v).bit_length() for row in rows for v in row.values()) <= hadamard


def test_kernel_matches_dense_oracle_on_graphs_with_cycles():
    rng = random.Random(8088)
    cycles = 0
    for n in (3, 10, 20, 30, 40, 60):
        g = random_cyclic_graph(rng, n)
        cycles += len(g.edges()) - (n - 1)
        m, _ = g.intersection_matrix()
        _agrees_with_dense(m, rng)
        _within_hadamard(m)
    assert cycles == 1 + 2 + 3 + 4 + 6
    _within_hadamard(random_tree_graph(rng, 2000).intersection_matrix()[0])


def test_kernel_matches_dense_oracle_with_row_scaling_and_block_pivots():
    """Sparse matrices with mostly zero diagonals, rational ones scaled to
    integers, under rational right-hand sides: rows start scaled by a
    denominator, and elimination runs out of diagonal pivots."""
    rng = random.Random(5150)
    scaled = blocks = 0
    for _ in range(150):
        n = rng.randint(2, 12)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < (0.15 if i == j else 2.5 / n):
                    q = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4, 6]))
                    rows[i][j] = rows[j][i] = q
        m = sym_matrix(integral_rows(rows))
        _agrees_with_dense(m, rng)
        b = [Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3, 4, 6])) for _ in range(n)]
        assert _outcome(solve, m, b) == _outcome(dense_solve, m, b)
        scaled += any(q.denominator > 1 and m._rows[i] for i, q in enumerate(b))
        _, _, steps, _ = linalg._eliminate(m)
        blocks += sum(r != c for r, c in steps) // 2
    assert scaled >= 100 and blocks >= 100


def test_a_semidefinite_form_is_eliminated_once_for_its_kernel_too():
    """Fiber residuals and the extended D4 and E8 diagrams, as they stand
    and blown up: definiteness reads the kernel off its one elimination, and
    it is the kernel kernel_basis and the dense oracle give. (The random,
    graph and block-pivot cases count it in ``_agrees_with_dense``.)"""
    rng = random.Random("one-elimination")
    fiber = DualGraph("fiber", [Vertex("f", VertexKind.EXCEPTIONAL, 0)], {})
    # one more curve on the fork of D4, or on the long arm of E8
    d4, e8 = attach_chain(ade_graph("D", 4), "v2", 1), attach_chain(ade_graph("E", 8), "v7", 1)
    cases = [(fiber, [[1]]), (d4, [[1, 2, 1, 1, 1]]), (e8, [[2, 4, 6, 5, 4, 3, 2, 3, 1]])]
    for k in (1, 10, 80):
        g = point_blowups(rng, fiber, k)
        weight, nbrs, record = g._blow_down(g.ids())
        assert len(record) == k
        cases += [(g._from_view(weight, nbrs), [[1]]), (g, None)]
        cases += [(point_blowups(rng, base, k), None) for base in (d4, e8)]
    for g, want in cases:
        m, _ = g.intersection_matrix()
        res, dims = _eliminations(definiteness, m)
        assert dims == [m.dimension]
        assert (res.kind, res.corank) == (NEGATIVE_SEMIDEFINITE, 1)
        assert res.kernel == kernel_basis(m) == dense_kernel_basis(m)
        assert want is None or res.kernel == want
        assert all(x > 0 for x in res.kernel[0])  # Zariski's lemma


def _kernel_cases(rng: random.Random):
    """(matrix, right-hand side or None) pairs of each shape the kernel
    meets: trees, forests with isolated curves, graphs with cycles, each
    under a canonical, a pinned and no right-hand side, and sparse matrices
    with mostly zero diagonals, rational ones scaled to integers, under a
    rational right-hand side."""
    graphs = []
    for n in (1, 2, 5, 12, 30, 60, 120, 200):
        for weights in ((-2, -3, -4, -5), (-1, -2), (-1, -2, -3)):
            tree = random_tree_graph(rng, n, weights)
            graphs.append(tree)
            kept = {e: m for e, m in tree.edges().items() if rng.random() < 0.6}
            graphs.append(DualGraph("forest", tree.vertices, kept))
    graphs += [random_cyclic_graph(rng, n) for n in (10, 30, 60, 100)]
    for g in graphs:
        m, order = g.intersection_matrix()
        yield m, None
        yield m, [2 + g.vertex(vid).self_int for vid in order]
        ids = g.ids()
        pins = {vid: Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for vid in rng.sample(ids, len(ids) // 3)}
        m, order = g.intersection_matrix([vid for vid in ids if vid not in pins])
        b = []
        for vid in order:
            c = 2 + g.vertex(vid).self_int
            for other, mult in g.neighbors(vid):
                if other in pins:
                    c -= mult * pins[other]
            b.append(c)
        yield m, b
    for _ in range(100):
        n = rng.randint(2, 12)
        rows = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                if rng.random() < (0.15 if i == j else 2.5 / n):
                    q = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 2, 3, 4, 6]))
                    rows[i][j] = rows[j][i] = q
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        yield sym_matrix(integral_rows(rows)), b


def test_kernel_and_back_substitution_match_the_step_only_oracle(monkeypatch):
    """The leaf step is step(r, r) inline: the kernel returns the rows,
    right-hand sides, steps and rows left over that the general update
    alone gives, after pushing as many heap entries, and back-substitution
    the values Fraction arithmetic gives."""
    pushes = {linalg: 0, util: 0}

    def counting(module):
        def push(heap, item):
            pushes[module] += 1
            heappush(heap, item)
        return push

    for module in pushes:
        monkeypatch.setattr(module, "heappush", counting(module))
    rng = random.Random(1968)
    counts = {"isolated": 0, "leaf": 0, "general": 0, "block": 0, "rest": 0, "solved": 0}
    for m, b in _kernel_cases(rng):
        got = linalg._eliminate(m, b)
        assert got == eliminate_oracle(m, b)
        assert pushes[linalg] == pushes[util]
        rows, rhs, steps, rest = got
        for r, c in steps:
            kind = ("isolated", "leaf", "general")[min(len(rows[r]), 3) - 1]
            counts["block" if r != c else kind] += 1
        counts["rest"] += bool(rest)
        if b is not None and not rest:
            counts["solved"] += 1
            zeros = [Fraction(0)] * m.dimension
            x = linalg._back_substitute(rows, steps, rhs, [(0, 1)] * m.dimension)
            assert x == back_substitute_oracle(rows, steps, rhs, zeros)
            assert all(map(_reduced, x))
    assert min(counts.values()) >= 50, counts


def test_trees_peel_leaves_with_no_fill_in():
    """On a tree the minimum-degree order is a perfect elimination order:
    n diagonal steps, each pivot row, frozen at its step, a leaf's."""
    rng = random.Random(4000)
    for n in (200, 2000):
        m, _ = random_tree_graph(rng, n).intersection_matrix()
        rows, _, steps, rest = linalg._eliminate(m)
        assert len(steps) == n and not rest
        assert all(r == c and len(rows[r]) <= 2 for r, c in steps)


def test_the_kernel_stops_popping_once_every_row_has_stepped(monkeypatch):
    """A leaf step pushes its neighbour's new length, and the neighbour's
    older entries come up stale after it has stepped. Once every row has
    stepped the heap is dropped: one stale pop, not one per entry left."""
    pops = []

    def counting(heap):
        pops.append(1)
        return heappop(heap)

    monkeypatch.setattr(linalg, "heappop", counting)
    rng = random.Random(1968)
    for n in [*range(1, 60), 100, 200, 400]:
        m, _ = random_tree_graph(rng, n).intersection_matrix()
        pops.clear()
        steps = linalg._eliminate(m)[2]
        assert len(steps) == n and len(pops) <= n + 1, n


def test_entries_are_fractions_whatever_the_storage():
    m = SymMatrix.from_sparse([{0: -4, 1: 2}, {0: Fraction(2), 1: Fraction(-3)}])
    assert m._rows == ({0: -4, 1: 2}, {0: 2, 1: -3})
    assert type(m._rows[0][0]) is int and type(m._rows[1][0]) is int
    entries = [m[i, j] for i in range(2) for j in range(2)]
    entries += [x for i in range(2) for x in m.row(i)]
    assert all(type(x) is Fraction for x in entries)
    assert m.row(0) == (Fraction(-4), Fraction(2)) and m[1, 1] == Fraction(-3)
    same = SymMatrix.from_sparse([{0: Fraction(-4), 1: 2}, {0: 2, 1: Fraction(-12, 4)}])
    assert same == m and hash(same) == hash(m)
    assert repr(same) == repr(m) == "SymMatrix[-4 2; 2 -3]"


def test_the_coprime_fraction_builder_fits_this_interpreter():
    """``linalg._fraction`` sets the two slots of a Fraction; a CPython that
    renames them fails here, not later with broken values."""
    assert {"_numerator", "_denominator"} <= set(Fraction.__slots__)
    big = 2**200
    pairs = [(0, 1), (1, 1), (-1, 1), (5, 1), (-3, 7), (-(big + 1), 3), (big + 1, 3**126),
             (-(3**127), big), (big - 1, big + 1)]
    for n, d in pairs:
        assert d > 0 and gcd(n, d) == 1
        got, want = linalg._fraction(n, d), Fraction(n, d)
        assert type(got) is Fraction
        assert (got.numerator, got.denominator) == (n, d)
        assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
        assert got + want == 2 * want and got * want == want * want
        assert got - Fraction(1, 3) == want - Fraction(1, 3) and got * 6 == want * 6
        again = pickle.loads(pickle.dumps(got))
        assert type(again) is Fraction and again == want and hash(again) == hash(want)
