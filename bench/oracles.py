"""Correctness oracles, run after each op and outside its timed region.

Each returns None when the program's answer is right and a one-line reason
when it is not. They recompute from the generator's own data (vertex
weights, tree edges, blow-up history) and never call back into resgraph for
the arithmetic they check.
"""

from __future__ import annotations

from fractions import Fraction

from inputs import BlowupCase, TreeCase


def check_tree(case: TreeCase, result) -> str | None:
    """Exact residuals of the three solves of one tree op:
    M theta = 2 + E_j^2, pinned values equal the free ones, and
    (s + m) . E_j = 0 with s = t meeting n{attach} once."""
    free, pinned, pullback = result
    nbrs = case.neighbors()
    theta = [free.values.get(f"n{i}") for i in range(case.n)]
    if None in theta or len(free.values) != case.n:
        return "codiscrepancies: wrong support"
    for j, w in enumerate(case.weights):
        lhs = theta[j] * w + sum(theta[i] for i in nbrs[j])
        if lhs != 2 + w:
            return f"codiscrepancies: residual at n{j} is {lhs - 2 - w}"
    if pinned.values != free.values:
        return "pinned_codiscrepancies disagrees with the free solve"
    m = [pullback.coefficients.get(f"n{i}", Fraction(0)) for i in range(case.n)]
    if set(pullback.coefficients) - {f"n{i}" for i in range(case.n)}:
        return "mumford_pullback: coefficient off the tree"
    for j, w in enumerate(case.weights):
        lhs = m[j] * w + sum(m[i] for i in nbrs[j]) + (1 if j == case.attach else 0)
        if lhs != 0:
            return f"mumford_pullback: (s + m).E at n{j} is {lhs}"
    return None


def check_blowup(case: BlowupCase, result) -> str | None:
    """Answers known from the construction: the classification, theta = -a
    (or SingularConfiguration on a fiber), and Z equal to the pulled-back
    fundamental cycle with p_a(Z) = 0. Outcomes and errors are told apart by
    class name, so this module needs no import of resgraph."""
    outcome, codisc, fundamental = result
    kind = type(outcome).__name__
    if case.kind == "fiber":
        if kind != "CurveFiber":
            return f"classify: {outcome.render()}, expected CurveFiber"
        if outcome.fiber.coefficients != case.mult:
            return "classify: fiber cycle is not the total transform of the fiber"
        if type(codisc).__name__ != "SingularConfiguration":
            return "codiscrepancies on a fiber did not raise SingularConfiguration"
        return None
    if case.kind == "smooth":
        if kind != "SmoothPoint":
            return f"classify: {outcome.render()}, expected SmoothPoint"
    else:
        family, rank = case.ade
        if kind != "DuValPoint" or (outcome.ade.family, outcome.ade.rank) != (family, rank):
            return f"classify: {outcome.render()}, expected DuValPoint({family}{rank})"
    if isinstance(codisc, Exception) or codisc.values != {v: Fraction(-a) for v, a in case.disc.items()}:
        return "codiscrepancies: not minus the discrepancies of the blow-ups"
    z, genus = fundamental
    if z.coefficients != case.mult:
        return "fundamental_cycle: not the pullback of the base's fundamental cycle"
    zz = 0
    zk = 0
    adjacent = {v: [] for v in case.self_int}
    for edge in case.edges:
        a, b = tuple(edge)
        adjacent[a].append(b)
        adjacent[b].append(a)
    for v, w in case.self_int.items():
        dot = case.mult[v] * w + sum(case.mult[u] for u in adjacent[v])
        if dot > 0:
            return f"fundamental cycle meets {v} positively"
        zz += case.mult[v] * dot
        zk += case.mult[v] * (-2 - w)
    if 2 + zz + zk != 0 or genus != 0:
        return f"fundamental_cycle: p_a(Z) is {genus}, expected 0"
    return None


def check_cli(call, returncode: int, stdout: bytes, golden_verify: bytes) -> str | None:
    """The documented exit code, and for ``catalog verify --json`` the exact
    bytes the catalog produced when the benchmark was defined."""
    if returncode != call.exit_code:
        return f"{' '.join(call.argv)}: exit {returncode}, expected {call.exit_code}"
    if call.argv[:2] == ("catalog", "verify") and stdout != golden_verify:
        return "catalog verify --json differs from the golden output"
    if not stdout:
        return f"{' '.join(call.argv)}: no output"
    return None
