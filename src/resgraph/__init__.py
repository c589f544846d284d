"""Exact-arithmetic calculus on weighted dual graphs of surface-singularity
resolutions: contraction and Du Val recognition, codiscrepancy solving,
fundamental cycles, numerical pullbacks, weighted-projective pairings, and a
golden catalog of verified configurations."""

from .contract import (
    ADEType,
    ContractionOutcome,
    CurveFiber,
    DuValPoint,
    NotContractible,
    RationalPoint,
    SmoothPoint,
    classify,
    contract_minus_ones,
    recognize_duval,
)
from .discrepancy import (
    CodiscrepancyResult,
    codiscrepancies,
    denominator_filter,
    fundamental_cycle,
    implied_tail_start,
    mumford_pullback,
    pinned_codiscrepancies,
)
from .graph import (
    Cycle,
    DualGraph,
    Vertex,
    VertexKind,
    cycle_dot,
    parse,
    serialize,
)
from .linalg import (
    Definiteness,
    SymMatrix,
    definiteness,
    format_rational,
    rational,
    solve,
)
from .catalog import (
    CatalogEntry,
    CheckRecord,
    load_catalog,
    verify_catalog,
    verify_entry,
)
from .wps import (
    cdisc_from_blowup,
    pair,
    subadjunction_genus,
    wblowup_discrepancy,
)

__version__ = "0.1.0"

__all__ = [
    "ADEType",
    "CatalogEntry",
    "CheckRecord",
    "CodiscrepancyResult",
    "ContractionOutcome",
    "CurveFiber",
    "Cycle",
    "Definiteness",
    "DualGraph",
    "DuValPoint",
    "NotContractible",
    "RationalPoint",
    "SmoothPoint",
    "SymMatrix",
    "Vertex",
    "VertexKind",
    "cdisc_from_blowup",
    "classify",
    "codiscrepancies",
    "contract_minus_ones",
    "cycle_dot",
    "definiteness",
    "denominator_filter",
    "format_rational",
    "fundamental_cycle",
    "implied_tail_start",
    "load_catalog",
    "mumford_pullback",
    "pair",
    "parse",
    "pinned_codiscrepancies",
    "rational",
    "recognize_duval",
    "serialize",
    "solve",
    "subadjunction_genus",
    "verify_catalog",
    "verify_entry",
    "wblowup_discrepancy",
]
