"""Finitely presented groups: constructions and verification engines.

The package has two layers.  The construction layer embeds a finite
presentation into a small-cancellation group with controlled normal
subgroup (``rips``), builds universal central extensions of perfect
presentations with explicit lifting certificates (``uce``), and chains the
two into fibre-product generator data over a direct square (``pipeline``).
The verification layer provides the classical decision machinery used to
audit those outputs: Smith normal form over Z, metric small-cancellation
checking, Dehn's algorithm, Todd-Coxeter coset enumeration, Schreier
rewriting, finite-index subgroup census, homomorphism search into finite
targets, and Hopf-formula second homology.

Everything is exact integer arithmetic; no floating point enters any
verdict.  The ``fpgroups`` console script exposes the same operations as
subcommands emitting one JSON run-report per invocation.
"""

from .budget import Budget, BudgetExhausted
from .cancellation import (
    DehnSolver,
    DehnTrace,
    PieceReport,
    SmallCancellationError,
    check_metric,
)
from .construct import (
    ConstructionError,
    GrothendieckEvidence,
    PipelineResult,
    RipsError,
    RipsResult,
    UceResult,
    de_bruijn_bits,
    fibre_generators,
    grothendieck_evidence,
    pipeline,
    rips,
    uce,
)
from .cosets import (
    CosetError,
    CosetTable,
    Exhausted,
    Fingerprint,
    FingerprintComparison,
    fingerprint_compare,
    low_index,
    reidemeister_schreier,
    todd_coxeter,
)
from .homology import (
    HomologyError,
    L0Instance,
    L0Report,
    SchurReport,
    aspherical_h2_rank,
    baumslag_iso_test,
    lemma_l0_check,
    schur_multiplier,
)
from .permrep import (
    GroupHom,
    PermError,
    PermGroup,
    alternating_group,
    check_generation,
    cyclic_group,
    epi_count_product_check,
    fibre_product_finite,
    hom_search,
    symmetric_group,
    transitive_groups,
)
from .presentations import (
    CatalogEntry,
    CatalogError,
    ParseError,
    Presentation,
    catalog,
    direct_product,
    parse_presentation,
)
from .words import Alphabet, Word, WordError, commutator
from .zlattice import (
    AbelianInvariants,
    IntMatrix,
    LatticeError,
    SnfResult,
    abelianization,
    exponent_matrix,
    is_perfect,
    lattice_solve,
    smith_normal_form,
)

__version__ = "0.1.0"

__all__ = [
    "AbelianInvariants",
    "Alphabet",
    "Budget",
    "BudgetExhausted",
    "CatalogEntry",
    "CatalogError",
    "ConstructionError",
    "CosetError",
    "CosetTable",
    "DehnSolver",
    "DehnTrace",
    "Exhausted",
    "Fingerprint",
    "FingerprintComparison",
    "GroupHom",
    "GrothendieckEvidence",
    "HomologyError",
    "IntMatrix",
    "L0Instance",
    "L0Report",
    "LatticeError",
    "ParseError",
    "PermError",
    "PermGroup",
    "PieceReport",
    "PipelineResult",
    "Presentation",
    "RipsError",
    "RipsResult",
    "SchurReport",
    "SmallCancellationError",
    "SnfResult",
    "UceResult",
    "Word",
    "WordError",
    "abelianization",
    "alternating_group",
    "aspherical_h2_rank",
    "baumslag_iso_test",
    "catalog",
    "check_generation",
    "check_metric",
    "commutator",
    "cyclic_group",
    "de_bruijn_bits",
    "direct_product",
    "epi_count_product_check",
    "exponent_matrix",
    "fibre_generators",
    "fibre_product_finite",
    "fingerprint_compare",
    "grothendieck_evidence",
    "hom_search",
    "is_perfect",
    "lattice_solve",
    "lemma_l0_check",
    "low_index",
    "parse_presentation",
    "pipeline",
    "reidemeister_schreier",
    "rips",
    "schur_multiplier",
    "smith_normal_form",
    "symmetric_group",
    "todd_coxeter",
    "transitive_groups",
    "uce",
    "__version__",
]
