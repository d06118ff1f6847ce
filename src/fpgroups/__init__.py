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
subcommands emitting one JSON run-report per invocation.  The package root
exports the names of the README's library example; everything else is
imported from its module (``fpgroups.cosets``, ``fpgroups.permrep``, ...).
"""

from .budget import Budget
from .cancellation import check_metric
from .construct import rips, uce
from .cosets import todd_coxeter
from .presentations import parse_presentation

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "check_metric",
    "parse_presentation",
    "rips",
    "todd_coxeter",
    "uce",
    "__version__",
]
