"""Crystallographic groups, flat orbifolds, and their collapsed limits."""

from .catalog import catalog_get, catalog_list, generalized_klein_bottle, torus
from .collapse import (
    CollapseResult,
    collapse,
    product_resolution,
    rational_closure,
    rational_isotypic_components,
    verify_theorem_c,
)
from .groups import (
    AffineElement,
    CrystalGroup,
    FlatOrbError,
    HolonomyData,
    group_from_dict,
    group_to_dict,
    load_group,
)
from .reps import (
    IsotypicComponent,
    IsotypicReport,
    isotypic_decompose,
    teich_report,
)
from .wallpaper import OrbifoldLabel, classify2, render_svg, singular_locus

__version__ = "0.1.0"

# The lattice layer needs numpy; it is imported on first use of one of these
# names (PEP 562), so ``import flatorb`` loads no numpy.
_LATTICE_NAMES = {
    "Lattice",
    "SpecialBasis",
    "check_diameter_bound",
    "covering_radius",
    "sequence_limit",
    "short_vectors",
    "special_basis",
}


def __getattr__(name: str):
    if name in _LATTICE_NAMES:
        from . import lattices

        return getattr(lattices, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AffineElement",
    "CollapseResult",
    "CrystalGroup",
    "FlatOrbError",
    "HolonomyData",
    "IsotypicComponent",
    "IsotypicReport",
    "Lattice",
    "OrbifoldLabel",
    "SpecialBasis",
    "catalog_get",
    "catalog_list",
    "check_diameter_bound",
    "classify2",
    "collapse",
    "covering_radius",
    "generalized_klein_bottle",
    "group_from_dict",
    "group_to_dict",
    "isotypic_decompose",
    "load_group",
    "product_resolution",
    "rational_closure",
    "rational_isotypic_components",
    "render_svg",
    "sequence_limit",
    "short_vectors",
    "singular_locus",
    "special_basis",
    "teich_report",
    "torus",
    "verify_theorem_c",
]
