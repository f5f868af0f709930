"""tlkit: Temperley-Lieb planar diagrams, exactly.

Enumeration of the loop-free diagram basis (Catalan many per dimension),
diagram composition with closed loops factored out as powers of the loop
parameter d, matrix representations of the generators over the diagram
basis, verification of the defining relations, and the bracket image of
braid words with d = -A^2 - A^-2.

All arithmetic is exact (integer Laurent polynomials); all values are
immutable and safe to share across threads.  The two hot kernels
(basis enumeration and pairing composition) are plain Python in
``tlkit._backend``; the package has no dependencies outside the standard
library.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .braids import (
    BraidWord,
    braid_image,
    braid_image_matrix,
    kauffman_loop_value,
    verify_artin,
)
from .composition import compose, compose_scaled
from .diagrams import (
    ConnectabilityMatrix,
    PlanarDiagram,
    ScaledDiagram,
    canonical_compare,
    connectability,
    is_noncrossing,
    parse,
    restrict_connectability,
    serialize,
)
from .drawing import emit_figure
from .elements import TLElement, multiply
from .enumeration import DiagramBasis, catalan, enumerate_diagrams, identity_diagram
from .laurent import LaurentPoly
from .matrices import PolyMatrix
from .representation import (
    Generator,
    GeneratorMatrix,
    IdealPartition,
    RelationReport,
    generator_matrix,
    generators,
    ideal_partition,
    left_multiply,
    representation_basis,
    verify_tl_relations,
    verify_tl_relations_diagrams,
)


def kernel_backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "python"


__all__ = [
    "BraidWord",
    "ConnectabilityMatrix",
    "DiagramBasis",
    "Generator",
    "GeneratorMatrix",
    "IdealPartition",
    "LaurentPoly",
    "PlanarDiagram",
    "PolyMatrix",
    "RelationReport",
    "ScaledDiagram",
    "TLElement",
    "braid_image",
    "braid_image_matrix",
    "canonical_compare",
    "catalan",
    "compose",
    "compose_scaled",
    "connectability",
    "emit_figure",
    "enumerate_diagrams",
    "generator_matrix",
    "generators",
    "ideal_partition",
    "identity_diagram",
    "is_noncrossing",
    "kauffman_loop_value",
    "kernel_backend",
    "left_multiply",
    "multiply",
    "parse",
    "representation_basis",
    "restrict_connectability",
    "serialize",
    "verify_artin",
    "verify_tl_relations",
    "verify_tl_relations_diagrams",
]
