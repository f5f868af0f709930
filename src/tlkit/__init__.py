"""tlkit: Temperley-Lieb planar diagrams, exactly.

Enumeration of the loop-free diagram basis (Catalan many per dimension),
diagram composition with closed loops factored out as powers of the loop
parameter d, matrix representations of the generators over the diagram
basis, verification of the defining relations, and the bracket image of
braid words with d = -A^2 - A^-2.

All arithmetic is exact (integer Laurent polynomials); all values are
immutable and safe to share across threads.  The kernels on plain
partner tuples (basis enumeration, pairing composition, the generator
rule and the basis maps built from it, the composition table and the
diagram line walk) are plain Python in ``tlkit._backend``; the package
has no dependencies outside the standard library.

The names in ``__all__`` are loaded lazily (PEP 562): ``import tlkit``
imports none of the submodules, and the first use of a name such as
``tlkit.braid_image`` imports its home module.  ``dir(tlkit)`` and
``from tlkit import *`` see every exported name as before.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the kernel implementation; there is one, in pure Python."""
    return "python"


#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "BraidWord": "braids",
    "braid_image": "braids",
    "braid_image_matrix": "braids",
    "kauffman_loop_value": "braids",
    "verify_artin": "braids",
    "compose": "composition",
    "compose_scaled": "composition",
    "ConnectabilityMatrix": "diagrams",
    "PlanarDiagram": "diagrams",
    "ScaledDiagram": "diagrams",
    "canonical_compare": "diagrams",
    "connectability": "diagrams",
    "is_noncrossing": "diagrams",
    "parse": "diagrams",
    "restrict_connectability": "diagrams",
    "serialize": "diagrams",
    "emit_figure": "drawing",
    "TLElement": "elements",
    "multiply": "elements",
    "DiagramBasis": "enumeration",
    "catalan": "enumeration",
    "enumerate_diagrams": "enumeration",
    "identity_diagram": "enumeration",
    "LaurentPoly": "laurent",
    "PolyMatrix": "matrices",
    "Generator": "representation",
    "GeneratorMatrix": "representation",
    "IdealPartition": "representation",
    "RelationReport": "representation",
    "generator_matrices": "representation",
    "generator_matrix": "representation",
    "generators": "representation",
    "ideal_partition": "representation",
    "left_multiply": "representation",
    "representation_basis": "representation",
    "verify_tl_relations": "representation",
    "verify_tl_relations_diagrams": "representation",
}

__all__ = sorted([*_EXPORTS, "kernel_backend"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

