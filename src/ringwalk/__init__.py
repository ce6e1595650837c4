"""Exact Grover walks on unitary and quadratic unitary Cayley graphs.

Rings are finite commutative with unity, given as products of local
factors (integers mod p^k, truncated polynomial rings, Galois fields).
Graphs connect elements differing by a unit, or by a square unit up to
sign.  The walk engine is exact end to end: integer-scaled powering of
the evolution on the arcs, characteristic polynomials over the integers,
eigenvalues as quadratic (or multiquadratic) irrationals, and
perfect-state-transfer certificates with explicit times and phases.
"""

from .errors import FormulaNotApplicable, InconsistencyError, SizeCapExceeded
from .graphs import (Graph, Permutation, cayley_graph, graph_json,
                     quadratic_unitary_cayley_graph, tensor_product, to_dot,
                     unitary_cayley_graph)
from .intpoly import charpoly, cyclotomic, euler_phi, two_cos_minimal_poly
from .rings import (ConnectionSet, ProductRing, RingElement, enumerate_rings,
                    is_s_ring, local_catalog, make_ring, quadratic_connection,
                    square_units, units)
from .scalars import Surd, exact_str
from .verify import (PredictedSpectrum, VerificationRecord, ideal_product,
                     local_quadratic_splitting, predicted_periodic_quadratic,
                     predicted_periodic_unitary, predicted_pst_quadratic,
                     predicted_pst_unitary, predicted_quadratic_spectrum,
                     predicted_unitary_spectrum, quadratic_regime, sweep,
                     unitary_isomorphism, verify_ring)
from .walks import (PSTPair, PSTReport, SpectralLine, SpectralReport,
                    bruteforce_period, classify_spectrum, find_pst, period)

# Loaded with the package, so that importing argparse and building the
# parser are paid at import and not by whichever command runs first.
from . import cli  # noqa: F401

__version__ = "0.1.0"

__all__ = [
    "FormulaNotApplicable", "InconsistencyError", "SizeCapExceeded",
    "Graph", "Permutation", "cayley_graph", "graph_json",
    "quadratic_unitary_cayley_graph", "tensor_product", "to_dot",
    "unitary_cayley_graph",
    "charpoly", "cyclotomic", "euler_phi", "two_cos_minimal_poly",
    "ConnectionSet", "ProductRing", "RingElement", "enumerate_rings",
    "is_s_ring", "local_catalog", "make_ring", "quadratic_connection",
    "square_units", "units",
    "Surd", "exact_str",
    "PredictedSpectrum", "VerificationRecord", "ideal_product",
    "local_quadratic_splitting", "unitary_isomorphism",
    "predicted_periodic_quadratic",
    "predicted_periodic_unitary", "predicted_pst_quadratic",
    "predicted_pst_unitary", "predicted_quadratic_spectrum",
    "predicted_unitary_spectrum", "quadratic_regime", "sweep", "verify_ring",
    "PSTPair", "PSTReport", "SpectralLine", "SpectralReport",
    "bruteforce_period", "classify_spectrum", "find_pst", "period",
    "__version__",
]
