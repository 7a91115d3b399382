"""mixedvol: mixed volumes of 3D convex polytopes, their spectral metric
graphs, and executable equality/stability/rigidity checks for the Minkowski
quadratic inequality, including the lower-dimensional (hyperplane) pipeline.
"""

from .bodies import (Ball, Body, Edges, Facets, Polytope, SupportEvaluator,
                     TrivialityReport, affine_dim, approximate_ball,
                     as_unit_vector, classify_trivial, cube, enclosing_radii,
                     hull, minkowski_sum, random_hull, segment, shear,
                     simplex, support_data, truncate_vertex, unit, unit_ball)
from .errors import (BadMesh, BadParam, BadSpec, DegenerateInput,
                     DimensionError, InsufficientSpectrum, MixedVolError,
                     NegativeMass, NumericalFailure, QuadratureFailure,
                     SingularGM, ZeroDenominator)
from .extremal import (EqualityCertificate, RigidityReport, StabilityReport,
                       StabilityWitness, certify_equality_fulldim,
                       rigidity_check, stability_witness,
                       weak_stability_check)
from .graph import (DiscretizedForm, KernelReport, MetricGraph,
                    PoincareReport, SpectrumResult, StructuralReport,
                    assemble, build_graph, edge_poincare_check, form_value,
                    kernel_analysis, sbm_and_mu, spectrum, structural_checks)
from .lowerdim import (ClusterReport, CylinderLimitReport, LowerDimProblem,
                       LowerEqualityCertificate, LowerSpectrumReport,
                       assemble_lowerdim, certify_equality_lowerdim,
                       cylinder_limit_check, explicit_spectrum,
                       lowerdim_setup, sbm_lowerdim, verify_spectrum)
from .measures import (DeficitReport, area_measure, classical_functionals,
                       merge_atoms, mixed_area_measure, mixed_volume,
                       mixed_volume_via_measure, mixed_volume_xpp, mv3,
                       quadratic_deficit, vbbm_conewise)
from .quadrature import (ArcFrame, ArcRestriction, Arcs, SphericalMeasure,
                         arc_between, arc_sample_nodes,
                         integrate_against_measure, integrate_evaluator,
                         integrate_pair, product_integral, restrict,
                         sup_on_arcs)

__version__ = "0.1.0"
