"""mixedvol: mixed volumes of 3D convex polytopes, their spectral metric
graphs, and executable equality/stability/rigidity checks for the Minkowski
quadratic inequality, including the lower-dimensional (hyperplane) pipeline.
"""

from .bodies import (Edges, Facets, Polytope, SupportEvaluator, affine_dim,
                     approximate_ball, as_unit_vector, cube, enclosing_radii,
                     hull, minkowski_sum, random_hull, segment, shear,
                     simplex, truncate_vertex, unit, v_llm_zero)
from .errors import (BadMesh, BadParam, BadSpec, DegenerateInput,
                     DimensionError, InsufficientSpectrum, MixedVolError,
                     NumericalFailure, QuadratureFailure, SingularGM,
                     ZeroDenominator)
from .extremal import (EqualityCertificate, RigidityReport, StabilityReport,
                       StabilityWitness, certify_equality_fulldim,
                       rigidity_check, stability_witness,
                       weak_stability_check)
from .graph import (DiscretizedForm, KernelReport, MetricGraph,
                    SpectrumResult, StructuralReport, assemble, build_graph,
                    form_value, kernel_analysis, spectrum, structural_checks)
from .lowerdim import (ClusterReport, LowerSpectrumReport, assemble_lowerdim,
                       certify_equality_lowerdim, explicit_spectrum,
                       lowerdim_setup, verify_spectrum)
from .measures import (DeficitReport, NegativeMass, classical_functionals,
                       merge_atoms, mixed_area_measure, mixed_volume,
                       mixed_volume_via_measure, mixed_volume_xpp, mv3,
                       quadratic_deficit, vbbm_conewise)
from .quadrature import (ArcRestriction, Arcs, arc_sample_nodes,
                         integrate_evaluator, integrate_pair,
                         product_integral, restrict)

__version__ = "0.1.0"
