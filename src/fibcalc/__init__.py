"""fibcalc: a computer-algebra toolkit for fibered knots, fibered ribbon
disks, and fibered 2-knots, represented by monodromy data and probed through
computable invariants (Alexander polynomials, homology, finite-quotient
counts)."""

from .errors import (AbelianizationError, BudgetExceededError, CatalogError,
                     FibcalcError, InapplicableError, MalformedInputError,
                     MissingPayloadError, PreconditionError, RankMismatchError,
                     SchemaError, ScriptError, UnsupportedFiberError)
from .laurent import LaurentPoly, laurent_gcd, normalize_alexander
from .matrices import (IntMatrix, block_diag, char_poly, laurent_det, smith_diagonal,
                       smith_normal_form)
from .words import (FreeGroupMap, FreeWord, abelianize, apply_map, compose,
                    check_generator_names, handlebody_names, surface_names,
                    word_from_text, word_to_text)
from .mcg import (CompatibilityReport, CurveSpec, HandlebodyMonodromy,
                  SurfaceMonodromy, boundary_connected_sum, catalog_names,
                  cg_compatibility, compose_monodromy, curated_payload,
                  intersection, is_symplectic, mirror, symplectic_form,
                  transvection, twist_monodromy)
from .presentation import GroupPresentation, hnn_presentation
from .invariants import (FiniteGroupTable, alexander_from_presentation, count_homs,
                         finite_group, fox_matrix, group_catalog_names, h1,
                         infinite_cyclic_exponents)
from .fibered import (Ambient, FiberedKnot, alexander_poly, catalog_knot,
                      connected_sum, distinctness_bound,
                      dual_knot_surgery_descriptor, knot_group, mirror_knot,
                      stallings_twist)
from .ribbon_disk import (FiberType, FiberedDisk, boundary_knot,
                          boundary_surjectivity_check, disk_twist, doubled_boundary,
                          exterior_presentation, half_spin, is_homotopy_ribbon)
from .two_knot import (ContractibilityReport, FiberedTwoKnot, FillingDescriptor,
                       HalvingFamilyEntry, PlanEntry, SurgeryPlan, double_disk,
                       execute_plan, gluck, halving_family,
                       seifert_filling_multiplicity, spin, torus_surgery_plan,
                       torus_twist, two_knot_group)
from .script import (InvariantReport, Statement, SurgeryScript, build_report,
                     execute, parse_script)

__version__ = "0.1.0"
