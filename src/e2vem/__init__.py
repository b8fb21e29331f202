"""Stabilization-free virtual element solver on polygonal meshes.

First-order method whose local space carries enough polynomial moment
information to make an L2 gradient projection of selectable degree l
computable from vertex values; choosing l per polygon yields a coercive
discrete form without any stabilization term.
"""

from .analysis import (ScanRow, StudyReport, StudyRow, coercivity_scan,
                       eoc_rates, run_convergence_study, scan_to_csv,
                       solution_errors)
from .assembly import (LinearSystem, ProblemSpec, SolutionResult,
                       SolveStats, assemble, assemble_full,
                       export_solution, linear_problem, sin_sin_problem,
                       solve, solve_problem)
from .degree import (AdmissibilityEvidence, DegreeAssignment,
                     assign_degrees, dim_badpoly, ell_check, ell_hat,
                     min_admissible_l, stiffness_rank)
from .errors import (AdmissibilityNotReached, DegenerateData, E2vemError,
                     InadmissibleDegrees, MissingExactSolution, NotSPD,
                     ParseError, RejectionBudgetExceeded,
                     StructuralDefect)
from .geometry import (MeshQuality, Polygon, PolygonalMesh,
                       build_polygon, validate_mesh)
from .meshgen import (MeshFamilySpec, PolygonFamilySpec, load_mesh,
                      make_mesh, make_polygon, save_mesh)
from .polyspace import monomial_exponents, space_dimension
from .projectors import ElementProjectors, build_projectors, compute_pinabla

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
