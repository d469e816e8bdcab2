"""Exact verification of polarized Hodge structures on orbifold cohomology.

Layers: exact linear algebra over Q(i) (`exactla`, `filtration`, `report`),
pure and mixed Hodge structures with polarizations (`hodge`, `mhs`),
sector-level orbifold cohomology and its theorem checks (`orbifold`),
reflexive polytopes and hard Lefschetz verdicts for anticanonical
hypersurfaces (`toric`), and a JSON command line (`serialization`, `cli`).
"""

from .exactla import (GaussRational, QiMatrix, Subspace, as_gauss, extend_basis,
                      first_nonpositive_minor, image, is_positive_definite_hermitian,
                      kernel, rank, solve_unique)
from .filtration import DecreasingFiltration, IncreasingFiltration
from .hodge import (BilinearFormData, GradedSpace, HodgeStructureData,
                    LefschetzOperator, check_polarization, filtration_from_pieces,
                    hard_lefschetz_check, lefschetz_decomposition,
                    pieces_from_filtration, primitive_subspace, restrict_structure,
                    validate_hodge_structure, weil_operator)
from .mhs import (Bigrading, GradedQuotient, NilpotentOperator, OrbitPoint,
                  check_morphism_bidegree, check_orbit_polarized_at, check_pmhs,
                  evaluate_orbit, is_split_over_R, mhs_from_bigrading, nilpotent_exp,
                  real_form, weight_filtration)
from .orbifold import (GroupElementAction, OrbifoldAssembly, OrbifoldData, SectorData,
                       age, assemble_orbifold_cohomology, check_kaehler_orbit,
                       check_primitive_polarizations, check_total_pmhs, default_samples,
                       hlc_check, is_sl, orbifold_hard_lefschetz, tate_twist,
                       theorem_bigrading, validate_dims)
from .report import CheckItem, Report
from .toric import (LatticePolytope, SectorCandidate, cy_hypersurface_sectors,
                    face_lattice, hlc_verdict, is_reflexive, lattice_points_of_face,
                    polar_dual, relative_interior_points, unimodularly_equivalent,
                    wps_polytope)

__version__ = "0.1.0"
