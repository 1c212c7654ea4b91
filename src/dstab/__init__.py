"""Regional pole placement (D-stability) certification and synthesis for
networked linear systems, with a DC-microgrid application layer."""

__version__ = "0.1.0"

from .cpoly import (
    CPoly,
    CRational,
    roots,
)
from .devices import (
    ComplianceReport,
    CplParams,
    Equilibrium,
    EssBoostParams,
    EssBuckParams,
    GenericSecondOrder,
    PvParams,
    bound_hs,
    bound_lhp,
    bound_sector,
    check_compliance,
    coeffs_ess_boost,
    coeffs_ess_buck,
    coeffs_pv,
    cpl_tf,
    equilibrium_solve,
    loop_transform,
)
from .dstability import (
    CertificationReport,
    SystemModel,
    assemble_closed_loop,
    certify_thm1,
    certify_thm2,
    closed_loop_poles,
    verify_region,
)
from .network import (
    AdmittanceMatrix,
    GridCode,
    NodePartition,
    check_rotated_psd,
    grid_code,
    network_matrix,
    schur_xi,
)
from .positivity import (
    FailedCondition,
    PositivityReport,
    check_positive_siso,
)
from .regions import (
    CompositeRegion,
    HalfPlaneRegion,
    horizontal_strip,
    sector,
    shifted_lhp,
)
from .scenario import Scenario, build_model, data_path, load_scenario
from .sim import DisturbanceSpec, Trajectory, metrics, simulate
