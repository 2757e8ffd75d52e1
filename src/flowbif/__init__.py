"""Local structure and bifurcation of planar divergence-free vector fields.

Classifies isolated degenerate zeros of polynomial fields, predicts whether
a first-order time family bifurcates when the parameter crosses t0, and
checks the prediction numerically via root isolation, winding indices, and
separatrix-graph signatures.
"""

__version__ = "0.1.0"

from .bifurcation import (
    BifurcationReport,
    Branch,
    BranchPrediction,
    GenericityReport,
    PerturbationData,
    Verification,
    analyze,
    branch_asymptotics,
    check_generic_membership,
    decide,
    extract_perturbation,
)
from .errors import (
    AnalysisRefusal,
    BudgetExceededError,
    CurveZeroError,
    FieldFileError,
    FlowbifError,
    InvalidCaseDataError,
    IsolationOrderError,
    NotSimpleError,
    StepLimitError,
    UnsupportedCaseError,
    WindingConvergenceError,
)
from .field import Frame, PolyVectorField, TimeFamily
from .fieldfile import (
    family_to_text,
    field_to_text,
    load_field_file,
    parse_field_file,
    parse_field_text,
)
from .poly import Poly2
from .render import render_portrait, write_portrait
from .singular import (
    DegeneracyData,
    SearchOptions,
    SingularPoint,
    case_label,
    classify_point,
    extract_degeneracy,
    find_singular_points,
    make_normal_form,
)
from .topology import (
    Orbit,
    TopologySignature,
    equivalent,
    integrate_streamline,
    separatrices,
    separatrix_portrait,
    signature,
)
from .winding import IndexResult, index_on_box, index_sum, winding_index

__all__ = [
    "AnalysisRefusal",
    "BifurcationReport",
    "Branch",
    "BranchPrediction",
    "BudgetExceededError",
    "CurveZeroError",
    "DegeneracyData",
    "FieldFileError",
    "FlowbifError",
    "Frame",
    "GenericityReport",
    "IndexResult",
    "InvalidCaseDataError",
    "IsolationOrderError",
    "NotSimpleError",
    "Orbit",
    "PerturbationData",
    "Poly2",
    "PolyVectorField",
    "SearchOptions",
    "SingularPoint",
    "StepLimitError",
    "TimeFamily",
    "TopologySignature",
    "UnsupportedCaseError",
    "Verification",
    "WindingConvergenceError",
    "analyze",
    "branch_asymptotics",
    "case_label",
    "check_generic_membership",
    "classify_point",
    "decide",
    "equivalent",
    "extract_degeneracy",
    "extract_perturbation",
    "family_to_text",
    "field_to_text",
    "find_singular_points",
    "index_on_box",
    "index_sum",
    "integrate_streamline",
    "load_field_file",
    "make_normal_form",
    "parse_field_file",
    "parse_field_text",
    "render_portrait",
    "separatrices",
    "separatrix_portrait",
    "signature",
    "winding_index",
    "write_portrait",
]
