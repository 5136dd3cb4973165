"""Geometric control toolkit for the (4,7) trident mechanism.

The public names below are resolved lazily (PEP 562): ``import trident47``
loads no submodule, and the numeric mechanism analyses never load sympy.
A name's submodule is imported on first access, and the submodules
themselves stay reachable as attributes (``trident47.pmp``).
"""
import importlib

_EXPORTS = {
    "errors": ("ChartMismatch", "DegenerateGrowth", "DivisionByZero", "NotASymmetry",
               "SingularConfiguration", "TridentError", "ZeroCombination",
               "ZeroHorizontalMomentum"),
    "charts": ("ADAPTED", "ORIGINAL"),
    "fields": ("VectorFieldSym", "coordinate_field", "coords", "differentiate", "evaluate",
               "fields_equal", "lie_bracket", "zero_field"),
    "mechanism": ("Configuration", "ControllabilityResult", "DynamicPairResult",
                  "MechanismConstants", "SignatureResult", "check_dynamic_pair",
                  "controllability", "horizontal_frame", "horizontal_frame_slice",
                  "leg_span", "pfaff_matrix", "pfaffian_signature",
                  "reference_configuration", "wheel_positions"),
    "nilpotent": ("AdaptedPoint", "check_left_invariance",
                  "check_path_geometry_conditions", "from_adapted", "group_identity",
                  "group_inverse", "group_mul", "nilpotent_frame", "to_adapted"),
    "pmp": ("BracketMotionParams", "FibreState", "SolutionConstants", "Trajectory",
            "base_rhs", "bracket_motion", "closed_form_base", "closed_form_fibre",
            "exp_map", "example_momenta", "example_solution", "fibre_rhs", "hamiltonian",
            "integrate_extremal", "normalize_arclength", "read_trajectory_csv",
            "write_trajectory_csv"),
    "symmetry": ("SymmetryField", "check_symmetry_conditions", "fixed_point_set",
                 "so3_combination", "so3_structure", "symmetry_flow", "v_fields",
                 "w_fields"),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
