"""Exact Eynard-Orantin recursion on the framed vertex mirror curve.

The engine runs the topological recursion on x + y^f + y^(f+1) = 0 in
exact rational arithmetic, stores correlators as coefficient tensors over
the pole basis at the single ramification point, extracts triple-Hodge
brackets, and checks the genus-g free energies against their Bernoulli
closed form.
"""

from .bernoulli import bernoulli
from .curve import (FramedCurve, bergman_self_pairing, conjugate_series,
                    omega_diff_series, recursion_kernel)
from .errors import (CalibrationError, EorecError, LogBranchError,
                     NotRepresentableError, PeelError, WindowError)
from .hodge import (EnergyRow, HodgeTable, bernoulli_energy, energy_table,
                    free_energy_direct, free_energy_shortcut, hodge_extract,
                    lambda_top_coefficient, lambda_triple, residue_theta_psi,
                    theta_series)
from .laurent import MLaurent
from .psi import PsiTable, psi_table, shift_step
from .recursion import Conventions, CorrDiff, CorrStore, window_policy
from .reference import reference_correlators, two_point_genus_one_readings
from .scalars import format_rational, parse_rational
from .series import Series
from .verify import VerifyReport, build_stores, run_verification

__version__ = "0.1.0"

__all__ = [
    "bernoulli", "FramedCurve", "bergman_self_pairing", "conjugate_series",
    "omega_diff_series", "recursion_kernel", "CalibrationError", "EorecError",
    "LogBranchError", "NotRepresentableError", "PeelError", "WindowError",
    "EnergyRow", "HodgeTable", "bernoulli_energy", "energy_table",
    "free_energy_direct", "free_energy_shortcut", "hodge_extract",
    "lambda_top_coefficient", "lambda_triple", "residue_theta_psi",
    "theta_series", "MLaurent", "PsiTable", "psi_table", "shift_step",
    "Conventions", "CorrDiff", "CorrStore", "window_policy",
    "reference_correlators", "two_point_genus_one_readings",
    "format_rational", "parse_rational", "Series",
    "VerifyReport", "build_stores", "run_verification",
]
