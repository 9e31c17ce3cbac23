"""Security analysis of the entanglement-based qutrit key-distribution
protocol (3DEB): phase bases and entangled states, the parametrized
cloning attack, information crossing points, threshold constants, and
Monte Carlo protocol sessions."""

__version__ = "0.1.0"

from .cloner import (ClonerParams, FidelityReport, clone_state, closed_form_report,
                     fourier_dual, phi_cloner_matrix)
from .qudit import BasisSpec, conjugate_phi_basis_state, error_operator, optimal_bases
from .security import (CrossingError, CrossingResult, ErrorRateRow, InfoReport,
                       PRESETS, ProtocolPreset, SymmetricResult,
                       ThresholdConstants, bob_information, ck_rate_bound,
                       crossing_point, error_rate_table, eve_information,
                       fidelity_from_visibility, info_report, information_sweep,
                       resolve_preset, symmetric_point, thresholds)
from .simulate import (Channel, CloningAttackChannel, ComparisonRecord,
                       DepolarizingChannel, PairedIndexSifting, SimConfig,
                       SimResult, SurveyResult, basis_correlation_survey,
                       empirical_vs_analytic, round_distribution, run_session)
