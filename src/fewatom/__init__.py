"""Few-atom trap loss statistics.

Stochastic atom-number dynamics in a small trap, fluorescence trace synthesis,
step detection, per-occupancy rate fitting, and the repump-shielding model of
the dominant two-atom loss channel.
"""

from .trap import TrapConfig, depth_from_cos, effective_volume
from .channels import (ChannelSet, ShieldingParams, effective_betas,
                       outcome_probabilities, scaling_constant,
                       suppression_ratio)
from .markov import (EventLog, RateModel, TruncationError, master_stationary,
                     simulate, stationary_moments)
from .trace import FluorescenceTrace, binned_mean_counts, synthesize
from .detect import (Calibration, CalibrationError, DetectionQualityError,
                     DetectionReport, calibrate, detect)
from .fitting import (ConvergenceError, DegenerateDataError, EventRateTable,
                      FitResult, SuppressionFit, correct_coincidences,
                      extrapolate_beta_hcc, fit_rates, fit_repump_decay,
                      infer_temperature, tabulate)
from .config import PRESETS, ConfigError, RunConfig, build_config, load_config

__version__ = "0.1.0"

__all__ = [
    "TrapConfig", "depth_from_cos", "effective_volume",
    "ChannelSet", "ShieldingParams", "effective_betas",
    "outcome_probabilities", "scaling_constant", "suppression_ratio",
    "EventLog", "RateModel", "TruncationError", "master_stationary",
    "simulate", "stationary_moments",
    "FluorescenceTrace", "binned_mean_counts", "synthesize",
    "Calibration", "CalibrationError", "DetectionQualityError",
    "DetectionReport", "calibrate", "detect",
    "ConvergenceError", "DegenerateDataError", "EventRateTable", "FitResult",
    "SuppressionFit", "correct_coincidences", "extrapolate_beta_hcc",
    "fit_rates", "fit_repump_decay", "infer_temperature", "tabulate",
    "PRESETS", "ConfigError", "RunConfig", "build_config", "load_config",
    "__version__",
]
