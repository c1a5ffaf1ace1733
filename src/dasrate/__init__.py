"""Ergodic sum-rate analysis, mode selection, and Monte Carlo validation
for multi-user downlink distributed antenna systems."""

from .errors import (CapacityError, ConfigError, DasRateError,
                     DegenerateGainsError, NumericalFailureError)
from .geometry import (PathlossMatrix, Scenario, db_to_linear,
                       default_port_layout, drop_users_uniform, linear_to_db,
                       load_scenario, parse_scenario_config, pathloss_matrix)
from .modes import (CandidateSet, Origin, TransmissionMode, enumerate_ideal,
                    enumerate_min_distance, ideal_count, min_distance_count)
from .numerics import exp_e1
from .rate import (CrossoverFormulas, UserLinkPartition, crossover_snr,
                   pdf_interference_plus_noise, pdf_signal, pdf_sinr, row_sum_rates,
                   subset_rates)
from .selection import SelectionResult, compare_schemes
from .simulate import (McEstimate, RateCurve, RateSeries, cell_average, mc_sum_rates,
                       mode_histogram)

__version__ = "0.1.0"

__all__ = [
    "CandidateSet", "CapacityError", "ConfigError", "CrossoverFormulas",
    "DasRateError", "DegenerateGainsError", "McEstimate", "NumericalFailureError",
    "Origin", "PathlossMatrix", "RateCurve", "RateSeries", "Scenario",
    "SelectionResult", "TransmissionMode", "UserLinkPartition", "cell_average",
    "compare_schemes", "crossover_snr", "db_to_linear",
    "default_port_layout", "drop_users_uniform", "enumerate_ideal",
    "enumerate_min_distance", "exp_e1", "ideal_count", "linear_to_db", "load_scenario",
    "mc_sum_rates", "min_distance_count", "mode_histogram", "parse_scenario_config",
    "pathloss_matrix", "pdf_interference_plus_noise", "pdf_signal", "pdf_sinr",
    "row_sum_rates", "subset_rates",
]
