"""Ergodic sum-rate analysis, mode selection, and Monte Carlo validation
for multi-user downlink distributed antenna systems."""

from .errors import CapacityError, ConfigError, DasRateError, NumericalFailureError
from .geometry import (PathlossMatrix, Scenario, db_to_linear,
                       default_port_layout, linear_to_db, load_scenario,
                       parse_scenario_config, pathloss_matrix, uniform_positions)
from .modes import (admissible, ideal_count, ideal_modes, min_distance_count, mode_label,
                    nearest_user_modes, parse_label)
from .numerics import exp_e1
from .rate import crossover_snr, row_sum_rates, select_rows, subset_rates
from .simulate import cell_average, mc_sum_rates, mode_histogram

__version__ = "0.1.0"

__all__ = [
    "CapacityError", "ConfigError", "DasRateError", "NumericalFailureError",
    "PathlossMatrix", "Scenario",
    "admissible", "cell_average", "crossover_snr", "db_to_linear", "default_port_layout",
    "exp_e1", "ideal_count", "ideal_modes", "linear_to_db", "load_scenario",
    "mc_sum_rates", "min_distance_count", "mode_histogram", "mode_label",
    "nearest_user_modes", "parse_label", "parse_scenario_config", "pathloss_matrix",
    "row_sum_rates", "select_rows", "subset_rates", "uniform_positions",
]
