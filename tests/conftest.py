"""Shared pytest hooks and helpers: collect acceptance-criterion results
and print one pass/fail line per criterion at the end of the run, and
rate modes of one gain matrix through the subset-rate table."""

import numpy as np

from dasrate.rate import row_sum_rates, subset_rates

_CRITERION_LINES: list[str] = []


def record_criterion(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    _CRITERION_LINES.append(f"criterion {number}: {status} - {detail}")


def pytest_terminal_summary(terminalreporter):
    if _CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_CRITERION_LINES):
            terminalreporter.write_line(line)


def mode_rates(pl, rows, snrs, kernel=None) -> np.ndarray:
    """(points x modes) sum rates of the (modes x ports) assignment
    ``rows`` on ``pl``'s gains."""
    return row_sum_rates(subset_rates(pl.gains[None], snrs, kernel), rows)[0]


def user_rates(pl, rows, snr) -> np.ndarray:
    """(modes x users) rates of the (modes x ports) assignment ``rows`` at
    linear SNR ``snr``, idle users 0: user k's is the sum rate of its own
    table row, on which it is user 1 and every other active port serves a
    user of no rate."""
    rows = np.asarray(rows)
    (table,) = subset_rates(pl.gains[None], [snr])
    return np.stack([row_sum_rates(table[None, :, [k]],
                                   np.where(rows == k + 1, 1, 2 * (rows != 0)))[0, 0]
                     for k in range(len(pl.gains))], axis=1)
