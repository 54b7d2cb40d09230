"""Analysis utilities: Zipf fitting, Fig. 3 distributions, table printing."""

from repro.analysis.zipf import fit_zipf_exponent
from repro.analysis.metrics import (
    term_access_frequency_series,
    utilization_rate_series,
)
from repro.analysis.tables import format_table

__all__ = [
    "fit_zipf_exponent",
    "term_access_frequency_series",
    "utilization_rate_series",
    "format_table",
]
