"""Server cost model (Section VII.C).

The paper's cost argument: DRAM is $14.5/GB and SSD $1.9/GB (2012
prices), so replacing most of the DRAM cache with a larger SSD cache cuts
server cost without hurting response time.  This module prices a server
configuration and combines it with measured performance into the
cost-performance numbers Fig. 18 argues from.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PriceList", "ServerConfig", "server_cost_usd", "cost_performance"]

GB = 1024**3


@dataclass(frozen=True)
class PriceList:
    """$ per GB for each medium (defaults: the paper's 2012 figures)."""

    dram_per_gb: float = 14.5
    ssd_per_gb: float = 1.9
    hdd_per_gb: float = 0.08

    def __post_init__(self) -> None:
        if min(self.dram_per_gb, self.ssd_per_gb, self.hdd_per_gb) < 0:
            raise ValueError("prices cannot be negative")


@dataclass(frozen=True)
class ServerConfig:
    """Storage bill of materials for one index server."""

    label: str
    dram_bytes: int
    ssd_bytes: int = 0
    hdd_bytes: int = 0

    def __post_init__(self) -> None:
        if min(self.dram_bytes, self.ssd_bytes, self.hdd_bytes) < 0:
            raise ValueError("capacities cannot be negative")


#: The paper's 2012 prices, which every configuration is costed at.
PRICES = PriceList()


def server_cost_usd(config: ServerConfig) -> float:
    """Storage cost of one server configuration."""
    return (
        config.dram_bytes / GB * PRICES.dram_per_gb
        + config.ssd_bytes / GB * PRICES.ssd_per_gb
        + config.hdd_bytes / GB * PRICES.hdd_per_gb
    )


def cost_performance(config: ServerConfig, throughput_qps: float) -> float:
    """Queries per second per storage dollar (higher is better)."""
    cost = server_cost_usd(config)
    if cost <= 0:
        raise ValueError("configuration has zero storage cost")
    return throughput_qps / cost
