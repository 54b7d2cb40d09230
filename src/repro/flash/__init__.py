"""NAND-flash SSD simulator.

This subpackage replaces the paper's FlashSim/DiskSim (PSU) testbed.  It
models a NAND array with erase-before-write semantics and per-block erase
counters (:mod:`repro.flash.nand`), several flash translation layers
(page-mapping — the paper's baseline FTL — plus block-mapping, FAST and
DFTL for the related-work ablations), greedy garbage collection, and a
sector-addressed SSD device front-end with the latency parameters of the
paper's Table III.
"""

from repro.flash.constants import FlashConfig
from repro.flash.nand import NandArray, PageState
from repro.flash.ftl_base import FTL, FtlStats
from repro.flash.ftl_page import PageMappingFTL
from repro.flash.ftl_block import BlockMappingFTL
from repro.flash.ftl_fast import FastFTL
from repro.flash.ftl_dftl import DFTL
from repro.flash.ssd import SimulatedSSD
from repro.flash.wear import WearReport, wear_report
from repro.flash.wearlevel import WearLevelingFTL

__all__ = [
    "FlashConfig",
    "NandArray",
    "PageState",
    "FTL",
    "FtlStats",
    "PageMappingFTL",
    "BlockMappingFTL",
    "FastFTL",
    "DFTL",
    "SimulatedSSD",
    "WearReport",
    "wear_report",
    "WearLevelingFTL",
]
