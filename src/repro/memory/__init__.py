"""Memory subsystem: caches, MSHRs, prefetcher, DRAM, and the hierarchy."""

from .cache import Cache, CacheLine
from .dram import DRAMModel, SOURCES
from .hierarchy import AccessResult, MemoryHierarchy
from .mshr import MSHRFile
from .prefetcher import StreamPrefetcher

__all__ = [
    "Cache",
    "CacheLine",
    "DRAMModel",
    "SOURCES",
    "AccessResult",
    "MemoryHierarchy",
    "MSHRFile",
    "StreamPrefetcher",
]
