"""Storage engine: pages, buffer cache, heap tables, IOTs, LOBs, file store."""

from repro.storage.page import Page, PAGE_SIZE, estimate_size
from repro.storage.buffer import BufferCache, IOStats
from repro.storage.heap import HeapTable
from repro.storage.iot import IndexOrganizedTable, LogicalRowId
from repro.storage.lob import LobManager, LobLocator
from repro.storage.filestore import FileStore, ExternalFile

__all__ = [
    "Page",
    "PAGE_SIZE",
    "estimate_size",
    "BufferCache",
    "IOStats",
    "HeapTable",
    "IndexOrganizedTable",
    "LogicalRowId",
    "LobManager",
    "LobLocator",
    "FileStore",
    "ExternalFile",
]
