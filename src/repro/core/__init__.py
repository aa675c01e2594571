"""The extensible indexing framework — the paper's primary contribution.

This package defines the contract between the server and a cartridge:

* :mod:`repro.core.odci` — the ODCIIndex interface (definition,
  maintenance, scan routines) and its descriptor records,
* :mod:`repro.core.scan_context` — return-state/return-handle scan
  contexts and the workspace manager,
* :mod:`repro.core.operators` — user-defined operators and bindings,
* :mod:`repro.core.indextype` — the indextype schema object,
* :mod:`repro.core.domain_index` — domain index instances,
* :mod:`repro.core.stats` — the extensible-optimizer statistics
  interface (ODCIStatsSelectivity / ODCIStatsIndexCost),
* :mod:`repro.core.callbacks` — server callbacks with the §2.5 phase
  restrictions,
* :mod:`repro.core.dispatch` — the fault-isolating dispatcher every
  ODCI callback is routed through (§2.6–2.7 degradation).
"""

from repro.core.odci import (
    IndexMethods,
    IndexTable,
    ODCIEnv,
    ODCIIndexInfo,
    ODCIPredInfo,
    ODCIQueryInfo,
    FetchResult,
)
from repro.core.scan_context import ScanContext, PrecomputedScan, Workspace
from repro.core.operators import Operator, OperatorBinding
from repro.core.indextype import Indextype
from repro.core.dispatch import CallbackDispatcher, RoutineMetrics
from repro.core.domain_index import DomainIndex, IndexState
from repro.core.stats import StatsMethods, IndexCost
from repro.core.callbacks import CallbackSession, CallbackPhase

__all__ = [
    "CallbackDispatcher",
    "RoutineMetrics",
    "IndexState",
    "IndexMethods",
    "IndexTable",
    "ODCIEnv",
    "ODCIIndexInfo",
    "ODCIPredInfo",
    "ODCIQueryInfo",
    "FetchResult",
    "ScanContext",
    "PrecomputedScan",
    "Workspace",
    "Operator",
    "OperatorBinding",
    "Indextype",
    "DomainIndex",
    "StatsMethods",
    "IndexCost",
    "CallbackSession",
    "CallbackPhase",
]
