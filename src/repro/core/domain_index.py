"""Domain index instances.

"Using the Indextype schema object, an application-specific index can be
created.  Such an index is called a domain index ... created, managed,
and accessed by routines supplied by an indextype." (§1)

A :class:`DomainIndex` is the catalog's record of one such index: which
table/columns it covers, which indextype implements it, the current
PARAMETERS string, and its **health state** — the server-side record of
whether the cartridge's routines can currently be trusted for this
index.  The state machine mirrors Oracle's domain-index status column:

* ``VALID`` — usable for scans, maintained on DML;
* ``IN_PROGRESS`` — a Create or Rebuild is running; not plannable;
* ``FAILED`` — ``ODCIIndexCreate`` (or a rebuild's create phase) died;
  the only legal operation is ``DROP INDEX`` (optionally ``FORCE``);
* ``UNUSABLE`` — a maintenance routine died (or the DBA issued ``ALTER
  INDEX ... UNUSABLE``); queries silently fall back to the operator's
  functional implementation and DML skips maintenance under the
  ``skip_unusable_indexes`` session setting; ``ALTER INDEX ... REBUILD``
  restores ``VALID``.

The record also keeps the ``format_version`` of the routines that wrote
the index's data.  An index opened under routines of another version is
UNUSABLE and carries an :class:`~repro.errors.IndexFormatError` naming
the REBUILD that rewrites it (:meth:`Catalog.open_domain_index
<repro.sql.catalog.Catalog.open_domain_index>`).

State transitions happen through :meth:`~repro.sql.catalog.Catalog.
set_index_state` so each one bumps the catalog version and invalidates
cached plans pinned to the old state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

from repro.core.odci import IndexMethods, ODCIIndexInfo
from repro.errors import IndexUnusableError


class IndexState(enum.Enum):
    """Health state of a domain index (Oracle's domidx_status)."""

    VALID = "VALID"
    IN_PROGRESS = "IN_PROGRESS"
    FAILED = "FAILED"
    UNUSABLE = "UNUSABLE"


@dataclass
class DomainIndex:
    """Catalog record of a domain index."""

    name: str
    table_name: str
    column_names: Tuple[str, ...]
    column_types: Tuple[Any, ...]
    indextype_name: str
    parameters: str = ""
    #: The per-index instance of the indextype's IndexMethods subclass.
    methods: Optional[IndexMethods] = None
    #: Health state; only VALID indexes are planned or maintained.
    state: IndexState = IndexState.VALID
    #: The user who created the index; its ODCI routines execute with
    #: this user's privileges (§2.5 definer rights).
    owner: str = "main"
    #: Ad-hoc state a cartridge wants to pin to the index across calls.
    scratch: dict = field(default_factory=dict)
    #: ``IndexMethods.format_version`` of the routines that wrote the
    #: index's data, recorded at CREATE and REBUILD.
    format_version: int = 1
    #: Why a non-VALID index cannot be used, when more is known than its
    #: state (an :class:`~repro.errors.IndexFormatError` after open).
    error: Optional[IndexUnusableError] = None

    @property
    def key(self) -> str:
        return self.name.lower()

    @property
    def valid(self) -> bool:
        """True only in the VALID state (the plannable/maintainable one)."""
        return self.state is IndexState.VALID

    def index_info(self) -> ODCIIndexInfo:
        """Build the ODCIIndexInfo descriptor passed to every ODCI routine."""
        return ODCIIndexInfo(
            index_name=self.name,
            index_schema="main",
            table_name=self.table_name,
            column_names=self.column_names,
            column_types=self.column_types,
            parameters=self.parameters,
        )
