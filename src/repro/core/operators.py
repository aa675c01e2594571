"""User-defined operators.

Section 2.2.2: "A user-defined operator is a top level schema object ...
and has a set of one or more bindings associated with it.  An operator
binding identifies the operator with a unique signature (via argument
data types), and allows associating a function that provides an
implementation for the operator."

Operators also model the *ancillary* notion of §2.4.2 (``Score``): an
ancillary operator produces auxiliary data computed by the primary
operator's domain-index scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.errors import OperatorBindingError
from repro.types.datatypes import DataType


@dataclass
class OperatorBinding:
    """One signature of an operator and its functional implementation."""

    arg_types: List[DataType]
    return_type: DataType
    function_name: str

    def matches(self, arg_types: Sequence[DataType]) -> bool:
        """True when call-site argument types can bind to this signature."""
        if len(arg_types) < len(self.arg_types):
            return False
        # extra trailing arguments are allowed (PARAMETERS-style string
        # arguments and ancillary labels)
        return all(actual.is_compatible_with(declared)
                   for actual, declared in zip(arg_types, self.arg_types))

    def signature(self) -> str:
        """Human-readable signature for error messages and the catalog."""
        args = ", ".join(repr(t) for t in self.arg_types)
        return f"({args}) RETURN {self.return_type!r} USING {self.function_name}"


@dataclass
class Operator:
    """A user-defined operator schema object."""

    name: str
    bindings: List[OperatorBinding] = field(default_factory=list)
    #: Name of the primary operator this one is ancillary to (e.g. Score
    #: is ancillary to Contains), or None for a primary operator.
    ancillary_to: Optional[str] = None

    @property
    def key(self) -> str:
        return self.name.lower()

    @property
    def is_ancillary(self) -> bool:
        return self.ancillary_to is not None

    def resolve_binding(self, arg_types: Sequence[DataType]) -> OperatorBinding:
        """Pick the first binding compatible with the call-site types."""
        for binding in self.bindings:
            if binding.matches(arg_types):
                return binding
        available = "; ".join(b.signature() for b in self.bindings) or "<none>"
        raise OperatorBindingError(
            f"no binding of operator {self.name} matches argument types "
            f"{[repr(t) for t in arg_types]}; available: {available}")
