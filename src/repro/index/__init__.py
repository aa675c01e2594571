"""The native index: a B+-tree.

This is the built-in access method the paper contrasts domain indexes
against ("analogous to those built natively by the database system").
"""

from repro.index.btree import BTree

__all__ = ["BTree"]
