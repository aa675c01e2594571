"""SQL engine: lexer, parser, catalog, planner, executor, sessions."""

from repro.sql.session import Cursor, Session

__all__ = ["Cursor", "Session"]
