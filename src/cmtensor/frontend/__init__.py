"""Session DSL frontend: parser, executor, reports, and the CLI."""

from .executor import execute
from .parser import Session, parse_session
from .report import CommandResult, RunReport

__all__ = [
    "CommandResult",
    "RunReport",
    "Session",
    "execute",
    "parse_session",
]
