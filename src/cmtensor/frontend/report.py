"""Run reports and their JSON form.

A document is exactly ``json.dumps(value, indent=2, sort_keys=True) +
"\\n"``, so any reader can reproduce its bytes, and a fixed (session,
prime, seed) yields byte-identical output once the per-command timing
fields, the one exclusion, are dropped.
"""

from __future__ import annotations

import json
from typing import NamedTuple

VERSION = "0.1.0"


def _canonical_json(value) -> str:
    """The canonical document of `value`: ``json.dumps`` with sorted keys
    and an indent of two, plus a newline."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


class CommandResult:
    """One statement's result; `ms`, its run time, is left out of ``==``."""

    def __init__(self, command: str, status: str, lhs=None, rhs=None, certificates: tuple = (),
                 assumptions: tuple = (), error: str | None = None, detail: str = "", ms: float = 0.0):
        self.command = command
        self.status = status  # ok | pass | fail | skipped | error
        self.lhs = lhs
        self.rhs = rhs
        self.certificates = certificates
        self.assumptions = assumptions
        self.error = error
        self.detail = detail
        self.ms = ms

    def _compared(self) -> tuple:
        return (self.command, self.status, self.lhs, self.rhs, self.certificates,
                self.assumptions, self.error, self.detail)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared() == other._compared()

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "command": self.command,
            "status": self.status,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "certificates": [dict(c) for c in self.certificates],
            "assumptions": list(self.assumptions),
            "error": self.error,
            "detail": self.detail,
        }
        if include_timing:
            out["ms"] = self.ms
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "CommandResult":
        return cls(
            command=data["command"],
            status=data["status"],
            lhs=data["lhs"],
            rhs=data["rhs"],
            certificates=tuple(dict(c) for c in data.get("certificates", [])),
            assumptions=tuple(data.get("assumptions", [])),
            error=data.get("error"),
            detail=data.get("detail", ""),
            ms=data.get("ms", 0.0),
        )


class RunReport(NamedTuple):
    prime: int
    seed: int
    results: tuple = ()
    version: str = VERSION

    @property
    def passed(self) -> bool:
        return all(r.status not in ("fail", "error") for r in self.results)

    def to_dict(self, include_timing: bool = True) -> dict:
        return {
            "version": self.version,
            "prime": self.prime,
            "seed": self.seed,
            "results": [r.to_dict(include_timing) for r in self.results],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunReport":
        return cls(
            prime=data["prime"],
            seed=data["seed"],
            results=tuple(CommandResult.from_dict(r) for r in data["results"]),
            version=data["version"],
        )

    def to_json(self, include_timing: bool = True) -> str:
        return _canonical_json(self.to_dict(include_timing))

    @classmethod
    def from_json(cls, text: str) -> "RunReport":
        return cls.from_dict(json.loads(text))

    def to_text(self, noun: str = "statements") -> str:
        """The human-readable report: one line per result, then a tally of
        the results (counted as `noun`) and the overall verdict."""
        lines = [f"cmtensor {self.version}  prime={self.prime}  seed={self.seed}"]
        for r in self.results:
            line = f"[{r.status}] {r.command}"
            if r.status in ("pass", "fail"):
                line += f"  :: lhs={r.lhs} rhs={r.rhs}"
            elif r.status == "ok" and r.lhs is not None:
                line += f"  :: {r.lhs}"
            if r.error:
                line += f"  !! {r.error}"
            if r.detail:
                line += f"  ({r.detail})"
            lines.append(line)
        counts = {}
        for r in self.results:
            counts[r.status] = counts.get(r.status, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"{len(self.results)} {noun}: {summary or 'none'}")
        lines.append("overall: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines) + "\n"
