"""Run reports and their JSON form.

Serialization is canonical (sorted keys, fixed indentation) so that a
fixed (session, prime, seed) yields byte-identical output; the per-command
timing fields are the one exclusion and can be dropped for comparisons.
"""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

VERSION = "0.1.0"


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value in (math.inf, -math.inf):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


# The text of a scalar, by its exact class.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _float_text,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


# An empty container with its comma, by its exact class.
_EMPTY = {dict: "{},", list: "[],", tuple: "[],"}


def _scalar_text(value) -> str:
    """The text of a scalar whose class is a subclass of a JSON one."""
    for base in (str, int, float):
        if isinstance(value, base):
            return _SCALARS[base](value)
    raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    """A dict key as ``json`` writes it, followed by the key separator."""
    if key is None or isinstance(key, (str, int, float)):
        text = key if isinstance(key, str) else _SCALARS.get(key.__class__, _scalar_text)(key)
        return encode_basestring_ascii(text) + ": "
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _canonical_json(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True) + "\\n"``, byte for byte.

    With an indent ``json`` takes its pure-Python encoder, which yields one
    piece per token.  This writer makes each line whole: a scalar, or a
    bracket, with its indent, key and comma.
    """
    out = []
    _json_lines(value, "", "", out, {})
    out.append("")
    return "\n".join(out)


def _json_lines(value, head: str, indent: str, out: list, keys: dict) -> None:
    """Append the lines of `value` to `out`: the first starts with `head`,
    and the items of a container are indented past `indent`.  `keys` holds
    the text of each string key met so far."""
    scalar = _SCALARS.get(value.__class__)
    if scalar is not None:
        out.append(head + scalar(value))
        return
    if isinstance(value, dict):
        items = sorted(value.items())
        opening, closing = "{", "}"
    elif isinstance(value, (list, tuple)):
        items = None
        opening, closing = "[", "]"
    else:
        out.append(head + _scalar_text(value))
        return
    if not value:
        out.append(head + opening + closing)
        return
    append = out.append
    inner = indent + "  "
    append(head + opening)
    for item in value if items is None else items:
        if items is None:
            lead = inner
        else:
            key, item = item
            text = keys.get(key) if key.__class__ is str else None
            if text is None:
                text = _key_text(key)
                if key.__class__ is str:
                    keys[key] = text
            lead = inner + text
        scalar = _SCALARS.get(item.__class__)
        if scalar is not None:
            append(lead + scalar(item) + ",")
        elif item.__class__ in _EMPTY and not item:
            append(lead + _EMPTY[item.__class__])
        else:
            _json_lines(item, lead, inner, out, keys)
            out[-1] += ","
    out[-1] = out[-1][:-1]
    append(indent + closing)


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
