"""Structured verification reports.

A report is a keyed collection of check records. Records are addressed by
their ``check_tag`` (plus bracketed qualifiers for parametrized checks), so
merging reports is order-independent and two runs over the same inputs
produce byte-identical serializations.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _encode_str


@dataclass(frozen=True)
class CheckRecord:
    """One pass/fail verdict with its quantitative context.

    ``value`` is the measured quantity, ``target`` what it was compared
    against; exactly one of ``tolerance`` (deterministic checks) or
    ``std_error`` (statistical checks) is normally set.
    """

    check_tag: str
    verdict: bool
    value: float | None = None
    target: float | None = None
    tolerance: float | None = None
    std_error: float | None = None
    worst_node: str | None = None
    notes: tuple[str, ...] = ()
    details: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict[str, object] = {
            "check_tag": self.check_tag,
            "verdict": "pass" if self.verdict else "fail",
            "value": self.value,
            "target": self.target,
        }
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.std_error is not None:
            out["std_error"] = self.std_error
        if self.worst_node is not None:
            out["worst_node"] = self.worst_node
        if self.notes:
            out["notes"] = list(self.notes)
        if self.details:
            out["details"] = _plain(self.details)
        return out


_LITERALS = {None: "null", True: "true", False: "false"}
# JSON kind of the exact built-in types; a literal's kind is bool
_KINDS = {float: float, str: str, int: int, bool: bool, type(None): bool, dict: dict, list: list, tuple: list}


def _json_kind(obj):
    """The JSON kind of ``obj`` by ``json``'s isinstance tests, in
    ``json``'s order: TypeError for a type ``json`` refuses."""
    if isinstance(obj, str):
        return str
    if obj is None or obj is True or obj is False:
        return bool
    for kind, types in ((int, int), (float, float), (list, (list, tuple)), (dict, dict)):
        if isinstance(obj, types):
            return kind
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _write_json(obj, newline, out):
    """Append the JSON of ``obj`` to ``out`` as ``json.dumps(obj, indent=2,
    sort_keys=True, allow_nan=False)`` writes it, with ``newline`` (a line
    break and the indent of the enclosing level) before its closing
    bracket. Floats, numpy's float subclasses among them, print by
    ``float.__repr__``, and a non-finite float is refused with ``json``'s
    ValueError. Keys must be strings."""
    kind = _KINDS.get(type(obj)) or _json_kind(obj)
    if kind is float:
        if not math.isfinite(obj):
            raise ValueError("Out of range float values are not JSON compliant: " + repr(obj))
        out.append(float.__repr__(obj))
    elif kind is str:
        out.append(_encode_str(obj))
    elif kind is int:
        out.append(int.__repr__(obj))
    elif kind is bool:
        out.append(_LITERALS[obj])
    elif not obj:
        out.append("{}" if kind is dict else "[]")
    elif kind is dict:
        inner = newline + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep + _encode_str(key) + ": ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    else:
        inner = newline + "  "
        sep = "[" + inner
        for item in obj:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")


_PLAIN_LEAVES = frozenset((float, int, str, bool, type(None)))


def _plain(obj):
    """Mappings, sequences and numpy scalars as JSON-safe types."""
    if type(obj) in _PLAIN_LEAVES:
        return obj
    import numpy as np

    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    return obj


class VerificationReport:
    """Keyed set of CheckRecords with stable serialization."""

    def __init__(self, records: Iterable[CheckRecord] = ()):
        self._records: dict[str, CheckRecord] = {}
        for rec in records:
            self.add(rec)

    def add(self, rec: CheckRecord) -> None:
        if rec.check_tag in self._records:
            raise ValueError(f"duplicate check tag {rec.check_tag!r}")
        self._records[rec.check_tag] = rec

    def merge(self, other: "VerificationReport") -> "VerificationReport":
        """Add every record of ``other`` into this report (returns self)."""
        for rec in other._records.values():
            self.add(rec)
        return self

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, tag: str) -> bool:
        return tag in self._records

    def __getitem__(self, tag: str) -> CheckRecord:
        return self._records[tag]

    def records(self) -> list[CheckRecord]:
        return [self._records[k] for k in sorted(self._records)]

    @property
    def all_passed(self) -> bool:
        return all(r.verdict for r in self._records.values())

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records() if not r.verdict]

    def to_dict(self) -> dict:
        return {
            "all_passed": self.all_passed,
            "checks": {k: self._records[k].to_dict() for k in sorted(self._records)},
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_dict(), indent=2, sort_keys=True,
        allow_nan=False)``, byte for byte, written directly: sorted keys
        plus repr-roundtrip floats make the output byte-stable."""
        out: list[str] = []
        _write_json(self.to_dict(), "\n", out)
        return "".join(out)

    def to_text(self) -> str:
        lines = []
        for rec in self.records():
            verdict = "PASS" if rec.verdict else "FAIL"
            parts = [f"[{verdict}] {rec.check_tag}"]
            if rec.value is not None:
                parts.append(f"value={rec.value:.10g}")
            if rec.target is not None:
                parts.append(f"target={rec.target:.10g}" if isinstance(rec.target, float) else f"target={rec.target}")
            if rec.tolerance is not None:
                parts.append(f"tol={rec.tolerance:g}")
            if rec.std_error is not None:
                parts.append(f"std_error={rec.std_error:.4g}")
            if rec.worst_node is not None:
                parts.append(f"worst_node={rec.worst_node}")
            lines.append("  ".join(parts))
            for note in rec.notes:
                lines.append(f"    note: {note}")
        lines.append(f"overall: {'PASS' if self.all_passed else 'FAIL'}")
        return "\n".join(lines)
