"""Domain types for command streams: commands, traces, and CSV I/O.

Timestamps are stored as integer microseconds so that event ordering in the
channel simulation is deterministic; every public accessor and constructor
speaks millisecond floats.
"""

from __future__ import annotations

import csv
import enum
import io
import json
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from functools import cached_property, partial
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import ConfigError, FormatError, InvalidTrace

US_PER_MS = 1000


def ms_to_us(ms: float) -> int:
    return round(ms * US_PER_MS)


def us_to_ms(us: int) -> float:
    return us / US_PER_MS


class Provenance(enum.Enum):
    """How an executed command slot was filled."""

    ORIGINAL = "original"
    FORECAST = "forecast"
    REPEAT_LAST = "repeat-last"


@dataclass(frozen=True)
class Command:
    """One d-dimensional joint-state sample and its generation timestamp."""

    seq: int
    joints: tuple[float, ...]
    gen_time_us: int
    provenance: Provenance = Provenance.ORIGINAL

    def __post_init__(self):
        if not isinstance(self.joints, tuple):
            object.__setattr__(self, "joints", tuple(float(x) for x in self.joints))

    @property
    def dim(self) -> int:
        return len(self.joints)

    @property
    def gen_time_ms(self) -> float:
        return us_to_ms(self.gen_time_us)

    @classmethod
    def at(
        cls,
        seq: int,
        joints: Iterable[float],
        gen_time_ms: float,
        provenance: Provenance = Provenance.ORIGINAL,
    ) -> "Command":
        """Construct from a millisecond timestamp."""
        return cls(seq, tuple(float(x) for x in joints), ms_to_us(gen_time_ms), provenance)


@dataclass(frozen=True, eq=False)
class Trace:
    """H commands generated at a fixed period, stored as a read-only (H, d)
    float array.

    Sample i has seq `seq0 + i` and generation time `start_us + i *
    period_us`, so contiguity and the schedule hold by construction. Traces
    built by the public constructors start at seq 0; slices keep their
    original indices so that split halves concatenate back exactly.
    """

    period_us: int
    start_us: int
    seq0: int
    joints: np.ndarray

    def __post_init__(self):
        if self.period_us <= 0:
            raise InvalidTrace(f"period must be positive, got {self.period_us} us")
        joints = np.array(self.joints, dtype=float)
        if joints.ndim != 2 or joints.shape[0] < 1 or joints.shape[1] < 1:
            raise InvalidTrace(f"joints must be an (H, d) array with H, d >= 1, got shape {joints.shape}")
        joints.setflags(write=False)
        object.__setattr__(self, "joints", joints)

    def __len__(self) -> int:
        return len(self.joints)

    def __getitem__(self, i: int) -> Command:
        return self.samples[i]

    @cached_property
    def samples(self) -> tuple[Command, ...]:
        """The rows as Commands with Python-float joints, built once."""
        return tuple(
            Command(self.seq0 + i, tuple(row), self.start_us + i * self.period_us)
            for i, row in enumerate(self.joints.tolist())
        )

    @property
    def dim(self) -> int:
        return self.joints.shape[1]

    @cached_property
    def period_ms(self) -> float:
        return us_to_ms(self.period_us)

    @property
    def start_ms(self) -> float:
        return us_to_ms(self.start_us)

    def joints_matrix(self) -> np.ndarray:
        """All joint vectors as the stored read-only (H, d) float array."""
        return self.joints

    def slice(self, start: int, stop: int) -> "Trace":
        start, stop, _ = slice(start, stop).indices(len(self))
        return Trace(
            self.period_us,
            self.start_us + start * self.period_us,
            self.seq0 + start,
            self.joints[start:stop],
        )

    @classmethod
    def from_joints(cls, joints, period_ms: float) -> "Trace":
        """Build a fresh trace (seq 0 at time 0) from an (H, d) array of joints."""
        return cls(ms_to_us(period_ms), 0, 0, joints)


@dataclass(frozen=True)
class RecoveryConfig:
    """Deadline tolerance and history length."""

    tolerance_ms: float = 0.0
    record_len: int = 20

    def __post_init__(self):
        if not self.tolerance_ms >= 0:
            raise ConfigError(f"tolerance_ms: tolerance must be >= 0, got {self.tolerance_ms}")
        if self.record_len < 1:
            raise ConfigError(f"record_len: record length must be >= 1, got {self.record_len}")


def read_json(path: str | Path, parse):
    """parse applied to the JSON document in a file. FormatError naming the
    file unless it is UTF-8 text holding one JSON value; a ConfigError from
    parse gets the file's path in front: `<file>: <section>.<field>: ...`."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from None
    try:
        return parse(doc)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def write_json(path: str | Path, doc) -> None:
    """Write doc as indented JSON via a sibling temp file and a rename, so
    readers never see a partial file and a failed write keeps the old one."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(json.dumps(doc, indent=2) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@contextmanager
def section(name: str):
    """Put name in front of any ConfigError raised inside: `name.field: ...`
    when its message starts with a field (`field: ...`), else `name: ...`."""
    try:
        yield
    except ConfigError as exc:
        head, sep, _ = str(exc).partition(": ")
        raise ConfigError(f"{name}{'.' if sep and ' ' not in head else ': '}{exc}") from None


def checked_number(value, name: str, integer: bool = False):
    """value itself if it is a JSON number within the float range (any
    integer when integer is set); otherwise a ConfigError naming the field."""
    if integer:
        ok = isinstance(value, int) and not isinstance(value, bool)
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max
    if not ok:
        raise ConfigError(f"{name}: expected {'an integer' if integer else 'a finite number'}, got {value!r}")
    return value


def checked_numbers(value, name: str, integer: bool = False, empty: bool = False) -> tuple:
    """value as a tuple if it is a JSON list of checked_number values, non-empty
    unless empty is set; otherwise a ConfigError naming the field or entry."""
    if not isinstance(value, list) or not (value or empty):
        raise ConfigError(f"{name}: expected a {'' if empty else 'non-empty '}list of numbers, got {value!r}")
    return tuple(checked_number(x, f"{name}[{k}]", integer) for k, x in enumerate(value))


def checked_text(value, name: str, none: bool = False):
    """value itself if it is a JSON string (or null when none is set);
    otherwise a ConfigError naming the field."""
    if not (isinstance(value, str) or none and value is None):
        raise ConfigError(f"{name}: expected a string{' or null' if none else ''}, got {value!r}")
    return value


# The checker of each dataclass field annotation a JSON document can set;
# np.ndarray takes a list of numbers that may be empty (a lag-0 model).
_JSON_FIELDS = {
    "int": partial(checked_number, integer=True),
    "float": checked_number,
    "tuple[int, ...]": partial(checked_numbers, integer=True),
    "tuple[float, ...]": checked_numbers,
    "np.ndarray": partial(checked_numbers, empty=True),
    "str": checked_text,
    "str | None": partial(checked_text, none=True),
}


def checked_fields(doc, *classes, extra: tuple[str, ...] = ()) -> list[dict]:
    """For each dataclass in classes, the keys of doc that name its fields,
    with their checked values, ready to pass to its constructor.

    doc must be an object whose every key is one of extra or names an init
    field of one of the classes with an annotation _JSON_FIELDS checks, and
    that holds every such field without a default; lists are returned as
    tuples. Any other input raises ConfigError naming the field.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"expected an object, got {doc!r}")
    known = {f.name: (cls, f) for cls in classes for f in fields(cls) if f.init and f.type in _JSON_FIELDS}
    found: dict = {cls: {} for cls in classes}
    for key, value in doc.items():
        if key in known:
            cls, f = known[key]
            found[cls][key] = _JSON_FIELDS[f.type](value, key)
        elif key not in extra:
            raise ConfigError(f"{key}: unknown key")
    for key, (_, f) in known.items():
        if key not in doc and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{key}: missing key")
    return list(found.values())


def split_dataset(trace: Trace, alpha: float) -> tuple[Trace, Trace]:
    """Split a trace into a leading training part and a trailing test part.

    The first output holds the first floor(alpha * H) samples, the second the
    remainder; concatenating the halves reproduces the input exactly.
    """
    if len(trace) < 2:
        raise InvalidTrace("need at least 2 samples to split")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must lie in (0, 1), got {alpha}")
    cut = int(alpha * len(trace))
    if cut < 1:
        raise ConfigError(f"alpha={alpha} leaves an empty training part for H={len(trace)}")
    return trace.slice(0, cut), trace.slice(cut, len(trace))


# ---------------------------------------------------------------------------
# Trace CSV format: header `t_ms,j1,...,jd`, one row per command, 6 decimals.

# Timestamps below this many microseconds in magnitude, so that the schedule
# check's int64 differences cannot wrap.
MAX_TIMESTAMP_US = 2**62
# The same bound for a period or a delay in milliseconds.
MAX_TIMESTAMP_MS = MAX_TIMESTAMP_US / US_PER_MS


def write_trace_csv(trace: Trace, path: str | Path) -> None:
    row = ",".join(["%.6f"] * (trace.dim + 1)) + "\r\n"
    times = [us_to_ms(trace.start_us + i * trace.period_us) for i in range(len(trace))]
    with Path(path).open("w", newline="") as fh:
        fh.write(",".join(["t_ms"] + [f"j{k + 1}" for k in range(trace.dim)]) + "\r\n")
        fh.writelines(row % (t, *values) for t, values in zip(times, trace.joints.tolist()))


def read_trace_csv(path: str | Path) -> Trace:
    """Read a trace from CSV; the period is inferred from the first two rows.

    Every row must have one cell per header column, each a finite number in
    the syntax np.loadtxt reads, and its timestamp must sit on the
    fixed-period schedule within +-2**62 microseconds. Blank lines are
    skipped. The file must be UTF-8 text.
    """
    path = Path(path)
    try:
        with path.open(encoding="utf-8") as fh:
            first = fh.readline()
            body = fh.read()
    except UnicodeDecodeError as exc:
        raise InvalidTrace(f"{path}: not UTF-8 text ({exc.reason})") from None
    header = next(csv.reader([first]), [])
    if not header or header[0] != "t_ms":
        raise InvalidTrace(f"{path}: expected header starting with t_ms")
    if len(header) < 2:
        raise InvalidTrace(f"{path}: no joint columns in header")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file of no rows
            values = np.loadtxt(io.StringIO(body), delimiter=",", comments=None, ndmin=2)
    except ValueError:
        values = None
    if values is None or (len(values) and values.shape[1] != len(header)):
        raise _first_bad_row(path, body, len(header))
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        raise InvalidTrace(f"{path}: row {np.argmin(finite)} has a non-finite value")
    if len(values) < 2:
        raise InvalidTrace(f"{path}: need at least 2 rows to infer the period")
    with np.errstate(over="ignore"):
        us = np.rint(values[:, 0] * US_PER_MS)
    in_range = np.abs(us) < MAX_TIMESTAMP_US
    if not in_range[:2].all():
        raise InvalidTrace(f"{path}: row {np.argmin(in_range)} timestamp out of range")
    start_us, period_us = int(us[0]), int(us[1]) - int(us[0])
    if period_us <= 0:
        raise InvalidTrace(f"{path}: non-increasing timestamps")
    # Row i is on the schedule iff every step up to it is one period.
    steps = np.diff(np.where(in_range, us, 0.0).astype(np.int64))
    ok = in_range & np.concatenate([[True], steps == period_us])
    if not ok.all():
        i = int(np.argmin(ok))
        problem = "off the fixed-period schedule" if in_range[i] else "out of range"
        raise InvalidTrace(f"{path}: row {i} timestamp {problem}")
    return Trace(period_us, start_us, 0, values[:, 1:])


def _first_bad_row(path: Path, body: str, width: int) -> InvalidTrace:
    """The error naming the first non-blank row of body that is ragged, has
    a cell np.loadtxt cannot parse, or has a non-finite value."""
    for i, line in enumerate(line for line in body.split("\n") if line):
        cells = line.split(",")
        if len(cells) != width:
            return InvalidTrace(f"{path}: row {i} has {len(cells)} cells, expected {width}")
        try:
            values = np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            return InvalidTrace(f"{path}: row {i} has a non-numeric cell")
        if not np.isfinite(values).all():
            return InvalidTrace(f"{path}: row {i} has a non-finite value")
    return InvalidTrace(f"{path}: unreadable rows")
