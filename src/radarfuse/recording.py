"""Record and replay timestamped radar streams as JSON-lines logs.

The first non-blank line is a header carrying the format version and
the radar registry; every following one is a record of kind
``raw_tlv``: the radar's TLV bytes as received, base64-encoded.  A
line that is not a JSON object, or a record of any other kind, is a
:class:`FormatError`.  Timestamps inside the records drive
all downstream logic, so replays are bit-reproducible at any speed.
"""

from __future__ import annotations

import base64
import json
import os
import time
from dataclasses import dataclass

FORMAT_NAME = "radarfuse-log"
FORMAT_VERSION = 1
FLUSH_INTERVAL = 1.0  # s
RECORD_KIND = "raw_tlv"


class FormatError(ValueError):
    def __init__(self, line_no: int, message: str, path=None):
        where = f"{path}: line {line_no}" if path else f"line {line_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no


class VersionMismatch(FormatError):
    pass


@dataclass(frozen=True)
class LogRecord:
    ts_ns: int
    radar_id: str
    payload: bytes         # TLV bytes as received from the radar


def _check_fields(ts_ns, radar_id):
    """Raise ValueError naming a record field of the wrong type."""
    if type(ts_ns) is not int:  # a bool is no timestamp
        raise ValueError(f"ts_ns {ts_ns!r} is not an integer")
    if type(radar_id) is not str:
        raise ValueError(f"radar_id {radar_id!r} is not a string")


class Recorder:
    def __init__(self, path, radar_ids, clock=time.monotonic):
        radar_ids = list(radar_ids)
        for radar_id in radar_ids:
            if type(radar_id) is not str:
                raise ValueError(f"radar_id {radar_id!r} is not a string")
        self._radars = frozenset(radar_ids)
        self.path = path
        self._fh = open(path, "w", encoding="utf-8")
        self._clock = clock
        self._last_flush = clock()
        self._last_ts: dict[str, int] = {}
        header = {"format": FORMAT_NAME, "version": FORMAT_VERSION,
                  "radars": sorted(radar_ids)}
        self._fh.write(json.dumps(header, separators=(",", ":")) + "\n")

    def write(self, record: LogRecord):
        """Append one record; a record :func:`replay` would refuse, or
        one for a radar the header does not list, raises ValueError."""
        _check_fields(record.ts_ns, record.radar_id)
        if record.radar_id not in self._radars:
            raise ValueError(f"radar_id {record.radar_id!r} is not in the "
                             f"header's radars {sorted(self._radars)}")
        prev = self._last_ts.get(record.radar_id)
        if prev is not None and record.ts_ns < prev:
            raise ValueError(f"record for {record.radar_id} at {record.ts_ns} "
                             f"regresses behind {prev}")
        self._last_ts[record.radar_id] = record.ts_ns
        doc = {"ts_ns": record.ts_ns, "radar_id": record.radar_id,
               "kind": RECORD_KIND,
               "payload": base64.b64encode(record.payload).decode("ascii")}
        self._fh.write(json.dumps(doc, separators=(",", ":")) + "\n")
        now = self._clock()
        if now - self._last_flush >= FLUSH_INTERVAL:
            self._fh.flush()
            self._last_flush = now

    def close(self):
        self._fh.flush()
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


class SameFile(ValueError):
    """An output path that names an input or another output."""


def _same_file(a, b) -> bool:
    try:
        return os.path.samefile(a, b)
    except OSError:  # one of them is not there (yet)
        return os.path.realpath(a) == os.path.realpath(b)


def check_outputs(*paths, inputs=()):
    """Raise the error of the first of ``paths`` that names one of
    ``inputs`` or an earlier output (:class:`SameFile`), or that cannot
    be opened for writing, before any of them is truncated, so a bad
    output path leaves every file as it was.  An existing path is
    opened for appending, which writes nothing; a new one is created
    and removed again.  ``None`` is a file not asked for."""
    paths = [p for p in paths if p is not None]
    for i, path in enumerate(paths):
        for other in [*inputs, *paths[:i]]:
            if other is not None and _same_file(path, other):
                raise SameFile(f"{path} and {other} are the same file")
        try:
            open(path, "xb").close()
        except FileExistsError:
            open(path, "ab").close()
        else:
            os.remove(path)


def not_utf8(path) -> FormatError:
    """The error for ``path``, which failed to decode as UTF-8.  A text
    reader decodes ahead of the line it returns, so the first line that
    does not decode is found here by decoding the lines again."""
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as e:
                return FormatError(line_no, f"not UTF-8 ({e.reason})", path)
    return FormatError(1, "not UTF-8", path)


def read_jsonl(path):
    """Yield ``(line number, object)`` for each non-blank line of the
    JSON-lines file ``path``.  A line that is not a JSON object raises
    :class:`FormatError`, and a file that is not UTF-8 the error of
    :func:`not_utf8`."""
    with open(path, encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    doc = json.loads(line)
                except json.JSONDecodeError:
                    doc = None
                if not isinstance(doc, dict):
                    raise FormatError(line_no, "not a JSON object", path)
                yield line_no, doc
        except UnicodeDecodeError:  # from the read, outside the per-line try
            raise not_utf8(path) from None


def _header(docs, path) -> dict:
    """The header, the first object of ``docs`` (an empty file has none)."""
    line_no, header = next(docs, (1, {}))
    if header.get("format") != FORMAT_NAME:
        raise FormatError(line_no, "not a radarfuse log", path)
    if header.get("version") != FORMAT_VERSION:
        raise VersionMismatch(line_no, f"log version {header.get('version')}, "
                              f"reader supports {FORMAT_VERSION}", path)
    radars = header.get("radars")
    if not (isinstance(radars, list)
            and all(isinstance(r, str) for r in radars)):
        raise FormatError(line_no, "header radars must be a list of radar ids",
                          path)
    return header


def read_header(path) -> dict:
    return _header(read_jsonl(path), path)


def replay(path, speed: float = 1.0, as_fast_as_possible: bool = False,
           sleep=time.sleep):
    """Iterate the LogRecords of ``path``, paced by timestamp deltas / speed.

    The speed and the header are checked here, before the first record
    is asked for, so a bad log fails before a caller opens its outputs;
    the records are then read on from the same open file.  With
    ``as_fast_as_possible`` no wall delay is inserted at all; the
    records (and their embedded timestamps) are identical either way.
    """
    if not speed > 0:
        raise ValueError("speed must be > 0")
    docs = read_jsonl(path)
    _header(docs, path)
    return _records(docs, path, speed, as_fast_as_possible, sleep)


def _records(docs, path, speed, as_fast_as_possible, sleep):
    prev_ts = None
    for line_no, doc in docs:
        try:
            ts_ns, radar_id = doc["ts_ns"], doc["radar_id"]
            _check_fields(ts_ns, radar_id)
            if doc["kind"] != RECORD_KIND:
                raise ValueError(f"record kind {doc['kind']!r}, "
                                 f"expected {RECORD_KIND!r}")
            # non-strict: stray characters are discarded, and the TLV
            # scanner resyncs past any bytes they leave out
            payload = base64.b64decode(doc["payload"])
        except (KeyError, TypeError, ValueError) as e:
            raise FormatError(line_no, str(e), path) from None
        if not as_fast_as_possible and prev_ts is not None:
            delta = (ts_ns - prev_ts) / 1e9 / speed
            if delta > 0:
                sleep(delta)
        prev_ts = ts_ns
        yield LogRecord(ts_ns=ts_ns, radar_id=radar_id, payload=payload)
