"""File formats: panel CSV ingest/export, labels CSV, model and scenario
JSON, and the dominance-graph DOT export.

Files carry onset timestamps (capture-native); the library carries
durations (model-native).  Conversion happens here: durations are
successive onset differences and the last duration is the record end minus
the last onset.  Consecutive repeats of the same attribute are merged with
summed durations, since the embedded chain cannot represent
self-transitions; the merge count is reported.

Every CSV file the library or the CLI reads goes through one chunked
column reader, :func:`_read_columns`.  :func:`write_panel` writes a panel
file one trajectory at a time as rendered text, and :func:`write_csv`
writes every other CSV file row by row.  The reader reads a file in blocks
of characters, cuts each into lines with ``str.splitlines`` and tokenises
them with numpy's C reader (``np.loadtxt``), which also parses the float
columns it is given, such as ``onset``.  The first block numpy might read
otherwise than ``csv.reader`` (a quote, a character ``str.splitlines``
ends a line at and the file does not, a blank or ragged line, an
over-long line, a number numpy refuses) goes, with the rest of the file,
to ``csv.reader``.  Both give the same columns, so results and errors do
not depend on which one ran.  Integer columns stay strings for Python's
``int``, because numpy's int64 parser accepts some non-ASCII letters (it
reads ``"Ǿ"`` as 462).

All writers are deterministic byte-for-byte (floats use 17 significant
digits) and atomic (write to a temporary file, then rename), so a failed
run never leaves a partial output behind.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from contextlib import closing, contextmanager
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from operator import itemgetter, lt
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .core import MixtureArrays, MixtureModel, Panel, StateSpace, index_array, is_integer
from .errors import DataError, InvalidModelError, MalformedRow, NonMonotoneOnset, UnknownAttribute
from .likelihood import PanelStats
from .sim import ABSORBING_RULE, Scenario

MODEL_FORMAT_VERSION = 1
DEFAULT_ABSORBING_LABEL = "STOP"


# The one float format of every writer: 17 significant digits round-trip a double.
_FLOAT = ".17g"


def _fmt(x: float) -> str:
    return format(float(x), _FLOAT)


@contextmanager
def _atomic_open(path):
    """Text file handle on a temporary sibling of ``path``, renamed over
    ``path`` when the block succeeds and deleted when it fails."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path, text: str) -> None:
    """Atomic plain-text writer used by the CLI."""
    with _atomic_open(path) as fh:
        fh.write(text)


def _csv_rows() -> Callable[[Sequence], str]:
    """A function that renders a row as ``csv.writer`` writes it, without its
    line end.  csv quotes a field holding a character of its line terminator,
    so rendering with ``"\r\n"`` quotes a lone ``"\r"`` as it quotes ``"\n"``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")

    def render(row: Sequence) -> str:
        writer.writerow(row)
        line = buf.getvalue()[:-2]
        buf.seek(0)
        buf.truncate()
        return line

    return render


def write_csv(path, header: Sequence, rows: Iterable[Sequence]) -> None:
    """Atomic CSV writer with ``"\n"`` line endings, floats to 17 significant
    digits and None as an empty field.  Each row is written as ``rows``
    yields it, so a generator keeps a large file out of memory."""
    render = _csv_rows()
    with _atomic_open(path) as fh:
        fh.write(f"{render(header)}\n")
        for row in rows:
            fh.write(f"{render([_fmt(v) if isinstance(v, float) else v for v in row])}\n")


def _csv_fields(texts: Iterable[str]) -> list[str]:
    """Each string as :func:`write_csv` writes it as one field of a row."""
    render = _csv_rows()
    # A second field: csv quotes a row of one empty field.
    return [render((text, ""))[:-1] for text in texts]


@contextmanager
def _utf8_text(path):
    """``path`` open as UTF-8 text for reading.  A :class:`MalformedRow`
    raised in the block, or a generator reading the file that is closed
    early, first decodes the rest of the file, so a file that is not UTF-8
    raises the :class:`DataError` naming it before any row error, wherever
    the bad byte lies.  Only a file that has already failed pays for it."""
    try:
        # "utf-8-sig" drops the byte-order mark that spreadsheet "CSV UTF-8" exports begin with.
        with open(path, newline="", encoding="utf-8-sig") as fh:
            try:
                yield fh
            except (MalformedRow, GeneratorExit):
                while fh.read(_CHUNK_CHARS):
                    pass
                raise
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None


# Characters read at a time for numpy's tokeniser, with the rest of the
# last line: about 5,300 lines of the benchmark panel.  A block's text,
# lines and strings are freed before the next block is read, so they add a
# fixed amount to peak memory; what grows with the file is the coded
# columns, 37 bytes per row.  Traced on a 66,000-row panel, reading peaks at
# 4.2 MB, and read_panel at 4.8 MB in its record-end stage.
_CHUNK_CHARS = 1 << 18

# Records read at a time by csv.reader, once a file has left numpy's tokeniser.
_CHUNK_ROWS = 8192

# Characters that send a block to the csv reader.  numpy does not read
# quotes as csv does, and it strips U+001C..U+001F around a number, which
# Python's float() refuses.  str.splitlines, which cuts a block into lines,
# splits at \v, \f, U+001C..U+001E, U+0085, U+2028 and U+2029, which end
# no line in the file or in csv.
_CSV_ONLY = '"\x1c\x1d\x1e\x1f\v\f\x85\u2028\u2029'


def _read_columns(path, required: Sequence[str], optional: Sequence[str] = (), delimiter: str = ",",
                  floats: Sequence[str] = ()):
    """Yield ``(lines, columns)`` per chunk of data rows of a delimited file:
    the physical line number of each row, and the rows' values per column of
    ``required`` and then ``optional``, found by their header names stripped
    of spaces.  A column holds strings, as an object array when numpy
    tokenised the chunk and as a list when ``csv.reader`` read it, or is a
    float64 array for a column named in ``floats`` when numpy tokenised the
    chunk.  A column the header lacks or a short row does not reach reads
    None, so a short row fails in its caller's parse, on its own line.
    Blank lines are skipped, as in csv.DictReader.

    The numpy path reads blocks of ``_CHUNK_CHARS`` characters, each
    completed to the end of its last line, and sends them through
    ``np.loadtxt`` while they hold no character of ``_CSV_ONLY``, no line
    longer than the csv field size limit, and every line gives one row: a
    blank or ragged line or a float numpy refuses fails the last check.
    The first block that fails sends its lines and the rest of the file
    through ``csv.reader``, in chunks of ``_CHUNK_ROWS`` records, whose
    errors are raised as :class:`MalformedRow`.  A file that is not UTF-8
    raises its :class:`DataError` before any :class:`MalformedRow` of the
    file (see :func:`_utf8_text`); a caller that stops at a row error
    closes the generator to see it."""
    if not isinstance(delimiter, str) or len(delimiter) != 1 or delimiter in '"\r\n':
        raise ValueError(f"delimiter must be one character other than '\"', '\\r' and '\\n', "
                         f"not {delimiter!r}")
    with _utf8_text(path) as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise MalformedRow(reader.line_num, str(exc)) from None
        if header is None:
            raise MalformedRow(1, "empty file")
        header = [name.strip() for name in header]
        missing = [c for c in required if c not in header]
        if missing:
            raise MalformedRow(1, f"missing required columns: {', '.join(missing)}")
        names = (*required, *optional)
        for c in names:
            if header.count(c) > 1:
                raise MalformedRow(1, f"duplicate column: {c}")
        columns = [header.index(c) if c in header else None for c in names]
        present = [(c, k) for c, k in zip(names, columns) if k is not None]
        dtype = np.dtype([(c, np.float64 if c in floats else object) for c, _ in present])
        usecols = [k for _, k in present]
        done = reader.line_num
        # The readline ends the block at a line end, and joins a "\r" at
        # the end of the read to the "\n" that follows it.
        while text := fh.read(_CHUNK_CHARS) + fh.readline():
            # loadtxt warns on a block of blank lines
            if text.isspace() or any(c in text for c in _CSV_ONLY):
                lines, fields = io.StringIO(text, newline=""), None  # the file's lines
            else:
                lines = text.splitlines(keepends=True)
                del text
                fields = _tokenise(lines, dtype, usecols, delimiter)
            if fields is None:
                yield from _csv_columns(chain(lines, fh), columns, delimiter, done)
                return
            n = len(lines)
            del lines
            yield (range(done + 1, done + n + 1),
                   [[None] * n if k is None else fields.pop(c) for c, k in zip(names, columns)])
            done += n


def _tokenise(lines: list, dtype: np.dtype, usecols: list, delimiter: str) -> Optional[dict]:
    """The columns of ``lines`` by ``dtype`` field name, one value per line,
    or None where numpy's tokeniser may not read them as ``csv.reader``
    does."""
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    try:
        table = np.loadtxt(lines, dtype=dtype, delimiter=delimiter, comments=None, quotechar=None,
                           usecols=usecols, ndmin=1)
    except ValueError:
        return None
    if len(table) != len(lines):
        return None
    # A float column is copied, since callers keep it past the block and a
    # view would keep the record array, with the block's strings, alive.
    # Callers drop the string columns with the block, so they stay views.
    return {c: table[c] if table[c].dtype == object else table[c].copy() for c in dtype.names}


def _csv_columns(lines: Iterable[str], columns: list, delimiter: str, done: int):
    """:func:`_read_columns`' chunks of the text ``lines``, read by
    ``csv.reader``, which follow ``done`` physical lines of the file."""
    reader = csv.reader(lines, delimiter=delimiter)
    taken = _CHUNK_ROWS
    while taken == _CHUNK_ROWS:
        rows, line_nums, taken, error = [], [], 0, None
        try:
            for taken, row in enumerate(islice(reader, _CHUNK_ROWS), start=1):
                if row:
                    rows.append(row)
                    line_nums.append(done + reader.line_num)
        except csv.Error as exc:
            error = MalformedRow(done + reader.line_num, str(exc))
        if rows:
            yield line_nums, [_column(rows, k) for k in columns]
        if error is not None:
            raise error


def _column(rows: list, k: Optional[int]) -> list:
    if k is None:
        return [None] * len(rows)
    try:
        return list(map(itemgetter(k), rows))
    except IndexError:
        return [row[k] if k < len(row) else None for row in rows]


def _codes(values: Sequence, table: dict, key) -> np.ndarray:
    """The int32 code of ``key(value)`` in ``table`` for each value, or -1
    where ``key`` raises.  A new key gets the next code, so codes follow
    first appearance; ``key`` runs once per distinct value."""
    local = dict.fromkeys(values)
    for value in local:
        try:
            local[value] = table.setdefault(key(value), len(table))
        except (TypeError, ValueError, AttributeError):
            local[value] = -1
    return np.fromiter(map(local.__getitem__, values), np.int32, len(values))


def _runs(values: Sequence) -> tuple[list, np.ndarray]:
    """The first value of each run of equal consecutive ``values`` (a list
    or an object array), and the run of each value."""
    values = np.asarray(values, dtype=object)
    starts = np.r_[True, values[1:] != values[:-1]]
    return values[starts].tolist(), np.cumsum(starts) - 1


def _floats(values) -> tuple[np.ndarray, np.ndarray]:
    """``float`` of each value, NaN where it does not parse, and the mask of
    the values that do not parse.  A float64 array numpy parsed is returned
    as is."""
    bad = np.zeros(len(values), dtype=bool)
    if isinstance(values, np.ndarray):
        return values, bad
    try:
        return np.fromiter(map(float, values), np.float64, len(values)), bad
    except (TypeError, ValueError):
        out = np.full(len(values), np.nan)
        for k, value in enumerate(values):
            try:
                out[k] = float(value)
            except (TypeError, ValueError):
                bad[k] = True
        return out, bad


def _first_failure(checks: Sequence[np.ndarray]) -> Optional[tuple[int, int]]:
    """``(i, k)``: the first index ``i`` where any of the masks ``checks``
    holds and the first check ``k`` that holds there, or None."""
    failing = np.logical_or.reduce(checks)
    if not failing.any():
        return None
    i = int(np.argmax(failing))
    return i, next(k for k, mask in enumerate(checks) if mask[i])


def _dump_json(obj, indent: int = 0) -> str:
    """Deterministic JSON with 17-significant-digit floats."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {_dump_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            return "[]"
        flat = all(not isinstance(v, (dict, list, tuple)) for v in obj)
        if flat:
            return "[" + ", ".join(_dump_json(v) for v in obj) + "]"
        items = [f"{inner}{_dump_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool) or obj is None:
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not math.isfinite(obj):
            raise ValueError("cannot serialize a non-finite number")
        return _fmt(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _write_json(path, doc: dict) -> None:
    """Write ``doc`` atomically as :func:`_dump_json` text."""
    with _atomic_open(path) as fh:
        fh.write(_dump_json(doc) + "\n")


def _read_json(path) -> dict:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# Panel CSV

@dataclass(frozen=True)
class IngestReport:
    """What happened while turning a file into a panel."""

    subject_ids: tuple[str, ...]
    merge_count: int
    dropped_sequences: tuple[tuple[str, int], ...]
    dropped_subjects: tuple[str, ...]
    warnings: tuple[str, ...]


def _read_end_sidecar(path) -> tuple[dict, dict]:
    """The record ends by (subject, replication), and the line each was
    read from."""
    ends = {}
    lines = {}
    with closing(_read_columns(path, ("subject", "replication", "end"))) as chunks:
        for chunk_lines, columns in chunks:
            for line, subject, replication, end in zip(chunk_lines, *columns):
                try:
                    key = (subject.strip(), int(replication))
                    value = float(end)
                except (TypeError, ValueError, AttributeError):
                    raise MalformedRow(line, "bad row in record-end sidecar") from None
                if not math.isfinite(value):
                    raise MalformedRow(line, "end must be finite")
                if ends.setdefault(key, value) != value:
                    raise MalformedRow(line, "conflicting record-end values in one sequence")
                lines.setdefault(key, line)
    return ends, lines


# The checks on one panel row, in the order a row that fails several reports them.
_ROW_CHECKS = (
    "cannot parse subject/replication/attribute/onset",
    "empty subject or attribute",
    "replication must be a positive integer",
    "onset must be finite",
    "cannot parse end",
    "end must be finite",
)


def _code_rows(columns: list, tables: tuple) -> tuple[list, Optional[tuple[int, int]]]:
    """One chunk's subject, replication, attribute, onset and end columns
    coded: the int32 codes of subjects, replications and attributes in
    ``tables``, onsets, ends (NaN where blank) and whether each row has an
    end; and ``(row, check)``, the first row that fails a check of
    ``_ROW_CHECKS`` and its first failing check, or None."""
    subject, replication, attribute, onset, end = columns
    subjects, replications, attributes = tables
    # Subject, replication and end repeat along a sequence's rows: one
    # lookup per run of equal strings.  Attributes change on every row.
    firsts, run = _runs(subject)
    s = _codes(firsts, subjects, str.strip)[run]
    firsts, run = _runs(replication)
    r = _codes(firsts, replications, int)[run]
    a = _codes(attribute, attributes, str.strip)
    t, bad_onset = _floats(onset)
    firsts, run = _runs(end)
    e, bad_end = (column[run] for column in _floats(firsts))
    has_end = np.array(firsts, dtype=object).astype(bool)[run]
    bad_end &= has_end
    # By replication code; the last entry serves code -1, a replication that did not parse.
    below_one = np.array([value < 1 for value in replications] + [False])
    failure = _first_failure([
        (s < 0) | (r < 0) | (a < 0) | bad_onset,
        (s == subjects.get("", -2)) | (a == attributes.get("", -2)),
        below_one[r],
        ~np.isfinite(t),
        bad_end,
        has_end & ~np.isfinite(e),
    ])
    return [s, r, a, t, e, has_end], failure


# The columns of a panel file's rows, as _parse_panel_rows returns them.
_ROW_COLUMNS = ("line", "subject", "replication", "attribute", "onset", "end", "has_end")


def _parse_panel_rows(path, delimiter: str):
    """The rows of a panel file as a dict of arrays by ``_ROW_COLUMNS``
    name: line, subject, replication and attribute codes, onset, end (NaN
    where blank) and whether the row has an end; the code tables of
    subjects (stripped), replications (as int) and attributes (stripped);
    and the error of the first row that fails a row check or that
    ``csv.reader`` cannot read, the rows from it on left out."""
    tables = {}, {}, {}
    pieces = [[] for _ in _ROW_COLUMNS]
    error = None
    reader = _read_columns(path, ("subject", "replication", "attribute", "onset"), ("end",), delimiter,
                           floats=("onset",))
    try:
        for lines, columns in reader:
            coded, failure = _code_rows(columns, tables)
            del columns  # the chunk's strings, freed before the next chunk is read
            n = len(lines) if failure is None else failure[0]
            kept = lines[:n]  # a range for a chunk numpy tokenised, a list for csv's
            line_numbers = (np.arange(kept.start, kept.stop, kept.step, dtype=np.int64)
                            if isinstance(kept, range) else np.array(kept, dtype=np.int64))
            for piece, column in zip(pieces, (line_numbers, *coded)):
                piece.append(column[:n])
            if failure is not None:
                error = MalformedRow(lines[n], _ROW_CHECKS[failure[1]])
                break
    except MalformedRow as exc:  # a line csv cannot read, after rows that may fail first
        if not pieces[0]:
            raise
        error = exc
    reader.close()  # after a row error: the rest of the file must still be UTF-8
    if not pieces[0]:
        raise MalformedRow(1, "no data rows")
    # One column at a time, each column's pieces freed once it is joined.
    rows = {name: np.concatenate(pieces.pop(0)) for name in _ROW_COLUMNS}
    return rows, tables, error


# read_panel's stages.  Each takes the row columns it reads last out of the
# dict ``rows``, so a row-sized array lives only while a stage reads it.

def _group_rows(rows: dict, n_reps: int) -> tuple[np.ndarray, np.ndarray]:
    """Grouping: put ``rows`` in sequence order.  Sequences (subject,
    replication) are numbered in order of first appearance, and each one's
    rows keep their file order.  The subject and replication columns give
    way to ``sequence``, each row's sequence number; returns the subject and
    replication code of each sequence."""
    subject, replication = rows.pop("subject"), rows.pop("replication")
    key = subject.astype(np.int64) * n_reps + replication
    # A stable sort puts each sequence's first row at the start of its run.
    by_key = np.argsort(key, kind="stable")
    key = key[by_key]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    del key
    first = by_key[starts]
    number = np.argsort(first)
    first = first[number]
    codes = subject[first], replication[first]
    del subject, replication
    # Each sequence's run of ``by_key``, the runs in order of first appearance.
    sizes = np.diff(starts, append=len(by_key))[number]
    order = np.repeat(starts[number] - (np.cumsum(sizes) - sizes), sizes)
    order += np.arange(len(order))
    order = by_key[order]
    del by_key
    for name in rows:
        rows[name] = rows[name][order]
    rows["sequence"] = np.repeat(np.arange(len(sizes)), sizes)
    return codes


def _record_ends(rows: dict, n_sequences: int) -> np.ndarray:
    """Record ends: the first end the end column gives each sequence, NaN
    where it gives none.  Raises :class:`MalformedRow` on the first row, in
    file order, that gives its sequence another end.  Takes the end
    columns out of ``rows``."""
    end, has_end = rows.pop("end"), rows.pop("has_end")
    sequence = rows["sequence"]
    with_end = np.flatnonzero(has_end)
    leads = with_end[np.diff(sequence[with_end], prepend=-1) != 0]
    seq_end = np.full(n_sequences, np.nan)
    seq_end[sequence[leads]] = end[leads]
    conflicts = has_end & (end != seq_end[sequence])
    if conflicts.any():
        raise MalformedRow(int(rows["line"][conflicts].min()),
                           "conflicting record-end values in one sequence")
    return seq_end


def _merge_states(rows: dict, codes: np.ndarray, absorbing: Optional[int], seq_end: np.ndarray):
    """State coding, the merge and the sequence checks.  Each row's state is
    the code of its attribute in ``codes`` (-1 for an unknown one), and
    consecutive repeats of one state merge into the first row, whose state
    and onset replace the row columns of ``rows``.  Returns each sequence's
    number of states, the number of rows merged away, and the first failing
    sequence check or None: ``(sequence, check, row)``, ``row`` being the
    attribute code and line of the sequence's first unknown row when the
    check is the unknown attribute's, else None."""
    sequence, line, attribute, onsets = (rows.pop(c) for c in ("sequence", "line", "attribute", "onset"))
    n_sequences = len(seq_end)
    states = codes[attribute]
    new = np.r_[True, sequence[1:] != sequence[:-1]]
    kept = np.flatnonzero(new | np.r_[True, states[1:] != states[:-1]])
    k_sequence = sequence[kept]
    k_last = np.r_[k_sequence[1:] != k_sequence[:-1], True]
    n_states = np.bincount(k_sequence, minlength=n_sequences)
    early = np.zeros(n_sequences, dtype=bool)
    if absorbing is not None:
        early[k_sequence[(states[kept] == absorbing) & ~k_last]] = True
    del k_sequence, k_last

    def per_sequence(mask):
        return np.bincount(sequence[mask], minlength=n_sequences) > 0

    unknown = states < 0
    failure = _first_failure([
        per_sequence(np.r_[False, ~new[1:] & (onsets[1:] <= onsets[:-1])]),
        per_sequence(unknown),
        np.isnan(seq_end),
        seq_end <= onsets[np.r_[new[1:], True]],
        early,
    ])
    if failure is not None:
        i, check = failure
        row = None
        if check == 1:
            r = np.flatnonzero((sequence == i) & unknown)[0]
            row = int(attribute[r]), int(line[r])
        return None, None, (i, check, row)
    rows["state"], rows["onset"] = states[kept], onsets[kept]
    return n_states, len(states) - len(kept), None


def _select_sequences(rows: dict, n_states, seq_end, seq_subject, seq_replication, subject_names,
                      rep_values):
    """Durations with subject selection.  Each sojourn runs to the next
    merged onset, the last to its sequence's record end.  A sequence with
    fewer than two states is dropped, and so is a subject left with fewer
    usable sequences than the most any subject has.  Returns the panel's
    states, sojourns and lengths, its sequences by subject and each
    subject's in replication order; the kept subjects' ids; the dropped
    sequences as (subject, replication); and the dropped subjects with
    their numbers of usable sequences.  Empties ``rows``."""
    states, onsets = rows.pop("state"), rows.pop("onset")
    ends = np.cumsum(n_states)
    starts = ends - n_states
    # A difference of huge values overflows to inf without a warning, as in
    # Python float arithmetic.
    with np.errstate(over="ignore"):
        durations = np.r_[onsets[1:], 0.0] - onsets
        durations[ends - 1] = seq_end - onsets[ends - 1]
    del onsets
    usable = n_states >= 2
    dropped = [(subject_names[seq_subject[i]], rep_values[seq_replication[i]])
               for i in np.flatnonzero(~usable)]
    if not usable.any():
        raise DataError("no usable sequences in the file")
    # A maximum, so at least one subject is kept.
    reps_kept = np.bincount(seq_subject[usable], minlength=len(subject_names))
    n_reps = int(reps_kept.max())
    rep_rank = np.empty(len(rep_values), dtype=np.int64)
    rep_rank[sorted(range(len(rep_values)), key=rep_values.__getitem__)] = np.arange(len(rep_values))
    chosen = np.flatnonzero(usable & (reps_kept == n_reps)[seq_subject])
    chosen = chosen[np.lexsort((rep_rank[seq_replication[chosen]], seq_subject[chosen]))]
    lengths = n_states[chosen]
    take = np.repeat(starts[chosen] - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())
    return (
        (states[take], durations[take], lengths.reshape(-1, n_reps)),
        [subject_names[code] for code in np.flatnonzero(reps_kept == n_reps)],
        dropped,
        [(subject_names[code], reps_kept[code]) for code in np.flatnonzero(reps_kept < n_reps)],
    )


def read_panel(
    path,
    labels: Optional[Sequence[str]] = None,
    absorbing_label: str = DEFAULT_ABSORBING_LABEL,
    delimiter: str = ",",
    ends_path=None,
) -> tuple[Panel, IngestReport]:
    """Read a delimited onset-encoded file into a panel.

    Expected header columns: ``subject``, ``replication``, ``attribute``,
    ``onset`` and optionally ``end`` (the per-sequence record end, needed
    to close the final sojourn; it may also come from the ``ends_path``
    sidecar, with columns ``subject``, ``replication``, ``end``, which the
    ``end`` column overrides).  Onsets and ends must be finite, and rows
    giving one sequence two different ends are an error; a sidecar row
    that matches no sequence of the file is reported as a warning.  When
    ``labels`` is given it fixes the state order and unknown attributes are
    errors; otherwise the observed attributes are sorted, with the
    absorbing label (default ``"STOP"``), if seen, placed last.  Sequences
    with fewer than two states after merging are dropped with a warning,
    as are subjects left with fewer replications than their peers.

    The file is read in blocks of lines (see :func:`_read_columns`), each
    converted to arrays column by column.  Four stages then run as array
    passes over all rows: the grouping, the record ends, the merge with
    its checks, and the durations with the subject selection.  Errors come
    in a fixed order: sidecar errors, then row errors (a line
    ``csv.reader`` cannot read among them) in file order, then sequence
    errors in order of first appearance.  A sidecar or panel file that is
    not UTF-8 raises a :class:`DataError` naming it, before any row error
    of that file, wherever the bad byte lies.  ``delimiter`` must be one
    character other than ``"``, ``\\r`` and ``\\n``.
    """
    ends, end_lines = ({}, {}) if ends_path is None else _read_end_sidecar(ends_path)
    rows, tables, error = _parse_panel_rows(path, delimiter)
    subjects, replications, _ = tables
    subject_names, rep_values, attribute_names = (list(table) for table in tables)
    seq_subject, seq_replication = _group_rows(rows, len(rep_values))
    n_sequences = len(seq_subject)
    seq_end = _record_ends(rows, n_sequences)
    if error is not None:
        raise error

    # State space
    if labels is not None:
        label_list = [str(x) for x in labels]
    else:
        label_list = sorted(attribute_names)
        if len(label_list) < 2:
            raise DataError(f"{path}: every row has the attribute {label_list[0]!r}; "
                            "a state space needs at least two")
        if absorbing_label in label_list:
            label_list.remove(absorbing_label)
            label_list.append(absorbing_label)
    absorbing = label_list.index(absorbing_label) if absorbing_label in label_list else None
    space = StateSpace(labels=tuple(label_list), absorbing=absorbing)
    index = {lab: k for k, lab in enumerate(label_list)}

    unmatched = []
    if ends:
        number = dict(zip(zip(seq_subject.tolist(), seq_replication.tolist()), range(n_sequences)))
        for key, value in ends.items():
            i = number.get((subjects.get(key[0]), replications.get(key[1])))
            if i is None:
                unmatched.append(
                    f"record-end sidecar line {end_lines[key]}: no sequence for subject {key[0]!r} "
                    f"replication {key[1]}"
                )
            elif np.isnan(seq_end[i]):
                seq_end[i] = value

    codes = np.array([index.get(name, -1) for name in attribute_names], dtype=np.int32)
    n_states, merge_count, failure = _merge_states(rows, codes, absorbing, seq_end)
    if failure is not None:
        i, check, row = failure
        name, rep = subject_names[seq_subject[i]], rep_values[seq_replication[i]]
        if check == 0:
            raise NonMonotoneOnset(name, rep)
        if check == 1:
            raise UnknownAttribute(attribute_names[row[0]], row[1])
        raise DataError((
            f"no record end for subject {name!r} replication {rep} "
            "(add an 'end' column or a sidecar)",
            f"record end precedes the last onset for subject {name!r} replication {rep}",
            f"subject {name!r} replication {rep}: absorbing attribute "
            f"{absorbing_label!r} appears before the end of the sequence",
        )[check - 2])

    arrays, subject_ids, dropped, dropped_subjects = _select_sequences(
        rows, n_states, seq_end, seq_subject, seq_replication, subject_names, rep_values
    )
    n_reps = arrays[2].shape[1]
    warnings = [f"dropped subject {s!r} replication {r}: fewer than two states" for s, r in dropped]
    warnings += unmatched
    warnings += [f"dropped subject {s!r}: {count} usable replications, expected {n_reps}"
                 for s, count in dropped_subjects]
    panel = Panel.from_arrays(space, *arrays)
    report = IngestReport(
        subject_ids=tuple(subject_ids),
        merge_count=merge_count,
        dropped_sequences=tuple(dropped),
        dropped_subjects=tuple(s for s, _ in dropped_subjects),
        warnings=tuple(warnings),
    )
    return panel, report


def write_panel(path, panel: Panel, subject_ids: Optional[Sequence[str]] = None) -> None:
    """Write a panel as an onset-encoded CSV (inverse of :func:`read_panel`).

    The file has the header ``subject,replication,attribute,onset,end`` and
    one row per state of each trajectory, trajectories in (subject,
    replication) order and replications numbered from 1.  A row's onset is
    the running sum of the trajectory's earlier sojourns, and its end the
    sum of all of them; both are written to 17 significant digits.  Subject
    ids (``1..n`` by default; a float id to 17 digits, any other non-string
    through ``str``) and state labels are quoted as ``csv.writer`` quotes
    them.  The file is written one trajectory at a time, so it is never
    held in memory whole.

    Raises ``ValueError``, before writing, unless there is one id per
    subject and every id is nonempty and distinct from the others once
    stripped of surrounding whitespace, as :func:`read_panel` reads them.
    Raises ``ValueError`` naming the subject and the replication, and
    leaves ``path`` as it was, when a trajectory's onsets and end are not
    strictly increasing: a sojourn below the running sum's resolution is
    lost, and :func:`read_panel` would reject the file.
    """
    if subject_ids is None:
        subject_ids = [str(i + 1) for i in range(panel.n_subjects)]
    if len(subject_ids) != panel.n_subjects:
        raise ValueError("one subject id per subject required")
    # Each id's text as csv writes it (None as an empty field); read_panel strips it.
    texts = ["" if sid is None else _fmt(sid) if isinstance(sid, float) else str(sid)
             for sid in subject_ids]
    first = {}
    for k, text in enumerate(texts):
        key = text.strip()
        if not key:
            raise ValueError(f"subject id {text!r} is empty once stripped")
        if first.setdefault(key, k) != k:
            raise ValueError(f"subject ids {texts[first[key]]!r} and {text!r} are equal once stripped")
    sids = _csv_fields(texts)
    labels = _csv_fields(panel.space.labels)
    states = panel.states.tolist()
    sojourns = panel.sojourns.tolist()
    a = 0
    with _atomic_open(path) as fh:
        fh.write("subject,replication,attribute,onset,end\n")
        for k, (sid, lengths) in enumerate(zip(sids, panel.lengths.tolist())):
            for b, n in enumerate(lengths, start=1):
                onsets = list(accumulate(sojourns[a : a + n], initial=0.0))
                if not all(map(lt, onsets, islice(onsets, 1, None))):
                    raise ValueError(
                        f"onsets not strictly increasing for subject {texts[k]!r} replication {b}:"
                        " a sojourn is lost below the running sum's resolution"
                    )
                head, tail = f"{sid},{b},", f",{onsets[-1]:{_FLOAT}}\n"
                fh.write("".join([f"{head}{labels[j]},{t:{_FLOAT}}{tail}"
                                  for j, t in zip(states[a : a + n], onsets)]))
                a += n


def write_labels(path, subject_ids: Sequence[str], labels: Sequence[int]) -> None:
    """Write one 0-based component label per subject, as 1-based ids."""
    labels = index_array("labels", labels)
    if len(labels) != len(subject_ids):
        raise ValueError("one label per subject id required")
    if labels.size and labels.min() < 0:
        raise ValueError("labels must be nonnegative")
    rows = ((sid, lab + 1) for sid, lab in zip(subject_ids, labels.tolist()))
    write_csv(path, ("subject", "component"), rows)


def read_labels(path) -> dict[str, int]:
    """Subject id -> 0-based component label (inverse of :func:`write_labels`).

    Components are numbered from 1; a subject listed twice must be given
    the same component both times."""
    out = {}
    with closing(_read_columns(path, ("subject", "component"))) as chunks:
        for lines, columns in chunks:
            for line, subject, component in zip(lines, *columns):
                try:
                    label = int(component) - 1
                    subject = subject.strip()
                except (TypeError, ValueError, AttributeError):
                    raise MalformedRow(line, "bad row in labels file") from None
                if label < 0:
                    raise MalformedRow(line, "component must be at least 1")
                if out.setdefault(subject, label) != label:
                    raise MalformedRow(line, "conflicting components for one subject")
    return out


# ---------------------------------------------------------------------------
# Model JSON


def _leaves(value) -> list:
    """The leaves of a nested list, depth first."""
    return [x for item in value for x in _leaves(item)] if isinstance(value, list) else [value]


def model_to_dict(model: MixtureModel) -> dict:
    p = model.params
    components = [
        {"alpha": alpha, "trans": trans, "sojourn": [
            {"shape": a, "rate": b} if ok else None for a, b, ok in zip(shape, rate, p.live.tolist())
        ]}
        for alpha, trans, shape, rate in zip(*(a.tolist() for a in p[1:5]))
    ]
    return {
        "space": {"labels": list(model.space.labels), "absorbing": model.space.absorbing},
        "weights": p.weights.tolist(),
        "components": components,
        "meta": {"format_version": MODEL_FORMAT_VERSION},
    }


def model_from_dict(doc: dict) -> MixtureModel:
    try:
        meta = doc.get("meta", {})
        version = meta.get("format_version")
        if version != MODEL_FORMAT_VERSION:
            raise DataError(f"unsupported model format_version {version!r}")
        labels, absorbing = doc["space"]["labels"], doc["space"].get("absorbing")
        if isinstance(labels, str):
            raise DataError("malformed model document: space.labels must be a list")
        if not (absorbing is None or is_integer(absorbing)):
            raise DataError("malformed model document: space.absorbing must be a state index or null")
        space = StateSpace(labels=tuple(labels), absorbing=absorbing)
        comps = doc["components"]
        laws = [c["sojourn"] for c in comps]
        for law in laws:
            for j, p in enumerate(law):
                if (p is None) != (j == absorbing):
                    raise InvalidModelError(f"state {j} needs a sojourn distribution" if p is None
                                            else "absorbing state carries no sojourn law")
        values = [doc["weights"], *([c[key] for c in comps] for key in ("alpha", "trans")),
                  *([[np.nan if p is None else p[key] for p in law] for law in laws]
                    for key in ("shape", "rate"))]
        try:  # non-numeric or ragged
            arrays = [np.array(v, dtype=np.float64) for v in values]
        except ValueError as exc:
            raise DataError(f"malformed model document: {exc}") from exc
        # numpy also converts numeric strings, booleans and null (to NaN)
        for name, v in zip(("weights", "alpha", "trans", "shape", "rate"), values):
            bad = [x for x in _leaves(v) if isinstance(x, bool) or not isinstance(x, (int, float))]
            if bad:
                raise DataError(f"malformed model document: {name} holds "
                                f"{json.dumps(bad[0])}, not a number")
        return MixtureModel.from_arrays(space, MixtureArrays(*arrays, absorbing))
    except (KeyError, TypeError, IndexError) as exc:
        raise DataError(f"malformed model document: {exc}") from exc


def write_model(path, model: MixtureModel) -> None:
    _write_json(path, model_to_dict(model))


def read_model(path) -> MixtureModel:
    return model_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# Scenario JSON


def scenario_to_dict(scenario: Scenario) -> dict:
    if scenario.stop_rule == ABSORBING_RULE:
        stop = {"type": "absorbing"}
    else:
        stop = {"type": "transitions", "count": int(scenario.stop_rule)}
    doc = {
        "model": model_to_dict(scenario.model),
        "n_subjects": scenario.n_subjects,
        "n_replications": scenario.n_replications,
        "stop_rule": stop,
        "seed": scenario.seed,
        "replicate_count": scenario.replicate_count,
        "meta": {"format_version": MODEL_FORMAT_VERSION},
    }
    if scenario.name is not None:
        doc["name"] = scenario.name
    return doc


def _integer(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"malformed scenario document: {name} must be an integer, "
                        f"not {json.dumps(value)}")
    return value


def scenario_from_dict(doc: dict) -> Scenario:
    try:
        stop = doc["stop_rule"]
        if stop["type"] == "absorbing":
            stop_rule: int | str = ABSORBING_RULE
        elif stop["type"] == "transitions":
            stop_rule = _integer(stop["count"], "stop_rule.count")
        else:
            raise DataError(f"unknown stop rule type {stop['type']!r}")
        return Scenario(
            model=model_from_dict(doc["model"]),
            n_subjects=_integer(doc["n_subjects"], "n_subjects"),
            n_replications=_integer(doc["n_replications"], "n_replications"),
            stop_rule=stop_rule,
            seed=_integer(doc["seed"], "seed"),
            replicate_count=_integer(doc.get("replicate_count", Scenario.replicate_count),
                                     "replicate_count"),
            name=doc.get("name"),
        )
    except (KeyError, TypeError) as exc:
        raise DataError(f"malformed scenario document: {exc}") from exc


def write_scenario(path, scenario: Scenario) -> None:
    _write_json(path, scenario_to_dict(scenario))


def read_scenario(path) -> Scenario:
    return scenario_from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# Dominance graph export


def export_tds_graph(
    panel: Panel,
    subjects: Optional[Sequence[int]] = None,
    prob_threshold: float = 0.15,
    elicit_frac: float = 0.5,
) -> str:
    """DOT digraph of the panel's dominant transitions.

    Nodes are attributes elicited by at least ``elicit_frac`` of the
    relevant subjects (all subjects, or the given subset, e.g. one
    cluster); directed edges are empirical transition probabilities
    strictly above ``prob_threshold``, labelled to two decimals.  Node and
    edge order follow the state space, so output is deterministic.  Raises
    ``ValueError`` when no subject is selected, an index lies outside
    ``[0, n)``, ``prob_threshold`` is NaN or negative (a zero probability,
    such as a self-transition, would pass it), or ``elicit_frac`` lies
    outside [0, 1].
    """
    if not prob_threshold >= 0.0:
        raise ValueError(f"prob_threshold must be at least 0, got {prob_threshold!r}")
    if not 0.0 <= elicit_frac <= 1.0:
        raise ValueError(f"elicit_frac must lie in [0, 1], got {elicit_frac!r}")
    d = panel.space.n_states
    if subjects is None:
        subjects = range(panel.n_subjects)
    subjects = index_array("subject indices", subjects).tolist()
    if not subjects:
        raise ValueError("no subjects selected")
    outside = [i for i in subjects if not 0 <= i < panel.n_subjects]
    if outside:
        raise ValueError(f"subject index {outside[0]} outside [0, {panel.n_subjects})")

    stats = PanelStats.from_panel(panel)
    # Every visited state is a trajectory's first state or a transition's target.
    visited = stats.first_counts + stats.trans_counts.sum(axis=1) > 0
    elicited = visited[subjects].sum(axis=0) / len(subjects)
    counts = stats.trans_counts[subjects].sum(axis=0)
    nodes = [j for j in range(d) if elicited[j] >= elicit_frac]

    row_totals = counts.sum(axis=1)
    lines = ["digraph tds {", "  rankdir=LR;"]
    for j in nodes:
        lines.append(f'  "{panel.space.labels[j]}";')
    for h in nodes:
        if row_totals[h] <= 0:
            continue
        for j in nodes:
            prob = counts[h, j] / row_totals[h]
            if prob > prob_threshold:
                lines.append(
                    f'  "{panel.space.labels[h]}" -> "{panel.space.labels[j]}"'
                    f' [label="{prob:.2f}"];'
                )
    lines.append("}")
    return "\n".join(lines) + "\n"
