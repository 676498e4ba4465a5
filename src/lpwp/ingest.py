"""Dataset loading, validation, and persistence.

One problem per JSONL line; ``RECORD`` below is its schema. Character
offsets count Unicode scalar values, not bytes. Validation is total: bad
data is reported with line numbers and field paths, never silently
repaired.
"""

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from operator import attrgetter, itemgetter
from typing import Optional

from . import ir
from .errors import (MappingError, StructureError, UnsupportedDeclarationError,
                     ValidationError)
from .numbers import JsonNumbers, Literal, decode_json, format_number

LABELS = ("CONST_DIR", "LIMIT", "OBJ_DIR", "OBJ_NAME", "PARAM", "VAR")

# Objective direction words, after normalize_name.
MIN_WORDS = frozenset({"min", "minimize", "minimise", "minimization", "minimisation"})
MAX_WORDS = frozenset({"max", "maximize", "maximise", "maximization", "maximisation"})
_SIGNS = {**dict.fromkeys(MIN_WORDS, 1), **dict.fromkeys(MAX_WORDS, -1)}


def normalize_name(name: str) -> str:
    """Collapse whitespace runs and fold case for variable-name matching."""
    return " ".join(name.split()).casefold()


def objective_sign(direction_text: str) -> int:
    """1 for a minimize word and -1 for a maximize word, in any spelling."""
    # Most directions are spelled as listed and need no normalizing.
    sign = _SIGNS.get(direction_text) or _SIGNS.get(normalize_name(direction_text))
    if sign is None:
        raise StructureError(f"objective direction {direction_text!r} is "
                             "neither minimize nor maximize")
    return sign


@dataclass(frozen=True, slots=True)
class EntitySpan:
    start: int
    end: int
    label: str


def check_spans(text: str, spans) -> list:
    """``spans`` sorted by ``(start, end)``; rejects offsets that are not
    ints, unknown labels, out-of-bounds spans and overlaps."""
    spans = list(spans)
    try:
        spans.sort(key=attrgetter("start", "end"))
    except TypeError:  # offsets that do not compare, rejected below
        pass
    for span in spans:
        if type(span.start) is not int or type(span.end) is not int:
            raise ValidationError(
                f"span offsets ({span.start!r}, {span.end!r}) are not both ints",
                field="spans",
            )
        if span.label not in LABELS:
            raise ValidationError(
                f"unknown span label {span.label!r}", field="spans"
            )
        if not (0 <= span.start < span.end <= len(text)):
            raise ValidationError(
                f"span ({span.start}, {span.end}) out of bounds for text "
                f"of length {len(text)}",
                field="spans",
            )
    for a, b in zip(spans, spans[1:]):
        if b.start < a.end:
            raise ValidationError(
                f"overlapping spans ({a.start}, {a.end}, {a.label}) and "
                f"({b.start}, {b.end}, {b.label})",
                field="spans",
            )
    return spans


# An IR token inside a name, direction or variable would end its content
# early, so the IR could not write it back.
_TOKEN_RE = ir._TOKEN_RE


def _not_ir_content(what, text, i):
    return ValidationError(f"{what} {text!r} holds an IR token", field=f"gold[{i}]")


@dataclass(frozen=True, slots=True)
class OrderMapping:
    """Assignment of variable surface names to canonical column indices."""

    entries: dict
    # normalize_name(key) -> index, derived from ``entries``: ``entries``
    # itself when every key is in normal form, else a dict of its own.
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for key, column in self.entries.items():
            if type(key) is not str:
                raise ValidationError(f"order mapping key {key!r} is not a str",
                                      field="order_mapping")
            if type(column) is not int:
                raise ValidationError(
                    f"order mapping index {column!r} of {key!r} is not an int",
                    field="order_mapping",
                )
            name = normalize_name(key)
            if not name:
                raise ValidationError(f"blank order mapping key {key!r}",
                                      field="order_mapping")
            if _TOKEN_RE.search(key):
                raise ValidationError(f"order mapping key {key!r} holds an IR token",
                                      field="order_mapping")
            if name in index:
                first = next(k for k in self.entries if normalize_name(k) == name)
                raise ValidationError(
                    f"order mapping keys {first!r} and {key!r} both "
                    f"normalize to {name!r}",
                    field="order_mapping",
                )
            index[name] = column
        indices = sorted(self.entries.values())
        if indices != list(range(len(indices))):
            raise ValidationError(
                f"order mapping indices {indices} are not a bijection onto "
                f"0..{len(indices) - 1}",
                field="order_mapping",
            )
        # Equal exactly when every key is in normal form, as normalizing
        # twice changes nothing.
        object.__setattr__(self, "_index",
                           self.entries if index == self.entries else index)

    @property
    def n_vars(self) -> int:
        return len(self.entries)

    def resolve(self, name: str) -> int:
        """Map a (possibly sloppily spaced) variable name to its column."""
        # An exact key needs no normalization: keys that collide after
        # normalization are rejected, so both lookups give the same column.
        index = self.entries.get(name)
        if index is None:
            index = self._index.get(normalize_name(name))
        if index is not None:
            return index
        known = ", ".join(sorted(self.entries))
        raise MappingError(f"unknown variable {name!r} (known: {known})")

    def column_names(self) -> list:
        by_index = {i: k for k, i in self.entries.items()}
        return [by_index[i] for i in range(len(by_index))]


@dataclass(slots=True)
class Problem:
    id: str
    text: str
    spans: list  # EntitySpan, sorted by start
    order_mapping: OrderMapping
    gold: Optional[list] = None  # list of ir.Declaration

    def __post_init__(self):
        for name in ("id", "text"):
            value = getattr(self, name)
            if type(value) is not str:
                raise ValidationError(f"expected a str, got {type(value).__name__}",
                                      field=name)
        self.spans = check_spans(self.text, self.spans)
        self._validate_gold()

    def with_spans(self, spans) -> "Problem":
        """A copy of this problem with ``spans`` in place of its spans.

        Only the spans are checked: the text, order mapping and gold are
        this problem's, which passed their checks when it was built.
        """
        return self.with_checked_spans(check_spans(self.text, spans))

    def with_checked_spans(self, spans: list) -> "Problem":
        """A copy of this problem with ``spans``, a list that
        ``check_spans`` returned for this problem's text; it shares this
        problem's other fields, and nothing is checked again."""
        problem = object.__new__(Problem)  # __post_init__ would check all
        problem.id, problem.text, problem.spans = self.id, self.text, spans
        problem.order_mapping, problem.gold = self.order_mapping, self.gold
        return problem

    # A slotted class needs these to pickle at protocols 0 and 1.
    def __getstate__(self):
        return self.id, self.text, self.spans, self.order_mapping, self.gold

    def __setstate__(self, state):
        self.id, self.text, self.spans, self.order_mapping, self.gold = state

    def _validate_gold(self):
        if self.gold is None:
            return
        entries = self.order_mapping.entries
        # Gold must have a canonical form: one objective with a min/max
        # direction, and no constraint row without a nonzero entry. It must
        # also have an IR form that parses back: no blank name or direction,
        # no IR token in a name, direction or variable, unit objective
        # coefficients, and constraint numbers with a terminating decimal.
        # An objective direction is a min/max word, so it holds no token.
        objectives = 0
        for i, decl in enumerate(self.gold):
            terms = decl.terms
            # Exact keys need no resolving; only other spellings do, and
            # they may add up to an all-zero row.
            if not terms.keys() <= entries.keys():
                terms = {}
                for var, coeff in decl.terms.items():
                    column = self.order_mapping.resolve(var)
                    if _TOKEN_RE.search(var):
                        raise _not_ir_content("variable", var, i)
                    terms[column] = terms.get(column, 0) + coeff
            if decl.kind == ir.OBJECTIVE:
                objectives += 1
                try:
                    objective_sign(decl.direction_text)
                except StructureError as err:
                    raise ValidationError(str(err), field=f"gold[{i}]") from None
                if not decl.name.strip():
                    raise ValidationError("blank objective name", field=f"gold[{i}]")
                if _TOKEN_RE.search(decl.name):
                    raise _not_ir_content("objective name", decl.name, i)
                # Loaded objectives hold the one _ONE, which count finds by
                # identity, without comparing Fractions.
                if [*decl.terms.values()].count(_ONE) != len(decl.terms):
                    raise ValidationError(
                        "objvar records cannot carry non-unit coefficients",
                        field=f"gold[{i}]",
                    )
            elif not decl.direction_text.strip():
                raise ValidationError("blank constraint direction", field=f"gold[{i}]")
            elif _TOKEN_RE.search(decl.direction_text):
                raise _not_ir_content("constraint direction", decl.direction_text, i)
            elif not any(terms.values()):
                raise ValidationError(
                    "constraint row has no nonzero entry", field=f"gold[{i}]"
                )
            else:
                # A chain, not a tuple as wide as the row: one such tuple
                # per constraint, made while a load builds its problems,
                # raised the peak memory of a solve pass.
                for value in chain((decl.limit,), decl.terms.values()):
                    # A decimal terminates when its denominator divides a
                    # power of ten; 10**d.bit_length() is high enough.
                    d = value.denominator
                    if d != 1 and pow(10, d.bit_length(), d):
                        try:
                            format_number(value)  # raises, with save's message
                        except ValueError as err:
                            raise ValidationError(str(err),
                                                  field=f"gold[{i}]") from None
        if objectives != 1:
            raise ValidationError("gold needs exactly one objective", field="gold")


# --- The schema -------------------------------------------------------------
# A schema is a JSON type (str, int), NUMBER, SHARED_STR, a list of one
# schema, {str: schema}, a Record, or {type name: Record}: an object chosen
# by its "type" field. Reading checks each value once and converts it in the
# same pass. int rejects bool, str rejects a number literal, and other keys
# are ignored. An error's field is the path to the bad value ("gold[1].terms",
# "spans[0].start"), but a bad item of a list or map is reported at the list
# or map, and a number that does not read at its record, naming the field.
#
# A reader takes the number cache and a list of values, and returns the list
# of results: the values of one field across many records are checked and
# converted together, so the cost per value is a few C-level steps. A batch
# that fails is read again one value at a time, to report the first fault.

NUMBER = "number"  # an int, or a string or literal in the numbers grammar
# A string that repeats across a file's problems, such as a label: a load
# keeps one object per distinct value in its JsonNumbers' ``shared`` memo,
# as it does for the keys of every {str: schema} and for shared records.
SHARED_STR = "shared str"
_NAMES = {type(None): "null", bool: "a boolean", int: "an integer",
          Literal: "a number", float: "a non-finite number", str: "a string",
          list: "a list", dict: "an object", NUMBER: "a number"}
_FAULTS = (ValidationError, ValueError, TypeError)


def _json_type(schema):
    """The JSON type of a value of ``schema``, or NUMBER."""
    if schema is NUMBER or type(schema) is type:
        return schema
    if schema is SHARED_STR:
        return str
    return list if type(schema) is list else dict


def _mismatch(value, json_type):
    got = _NAMES.get(type(value), type(value).__name__)
    return ValidationError(f"expected {_NAMES[json_type]}, got {got}")


def _first_mismatch(values, json_type):
    return _mismatch(next(v for v in values if type(v) is not json_type), json_type)


def _within(err, step):
    """Prefix ``err``'s field path with ``step``."""
    tail = err.field or ""
    err.field = step + ("." if tail[:1] not in ("", "[") else "") + tail


def _batched(read_all):
    """``read_all(numbers, values)``, with the position of the first value
    that fails in the fault's ``index``."""
    def read(numbers, values):
        try:
            return read_all(numbers, values)
        except _FAULTS as err:
            for i, value in enumerate(values if len(values) > 1 else ()):
                try:
                    read_all(numbers, [value])
                except _FAULTS as first:
                    first.index = i
                    raise first from None
            err.index = 0
            raise
    return read


class Record:
    """An object of two or more fields, read and passed to ``build`` in order.

    ``read(numbers, values)`` returns what ``build`` makes of each value. An
    optional field may be absent or null, and is passed as None. A
    ValueError from ``build`` is reported at the record. A ``shared``
    record builds an immutable value, kept in ``numbers.shared`` under the
    tuple of its read fields, so equal records read through one
    JsonNumbers are one object.
    """

    def __init__(self, build, fields, optional=(), shared=False):
        self.build, self.optional, self.shared = build, frozenset(optional), shared
        self.names, self.get = tuple(fields), itemgetter(*fields)
        self.kinds = tuple(map(_json_type, fields.values()))
        # The field types of a record that needs no closer look; a number
        # is most often a string.
        self.types = tuple(str if k is NUMBER else k for k in self.kinds)
        self.reads = [(i, name, _reader(sub)) for i, (name, sub)
                      in enumerate(fields.items()) if _reader(sub)]
        self.read = _batched(self._read_all)

    def _read_all(self, numbers, values):
        try:
            rows = list(map(self.get, values))
        except KeyError:
            rows = [tuple(map(value.get, self.names)) for value in values]
        if tuple(map(type, chain.from_iterable(rows))) != self.types * len(rows):
            for value, row in zip(values, rows):
                self._check(value, row)
        columns = list(zip(*rows)) or [()] * len(self.names)
        for i, name, read in self.reads:
            column = columns[i]
            if name in self.optional:  # read the values that are not null
                column = [v for v in column if v is not None]
            try:
                results = read(numbers, column)
            except ValidationError as err:
                _within(err, name)
                raise
            except ValueError as bad:  # a number that does not read
                raise ValidationError(f"{name}: {bad}") from None
            except TypeError:  # an unhashable value where a number belongs
                raise ValidationError(
                    f"{name}: expected a number, got a list or an object"
                ) from None
            if name in self.optional:
                results = iter(results)
                results = [v if v is None else next(results) for v in columns[i]]
            columns[i] = results
        try:
            if self.shared:
                memo = numbers.shared
                return [memo.get(key) or memo.setdefault(key, self.build(*key))
                        for key in zip(*columns)]
            return list(map(self.build, *columns))
        except ValueError as bad:
            raise ValidationError(str(bad)) from None

    def _check(self, value, values):
        """Raise for the first field that is missing or of the wrong type;
        the number reader judges a number that is not null."""
        for name, kind, v in zip(self.names, self.kinds, values):
            if type(v) is kind or kind is NUMBER and v is not None:
                continue
            if name not in value:
                if name in self.optional:
                    continue
                raise ValidationError("missing required field", field=name)
            if v is not None or name not in self.optional:
                err = _mismatch(v, kind)
                err.field = name
                raise err


def _read_numbers(numbers, values):
    return list(map(numbers.__getitem__, values))


def _read_shared(numbers, values):
    return list(map(numbers.shared.setdefault, values, values))


def _reader(schema):
    """``read(numbers, values)`` for values of ``schema``'s JSON type, or
    None for a JSON type, whose values need no reading."""
    if schema is NUMBER:
        return _read_numbers
    if schema is SHARED_STR:
        return _read_shared
    if type(schema) is type:
        return None
    if type(schema) is Record:
        return schema.read
    if type(schema) is list:
        return _list_reader(schema[0])
    if str not in schema:
        return _choice_reader(schema)
    item = schema[str]

    def read_maps(numbers, maps):
        items = list(chain.from_iterable(map(dict.values, maps)))
        if item is NUMBER:
            items = _read_numbers(numbers, items)
        elif tuple(map(type, items)) != (item,) * len(items):
            raise _first_mismatch(items, item)
        # Keys repeat across a file's problems, as SHARED_STR values do.
        items, share = iter(items), numbers.shared.setdefault
        return [dict(zip(map(share, value, value), items)) for value in maps]
    return _batched(read_maps)


def _list_reader(item):
    item_type, read_item = _json_type(item), _reader(item)

    def read_lists(numbers, lists):
        items = list(chain.from_iterable(lists))
        if item is not NUMBER and tuple(map(type, items)) != (item_type,) * len(items):
            raise _first_mismatch(items, item_type)
        if read_item:
            try:
                items = read_item(numbers, items)
            except ValidationError as err:
                _within(err, f"[{err.index}]")
                raise
        items = iter(items)
        return [list(islice(items, len(value))) for value in lists]
    return _batched(read_lists)


def _choice_reader(records):
    def read_choices(numbers, values):
        tags = [value.get("type") for value in values]
        out = [None] * len(values)
        for tag, record in records.items():
            where = [i for i, t in enumerate(tags) if t == tag]
            for i, result in zip(where, record.read(numbers, [values[i] for i in where])):
                out[i] = result
        for value, tag in zip(values, tags):
            if not (type(tag) is str and tag in records):
                if "type" not in value:
                    raise ValidationError("record has no 'type'")
                raise UnsupportedDeclarationError(
                    f"unsupported declaration type: {tag!r}"
                )
        return out
    return _batched(read_choices)


def read(value, schema, numbers: JsonNumbers, field=None):
    """``value`` checked against ``schema``, with numbers read and records
    built; ``field`` names ``value`` in error paths."""
    try:
        if type(value) is not _json_type(schema):
            raise _mismatch(value, _json_type(schema))
        return _reader(schema)(numbers, [value])[0]
    except ValidationError as err:
        if field:
            _within(err, field)
        raise


_ONE = Fraction(1)


def _objvar(direction, name, variables):
    return ir.Declaration(ir.OBJECTIVE, direction, dict.fromkeys(variables, _ONE),
                          name=name)


def _linear(direction, operator, limit, terms):
    # The reader built ``terms`` and ``limit``; ir.constraint would copy them.
    return ir.Declaration(ir.CONSTRAINT, direction, terms, operator=operator,
                          limit=limit)


def _problem(id, text, spans, entries, gold):
    try:
        return Problem(id, text, spans, OrderMapping(entries), gold)
    except MappingError as err:
        raise ValidationError(str(err), field="gold") from err


SPAN = Record(EntitySpan, {"start": int, "end": int, "label": SHARED_STR},
              shared=True)
GOLD = {  # a gold record, by its "type"
    "objvar": Record(_objvar, {"direction": SHARED_STR, "name": SHARED_STR,
                               "vars": [SHARED_STR]}),
    "linear": Record(_linear, {"direction": SHARED_STR, "operator": SHARED_STR,
                               "limit": NUMBER, "terms": {str: NUMBER}}),
}
RECORD = Record(_problem, {"id": str, "text": str, "spans": [SPAN],
                           "order_mapping": {str: int}, "gold": [GOLD]},
                optional=["gold"])


def gold_to_declarations(records) -> list:
    """Convert raw objective/constraint records into declarations."""
    return read(records, [GOLD], JsonNumbers(), "gold")


def declarations_to_gold(decls) -> list:
    """Inverse of :func:`gold_to_declarations`, used when saving."""
    records = []
    for i, decl in enumerate(decls):
        if decl.kind == ir.OBJECTIVE:
            if any(c != 1 for c in decl.terms.values()):
                raise ValidationError(
                    "objvar records cannot carry non-unit coefficients",
                    field=f"gold[{i}]",
                )
            records.append({
                "type": "objvar",
                "direction": decl.direction_text,
                "name": decl.name,
                "vars": list(decl.terms),
            })
        else:
            try:  # a number such as 1/3 has no decimal to write
                limit = format_number(decl.limit)
                terms = {v: format_number(c) for v, c in decl.terms.items()}
            except ValueError as err:
                raise ValidationError(str(err), field=f"gold[{i}]") from None
            records.append({
                "type": "linear",
                "direction": decl.direction_text,
                "limit": limit,
                "terms": terms,
                "operator": decl.operator,
            })
    return records


def problem_from_record(record, numbers: JsonNumbers, line=None) -> Problem:
    """Build a problem from one decoded JSON record, reading gold through ``numbers``."""
    try:
        return read(record, RECORD, numbers)
    except ValidationError as err:
        err.line = line
        raise


def problem_to_record(problem: Problem) -> dict:
    record = {
        "id": problem.id,
        "text": problem.text,
        "spans": [
            {"start": s.start, "end": s.end, "label": s.label}
            for s in problem.spans
        ],
        "order_mapping": dict(problem.order_mapping.entries),
    }
    if problem.gold is not None:
        record["gold"] = declarations_to_gold(problem.gold)
    return record


_SURROGATE = re.compile("[\ud800-\udfff]")
# Only a \u escape puts a surrogate into a decoded string; a line without
# one needs no closer look.
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def _lone_surrogate_at(value, path):
    """The field path of the first string in ``value`` that holds a
    surrogate, or None. JSON decoding joins an escaped pair into one
    character, so such a surrogate is unpaired. A bad key is reported at
    its object."""
    if type(value) is str:
        return path if _SURROGATE.search(value) else None
    if type(value) is dict:
        if any(map(_SURROGATE.search, value)):
            return path
        steps = ((f"{path}.{k}" if path else k, v) for k, v in value.items())
    elif type(value) is list:
        steps = ((f"{path}[{i}]", v) for i, v in enumerate(value))
    else:
        return None
    for step, item in steps:
        found = _lone_surrogate_at(item, step)
        if found is not None:
            return found
    return None


# load_dataset reads lines together until they hold this many characters:
# fewer lines of large problems keep the batch's memory small.
_BATCH_CHARS = 1 << 16


def load_dataset(path) -> list:
    """Load and validate a JSONL dataset; any invariant violation is fatal."""
    problems = []
    seen_ids = set()
    # Number texts repeat across a file's problems; each is read once.
    numbers = JsonNumbers()

    def add(batch):
        try:
            built = read([record for _, record in batch], [RECORD], numbers)
        except ValidationError:  # read line by line, to report the first fault
            built = [None] * len(batch)
        for (line_no, record), problem in zip(batch, built):
            if problem is None:
                problem = problem_from_record(record, numbers, line=line_no)
            if problem.id in seen_ids:
                raise ValidationError(
                    f"duplicate problem id {problem.id!r}", line=line_no
                )
            seen_ids.add(problem.id)
            problems.append(problem)

    batch, size = [], 0
    # A line ends at "\n" only: a lone "\r" is JSON whitespace.
    with open(path, encoding="utf-8", newline="\n") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = decode_json(line)
            except ValueError as err:
                add(batch)  # a fault on an earlier line comes first
                raise ValidationError(f"malformed JSON: {err}", line=line_no)
            if "\\" in line and _SURROGATE_ESCAPE.search(line):
                where = _lone_surrogate_at(record, "")
                if where is not None:
                    add(batch)
                    raise ValidationError(
                        "string holds an unpaired surrogate escape, which "
                        "UTF-8 cannot encode", line=line_no, field=where or None,
                    )
            batch.append((line_no, record))
            size += len(line)
            if size >= _BATCH_CHARS:
                add(batch)
                batch, size = [], 0
    add(batch)
    return problems


def save_dataset(problems, path) -> None:
    """Write problems as JSONL; round-trips exactly through load_dataset.

    Every line is encoded before ``path`` is opened, so a problem that
    cannot be written leaves ``path`` as it was.
    """
    lines = []
    for problem in problems:
        try:
            record = problem_to_record(problem)
            line = json.dumps(record, ensure_ascii=False) + "\n"
            lines.append(line.encode("utf-8"))
        except ValidationError as err:
            raise ValidationError(f"problem {problem.id!r}: {err.message}",
                                  field=err.field) from None
        except UnicodeEncodeError:
            raise ValidationError(
                f"problem {problem.id!r}: string holds an unpaired "
                "surrogate, which UTF-8 cannot encode",
                field=_lone_surrogate_at(record, "") or None,
            ) from None
    with open(path, "wb") as fh:
        fh.writelines(lines)
