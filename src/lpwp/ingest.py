"""Dataset loading, validation, and persistence.

One problem per JSONL line; ``RECORD`` below is its schema. Character
offsets count Unicode scalar values, not bytes. Validation is total: bad
data is reported with line numbers and field paths, never silently
repaired.
"""

import json
import re
from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter, itemgetter
from typing import Optional

from . import ir
from .errors import (MappingError, StructureError, ToolkitError,
                     UnsupportedDeclarationError, ValidationError)
from .numbers import JsonNumbers, Literal, decode_json, format_number, parse_number

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


# What a key, name, direction or variable cannot hold: an IR token would end
# its content early, so the IR could not write it back, and UTF-8, so no
# saved line, cannot encode a lone surrogate. Only a str that is not all
# ASCII can hold a surrogate; isascii tells that faster than a search, and
# a pattern that looked for both at once would lose sre's scan for the
# first character of a token.
_TOKEN_RE = ir._TOKEN_RE
_SURROGATE = re.compile("[\ud800-\udfff]")


def _unwritable(what, text, field):
    """The error for ``text``, which holds an IR token or a surrogate."""
    holds = ("an IR token" if _TOKEN_RE.search(text)
             else "an unpaired surrogate, which UTF-8 cannot encode")
    return ValidationError(f"{what} {text!r} holds {holds}", field=field)


# A file's keys, names and directions repeat across its problems, and a
# corpus holds a few hundred distinct ones, so each is checked once per
# process; the bound keeps a stream of distinct strings from growing it.
@lru_cache(maxsize=4096)
def _writable_name(text: str) -> str:
    """``normalize_name(text)`` for a str that holds no IR token and no
    lone surrogate; for any other str, ValueError, which is not cached."""
    if _TOKEN_RE.search(text) or not text.isascii() and _SURROGATE.search(text):
        raise ValueError(text)
    return normalize_name(text)


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
            try:
                name = _writable_name(key)
            except ValueError:
                raise _unwritable("order mapping key", key, "order_mapping") from None
            if not name:
                raise ValidationError(f"blank order mapping key {key!r}",
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


@dataclass(frozen=True, slots=True)
class Problem:
    id: str
    text: str
    spans: list  # EntitySpan, sorted by start
    order_mapping: OrderMapping
    gold: Optional[list] = None  # list of ir.Declaration
    # True only from the dataset reader: every gold number it read came
    # through parse_number, which applied the grammar and the digit limit,
    # so _validate_gold does not check the numbers again.
    _numbers_read: InitVar[bool] = False

    def __post_init__(self, _numbers_read):
        for name in ("id", "text"):
            value = getattr(self, name)
            if type(value) is not str:
                raise ValidationError(f"expected a str, got {type(value).__name__}",
                                      field=name)
            if not value.isascii() and _SURROGATE.search(value):
                raise ValidationError("string holds an unpaired surrogate, which "
                                      "UTF-8 cannot encode", field=name)
        object.__setattr__(self, "spans", check_spans(self.text, self.spans))
        self._validate_gold(_numbers_read)

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
        set_slot = object.__setattr__
        set_slot(problem, "id", self.id)
        set_slot(problem, "text", self.text)
        set_slot(problem, "spans", spans)
        set_slot(problem, "order_mapping", self.order_mapping)
        set_slot(problem, "gold", self.gold)
        return problem

    def _validate_gold(self, numbers_read):
        if self.gold is None:
            return
        entries = self.order_mapping.entries
        # Gold must have a canonical form: one objective with a min/max
        # direction, and no constraint row without a nonzero entry. It must
        # also have an IR and a saved form that read back: no blank name or
        # direction, no IR token or lone surrogate in a name, direction or
        # variable, unit objective coefficients, and constraint numbers
        # whose plain decimal terminates and reads back within the digit
        # limit, as every number the reader read does (_check_numbers). An
        # objective direction is a min/max word, so it holds neither.
        objectives = 0
        for i, decl in enumerate(self.gold):
            if not numbers_read:
                _check_numbers(decl, f"gold[{i}]")
            terms = decl.terms
            # Exact keys need no resolving; only other spellings do, and
            # they may add up to an all-zero row.
            if not terms.keys() <= entries.keys():
                terms = {}
                for var, coeff in decl.terms.items():
                    if type(var) is not str:
                        raise ValidationError(f"variable {var!r} is not a str",
                                              field=f"gold[{i}]")
                    try:
                        _writable_name(var)
                    except ValueError:
                        raise _unwritable("variable", var, f"gold[{i}]") from None
                    column = self.order_mapping.resolve(var)
                    terms[column] = terms.get(column, 0) + coeff
            if decl.kind == ir.OBJECTIVE:
                objectives += 1
                try:
                    objective_sign(decl.direction_text)
                except StructureError as err:
                    raise ValidationError(str(err), field=f"gold[{i}]") from None
                name = decl.name
                if not name.strip():
                    raise ValidationError("blank objective name", field=f"gold[{i}]")
                try:
                    _writable_name(name)
                except ValueError:
                    raise _unwritable("objective name", name, f"gold[{i}]") from None
                # Loaded objectives hold the one _ONE, which count finds by
                # identity, without comparing Fractions.
                if [*decl.terms.values()].count(_ONE) != len(decl.terms):
                    raise ValidationError(
                        "objvar records cannot carry non-unit coefficients",
                        field=f"gold[{i}]",
                    )
                continue
            direction = decl.direction_text
            if not direction.strip():
                raise ValidationError("blank constraint direction", field=f"gold[{i}]")
            try:
                _writable_name(direction)
            except ValueError:
                raise _unwritable("constraint direction", direction,
                                  f"gold[{i}]") from None
            if not any(terms.values()):
                raise ValidationError(
                    "constraint row has no nonzero entry", field=f"gold[{i}]"
                )
        if objectives != 1:
            raise ValidationError("gold needs exactly one objective", field="gold")


def _check_numbers(decl, field):
    """Check the numbers of a declaration built in Python, not read by a load.

    Each is an int or a Fraction, as ``numbers.exact`` gives, so not a bool,
    a float or a str. A constraint's limit and coefficients must also write
    and read back, as every number the reader read does.
    """
    constraint = decl.kind == ir.CONSTRAINT
    values = decl.terms.values()
    for value in (decl.limit, *values) if constraint else values:
        if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
            raise ValidationError(
                f"expected an int or a Fraction, got {type(value).__name__}",
                field=field)
        if constraint:
            try:  # raises with save's or load's message
                parse_number(format_number(value))
            except ValueError as err:
                raise ValidationError(str(err), field=field) from None


# --- The schema -------------------------------------------------------------
# A schema is a JSON type (str, int), NUMBER, SHARED_STR, a list of one
# schema, {str: schema}, a Record, or {type name: Record}: an object chosen
# by its "type" field. Reading checks each value once and converts it in the
# same pass. int rejects bool, str rejects a number literal, and other keys
# are ignored. An error's field is the path to the bad value ("gold[1].terms",
# "spans[0].start"), but a bad item of a list or map is reported at the list
# or map, and a number that does not read at its record, naming the field.
#
# ``read`` walks a value and its schema one value at a time. A load reads a
# record through ``_read_record``, RECORD's reader written out by hand for a
# well-formed record, and walks the schema only for a record that it does
# not accept, to name the fault.

NUMBER = "number"  # an int, or a string or literal in the numbers grammar
# A string that repeats across a file's problems, such as a label: a load
# keeps one object per distinct value in its JsonNumbers' ``shared`` memo,
# as it does for the keys of every {str: schema} and for shared records.
SHARED_STR = "shared str"
_NAMES = {type(None): "null", bool: "a boolean", int: "an integer",
          Literal: "a number", float: "a non-finite number", str: "a string",
          list: "a list", dict: "an object", NUMBER: "a number"}


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


def _within(err, step):
    """Prefix ``err``'s field path with ``step``."""
    tail = err.field or ""
    err.field = step + ("." if tail[:1] not in ("", "[") else "") + tail


class Record:
    """An object of fields, read in order and passed to ``build``.

    An optional field may be absent or null, and is passed as None. A
    ValueError from ``build`` is reported at the record. A ``shared``
    record builds an immutable value, kept in ``numbers.shared`` under the
    tuple of its read fields, so equal records read through one
    JsonNumbers are one object.
    """

    def __init__(self, build, fields, optional=(), shared=False):
        self.build, self.fields = build, fields
        self.optional, self.shared = optional, shared


def _check_items(values, item):
    """Raise for the first of ``values`` that is not of ``item``'s JSON
    type; the number reader judges a number."""
    kind = _json_type(item)
    for value in values:
        if type(value) is not kind and kind is not NUMBER:
            raise _mismatch(value, kind)


def _read(value, schema, numbers):
    """``value``, of ``schema``'s JSON type, checked and converted. A number
    that does not read raises ValueError, or TypeError if it is a list or
    an object; the record that holds it reports it."""
    if schema is NUMBER:
        return numbers[value]
    if schema is SHARED_STR:
        return numbers.shared.setdefault(value, value)
    if type(schema) is type:
        return value
    if type(schema) is list:
        _check_items(value, schema[0])
        items = []
        for i, item in enumerate(value):
            try:
                items.append(_read(item, schema[0], numbers))
            except ValidationError as err:
                _within(err, f"[{i}]")
                raise
        return items
    if type(schema) is dict:
        if str in schema:
            _check_items(value.values(), schema[str])
            share = numbers.shared.setdefault
            return {share(k, k): _read(v, schema[str], numbers) for k, v in value.items()}
        tag = value.get("type")
        if type(tag) is str and tag in schema:
            return _read(value, schema[tag], numbers)
        if "type" not in value:
            raise ValidationError("record has no 'type'")
        raise UnsupportedDeclarationError(f"unsupported declaration type: {tag!r}")
    # A Record: every field's JSON type is checked before any field is read.
    for name, kind in zip(schema.fields, map(_json_type, schema.fields.values())):
        v = value.get(name)
        if type(v) is kind or kind is NUMBER and v is not None:
            continue
        if name not in value:
            if name not in schema.optional:
                raise ValidationError("missing required field", field=name)
        elif v is not None or name not in schema.optional:
            err = _mismatch(v, kind)
            err.field = name
            raise err
    fields = []
    for name, sub in schema.fields.items():
        v = value.get(name)
        try:
            fields.append(None if v is None else _read(v, sub, numbers))
        except ValidationError as err:
            _within(err, name)
            raise
        except ValueError as bad:  # a number that does not read
            raise ValidationError(f"{name}: {bad}") from None
        except TypeError:  # an unhashable value where a number belongs
            raise ValidationError(
                f"{name}: expected a number, got a list or an object"
            ) from None
    try:
        if schema.shared:
            key, memo = tuple(fields), numbers.shared
            return memo.get(key) or memo.setdefault(key, schema.build(*key))
        return schema.build(*fields)
    except ValueError as bad:
        raise ValidationError(str(bad)) from None


def read(value, schema, numbers: JsonNumbers, field=None):
    """``value`` checked against ``schema``, with numbers read and records
    built; ``field`` names ``value`` in error paths."""
    try:
        if type(value) is not _json_type(schema):
            raise _mismatch(value, _json_type(schema))
        return _read(value, schema, numbers)
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
    return ir.Declaration(ir.CONSTRAINT, direction, terms, None, operator, limit)


def _problem(id, text, spans, entries, gold):
    try:
        return Problem(id, text, spans, OrderMapping(entries), gold,
                       _numbers_read=True)
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

# The fields that _read_record reads, by hand, from RECORD, SPAN and GOLD.
_RECORD_FIELDS = itemgetter("id", "text", "spans", "order_mapping")
_SPAN_FIELDS = itemgetter("start", "end", "label")
_OBJVAR_FIELDS = itemgetter("direction", "name", "vars")
_LINEAR_FIELDS = itemgetter("direction", "operator", "limit", "terms")
# What a record that _read_record does not accept raises in it: a missing
# field or a value of the wrong type, a number that does not read, or a
# fault that a constructor names.
_NOT_READ = (LookupError, TypeError, ValueError, ToolkitError)


def _new_span(shared, start, end, label):
    label = shared.setdefault(label, label)
    return shared.setdefault((start, end, label), EntitySpan(start, end, label))


def _read_record(record, numbers):
    """The problem that ``read(record, RECORD, numbers)`` builds, or None
    for a record that this does not accept.

    It accepts only values of their exact JSON type, and reads numbers,
    strings and spans through the same memos and builds through the same
    constructors as ``read``, so it builds the same objects; it accepts no
    record that ``read`` rejects. It reads the values of a record with a few
    C-level steps each, where ``read`` walks the schema one value at a time.
    """
    try:
        id, text, spans, entries = _RECORD_FIELDS(record)
        rows = list(map(_SPAN_FIELDS, spans))
        if (type(record) is not dict or type(id) is not str or type(text) is not str
                or type(spans) is not list or type(entries) is not dict
                or tuple(map(type, spans)) != (dict,) * len(rows)
                or [type(v) for row in rows for v in row] != [int, int, str] * len(rows)
                or tuple(map(type, entries.values())) != (int,) * len(entries)):
            return None
        shared = numbers.shared
        share, number = shared.setdefault, numbers.__getitem__
        spans = [shared.get(row) or _new_span(shared, *row) for row in rows]
        entries = dict(zip(map(share, entries, entries), entries.values()))
        gold = record.get("gold")
        if gold is not None:
            if type(gold) is not list:
                return None
            decls = []
            for g in gold:
                kind = g["type"]
                if type(g) is not dict or type(kind) is not str:
                    return None
                if kind == "linear":
                    direction, operator, limit, terms = _LINEAR_FIELDS(g)
                    if (type(direction) is not str or type(operator) is not str
                            or type(terms) is not dict):
                        return None
                    decls.append(_linear(
                        share(direction, direction), share(operator, operator),
                        number(limit),
                        dict(zip(map(share, terms, terms), map(number, terms.values())))))
                elif kind == "objvar":
                    direction, name, variables = _OBJVAR_FIELDS(g)
                    if (type(direction) is not str or type(name) is not str
                            or type(variables) is not list
                            or tuple(map(type, variables)) != (str,) * len(variables)):
                        return None
                    decls.append(_objvar(share(direction, direction), share(name, name),
                                         map(share, variables, variables)))
                else:
                    return None
            gold = decls
        return _problem(id, text, spans, entries, gold)
    except _NOT_READ:
        return None


def gold_to_declarations(records) -> list:
    """Convert raw objective/constraint records into declarations."""
    return read(records, [GOLD], JsonNumbers(), "gold")


def declarations_to_gold(decls) -> list:
    """Inverse of :func:`gold_to_declarations`, used when saving. ``decls``
    is a problem's gold, which its build checked can be written."""
    records = []
    for decl in decls:
        if decl.kind == ir.OBJECTIVE:
            records.append({
                "type": "objvar",
                "direction": decl.direction_text,
                "name": decl.name,
                "vars": list(decl.terms),
            })
        else:
            records.append({
                "type": "linear",
                "direction": decl.direction_text,
                "limit": format_number(decl.limit),
                "terms": {v: format_number(c) for v, c in decl.terms.items()},
                "operator": decl.operator,
            })
    return records


def problem_from_record(record, numbers: JsonNumbers, line=None) -> Problem:
    """Build a problem from one decoded JSON record, reading gold through
    ``numbers``. The problem's build does not check again the numbers that
    ``numbers`` gives: a ``JsonNumbers`` refuses writes, so it holds only
    what its own reads stored."""
    try:
        return _read_record(record, numbers) or read(record, RECORD, numbers)
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


def load_dataset(path) -> list:
    """Load and validate a JSONL dataset; any invariant violation is fatal.

    Lines are read in order, so the first line at fault is the one reported.
    """
    problems = []
    seen_ids = set()
    # Number texts repeat across a file's problems; each is read once.
    numbers = JsonNumbers()
    # A line ends at "\n" only: a lone "\r" is JSON whitespace.
    with open(path, encoding="utf-8", newline="\n") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = decode_json(line)
            except ValueError as err:
                raise ValidationError(f"malformed JSON: {err}", line=line_no)
            if "\\" in line and _SURROGATE_ESCAPE.search(line):
                where = _lone_surrogate_at(record, "")
                if where is not None:
                    raise ValidationError(
                        "string holds an unpaired surrogate escape, which "
                        "UTF-8 cannot encode", line=line_no, field=where or None,
                    )
            problem = problem_from_record(record, numbers, line=line_no)
            if problem.id in seen_ids:
                raise ValidationError(
                    f"duplicate problem id {problem.id!r}", line=line_no
                )
            seen_ids.add(problem.id)
            problems.append(problem)
    return problems


# json.dumps(record, ensure_ascii=False) without a new encoder per call or a
# cycle check: problem_to_record builds a new acyclic tree each time.
_encode = json.JSONEncoder(ensure_ascii=False, check_circular=False).encode


def save_dataset(problems, path) -> None:
    """Write problems as JSONL; round-trips exactly through load_dataset.

    Every line is encoded before ``path`` is opened, so a problem that
    cannot be written leaves ``path`` as it was.
    """
    lines = [(_encode(problem_to_record(problem)) + "\n").encode("utf-8")
             for problem in problems]
    with open(path, "wb") as fh:
        fh.writelines(lines)
