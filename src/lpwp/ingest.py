"""Dataset loading, validation, and persistence.

One problem per JSONL line:

    {"id": str, "text": str,
     "spans": [{"start": int, "end": int, "label": str}],
     "order_mapping": {str: int},
     "gold": [{"type": "objvar"|"linear", ...}]}   # optional

Character offsets count Unicode scalar values, not bytes. Validation is
total: bad data is reported with line numbers and field paths, never
silently repaired.
"""

import json
import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from . import ir
from .errors import MappingError, UnsupportedDeclarationError, ValidationError
from .numbers import JsonNumbers, format_number

logger = logging.getLogger(__name__)

LABELS = ("CONST_DIR", "LIMIT", "OBJ_DIR", "OBJ_NAME", "PARAM", "VAR")


def normalize_name(name: str) -> str:
    """Collapse whitespace runs and fold case for variable-name matching."""
    return " ".join(name.split()).casefold()


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int
    label: str


def check_spans(text: str, spans) -> None:
    """Reject unknown labels, out-of-bounds spans and overlaps.

    ``spans`` must be sorted by ``(start, end)``.
    """
    for span in spans:
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


@dataclass(frozen=True)
class OrderMapping:
    """Assignment of variable surface names to canonical column indices."""

    entries: dict
    # normalize_name(key) -> index, derived from ``entries``.
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        index = {}
        for key, column in self.entries.items():
            # bool is an int subclass, and a float index would load here
            # only to fail as a list index later.
            if type(column) is not int:
                raise ValidationError(
                    f"order mapping index {column!r} of {key!r} is not an "
                    f"integer",
                    field="order_mapping",
                )
            name = normalize_name(key)
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
        object.__setattr__(self, "_index", index)

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


@dataclass
class Problem:
    id: str
    text: str
    spans: list  # EntitySpan, sorted by start
    order_mapping: OrderMapping
    gold: Optional[list] = None  # list of ir.Declaration

    def __post_init__(self):
        self.spans = sorted(self.spans, key=lambda s: (s.start, s.end))
        self.validate()

    def validate(self):
        check_spans(self.text, self.spans)
        for span in self.spans:
            if span.label != "VAR":
                continue
            name = self.text[span.start:span.end]
            try:
                self.order_mapping.resolve(name)
            except MappingError:
                # Noisy datasets legitimately contain VAR spans that no
                # longer name a variable (e.g. after mislabeling), so this
                # is reported but not fatal.
                logger.warning(
                    "problem %s: VAR span %r does not resolve in the order "
                    "mapping", self.id, name,
                )
        if self.gold is not None:
            entries = self.order_mapping.entries
            for decl in self.gold:
                # Exact keys need no resolving; only other spellings do,
                # and they keep resolve's error message.
                if not decl.terms.keys() <= entries.keys():
                    for var in decl.terms:
                        self.order_mapping.resolve(var)


def _wrong_type(value, expected, field):
    return ValidationError(
        f"expected {expected}, got {type(value).__name__}", field=field
    )


_ONE = Fraction(1)


def gold_to_declarations(records) -> list:
    """Convert raw objective/constraint records into declarations.

    Limits and coefficients must have a terminating decimal expansion.
    """
    return _gold_to_declarations(records, JsonNumbers())


def _gold_to_declarations(records, numbers: JsonNumbers) -> list:
    decls = []
    for i, rec in enumerate(records):
        try:
            rtype = rec["type"]
        except (KeyError, TypeError):
            raise ValidationError("record has no 'type'", field=f"gold[{i}]")
        try:
            if rtype == "objvar":
                names = rec["vars"]
                if not isinstance(names, list):
                    raise _wrong_type(names, "a list", f"gold[{i}].vars")
                if not all(type(v) is str for v in names):
                    raise ValidationError(
                        "variable names must be strings", field=f"gold[{i}].vars"
                    )
                decls.append(ir.objective(
                    rec["direction"], rec["name"], {v: _ONE for v in names},
                ))
            elif rtype == "linear":
                terms = rec["terms"]
                if not isinstance(terms, dict):
                    raise _wrong_type(terms, "an object", f"gold[{i}].terms")
                decls.append(ir.constraint(
                    rec["direction"], rec["operator"], numbers[str(rec["limit"])],
                    {v: numbers[str(c)] for v, c in terms.items()},
                ))
            else:
                raise UnsupportedDeclarationError(rtype, field=f"gold[{i}]")
        except KeyError as missing:
            raise ValidationError(
                f"missing required field {missing}", field=f"gold[{i}].type={rtype}"
            )
        except ValueError as bad:
            raise ValidationError(str(bad), field=f"gold[{i}]")
    return decls


def declarations_to_gold(decls) -> list:
    """Inverse of :func:`gold_to_declarations`, used when saving."""
    records = []
    for decl in decls:
        if decl.kind == ir.OBJECTIVE:
            if any(c != 1 for c in decl.terms.values()):
                raise ValidationError(
                    "objvar records cannot carry non-unit coefficients"
                )
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
    """Build a problem from one JSON record, reading gold through ``numbers``."""
    try:
        if not isinstance(record, dict):
            raise _wrong_type(record, "an object", None)
        raw_spans = record["spans"]
        if not isinstance(raw_spans, list):
            raise _wrong_type(raw_spans, "a list", "spans")
        try:
            spans = [EntitySpan(s["start"], s["end"], s["label"]) for s in raw_spans]
        except TypeError:  # a span that is not an object
            raise ValidationError(
                "each span must be an object", field="spans"
            ) from None
        entries = record["order_mapping"]
        if not isinstance(entries, dict):
            raise _wrong_type(entries, "an object", "order_mapping")
        mapping = OrderMapping(dict(entries))
        gold = record.get("gold")
        if not (gold is None or isinstance(gold, list)):
            raise _wrong_type(gold, "a list", "gold")
        if not isinstance(record["id"], str):
            raise ValidationError("problem id must be a string", field="id")
        return Problem(
            id=record["id"],
            text=record["text"],
            spans=spans,
            order_mapping=mapping,
            gold=(
                _gold_to_declarations(gold, numbers) if gold is not None else None
            ),
        )
    except KeyError as missing:
        raise ValidationError(f"missing required field {missing}", line=line)
    except ValidationError as err:
        err.line = line
        raise
    except MappingError as err:
        raise ValidationError(str(err), line=line, field="gold") from err


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


def load_dataset(path) -> list:
    """Load and validate a JSONL dataset; any invariant violation is fatal."""
    problems = []
    seen_ids = set()
    # Number texts repeat across a file's problems; each is read once.
    numbers = JsonNumbers()
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as err:
                raise ValidationError(f"malformed JSON: {err}", line=line_no)
            problem = problem_from_record(record, numbers, line=line_no)
            if problem.id in seen_ids:
                raise ValidationError(
                    f"duplicate problem id {problem.id!r}", line=line_no
                )
            seen_ids.add(problem.id)
            problems.append(problem)
    return problems


def save_dataset(problems, path) -> None:
    """Write problems as JSONL; round-trips exactly through load_dataset."""
    with open(path, "w", encoding="utf-8") as fh:
        for problem in problems:
            fh.write(json.dumps(problem_to_record(problem), ensure_ascii=False))
            fh.write("\n")
