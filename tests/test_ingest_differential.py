"""The dataset reader against a frozen copy of the columnar reader it replaced.

``load_dataset`` reads each record by itself: a hand-written reader for a
well-formed record, and a recursive walk of the schema table for any
other, which names the fault. The reference below read the values of one
field across a batch of records together, and read a failing batch again
one value at a time to name its first fault. Both must build equal
problems, or raise the same error class with the same message, field and
line.
"""

import json
import pickle
import random
from collections import OrderedDict
from itertools import chain, islice
from operator import itemgetter

from hypothesis import given, seed, settings
from hypothesis import strategies as st

from lpwp import ingest, solver
from lpwp.canonical import CanonicalFormulation
from lpwp.errors import UnsupportedDeclarationError, ValidationError
from lpwp.ingest import (NUMBER, SHARED_STR, EntitySpan, _linear, _mismatch, _objvar,
                         _problem, _within)
from lpwp.numbers import JsonNumbers, decode_json

from helpers import MUTANT_VALUES, berry_problem, json_paths, random_problem, replace_at

# --- The columnar reader, as it read every record, kept as the reference ----

_FAULTS = (ValidationError, ValueError, TypeError)


def _json_type(schema):
    if schema is NUMBER or type(schema) is type:
        return schema
    if schema is SHARED_STR:
        return str
    return list if type(schema) is list else dict


def _first_mismatch(values, json_type):
    return _mismatch(next(v for v in values if type(v) is not json_type), json_type)


def _batched(read_all):
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


class _ReferenceRecord:
    def __init__(self, build, fields, optional=(), shared=False):
        self.build, self.optional, self.shared = build, frozenset(optional), shared
        self.names, self.get = tuple(fields), itemgetter(*fields)
        self.kinds = tuple(map(_json_type, fields.values()))
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
            if name in self.optional:
                column = [v for v in column if v is not None]
            try:
                results = read(numbers, column)
            except ValidationError as err:
                _within(err, name)
                raise
            except ValueError as bad:
                raise ValidationError(f"{name}: {bad}") from None
            except TypeError:
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
    if schema is NUMBER:
        return _read_numbers
    if schema is SHARED_STR:
        return _read_shared
    if type(schema) is type:
        return None
    if type(schema) is _ReferenceRecord:
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


def reference_read(value, schema, numbers, field=None):
    try:
        if type(value) is not _json_type(schema):
            raise _mismatch(value, _json_type(schema))
        return _reader(schema)(numbers, [value])[0]
    except ValidationError as err:
        if field:
            _within(err, field)
        raise


SPAN = _ReferenceRecord(EntitySpan, {"start": int, "end": int, "label": SHARED_STR},
                        shared=True)
GOLD = {
    "objvar": _ReferenceRecord(_objvar, {"direction": SHARED_STR, "name": SHARED_STR,
                                         "vars": [SHARED_STR]}),
    "linear": _ReferenceRecord(_linear, {"direction": SHARED_STR,
                                         "operator": SHARED_STR, "limit": NUMBER,
                                         "terms": {str: NUMBER}}),
}
RECORD = _ReferenceRecord(_problem, {"id": str, "text": str, "spans": [SPAN],
                                     "order_mapping": {str: int}, "gold": [GOLD]},
                          optional=["gold"])
FORMULATION = _ReferenceRecord(CanonicalFormulation, {
    "n_vars": int, "objective": [NUMBER], "constraints": [[NUMBER]],
    "limits": [NUMBER],
})


def reference_problem_from_record(record, numbers, line=None):
    try:
        return reference_read(record, RECORD, numbers)
    except ValidationError as err:
        err.line = line
        raise


_BATCH_CHARS = 1 << 16


def reference_load_dataset(path):
    problems = []
    seen_ids = set()
    numbers = JsonNumbers()

    def add(batch):
        try:
            built = reference_read([record for _, record in batch], [RECORD], numbers)
        except ValidationError:
            built = [None] * len(batch)
        for (line_no, record), problem in zip(batch, built):
            if problem is None:
                problem = reference_problem_from_record(record, numbers, line=line_no)
            if problem.id in seen_ids:
                raise ValidationError(
                    f"duplicate problem id {problem.id!r}", line=line_no
                )
            seen_ids.add(problem.id)
            problems.append(problem)

    batch, size = [], 0
    with open(path, encoding="utf-8", newline="\n") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = decode_json(line)
            except ValueError as err:
                add(batch)
                raise ValidationError(f"malformed JSON: {err}", line=line_no)
            if "\\" in line and ingest._SURROGATE_ESCAPE.search(line):
                where = ingest._lone_surrogate_at(record, "")
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


# --- The comparison -----------------------------------------------------------

def outcome(read, *args):
    """("ok", the pickled result, which shows equal objects and which of
    them are one object) or ("error", class, message, field, line)."""
    try:
        return "ok", pickle.dumps(read(*args))
    except ValidationError as err:
        return "error", type(err), err.message, err.field, err.line


MUTATION_RECORDS = [ingest.problem_to_record(berry_problem())] + [
    ingest.problem_to_record(random_problem(random.Random(n), f"r{n}"))
    for n in range(3)
]


@seed(20261018)
@settings(max_examples=500, deadline=None)
@given(st.data())
def test_reader_matches_the_columnar_reader_on_type_mutations(data):
    """The corpus of ``test_type_mutations_are_rejected_or_round_trip``."""
    record = data.draw(st.sampled_from(MUTATION_RECORDS))
    path = data.draw(st.sampled_from(list(json_paths(record))))
    value = data.draw(st.one_of(
        st.sampled_from(MUTANT_VALUES), st.none(), st.booleans(), st.integers(),
        st.floats(), st.text(max_size=12),
        st.lists(st.integers(-2, 2), max_size=3),
        st.dictionaries(st.text(max_size=4), st.integers(-2, 2), max_size=2),
    ))
    line = json.dumps(replace_at(record, path, value))
    expected = outcome(reference_problem_from_record, decode_json(line), JsonNumbers(), 1)
    assert outcome(ingest.problem_from_record, decode_json(line), JsonNumbers(),
                   1) == expected, (path, value)
    # The recursive reader names the same fault, and the hand-written one
    # accepts no record that it rejects.
    assert outcome(ingest.read, decode_json(line), ingest.RECORD,
                   JsonNumbers())[:4] == expected[:4], (path, value)
    if expected[0] == "error":
        assert ingest._read_record(decode_json(line), JsonNumbers()) is None, (path, value)
    gold = decode_json(line).get("gold")
    if type(gold) is list:
        assert (outcome(ingest.gold_to_declarations, gold)
                == outcome(reference_read, gold, [GOLD], JsonNumbers(), "gold"))


class _Str(str):
    pass


SPAN_AT_0 = {"id": "a", "text": "x", "spans": [{"start": 0, "end": 1, "label": "VAR"}],
             "order_mapping": {"x": 0}}


def _with_span(**changes):
    return dict(SPAN_AT_0, id="b", spans=[dict(SPAN_AT_0["spans"][0], **changes)])


def test_a_value_equal_to_one_read_before_is_still_checked():
    """Values equal to an earlier record's but not of its exact type, such
    as ``false`` for 0, and Python values no JSON decoding makes."""
    gold = [{"type": "objvar", "direction": "min", "name": "n", "vars": ["x"]}]
    cases = [
        _with_span(start=False), _with_span(end=True), _with_span(start=0.0),
        _with_span(label=_Str("VAR")),
        dict(SPAN_AT_0, id="b", spans=[OrderedDict(SPAN_AT_0["spans"][0])]),
        dict(SPAN_AT_0, id="b", spans=tuple(SPAN_AT_0["spans"])),
        OrderedDict(SPAN_AT_0, id="b"),
        dict(SPAN_AT_0, id=_Str("b")),
        dict(SPAN_AT_0, id="b", order_mapping=OrderedDict(x=0)),
        dict(SPAN_AT_0, id="b", gold=[dict(gold[0], type=_Str("objvar"))]),
        dict(SPAN_AT_0, id="b", gold=[OrderedDict(gold[0])]),
        dict(SPAN_AT_0, id="b", gold=[dict(gold[0], vars=("x",))]),
        dict(SPAN_AT_0, id="b", gold=[dict(gold[0], vars=[_Str("x")])]),
    ]
    for record in cases:
        results = []
        for read in (reference_problem_from_record, ingest.problem_from_record):
            numbers = JsonNumbers()
            read(dict(SPAN_AT_0, gold=gold), numbers)
            results.append(outcome(read, record, numbers, 2))
        assert results[0][0] == "error", record
        assert results[1] == results[0], record
        numbers = JsonNumbers()
        ingest._read_record(dict(SPAN_AT_0, gold=gold), numbers)
        assert ingest._read_record(record, numbers) is None, record


FORMULATION_RECORD = {"n_vars": 2, "objective": ["-1", 0.5], "constraints": [["1", 2], ["3", "1"]],
                      "limits": ["4", "6"]}


@seed(20261020)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_formulation_reader_matches_the_columnar_reader(data):
    path = data.draw(st.sampled_from(list(json_paths(FORMULATION_RECORD))))
    value = data.draw(st.one_of(st.sampled_from(MUTANT_VALUES), st.integers(),
                                st.lists(st.sampled_from(["1", 2, True, None, []]),
                                         max_size=3)))
    line = json.dumps(replace_at(FORMULATION_RECORD, path, value))
    assert (outcome(ingest.read, decode_json(line), solver.FORMULATION, JsonNumbers())
            == outcome(reference_read, decode_json(line), FORMULATION, JsonNumbers()))


def _fault_line(rng, records, ids):
    """One line that fails to load, or that loads but repeats an id."""
    kind = rng.randrange(6)
    if kind == 0:
        return "{not json"
    if kind == 1:
        return json.dumps(dict(rng.choice(records), id=f"s{rng.random()}",
                               text="x\ud800"))
    if kind == 2:
        return json.dumps(dict(rng.choice(records), id=rng.choice(ids)))
    if kind == 3:
        return rng.choice(["[]", "5", '"x"', "null"])
    record = dict(rng.choice(records), id=f"m{rng.random()}")
    paths = [p for p in json_paths(record) if p[0] != "id"]
    return json.dumps(replace_at(record, rng.choice(paths), rng.choice(MUTANT_VALUES)))


def test_load_matches_the_columnar_load_on_files_with_faults(tmp_path):
    """150-line files with one to three faulty lines anywhere, which span
    more than one of the reference's batches."""
    rng = random.Random(150)
    path = tmp_path / "d.jsonl"
    errors = 0
    for n in range(60):
        problems = [random_problem(rng, f"p{n}-{i}") for i in range(150)]
        records = list(map(ingest.problem_to_record, problems))
        lines = [json.dumps(r) for r in records]
        for i in rng.sample(range(150), rng.randint(1, 3)):
            lines[i] = _fault_line(rng, records, [p.id for p in problems[:i]] or ["p"])
        if rng.random() < 0.3:
            lines.insert(rng.randrange(150), " \t")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        expected = outcome(reference_load_dataset, path)
        assert outcome(ingest.load_dataset, path) == expected, n
        errors += expected[0] == "error"
    assert errors > 45  # a mutant now and then still loads


def test_both_readers_build_equal_problems_with_the_same_sharing(tmp_path):
    rng = random.Random(2026)
    problems = [random_problem(rng, f"p{i}") for i in range(300)]
    path = tmp_path / "random.jsonl"
    ingest.save_dataset(problems, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    by_hand, walked = JsonNumbers(), JsonNumbers()
    fast = [ingest._read_record(decode_json(line), by_hand) for line in lines]
    slow = [ingest.read(decode_json(line), ingest.RECORD, walked) for line in lines]
    assert fast == slow == problems
    assert pickle.dumps(fast) == pickle.dumps(slow) == pickle.dumps(
        ingest.load_dataset(path)) == pickle.dumps(reference_load_dataset(path))
    for loaded in (fast, slow):
        spans = [s for p in loaded for s in p.spans]
        names = [name for p in loaded for name in chain(
            p.order_mapping.entries, *(d.terms for d in p.gold))]
        labels = [s.label for s in spans]
        for values in (spans, names, labels):
            assert len(set(map(id, values))) == len(set(values))
        for p in loaded:
            assert p.order_mapping._index is p.order_mapping.entries
