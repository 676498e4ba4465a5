"""The slotted value types: copying, pickling, equality, and what a loaded
corpus shares."""

import copy
import dataclasses
import json
import pickle

import pytest

from lpwp import ingest, ir
from lpwp.ingest import EntitySpan, OrderMapping, Problem

from helpers import BERRY_MAPPING, berry_problem


def _values():
    problem = berry_problem()
    objective, constraint = problem.gold[0], problem.gold[1]
    return [problem.spans[0], problem.order_mapping, problem, objective, constraint]


VALUES = _values()
IDS = ["span", "mapping", "problem", "objective", "constraint"]


def _same(a, b):
    assert type(a) is type(b)
    assert a == b
    assert dataclasses.astuple(a) == dataclasses.astuple(b)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips_at_every_protocol(value, protocol):
    _same(pickle.loads(pickle.dumps(value, protocol)), value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy, dataclasses.replace])
def test_copies_equal_the_original(value, how):
    _same(how(value), value)


@pytest.mark.parametrize("value", VALUES, ids=IDS)
def test_instances_have_no_dict_and_no_unknown_attributes(value):
    assert not hasattr(value, "__dict__")
    # A frozen slotted dataclass's __setattr__ names the class it replaced in
    # its super() call, so some Python versions raise TypeError here.
    with pytest.raises((AttributeError, TypeError)):
        value.colour = "red"


def test_equality_and_hash():
    span = EntitySpan(0, 2, "VAR")
    assert span == EntitySpan(0, 2, "VAR") != EntitySpan(0, 2, "PARAM")
    assert hash(span) == hash(EntitySpan(0, 2, "VAR")) == hash((0, 2, "VAR"))
    # The index does not take part in equality.
    assert OrderMapping({"a b": 0}) == OrderMapping({"a b": 0}) != OrderMapping({"a  b": 0})
    problem = berry_problem()
    assert problem == berry_problem()
    assert problem.gold[0] == berry_problem().gold[0] != problem.gold[1]
    # A dict or list field makes these unhashable, though they are frozen.
    for value in (OrderMapping({"x": 0}), problem, problem.gold[0]):
        with pytest.raises(TypeError):
            hash(value)


def _load_twice(path):
    """Two problems, ``a`` and ``b``, loaded from one file of two equal lines."""
    record = ingest.problem_to_record(berry_problem())
    path.write_text("".join(json.dumps(dict(record, id=pid)) + "\n"
                            for pid in ("a", "b")), encoding="utf-8")
    return ingest.load_dataset(path)


def test_equal_strings_of_a_load_are_one_object(tmp_path):
    first, second = _load_twice(tmp_path / "d.jsonl")
    assert first.spans == second.spans and first.gold == second.gold
    for a, b in zip(first.spans, second.spans):
        assert a is b
    labels = {}
    for span in first.spans + second.spans:
        assert labels.setdefault(span.label, span.label) is span.label
    assert first.order_mapping.entries == second.order_mapping.entries
    assert first.order_mapping.entries is not second.order_mapping.entries
    for x, y in zip(first.order_mapping.entries, second.order_mapping.entries):
        assert x is y
    keys = {}
    for a, b in zip(first.gold, second.gold):
        assert a is not b and a.terms is not b.terms
        assert a.direction_text is b.direction_text
        assert a.operator is b.operator
        assert a.name is b.name
        assert all(x is y for x, y in zip(a.terms, b.terms))
        for key in [*a.terms, *first.order_mapping.entries]:
            assert keys.setdefault(key, key) is key
    assert first.order_mapping._index is first.order_mapping.entries


def test_separate_loads_share_no_span(tmp_path):
    first, _ = _load_twice(tmp_path / "d.jsonl")
    again, _ = _load_twice(tmp_path / "e.jsonl")
    assert first.spans == again.spans
    assert not {id(span) for span in first.spans} & {id(span) for span in again.spans}


def test_mapping_in_normal_form_is_its_own_index():
    mapping = OrderMapping(dict(BERRY_MAPPING))
    assert mapping._index is mapping.entries
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        loaded = pickle.loads(pickle.dumps(mapping, protocol))
        assert loaded._index is loaded.entries
    copied = copy.deepcopy(mapping)
    assert copied._index is copied.entries
    assert copied.entries is not mapping.entries


def test_mapping_with_a_key_out_of_normal_form_keeps_its_own_index():
    mapping = OrderMapping({"Zone  1": 0, "zone 2": 1})
    assert mapping._index is not mapping.entries
    assert mapping._index == {"zone 1": 0, "zone 2": 1}
    assert mapping.resolve("zone 1") == mapping.resolve("Zone  1") == 0
    assert mapping.resolve("ZONE 2") == 1
