"""Shared fixtures: the berry-picker example, random-instance generators and
a count of executed lines for scaling gates."""

import os
import re
import sys
from fractions import Fraction

import lpwp
from lpwp import ingest, ir
from lpwp.ingest import EntitySpan, OrderMapping, Problem

BERRY_TEXT = (
    "A berry picker must pick at least 3000 strawberries and 15000 "
    "raspberries. He visits two farms. For each hour at farm 1 he spends, "
    "he can pick 50 strawberries and 300 raspberries. For each hour at "
    "farm 2 he spends, he can catch 70 strawberries and 200 raspberries. "
    "How many hours should he spend at each farm to minimize the amount "
    "of time he spends at both farms?"
)

BERRY_SENTENCE = (
    "A berry picker must pick at least 3000 strawberries and 15000 "
    "raspberries."
)

BERRY_SENTENCE_AUGMENTED = (
    "A berry picker must pick <CONST_DIR> at least </CONST_DIR> "
    "<LIMIT> 3000 </LIMIT> strawberries and <LIMIT> 15000 </LIMIT> "
    "raspberries."
)

_BERRY_SPAN_SPEC = [
    ("at least", 0, "CONST_DIR"),
    ("3000", 0, "LIMIT"),
    ("15000", 0, "LIMIT"),
    ("hour", 0, "OBJ_NAME"),
    ("farm 1", 0, "VAR"),
    ("50", 0, "PARAM"),
    ("300", 0, "PARAM"),
    ("hour", 1, "OBJ_NAME"),
    ("farm 2", 0, "VAR"),
    ("70", 0, "PARAM"),
    ("200", 0, "PARAM"),
    ("hours", 0, "OBJ_NAME"),
    ("minimize", 0, "OBJ_DIR"),
    ("amount of time", 0, "OBJ_NAME"),
]

BERRY_GOLD_RECORDS = [
    {
        "type": "objvar",
        "direction": "minimize",
        "name": "amount of time",
        "vars": ["farm 2", "farm 1"],
    },
    {
        "type": "linear",
        "direction": "at least",
        "limit": "3000",
        "terms": {"farm 2": "70", "farm 1": "50"},
        "operator": "GREATER_OR_EQUAL",
    },
    {
        "type": "linear",
        "direction": "at least",
        "limit": "15000",
        "terms": {"farm 1": "300", "farm 2": "200"},
        "operator": "GREATER_OR_EQUAL",
    },
]

BERRY_MAPPING = {"farm 1": 0, "farm 2": 1}


def _find_span(text, phrase, occurrence, label):
    matches = [m for m in re.finditer(rf"\b{re.escape(phrase)}\b", text)]
    m = matches[occurrence]
    return EntitySpan(m.start(), m.end(), label)


def berry_spans(text=BERRY_TEXT, spec=None):
    return [
        _find_span(text, phrase, occ, label)
        for phrase, occ, label in (spec or _BERRY_SPAN_SPEC)
    ]


def berry_problem() -> Problem:
    return Problem(
        id="berry",
        text=BERRY_TEXT,
        spans=berry_spans(),
        order_mapping=OrderMapping(dict(BERRY_MAPPING)),
        gold=ingest.gold_to_declarations(BERRY_GOLD_RECORDS),
    )


_WORDS = (
    "apple bottle carton depot engine flour grain harbor ingot jar kiln "
    "lumber motor nickel orchard pallet quarry resin silo tractor unit "
    "vessel wagon yield zone"
).split()


def random_word(rng):
    return rng.choice(_WORDS)


def random_coefficient(rng, allow_one=True):
    roll = rng.random()
    if allow_one and roll < 0.2:
        return Fraction(1)
    if roll < 0.6:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9999))
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), 10**rng.randint(1, 4))


def random_declaration(rng, var_names):
    n_terms = rng.randint(1, min(4, len(var_names)))
    terms = {
        name: random_coefficient(rng)
        for name in rng.sample(var_names, n_terms)
    }
    if rng.random() < 0.4:
        return ir.objective(
            rng.choice(["minimize", "maximize"]),
            f"{random_word(rng)} {random_word(rng)}",
            terms,
        )
    return ir.constraint(
        rng.choice(["at least", "at most"]),
        rng.choice([ir.LESS_OR_EQUAL, ir.GREATER_OR_EQUAL]),
        random_coefficient(rng, allow_one=False),
        terms,
    )


def random_declaration_list(rng, max_len=5):
    var_names = [f"{random_word(rng)} {i}" for i in range(rng.randint(1, 5))]
    return [
        random_declaration(rng, var_names)
        for _ in range(rng.randint(0, max_len))
    ]


def random_problem(rng, pid):
    """A structurally valid random problem with resolvable gold terms."""
    n_vars = rng.randint(1, 4)
    var_names = [f"{random_word(rng)} {i}" for i in range(n_vars)]
    parts = []
    spans = []
    pos = 0
    for _ in range(rng.randint(4, 14)):
        filler = random_word(rng)
        parts.append(filler + " ")
        pos += len(filler) + 1
        roll = rng.random()
        if roll < 0.25:
            word, label = rng.choice(var_names), "VAR"
        elif roll < 0.6:
            word = str(rng.randint(0, 9999))
            label = rng.choice(["LIMIT", "PARAM", "CONST_DIR", "OBJ_DIR", "OBJ_NAME"])
        else:
            continue
        spans.append(EntitySpan(pos, pos + len(word), label))
        parts.append(word + " ")
        pos += len(word) + 1
    parts.append(random_word(rng))
    text = "".join(parts)

    objective = ir.objective(
        rng.choice(["minimize", "maximize"]),
        random_word(rng),
        {name: Fraction(1) for name in rng.sample(var_names, rng.randint(1, n_vars))},
    )
    constraints = [
        ir.constraint(
            rng.choice(["at least", "at most"]),
            rng.choice([ir.LESS_OR_EQUAL, ir.GREATER_OR_EQUAL]),
            random_coefficient(rng, allow_one=False),
            {
                name: random_coefficient(rng)
                for name in rng.sample(var_names, rng.randint(1, n_vars))
            },
        )
        for _ in range(rng.randint(0, 3))
    ]
    return Problem(
        id=pid,
        text=text,
        spans=spans,
        order_mapping=OrderMapping({name: i for i, name in enumerate(var_names)}),
        gold=[objective] + constraints,
    )


def matching_chain(n):
    """Gold ``x <= j`` for j = 0..n, and predictions ``x <= i + 1/2`` for
    i < n, then ``x <= -1/2``. At ``tol = 1/2`` each prediction is close to
    two golds, the last one starts an augmenting path through all of them,
    and a perfect matching exists."""
    def row(limit):
        return ir.constraint("at most", ir.LESS_OR_EQUAL, limit, {"x": Fraction(1)})

    gold = [row(Fraction(j)) for j in range(n + 1)]
    pred = [row(Fraction(2 * i + 1, 2)) for i in range(n)] + [row(Fraction(-1, 2))]
    return gold, pred


# --- Type mutations: one value of a valid record replaced by another -------

# One value of each JSON type, plus strings that mean something somewhere.
MUTANT_VALUES = [None, True, False, 0, 1, -3, 7, 1.5, 0.0, "", "x", "0", "2.5",
                 "min", "VAR", "farm 1", [], [1], {}, {"a": 1}]


def json_paths(value, path=()):
    """Paths (tuples of keys and indices) to every value below ``value``."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield path + (key,)
        yield from json_paths(child, path + (key,))


def replace_at(value, path, new):
    """A deep copy of ``value`` with the value at ``path`` replaced by ``new``."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replace_at(value[path[0]], path[1:], new)
    return copy


# --- Scaling: a count of executed lines, not a time -------------------------

_LPWP_DIR = os.path.dirname(os.path.abspath(lpwp.__file__)) + os.sep


def line_events(call, *args):
    """The number of ``sys.settrace`` line events that ``call(*args)`` runs
    in the ``lpwp`` package, which repeats exactly from run to run.

    It does not count work done inside one C call, such as ``in`` or
    ``index`` on a list, ``str.join`` or a regex match: a quadratic loop of
    that kind reads as linear here, and only a wall time shows it.
    """
    count = 0

    def on_line(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return on_line

    def on_call(frame, event, arg):
        return on_line if frame.f_code.co_filename.startswith(_LPWP_DIR) else None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        call(*args)
    finally:
        sys.settrace(previous)
    return count
