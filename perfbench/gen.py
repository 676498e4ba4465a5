"""Seeded inputs for the benchmark: datasets, raw model output and planted answers.

The generator writes the dataset JSONL and the IR text itself, with the
standard library only, so lpwp sees nothing but files and the answers
planted here are an oracle that does not depend on the library.

Three corpora, one per workload:

- ``prep``: NL4Opt-sized problems (1-4 variables, 0-3 constraints, 4-14
  entity slots).
- ``score``: problems with 2-6 variables and 3-9 constraints, plus one line
  of perturbed raw model output per problem and the D/FP/FN that line must
  score. The perturbation rates in ``score_example`` and ``render_decl`` are
  assumptions, not measured: no real model output was available to set them.
  They decide how many pairs the matcher compares (the metrics and canonical
  time), how much the lenient parser drops (parse time, yield, diagnostics)
  and how many examples fail, so they shape every layer share of ``score``.
- ``solve``: wide problems (5-30 variables, 5-30 dense constraints) built
  around a known point so that each is optimal, infeasible or unbounded by
  construction.
"""

import json
import random
from fractions import Fraction

WORDS = (
    "apple bottle carton depot engine flour grain harbor ingot jar kiln "
    "lumber motor nickel orchard pallet quarry resin silo tractor unit "
    "vessel wagon yield zone"
).split()
NUMBER_LABELS = ("LIMIT", "PARAM", "CONST_DIR", "OBJ_DIR", "OBJ_NAME")
LE, GE = "LESS_OR_EQUAL", "GREATER_OR_EQUAL"

# Corpus size per workload, and the smallest size the smoke test runs.
SIZES = {"prep": 8000, "score": 2000, "solve": 1000}
SMOKE_SIZES = {"prep": 40, "score": 60, "solve": 15}

NOISE_P = 0.2
# Share of score examples per crash class (unknown variable, a direction
# that is neither min nor max, an all-zero row). The share is assumed, like
# the other perturbation rates below. lpwp scoring raises on all three
# (ROADMAP item 3), and the benchmark keeps them so that the defect shows as
# failed problems.
CRASH_SHARE = 0.01
CRASH_CLASSES = ("unknown_var", "bad_direction", "zero_row")
STRAY_TOKENS = ("[is]", "[TIMES]", "</LIMIT>", "<VAR>", "</OBJ_NAME>")
SOLVE_STATUSES = ("optimal", "infeasible", "unbounded")
STRAY_TEXT = ("thanks!", "Here is the formulation:", "###", "(end)")


def fmt(value: Fraction) -> str:
    """Exact decimal string of a terminating rational, without trailing zeros."""
    places = 0
    while (value * 10**places).denominator != 1:
        places += 1
    scaled = (value * 10**places).numerator
    if places == 0:
        return str(scaled)
    digits = str(abs(scaled)).rjust(places + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{digits[:-places]}.{digits[-places:]}"


def _coefficient(rng, allow_one=True) -> Fraction:
    roll = rng.random()
    if allow_one and roll < 0.2:
        return Fraction(1)
    if roll < 0.6:
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 9999))
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), 10**rng.randint(1, 4))


def _names(rng, n):
    return [f"{rng.choice(WORDS)} {i}" for i in range(n)]


def _text_and_spans(rng, var_names, n_slots):
    """Filler words with entity slots; about a third of the slots stay empty."""
    parts, spans, pos = [], [], 0
    for _ in range(n_slots):
        filler = rng.choice(WORDS)
        parts.append(filler + " ")
        pos += len(filler) + 1
        roll = rng.random()
        if roll < 0.25:
            word, label = rng.choice(var_names), "VAR"
        elif roll < 0.6:
            word, label = str(rng.randint(0, 9999)), rng.choice(NUMBER_LABELS)
        else:
            continue
        spans.append({"start": pos, "end": pos + len(word), "label": label})
        parts.append(word + " ")
        pos += len(word) + 1
    parts.append(rng.choice(WORDS))
    return "".join(parts), spans


# A declaration is a dict: kind, direction, terms {name: Fraction}, and either
# name (objective) or operator and limit (constraint).

def objective(direction, name, var_names):
    return {"kind": "objective", "direction": direction, "name": name,
            "terms": {v: Fraction(1) for v in var_names}}


def constraint(direction, operator, limit, terms):
    return {"kind": "constraint", "direction": direction, "operator": operator,
            "limit": Fraction(limit), "terms": dict(terms)}


def gold_record(decl) -> dict:
    if decl["kind"] == "objective":
        return {"type": "objvar", "direction": decl["direction"],
                "name": decl["name"], "vars": list(decl["terms"])}
    return {"type": "linear", "direction": decl["direction"],
            "limit": fmt(decl["limit"]),
            "terms": {v: fmt(c) for v, c in decl["terms"].items()},
            "operator": decl["operator"]}


def problem_record(pid, text, spans, var_names, gold) -> dict:
    return {"id": pid, "text": text, "spans": spans,
            "order_mapping": {name: i for i, name in enumerate(var_names)},
            "gold": [gold_record(d) for d in gold]}


def _param(value: str) -> str:
    return "ONE" if value == "1" else value


def render_terms(terms) -> str:
    """IR terms from ``(surface name, number string)`` pairs."""
    return "".join(
        f"<VAR> {var} </VAR> [TIMES] <PARAM> {_param(coeff)} </PARAM>"
        for var, coeff in terms
    )


def render_record(record) -> str:
    """The exact IR string of one gold record, as the serializer must emit it."""
    if record["type"] == "objvar":
        head = (f"<OBJ_DIR> {record['direction']} </OBJ_DIR>"
                f"<OBJ_NAME> {record['name']} </OBJ_NAME>")
        terms = [(v, "1") for v in record["vars"]]
    else:
        head = (f"<CONST_DIR> {record['direction']} </CONST_DIR>"
                f"<OPERATOR> {record['operator']} </OPERATOR>"
                f"<LIMIT> {record['limit']} </LIMIT>")
        terms = list(record["terms"].items())
    return f"<DECLARATION>{head} [is] {render_terms(terms)}</DECLARATION>"


def canonical_key(decl, columns):
    """Canonical (min, <=) vector of a declaration, as a hashable tuple."""
    vector = [Fraction(0)] * len(columns)
    for var, coeff in decl["terms"].items():
        vector[columns[var]] += coeff
    if decl["kind"] == "objective":
        sign = 1 if decl["direction"] == "minimize" else -1
        return ("objective",) + tuple(sign * v for v in vector)
    sign = -1 if decl["operator"] == GE else 1
    return ("constraint",) + tuple(sign * v for v in vector) + (sign * decl["limit"],)


# --- prep -----------------------------------------------------------------

def prep_problem(rng, pid) -> dict:
    var_names = _names(rng, rng.randint(1, 4))
    text, spans = _text_and_spans(rng, var_names, rng.randint(4, 14))
    gold = [objective(rng.choice(["minimize", "maximize"]), rng.choice(WORDS),
                      rng.sample(var_names, rng.randint(1, len(var_names))))]
    for _ in range(rng.randint(0, 3)):
        gold.append(constraint(
            rng.choice(["at least", "at most"]), rng.choice([LE, GE]),
            _coefficient(rng, allow_one=False),
            {v: _coefficient(rng)
             for v in rng.sample(var_names, rng.randint(1, len(var_names)))},
        ))
    return problem_record(pid, text, spans, var_names, gold)


# --- score ----------------------------------------------------------------

def _score_gold(rng, var_names):
    """Gold declarations whose canonical forms are pairwise distinct."""
    columns = {v: i for i, v in enumerate(var_names)}
    gold = [objective(rng.choice(["minimize", "maximize"]),
                      f"{rng.choice(WORDS)} {rng.choice(WORDS)}",
                      rng.sample(var_names, rng.randint(1, len(var_names))))]
    keys = {canonical_key(gold[0], columns)}
    n_constraints = rng.randint(3, 9)
    while len(gold) < 1 + n_constraints:
        decl = constraint(
            rng.choice(["at least", "at most"]), rng.choice([LE, GE]),
            _coefficient(rng, allow_one=False),
            {v: _coefficient(rng)
             for v in rng.sample(var_names, rng.randint(1, len(var_names)))},
        )
        key = canonical_key(decl, columns)
        if key not in keys:
            keys.add(key)
            gold.append(decl)
    return gold, keys


def _changed(rng, decl, columns, gold_keys):
    """A wrong version of ``decl`` that is canonically unequal to all gold."""
    while True:
        if decl["kind"] == "objective":
            flipped = "maximize" if decl["direction"] == "minimize" else "minimize"
            new = dict(decl, direction=flipped)
        else:
            roll = rng.random()
            if roll < 0.4:
                new = dict(decl, limit=decl["limit"] + rng.randint(1, 500))
            elif roll < 0.7:
                new = dict(decl, operator=LE if decl["operator"] == GE else GE)
            else:
                terms = dict(decl["terms"])
                var = rng.choice(sorted(terms))
                terms[var] += rng.choice([-1, 1]) * rng.randint(1, 50)
                new = dict(decl, terms=terms)
        if any(new["terms"].values()) and canonical_key(new, columns) not in gold_keys:
            return new


def _mangle(rng, name):
    """A sloppy surface form of a variable name that still resolves."""
    roll = rng.random()
    if roll < 0.4:
        return name.replace(" ", "   ")
    if roll < 0.7:
        return name.capitalize()
    return f" {name.upper()}  "


def render_decl(rng, decl) -> str:
    """Model-style IR for one declaration: sloppy names, split coefficients.

    20% of names are mangled and 8% of coefficients split in two (assumed).
    """
    terms = []
    for var, coeff in decl["terms"].items():
        surface = _mangle(rng, var) if rng.random() < 0.2 else var
        if rng.random() < 0.08:
            part = Fraction(rng.randint(-50, 50))
            terms += [(surface, fmt(part)), (surface, fmt(coeff - part))]
        else:
            terms.append((surface, fmt(coeff)))
    if decl["kind"] == "objective":
        head = (f"<OBJ_DIR> {decl['direction']} </OBJ_DIR>"
                f"<OBJ_NAME> {decl['name']} </OBJ_NAME>")
    else:
        head = (f"<CONST_DIR> {decl['direction']} </CONST_DIR>"
                f"<OPERATOR> {decl['operator']} </OPERATOR>"
                f"<LIMIT> {fmt(decl['limit'])} </LIMIT>")
    return f"<DECLARATION>{head} [is] {render_terms(terms)}</DECLARATION>"


def _crash_decl(crash, var_names):
    if crash == "unknown_var":
        return constraint("at most", LE, 10, {var_names[0]: 1, "ghost 99": 2})
    if crash == "bad_direction":
        return objective("reduce", "cost", var_names[:1])
    return constraint("at most", LE, 10, {v: 0 for v in var_names[:2]})


def score_example(rng, pid, crash=None):
    """One problem, its raw model-output line, and the scores it must get."""
    var_names = _names(rng, rng.randint(2, 6))
    text, spans = _text_and_spans(rng, var_names, rng.randint(4, 14))
    gold, gold_keys = _score_gold(rng, var_names)
    columns = {v: i for i, v in enumerate(var_names)}

    # Each emitted declaration carries the gold index it matches, or None.
    # Rates: 10% dropped, 15% changed, 5% repeated (assumed, see above).
    emitted = []
    for index, decl in enumerate(gold):
        roll = rng.random()
        if roll < 0.10:
            continue  # dropped
        if roll < 0.25:
            emitted.append((_changed(rng, decl, columns, gold_keys), None))
            continue
        emitted.append((decl, index))
        if rng.random() < 0.05:
            emitted.append((decl, index))  # repeated: one copy is an FP
    if rng.random() < 0.5:
        rng.shuffle(emitted)
    pieces = [render_decl(rng, decl) for decl, _ in emitted]

    # Damage that loses a declaration: stray text inside it, or a cut line.
    lost = set()
    for i, piece in enumerate(pieces):
        if rng.random() < 0.05:
            pieces[i] = piece.replace(" [is] ", f" [is] {rng.choice(STRAY_TEXT)} ", 1)
            lost.add(i)
    truncated = bool(pieces) and rng.random() < 0.1
    if truncated:
        pieces[-1] = pieces[-1][:rng.randint(1, len(pieces[-1]) - 1)]
        lost.add(len(pieces) - 1)
    survivors = [emitted[i] for i in range(len(emitted)) if i not in lost]

    if crash is not None:
        pieces.insert(0, render_decl(rng, _crash_decl(crash, var_names)))
        survivors.append((None, None))

    # Harmless noise: stray tokens between declarations, stray text at the end.
    line = []
    for piece in pieces:
        if rng.random() < 0.2:
            line.append(f" {rng.choice(STRAY_TOKENS)} ")
        line.append(piece)
    if not truncated and rng.random() < 0.1:
        line.append(f" {rng.choice(STRAY_TEXT)}")

    matched = len({index for _, index in survivors if index is not None})
    expected = {"id": pid, "D": len(gold), "FP": len(survivors) - matched,
                "FN": len(gold) - matched, "planted": len(survivors), "crash": crash}
    return problem_record(pid, text, spans, var_names, gold), "".join(line), expected


# --- solve ----------------------------------------------------------------

def solve_problem(rng, pid, n, m, status):
    """A wide problem with ``n`` variables, feasible at a known point.

    ``status`` is planted:
    optimal: a row with all-positive coefficients bounds the region.
    infeasible: as optimal, plus a row contradicting one existing row.
    unbounded: maximize a variable whose canonical column is all negative.
    """
    var_names = _names(rng, n)
    x_star = [rng.randint(1, 9) for _ in range(n)]
    ray = rng.randrange(n) if status == "unbounded" else None
    rows = []
    for _ in range(m):
        coeffs = [rng.choice([-1, 1]) * rng.randint(1, 20) for _ in range(n)]
        operator = rng.choice([LE, GE])
        if ray is not None:
            coeffs[ray] = abs(coeffs[ray]) * (-1 if operator == LE else 1)
        rows.append([coeffs, operator])
    if status != "unbounded":
        rows[0] = [[rng.randint(1, 20) for _ in range(n)], LE]
    gold_rows = []
    for coeffs, operator in rows:
        lhs = sum(c * x for c, x in zip(coeffs, x_star))
        slack = rng.randint(0, 50)
        gold_rows.append((coeffs, operator, lhs + slack if operator == LE else lhs - slack))
    if status == "infeasible":
        coeffs, operator, limit = rng.choice(gold_rows)
        gap = rng.randint(1, 50)
        opposite = (coeffs, GE, limit + gap) if operator == LE else (coeffs, LE, limit - gap)
        gold_rows.insert(rng.randint(0, len(gold_rows)), opposite)

    obj_vars = rng.sample(var_names, rng.randint(1, n))
    direction = rng.choice(["minimize", "maximize"])
    if ray is not None:
        direction = "maximize"
        if var_names[ray] not in obj_vars:
            obj_vars.append(var_names[ray])
    gold = [objective(direction, rng.choice(WORDS), obj_vars)]
    for coeffs, operator, limit in gold_rows:
        gold.append(constraint(
            "at most" if operator == LE else "at least", operator, limit,
            dict(zip(var_names, map(Fraction, coeffs))),
        ))
    text, spans = _text_and_spans(rng, var_names, rng.randint(4, 14))
    record = problem_record(pid, text, spans, var_names, gold)
    return record, {"id": pid, "status": status, "x_star": x_star}


# --- files ----------------------------------------------------------------

def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False))
            fh.write("\n")


def write_corpus(workload, seed, n, out_dir) -> dict:
    """Write the workload's input files under ``out_dir``; return the manifest.

    ``corpus_quarter.jsonl`` holds the first quarter of the corpus, for the
    scaling exponent of loading.
    """
    rng = random.Random(f"{workload}:{seed}")
    records, expected, preds = [], [], []
    if workload == "prep":
        records = [prep_problem(rng, f"p{i:06d}") for i in range(n)]
    elif workload == "score":
        k = max(1, round(CRASH_SHARE * n))
        crash_at = rng.sample(range(n), k * len(CRASH_CLASSES))
        crash_of = {i: CRASH_CLASSES[j // k] for j, i in enumerate(crash_at)}
        for i in range(n):
            record, line, exp = score_example(rng, f"s{i:06d}", crash_of.get(i))
            records.append(record)
            preds.append(line)
            expected.append(exp)
    elif workload == "solve":
        # Every seed gets the same multiset of widths, heights and statuses,
        # in its own order and pairing, so that the total work barely
        # depends on the seed.
        widths = [5 + (i * 26) // n for i in range(n)]
        heights = widths[:]
        statuses = [SOLVE_STATUSES[i % 3] for i in range(n)]
        for column in (widths, heights, statuses):
            rng.shuffle(column)
        for i in range(n):
            record, exp = solve_problem(rng, f"w{i:06d}", widths[i], heights[i],
                                        statuses[i])
            records.append(record)
            expected.append(exp)
    else:
        raise ValueError(f"unknown workload {workload!r}")

    _write_jsonl(out_dir / "corpus.jsonl", records)
    _write_jsonl(out_dir / "corpus_quarter.jsonl", records[:max(1, n // 4)])
    if preds:
        (out_dir / "preds.txt").write_text("\n".join(preds) + "\n", encoding="utf-8")
    manifest = {"workload": workload, "seed": seed, "n": n,
                "n_quarter": max(1, n // 4), "noise_p": NOISE_P,
                "noise_seed": rng.randrange(2**31), "expected": expected}
    (out_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return manifest
