"""The IR parser against a frozen copy of the token walk it replaced.

``parse_declarations`` checks each run of a declaration (its head, each
term and ``</DECLARATION>``) whole against a fixed token run, and reads
only the first run that fails its check once more, to name its first
fault. The walk below parses every declaration token by token; both must
give the same declarations and diagnostics in lenient mode, and the same
result or the same error in strict mode.
"""

import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

from lpwp.errors import IrParseError
from lpwp.ir import (
    CONSTRAINT, OBJECTIVE, OPERATORS, Declaration, parse_declarations,
    serialize_declarations,
)
from lpwp.numbers import parse_number

from helpers import random_declaration_list

_REFERENCE_TOKEN_RE = re.compile(
    r"</?(?:DECLARATION|OBJ_DIR|OBJ_NAME|CONST_DIR|OPERATOR|LIMIT|VAR|PARAM)>"
    r"|\[is\]|\[TIMES\]"
)


# The token walk as it parsed every declaration, kept as the reference.
@dataclass
class _ReferenceStream:
    text: str
    tokens: list  # (token string, start, end)
    pos: int = 0
    diagnostics: list = field(default_factory=list)

    def peek(self):
        return self.tokens[self.pos][0] if self.pos < len(self.tokens) else None

    def here(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos][1]
        return len(self.text)

    def expect(self, token):
        if self.peek() != token:
            got = self.peek() or "end of input"
            raise IrParseError(f"expected {token!r}, got {got!r}", self.here())
        start = self.tokens[self.pos - 1][2] if self.pos > 0 else 0
        between = self.text[start:self.tokens[self.pos][1]]
        if between.strip():
            raise IrParseError(f"unexpected text {between.strip()!r}", start)
        self.pos += 1

    def content(self, tag):
        self.expect(f"<{tag}>")
        if self.pos >= len(self.tokens):
            raise IrParseError(f"unterminated <{tag}>", self.here())
        start = self.tokens[self.pos - 1][2]
        value = self.text[start:self.tokens[self.pos][1]].strip()
        if self.peek() != f"</{tag}>":
            raise IrParseError(f"expected </{tag}>", self.here())
        self.pos += 1
        if not value:
            raise IrParseError(f"empty <{tag}> content", start)
        return value


def _reference_coefficient(token, position):
    if token == "ONE":
        return Fraction(1)
    try:
        return parse_number(token)
    except ValueError:
        raise IrParseError(f"bad numeric value {token!r}", position)


def _reference_terms(stream):
    terms = {}
    duplicates = []
    while stream.peek() == "<VAR>":
        pos = stream.here()
        var = stream.content("VAR")
        stream.expect("[TIMES]")
        param_pos = stream.here()
        coeff = _reference_coefficient(stream.content("PARAM"), param_pos)
        if var in terms:
            duplicates.append((var, pos))
            terms[var] += coeff
        else:
            terms[var] = coeff
    if not terms:
        raise IrParseError("declaration has no terms", stream.here())
    return terms, duplicates


def _reference_declaration(stream):
    stream.expect("<DECLARATION>")
    head = stream.peek()
    if head == "<OBJ_DIR>":
        direction = stream.content("OBJ_DIR")
        name = stream.content("OBJ_NAME")
        stream.expect("[is]")
        terms, duplicates = _reference_terms(stream)
        decl = Declaration(OBJECTIVE, direction, terms, name=name)
    elif head == "<CONST_DIR>":
        direction = stream.content("CONST_DIR")
        op = stream.content("OPERATOR")
        if op not in OPERATORS:
            raise IrParseError(f"unknown operator {op!r}", stream.here())
        limit_pos = stream.here()
        limit = stream.content("LIMIT")
        if limit == "ONE":
            raise IrParseError("ONE is only valid as a coefficient", limit_pos)
        limit = _reference_coefficient(limit, limit_pos)
        stream.expect("[is]")
        terms, duplicates = _reference_terms(stream)
        decl = Declaration(CONSTRAINT, direction, terms, operator=op, limit=limit)
    else:
        got = head or "end of input"
        raise IrParseError(
            f"expected <OBJ_DIR> or <CONST_DIR>, got {got!r}", stream.here()
        )
    stream.expect("</DECLARATION>")
    for var, pos in duplicates:
        stream.diagnostics.append(
            f"char {pos}: duplicate variable {var!r}, coefficients summed"
        )
    return decl


def _reference_resync(stream):
    depth_start = stream.pos
    while stream.pos < len(stream.tokens):
        token = stream.tokens[stream.pos][0]
        if token == "</DECLARATION>":
            stream.pos += 1
            return
        if token == "<DECLARATION>" and stream.pos != depth_start:
            return
        stream.pos += 1


def reference_parse_declarations(ir, mode="strict"):
    tokens = [(m.group(0), m.start(), m.end())
              for m in _REFERENCE_TOKEN_RE.finditer(ir)]
    stream = _ReferenceStream(ir, tokens)
    decls = []

    def fail(message, position):
        error = IrParseError(message, position)
        if mode == "strict":
            raise error
        stream.diagnostics.append(str(error))

    while True:
        while stream.peek() is not None and stream.peek() != "<DECLARATION>":
            fail(f"stray token {stream.peek()!r}", stream.here())
            stream.pos += 1
        if stream.peek() is None:
            tail_start = stream.tokens[-1][2] if stream.tokens else 0
            tail = ir[tail_start:]
            if tail.strip():
                fail(f"stray text {tail.strip()!r}", tail_start)
            break
        try:
            decls.append(_reference_declaration(stream))
        except IrParseError as failure:
            message = failure.message
            if stream.peek() is None:
                message = f"unterminated declaration ({message})"
            fail(message, failure.position)
            _reference_resync(stream)
    return decls, stream.diagnostics


# --- Mutants of serialized declarations -----------------------------------

_SPLIT_RE = re.compile(f"({_REFERENCE_TOKEN_RE.pattern})")
_TOKENS = ["<DECLARATION>", "</DECLARATION>", "<OBJ_DIR>", "</OBJ_DIR>",
           "<OBJ_NAME>", "</OBJ_NAME>", "<CONST_DIR>", "</CONST_DIR>",
           "<OPERATOR>", "</OPERATOR>", "<LIMIT>", "</LIMIT>", "<VAR>",
           "</VAR>", "<PARAM>", "</PARAM>", "[is]", "[TIMES]"]
# Blank or not to str.strip: U+00A0 and tab are blank, U+200B is not.
_TEXTS = [" ", "\t", "\u00a0", "\n", "x", " stray ", "\u200b", "ONE", "7"]
_NUMBERS = ["1/3", "1e5", "-2.5E-3", ".5", "1.", "+4", "ONE", "", " ", "--1",
            "1_000", " 3"]
_CONTENT_TAGS = ("<OBJ_DIR>", "<OBJ_NAME>", "<CONST_DIR>", "<OPERATOR>",
                 "<LIMIT>", "<VAR>", "<PARAM>")


def _indices(chunks, predicate):
    return [i for i, chunk in enumerate(chunks) if predicate(chunk)]


def _mutate(rng, chunks):
    """Apply one random edit to ``chunks``, the pieces of a split IR string."""
    op = rng.randrange(10)
    at = rng.randrange(len(chunks) + 1)
    if op == 0 and chunks:
        del chunks[min(at, len(chunks) - 1)]
    elif op == 1:
        chunks.insert(at, rng.choice(_TOKENS))
    elif op == 2 and chunks:
        at = min(at, len(chunks) - 1)
        chunks.insert(at, chunks[at])
    elif op == 3 and chunks:
        chunks[min(at, len(chunks) - 1)] = rng.choice(_TOKENS)
    elif op == 4:
        chunks.insert(at, rng.choice(_TEXTS))
    elif op == 5:  # empty a content
        opens = _indices(chunks[:-1], lambda c: c in _CONTENT_TAGS)
        if opens:
            chunks[rng.choice(opens) + 1] = rng.choice(["", " ", "\t "])
    elif op == 6:  # ONE as a limit
        limits = _indices(chunks[:-1], lambda c: c == "<LIMIT>")
        if limits:
            chunks[rng.choice(limits) + 1] = rng.choice([" ONE ", "ONE"])
    elif op == 7:  # a number outside the grammar, or an odd one inside it
        numbers = _indices(chunks[:-1], lambda c: c in ("<LIMIT>", "<PARAM>"))
        if numbers:
            chunks[rng.choice(numbers) + 1] = f" {rng.choice(_NUMBERS)} "
    elif op == 8:  # a term twice: a duplicate variable
        terms = _indices(chunks, lambda c: c == "<VAR>")
        if terms:
            start = rng.choice(terms)
            chunks[start:start] = chunks[start:start + 10]
    else:  # another term's variable: a duplicate variable
        terms = _indices(chunks[:-1], lambda c: c == "<VAR>")
        if len(terms) > 1:
            chunks[rng.choice(terms) + 1] = chunks[rng.choice(terms) + 1]


def _mutant(rng):
    chunks = _SPLIT_RE.split(serialize_declarations(random_declaration_list(rng)))
    for _ in range(rng.choice([1, 1, 1, 2, 3])):
        _mutate(rng, chunks)
    return "".join(chunks)


def _outcome(parse, text, mode):
    try:
        return "ok", parse(text, mode)
    except IrParseError as err:
        return "error", err.message, err.position


def _assert_same(text):
    for mode in ("lenient", "strict"):
        expected = _outcome(reference_parse_declarations, text, mode)
        assert _outcome(parse_declarations, text, mode) == expected, (mode, text)


def test_parser_matches_the_token_walk_on_round_trips():
    rng = random.Random(1010)
    for _ in range(1000):
        decls = random_declaration_list(rng)
        text = serialize_declarations(decls)
        _assert_same(text)
        assert parse_declarations(text, "lenient") == (decls, [])


def test_parser_matches_the_token_walk_on_mutants():
    rng = random.Random(2020)
    faults = 0
    for _ in range(5000):
        text = _mutant(rng)
        _assert_same(text)
        faults += bool(parse_declarations(text, "lenient")[1])
    # Most mutants are faulty, but not all: both paths are exercised.
    assert 2500 < faults < 5000


def test_parser_matches_the_token_walk_on_named_faults():
    objective = ("<DECLARATION><OBJ_DIR> min </OBJ_DIR><OBJ_NAME> n </OBJ_NAME> "
                 "[is] {terms}</DECLARATION>")
    constraint = ("<DECLARATION><CONST_DIR> at most </CONST_DIR><OPERATOR> "
                  "LESS_OR_EQUAL </OPERATOR><LIMIT> {limit} </LIMIT> [is] "
                  "{terms}</DECLARATION>")
    term = "<VAR> {var} </VAR>{gap}[TIMES] <PARAM> {coeff} </PARAM>"
    # A run that fails its check after runs that passed: the duplicate
    # variable before a bad coefficient or before text is not reported.
    duplicate_then_fault = [
        objective.format(terms=2 * term.format(var="x", gap=" ", coeff=2)
                         + term.format(var="y", gap=" ", coeff="2x")),
        objective.format(terms=2 * term.format(var="x", gap=" ", coeff=2) + " so "),
    ]
    cases = [
        objective.format(terms=term.format(var="x", gap=" y ", coeff=1)),
        objective.format(terms=term.format(var="x", gap=" \t", coeff=1)),
        objective.format(terms=term.format(var=" ", gap=" ", coeff=1)),
        objective.format(terms=2 * term.format(var="x", gap=" ", coeff=2)),
        constraint.format(limit="ONE", terms=term.format(var="x", gap=" ", coeff=1)),
        constraint.format(limit="1/3", terms=term.format(var="x", gap=" ", coeff=1)),
        constraint.format(limit="1e5", terms=term.format(var="x", gap=" ", coeff="1e5")),
        constraint.format(limit="5", terms=term.format(var="x", gap=" ", coeff="ONE ONE")),
        "text " + objective.format(terms=term.format(var="x", gap=" ", coeff=1)),
        objective.format(terms=term.format(var="x", gap=" ", coeff=1)) + " tail",
        objective.format(terms=term.format(var="x", gap=" ", coeff=1))[:-20],
        # Input that ends right after a content that does not read, or after
        # [is]: each fault is wrapped as an unterminated declaration.
        "<DECLARATION><CONST_DIR> at most </CONST_DIR><OPERATOR> EQUAL </OPERATOR>",
        constraint.format(limit="ONE", terms="").partition(" [is]")[0],
        constraint.format(limit="2x", terms="").partition(" [is]")[0],
        objective.format(terms=term.format(var="x", gap=" ", coeff=" "))[:-14],
        objective.format(terms=term.format(var="x", gap=" ", coeff="2x"))[:-14],
        objective.format(terms="")[:-14],
        *duplicate_then_fault,
        objective.format(terms=term.format(var="x", gap=" ", coeff=1)
                         + "<VAR> y </VAR>"),
        objective.format(terms=""),
        "<DECLARATION><VAR> x </VAR>",
        "<DECLARATION>",
    ]
    for text in cases:
        _assert_same(text)
    for text in duplicate_then_fault:
        assert not any("duplicate" in d for d in parse_declarations(text, "lenient")[1])
