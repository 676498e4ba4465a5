"""Declarations and their XML-style intermediate representation.

A declaration is either the objective or a single constraint of a linear
program. ``serialize_declarations`` emits the bit-exact IR grammar used as
seq2seq training targets; ``parse_declarations`` accepts arbitrary model
output and recovers whatever declarations it can.
"""

import re
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from .errors import IrParseError
from .numbers import exact, format_number, parse_number

LESS_OR_EQUAL = "LESS_OR_EQUAL"
GREATER_OR_EQUAL = "GREATER_OR_EQUAL"
OPERATORS = (LESS_OR_EQUAL, GREATER_OR_EQUAL)

OBJECTIVE = "objective"
CONSTRAINT = "constraint"


@dataclass(frozen=True)
class Declaration:
    """One objective or constraint, with exact rational coefficients."""

    kind: str
    direction_text: str
    terms: dict  # variable surface name -> Fraction
    name: Optional[str] = None
    operator: Optional[str] = None
    limit: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in (OBJECTIVE, CONSTRAINT):
            raise ValueError(f"unknown declaration kind: {self.kind!r}")
        if not self.terms:
            raise ValueError("declaration has no terms")
        if self.kind == OBJECTIVE:
            if self.operator is not None or self.limit is not None:
                raise ValueError("objective must not carry operator/limit")
            if self.name is None:
                raise ValueError("objective requires a name")
        else:
            if self.operator not in OPERATORS:
                raise ValueError(f"constraint operator must be one of {OPERATORS}")
            if self.limit is None:
                raise ValueError("constraint requires a limit")
            if self.name is not None:
                raise ValueError("constraint must not carry a name")


def _exact_terms(terms) -> dict:
    return {var: exact(coeff) for var, coeff in dict(terms).items()}


def objective(direction_text: str, name: str, terms) -> Declaration:
    return Declaration(OBJECTIVE, direction_text, _exact_terms(terms), name=name)


def constraint(direction_text: str, operator: str, limit, terms) -> Declaration:
    return Declaration(CONSTRAINT, direction_text, _exact_terms(terms),
                       operator=operator, limit=exact(limit))


def declaration_to_json_dict(decl: Declaration) -> dict:
    out = {
        "kind": decl.kind,
        "direction": decl.direction_text,
        "terms": {v: format_number(c) for v, c in decl.terms.items()},
    }
    if decl.kind == OBJECTIVE:
        out["name"] = decl.name
    else:
        out["operator"] = decl.operator
        out["limit"] = format_number(decl.limit)
    return out


def _format_coefficient(value: Fraction) -> str:
    return "ONE" if value == 1 else format_number(value)


def _serialize_terms(terms) -> str:
    return "".join(
        f"<VAR> {var} </VAR> [TIMES] <PARAM> {_format_coefficient(coeff)} </PARAM>"
        for var, coeff in terms.items()
    )


def serialize_declarations(decls) -> str:
    """Emit declarations in the exact IR surface form, concatenated in order."""
    out = []
    for d in decls:
        if d.kind == OBJECTIVE:
            body = (
                f"<OBJ_DIR> {d.direction_text} </OBJ_DIR>"
                f"<OBJ_NAME> {d.name} </OBJ_NAME>"
                f" [is] {_serialize_terms(d.terms)}"
            )
        else:
            body = (
                f"<CONST_DIR> {d.direction_text} </CONST_DIR>"
                f"<OPERATOR> {d.operator} </OPERATOR>"
                f"<LIMIT> {format_number(d.limit)} </LIMIT>"
                f" [is] {_serialize_terms(d.terms)}"
            )
        out.append(f"<DECLARATION>{body}</DECLARATION>")
    return "".join(out)


_IR_TAGS = ("DECLARATION", "OBJ_DIR", "OBJ_NAME", "CONST_DIR", "OPERATOR",
            "LIMIT", "VAR", "PARAM")
# One group, so that ``split`` returns text, token, text, ..., text.
_TOKEN_RE = re.compile(
    r"(</?(?:%s)>|\[is\]|\[TIMES\])" % "|".join(_IR_TAGS)
)


@dataclass
class _TokenStream:
    """The tokens of an IR string, with the text before each and its start.

    ``texts`` and ``starts`` hold one entry more than ``tokens``: the text
    after the last token, and the length of the input.
    """

    tokens: list
    texts: list
    starts: list
    pos: int = 0
    diagnostics: list = field(default_factory=list)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def here(self):
        return self.starts[self.pos]

    def expect(self, token):
        if self.peek() != token:
            got = self.peek() or "end of input"
            raise IrParseError(f"expected {token!r}, got {got!r}", self.here())
        self._require_no_text_before()
        self.pos += 1

    def _require_no_text_before(self):
        between = self.texts[self.pos]
        if between.strip():
            raise IrParseError(f"unexpected text {between.strip()!r}",
                               self.here() - len(between))

    def content(self, tag):
        """Consume ``<tag> text </tag>`` and return the stripped text."""
        self.expect(f"<{tag}>")
        if self.pos >= len(self.tokens):
            raise IrParseError(f"unterminated <{tag}>", self.here())
        text = self.texts[self.pos]
        start = self.here() - len(text)
        if self.peek() != f"</{tag}>":
            raise IrParseError(f"expected </{tag}>", self.here())
        self.pos += 1
        value = text.strip()
        if not value:
            raise IrParseError(f"empty <{tag}> content", start)
        return value


def _tokenize(ir: str) -> _TokenStream:
    parts = _TOKEN_RE.split(ir)
    ends = list(accumulate(map(len, parts)))
    return _TokenStream(parts[1::2], parts[0::2], ends[0::2])


def _parse_coefficient(token, position):
    if token == "ONE":
        return Fraction(1)
    try:
        return parse_number(token)
    except ValueError:
        raise IrParseError(f"bad numeric value {token!r}", position)


def _parse_terms(stream):
    terms = {}
    duplicates = []
    while stream.peek() == "<VAR>":
        pos = stream.here()
        var = stream.content("VAR")
        stream.expect("[TIMES]")
        param_pos = stream.here()
        coeff = _parse_coefficient(stream.content("PARAM"), param_pos)
        if var in terms:
            duplicates.append((var, pos))
            terms[var] += coeff
        else:
            terms[var] = coeff
    if not terms:
        raise IrParseError("declaration has no terms", stream.here())
    return terms, duplicates


def _parse_one_declaration(stream):
    stream.expect("<DECLARATION>")
    head = stream.peek()
    if head == "<OBJ_DIR>":
        direction = stream.content("OBJ_DIR")
        name = stream.content("OBJ_NAME")
        stream.expect("[is]")
        terms, duplicates = _parse_terms(stream)
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
        limit = _parse_coefficient(limit, limit_pos)
        stream.expect("[is]")
        terms, duplicates = _parse_terms(stream)
        decl = Declaration(CONSTRAINT, direction, terms, operator=op, limit=limit)
    else:
        got = head or "end of input"
        raise IrParseError(
            f"expected <OBJ_DIR> or <CONST_DIR>, got {got!r}", stream.here()
        )
    stream.expect("</DECLARATION>")
    return decl, duplicates


_OBJECTIVE_HEAD = ["<DECLARATION>", "<OBJ_DIR>", "</OBJ_DIR>", "<OBJ_NAME>",
                   "</OBJ_NAME>", "[is]"]
_CONSTRAINT_HEAD = ["<DECLARATION>", "<CONST_DIR>", "</CONST_DIR>", "<OPERATOR>",
                    "</OPERATOR>", "<LIMIT>", "</LIMIT>", "[is]"]
_TERM = ["<VAR>", "</VAR>", "[TIMES]", "<PARAM>", "</PARAM>"]
_ONE = Fraction(1)


def _read_well_formed(stream):
    """``(declaration, duplicates)`` at ``stream.pos`` if it is well-formed.

    The declaration is checked whole: its head and each term are compared
    with their fixed token sequences, the texts between tokens must be
    blank and the contents not, and the numbers must read. On any fault
    this returns None and leaves the stream as it was, so that the walk of
    ``_parse_one_declaration`` can name the first fault.
    """
    tokens, texts, p = stream.tokens, stream.texts, stream.pos
    try:
        if tokens[p:p + 6] == _OBJECTIVE_HEAD:
            before, after_decl, direction, after_dir, name, after_name = texts[p:p + 6]
            if (before + after_decl + after_dir + after_name).strip():
                return None
            direction, name = direction.strip(), name.strip()
            if not direction or not name:
                return None
            kind, op, limit, q = OBJECTIVE, None, None, p + 6
        elif tokens[p:p + 8] == _CONSTRAINT_HEAD:
            (before, after_decl, direction, after_dir, op, after_op, limit,
             after_limit) = texts[p:p + 8]
            if (before + after_decl + after_dir + after_op + after_limit).strip():
                return None
            direction, op, limit = direction.strip(), op.strip(), limit.strip()
            if not direction or op not in OPERATORS or limit == "ONE":
                return None
            kind, name, limit, q = CONSTRAINT, None, parse_number(limit), p + 8
        else:
            return None
        terms = {}
        duplicates = []
        while tokens[q:q + 5] == _TERM:
            before_var, var, before_times, before_param, coeff = texts[q:q + 5]
            var, coeff = var.strip(), coeff.strip()
            if (before_var + before_times + before_param).strip() or not var:
                return None
            coeff = _ONE if coeff == "ONE" else parse_number(coeff)
            if var in terms:
                duplicates.append((var, stream.starts[q]))
                terms[var] += coeff
            else:
                terms[var] = coeff
            q += 5
    except ValueError:  # a number that does not read
        return None
    if not terms or tokens[q:q + 1] != ["</DECLARATION>"] or texts[q].strip():
        return None
    stream.pos = q + 1
    decl = Declaration(kind, direction, terms, name=name, operator=op, limit=limit)
    return decl, duplicates


def _resync(stream):
    """Skip past the current declaration after a lenient-mode failure."""
    depth_start = stream.pos
    while stream.pos < len(stream.tokens):
        token = stream.tokens[stream.pos]
        if token == "</DECLARATION>":
            stream.pos += 1
            return
        if token == "<DECLARATION>" and stream.pos != depth_start:
            return
        stream.pos += 1


def parse_declarations(ir: str, mode: str = "strict"):
    """Parse an IR string into ``(declarations, diagnostics)``.

    Strict mode raises :class:`IrParseError` on the first grammar violation.
    Lenient mode never raises: unparseable declarations are skipped and
    reported as diagnostics, so raw model output cannot crash evaluation.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown parse mode: {mode!r}")
    stream = _tokenize(ir)
    decls = []

    def fail(message, position):
        error = IrParseError(message, position)
        if mode == "strict":
            raise error
        stream.diagnostics.append(str(error))

    tokens = stream.tokens
    while True:
        # Skip to the next declaration, flagging stray text/tokens on the way.
        while stream.pos < len(tokens) and tokens[stream.pos] != "<DECLARATION>":
            fail(f"stray token {tokens[stream.pos]!r}", stream.here())
            stream.pos += 1
        if stream.pos == len(tokens):
            tail = stream.texts[-1]
            if tail.strip():
                fail(f"stray text {tail.strip()!r}", len(ir) - len(tail))
            break
        try:
            decl, duplicates = (_read_well_formed(stream)
                                or _parse_one_declaration(stream))
        except IrParseError as failure:
            message = failure.message
            if stream.peek() is None:
                message = f"unterminated declaration ({message})"
            fail(message, failure.position)
            _resync(stream)
            continue
        decls.append(decl)
        for var, pos in duplicates:
            stream.diagnostics.append(
                f"char {pos}: duplicate variable {var!r}, coefficients summed"
            )
    return decls, stream.diagnostics
