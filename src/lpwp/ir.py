"""Declarations and their XML-style intermediate representation.

A declaration is either the objective or a single constraint of a linear
program. ``serialize_declarations`` emits the bit-exact IR grammar used as
seq2seq training targets; ``parse_declarations`` accepts arbitrary model
output and recovers whatever declarations it can.
"""

import re
from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
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
    # Only the value 1 is written "1", so the text tells it.
    text = format_number(value)
    return "ONE" if text == "1" else text


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


def _tokenize(ir: str):
    """``(tokens, texts, starts)``: the tokens of an IR string, the text
    before each and where each starts.

    ``texts`` and ``starts`` hold one entry more than ``tokens``: the text
    after the last token, and the length of the input.
    """
    parts = _TOKEN_RE.split(ir)
    ends = list(accumulate(map(len, parts)))
    return parts[1::2], parts[0::2], ends[0::2]


# The content readers: each returns its value or raises ValueError(message).
def _read_coefficient(text):
    if text == "ONE":
        return _ONE
    try:
        return parse_number(text)
    except ValueError:
        raise ValueError(f"bad numeric value {text!r}") from None


def _read_limit(text):
    if text == "ONE":
        raise ValueError("ONE is only valid as a coefficient")
    return _read_coefficient(text)


def _read_operator(text):
    operator = _OPERATOR.get(text)
    if operator is None:
        raise ValueError(f"unknown operator {text!r}")
    return operator


_OBJECTIVE_HEAD = ["<DECLARATION>", "<OBJ_DIR>", "</OBJ_DIR>", "<OBJ_NAME>",
                   "</OBJ_NAME>", "[is]"]
_CONSTRAINT_HEAD = ["<DECLARATION>", "<CONST_DIR>", "</CONST_DIR>", "<OPERATOR>",
                    "</OPERATOR>", "<LIMIT>", "</LIMIT>", "[is]"]
_TERM = ["<VAR>", "</VAR>", "[TIMES]", "<PARAM>", "</PARAM>"]
_HEADS = {"<OBJ_DIR>": _OBJECTIVE_HEAD, "<CONST_DIR>": _CONSTRAINT_HEAD}
_ONE = Fraction(1)
# Each operator's text to its constant, which a parse holds in place of the
# token's copy.
_OPERATOR = dict(zip(OPERATORS, OPERATORS))
# The text before each of these closing tags is a content. A failed read is
# reported at the opening tag (offset -1), or after the content (offset 1).
_CONTENTS = {"</OBJ_DIR>": None, "</OBJ_NAME>": None, "</CONST_DIR>": None,
             "</OPERATOR>": (_read_operator, 1), "</LIMIT>": (_read_limit, -1),
             "</VAR>": None, "</PARAM>": (_read_coefficient, -1)}


def _run_fault(tokens, texts, starts, start, run):
    """``(None, (message, position), index)`` for the first fault of ``run``
    at ``start``, a run that failed its check in ``_read_declaration``.

    The index is where reading stops: at the faulty token, or one past the
    closing tag of a content that is empty or does not read.
    """
    for i, token in enumerate(run, start):
        got = tokens[i] if i < len(tokens) else None
        text = texts[i]
        if token in _CONTENTS:
            if got is None:
                return None, (f"unterminated <{token[2:]}", starts[i]), i
            if got != token:
                return None, (f"expected {token}", starts[i]), i
            value = text.strip()
            if not value:
                return (None, (f"empty <{token[2:]} content", starts[i] - len(text)),
                        i + 1)
            if _CONTENTS[token]:
                read, offset = _CONTENTS[token]
                try:
                    read(value)
                except ValueError as failure:
                    return None, (str(failure), starts[i + offset]), i + 1
        elif got != token:
            return None, (f"expected {token!r}, got {got or 'end of input'!r}",
                          starts[i]), i
        elif text.strip():
            return None, (f"unexpected text {text.strip()!r}", starts[i] - len(text)), i


def _read_declaration(tokens, texts, starts, p, shared):
    """Read the declaration at ``p``: ``(declaration, duplicates, index)``,
    or ``(None, (message, position), index)`` at its first fault, where
    reading resumes or stops at ``index``. Names and directions are read
    through ``shared`` with ``setdefault(s, s)``, so equal ones are one
    object.

    The token after ``<DECLARATION>`` picks the head. The head, each term
    and ``</DECLARATION>`` are then checked whole against their fixed token
    runs: the texts between tokens must be blank, the contents not, and
    the contents must read. The first run that fails its check is read
    once more by ``_run_fault``, which names its first fault; every run
    before it passed, so that is the declaration's first fault.
    Duplicate variables found before a fault are dropped with it.
    """
    after = tokens[p + 1] if p + 1 < len(tokens) else "end of input"
    head = _HEADS.get(after)
    if head is None:
        if texts[p].strip():  # text before <DECLARATION> comes first
            return _run_fault(tokens, texts, starts, p, ["<DECLARATION>"])
        return (None, (f"expected <OBJ_DIR> or <CONST_DIR>, got {after!r}",
                       starts[p + 1]), p + 1)
    q = p + len(head)
    try:  # a head that fails its check raises ValueError
        if tokens[p:q] != head:
            raise ValueError
        if head is _OBJECTIVE_HEAD:
            before, after_decl, direction, after_dir, name, after_name = texts[p:q]
            gaps = before + after_decl + after_dir + after_name
            kind, name, op, limit = OBJECTIVE, name.strip(), None, None
            if not name:
                raise ValueError
            name = shared.setdefault(name, name)
        else:
            (before, after_decl, direction, after_dir, op, after_op, limit,
             after_limit) = texts[p:q]
            gaps = before + after_decl + after_dir + after_op + after_limit
            kind, name = CONSTRAINT, None
            op, limit = _read_operator(op.strip()), _read_limit(limit.strip())
        direction = direction.strip()
        if gaps.strip() or not direction:
            raise ValueError
        direction = shared.setdefault(direction, direction)
    except ValueError:
        return _run_fault(tokens, texts, starts, p, head)
    terms = {}
    duplicates = []
    try:  # a term that fails its check stops the loop at its <VAR>
        while tokens[q:q + 5] == _TERM:
            before_var, var, before_times, before_param, coeff = texts[q:q + 5]
            var = var.strip()
            if (before_var + before_times + before_param).strip() or not var:
                break
            coeff = _read_coefficient(coeff.strip())
            var = shared.setdefault(var, var)
            if var in terms:
                duplicates.append((var, starts[q]))
                terms[var] += coeff
            else:
                terms[var] = coeff
            q += 5
    except ValueError:
        pass
    if terms and tokens[q:q + 1] == ["</DECLARATION>"] and not texts[q].strip():
        decl = Declaration(kind, direction, terms, name=name, operator=op, limit=limit)
        return decl, duplicates, q + 1
    if tokens[q:q + 1] == ["<VAR>"]:
        return _run_fault(tokens, texts, starts, q, _TERM)
    if not terms:
        return None, ("declaration has no terms", starts[q]), q
    return _run_fault(tokens, texts, starts, q, ["</DECLARATION>"])


def _resync(tokens, i):
    """The index where lenient reading resumes after a fault at ``i``: one
    past the next ``</DECLARATION>``, or a later ``<DECLARATION>``."""
    for j in range(i, len(tokens)):
        if tokens[j] == "</DECLARATION>":
            return j + 1
        if tokens[j] == "<DECLARATION>" and j != i:
            return j
    return len(tokens)


def parse_declarations(ir: str, mode: str = "strict"):
    """Parse an IR string into ``(declarations, diagnostics)``.

    Strict mode raises :class:`IrParseError` on the first grammar violation.
    Lenient mode never raises: unparseable declarations are skipped and
    reported as diagnostics, so raw model output cannot crash evaluation.
    """
    if mode not in ("strict", "lenient"):
        raise ValueError(f"unknown parse mode: {mode!r}")
    tokens, texts, starts = _tokenize(ir)
    decls, diagnostics = [], []
    shared = {}  # one object per distinct name and direction of this parse

    def fail(message, position):
        error = IrParseError(message, position)
        if mode == "strict":
            raise error
        diagnostics.append(str(error))

    p = 0
    while p < len(tokens):
        if tokens[p] != "<DECLARATION>":
            fail(f"stray token {tokens[p]!r}", starts[p])
            p += 1
            continue
        decl, found, p = _read_declaration(tokens, texts, starts, p, shared)
        if decl is None:
            message, position = found
            if p >= len(tokens):
                message = f"unterminated declaration ({message})"
            fail(message, position)
            p = _resync(tokens, p)
            continue
        decls.append(decl)
        for var, position in found:
            diagnostics.append(
                f"char {position}: duplicate variable {var!r}, coefficients summed"
            )
    tail = texts[-1]
    if tail.strip():
        fail(f"stray text {tail.strip()!r}", len(ir) - len(tail))
    return decls, diagnostics
