"""Named-entity augmentation of problem text, and its inverse.

Each entity span is encapsulated in XML-like start/end tags with single-space
padding, e.g. ``<LIMIT> 3000 </LIMIT>``. The output is a seq2seq training
source, so the rendering is bit-exact.
"""

import re

from .errors import ValidationError
from .ingest import LABELS, EntitySpan, check_spans

_TAG_RE = re.compile(r"<(/?)([A-Z_][A-Z_0-9]*)>")


def augment_text(text: str, spans) -> str:
    """Wrap every span of ``text`` in tags named after its label."""
    parts = []
    cursor = 0
    for span in check_spans(text, spans):
        parts.append(text[cursor:span.start])
        parts.append(f"<{span.label}> {text[span.start:span.end]} </{span.label}>")
        cursor = span.end
    parts.append(text[cursor:])
    return "".join(parts)


def strip_tags(augmented: str):
    """Invert :func:`augment_text`: recover the plain text and its spans.

    Returned offsets index into the stripped text. Tags must come from the
    six-label vocabulary and must not nest.
    """
    text_parts = []
    spans = []
    length = 0
    open_tag = None  # (label, start offset in stripped text, tag position)
    cursor = 0
    for match in _TAG_RE.finditer(augmented):
        segment = augmented[cursor:match.start()]
        closing, label = match.group(1) == "/", match.group(2)
        if label not in LABELS:
            raise ValidationError(
                f"unknown tag name {label!r} at position {match.start()}"
            )
        if open_tag is not None:
            # Inside a span: drop the single-space padding convention.
            if not closing:
                raise ValidationError(
                    f"nested tag <{label}> inside <{open_tag[0]}> at "
                    f"position {match.start()}"
                )
            if label != open_tag[0]:
                raise ValidationError(
                    f"mismatched closing tag </{label}> for <{open_tag[0]}> "
                    f"at position {match.start()}"
                )
            if segment.startswith(" "):
                segment = segment[1:]
            if segment.endswith(" "):
                segment = segment[:-1]
            text_parts.append(segment)
            length += len(segment)
            spans.append(EntitySpan(open_tag[1], length, label))
            open_tag = None
        else:
            if closing:
                raise ValidationError(
                    f"unbalanced closing tag </{label}> at position "
                    f"{match.start()}"
                )
            text_parts.append(segment)
            length += len(segment)
            open_tag = (label, length, match.start())
        cursor = match.end()
    if open_tag is not None:
        raise ValidationError(
            f"unclosed tag <{open_tag[0]}> at position {open_tag[2]}"
        )
    text_parts.append(augmented[cursor:])
    return "".join(text_parts), spans
