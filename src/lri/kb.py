"""Knowledge-base files: the flat-text exchange format of the package.

A file holds up to four sections, each introduced by a header at the start
of a line::

    # environmental permit scenario
    constants: a b
    axioms:
        act.
    hypotheses:
        act -> perm.
        ex.
        ex -> -perm.
    queries:
        perm.

`constants:` (optional, single line) fixes the constant domain and its
grounding order; when present, formulas may not introduce further constants.
The other headers open blocks of period-terminated statements; `#` comments
run to end of line.  Hypothesis order in the file fixes hypothesis indices.
Statements may contain variables; they are grounded over the constant domain
on load, each instance becoming its own axiom, hypothesis, or query.
"""

from __future__ import annotations

import re
from typing import Optional

from .engine import DomainOfRules
from .errors import FormulaSyntaxError, UnknownSymbol
from .formula import (
    Formula,
    Record,
    Signature,
    ground,
    is_variable,
    parse_formula,
    parse_statements,
    print_formula,
)

_HEADER_RE = re.compile(
    r"^(constants|axioms|hypotheses|queries):", re.MULTILINE
)
_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")


class KnowledgeBase(Record):
    """A loaded knowledge base: ground rules plus the signature they live in."""

    signature: Signature
    axioms: tuple[Formula, ...]
    hypotheses: tuple[Formula, ...]
    queries: tuple[Formula, ...]
    declared_constants: Optional[tuple[str, ...]]

    def domain(self, max_decisions: Optional[int] = None) -> DomainOfRules:
        return DomainOfRules(
            self.axioms, self.hypotheses, self.signature, max_decisions
        )

    def parse_query(self, text: str) -> list[Formula]:
        """Parse one query statement and ground it over this base's domain.

        New predicates are fine (queries may probe fresh atoms); new
        constants are rejected when the base declared its constant list,
        because they would silently change the grounding domain.  A rejected
        statement leaves the signature as it was.
        """
        return ground(self._parse(parse_formula, text), self.signature)

    def ground_statements(self, text: str) -> tuple[Formula, ...]:
        """Parse period-terminated statements and ground each, as parse_query."""
        return _ground_all(self._parse(parse_statements, text), self.signature)

    def _parse(self, parse, text: str):
        # A trial parse on a copy refuses new constants before the shared
        # signature declares them.
        if self.declared_constants is not None:
            trial = Signature(self.signature.predicates, self.signature.constants)
            parse(text, trial)
            _check_constants(trial, self.declared_constants)
        return parse(text, self.signature)


def _check_constants(
    signature: Signature, declared: Optional[tuple[str, ...]]
) -> None:
    if declared is None:
        return
    extras = [c for c in signature.constants if c not in declared]
    if extras:
        raise UnknownSymbol(
            f"constant '{extras[0]}' is not in the declared constants line"
        )


def _only_comments(text: str) -> bool:
    return all(
        line.lstrip().startswith("#") or not line.strip()
        for line in text.splitlines()
    )


def _reposition(err: FormulaSyntaxError, section: str, offset: int):
    return FormulaSyntaxError(
        f"in {section} section: {err.core}",
        err.position + offset,
        err.expected,
    )


def loads(text: str) -> KnowledgeBase:
    """Parse knowledge-base text into a KnowledgeBase."""
    headers = list(_HEADER_RE.finditer(text))
    names = [m.group(1) for m in headers]
    for name in names:
        if names.count(name) > 1:
            raise FormulaSyntaxError(
                f"duplicate section '{name}:'",
                headers[names.index(name)].start(),
            )
    preamble = text[: headers[0].start()] if headers else text
    if not _only_comments(preamble):
        raise FormulaSyntaxError(
            "text before the first section header", 0,
            "'constants:', 'axioms:', 'hypotheses:', or 'queries:'",
        )

    declared: Optional[tuple[str, ...]] = None
    chunks: dict[str, tuple[int, str]] = {}
    for i, match in enumerate(headers):
        name = match.group(1)
        end = headers[i + 1].start() if i + 1 < len(headers) else len(text)
        if name == "constants":
            line_end = text.find("\n", match.end())
            if line_end == -1:
                line_end = len(text)
            line = text[match.end() : line_end]
            rest = text[line_end:end]
            if not _only_comments(rest):
                raise FormulaSyntaxError(
                    "statements may not follow the constants line directly",
                    line_end,
                    "a section header",
                )
            declared = _parse_constants(line, match.end())
        else:
            chunks[name] = (match.end(), text[match.end() : end])

    signature = Signature(constants=declared or ())
    sections: dict[str, list[Formula]] = {}
    for name in ("axioms", "hypotheses", "queries"):
        offset, chunk = chunks.get(name, (0, ""))
        try:
            sections[name] = parse_statements(chunk, signature)
        except FormulaSyntaxError as err:
            raise _reposition(err, name, offset) from None

    kb = KnowledgeBase(
        signature=signature,
        axioms=_ground_all(sections["axioms"], signature),
        hypotheses=_ground_all(sections["hypotheses"], signature),
        queries=_ground_all(sections["queries"], signature),
        declared_constants=declared,
    )
    _check_constants(signature, declared)
    return kb


def _parse_constants(line: str, offset: int) -> tuple[str, ...]:
    comment = line.find("#")
    if comment != -1:
        line = line[:comment]
    names: list[str] = []
    for match in re.finditer(r"\S+", line):
        name = match.group()
        if not _NAME_RE.match(name) or is_variable(name):
            raise FormulaSyntaxError(
                f"invalid constant name {name!r}",
                offset + match.start(),
                "a lower-case identifier",
            )
        if name in names:
            raise FormulaSyntaxError(
                f"constant {name!r} declared twice", offset + match.start()
            )
        names.append(name)
    return tuple(names)


def _ground_all(
    schemas: list[Formula], signature: Signature
) -> tuple[Formula, ...]:
    out: list[Formula] = []
    for schema in schemas:
        out.extend(ground(schema, signature))
    return tuple(out)


def load(path: str) -> KnowledgeBase:
    with open(path, "r", encoding="utf-8") as handle:
        return loads(handle.read())


def dumps(
    axioms: tuple[Formula, ...],
    hypotheses: tuple[Formula, ...],
    queries: tuple[Formula, ...] = (),
    signature: Optional[Signature] = None,
) -> str:
    """Render rules back into file text that reloads to the same base.

    Formulas are written in canonical fully-parenthesized form, one
    statement per line; the constants line is emitted whenever the signature
    has constants, pinning the grounding order for future queries.
    """
    lines: list[str] = []
    if signature is not None and signature.constants:
        lines.append("constants: " + " ".join(signature.constants))
    lines.append("axioms:")
    lines.extend(f"    {print_formula(f)}." for f in axioms)
    lines.append("hypotheses:")
    lines.extend(f"    {print_formula(f)}." for f in hypotheses)
    if queries:
        lines.append("queries:")
        lines.extend(f"    {print_formula(f)}." for f in queries)
    return "\n".join(lines) + "\n"


def dump_domain(
    domain: DomainOfRules,
    queries: tuple[Formula, ...] = (),
) -> str:
    return dumps(
        domain.axioms, domain.hypotheses, queries, domain.signature
    )


def save(path: str, domain: DomainOfRules, queries: tuple[Formula, ...] = ()) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dump_domain(domain, queries))
