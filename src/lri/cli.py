"""Command line front end: batch verbs and an interactive session.

Every command emits exactly one JSON report document per invocation on
standard output and a human rendering on standard error; `--pretty` swaps
the human rendering onto standard output instead.  Report documents always
carry the same seven fields (command, input, verdict, positions,
justifications, contexts, diagnostics) and are serialized with sorted keys,
so equal inputs produce byte-identical output.

A document costs what its text costs.  The handler that builds it prints
each formula it shows once.  Every query verb lists the engine's answers as
index tuples (`maximal_selections`, `witness_selection`,
`justifying_selections`, `context_selections` and a variety's selections),
and builds no `Position`, `Justification` or `Context`: those records are
library API.  `_json` writes a document
as the exact bytes of `json.dumps(doc, sort_keys=True, indent=2)` without
importing `json`: `_write` appends the text's pieces to one list, which is
joined once.  A document holds five types only: dicts, lists, strings, ints
and booleans.  `_write` dispatches on each value's exact type, escapes
strings with the C function json itself uses
(`_json.encode_basestring_ascii`), writes ints and booleans as json does,
and writes a list of one scalar type by one join.

Exit codes come from `_EXIT_CODES`: 0 success; 3 the axiom set itself is
inconsistent; 4 the decision budget was exceeded; 5 a query formula grounds
to more than one instance; 6 invalid component indices.  Every other
reported error exits 2: input could not be parsed or loaded, a formula is
nested too deeply for the recursive walkers, the library refused an argument
(ValueError), or the command line is malformed (argparse usage errors, a
negative `--max-decisions` among them).

The interactive session (`repl`) reads one command per line.  An edit
replaces the rule base and echoes the recomputed hypothesis indices, the
queries between edits share one domain, and each query is numbered and
searched as on a fresh load, and declares nothing in the base's signature,
so it produces exactly the document its batch counterpart would, under a
decision budget too.  The one exception is an error document: the session's
carries the command's text as its input, where the batch one carries an
empty input.  User errors never end it.

A command line is parsed by its verb's own parser, the one the whole
parser nests, so help and errors read the same.  The whole parser is built
only for a line that names no command line verb, and for one with
arguments left over, which argparse reports with the top-level usage.
Each parser is built on its first use, not at import, and shared by every
later `main` call in the process.  Parsing leaves a parser unchanged, and
argparse reads the terminal width and the output streams afresh each time
it writes help, usage or an error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from _json import encode_basestring_ascii
from typing import Optional, Sequence, TextIO

from . import kb as kbmod
from .cnf import to_dimacs
from .engine import (
    DomainOfRules,
    context_selections,
    justifying_selections,
    maximal_selections,
    minimal_inconsistent_subset,
    position_count,
    witness_selection,
)
from .errors import InconsistentAxioms, LriError, ResourceLimit
from .formula import Formula, Signature, print_formula
from .variety import (
    is_compatible,
    is_connected,
    is_discrete,
    overlap_dot,
    partition_dot,
    partition_graph,
    upper_level,
    variety_of,
    witness_variety,
)

class _InvalidComponents(LriError):
    """Component indices passed to compat do not select a valid subset."""


class _InputError(LriError):
    """Bad command input that is not a grammar-level syntax error."""


# What a command reports as an error document instead of a traceback.
_USER_ERRORS = (LriError, OSError, ValueError, RecursionError)


def _as_lri_error(err: Exception) -> LriError:
    """A refused argument, failed file access or too deep a formula as input."""
    if isinstance(err, RecursionError):
        return _InputError("formula nested too deeply")
    return err if isinstance(err, LriError) else _InputError(str(err))


# The exit code of the first entry the error is an instance of; any other
# error exits 2.
_EXIT_CODES = (
    (InconsistentAxioms, 3),
    (ResourceLimit, 4),
    (kbmod.MultipleGroundings, 5),
    (_InvalidComponents, 6),
)


# ---------------------------------------------------------------------------
# Report documents
# ---------------------------------------------------------------------------


def _doc(
    command: str,
    input_obj: dict,
    verdict,
    positions: Sequence[dict] = (),
    justification_docs: Sequence[dict] = (),
    contexts: Sequence[dict] = (),
    diagnostics: Optional[dict] = None,
) -> dict:
    return {
        "command": command,
        "input": input_obj,
        "verdict": verdict,
        "positions": list(positions),
        "justifications": list(justification_docs),
        "contexts": list(contexts),
        "diagnostics": diagnostics if diagnostics is not None else {},
    }


def _error_doc(command: str, input_obj: dict, err: Exception) -> dict:
    """The report of a command that failed with one of `_USER_ERRORS`."""
    err = _as_lri_error(err)
    return _doc(
        command,
        input_obj,
        "error",
        diagnostics={
            "error": type(err).__name__.lstrip("_"),
            "message": str(err),
        },
    )


def _printer():
    """The text of each formula, printed on its first request.

    A handler makes one for the document it builds, so no formula is
    printed twice in a document and none is kept after it.
    """
    return functools.cache(print_formula)


def _position_fields(domain, chosen, printed) -> dict:
    """The fields of an ascending selection: its indices and hypotheses."""
    hypotheses = domain.hypotheses
    return {
        "indices": list(chosen),
        "hypotheses": [printed(hypotheses[i]) for i in chosen],
    }


def _justification_fields(domain, conclusion: str, chosen, printed) -> dict:
    return _position_fields(domain, chosen, printed) | {"conclusion": conclusion}


def _context_fields(domain, queries, context, printed) -> dict:
    """A context's (query index, selection) pairs, by printed query, then
    by ascending selection.
    """
    pairs = sorted((printed(queries[k]), chosen) for k, chosen in context)
    return {"pairs": [_justification_fields(domain, q, c, printed) for q, c in pairs]}


def _tally(domain: DomainOfRules) -> dict:
    return {
        "axiom_count": len(domain.axioms),
        "hypothesis_count": len(domain.hypotheses),
    }


def _hypothesis_body(fields: dict) -> str:
    return ", ".join(fields["hypotheses"]) if fields["hypotheses"] else "(axioms only)"


def _human(doc: dict) -> list[str]:
    if doc["verdict"] == "error":
        diag = doc["diagnostics"]
        return [f"error ({diag['error']}): {diag['message']}"]
    return _VERBS[doc["command"]].render(doc)


# How a scalar of each type a document holds is written (`int.__repr__`
# would write True as 1).
_SCALAR_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
}


def _json(value) -> str:
    """`json.dumps(value, sort_keys=True, indent=2)` for a dict or list.

    The value holds only what documents hold: dicts with string keys,
    lists, strings, ints and booleans.  `_write` appends the text's pieces
    to one list, which is joined once.
    """
    pieces: list[str] = []
    _write(value, "", pieces)
    return "".join(pieces)


def _write(value, indent: str, pieces: list[str]) -> None:
    """Append the text of one document value, `indent` deep, to `pieces`.

    Each value is dispatched on its exact type, and each dict's keys are
    sorted once.  A list of one scalar type is one run, written by one join
    of one `map`; any other list is written item by item.  The writer calls
    itself once per level, and a document is at most six levels deep (a
    `context` document's justification indices).
    """
    kind = type(value)
    if kind is not dict and kind is not list:
        pieces.append(_SCALAR_TEXT[kind](value))
        return
    if not value:
        pieces.append("{}" if kind is dict else "[]")
        return
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is dict:
        lead, close = "{\n" + inner, "}"
        for key in sorted(value):
            pieces.append(lead + encode_basestring_ascii(key) + ": ")
            lead = sep
            _write(value[key], inner, pieces)
    else:
        lead, close, run = "[\n" + inner, "]", type(value[0])
        if run in _SCALAR_TEXT and list(map(type, value)).count(run) == len(value):
            pieces += lead, sep.join(map(_SCALAR_TEXT[run], value))
        else:
            for item in value:
                pieces.append(lead)
                lead = sep
                _write(item, inner, pieces)
    pieces.append("\n" + indent + close)


def _emit(doc: dict, pretty: bool, out: TextIO, err: TextIO) -> None:
    human = "\n".join(_human(doc)) + "\n"
    if pretty:
        out.write(human)
    else:
        out.write(_json(doc) + "\n")
        err.write(human)


# ---------------------------------------------------------------------------
# Verb handlers, each followed by the human rendering of its document
# ---------------------------------------------------------------------------
#
# A query verb's handler takes the rule base, its domain and the verb's
# arguments, if it has any.  The batch verb and, for a session command, the
# interactive session both call it, so the two surfaces produce identical
# documents for identical rule bases.


def _single_ground(base: kbmod.KnowledgeBase, text: str) -> Formula:
    """The one instance of a query statement.

    A statement with more instances is refused by its count, before any is
    built (`KnowledgeBase.parse_query` with a limit of one).
    """
    return base.parse_query(text, 1)[0]


def check_doc(base: kbmod.KnowledgeBase, domain: DomainOfRules, dimacs) -> dict:
    """The verdicts of `check`: the positions are counted, not listed.

    `--dimacs` lists the problem the domain's solver would search over
    every island and every hypothesis, from the domain's own clause store.
    """
    count = position_count(domain)
    overall = domain.consistent(frozenset(range(len(domain.hypotheses))))
    if dimacs:
        problem = domain._problem(
            range(len(domain._islands)), range(len(domain.hypotheses))
        )
        with open(dimacs, "w", encoding="utf-8") as handle:
            handle.write(to_dimacs(problem))
    verdict = {
        "axioms_consistent": True,
        "overall_consistent": overall,
        "maximal_position_count": count,
    }
    return _doc("check", {}, verdict, diagnostics=_tally(domain))


def _render_check(doc: dict) -> list[str]:
    verdict = doc["verdict"]
    return [
        "axioms: consistent",
        "axioms + hypotheses: "
        + ("consistent" if verdict["overall_consistent"] else "inconsistent"),
        f"maximal positions: {verdict['maximal_position_count']}",
    ]


def positions_doc(base: kbmod.KnowledgeBase, domain: DomainOfRules) -> dict:
    """The maximal positions, listed from the join's selections in order.

    The join gives each selection as an ascending index tuple, and no
    `Position` record is built for the listing.
    """
    selections = maximal_selections(domain)
    printed = _printer()
    return _doc(
        "positions",
        {},
        {"count": len(selections)},
        positions=[_position_fields(domain, s, printed) for s in selections],
        diagnostics=_tally(domain),
    )


def _render_positions(doc: dict) -> list[str]:
    return [f"{doc['verdict']['count']} maximal position(s)"] + [
        f"  indices {p['indices']}: {_hypothesis_body(p)}"
        for p in doc["positions"]
    ]


def infer_doc(
    base: kbmod.KnowledgeBase, domain: DomainOfRules, formula: str
) -> dict:
    phi = _single_ground(base, formula)
    witness = witness_selection(domain, phi)
    found = justifying_selections(domain, phi)
    printed = _printer()
    return _doc(
        "infer",
        {"formula": printed(phi)},
        "reasonable" if witness is not None else "not-reasonable",
        positions=[] if witness is None else [_position_fields(domain, witness, printed)],
        justification_docs=[
            _justification_fields(domain, printed(phi), s, printed) for s in found
        ],
        diagnostics=_tally(domain),
    )


def justify_doc(
    base: kbmod.KnowledgeBase, domain: DomainOfRules, formula: str
) -> dict:
    phi = _single_ground(base, formula)
    found = justifying_selections(domain, phi)
    printed = _printer()
    return _doc(
        "justify",
        {"formula": printed(phi)},
        "reasonable" if found else "not-reasonable",
        justification_docs=[
            _justification_fields(domain, printed(phi), s, printed) for s in found
        ],
        diagnostics=_tally(domain),
    )


def _render_inference(doc: dict) -> list[str]:
    """Human rendering of both `infer` and `justify` documents."""
    return (
        [f"{doc['input']['formula']}: {doc['verdict']}"]
        + [f"  witness position indices {p['indices']}" for p in doc["positions"]]
        + [
            f"  justified by indices {j['indices']}: {_hypothesis_body(j)}"
            for j in doc["justifications"]
        ]
    )


def context_doc(
    base: kbmod.KnowledgeBase, domain: DomainOfRules, queries
) -> dict:
    """Contexts over the batch verb's query texts or the session's statements.

    Either way, no queries at all means the base's own queries.
    """
    if not queries:
        formulas = base.queries
    elif isinstance(queries, str):
        formulas = base.ground_statements(queries)
    else:
        formulas = [g for text in queries for g in base.parse_query(text)]
    contexts = context_selections(domain, formulas)
    printed = _printer()
    return _doc(
        "context",
        {"queries": [printed(q) for q in formulas]},
        {"count": len(contexts)},
        contexts=[_context_fields(domain, formulas, c, printed) for c in contexts],
        diagnostics=_tally(domain),
    )


def _render_context(doc: dict) -> list[str]:
    lines = [f"{doc['verdict']['count']} maximal consistent context(s)"]
    for i, c in enumerate(doc["contexts"]):
        lines.append(f"  context {i}:")
        for pair in c["pairs"]:
            lines.append(f"    {pair['conclusion']} via indices {pair['indices']}")
        if not c["pairs"]:
            lines.append("    (empty)")
    return lines


def variety_doc(
    base: kbmod.KnowledgeBase, domain: DomainOfRules, probe, dot
) -> dict:
    """The variety's components, each listed once from its selection."""
    v = variety_of(domain)
    printed = _printer()
    verdict = {
        "component_count": len(v),
        "discrete": is_discrete(v),
        "connected": is_connected(v),
    }
    if probe:
        with open(probe, "r", encoding="utf-8") as handle:
            formulas = base.ground_statements(handle.read())
        level = upper_level(v, formulas)
        verdict["upper_level"] = [printed(f) for f in level]
    if dot:
        with open(dot, "w", encoding="utf-8") as handle:
            handle.write(overlap_dot(v))
    return _doc(
        "variety",
        {},
        verdict,
        positions=[
            {
                "component": i,
                "axioms": [printed(f) for f in v.renamed_axioms(i)],
                **_position_fields(domain, chosen, printed),
            }
            for i, chosen in enumerate(v._selections)
        ],
        diagnostics=_tally(domain),
    )


def _render_variety(doc: dict) -> list[str]:
    verdict = doc["verdict"]
    lines = [
        f"components: {verdict['component_count']}",
        "discrete: " + ("yes" if verdict["discrete"] else "no"),
        "connected: " + ("yes" if verdict["connected"] else "no"),
    ]
    for p in doc["positions"]:
        lines.append(f"  component {p['component']}: {', '.join(p['axioms'])}")
    if "upper_level" in verdict:
        lines.append("upper level: " + ", ".join(verdict["upper_level"]))
    return lines


def compat_doc(base: kbmod.KnowledgeBase, domain: DomainOfRules, indices) -> dict:
    v = variety_of(domain)
    try:
        compatible = is_compatible(v, indices)
    except (IndexError, ValueError) as err:
        raise _InvalidComponents(str(err)) from None
    return _doc(
        "compat",
        {"indices": list(indices)},
        {"compatible": compatible},
        diagnostics={"component_count": len(v)},
    )


def _render_compat(doc: dict) -> list[str]:
    state = "compatible" if doc["verdict"]["compatible"] else "incompatible"
    return [f"components {doc['input']['indices']}: {state}"]


def cmd_witness(args) -> dict:
    v = witness_variety(args.n)
    # every subset leaving one component out, then the whole family
    subsets = [[i for i in range(args.n) if i != out] for out in range(args.n)]
    subsets.append(list(range(args.n)))
    matrix = [
        {"indices": s, "compatible": is_compatible(v, s)} for s in subsets
    ]
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(overlap_dot(v))
    verdict = {
        "n": args.n,
        "connected": is_connected(v),
        "matrix": matrix,
    }
    return _doc("witness", {"n": args.n}, verdict)


def _render_witness(doc: dict) -> list[str]:
    verdict = doc["verdict"]
    lines = [
        f"witness family with {verdict['n']} components",
        "connected: " + ("yes" if verdict["connected"] else "no"),
    ]
    for row in verdict["matrix"]:
        state = "compatible" if row["compatible"] else "incompatible"
        lines.append(f"  components {row['indices']}: {state}")
    return lines


def cmd_partition(args) -> dict:
    base = kbmod.load(args.file)
    nodes = partition_graph(base.axioms + base.hypotheses)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(partition_dot(nodes))
    printed = _printer()
    verdict = {
        "partition_count": len(nodes),
        "partitions": [
            {
                "formulas": [printed(f) for f in node.formulas],
                "atoms": [str(a) for a in node.atoms],
            }
            for node in nodes
        ],
    }
    return _doc("partition", {}, verdict)


def _render_partition(doc: dict) -> list[str]:
    verdict = doc["verdict"]
    lines = [f"{verdict['partition_count']} partition(s)"]
    for part in verdict["partitions"]:
        atoms = ", ".join(part["atoms"])
        lines.append(f"  atoms {{{atoms}}}: {', '.join(part['formulas'])}")
    return lines


def cmd_repl(args) -> None:
    base = kbmod.load(args.file) if args.file else None
    session = ReplSession(base, args.max_decisions, args.pretty)
    session.run(sys.stdin, sys.stdout, sys.stderr)


# ---------------------------------------------------------------------------
# Interactive session
# ---------------------------------------------------------------------------


class ReplSession:
    """One interactive rule-base editing and querying session.

    The session holds one knowledge base and the domain of rules built from
    it by the first query or `save` that needs it.  An edit replaces the
    base and drops the domain, but an accepted axiom keeps the one built to
    check it.  Refusals and user errors produce error documents and leave
    the session as it was.  A command that does not replace the base (a
    query, a `save`, a refused edit) declares nothing: the names its text
    brought into the signature are forgotten when it ends, so every later
    command grounds and checks arities as the batch command would.
    """

    def __init__(
        self,
        base: Optional[kbmod.KnowledgeBase],
        max_decisions: Optional[int] = None,
        pretty: bool = False,
    ) -> None:
        if base is None:
            base = kbmod.KnowledgeBase(Signature(), (), (), (), None)
        self._base = base
        self._domain: Optional[DomainOfRules] = None
        self._max_decisions = max_decisions
        self._pretty = pretty

    def _built_domain(self) -> DomainOfRules:
        if self._domain is None:
            self._domain = self._base.domain(self._max_decisions)
        return self._domain

    def _replace_base(self, **fields) -> None:
        self._base = self._base.replace(**fields)
        self._domain = None

    def _hypothesis_listing(self, printed) -> list[dict]:
        return [
            {"index": i, "formula": printed(f)}
            for i, f in enumerate(self._base.hypotheses)
        ]

    def handle(self, line: str) -> Optional[dict]:
        """Execute one command line; None means the session is over."""
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return {}
        word = stripped.split(None, 1)[0]
        rest = stripped[len(word):].lstrip()
        base, mark = self._base, self._base.signature.mark()
        try:
            return self._dispatch(word, rest)
        except _USER_ERRORS as err:
            return _error_doc(word, {"text": rest}, err)
        finally:
            if self._base is base:
                base.signature.rollback(mark)

    def _dispatch(self, word: str, rest: str) -> Optional[dict]:
        verb = _VERBS.get(word)
        if verb is None or verb.repl is None:
            commands = sorted(
                (v.repl, name) for name, v in _VERBS.items() if v.repl is not None
            )
            raise _InputError(
                f"unknown command {word!r}; commands: "
                + ", ".join(name for _, name in commands)
            )
        if verb.query is None:
            verb.require_operand(rest)
            return verb.edit(self, rest)
        domain = self._built_domain()
        verb.require_operand(rest)
        return verb.query(self._base, domain, *([rest] if verb.arguments else []))

    def _assert_axiom(self, text: str) -> dict:
        instances = self._base.parse_query(text)
        axioms = list(self._base.axioms)
        axioms.extend(f for f in instances if f not in axioms)
        candidate = self._base.replace(axioms=tuple(axioms))
        printed = _printer()
        try:
            domain = candidate.domain(self._max_decisions)
        except InconsistentAxioms:
            conflict = minimal_inconsistent_subset(
                axioms, self._base.signature, self._max_decisions
            )
            verdict = {
                "accepted": False,
                "conflict": [printed(f) for f in conflict],
            }
        else:
            self._base, self._domain = candidate, domain
            verdict = {
                "accepted": True,
                "axioms": [printed(f) for f in axioms],
            }
        return _doc(
            "assert-ax",
            {"formula": [printed(f) for f in instances]},
            verdict,
        )

    def _assert_hypothesis(self, text: str) -> dict:
        instances = self._base.parse_query(text)
        printed = _printer()
        formulas = {"formula": [printed(f) for f in instances]}
        base = self._base
        for f in instances:
            for pool, role in (
                (base.hypotheses, "a hypothesis"), (base.axioms, "an axiom")
            ):
                if f in pool:
                    reason = f"already {role}: {printed(f)}"
                    verdict = {"accepted": False, "reason": reason}
                    return _doc("assert-hyp", formulas, verdict)
        self._replace_base(hypotheses=self._base.hypotheses + tuple(instances))
        verdict = {"accepted": True, "hypotheses": self._hypothesis_listing(printed)}
        return _doc("assert-hyp", formulas, verdict)

    def _retract_hypothesis(self, text: str) -> dict:
        hypotheses = self._base.hypotheses
        try:
            index = int(text)
        except ValueError:
            raise _InputError(f"retract-hyp needs an index, got {text!r}")
        if not 0 <= index < len(hypotheses):
            raise _InputError(
                f"no hypothesis with index {index}; "
                f"valid range is 0..{len(hypotheses) - 1}"
                if hypotheses
                else "no hypotheses to retract"
            )
        self._replace_base(hypotheses=hypotheses[:index] + hypotheses[index + 1 :])
        printed = _printer()
        return _doc(
            "retract-hyp",
            {"index": index},
            {
                "removed": printed(hypotheses[index]),
                "hypotheses": self._hypothesis_listing(printed),
            },
        )

    def _save(self, path: str) -> dict:
        kbmod.save(path, self._built_domain(), self._base.queries)
        return _doc("save", {"path": path}, {"path": path})

    def run(self, stdin: TextIO, stdout: TextIO, stderr: TextIO) -> None:
        while True:
            stderr.write("lri> ")
            stderr.flush()
            line = stdin.readline()
            if not line:
                break
            doc = self.handle(line)
            if doc is None:
                break
            if doc:
                _emit(doc, self._pretty, stdout, stderr)


def _hypothesis_lines(verdict: dict) -> list[str]:
    return [f"  [{h['index']}] {h['formula']}" for h in verdict.get("hypotheses", [])]


def _render_assertion(doc: dict) -> list[str]:
    """Human rendering of both `assert-ax` and `assert-hyp` documents."""
    verdict = doc["verdict"]
    if verdict["accepted"]:
        return ["accepted"] + _hypothesis_lines(verdict)
    if "conflict" in verdict:
        return ["refused: would make the axioms inconsistent"] + [
            f"  conflict: {f}" for f in verdict["conflict"]
        ]
    return [f"refused: {verdict['reason']}"]


def _render_retraction(doc: dict) -> list[str]:
    return ["retracted"] + _hypothesis_lines(doc["verdict"])


def _render_save(doc: dict) -> list[str]:
    return [f"saved to {doc['verdict']['path']}"]


# ---------------------------------------------------------------------------
# The verb table, argument parsing and entry point
# ---------------------------------------------------------------------------


class _Verb:
    """One verb: its arguments, the handler that builds its document, and
    the renderer of that document.

    `help` makes it a command line verb, and `repl` a session command at
    that place in the session's command list.  One handler is set:
    `query(base, domain, *arguments)` serves the command line and any
    session command, `batch(args)` the command line only, and
    `edit(session, text)` the session only.  `run` is the one command line
    loader: it reads a query verb's rule base from a `file` argument put
    before the others, builds its domain, and passes the declared arguments
    by their argparse names.  The session passes the rest of the line as
    the operand, and refuses an empty one where the first argument is
    required and any one where there is no argument.
    """

    def __init__(
        self, render, help=None, *arguments,
        repl=None, query=None, batch=None, edit=None,
    ) -> None:
        self.render, self.help, self.arguments = render, help, arguments
        self.repl, self.query, self.batch, self.edit = repl, query, batch, edit

    def run(self, args) -> Optional[dict]:
        """This command line verb's document for parsed arguments."""
        if self.query is None:
            return self.batch(args)
        base = kbmod.load(args.file)
        domain = base.domain(args.max_decisions)
        dests = [n.lstrip("-").replace("-", "_") for n, _ in self.arguments]
        return self.query(base, domain, *(getattr(args, d) for d in dests))

    def require_operand(self, text: str) -> None:
        if text and not self.arguments:
            raise _InputError(f"unexpected operand {text!r}")
        if not text and self.arguments and "nargs" not in self.arguments[0][1]:
            raise _InputError(f"missing {self.arguments[0][0]}")


def _arg(name: str, **options) -> tuple[str, dict]:
    """One `add_argument` call: the argument's name and its options."""
    return name, options


def _budget(text: str) -> int:
    """A decision budget: a whole number, 0 or more."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"invalid budget value: {text!r} (expected 0 or more)"
        )
    return value


_COMMON_OPTIONS = (
    _arg("--pretty", action="store_true",
         help="human-readable output on stdout instead of JSON"),
    _arg("--max-decisions", type=_budget, metavar="N",
         help="decision budget per question"),
)
_FILE = _arg("file")
_FORMULA = _arg("formula")
_OVERLAP_DOT = _arg(
    "--dot", metavar="PATH", help="write the component overlap graph"
)

# Command line verbs in `--help` order; `repl` orders the session's list.
_VERBS = {
    "check": _Verb(
        _render_check, "report consistency of a knowledge base",
        _arg("--dimacs", metavar="PATH",
             help="write the clause translation of axioms + hypotheses"),
        query=check_doc),
    "positions": _Verb(
        _render_positions, "list maximal positions",
        repl=5, query=positions_doc),
    "infer": _Verb(
        _render_inference, "test reasonable inference of a formula", _FORMULA,
        repl=3, query=infer_doc),
    "justify": _Verb(
        _render_inference, "list minimal justifications", _FORMULA,
        repl=4, query=justify_doc),
    "context": _Verb(
        _render_context, "maximal consistent contexts over query formulas",
        _arg("queries", nargs="*",
             help="query statements (defaults to the file's queries)"),
        repl=6, query=context_doc),
    "variety": _Verb(
        _render_variety, "the variety of components over maximal positions",
        _arg("--probe", metavar="PATH",
             help="statements file; report which hold in some component"),
        _OVERLAP_DOT, query=variety_doc),
    "compat": _Verb(
        _render_compat, "compatibility of selected variety components",
        _arg("indices", nargs="+", type=int), query=compat_doc),
    "witness": _Verb(
        _render_witness, "n-component family compatible only in proper subsets",
        _arg("n", type=int), _OVERLAP_DOT, batch=cmd_witness),
    "partition": _Verb(
        _render_partition, "partition the rule base by shared atoms", _FILE,
        _arg("--dot", metavar="PATH", help="write the partition graph"),
        batch=cmd_partition),
    "repl": _Verb(
        None, "interactive session", _arg("file", nargs="?", default=None),
        batch=cmd_repl),
    "assert-ax": _Verb(
        _render_assertion, None, _FORMULA,
        repl=0, edit=ReplSession._assert_axiom),
    "assert-hyp": _Verb(
        _render_assertion, None, _FORMULA,
        repl=1, edit=ReplSession._assert_hypothesis),
    "retract-hyp": _Verb(
        _render_retraction, None, _arg("index", nargs="?"),
        repl=2, edit=ReplSession._retract_hypothesis),
    "save": _Verb(
        _render_save, None, _arg("path"), repl=7, edit=ReplSession._save),
    "quit": _Verb(None, repl=8, edit=lambda session, text: None),
}


def _add_arguments(parser: argparse.ArgumentParser, verb: _Verb):
    """Give a command line verb's parser its options and arguments."""
    file_arg = (_FILE,) if verb.query is not None else ()
    for name, options in _COMMON_OPTIONS + file_arg + verb.arguments:
        parser.add_argument(name, **options)
    return parser


@functools.cache
def _verb_parser(command: str) -> argparse.ArgumentParser:
    """The parser of one command line verb, as `_build_parser` nests it."""
    parser = argparse.ArgumentParser(prog=f"lri {command}")
    parser.set_defaults(command=command)
    return _add_arguments(parser, _VERBS[command])


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lri",
        description="Reasonable inference over possibly inconsistent rule bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, verb in _VERBS.items():
        if verb.help is not None:
            _add_arguments(sub.add_parser(command, help=verb.help), verb)
    return parser


def _insert_separator(argv: Sequence[str]) -> list[str]:
    """Insert `--` before the first dash-initial formula argument.

    Formulas routinely start with the negation sign, which argparse would
    otherwise reject as an unknown option.  Everything after the separator
    is positional, so option flags must come before any negated formula.
    Known options are the verb's own and the common ones in the verb table,
    plus argparse's own help; as in argparse, a long option may be written
    as any prefix that names only one of them.

    One pass sorts the tokens into three lists, kept in order: the verb's
    word with the options before the first positional, the known options
    (with their values) after it, and the positionals.  They are returned
    in that order, so no option stands between two positionals: argparse
    gives a `nargs="*"` positional nothing when an option comes between it
    and the positional before it, so `context F --pretty q` would refuse
    `q`.  The scan stops at `--`, at a valued option with no value left, or
    at an unknown dash token, which gets `--` put before it; the tokens
    from there on follow the positionals as they are.
    """
    verb = _VERBS.get(next((t for t in argv if not t.startswith("-")), ""))
    options = [*_COMMON_OPTIONS, *(verb.arguments if verb else ())]
    flags = {"-h", "--help"}
    flags.update(name for name, kw in options if kw.get("action") == "store_true")
    valued = {name for name, _ in options if name.startswith("-")} - flags
    known = flags | valued
    lead, moved, positionals, separator = [], [], [], []
    i, word = 0, False
    while i < len(argv) and argv[i] != "--":
        token = argv[i]
        if not token.startswith("-"):
            (positionals if word else lead).append(token)
            i, word = i + 1, True
            continue
        name, value, _ = token.partition("=")
        if name not in known and name.startswith("--"):
            named = [o for o in known if o.startswith(name)]
            name = named[0] if len(named) == 1 else name
        if name in flags and not value:
            step = 1
        elif name in valued:
            step = 1 if value else 2
        else:
            separator = ["--"]
            break
        if i + step > len(argv):
            break
        (moved if positionals else lead).extend(argv[i:i + step])
        i += step
    return lead + moved + positionals + separator + list(argv[i:])


def _parse(argv: list[str]) -> argparse.Namespace:
    """Parse a command line as `_build_parser()` does, but build only the
    named verb's parser unless the line needs the whole one.

    argparse reports what a verb's parser leaves over with the top-level
    usage, so a line with leftover arguments goes to the whole parser.
    """
    verb = _VERBS.get(argv[0]) if argv else None
    if verb is not None and verb.help is not None:
        args, extras = _verb_parser(argv[0]).parse_known_args(argv[1:])
        if not extras:
            return args
    return _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(_insert_separator(argv))
    code = 0
    try:
        doc = _VERBS[args.command].run(args)
    except _USER_ERRORS as err:
        doc = _error_doc(args.command, {}, err)
        code = next((c for t, c in _EXIT_CODES if isinstance(err, t)), 2)
    if doc is not None:
        _emit(doc, args.pretty, sys.stdout, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
