"""Command line front end: batch verbs and an interactive session.

Every command emits exactly one JSON report document per invocation on
standard output and a human rendering on standard error; `--pretty` swaps
the human rendering onto standard output instead.  Report documents always
carry the same seven fields (command, input, verdict, positions,
justifications, contexts, diagnostics) and are serialized with sorted keys,
so equal inputs produce byte-identical output.

Exit codes: 0 success; 2 input could not be parsed or loaded, or the
library refused an argument (ValueError); 3 the axiom set itself is
inconsistent; 4 the decision budget was exceeded; 5 a query
formula grounds to more than one instance; 6 invalid component indices.

The interactive session (`repl`) reads one command per line.  An edit
replaces the rule base and echoes the recomputed hypothesis indices, the
queries between edits share one domain, and each query produces exactly
the document its batch counterpart would; user errors never end it.

The argument parser is built on the first `main` call, not at import, and
shared by every later `main` call in the process.  Parsing leaves it
unchanged, and argparse reads the terminal width and the output streams
afresh each time it writes help, usage or an error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence, TextIO

from . import kb as kbmod
from .cnf import clausify, to_dimacs
from .engine import (
    DomainOfRules,
    justifications,
    maximal_consistent_contexts,
    maximal_positions,
    minimal_inconsistent_subset,
    reasonably_infers,
)
from .errors import InconsistentAxioms, LriError, ResourceLimit
from .formula import Formula, Signature, print_formula
from .variety import (
    ProbeUniverse,
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

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT_AXIOMS = 3
EXIT_RESOURCE = 4
EXIT_MULTIPLE_GROUNDINGS = 5
EXIT_BAD_COMPONENTS = 6


class _MultipleGroundings(LriError):
    """A batch query grounded to more than one formula instance."""


class _InvalidComponents(LriError):
    """Component indices passed to compat do not select a valid subset."""


class _InputError(LriError):
    """Bad command input that is not a grammar-level syntax error."""


def _as_lri_error(err: Exception) -> LriError:
    """A refused library argument or a failed file access is an input error."""
    return err if isinstance(err, LriError) else _InputError(str(err))


def _exit_code_for(err: LriError) -> int:
    if isinstance(err, InconsistentAxioms):
        return EXIT_INCONSISTENT_AXIOMS
    if isinstance(err, ResourceLimit):
        return EXIT_RESOURCE
    if isinstance(err, _MultipleGroundings):
        return EXIT_MULTIPLE_GROUNDINGS
    if isinstance(err, _InvalidComponents):
        return EXIT_BAD_COMPONENTS
    return EXIT_INPUT


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


def _error_doc(command: str, input_obj: dict, err: LriError) -> dict:
    return _doc(
        command,
        input_obj,
        "error",
        diagnostics={
            "error": type(err).__name__.lstrip("_"),
            "message": str(err),
        },
    )


def _position_fields(position) -> dict:
    indices = sorted(position.chosen)
    return {
        "indices": indices,
        "hypotheses": [
            print_formula(position.domain.hypotheses[i]) for i in indices
        ],
    }


def _justification_fields(justification) -> dict:
    fields = _position_fields(justification.position)
    fields["conclusion"] = print_formula(justification.conclusion)
    return fields


def _context_fields(context) -> dict:
    pairs = sorted(
        context.pairs,
        key=lambda pair: (print_formula(pair[0]), sorted(pair[1].position.chosen)),
    )
    return {
        "pairs": [_justification_fields(j) for _, j in pairs],
    }


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


def _emit(doc: dict, pretty: bool, out: TextIO, err: TextIO) -> None:
    human = "\n".join(_human(doc)) + "\n"
    if pretty:
        out.write(human)
    else:
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
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
    grounded = base.parse_query(text)
    if len(grounded) != 1:
        raise _MultipleGroundings(
            f"{text.strip()!r} grounds to {len(grounded)} formulas; "
            "supply a single ground instance"
        )
    return grounded[0]


def check_doc(base: kbmod.KnowledgeBase, domain: DomainOfRules, dimacs) -> dict:
    positions = maximal_positions(domain)
    overall = domain.consistent(frozenset(range(len(domain.hypotheses))))
    if dimacs:
        clause_set = clausify(
            list(domain.axioms + domain.hypotheses), base.signature
        )
        with open(dimacs, "w", encoding="utf-8") as handle:
            handle.write(to_dimacs(clause_set))
    verdict = {
        "axioms_consistent": True,
        "overall_consistent": overall,
        "maximal_position_count": len(positions),
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
    positions = maximal_positions(domain)
    return _doc(
        "positions",
        {},
        {"count": len(positions)},
        positions=[_position_fields(p) for p in positions],
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
    witness = reasonably_infers(domain, phi)
    found = justifications(domain, phi)
    return _doc(
        "infer",
        {"formula": print_formula(phi)},
        "reasonable" if witness is not None else "not-reasonable",
        positions=[_position_fields(witness)] if witness is not None else [],
        justification_docs=[_justification_fields(j) for j in found],
        diagnostics=_tally(domain),
    )


def justify_doc(
    base: kbmod.KnowledgeBase, domain: DomainOfRules, formula: str
) -> dict:
    phi = _single_ground(base, formula)
    found = justifications(domain, phi)
    return _doc(
        "justify",
        {"formula": print_formula(phi)},
        "reasonable" if found else "not-reasonable",
        justification_docs=[_justification_fields(j) for j in found],
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
    contexts = maximal_consistent_contexts(domain, formulas)
    return _doc(
        "context",
        {"queries": [print_formula(q) for q in formulas]},
        {"count": len(contexts)},
        contexts=[_context_fields(c) for c in contexts],
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
    v = variety_of(domain)
    positions = maximal_positions(domain)
    verdict = {
        "component_count": len(v),
        "discrete": is_discrete(v),
        "connected": is_connected(v),
    }
    if probe:
        with open(probe, "r", encoding="utf-8") as handle:
            universe = ProbeUniverse(base.ground_statements(handle.read()))
        level = upper_level(v, universe, domain.max_decisions)
        verdict["upper_level"] = [print_formula(f) for f in level]
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
                "axioms": [print_formula(f) for f in v.renamed_axioms(i)],
                **_position_fields(position),
            }
            for i, position in enumerate(positions)
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
        checked = v.check_indices(indices)
        compatible = is_compatible(v, checked, domain.max_decisions)
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
        {"indices": s, "compatible": is_compatible(v, s, args.max_decisions)}
        for s in subsets
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
    graph = partition_graph(list(base.axioms) + list(base.hypotheses))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(partition_dot(graph))
    verdict = {
        "partition_count": len(graph.nodes),
        "partitions": [
            {
                "formulas": [print_formula(f) for f in node.formulas],
                "atoms": [str(a) for a in node.atoms],
            }
            for node in graph.nodes
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
    the session as it was.
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

    def _hypothesis_listing(self) -> list[dict]:
        return [
            {"index": i, "formula": print_formula(f)}
            for i, f in enumerate(self._base.hypotheses)
        ]

    def handle(self, line: str) -> Optional[dict]:
        """Execute one command line; None means the session is over."""
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            return {}
        word, _, rest = stripped.partition(" ")
        rest = rest.strip()
        try:
            return self._dispatch(word, rest)
        except (LriError, OSError, ValueError) as err:
            return _error_doc(word, {"text": rest}, _as_lri_error(err))

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
        try:
            domain = candidate.domain(self._max_decisions)
        except InconsistentAxioms:
            conflict = minimal_inconsistent_subset(
                axioms, self._base.signature, self._max_decisions
            )
            verdict = {
                "accepted": False,
                "conflict": [print_formula(f) for f in conflict],
            }
        else:
            self._base, self._domain = candidate, domain
            verdict = {
                "accepted": True,
                "axioms": [print_formula(f) for f in axioms],
            }
        return _doc(
            "assert-ax",
            {"formula": [print_formula(f) for f in instances]},
            verdict,
        )

    def _assert_hypothesis(self, text: str) -> dict:
        instances = self._base.parse_query(text)
        formulas = {"formula": [print_formula(f) for f in instances]}
        base = self._base
        for f in instances:
            for pool, role in (
                (base.hypotheses, "a hypothesis"), (base.axioms, "an axiom")
            ):
                if f in pool:
                    reason = f"already {role}: {print_formula(f)}"
                    verdict = {"accepted": False, "reason": reason}
                    return _doc("assert-hyp", formulas, verdict)
        self._replace_base(hypotheses=self._base.hypotheses + tuple(instances))
        verdict = {"accepted": True, "hypotheses": self._hypothesis_listing()}
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
        return _doc(
            "retract-hyp",
            {"index": index},
            {
                "removed": print_formula(hypotheses[index]),
                "hypotheses": self._hypothesis_listing(),
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
    required.
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
        if not text and self.arguments and "nargs" not in self.arguments[0][1]:
            raise _InputError(f"missing {self.arguments[0][0]}")


def _arg(name: str, **options) -> tuple[str, dict]:
    """One `add_argument` call: the argument's name and its options."""
    return name, options


_COMMON_OPTIONS = (
    _arg("--pretty", action="store_true",
         help="human-readable output on stdout instead of JSON"),
    _arg("--max-decisions", type=int, metavar="N",
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
        _render_retraction, repl=2, edit=ReplSession._retract_hypothesis),
    "save": _Verb(
        _render_save, None, _arg("path"), repl=7, edit=ReplSession._save),
    "quit": _Verb(None, repl=8, edit=lambda session, text: None),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for name, options in _COMMON_OPTIONS:
        common.add_argument(name, **options)
    parser = argparse.ArgumentParser(
        prog="lri",
        description="Reasonable inference over possibly inconsistent rule bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, verb in _VERBS.items():
        if verb.help is None:
            continue
        p = sub.add_parser(command, parents=[common], help=verb.help)
        arguments = verb.arguments
        if verb.query is not None:
            arguments = (_FILE,) + arguments
        for name, options in arguments:
            p.add_argument(name, **options)
    return parser


def _insert_separator(argv: Sequence[str]) -> list[str]:
    """Insert `--` before the first dash-initial formula argument.

    Formulas routinely start with the negation sign, which argparse would
    otherwise reject as an unknown option.  Everything after the separator
    is positional, so option flags must come before any negated formula.
    Known options are the verb's own and the common ones in the verb table,
    plus argparse's own help; as in argparse, a long option may be written
    as any prefix that names only one of them.
    """
    out = list(argv)
    verb = _VERBS.get(next((t for t in out if not t.startswith("-")), ""))
    options = [
        (name, kw)
        for name, kw in [*_COMMON_OPTIONS, *(verb.arguments if verb else ())]
        if name.startswith("-")
    ]
    flags = {"-h", "--help"}
    flags.update(name for name, kw in options if kw.get("action") == "store_true")
    valued = {name for name, _ in options} - flags
    known = flags | valued
    i = 0
    while i < len(out):
        token = out[i]
        if token == "--":
            break
        if token.startswith("-"):
            name, value, _ = token.partition("=")
            if name not in known and name.startswith("--"):
                named = [o for o in known if o.startswith(name)]
                name = named[0] if len(named) == 1 else name
            if name in flags and not value:
                i += 1
                continue
            if name in valued:
                i += 1 if value else 2
                continue
            out.insert(i, "--")
            break
        i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_insert_separator(argv))
    code = EXIT_OK
    try:
        doc = _VERBS[args.command].run(args)
    except (LriError, OSError, ValueError) as err:
        err = _as_lri_error(err)
        doc = _error_doc(args.command, {}, err)
        code = _exit_code_for(err)
    if doc is not None:
        _emit(doc, args.pretty, sys.stdout, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
