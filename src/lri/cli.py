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

The interactive session (`repl`) reads one command per line, mutating
commands rebuild the rule base and echo the recomputed hypothesis indices,
and query commands produce exactly the document their batch counterpart
would; user errors never abort the session.
"""

from __future__ import annotations

import argparse
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
    reasonably_infers,
)
from .errors import InconsistentAxioms, LriError, ResourceLimit
from .formula import Formula, Signature, print_formula
from .sat import minimal_inconsistent_subset
from .variety import (
    ProbeUniverse,
    Variety,
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


# Shared between batch commands and the interactive session, so the two
# surfaces produce identical documents for identical rule bases.


def positions_doc(domain: DomainOfRules) -> dict:
    positions = maximal_positions(domain)
    return _doc(
        "positions",
        {},
        {"count": len(positions)},
        positions=[_position_fields(p) for p in positions],
        diagnostics=_tally(domain),
    )


def infer_doc(domain: DomainOfRules, phi: Formula) -> dict:
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


def justify_doc(domain: DomainOfRules, phi: Formula) -> dict:
    found = justifications(domain, phi)
    return _doc(
        "justify",
        {"formula": print_formula(phi)},
        "reasonable" if found else "not-reasonable",
        justification_docs=[_justification_fields(j) for j in found],
        diagnostics=_tally(domain),
    )


def context_doc(domain: DomainOfRules, queries: Sequence[Formula]) -> dict:
    contexts = maximal_consistent_contexts(domain, queries)
    return _doc(
        "context",
        {"queries": [print_formula(q) for q in queries]},
        {"count": len(contexts)},
        contexts=[_context_fields(c) for c in contexts],
        diagnostics=_tally(domain),
    )


# ---------------------------------------------------------------------------
# Human rendering
# ---------------------------------------------------------------------------


def _human(doc: dict) -> list[str]:
    command = doc["command"]
    verdict = doc["verdict"]
    if verdict == "error":
        diag = doc["diagnostics"]
        return [f"error ({diag['error']}): {diag['message']}"]
    if command == "check":
        return [
            "axioms: consistent",
            "axioms + hypotheses: "
            + ("consistent" if verdict["overall_consistent"] else "inconsistent"),
            f"maximal positions: {verdict['maximal_position_count']}",
        ]
    if command == "positions":
        lines = [f"{verdict['count']} maximal position(s)"]
        for p in doc["positions"]:
            body = ", ".join(p["hypotheses"]) if p["hypotheses"] else "(axioms only)"
            lines.append(f"  indices {p['indices']}: {body}")
        return lines
    if command in ("infer", "justify"):
        formula = doc["input"]["formula"]
        lines = [f"{formula}: {verdict}"]
        for p in doc["positions"]:
            lines.append(f"  witness position indices {p['indices']}")
        for j in doc["justifications"]:
            body = ", ".join(j["hypotheses"]) if j["hypotheses"] else "(axioms only)"
            lines.append(f"  justified by indices {j['indices']}: {body}")
        return lines
    if command == "context":
        lines = [f"{verdict['count']} maximal consistent context(s)"]
        for i, c in enumerate(doc["contexts"]):
            lines.append(f"  context {i}:")
            for pair in c["pairs"]:
                lines.append(
                    f"    {pair['conclusion']} via indices {pair['indices']}"
                )
            if not c["pairs"]:
                lines.append("    (empty)")
        return lines
    if command == "variety":
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
    if command == "compat":
        state = "compatible" if verdict["compatible"] else "incompatible"
        return [f"components {doc['input']['indices']}: {state}"]
    if command == "witness":
        lines = [
            f"witness family with {verdict['n']} components",
            "connected: " + ("yes" if verdict["connected"] else "no"),
        ]
        for row in verdict["matrix"]:
            state = "compatible" if row["compatible"] else "incompatible"
            lines.append(f"  components {row['indices']}: {state}")
        return lines
    if command == "partition":
        lines = [f"{verdict['partition_count']} partition(s)"]
        for part in verdict["partitions"]:
            atoms = ", ".join(part["atoms"])
            lines.append(f"  atoms {{{atoms}}}: {', '.join(part['formulas'])}")
        return lines
    if command in ("assert-ax", "assert-hyp"):
        if not verdict["accepted"]:
            return [
                "refused: would make the axioms inconsistent"
                if "conflict" in verdict
                else f"refused: {verdict['reason']}",
            ] + [f"  conflict: {f}" for f in verdict.get("conflict", [])]
        lines = ["accepted"]
        for h in verdict.get("hypotheses", []):
            lines.append(f"  [{h['index']}] {h['formula']}")
        return lines
    if command == "retract-hyp":
        lines = ["retracted"]
        for h in verdict.get("hypotheses", []):
            lines.append(f"  [{h['index']}] {h['formula']}")
        return lines
    if command == "save":
        return [f"saved to {verdict['path']}"]
    return [json.dumps(verdict, sort_keys=True)]


def _emit(doc: dict, pretty: bool, out: TextIO, err: TextIO) -> None:
    human = "\n".join(_human(doc)) + "\n"
    if pretty:
        out.write(human)
    else:
        out.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
        err.write(human)


# ---------------------------------------------------------------------------
# Batch command handlers
# ---------------------------------------------------------------------------


def _load(args) -> kbmod.KnowledgeBase:
    return kbmod.load(args.file)


def _single_ground(base: kbmod.KnowledgeBase, text: str) -> Formula:
    grounded = base.parse_query(text)
    if len(grounded) != 1:
        raise _MultipleGroundings(
            f"{text.strip()!r} grounds to {len(grounded)} formulas; "
            "supply a single ground instance"
        )
    return grounded[0]


def cmd_check(args) -> tuple[dict, int]:
    base = _load(args)
    domain = base.domain(args.max_decisions)
    positions = maximal_positions(domain)
    overall = domain.consistent(frozenset(range(len(domain.hypotheses))))
    if args.dimacs:
        clause_set = clausify(
            list(domain.axioms + domain.hypotheses), base.signature
        )
        with open(args.dimacs, "w", encoding="utf-8") as handle:
            handle.write(to_dimacs(clause_set))
    verdict = {
        "axioms_consistent": True,
        "overall_consistent": overall,
        "maximal_position_count": len(positions),
    }
    return _doc("check", {}, verdict, diagnostics=_tally(domain)), EXIT_OK


def cmd_positions(args) -> tuple[dict, int]:
    domain = _load(args).domain(args.max_decisions)
    return positions_doc(domain), EXIT_OK


def cmd_infer(args) -> tuple[dict, int]:
    base = _load(args)
    domain = base.domain(args.max_decisions)
    return infer_doc(domain, _single_ground(base, args.formula)), EXIT_OK


def cmd_justify(args) -> tuple[dict, int]:
    base = _load(args)
    domain = base.domain(args.max_decisions)
    return justify_doc(domain, _single_ground(base, args.formula)), EXIT_OK


def cmd_context(args) -> tuple[dict, int]:
    base = _load(args)
    domain = base.domain(args.max_decisions)
    if args.queries:
        queries = [g for text in args.queries for g in base.parse_query(text)]
    else:
        queries = list(base.queries)
    return context_doc(domain, queries), EXIT_OK


def _component_fields(v: Variety, i: int, positions) -> dict:
    fields = {
        "component": i,
        "axioms": [print_formula(f) for f in v.renamed_axioms(i)],
    }
    fields.update(_position_fields(positions[i]))
    return fields


def cmd_variety(args) -> tuple[dict, int]:
    base = _load(args)
    domain = base.domain(args.max_decisions)
    v = variety_of(domain)
    positions = maximal_positions(domain)
    verdict = {
        "component_count": len(v),
        "discrete": is_discrete(v),
        "connected": is_connected(v),
    }
    if args.probe:
        with open(args.probe, "r", encoding="utf-8") as handle:
            probe_formulas = [
                g
                for schema in kbmod.parse_statements(
                    handle.read(), base.signature
                )
                for g in kbmod.ground(schema, base.signature)
            ]
        base._check_constants()
        probe = ProbeUniverse(probe_formulas)
        level = upper_level(v, probe, args.max_decisions)
        verdict["upper_level"] = [print_formula(f) for f in level]
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(overlap_dot(v))
    doc = _doc(
        "variety",
        {},
        verdict,
        positions=[
            _component_fields(v, i, positions) for i in range(len(v))
        ],
        diagnostics=_tally(domain),
    )
    return doc, EXIT_OK


def cmd_compat(args) -> tuple[dict, int]:
    base = _load(args)
    domain = base.domain(args.max_decisions)
    v = variety_of(domain)
    try:
        indices = v.check_indices(args.indices)
        compatible = is_compatible(v, indices, args.max_decisions)
    except (IndexError, ValueError) as err:
        raise _InvalidComponents(str(err)) from None
    doc = _doc(
        "compat",
        {"indices": list(args.indices)},
        {"compatible": compatible},
        diagnostics={"component_count": len(v)},
    )
    return doc, EXIT_OK


def cmd_witness(args) -> tuple[dict, int]:
    v = witness_variety(args.n)
    matrix = []
    for left_out in range(args.n):
        indices = [i for i in range(args.n) if i != left_out]
        matrix.append(
            {
                "indices": indices,
                "compatible": is_compatible(v, indices, args.max_decisions),
            }
        )
    full = list(range(args.n))
    matrix.append(
        {
            "indices": full,
            "compatible": is_compatible(v, full, args.max_decisions),
        }
    )
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(overlap_dot(v))
    verdict = {
        "n": args.n,
        "connected": is_connected(v),
        "matrix": matrix,
    }
    return _doc("witness", {"n": args.n}, verdict), EXIT_OK


def cmd_partition(args) -> tuple[dict, int]:
    base = _load(args)
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
    return _doc("partition", {}, verdict), EXIT_OK


# ---------------------------------------------------------------------------
# Interactive session
# ---------------------------------------------------------------------------


class ReplSession:
    """One interactive rule-base editing and querying session.

    The session keeps the axiom list, hypothesis list, and query list as
    plain mutable state; every mutation rebuilds the domain of rules from
    scratch, recomputing hypothesis indices.  Refusals and user errors
    produce error documents and leave the state untouched.
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
        self._axioms = list(base.axioms)
        self._hypotheses = list(base.hypotheses)
        self._queries = list(base.queries)
        self._max_decisions = max_decisions
        self._pretty = pretty

    def _domain(self) -> DomainOfRules:
        return DomainOfRules(
            self._axioms,
            self._hypotheses,
            self._base.signature,
            self._max_decisions,
        )

    def _view(self) -> kbmod.KnowledgeBase:
        return kbmod.KnowledgeBase(
            self._base.signature,
            tuple(self._axioms),
            tuple(self._hypotheses),
            tuple(self._queries),
            self._base.declared_constants,
        )

    def _hypothesis_listing(self) -> list[dict]:
        return [
            {"index": i, "formula": print_formula(f)}
            for i, f in enumerate(self._hypotheses)
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
        except LriError as err:
            return _error_doc(word, {"text": rest}, err)
        except ValueError as err:
            return _error_doc(word, {"text": rest}, _InputError(str(err)))

    def _dispatch(self, word: str, rest: str) -> Optional[dict]:
        if word == "quit":
            return None
        if word == "assert-ax":
            return self._assert_axiom(rest)
        if word == "assert-hyp":
            return self._assert_hypothesis(rest)
        if word == "retract-hyp":
            return self._retract_hypothesis(rest)
        if word == "positions":
            return positions_doc(self._domain())
        if word == "infer":
            return infer_doc(self._domain(), self._single(rest))
        if word == "justify":
            return justify_doc(self._domain(), self._single(rest))
        if word == "context":
            return context_doc(self._domain(), self._query_list(rest))
        if word == "save":
            return self._save(rest)
        raise _InputError(
            f"unknown command {word!r}; commands: assert-ax, assert-hyp, "
            "retract-hyp, infer, justify, positions, context, save, quit"
        )

    def _single(self, text: str) -> Formula:
        if not text:
            raise _InputError("missing formula")
        return _single_ground(self._view(), text)

    def _query_list(self, text: str) -> list[Formula]:
        if not text:
            return list(self._queries)
        view = self._view()
        schemas = kbmod.parse_statements(text, view.signature)
        view._check_constants()
        grounded: list[Formula] = []
        for schema in schemas:
            grounded.extend(kbmod.ground(schema, view.signature))
        return grounded

    def _assert_axiom(self, text: str) -> dict:
        if not text:
            raise _InputError("missing formula")
        instances = self._view().parse_query(text)
        candidate = list(self._axioms)
        candidate.extend(f for f in instances if f not in candidate)
        domain_ok = True
        try:
            DomainOfRules(
                candidate, self._hypotheses, self._base.signature,
                self._max_decisions,
            )
        except InconsistentAxioms:
            domain_ok = False
        if not domain_ok:
            conflict = minimal_inconsistent_subset(
                candidate, self._base.signature, self._max_decisions
            )
            verdict = {
                "accepted": False,
                "conflict": [print_formula(f) for f in conflict],
            }
        else:
            self._axioms = candidate
            verdict = {
                "accepted": True,
                "axioms": [print_formula(f) for f in self._axioms],
            }
        return _doc(
            "assert-ax",
            {"formula": [print_formula(f) for f in instances]},
            verdict,
        )

    def _assert_hypothesis(self, text: str) -> dict:
        if not text:
            raise _InputError("missing formula")
        instances = self._view().parse_query(text)
        for f in instances:
            if f in self._hypotheses:
                return _doc(
                    "assert-hyp",
                    {"formula": [print_formula(g) for g in instances]},
                    {
                        "accepted": False,
                        "reason": f"already a hypothesis: {print_formula(f)}",
                    },
                )
            if f in self._axioms:
                return _doc(
                    "assert-hyp",
                    {"formula": [print_formula(g) for g in instances]},
                    {
                        "accepted": False,
                        "reason": f"already an axiom: {print_formula(f)}",
                    },
                )
        self._hypotheses.extend(instances)
        return _doc(
            "assert-hyp",
            {"formula": [print_formula(f) for f in instances]},
            {"accepted": True, "hypotheses": self._hypothesis_listing()},
        )

    def _retract_hypothesis(self, text: str) -> dict:
        try:
            index = int(text)
        except ValueError:
            raise _InputError(f"retract-hyp needs an index, got {text!r}")
        if not 0 <= index < len(self._hypotheses):
            raise _InputError(
                f"no hypothesis with index {index}; "
                f"valid range is 0..{len(self._hypotheses) - 1}"
                if self._hypotheses
                else "no hypotheses to retract"
            )
        removed = self._hypotheses.pop(index)
        return _doc(
            "retract-hyp",
            {"index": index},
            {
                "removed": print_formula(removed),
                "hypotheses": self._hypothesis_listing(),
            },
        )

    def _save(self, path: str) -> dict:
        if not path:
            raise _InputError("missing path")
        kbmod.save(path, self._domain(), tuple(self._queries))
        return _doc("save", {"path": path}, {"path": path})

    def run(self, stdin: TextIO, stdout: TextIO, stderr: TextIO) -> int:
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
        return EXIT_OK


def cmd_repl(args) -> tuple[Optional[dict], int]:
    base = kbmod.load(args.file) if args.file else None
    session = ReplSession(base, args.max_decisions, args.pretty)
    return None, session.run(sys.stdin, sys.stdout, sys.stderr)


# ---------------------------------------------------------------------------
# Argument parsing and entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--pretty",
        action="store_true",
        help="human-readable output on stdout instead of JSON",
    )
    common.add_argument(
        "--max-decisions",
        type=int,
        default=None,
        metavar="N",
        help="decision budget per satisfiability search",
    )

    parser = argparse.ArgumentParser(
        prog="lri",
        description="Reasonable inference over possibly inconsistent rule bases.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, **kwargs):
        p = sub.add_parser(name, parents=[common], **kwargs)
        p.set_defaults(handler=handler)
        return p

    p = add("check", cmd_check, help="report consistency of a knowledge base")
    p.add_argument("file")
    p.add_argument("--dimacs", metavar="PATH",
                   help="write the clause translation of axioms + hypotheses")

    p = add("positions", cmd_positions, help="list maximal positions")
    p.add_argument("file")

    p = add("infer", cmd_infer, help="test reasonable inference of a formula")
    p.add_argument("file")
    p.add_argument("formula")

    p = add("justify", cmd_justify, help="list minimal justifications")
    p.add_argument("file")
    p.add_argument("formula")

    p = add("context", cmd_context,
            help="maximal consistent contexts over query formulas")
    p.add_argument("file")
    p.add_argument("queries", nargs="*",
                   help="query statements (defaults to the file's queries)")

    p = add("variety", cmd_variety,
            help="the variety of components over maximal positions")
    p.add_argument("file")
    p.add_argument("--probe", metavar="PATH",
                   help="statements file; report which hold in some component")
    p.add_argument("--dot", metavar="PATH",
                   help="write the component overlap graph")

    p = add("compat", cmd_compat,
            help="compatibility of selected variety components")
    p.add_argument("file")
    p.add_argument("indices", nargs="+", type=int)

    p = add("witness", cmd_witness,
            help="n-component family compatible only in proper subsets")
    p.add_argument("n", type=int)
    p.add_argument("--dot", metavar="PATH",
                   help="write the component overlap graph")

    p = add("partition", cmd_partition,
            help="partition the rule base by shared atoms")
    p.add_argument("file")
    p.add_argument("--dot", metavar="PATH",
                   help="write the partition graph")

    p = add("repl", cmd_repl, help="interactive session")
    p.add_argument("file", nargs="?", default=None)

    return parser


_FLAG_OPTIONS = {"-h", "--help", "--pretty"}
_VALUE_OPTIONS = {"--max-decisions", "--probe", "--dot", "--dimacs"}


def _insert_separator(argv: Sequence[str]) -> list[str]:
    """Insert `--` before the first dash-initial formula argument.

    Formulas routinely start with the negation sign, which argparse would
    otherwise reject as an unknown option.  Everything after the separator
    is positional, so option flags must come before any negated formula.
    """
    out = list(argv)
    i = 0
    while i < len(out):
        token = out[i]
        if token == "--":
            break
        if token.startswith("-"):
            if token in _FLAG_OPTIONS:
                i += 1
                continue
            if token in _VALUE_OPTIONS:
                i += 2
                continue
            if any(token.startswith(opt + "=") for opt in _VALUE_OPTIONS):
                i += 1
                continue
            out.insert(i, "--")
            break
        i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _build_parser().parse_args(_insert_separator(argv))
    try:
        doc, code = args.handler(args)
    except LriError as err:
        doc = _error_doc(args.command, {}, err)
        code = _exit_code_for(err)
    except (OSError, ValueError) as err:
        doc = _error_doc(args.command, {}, _InputError(str(err)))
        code = EXIT_INPUT
    if doc is not None:
        _emit(doc, args.pretty, sys.stdout, sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
