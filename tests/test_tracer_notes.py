"""The benchmark tracer reads only fields the traced results have.

`perfbench/tracer.py` keeps a note of some results (`_note`): the outcome
and decisions of a search, or how many clauses, positions, justifications
or statements came back.  A changed return type would otherwise show only
when a traced run fails, so `_note` is fed here what the wrapped functions
really return.  The tracer is loaded from its file, as in
`test_tracer_names.py`.
"""

from lri import justifications, maximal_positions, parse_formula, sat
from lri.cnf import CnfBuilder
from lri.kb import loads

from conftest import solver_problem
from test_tracer_names import _tracer

PERMIT_TEXT = "axioms:\n  act.\nhypotheses:\n  act -> perm.\nqueries:\n  perm.\n"


def test_each_noted_field_exists_on_the_real_result(permit_domain):
    tracer = _tracer()
    sig = permit_domain.signature
    perm = parse_formula("perm", sig)
    builder = CnfBuilder()
    top = builder.add(parse_formula("act & perm", sig))
    results = {
        "sat.solve": sat.solve(
            solver_problem([perm, parse_formula("-perm", sig)])
        ),
        "cnf.clause_set": builder.clause_set([top]),
        "engine.positions": maximal_positions(permit_domain),
        "engine.justifications": justifications(permit_domain, perm),
        "kb.loads": loads(PERMIT_TEXT),
    }
    assert results.keys() <= {name for _, _, name in tracer.SPANS}
    notes = {name: tracer._note(name, result) for name, result in results.items()}
    # (decisions, satisfiable); the unit and the three definition clauses;
    # one statement per section
    assert notes == {
        "sat.solve": [0, False],
        "cnf.clause_set": 4,
        "engine.positions": 3,
        "engine.justifications": 1,
        "kb.loads": 3,
    }
