"""The aligner over the HTTP service tier must reproduce the in-process run.

SOFYA only ever talks to endpoints through queries, so serving both KBs
through ``serve_http`` and reading them with ``HttpSparqlClient`` must
change nothing the paper measures: the accepted rules, their confidences
and the number of queries (and rows) spent per endpoint.  The client-side
query log is what lets ``SofyaAligner.query_statistics()`` read the HTTP
client's accounting at all.
"""

from contextlib import ExitStack

import pytest

from repro.align.aligner import RemoteDataset, SofyaAligner
from repro.align.config import AlignmentConfig
from repro.endpoint.client import EndpointClient
from repro.errors import ParseError
from repro.evaluation.experiment import AlignmentExperiment
from repro.http.client import HttpSparqlClient
from repro.http.server import serve_http
from repro.obs.metrics import MetricsRegistry

DIRECTIONS = (("yago", "dbpedia"), ("dbpedia", "yago"))


def _accounting(result):
    """Per-endpoint query and row counts (timings are transport-specific)."""
    return {
        name: (stats["queries"], stats["rows"], stats["truncated"])
        for name, stats in result.query_statistics.items()
    }


def _rules(result):
    return sorted(
        (rule.premise.relation.value, rule.conclusion.relation.value, rule.confidence)
        for rule in result.accepted_rules(0.0)
    )


@pytest.mark.parametrize("premise, conclusion", DIRECTIONS)
def test_http_alignment_matches_in_process(small_yago_dbpedia_world, premise, conclusion):
    world = small_yago_dbpedia_world
    experiment = AlignmentExperiment(world, distractor_relations=3)
    relations = experiment.query_relations(premise, conclusion)
    config = AlignmentConfig.paper_ubs()
    expected = experiment.run_direction(premise, conclusion, config, relations)

    with ExitStack() as stack:
        datasets = {}
        for name in (premise, conclusion):
            kb = world.kb(name)
            server = stack.enter_context(
                serve_http(kb.endpoint(), metrics=MetricsRegistry())
            )
            http = stack.enter_context(HttpSparqlClient(server.url))
            datasets[name] = RemoteDataset(
                name=kb.name, client=EndpointClient(http), namespace=kb.namespace
            )
        aligner = SofyaAligner(
            source=datasets[conclusion],
            target=datasets[premise],
            links=world.links,
            config=config,
        )
        actual = aligner.align_relations(relations)

    assert _rules(actual) == _rules(expected)
    assert actual.scored_pairs() == expected.scored_pairs()
    assert _accounting(actual) == _accounting(expected)
    assert actual.total_queries() == expected.total_queries() > 0


def test_http_client_logs_answered_queries(small_yago_dbpedia_world):
    kb = small_yago_dbpedia_world.kb("yago")
    relation = kb.relations()[0].iri
    with serve_http(kb.endpoint(), metrics=MetricsRegistry()) as server:
        with HttpSparqlClient(server.url) as http:
            client = EndpointClient(http)
            facts = client.facts(relation, limit=3)
            count = client.count_facts(relation)
            subject = facts[0][0]
            assert client.subject_has_relation(subject, relation)
            with pytest.raises(ParseError):
                http.query("SELECT ?s WHERE { ?s ")
    forms = [(record.form, record.row_count) for record in http.log]
    assert forms == [("SELECT", len(facts)), ("COUNT", 1), ("ASK", 0)]
    assert count >= len(facts) == 3
    assert all(record.duration_seconds > 0 for record in http.log)
    assert http.log.snapshot()["queries"] == 3.0
