"""Tests for the streaming scale-world generator."""

import bisect
from array import array

import pytest

from repro.errors import SyntheticDataError
from repro.sparql.evaluate import QueryEvaluator
from repro.sparql.scatter import ShardedQueryEvaluator
from repro.store.dictionary import TermDictionary
from repro.synthetic.stream import (
    _MASK64,
    SCALE_PRESETS,
    ScaleWorldSpec,
    _draw_columns_np,
    _intern_vocabulary,
    _splitmix64,
    _stream_base,
    generate_scale_world,
    scale_world_spec,
)

SPEC = scale_world_spec(3000)


def _draw_columns_py(spec, entity_ids, predicate_ids):
    """Scalar oracle for :func:`_draw_columns_np`: one splitmix64 draw per
    row and column, mapped through the same float64 arithmetic."""
    thresholds = spec.predicate_thresholds()
    bases = [_stream_base(spec.seed, column) for column in range(3)]
    top = spec.predicates - 1

    subjects = array("q")
    predicate_col = array("q")
    objects = array("q")
    for index in range(spec.triples):
        s_hash = _splitmix64((bases[0] + index) & _MASK64)
        p_hash = _splitmix64((bases[1] + index) & _MASK64)
        o_hash = _splitmix64((bases[2] + index) & _MASK64)
        subjects.append(entity_ids[s_hash % spec.entities])
        objects.append(entity_ids[o_hash % spec.entities])
        uniform = p_hash / 2**64
        slot = min(bisect.bisect_right(thresholds, uniform), top)
        predicate_col.append(predicate_ids[slot])
    return subjects, predicate_col, objects


class TestSpec:
    def test_named_presets(self):
        for key, triples in SCALE_PRESETS.items():
            spec = scale_world_spec(key)
            assert spec.triples == triples
            assert spec.entities == max(64, triples // 8)

    def test_explicit_size(self):
        spec = scale_world_spec(4321)
        assert spec.triples == 4321
        assert spec.name == "scale-4321"

    def test_unknown_preset_rejected(self):
        with pytest.raises(SyntheticDataError):
            scale_world_spec("11k")

    @pytest.mark.parametrize(
        "fields",
        [
            {"triples": 0},
            {"entities": 1},
            {"predicates": 0},
            {"predicate_skew": -1.0},
        ],
    )
    def test_invalid_fields_rejected(self, fields):
        base = {"name": "bad", "triples": 10, "entities": 8}
        base.update(fields)
        with pytest.raises(SyntheticDataError):
            ScaleWorldSpec(**base)

    def test_canonical_dict_round_trips_identity(self):
        assert scale_world_spec(3000).canonical_dict() == SPEC.canonical_dict()
        assert scale_world_spec(3000, seed=9).canonical_dict() != SPEC.canonical_dict()

    def test_predicate_thresholds_cumulative(self):
        thresholds = SPEC.predicate_thresholds()
        assert len(thresholds) == SPEC.predicates
        assert thresholds == sorted(thresholds)
        assert thresholds[-1] == 1.0


class TestGeneration:
    def test_deterministic(self):
        first = generate_scale_world(SPEC)
        second = generate_scale_world(SPEC)
        assert set(first.store.match_ids()) == set(second.store.match_ids())

    def test_store_is_frozen(self):
        world = generate_scale_world(SPEC)
        # The streaming path builds the CSR bases straight from the ID
        # columns: the store arrives with empty overlays.
        assert world.store.is_frozen
        assert world.triples > SPEC.triples * 0.99

    def test_numpy_and_pure_python_columns_identical(self):
        dictionary = TermDictionary()
        entity_ids, predicate_ids = _intern_vocabulary(SPEC, dictionary)
        fast = _draw_columns_np(SPEC, entity_ids, predicate_ids)
        slow = _draw_columns_py(SPEC, entity_ids, predicate_ids)
        for fast_column, slow_column in zip(fast, slow):
            assert fast_column.tobytes() == slow_column.tobytes()

    def test_predicates_are_skewed(self):
        world = generate_scale_world(SPEC)
        namespace = SPEC.namespace
        dictionary = world.dictionary
        head = dictionary.id_for(namespace.term("p0"))
        tail = dictionary.id_for(namespace.term(f"p{SPEC.predicates - 1}"))
        head_count = sum(1 for _ in world.store.match_ids(predicate=head))
        tail_count = sum(1 for _ in world.store.match_ids(predicate=tail))
        assert head_count > tail_count > 0

    def test_sharded_equals_single(self):
        single = generate_scale_world(SPEC)
        sharded = generate_scale_world(SPEC, shard_count=4)
        shard_ids = sorted(
            triple for shard in sharded.store.shards for triple in shard.match_ids()
        )
        assert shard_ids == sorted(single.store.match_ids())
        for index, shard in enumerate(sharded.store.shards):
            for subject, _, _ in shard.match_ids():
                assert sharded.store.shard_index_for_subject(subject) == index

    def test_process_parallel_build_equals_inline(self):
        inline = generate_scale_world(SPEC, shard_count=4)
        parallel = generate_scale_world(SPEC, shard_count=4, processes=2)
        inline_ids = sorted(
            triple for shard in inline.store.shards for triple in shard.match_ids()
        )
        parallel_ids = sorted(
            triple for shard in parallel.store.shards for triple in shard.match_ids()
        )
        assert inline_ids == parallel_ids

    def test_shared_dictionary(self):
        dictionary = TermDictionary()
        world = generate_scale_world(SPEC, dictionary=dictionary)
        assert world.dictionary is dictionary
        assert len(dictionary) == SPEC.entities + SPEC.predicates

    def test_queries_find_joins(self):
        world = generate_scale_world(SPEC)
        namespace = SPEC.namespace
        query = (
            f"SELECT * WHERE {{ ?a <{namespace.term('p0').value}> ?b . "
            f"?b <{namespace.term('p1').value}> ?c }}"
        )
        rows = QueryEvaluator(world.store).evaluate(query)
        assert len(rows) > 0

    def test_sharded_queries_match_single(self):
        single = generate_scale_world(SPEC)
        sharded = generate_scale_world(SPEC, shard_count=3)
        namespace = SPEC.namespace
        query = (
            f"SELECT * WHERE {{ ?a <{namespace.term('p1').value}> ?b . "
            f"?b <{namespace.term('p2').value}> ?c }}"
        )
        single_rows = {
            frozenset(row.items())
            for row in QueryEvaluator(single.store).evaluate(query)
        }
        sharded_rows = {
            frozenset(row.items())
            for row in ShardedQueryEvaluator(sharded.store).evaluate(query)
        }
        assert sharded_rows == single_rows

    def test_describe_mentions_rate(self):
        world = generate_scale_world(SPEC)
        assert "triples/s" in world.describe()

    def test_invalid_shard_count(self):
        with pytest.raises(SyntheticDataError):
            generate_scale_world(SPEC, shard_count=0)
