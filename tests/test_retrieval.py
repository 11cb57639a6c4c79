import json

import numpy as np
import pytest

from conftest import make_example
from tracedistill.backends import CachingBackend, MockBackend
from tracedistill.retrieval import (
    RetrievalError,
    SeedIndex,
    build_index,
    load_index,
    save_index,
    top_k,
    top_k_vector,
)


def _random_unit_rows(n, dim, seed=0):
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((n, dim))
    return matrix / np.linalg.norm(matrix, axis=1, keepdims=True)


def _brute_force_top_k(matrix, ids, query, k, exclude=frozenset()):
    # independent oracle: full scan, stable sort on negated dot products
    scores = [float(np.dot(row, query)) for row in matrix]
    order = sorted(range(len(ids)), key=lambda i: (-scores[i], i))
    hits = [(ids[i], scores[i]) for i in order if ids[i] not in exclude]
    return hits[:k]


@pytest.fixture
def small_index():
    examples = [make_example(f"ex-{i}") for i in range(3)]
    backend = MockBackend(embed_dim=32)
    return examples, build_index(examples, backend.embed, encoder="mock-enc")


def test_build_index_unit_rows(small_index):
    _, index = small_index
    assert len(index) == 3
    norms = np.linalg.norm(index.matrix, axis=1)
    assert np.max(np.abs(norms - 1.0)) <= 1e-6


def test_build_index_duplicate_questions_distinct_ids():
    a = make_example("dup-a")
    b = make_example("dup-b")
    b.instance.question = a.instance.question
    index = build_index([a, b], MockBackend(embed_dim=16).embed)
    assert index.ids == ["dup-a", "dup-b"]
    assert np.array_equal(index.matrix[0], index.matrix[1])


def test_build_index_deterministic_rebuild(small_index):
    examples, index = small_index
    rebuilt = build_index(examples, MockBackend(embed_dim=32).embed, encoder="mock-enc")
    assert np.array_equal(index.matrix, rebuilt.matrix)
    assert index.ids == rebuilt.ids


def test_self_retrieval_rank_one(small_index):
    examples, index = small_index
    hits = top_k(index, examples[1].instance.question, 3)
    assert hits[0].id == "ex-1"
    assert hits[0].rank == 1
    assert abs(hits[0].score - 1.0) <= 1e-6


def test_top_k_zero_returns_empty(small_index):
    _, index = small_index
    assert top_k(index, "whatever", 0) == []


def test_top_k_caps_at_pool_size_after_exclusion(small_index):
    examples, index = small_index
    hits = top_k(index, examples[0].instance.question, 10, exclude={"ex-0"})
    assert len(hits) == 2
    assert all(h.id != "ex-0" for h in hits)


def test_scores_monotone_and_bounded(small_index):
    examples, index = small_index
    hits = top_k(index, examples[2].instance.question, 3)
    scores = [h.score for h in hits]
    assert scores == sorted(scores, reverse=True)
    assert all(-1.0 - 1e-6 <= s <= 1.0 + 1e-6 for s in scores)
    assert [h.rank for h in hits] == [1, 2, 3]


def test_ties_break_by_insertion_order():
    matrix = np.vstack([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
    index = SeedIndex(ids=["first", "other", "dup"], matrix=matrix)
    hits = top_k_vector(index, np.array([1.0, 0.0]), 3)
    assert [h.id for h in hits] == ["first", "dup", "other"]


def test_oracle_equivalence_on_random_vectors():
    dim = 24
    matrix = _random_unit_rows(200, dim, seed=3)
    ids = [f"v-{i}" for i in range(200)]
    index = SeedIndex(ids=ids, matrix=matrix)
    queries = _random_unit_rows(20, dim, seed=4)
    for k in (1, 5, 10):
        for query in queries:
            hits = top_k_vector(index, query, k)
            oracle = _brute_force_top_k(matrix, ids, query, k)
            assert [h.id for h in hits] == [ident for ident, _ in oracle]
            assert [h.score for h in hits] == pytest.approx([s for _, s in oracle], abs=1e-12)


def test_non_unit_rows_rejected():
    with pytest.raises(RetrievalError):
        SeedIndex(ids=["a"], matrix=np.array([[2.0, 0.0]]))


def test_persistence_round_trip(tmp_path, small_index):
    _, index = small_index
    path = tmp_path / "index.bin"
    save_index(index, path)
    loaded = load_index(path, expected_encoder="mock-enc")
    assert loaded.ids == index.ids
    assert np.array_equal(loaded.matrix, index.matrix)
    assert loaded.encoder == "mock-enc"


def test_persistence_refuses_encoder_mismatch(tmp_path, small_index):
    _, index = small_index
    path = tmp_path / "index.bin"
    save_index(index, path)
    with pytest.raises(RetrievalError) as err:
        load_index(path, expected_encoder="some-other-encoder")
    assert "mismatch" in str(err.value)


def test_top_k_requires_embed_fn():
    index = SeedIndex(ids=["a"], matrix=np.array([[1.0, 0.0]]))
    with pytest.raises(RetrievalError):
        top_k(index, "text", 1)


def test_build_index_embeds_in_parallel_and_keeps_seed_order():
    examples = [make_example(f"ex-{i}") for i in range(24)]
    inner = MockBackend(embed_dim=16, latency=0.01)
    index = build_index(examples, CachingBackend(inner, max_inflight=4).embed)
    assert inner.max_inflight_observed == 4
    # a bare backend has no max_inflight, so this build embeds one question at a time
    serial = build_index(examples, MockBackend(embed_dim=16).embed)
    assert index.ids == serial.ids
    assert np.array_equal(index.matrix, serial.matrix)


def test_build_index_empty_pool_rejected():
    with pytest.raises(RetrievalError):
        build_index([], MockBackend().embed)


def test_rows_of_differing_length_rejected_naming_both_dimensions():
    with pytest.raises(RetrievalError, match="dimension 3, the index 2.*embed_dim"):
        SeedIndex(ids=["a", "b"], matrix=[(1.0, 0.0), (1.0, 0.0, 0.0)])


def test_query_of_another_dimension_rejected_naming_both_dimensions():
    index = SeedIndex(ids=["a", "b"], matrix=[(1.0, 0.0), (0.0, 1.0)])
    with pytest.raises(RetrievalError, match="dimension 3, the index 2.*embed_dim"):
        top_k_vector(index, (1.0, 0.0, 0.0), 1)


def test_rows_given_as_an_ndarray_or_lists_are_kept_as_float_tuples():
    from_array = SeedIndex(ids=["a", "b"], matrix=np.eye(2))
    from_lists = SeedIndex(ids=["a", "b"], matrix=[[1, 0], [0, 1]])
    for index in (from_array, from_lists):
        assert index.matrix == ((1.0, 0.0), (0.0, 1.0))
        assert all(type(value) is float for row in index.matrix for value in row)
        assert index.dim == 2


def test_index_file_with_a_short_matrix_is_a_retrieval_error(tmp_path, small_index):
    _, index = small_index
    path = tmp_path / "index.bin"
    save_index(index, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(RetrievalError, match="matrix bytes"):
        load_index(path)


def test_index_file_body_is_the_row_major_little_endian_float64_matrix(tmp_path, small_index):
    _, index = small_index
    path = tmp_path / "index.bin"
    save_index(index, path)
    header, body = path.read_bytes().split(b"\n", 1)
    assert json.loads(header)["dim"] == 32
    assert body == np.asarray(index.matrix, dtype="<f8").tobytes()
