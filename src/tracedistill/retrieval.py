"""Exact top-k cosine retrieval over an embedded example pool.

The index holds one unit-norm row per example, embedded from the question
text only; a row is a tuple of floats, and every row has the index's
dimension. Search is an exact full scan; the pools this pipeline sees are
small (24 seeds) and deterministic ordering matters more than speed, so
plain Python serves it. Ties break by insertion order.

On disk the index is a single file: a JSON header line (format version,
dimension, count, encoder identity, ids, tags) followed by the row-major
little-endian float64 matrix bytes. Loading refuses a file whose encoder
identity does not match the one expected by the caller.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import mul
from pathlib import Path

from .backends import fan_out
from .corpus import replacing

INDEX_FORMAT = "seed-index-v1"
UNIT_NORM_TOLERANCE = 1e-6


class RetrievalError(Exception):
    pass


@dataclass
class RetrievalHit:
    id: str
    score: float
    rank: int


def _dimension_error(expected, got, what):
    return RetrievalError(
        f"{what} has dimension {got}, the index {expected}; the call cache may hold "
        "vectors embedded under another embed_dim"
    )


@dataclass
class SeedIndex:
    """Unit-norm rows, one per id; ``matrix`` may be given as any sequence of
    number sequences (an ndarray too) and is kept as a tuple of float tuples."""

    ids: list[str]
    matrix: tuple[tuple[float, ...], ...]
    encoder: str = ""
    tags: dict[str, str] = field(default_factory=dict)
    embed_fn: object = None

    def __post_init__(self):
        self.matrix = tuple(tuple(map(float, row)) for row in self.matrix)
        if len(self.ids) != len(self.matrix):
            raise RetrievalError(f"id count {len(self.ids)} != row count {len(self.matrix)}")
        for row in self.matrix:
            if len(row) != self.dim:
                raise _dimension_error(self.dim, len(row), "a row")
            if abs(math.hypot(*row) - 1.0) > UNIT_NORM_TOLERANCE:
                raise RetrievalError("index rows must be unit-norm")

    @property
    def dim(self):
        return len(self.matrix[0]) if self.matrix else 0

    def __len__(self):
        return len(self.ids)


def _normalize(vec):
    vec = tuple(map(float, vec))
    norm = math.hypot(*vec)
    if norm == 0.0:
        raise RetrievalError("cannot normalize a zero vector")
    return tuple([value / norm for value in vec])


def build_index(examples, embed_fn, encoder="", tags=None):
    """Embed each example's question text into one unit-norm row, in example order.

    The questions go through ``fan_out`` on the backend that ``embed_fn`` is
    bound to, so a cached backend's misses overlap up to its ``max_inflight``.
    """
    if not examples:
        raise RetrievalError("cannot build an index from zero examples")
    questions = [example.instance.question for example in examples]
    vectors = fan_out(getattr(embed_fn, "__self__", None), embed_fn, questions)
    return SeedIndex(
        ids=[example.instance.id for example in examples],
        matrix=[_normalize(vec) for vec in vectors],
        encoder=encoder,
        tags=dict(tags or {}),
        embed_fn=embed_fn,
    )


def top_k_vector(index, query_vec, k, exclude=None):
    """Exact full-scan search against a pre-embedded query.

    Rows rank by their Euclidean distance to the normalised query: between
    unit vectors ``|r - q|**2 == 2 - 2 * r.q``, so a smaller distance is a
    larger cosine, and ``math.dist`` scans a row in C. The stable sort keeps
    tied rows in insertion order; only the hits returned get their dot
    product, the score.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0 or not len(index):
        return []
    query = _normalize(query_vec)
    if len(query) != index.dim:
        raise _dimension_error(index.dim, len(query), "the query")
    rows = index.matrix
    distances = list(map(math.dist, rows, repeat(query)))
    exclude = exclude or frozenset()
    hits = []
    for position in sorted(range(len(rows)), key=distances.__getitem__):
        ident = index.ids[position]
        if ident in exclude:
            continue
        score = sum(map(mul, rows[position], query))
        hits.append(RetrievalHit(id=ident, score=score, rank=len(hits) + 1))
        if len(hits) == k:
            break
    return hits


def top_k(index, query_text, k, exclude=None):
    """Embed the query text with the index's encoder and search."""
    if index.embed_fn is None:
        raise RetrievalError("index has no embed function attached")
    if k == 0:
        return []
    return top_k_vector(index, index.embed_fn(query_text), k, exclude=exclude)


def save_index(index, path):
    header = {
        "format": INDEX_FORMAT,
        "dim": int(index.dim),
        "count": len(index),
        "encoder": index.encoder,
        "ids": index.ids,
        "tags": index.tags,
    }
    with replacing(path, binary=True) as fh:
        fh.write(json.dumps(header, ensure_ascii=False, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(struct.pack(f"<{len(index) * index.dim}d", *chain.from_iterable(index.matrix)))


def load_index(path, embed_fn=None, expected_encoder=None):
    path = Path(path)
    with open(path, "rb") as fh:
        header_line = fh.readline()
        body = fh.read()
    try:
        header = json.loads(header_line.decode("utf-8"))
    except ValueError as exc:
        raise RetrievalError(f"bad index header in {path}") from exc
    if header.get("format") != INDEX_FORMAT:
        raise RetrievalError(f"unknown index format {header.get('format')!r}")
    if expected_encoder is not None and header.get("encoder") != expected_encoder:
        raise RetrievalError(
            f"encoder mismatch: index built with {header.get('encoder')!r}, "
            f"expected {expected_encoder!r}"
        )
    count, dim = int(header["count"]), int(header["dim"])
    if len(body) != 8 * count * dim:
        raise RetrievalError(f"{path} holds {len(body)} matrix bytes, not {count} x {dim} float64")
    values = struct.unpack(f"<{count * dim}d", body)
    matrix = [values[row * dim : (row + 1) * dim] for row in range(count)]
    return SeedIndex(
        ids=list(header["ids"]),
        matrix=matrix,
        encoder=header.get("encoder", ""),
        tags=dict(header.get("tags", {})),
        embed_fn=embed_fn,
    )
