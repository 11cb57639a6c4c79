"""Exact top-k cosine retrieval over an embedded example pool.

The index is a dense matrix of unit-norm rows, one per example, embedded
from the question text only. Search is an exact full scan; the pools this
pipeline sees are small and deterministic ordering matters more than
speed. Ties break by insertion order.

On disk the index is a single file: a JSON header line (format version,
dimension, count, encoder identity, ids, tags) followed by the row-major
float64 matrix bytes. Loading refuses a file whose encoder identity does
not match the one expected by the caller.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

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


@dataclass
class SeedIndex:
    ids: list[str]
    matrix: np.ndarray
    encoder: str = ""
    tags: dict[str, str] = field(default_factory=dict)
    embed_fn: object = None

    def __post_init__(self):
        if len(self.ids) != self.matrix.shape[0]:
            raise RetrievalError(
                f"id count {len(self.ids)} != row count {self.matrix.shape[0]}"
            )
        norms = np.linalg.norm(self.matrix, axis=1)
        if self.matrix.size and np.max(np.abs(norms - 1.0)) > UNIT_NORM_TOLERANCE:
            raise RetrievalError("index rows must be unit-norm")

    @property
    def dim(self):
        return self.matrix.shape[1]

    def __len__(self):
        return len(self.ids)


def _normalize(vec):
    vec = np.asarray(vec, dtype=float)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        raise RetrievalError("cannot normalize a zero vector")
    return vec / norm


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
        matrix=np.vstack([_normalize(vec) for vec in vectors]),
        encoder=encoder,
        tags=dict(tags or {}),
        embed_fn=embed_fn,
    )


def top_k_vector(index, query_vec, k, exclude=None):
    """Exact full-scan search against a pre-embedded query."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0 or not len(index):
        return []
    query = _normalize(query_vec)
    scores = index.matrix @ query
    order = np.argsort(-scores, kind="stable")
    exclude = exclude or frozenset()
    hits = []
    for position in order:
        ident = index.ids[int(position)]
        if ident in exclude:
            continue
        hits.append(RetrievalHit(id=ident, score=float(scores[int(position)]), rank=len(hits) + 1))
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
        fh.write(np.ascontiguousarray(index.matrix, dtype="<f8").tobytes())


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
    matrix = np.frombuffer(body, dtype="<f8").reshape(count, dim).copy()
    return SeedIndex(
        ids=list(header["ids"]),
        matrix=matrix,
        encoder=header.get("encoder", ""),
        tags=dict(header.get("tags", {})),
        embed_fn=embed_fn,
    )
