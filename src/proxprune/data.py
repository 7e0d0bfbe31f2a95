"""Byte-level corpus handling and batch construction.

The tokenizer is fixed: one token per byte, vocab 256. Calibration batches
record the window start offsets they were drawn from so that both legs of a
robustness run (and any rerun with the same seed) see the same data.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

VOCAB = 256


class CorpusError(Exception):
    pass


@dataclass
class ByteCorpus:
    tokens: np.ndarray  # uint8 token ids

    def __len__(self) -> int:
        return len(self.tokens)


def load_corpus(path) -> ByteCorpus:
    raw = Path(path).read_bytes()
    if len(raw) == 0:
        raise CorpusError(f"empty corpus: {path}")
    return ByteCorpus(np.frombuffer(raw, dtype=np.uint8))


def sequence_batch(
    corpus: ByteCorpus, n: int, seq_len: int, seed: int
) -> tuple[np.ndarray, list[int]]:
    """n token windows of seq_len+1 bytes (inputs plus next-token targets).

    Windows shorter corpora allow are truncated to what fits. Returns the
    (n, L) int64 id matrix and the list of start offsets actually used.
    """
    if n < 1:
        raise CorpusError("batch size must be >= 1")
    length = min(seq_len + 1, len(corpus))
    if length < 2:
        raise CorpusError("corpus too short for next-token windows")
    max_start = len(corpus) - length
    rng = np.random.default_rng(seed)
    starts = sorted(int(s) for s in rng.integers(0, max_start + 1, size=n))
    ids = np.stack([corpus.tokens[s : s + length].astype(np.int64) for s in starts])
    return ids, starts


def onehot_context_batch(
    corpus: ByteCorpus, n: int, context: int, seed: int
) -> tuple[tuple[np.ndarray, np.ndarray], list[int]]:
    """((X, y), starts) pairs for the feature-vector models: X stacks the
    one-hot encodings of `context` consecutive bytes, y is the next byte."""
    if n < 1:
        raise CorpusError("batch size must be >= 1")
    if len(corpus) < context + 1:
        raise CorpusError("corpus too short for the requested context")
    rng = np.random.default_rng(seed)
    max_start = len(corpus) - context - 1
    starts = sorted(int(s) for s in rng.integers(0, max_start + 1, size=n))
    X = np.zeros((n, context * VOCAB))
    y = np.zeros(n, dtype=np.int64)
    for row, s in enumerate(starts):
        window = corpus.tokens[s : s + context]
        X[row, np.arange(context) * VOCAB + window] = 1.0
        y[row] = int(corpus.tokens[s + context])
    return (X, y), starts


def mlp_feature_width(context: int) -> int:
    return context * VOCAB


def make_batch(model, corpus: ByteCorpus, n: int, seed: int, *, seq_len: int = 128):
    """Model-appropriate batch plus its logged start offsets."""
    if model.kind == "transformer":
        return sequence_batch(corpus, n, seq_len, seed)
    if model.kind == "mlp":
        context = model.widths[0] // VOCAB
        if context * VOCAB != model.widths[0]:
            raise CorpusError(
                f"mlp input width {model.widths[0]} is not a multiple of the byte vocab"
            )
        return onehot_context_batch(corpus, n, context, seed)
    raise CorpusError(f"no batch builder for model kind {model.kind!r}")
