"""Small trainable models, each declaring its prune blocks once.

Two architectures:

* ``Mlp`` -- relu stack over float feature vectors with a softmax/NLL head.
  Block ``hidden{l}`` holds the channels of hidden layer l; one channel
  couples its fan-in column, bias entry and fan-out row.
* ``TinyTransformer`` -- byte/int token causal LM. Per layer l, block
  ``l{l}.attn`` holds the heads (one head couples its Q/K/V column blocks,
  their bias segments and its output projection row block) and block
  ``l{l}.ffn`` the feed-forward channels, coupled as in the Mlp.

A block declaration gives the block's name, class (``head`` or
``channel``), unit count, unit width and the ``(param, axis)`` pairs that
one unit removes. The model expands its declarations once, on first use,
into the structure table that ``structures()`` returns and the group table
that ``groups()`` returns (every structure is its own group).

Embedding tables, positional table, layer norms and the output head are
never prunable.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import EmptyTargetError, Tensor
from .params import ParamSet, PruneGroup, PruneStructure, Slice


class ZooError(Exception):
    pass


class EmptyBatchError(ZooError):
    pass


class TrainingDivergedError(ZooError):
    def __init__(self, epoch: int, step: int):
        super().__init__(f"non-finite loss at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


class _Blocks:
    """A model's prune blocks, declared once in ``self.blocks``. A block is
    ``(name, cls, units, width, coupled)``: unit u removes
    [u * width, (u + 1) * width) along every ``(param, axis)`` pair of
    ``coupled``."""

    @cached_property
    def _tables(self) -> tuple[tuple[PruneStructure, ...], tuple[PruneGroup, ...]]:
        """Structures, ids in declaration order, and one group per structure.
        Built on first use rather than at construction, because
        ``checkpoint.load`` builds a model from a file's arch before it
        compares the file's parameters with it."""
        structures = []
        for name, cls, units, width, coupled in self.blocks:
            for u in range(units):
                slices = tuple(Slice(p, axis, u * width, (u + 1) * width) for p, axis in coupled)
                structures.append(PruneStructure(len(structures), slices, name, cls))
        return tuple(structures), tuple(PruneGroup(st.id, (st.id,), st.cls) for st in structures)

    def structures(self) -> tuple[PruneStructure, ...]:
        return self._tables[0]

    def groups(self) -> tuple[PruneGroup, ...]:
        return self._tables[1]

    def _left(self, removed_per_block: dict[str, int]) -> list[int]:
        """Units each block keeps after removing the given counts."""
        return [units - removed_per_block.get(name, 0) for name, _, units, _, _ in self.blocks]


def _uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = 1.0 / math.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Mlp(_Blocks):
    """Fully connected relu network; widths include input and output dims."""

    kind = "mlp"

    def __init__(self, widths):
        widths = [int(w) for w in widths]
        if len(widths) < 3:
            raise ZooError("mlp needs at least one hidden layer")
        if any(w <= 0 for w in widths):
            raise ZooError(f"mlp widths must be positive, got {widths}")
        self.widths = widths
        # hidden layer l is the output of linear l - 1 and the input of linear l
        self.blocks = [
            (f"hidden{l}", "channel", widths[l], 1,
             ((f"w{l - 1}", 1), (f"b{l - 1}", 0), (f"w{l}", 0)))
            for l in range(1, len(widths) - 1)
        ]

    def arch(self) -> dict:
        return {"kind": "mlp", "widths": list(self.widths)}

    def init_params(self, seed: int) -> ParamSet:
        rng = np.random.default_rng(seed)
        items = []
        for i in range(len(self.widths) - 1):
            fan_in, fan_out = self.widths[i], self.widths[i + 1]
            items.append((f"w{i}", _uniform(rng, (fan_in, fan_out), fan_in)))
            items.append((f"b{i}", _uniform(rng, (fan_out,), fan_in)))
        return ParamSet(items)

    def logits(self, p: dict[str, Tensor], x: np.ndarray) -> Tensor:
        h = np.asarray(x, dtype=np.float64)
        n_layers = len(self.widths) - 1
        for i in range(n_layers):
            h = ad.add(ad.matmul(h, p[f"w{i}"]), p[f"b{i}"])
            if i < n_layers - 1:
                h = ad.relu(h)
        return h

    def loss(self, p: dict[str, Tensor], batch) -> Tensor:
        x, y = batch
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y)
        if x.ndim != 2 or x.shape[1] != self.widths[0]:
            raise ad.ShapeError(
                f"mlp: expected inputs (n, {self.widths[0]}), got {x.shape}"
            )
        if x.shape[0] == 0:
            raise EmptyBatchError("mlp: empty batch")
        return ad.cross_entropy(self.logits(p, x), y)

    def shrink(self, removed_per_block: dict[str, int]) -> "Mlp":
        return Mlp([self.widths[0], *self._left(removed_per_block), self.widths[-1]])


@dataclass
class TransformerArch:
    vocab: int
    d_model: int
    heads: list[int]  # per layer
    d_head: int
    ffn: list[int]  # per layer hidden width
    max_len: int

    def as_dict(self) -> dict:
        return {"kind": "transformer", **asdict(self)}


class TinyTransformer(_Blocks):
    """Pre-norm causal decoder with learned positions and a gelu feed-forward."""

    kind = "transformer"

    def __init__(self, arch: TransformerArch):
        if arch.d_model <= 0 or arch.vocab <= 0:
            raise ZooError("transformer: vocab and d_model must be positive")
        if any(h <= 0 for h in arch.heads) or any(f <= 0 for f in arch.ffn):
            raise ZooError("transformer: head and ffn counts must be positive")
        if len(arch.heads) != len(arch.ffn):
            raise ZooError("transformer: per-layer head/ffn lists must align")
        if not arch.heads:
            raise ZooError("transformer needs at least one layer")
        self.a = arch
        head = ("wq", 1), ("bq", 0), ("wk", 1), ("bk", 0), ("wv", 1), ("bv", 0), ("wo", 0)
        ffn = ("w1", 1), ("b1", 0), ("w2", 0)
        self.blocks = []
        for l in range(self.n_layers):
            self.blocks += [
                (f"l{l}.attn", "head", arch.heads[l], arch.d_head,
                 tuple((f"l{l}.{p}", axis) for p, axis in head)),
                (f"l{l}.ffn", "channel", arch.ffn[l], 1,
                 tuple((f"l{l}.{p}", axis) for p, axis in ffn)),
            ]

    @classmethod
    def build(cls, vocab, d_model, n_heads, n_layers, max_len=128):
        """Uniform layers with a 4 * d_model feed-forward width."""
        if d_model % n_heads != 0:
            raise ZooError(f"d_model {d_model} not divisible by n_heads {n_heads}")
        return cls(
            TransformerArch(
                vocab, d_model, [n_heads] * n_layers, d_model // n_heads,
                [4 * d_model] * n_layers, max_len,
            )
        )

    def arch(self) -> dict:
        return self.a.as_dict()

    @property
    def n_layers(self) -> int:
        return len(self.a.heads)

    def init_params(self, seed: int) -> ParamSet:
        a = self.a
        rng = np.random.default_rng(seed)
        items = [
            ("embed", _uniform(rng, (a.vocab, a.d_model), a.d_model)),
            ("pos", _uniform(rng, (a.max_len, a.d_model), a.d_model)),
        ]
        for l in range(self.n_layers):
            dq = a.heads[l] * a.d_head
            f = a.ffn[l]
            items += [
                (f"l{l}.ln1.g", np.ones(a.d_model)),
                (f"l{l}.ln1.b", np.zeros(a.d_model)),
                (f"l{l}.wq", _uniform(rng, (a.d_model, dq), a.d_model)),
                (f"l{l}.bq", _uniform(rng, (dq,), a.d_model)),
                (f"l{l}.wk", _uniform(rng, (a.d_model, dq), a.d_model)),
                (f"l{l}.bk", _uniform(rng, (dq,), a.d_model)),
                (f"l{l}.wv", _uniform(rng, (a.d_model, dq), a.d_model)),
                (f"l{l}.bv", _uniform(rng, (dq,), a.d_model)),
                (f"l{l}.wo", _uniform(rng, (dq, a.d_model), dq)),
                (f"l{l}.bo", _uniform(rng, (a.d_model,), dq)),
                (f"l{l}.ln2.g", np.ones(a.d_model)),
                (f"l{l}.ln2.b", np.zeros(a.d_model)),
                (f"l{l}.w1", _uniform(rng, (a.d_model, f), a.d_model)),
                (f"l{l}.b1", _uniform(rng, (f,), a.d_model)),
                (f"l{l}.w2", _uniform(rng, (f, a.d_model), f)),
                (f"l{l}.b2", _uniform(rng, (a.d_model,), f)),
            ]
        items += [
            ("lnf.g", np.ones(a.d_model)),
            ("lnf.b", np.zeros(a.d_model)),
            ("head.w", _uniform(rng, (a.d_model, a.vocab), a.d_model)),
            ("head.b", _uniform(rng, (a.vocab,), a.d_model)),
        ]
        return ParamSet(items)

    def _attention(self, p, h: Tensor, layer: int, n_tok: int) -> Tensor:
        a = self.a
        n_heads, dh = a.heads[layer], a.d_head
        b_sz = h.shape[0]

        def split(t: Tensor) -> Tensor:
            t = ad.reshape(t, (b_sz, n_tok, n_heads, dh))
            return ad.transpose(t, (0, 2, 1, 3))

        q = split(ad.add(ad.matmul(h, p[f"l{layer}.wq"]), p[f"l{layer}.bq"]))
        k = split(ad.add(ad.matmul(h, p[f"l{layer}.wk"]), p[f"l{layer}.bk"]))
        v = split(ad.add(ad.matmul(h, p[f"l{layer}.wv"]), p[f"l{layer}.bv"]))
        scores = ad.multiply(
            ad.matmul(q, ad.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh)
        )
        # large negative finite mask keeps every intermediate finite
        mask = np.triu(np.full((n_tok, n_tok), -1e9), k=1)
        att = ad.softmax(ad.add(scores, mask))
        ctx = ad.transpose(ad.matmul(att, v), (0, 2, 1, 3))
        ctx = ad.reshape(ctx, (b_sz, n_tok, n_heads * dh))
        return ad.add(ad.matmul(ctx, p[f"l{layer}.wo"]), p[f"l{layer}.bo"])

    def logits(self, p: dict[str, Tensor], ids: np.ndarray) -> Tensor:
        a = self.a
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ad.ShapeError(f"transformer: ids must be (batch, time), got {ids.shape}")
        n_tok = ids.shape[1]
        if n_tok > a.max_len:
            raise ad.ShapeError(
                f"transformer: sequence length {n_tok} exceeds max_len {a.max_len}"
            )
        h = ad.add(ad.embedding(p["embed"], ids), ad.embedding(p["pos"], np.arange(n_tok)))
        for l in range(self.n_layers):
            normed = ad.layer_norm(h, p[f"l{l}.ln1.g"], p[f"l{l}.ln1.b"])
            h = ad.add(h, self._attention(p, normed, l, n_tok))
            normed = ad.layer_norm(h, p[f"l{l}.ln2.g"], p[f"l{l}.ln2.b"])
            ff = ad.add(ad.matmul(normed, p[f"l{l}.w1"]), p[f"l{l}.b1"])
            ff = ad.add(ad.matmul(ad.gelu(ff), p[f"l{l}.w2"]), p[f"l{l}.b2"])
            h = ad.add(h, ff)
        h = ad.layer_norm(h, p["lnf.g"], p["lnf.b"])
        return ad.add(ad.matmul(h, p["head.w"]), p["head.b"])

    def loss(self, p: dict[str, Tensor], batch) -> Tensor:
        ids = np.asarray(batch)
        if ids.ndim != 2:
            raise ad.ShapeError(f"transformer: batch must be (n, len), got {ids.shape}")
        if ids.shape[0] == 0:
            raise EmptyBatchError("transformer: empty batch")
        if ids.shape[1] < 2:
            raise EmptyTargetError(
                "transformer: empty target (need >= 2 tokens for next-token loss)"
            )
        return ad.cross_entropy(self.logits(p, ids[:, :-1]), ids[:, 1:])

    def shrink(self, removed_per_block: dict[str, int]) -> "TinyTransformer":
        left = self._left(removed_per_block)  # per layer: attn, ffn
        return TinyTransformer(replace(self.a, heads=left[0::2], ffn=left[1::2]))


def model_from_arch(arch: dict):
    """The model an ``arch()`` descriptor names; a missing or unknown field
    raises TypeError."""
    fields = {k: v for k, v in arch.items() if k != "kind"}
    kind = arch.get("kind")
    if kind == "mlp":
        return Mlp(**fields)
    if kind == "transformer":
        return TinyTransformer(TransformerArch(**fields))
    raise ZooError(f"unknown architecture kind {kind!r}")


def batch_loss(model, params: ParamSet, batch) -> float:
    """Mean per-sample loss of the model on one batch (see cross_entropy for
    the exact reduction guarantees)."""
    loss, _ = ad.forward(model.loss, dict(params), batch)
    return loss


@dataclass
class FinetuneInfo:
    epoch_losses: list[float] = field(default_factory=list)
    first_loss: float = math.nan  # loss of the first step, before any update
    steps: int = 0
    non_decreasing: bool = False  # warning flag, set when loss failed to improve


def recover_finetune(
    model, params: ParamSet, dataset, epochs: int, lr: float
) -> tuple[ParamSet, FinetuneInfo]:
    """Plain SGD over the given batches; the post-pruning recovery loop.

    ``dataset`` is a sequence of batches. lr = 0 leaves parameters
    bit-identical. Non-finite losses abort with the epoch/step indices.
    """
    if epochs < 1:
        raise ZooError("recover_finetune: epochs must be >= 1")
    if not (lr >= 0 and math.isfinite(lr)):
        raise ZooError(f"recover_finetune: lr must be finite and >= 0, got {lr}")
    if len(dataset) == 0:
        raise EmptyBatchError("recover_finetune: empty dataset")
    current = params.copy()
    info = FinetuneInfo()
    for epoch in range(epochs):
        losses = []
        for step, batch in enumerate(dataset):
            try:
                loss, grads = ad.gradient(model.loss, dict(current), batch)
            except ad.NonFiniteError as e:
                raise TrainingDivergedError(epoch, step) from e
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, step)
            if info.steps == 0:
                info.first_loss = loss
            losses.append(loss)
            if lr != 0.0:
                current = current.add(grads, scale=-lr)
            info.steps += 1
        info.epoch_losses.append(math.fsum(losses) / len(losses))
    if any(
        info.epoch_losses[i + 1] > info.epoch_losses[i]
        for i in range(len(info.epoch_losses) - 1)
    ):
        info.non_decreasing = True
    return current, info
