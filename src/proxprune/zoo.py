"""Small trainable models, each declaring its parameters and prune blocks once.

Two architectures:

* ``Mlp`` -- relu stack over float feature vectors with a softmax/NLL head.
  Block ``hidden{l}`` holds the channels of hidden layer l; one channel
  couples its fan-in column, bias entry and fan-out row.
* ``TinyTransformer`` -- byte/int token causal LM. Per layer l, block
  ``l{l}.attn`` holds the heads (one head couples its Q/K/V column blocks,
  their bias segments and its output projection row block) and block
  ``l{l}.ffn`` the feed-forward channels, coupled as in the Mlp.

Each model declares its blocks ``(name, cls, units, width)``, class
``head`` or ``channel``, and its parameters ``(name, dims, init)`` in
ParamSet order. A dim is an int or a block, standing for units * width;
``init`` is ``np.ones``/``np.zeros`` or the fan-in dim of a uniform
+-1/sqrt(fan_in) draw. Derived from these: ``param_shapes()`` (no
allocation), ``init_params``, a block's coupled ``(param, axis)`` pairs
(where it appears in the dims), and, once on first use, the tables
``structures()`` and ``groups()`` (one group per structure). Construction
rejects any dim that is not a positive int.

Embedding tables, positional table, layer norms and the output head are
never prunable.
"""
from __future__ import annotations

import math
import mmap
import os
import struct
from contextlib import closing
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property, lru_cache, partial

import numpy as np

from . import autodiff as ad
from .autodiff import EmptyTargetError, GradMap, Tensor
from .params import ParamSet, PruneGroup, PruneStructure, Slice, unflatten_map
from .smoothing import ForkedChild


class ZooError(Exception):
    pass


class EmptyBatchError(ZooError):
    pass


class TrainingDivergedError(ZooError):
    def __init__(self, epoch: int, step: int):
        super().__init__(f"non-finite loss at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


@lru_cache(maxsize=8)
def causal_mask(n: int) -> np.ndarray:
    """The (n, n) additive causal mask, -1e9 above the diagonal: large
    negative but finite, so every intermediate stays finite. Every layer of
    every pass at length n shares one read-only copy; the last 8 lengths
    stay cached."""
    mask = np.triu(np.full((n, n), -1e9), k=1)
    mask.flags.writeable = False
    return mask


class _Declared:
    """A model's parameter table and prune blocks (see the module docstring),
    and everything derived from them."""

    def __init__(self, blocks, table):
        self.blocks, self.table = blocks, table
        for name, dims, init in table:
            for dim in (*dims, *(() if callable(init) else (init,))):
                for n in dim[2:] if isinstance(dim, tuple) else (dim,):
                    if type(n) is not int or n <= 0:
                        raise ZooError(
                            f"parameter {name!r}: dimension {n!r} is not a positive integer"
                        )

    @staticmethod
    def _dim(dim) -> int:
        """An int dim, or a block's units * width. A block is a tuple, which
        no field of a JSON arch can be."""
        return math.prod(dim[2:]) if isinstance(dim, tuple) else dim

    def param_shapes(self) -> dict[str, tuple[int, ...]]:
        return {name: tuple(map(self._dim, dims)) for name, dims, _ in self.table}

    def init_params(self, seed: int) -> ParamSet:
        rng = np.random.default_rng(seed)
        items = []
        for name, dims, init in self.table:
            shape = tuple(map(self._dim, dims))
            if callable(init):
                items.append((name, init(shape)))
            else:
                bound = 1.0 / math.sqrt(self._dim(init))
                items.append((name, rng.uniform(-bound, bound, size=shape)))
        return ParamSet(items)

    @cached_property
    def _tables(self) -> tuple[tuple[PruneStructure, ...], tuple[PruneGroup, ...]]:
        """Unit u of a block removes [u * width, (u + 1) * width) along each
        of its coupled axes. Built on first use rather than at construction,
        because ``checkpoint.load`` builds a model from a file's arch before
        it compares the file's parameters with it."""
        coupled = {name: [] for name, *_ in self.blocks}
        for param, dims, _ in self.table:
            for axis, dim in enumerate(dims):
                if isinstance(dim, tuple):
                    coupled[dim[0]].append((param, axis))
        structures = []
        for name, cls, units, width in self.blocks:
            for u in range(units):
                slices = tuple(Slice(p, ax, u * width, (u + 1) * width) for p, ax in coupled[name])
                structures.append(PruneStructure(len(structures), slices, name, cls))
        return tuple(structures), tuple(PruneGroup(st.id, (st.id,), st.cls) for st in structures)

    def structures(self) -> tuple[PruneStructure, ...]:
        return self._tables[0]

    def groups(self) -> tuple[PruneGroup, ...]:
        return self._tables[1]

    def _left(self, removed_per_block: dict[str, int]) -> list[int]:
        """Units each block keeps after removing the given counts."""
        return [units - removed_per_block.get(name, 0) for name, _, units, _ in self.blocks]


class Mlp(_Declared):
    """Fully connected relu network; widths include input and output dims."""

    kind = "mlp"

    def __init__(self, widths):
        widths = list(widths)
        if len(widths) < 3:
            raise ZooError("mlp needs at least one hidden layer")
        self.widths = widths
        # hidden layer l is the output of linear l - 1 and the input of linear l
        blocks = [(f"hidden{l}", "channel", widths[l], 1) for l in range(1, len(widths) - 1)]
        dims, table = [widths[0], *blocks, widths[-1]], []
        for i in range(len(widths) - 1):
            fan_in, fan_out = dims[i], dims[i + 1]
            table += [(f"w{i}", (fan_in, fan_out), fan_in), (f"b{i}", (fan_out,), fan_in)]
        super().__init__(blocks, table)

    def arch(self) -> dict:
        return {"kind": "mlp", "widths": list(self.widths)}

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


class TinyTransformer(_Declared):
    """Pre-norm causal decoder with learned positions and a gelu feed-forward."""

    kind = "transformer"

    def __init__(self, arch: TransformerArch):
        if len(arch.heads) != len(arch.ffn):
            raise ZooError("transformer: per-layer head/ffn lists must align")
        if not arch.heads:
            raise ZooError("transformer needs at least one layer")
        self.a = arch
        d = arch.d_model
        blocks, table = [], [("embed", (arch.vocab, d), d), ("pos", (arch.max_len, d), d)]
        for l in range(self.n_layers):
            attn = (f"l{l}.attn", "head", arch.heads[l], arch.d_head)
            ffn = (f"l{l}.ffn", "channel", arch.ffn[l], 1)
            blocks += [attn, ffn]
            table += [
                (f"l{l}.ln1.g", (d,), np.ones), (f"l{l}.ln1.b", (d,), np.zeros),
                (f"l{l}.wq", (d, attn), d), (f"l{l}.bq", (attn,), d),
                (f"l{l}.wk", (d, attn), d), (f"l{l}.bk", (attn,), d),
                (f"l{l}.wv", (d, attn), d), (f"l{l}.bv", (attn,), d),
                (f"l{l}.wo", (attn, d), attn), (f"l{l}.bo", (d,), attn),
                (f"l{l}.ln2.g", (d,), np.ones), (f"l{l}.ln2.b", (d,), np.zeros),
                (f"l{l}.w1", (d, ffn), d), (f"l{l}.b1", (ffn,), d),
                (f"l{l}.w2", (ffn, d), ffn), (f"l{l}.b2", (d,), ffn),
            ]
        table += [
            ("lnf.g", (d,), np.ones), ("lnf.b", (d,), np.zeros),
            ("head.w", (d, arch.vocab), d), ("head.b", (arch.vocab,), d),
        ]
        super().__init__(blocks, table)

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

    def _attention(self, p, h: Tensor, layer: int, mask: np.ndarray) -> Tensor:
        a = self.a
        n_heads, dh = a.heads[layer], a.d_head
        b_sz, n_tok = h.shape[0], mask.shape[0]

        def split(t: Tensor) -> Tensor:
            t = ad.reshape(t, (b_sz, n_tok, n_heads, dh))
            return ad.transpose(t, (0, 2, 1, 3))

        q = split(ad.add(ad.matmul(h, p[f"l{layer}.wq"]), p[f"l{layer}.bq"]))
        k = split(ad.add(ad.matmul(h, p[f"l{layer}.wk"]), p[f"l{layer}.bk"]))
        v = split(ad.add(ad.matmul(h, p[f"l{layer}.wv"]), p[f"l{layer}.bv"]))
        scores = ad.matmul(q, ad.transpose(k, (0, 1, 3, 2)))
        att = ad.softmax(scores, 1.0 / math.sqrt(dh), mask)
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
        # positions are looked up per sample, so that every sum over the
        # batch is a leaf's (see autodiff.Reduction)
        positions = np.broadcast_to(np.arange(n_tok), ids.shape)
        h = ad.add(ad.embedding(p["embed"], ids), ad.embedding(p["pos"], positions))
        mask = causal_mask(n_tok)
        for l in range(self.n_layers):
            normed = ad.layer_norm(h, p[f"l{l}.ln1.g"], p[f"l{l}.ln1.b"])
            h = ad.add(h, self._attention(p, normed, l, mask))
            normed = ad.layer_norm(h, p[f"l{l}.ln2.g"], p[f"l{l}.ln2.b"])
            ff = ad.add(ad.matmul(normed, p[f"l{l}.w1"]), p[f"l{l}.b1"])
            ff = ad.add(ad.matmul(ad.gelu(ff), p[f"l{l}.w2"]), p[f"l{l}.b2"])
            h = ad.add(h, ff)
        h = ad.layer_norm(h, p["lnf.g"], p["lnf.b"])
        return ad.add(ad.matmul(h, p["head.w"]), p["head.b"])

    def loss(self, p: dict[str, Tensor], batch, total: int | None = None, nll=None) -> Tensor:
        """Next-token loss of the batch; ``total`` and ``nll`` as in
        ``autodiff.cross_entropy``, for a batch that is part of a larger one."""
        ids = np.asarray(batch)
        if ids.ndim != 2:
            raise ad.ShapeError(f"transformer: batch must be (n, len), got {ids.shape}")
        if ids.shape[0] == 0:
            raise EmptyBatchError("transformer: empty batch")
        if ids.shape[1] < 2:
            raise EmptyTargetError(
                "transformer: empty target (need >= 2 tokens for next-token loss)"
            )
        return ad.cross_entropy(self.logits(p, ids[:, :-1]), ids[:, 1:], total, nll)

    def batch_rows(self, n_tok: int) -> int:
        """Values, 8 bytes each, of one sample's rows in the Reductions of a
        pass over n_tok positions: an embedding's ids and rows, a bias's or a
        norm's rows per position, and a weight matrix's per-sample product."""
        rows = 0
        for name, shape in self.param_shapes().items():
            if name in ("embed", "pos"):
                rows += n_tok * (1 + shape[1])
            elif len(shape) == 1:
                rows += n_tok * shape[0]
            else:
                rows += math.prod(shape)
        return rows

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
    Each step's gradient comes from a ``BatchSplit``, which may share the
    batch with a helper process without changing a byte.
    """
    if epochs < 1:
        raise ZooError("recover_finetune: epochs must be >= 1")
    if not (lr >= 0 and math.isfinite(lr)):
        raise ZooError(f"recover_finetune: lr must be finite and >= 0, got {lr}")
    if len(dataset) == 0:
        raise EmptyBatchError("recover_finetune: empty dataset")
    current = params.copy()
    info = FinetuneInfo()
    with closing(BatchSplit(model, current, dataset)) as split:
        for epoch in range(epochs):
            losses = []
            for step in range(len(dataset)):
                try:
                    loss, grads = split.gradient(current, step)
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


def _split_at(batch) -> int:
    """How many samples of a transformer batch a helper evaluates: the first
    B // 2 of a (B, len) batch with B >= 2 and len >= 2, else none."""
    ids = np.asarray(batch)
    if ids.ndim != 2 or ids.shape[1] < 2:
        return 0
    return len(ids) // 2


def _aligned(nbytes: int) -> int:
    return -(-nbytes // 8) * 8


class BatchSplit:
    """The gradient of each training step over ``dataset``, batch by index,
    with each transformer batch of two samples or more split between this
    process and one helper: the helper evaluates its first B // 2 samples
    and the parent the rest, each with a normal forward and backward pass.

    Every op of the transformer is per sample except the sums over the batch
    of a leaf's adjoint (``autodiff.Reduction``), so both halves replay with
    ``backward(tape, rows=True)``. The parent copies the helper's rows and
    its own into a whole-batch buffer laid out as the unsplit pass's rows
    lie (``_batch_buffer``), and makes the same numpy call on it.
    Continuing a sum from the helper's partial one would not do: numpy sums
    a non-contiguous array in memory order. Each half's ``cross_entropy``
    scales its adjoint by the whole batch's position count and writes its
    per-position losses; the loss is ``math.fsum`` of all of them over that
    count, as unsplit. So no byte changes.

    An MLP is never split: its 2-d matmuls sum the batch inside BLAS. Shared
    anonymous memory, mapped right before the fork and sized from the
    model's shapes (``TinyTransformer.batch_rows``), holds the parameters,
    which the parent writes before each step, and one slot for the helper's
    losses and rows. The parent asks for a step by its batch index on the
    request pipe, evaluates its half, then waits for the helper's one-byte
    answer. When the helper fails a step or dies (EOF), the parent closes it,
    evaluates that half itself and runs every later step alone. When a half
    raises an error of the model, the parent closes the helper and evaluates
    the whole batch, which raises that error as an unsplit step does.
    Without a helper (``ForkedChild.may_fork`` refuses, or nothing splits)
    every step is ``autodiff.gradient`` on the whole batch.
    """

    def __init__(self, model, params: ParamSet, dataset):
        self.model, self.dataset = model, dataset
        self.helper: ForkedChild | None = None
        if not isinstance(model, TinyTransformer) or not ForkedChild.may_fork():
            return
        slot = 0
        for batch in dataset:
            if half := _split_at(batch):
                n_tok = np.shape(batch)[1] - 1
                slot = max(slot, 8 * half * (n_tok + model.batch_rows(n_tok)))
        if not slot:
            return
        try:
            shared = mmap.mmap(-1, 8 * params.size + slot)
        except OSError:
            return
        self.point = unflatten_map(params, np.frombuffer(shared, count=params.size))
        self.slot = np.frombuffer(shared, np.uint8, offset=8 * params.size)
        self.helper = ForkedChild.fork(self._serve)

    def close(self) -> None:
        if self.helper is not None:
            self.helper.close()
            self.helper = None

    def gradient(self, params: ParamSet, index: int) -> tuple[float, GradMap]:
        """(loss, gradient map) of batch ``index`` at ``params``."""
        batch = self.dataset[index]
        if self.helper is not None and _split_at(batch):
            try:
                return self._split(params, index, np.asarray(batch))
            except (ad.AutodiffError, ZooError, ArithmeticError):
                self.close()  # the whole batch raises as an unsplit step does
        return ad.gradient(self.model.loss, dict(params), batch)

    def _split(self, params: ParamSet, index: int, ids: np.ndarray):
        half, n_tok = _split_at(ids), ids.shape[1] - 1
        total = len(ids) * n_tok
        for name, view in self.point.items():
            np.copyto(view, params[name])
        self._ask(index)
        nll = np.empty(total)
        mine = self._half(dict(params), ids[half:], total, nll[half * n_tok :])
        theirs = self._answered(mine, half, nll[: half * n_tok])
        if theirs is None:  # failed or died: the parent evaluates that half
            self.close()
            rows = self._half(dict(params), ids[:half], total, nll[: half * n_tok])
            theirs = {name: [r.rows for r in reductions] for name, reductions in rows.items()}
        grads = {
            name: _gathered(reductions, theirs[name], params[name].shape)
            for name, reductions in mine.items()
        }
        return math.fsum(nll) / total, grads

    def _half(self, leaves, ids, total, nll) -> dict[str, list[ad.Reduction]]:
        _, tape = ad.forward(partial(self.model.loss, total=total, nll=nll), leaves, ids)
        return ad.backward(tape, rows=True)

    def _at(self, offset: int, shape, dtype) -> np.ndarray:
        """The slot's bytes from ``offset`` as an array of shape and dtype."""
        end = offset + math.prod(shape) * np.dtype(dtype).itemsize
        if end > len(self.slot):
            raise ZooError("batch rows exceed the shared slot")
        return self.slot[offset:end].view(dtype).reshape(shape)

    def _serve(self, child: ForkedChild) -> None:
        """The helper's life: evaluate the first half of each requested
        batch until EOF, into the slot: the losses, then every leaf's rows."""
        while request := os.read(child.requests, 8):
            (index,) = struct.unpack("q", request)
            ids = np.asarray(self.dataset[index])
            half, n_tok = _split_at(ids), ids.shape[1] - 1
            nll = self._at(0, (half * n_tok,), np.float64)
            rows = self._half(self.point, ids[:half], len(ids) * n_tok, nll)
            offset = nll.nbytes
            for reductions in rows.values():
                for r in reductions:
                    for a in r.rows:
                        np.copyto(self._at(offset, a.shape, a.dtype), a)
                        offset += _aligned(a.nbytes)
            os.write(child.replies, b"\1")

    def _ask(self, index: int) -> None:
        try:
            os.write(self.helper.requests, struct.pack("q", index))
        except OSError:  # a dead helper: the answer reads EOF
            pass

    def _answered(self, mine, half: int, nll: np.ndarray):
        """Per leaf, the rows of each of ``mine``'s Reductions for the
        helper's ``half`` samples, and its losses into ``nll``; None when
        the helper failed the step or died."""
        try:
            done = os.read(self.helper.replies, 1) == b"\1"
        except OSError:
            done = False
        if not done:
            return None
        np.copyto(nll, self._at(0, nll.shape, np.float64))
        offset, theirs = nll.nbytes, {}
        for name, reductions in mine.items():
            theirs[name] = []
            for r in reductions:
                arrays = []
                for a in r.rows:
                    arrays.append(self._at(offset, (half, *a.shape[1:]), a.dtype))
                    offset += _aligned(arrays[-1].nbytes)
                theirs[name].append(arrays)
        return theirs


def _batch_buffer(rows: np.ndarray, n: int) -> np.ndarray:
    """An empty array of n samples shaped like ``rows``'s, laid out as a
    whole-batch pass lays out its rows: the batch axis outermost, each sample
    as ``np.empty_like(rows[0], order="K")``. (``empty_like`` of ``rows``
    itself would misplace a one-sample batch axis, whose stride means
    nothing.)"""
    sample = np.empty_like(rows[0], order="K")
    return np.ndarray(
        (n, *sample.shape), rows.dtype, np.empty(n * sample.size, rows.dtype),
        strides=(sample.nbytes, *sample.strides),
    )


def _gathered(mine: list[ad.Reduction], theirs, shape) -> np.ndarray:
    """A leaf's gradient: each Reduction applied to the helper's rows
    followed by this process's, in a buffer laid out like these, summed in
    order as ``autodiff.backward`` sums a leaf's contributions."""
    grad = None
    for r, their_rows in zip(mine, theirs):
        whole = []
        for t, m in zip(their_rows, r.rows):
            buf = _batch_buffer(m, len(t) + len(m))
            buf[: len(t)] = t
            buf[len(t) :] = m
            whole.append(buf)
        contrib = r.reduce(*whole)
        grad = contrib if grad is None else grad + contrib
    return np.zeros(shape) if grad is None else np.asarray(grad, dtype=np.float64)
