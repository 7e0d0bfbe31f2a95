"""Dense float64 tensors with tape-based reverse-mode differentiation.

The primitive set is deliberately small: matmul, add, multiply, relu,
gelu (tanh form), softmax (with attention's scale and additive mask folded
in), layer_norm, embedding, cross_entropy, plus the structural ops
reshape/transpose needed to wire attention blocks together. Everything runs
in float64; reduced precision is simulated elsewhere by explicit rounding of
parameter values, never inside a forward pass.

Each tape entry's adjoint closure keeps only what the adjoint reads (an
operand's shape rather than the operand where that suffices). ``backward``
pops each entry as it runs, so the arrays an entry saved are freed as soon
as its adjoint has run rather than when the whole replay ends.

Every op is per sample except the sums over the batch of a shared operand's
adjoint (matmul's shared 2-d b, add's and multiply's broadcast b, layer_norm's
gain and bias, embedding's table). Each such adjoint forms a ``Reduction``:
its per-sample rows and the exact numpy call that sums them. An entry's
adjoint applies it, unless ``backward(tape, rows=True)`` replays the tape, which
leaves each leaf's Reductions unapplied: ``sample_gradients`` applies them one
sample at a time, and a batch split across processes continues a Reduction
that folds (``Reduction.folds``) from the partial result of the samples before,
bitwise, and makes the same call on a whole-batch copy of any other's rows.

Broadcasting is restricted: the second operand of ``add``/``multiply`` may
be shared across the first's leading batch axes (its shape must equal the
first's trailing shape), and the second operand of ``matmul`` may be a 2-d
matrix against a stacked first one. Nothing else broadcasts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, NamedTuple

import numpy as np

GradMap = dict[str, np.ndarray]


class AutodiffError(Exception):
    """Base class for forward/backward failures."""


class ShapeError(AutodiffError):
    """Operand shapes violate a primitive's contract. Names the primitive."""


class NonFiniteError(AutodiffError):
    """A primitive produced inf/nan. Carries the tape index of the op."""

    def __init__(self, op: str, index: int):
        super().__init__(f"non-finite output of primitive '{op}' at tape index {index}")
        self.op = op
        self.index = index


class TapeConsumedError(AutodiffError):
    """backward() was called twice on the same tape."""


class OutOfVocabError(AutodiffError):
    """A token id is outside [0, vocab). Carries the offending sample index."""

    def __init__(self, msg: str, sample_index: int):
        super().__init__(msg)
        self.sample_index = sample_index


class EmptyTargetError(AutodiffError):
    """The loss has zero prediction positions to average over."""


@dataclass
class TapeEntry:
    op: str
    inputs: tuple[int, ...]
    output: int
    # (adjoint of output, rows) -> [(input node, adjoint contribution)], where
    # rows=True leaves each Reduction unapplied
    backward: Callable[..., list[tuple[int, np.ndarray]]]


class Tape:
    """Ordered record of primitives; single-use for backward replay."""

    def __init__(self):
        self.entries: list[TapeEntry] = []
        self.leaves: dict[int, tuple[str, tuple[int, ...]]] = {}
        self.output_node: int | None = None
        self.consumed = False
        self._next = 0

    def new_node(self) -> int:
        n = self._next
        self._next += 1
        return n

    def leaf(self, name: str, data: np.ndarray) -> "Tensor":
        node = self.new_node()
        arr = np.asarray(data, dtype=np.float64)
        self.leaves[node] = (name, arr.shape)
        return Tensor(arr, self, node)

    def record(self, op, inputs, out_node, backward):
        self.entries.append(TapeEntry(op, inputs, out_node, backward))


class Tensor:
    """float64 array, optionally attached to a tape node."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape: Tape | None = None, node: int | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        self.tape = tape
        self.node = node

    @property
    def shape(self):
        return self.data.shape


def _parts(x):
    """Split an operand into (data, tape, node); constants have no node."""
    if isinstance(x, Tensor):
        return x.data, x.tape, x.node
    return np.asarray(x, dtype=np.float64), None, None


def _one_tape(*tapes) -> Tape | None:
    live = [t for t in tapes if t is not None]
    if not live:
        return None
    first = live[0]
    for t in live[1:]:
        if t is not first:
            raise AutodiffError("operands recorded on different tapes")
    return first


def all_finite(a: np.ndarray) -> bool:
    """Whether every element of ``a`` is finite, in one BLAS pass when it is:
    a finite sum of squares means finite elements. Values near 1e154
    overflow it too, so a non-finite sum gets the exact scan (vdot, unlike
    dot, emits no overflow warning)."""
    return math.isfinite(np.vdot(a, a)) or bool(np.isfinite(a).all())


def _check_finite(op, out, tape):
    if not all_finite(out):
        raise NonFiniteError(op, len(tape.entries) if tape is not None else -1)


def _finish(op, out, tape, contribs):
    """Check finiteness, record the entry if any input is tracked."""
    _check_finite(op, out, tape)
    return _record(op, out, tape, contribs)


def _record(op, out, tape, contribs):
    """Record the entry if an input is tracked on a tape: it names the
    tracked inputs in input order, and its adjoint returns one pair for each.
    The adjoint applies every Reduction it forms, unless called with
    ``rows=True``."""
    # list comprehensions: generators here cost time and mlp-robustness peak RSS
    tracked = tape and [(n, fn) for n, fn in contribs if n is not None]
    if not tracked:
        return Tensor(out)
    out_node = tape.new_node()
    tape.record(
        op, tuple([n for n, _ in tracked]), out_node,
        lambda g, rows=False: [(n, _applied(fn(g), rows)) for n, fn in tracked],
    )
    return Tensor(out, tape, out_node)


class Reduction(NamedTuple):
    """A shared operand's adjoint before its sum over the batch: the
    contribution is ``reduce(*rows)``, and every array of ``rows`` holds one
    row per sample on its first axis. The one Reduction of two rows is
    embedding's scatter-add, of its ids and adjoint rows."""

    reduce: Callable[..., np.ndarray]
    rows: tuple[np.ndarray, ...]

    def folds(self, size: int) -> bool:
        """Whether numpy adds the rows one at a time in sample order onto the
        result of those before, a result of ``size`` values: a scatter-add
        always, a sum of C-contiguous rows to more than one value (else numpy
        sums in memory order, or pairwise over one run of values)."""
        return len(self.rows) == 2 or (self.rows[0].flags.c_contiguous and size > 1)

    def continued(self, partial: np.ndarray) -> np.ndarray:
        """For a Reduction that folds, its result over earlier samples and
        these rows, given ``partial``, the earlier samples' result: bitwise
        the whole fold, as IEEE addition commutes. A sum adds ``partial``
        into its first folded row, in place; a scatter-add starts from it."""
        if len(self.rows) == 2:
            return self.reduce(*self.rows, partial)
        self.rows[0].reshape(-1, *partial.shape)[0] += partial
        return self.reduce(*self.rows)


def _applied(contrib, rows: bool):
    if rows or type(contrib) is not Reduction:
        return contrib
    return contrib.reduce(*contrib.rows)


def _reduce_to(g: np.ndarray, shape: tuple[int, ...]):
    """g summed over the leading axes a trailing-broadcast operand was shared
    on, as a Reduction; g itself when it was not shared."""
    extra = g.ndim - len(shape)
    if extra > 0:
        axes = tuple(range(extra))
        return Reduction(lambda r: r.sum(axis=axes), (g,))
    return g


def _trailing_ok(a_shape, b_shape) -> bool:
    k = len(b_shape)
    return len(a_shape) >= k and (k == 0 or a_shape[len(a_shape) - k:] == b_shape)


def _elementwise(op, a, b):
    """(data, node) of both operands and their tape, after the broadcast rule."""
    ad, at, an = _parts(a)
    bd, bt, bn = _parts(b)
    tape = _one_tape(at, bt)
    if not _trailing_ok(ad.shape, bd.shape):
        raise ShapeError(f"{op}: incompatible shapes {ad.shape} and {bd.shape}")
    return ad, an, bd, bn, tape


def add(a, b) -> Tensor:
    """Elementwise sum; b may be shared across a's leading axes."""
    ad, an, bd, bn, tape = _elementwise("add", a, b)
    out = ad + bd
    # the adjoints need only b's shape, so the tape does not keep the operands alive
    b_shape = bd.shape
    return _finish("add", out, tape, [(an, lambda g: g), (bn, lambda g: _reduce_to(g, b_shape))])


def multiply(a, b) -> Tensor:
    """Elementwise product; same trailing-broadcast rule as add."""
    ad, an, bd, bn, tape = _elementwise("multiply", a, b)
    out = ad * bd
    # each adjoint keeps only the other operand alive, plus b's shape
    b_shape = bd.shape
    return _finish(
        "multiply", out, tape, [(an, lambda g: g * bd), (bn, lambda g: _reduce_to(g * ad, b_shape))]
    )


def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes.

    Either both operands carry identical leading axes, or b is 2-d and is
    shared across a's leading axes.
    """
    ad, at, an = _parts(a)
    bd, bt, bn = _parts(b)
    tape = _one_tape(at, bt)
    if ad.ndim < 2 or bd.ndim < 2:
        raise ShapeError(f"matmul: operands must be >= 2-d, got {ad.shape} and {bd.shape}")
    if ad.shape[-1] != bd.shape[-2]:
        raise ShapeError(f"matmul: inner dims differ, {ad.shape} x {bd.shape}")
    same_lead = ad.ndim == bd.ndim and ad.shape[:-2] == bd.shape[:-2]
    if not (same_lead or bd.ndim == 2):
        raise ShapeError(f"matmul: leading axes mismatch, {ad.shape} x {bd.shape}")
    out = np.matmul(ad, bd)

    def da(g):
        return np.matmul(g, np.swapaxes(bd, -1, -2))

    def db(g):
        r = np.matmul(np.swapaxes(ad, -1, -2), g)
        if bd.ndim == 2 and g.ndim > 2:
            return Reduction(_sum_matrices, (r,))
        return r

    return _finish("matmul", out, tape, [(an, da), (bn, db)])


def _sum_matrices(r: np.ndarray) -> np.ndarray:
    return r.reshape(-1, *r.shape[-2:]).sum(axis=0)


def relu(x) -> Tensor:
    """max(x, 0); the adjoint at exactly 0 is 0 (subgradient convention)."""
    xd, xt, xn = _parts(x)
    mask = xd > 0.0
    out = np.where(mask, xd, 0.0)
    return _finish("relu", out, xt, [(xn, lambda g: g * mask)])


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715
_GELU_3A = 3 * _GELU_A
# numpy's float64 power is, with AVX-512, Intel SVML's pow (documented within
# 4 ulps), whose lanes with a negative base leave the vector path for a
# scalar one about 40x slower; without AVX-512 it is libm's pow (within
# 1 ulp). So the magnitudes of np.power(x, 3) and np.power(|x|, 3) lie
# within 4 ulps of |x|^3 each, hence within _GELU_K float steps of each other
# whenever the steps stay in one binade.
_GELU_K = 8
_BINADE = 1 << 52  # the float64 bit pattern's lowest exponent bit


def _gelu_arg(xd: np.ndarray) -> np.ndarray:
    """c*(x + a*x^3) as ((np.power(x, 3)*a) + x)*c, bit for bit, with the
    slow negative-base power only where the cube's last bits can matter.

    p = np.power(|x|, 3) runs on the vector path; where x's sign bit is
    clear it is np.power(x, 3) itself, each lane computed independently.
    Elsewhere the cube is -q with q within _GELU_K steps of p, so ``u``
    evaluated at the two ends of that bracket bounds u at the cube: a, c > 0
    and round-to-nearest make u nondecreasing in the cube. Equal ends are
    therefore u itself. The ends must be normal floats in p's binade (which
    then holds |x|^3, so the step count bounds the error), else the element
    is not decided: zeros, subnormal, overflowing and nan cubes. Undecided
    elements get np.power on their own compacted subset."""
    x = xd.reshape(-1)
    u = np.abs(x)
    np.power(u, 3, out=u)  # warns of an overflowing cube, as np.power(x, 3) would
    neg = np.flatnonzero(np.signbit(x))
    xn = x[neg]
    p = u[neg].view(np.int64)
    lo, hi = p - _GELU_K, p + _GELU_K
    # silent from here: the ends next to an inf or nan p are nan, and an
    # overflowing cube was warned of above
    with np.errstate(over="ignore", invalid="ignore"):
        u_lo = _cube_to_arg(-hi.view(np.float64), xn)
        u_hi = _cube_to_arg(-lo.view(np.float64), xn)
        decided = u_lo == u_hi  # false at a nan end
        decided &= (lo ^ hi) < _BINADE  # same sign and exponent bits
        decided &= lo >= _BINADE  # normal and positive
        slow = neg[~decided]
        xs = x[slow]
        exact = _cube_to_arg(np.power(xs, 3), xs)
        _cube_to_arg(u, x)
    u[neg] = u_lo
    u[slow] = exact
    return u.reshape(xd.shape)


def _cube_to_arg(cube: np.ndarray, x: np.ndarray) -> np.ndarray:
    """((cube*a) + x)*c, in place in ``cube``."""
    cube *= _GELU_A
    cube += x
    cube *= _GELU_C
    return cube


# gelu, softmax and the cross_entropy adjoint run in place in one or two
# buffers, but evaluate the same IEEE operations in the same order as the
# expressions in their docstrings (commuted operands only), so results are
# bit-identical to those expressions. softmax's scale and mask run in its own
# output buffer, so softmax(x, s, m) has the bits of
# softmax(add(multiply(x, s), m), 1.0, 0.0) with two fewer tape entries.


def gelu(x) -> Tensor:
    """Tanh-form gelu: 0.5*x*(1 + tanh(c*(x + 0.044715*x^3))).

    Adjoint: 0.5*(1 + t) + 0.5*x*sech2*c*(1 + 3*0.044715*x^2) with
    t = tanh(...) and sech2 = 1 - t*t, each product left-associative."""
    xd, xt, xn = _parts(x)
    t = _gelu_arg(xd)
    np.tanh(t, out=t)
    out = np.multiply(xd, 0.5)
    out *= np.add(t, 1.0)

    def dx(g):
        a = np.multiply(t, t)
        np.subtract(1.0, a, out=a)  # sech2
        b = np.multiply(xd, 0.5)
        b *= a
        b *= _GELU_C
        np.square(xd, out=a)
        a *= _GELU_3A
        a += 1.0
        b *= a
        np.add(t, 1.0, out=a)
        a *= 0.5
        a += b
        a *= g
        return a

    return _finish("gelu", out, xt, [(xn, dx)])


def softmax(x, scale: float, mask) -> Tensor:
    """Softmax along the last axis of z = x*scale + mask, max-shifted for
    stability: e / sum(e) with e = exp(z - max(z)); adjoint
    out * (g - sum(g * out)) * scale.

    ``mask`` is a constant array whose shape is a trailing shape of x's
    (add's rule). A non-finite z raises NonFiniteError naming softmax, since
    exp would turn a -inf score into a finite 0."""
    xd, xt, xn = _parts(x)
    if xd.ndim < 1:
        raise ShapeError("softmax: needs at least 1 axis")
    mask = np.asarray(mask, dtype=np.float64)
    if not _trailing_ok(xd.shape, mask.shape):
        raise ShapeError(f"softmax: mask shape {mask.shape} does not trail {xd.shape}")
    out = np.multiply(xd, scale)
    out += mask
    _check_finite("softmax", out, xt)
    out -= out.max(axis=-1, keepdims=True)
    # exp of a shifted score below -800 is exactly +0.0, and numpy's exp
    # takes a slow path on underflow, which every masked score would hit
    live = out > -800.0
    np.exp(out, out=out, where=live)
    np.copyto(out, 0.0, where=np.logical_not(live, out=live))
    out /= out.sum(axis=-1, keepdims=True)

    def dx(g):
        r = g * out
        np.subtract(g, r.sum(axis=-1, keepdims=True), out=r)
        r *= out
        r *= scale
        return r

    # z was checked above, and a finite z makes every exp lie in [0, 1] and
    # every row sum >= 1, so the output needs no second scan
    return _record("softmax", out, xt, [(xn, dx)])


def layer_norm(x, gain, bias, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale and shift."""
    xd, xt, xn = _parts(x)
    gd, gt, gn = _parts(gain)
    bd, bt, bn = _parts(bias)
    tape = _one_tape(xt, gt, bt)
    d = xd.shape[-1]
    if gd.shape != (d,) or bd.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias must be ({d},), got {gd.shape} and {bd.shape}"
        )
    # The row means are numpy's mean without its Python frame: mean is
    # add.reduce divided by the row count. xhat = (x - mu) * inv runs in the
    # buffer of x - mu, and out = gd * xhat + bd in the buffer of its square.
    mu = np.add.reduce(xd, axis=-1, keepdims=True) / d
    xhat = xd - mu
    out = xhat * xhat
    inv = 1.0 / np.sqrt(np.add.reduce(out, axis=-1, keepdims=True) / d + eps)
    xhat *= inv
    np.multiply(gd, xhat, out=out)
    out += bd

    def dx(g):
        # fresh arrays: computing into dxhat's buffer saved no time per job
        # and raised the benchmark's tf-train peak RSS by about 1 MB
        dxhat = g * gd
        return inv * (
            dxhat
            - np.add.reduce(dxhat, axis=-1, keepdims=True) / d
            - xhat * (np.add.reduce(dxhat * xhat, axis=-1, keepdims=True) / d)
        )

    def sum_rows(r):
        return r.reshape(-1, d).sum(axis=0)

    def dgain(g):
        return Reduction(sum_rows, (g * xhat,))

    def dbias(g):
        return Reduction(sum_rows, (g,))

    return _finish("layer_norm", out, tape, [(xn, dx), (gn, dgain), (bn, dbias)])


def embedding(table, ids: np.ndarray) -> Tensor:
    """Row lookup table[ids]; ids are constants, the table receives scatter-add adjoints."""
    td, tt, tn = _parts(table)
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise ShapeError("embedding: ids must be integers")
    if td.ndim != 2:
        raise ShapeError(f"embedding: table must be 2-d, got {td.shape}")
    vocab = td.shape[0]
    bad = (ids < 0) | (ids >= vocab)
    if bad.any():
        pos = np.argwhere(bad)[0]
        sample = int(pos[0]) if ids.ndim > 0 else 0
        raise OutOfVocabError(
            f"embedding: token id {int(ids[tuple(pos)])} outside [0, {vocab}) "
            f"at sample {sample}, position {tuple(int(p) for p in pos)}",
            sample_index=sample,
        )
    out = td[ids]

    def scatter(ids, g, start=None):
        acc = np.zeros_like(td) if start is None else start.copy()
        np.add.at(acc, ids, g)
        return acc

    def dtable(g):
        return Reduction(scatter, (ids, g))

    return _finish("embedding", out, tt, [(tn, dtable)])


_SUM_EXP_BLOCK = 16384  # elements per block in _sum_exp (128 KB)


def _sum_exp(z: np.ndarray) -> np.ndarray:
    """np.exp(z).sum(axis=-1) through one buffer of whole rows, at most
    _SUM_EXP_BLOCK elements, instead of a z-sized array; each row's sum
    reads only that row, so the bits match."""
    rows = z.reshape(-1, z.shape[-1])
    step = max(1, _SUM_EXP_BLOCK // max(1, rows.shape[1]))
    sums = np.empty(rows.shape[0])
    buf = np.empty((min(step, rows.shape[0]), rows.shape[1]))
    for i in range(0, rows.shape[0], step):
        block = rows[i : i + step]
        e = np.exp(block, out=buf[: block.shape[0]])
        e.sum(axis=-1, out=sums[i : i + block.shape[0]])
    return sums.reshape(z.shape[:-1])


def cross_entropy(logits, targets: np.ndarray, total: int | None = None, nll=None) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax(logits).

    The reduction uses math.fsum over per-position losses, so the result is
    the correctly rounded mean: invariant under sample permutation and exact
    for batches made of repeated samples.

    For a part of a batch, ``total`` is the whole batch's number of target
    positions: the result is this part's loss sum over it, and the adjoint
    scales by 1/total, as the whole batch's does. ``nll``, a float64 array
    of one element per position, receives the per-position losses.
    """
    ld, lt, ln = _parts(logits)
    targets = np.asarray(targets)
    if not np.issubdtype(targets.dtype, np.integer):
        raise ShapeError("cross_entropy: targets must be integers")
    if ld.ndim < 1 or targets.shape != ld.shape[:-1]:
        raise ShapeError(
            f"cross_entropy: targets shape {targets.shape} does not match logits {ld.shape}"
        )
    count = int(targets.size)
    if count == 0:
        raise EmptyTargetError("cross_entropy: empty target (no prediction positions)")
    vocab = ld.shape[-1]
    bad = (targets < 0) | (targets >= vocab)
    if bad.any():
        pos = np.argwhere(bad)[0] if targets.ndim > 0 else (0,)
        sample = int(pos[0])
        raise OutOfVocabError(
            f"cross_entropy: target id {int(targets[tuple(pos)])} outside [0, {vocab}) "
            f"at sample {sample}",
            sample_index=sample,
        )
    z = ld - ld.max(axis=-1, keepdims=True)
    lse = np.log(_sum_exp(z))
    flat_t = targets.reshape(-1)
    picked = np.take_along_axis(
        z.reshape(-1, vocab), flat_t[:, None], axis=1
    ).reshape(-1)
    nll = np.subtract(lse.reshape(-1), picked, out=nll)
    total = count if total is None else total
    out = np.float64(math.fsum(nll) / total)

    # p = (float(g) / total) * (exp(z - lse) - onehot(targets)), in one buffer
    def dlogits(g):
        p = z - lse.reshape(*lse.shape, 1)
        np.exp(p, out=p)
        np.subtract.at(p.reshape(-1, vocab), (np.arange(count), flat_t), 1.0)
        p *= float(g) / total
        return p

    return _finish("cross_entropy", np.asarray(out), lt, [(ln, dlogits)])


def reshape(x, shape) -> Tensor:
    xd, xt, xn = _parts(x)
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape, dtype=np.int64)) != xd.size:
        raise ShapeError(f"reshape: cannot view {xd.shape} as {shape}")
    out = xd.reshape(shape)
    x_shape = xd.shape
    # reshape and transpose only rearrange their input's values, so they
    # cannot make a non-finite one and need no scan
    return _record("reshape", out, xt, [(xn, lambda g: g.reshape(x_shape))])


def transpose(x, axes) -> Tensor:
    xd, xt, xn = _parts(x)
    axes = tuple(int(a) for a in axes)
    if sorted(axes) != list(range(xd.ndim)):
        raise ShapeError(f"transpose: {axes} is not a permutation of {xd.ndim} axes")
    inv = np.argsort(axes)
    out = xd.transpose(axes)
    return _record("transpose", out, xt, [(xn, lambda g: g.transpose(inv))])


def forward(program, params: Mapping[str, np.ndarray], batch=None) -> tuple[float, Tape]:
    """Run program(leaves, batch) on a fresh tape.

    ``program`` receives a dict of leaf Tensors (one per parameter, same
    names) and must return a scalar Tensor. Returns the loss as a float
    together with the tape holding the recorded graph.
    """
    tape = Tape()
    leaves = {name: tape.leaf(name, arr) for name, arr in params.items()}
    out = program(leaves, batch)
    if not isinstance(out, Tensor):
        raise AutodiffError("program must return a Tensor")
    if out.data.shape != ():
        raise ShapeError(f"forward: loss must be scalar, got shape {out.data.shape}")
    tape.output_node = out.node
    return float(out.data), tape


def backward(tape: Tape, rows: bool = False):
    """Replay adjoints in reverse; returns a gradient for every leaf, zeros
    of the leaf's shape where the output does not depend on it. Tapes are
    single-use: each entry is popped as it is replayed, which frees the
    arrays its adjoint saved, and the tape is left empty.

    With ``rows=True`` every leaf's batch sums are left unapplied: the result
    maps each leaf's name to its Reductions in replay order (none where the
    output does not reach it), and a leaf that receives any other
    contribution raises AutodiffError, since its samples cannot be told
    apart. A Reduction that reaches an inner node is applied there."""
    if tape.consumed:
        raise TapeConsumedError("tape already consumed by a previous backward()")
    tape.consumed = True
    adj: dict[int, np.ndarray] = {}
    if tape.output_node is not None:
        adj[tape.output_node] = np.ones(())
    kept = {node: [] for node in tape.leaves} if rows else {}
    entries = tape.entries
    while entries:
        e = entries.pop()
        g = adj.pop(e.output, None)
        if g is None:
            continue
        for node, contrib in e.backward(g, rows):
            if type(contrib) is Reduction:
                if node in kept:
                    kept[node].append(contrib)
                    continue
                contrib = contrib.reduce(*contrib.rows)
            if node in adj:
                adj[node] = adj[node] + contrib
            else:
                adj[node] = contrib
    if rows:
        summed = sorted(kept.keys() & adj.keys())
        if summed:
            name = tape.leaves[summed[0]][0]
            raise AutodiffError(f"leaf {name!r} has a gradient already summed over the batch")
        return {tape.leaves[node][0]: reductions for node, reductions in kept.items()}
    return {
        name: np.asarray(adj[node], dtype=np.float64) if node in adj else np.zeros(shape)
        for node, (name, shape) in tape.leaves.items()
    }


def sample_gradients(tape: Tape, n: int) -> GradMap:
    """Each leaf's gradient per sample, shaped (n, *leaf shape), for a tape
    of n samples: ``backward(tape, rows=True)`` with every Reduction applied
    to one sample's rows at a time. Summed over the samples they give
    ``backward(tape)`` up to rounding, as the order of the sums differs."""
    out = {name: np.zeros((n, *shape)) for name, shape in tape.leaves.values()}
    for name, reductions in backward(tape, rows=True).items():
        for r in reductions:
            for i in range(n):
                out[name][i] += r.reduce(*(a[i : i + 1] for a in r.rows))
    return out


def gradient(program, params, batch=None) -> tuple[float, GradMap]:
    """Convenience wrapper: forward then backward on one fresh tape."""
    loss, tape = forward(program, params, batch)
    return loss, backward(tape)

