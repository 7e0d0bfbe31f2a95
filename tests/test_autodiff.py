import itertools
import math
import tracemalloc
import weakref
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxprune import autodiff as ad
from proxprune import zoo

import oracles

# pinned on first verified run, cross-checked against a pure-python scalar
# re-implementation of the whole forward pass (see test_pinned_mlp_loss)
MLP_483_SEED7_LOSS = 1.0845877417734882


def _fd(program, params, batch, name, idx, h=1e-5):
    def at(delta):
        shifted = {k: np.array(v, copy=True) for k, v in params.items()}
        shifted[name].reshape(-1)[idx] += delta
        loss, _ = ad.forward(program, shifted, batch)
        return loss

    return (at(h) - at(-h)) / (2 * h)


def test_product_plus_identity():
    def prog(p, batch):
        return ad.add(ad.multiply(p["w1"], p["w2"]), p["w1"])

    loss, tape = ad.forward(prog, {"w1": np.asarray(2.0), "w2": np.asarray(3.0)})
    assert loss == 8.0
    grads = ad.backward(tape)
    assert grads["w1"] == 4.0 and grads["w2"] == 2.0


def test_constant_function_zero_grad():
    def prog(p, batch):
        return ad.multiply(p["w"], 0.0)

    _, grads = ad.gradient(prog, {"w": np.asarray(5.0)})
    assert grads["w"] == 0.0


def test_identity_program_differentiates_to_one():
    _, grads = ad.gradient(lambda p, batch: p["w"], {"w": np.asarray(2.0)})
    assert grads == {"w": 1.0}


def test_unread_leaf_gets_zeros_of_its_shape():
    def prog(p, batch):
        return ad.multiply(p["w"], 3.0)

    _, grads = ad.gradient(prog, {"w": np.asarray(2.0), "unread": np.ones((2, 3))})
    assert list(grads) == ["w", "unread"] and grads["w"] == 3.0
    assert grads["unread"].shape == (2, 3) and grads["unread"].dtype == np.float64
    assert not grads["unread"].any()


def test_tape_is_single_use():
    def prog(p, batch):
        return ad.multiply(p["w"], p["w"])

    _, tape = ad.forward(prog, {"w": np.asarray(1.5)})
    ad.backward(tape)
    with pytest.raises(ad.TapeConsumedError):
        ad.backward(tape)


def _transformer_case():
    model = zoo.TinyTransformer.build(256, 32, 4, 2)
    batch = np.random.default_rng(0).integers(0, 256, size=(4, 128))
    return model, dict(model.init_params(0).items()), batch


def test_backward_frees_each_entry(monkeypatch):
    """backward pops every entry, so the activations the adjoints saved die
    with it; the spent tape still refuses a second backward."""
    model, params, batch = _transformer_case()
    softmax, saved = ad.softmax, []

    def recording_softmax(*args):
        out = softmax(*args)
        saved.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(ad, "softmax", recording_softmax)
    _, tape = ad.forward(model.loss, params, batch)
    assert len(saved) == model.n_layers
    assert tape.entries and all(ref() is not None for ref in saved)
    ad.backward(tape)
    assert tape.entries == []
    assert all(ref() is None for ref in saved)
    with pytest.raises(ad.TapeConsumedError):
        ad.backward(tape)


def test_transformer_gradient_peak_memory():
    """A (4, 128) batch through the benchmark-sized transformer: the freed
    tape keeps the traced peak of one gradient under 13 MB (16.75 MB when
    backward held every entry to the end)."""
    model, params, batch = _transformer_case()
    ad.gradient(model.loss, params, batch)  # first-call allocations off the books
    tracemalloc.start()
    try:
        ad.gradient(model.loss, params, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13e6


def test_cross_entropy_forward_holds_one_logits_sized_temporary():
    """At tf-train's (4, 127, 256) logits the forward keeps z and sums its
    exp through a few rows at a time; a whole exp(z) would double the peak."""
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(4, 127, 256))
    targets = rng.integers(0, 256, size=(4, 127))
    ad.cross_entropy(logits, targets)
    tracemalloc.start()
    try:
        ad.cross_entropy(logits, targets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * logits.nbytes


@pytest.mark.parametrize(
    "op, shared, stacked",
    [("add", (3,), (2, 3)), ("multiply", (3,), (2, 3)), ("matmul", (3, 4), (2, 4, 3))],
    ids=["add", "multiply", "matmul"],
)
def test_only_the_second_operand_is_shared(op, shared, stacked):
    """The operand of add, multiply and matmul that is shared across the
    other's leading axes is b: as a, it is a ShapeError naming the primitive."""
    a, b = np.ones(shared), np.ones(stacked)
    with pytest.raises(ad.ShapeError, match=op):
        getattr(ad, op)(a, b)
    assert getattr(ad, op)(b, a).shape[0] == 2


def test_softmax_needs_its_scale_and_mask():
    x = np.ones((2, 3))
    for args in ((), (1.0,)):
        with pytest.raises(TypeError):
            ad.softmax(x, *args)


def test_softmax_scans_only_its_scaled_scores(monkeypatch):
    """Finite scores give a finite softmax, so the output is not scanned."""
    scanned = []
    real = ad._check_finite

    def counted(op, out, tape):
        scanned.append(op)
        real(op, out, tape)

    monkeypatch.setattr(ad, "_check_finite", counted)
    tape = ad.Tape()
    ad.softmax(tape.leaf("x", np.ones((2, 3, 4))), 0.5, np.zeros((3, 4)))
    assert scanned == ["softmax"]


def test_softmax_mask_must_trail_the_scores():
    with pytest.raises(ad.ShapeError, match="softmax"):
        ad.softmax(np.ones((2, 3, 4)), 1.0, np.ones((3, 3)))
    out = ad.softmax(np.ones((2, 3, 4)), 1.0, np.zeros((3, 4)))
    assert out.shape == (2, 3, 4)


def test_nonfinite_scaled_score_is_named_softmax():
    """exp turns a -inf score into a finite 0, so softmax checks x*scale + mask
    itself; the overflow is reported at softmax's own tape index."""

    def prog(p, batch):
        h = ad.multiply(p["w"], 1.0)
        return oracles.sum_all(ad.softmax(h, 1e300, np.zeros(3)))

    with pytest.raises(ad.NonFiniteError) as exc, np.errstate(over="ignore"):
        ad.forward(prog, {"w": np.array([[1.0, -1e10, 2.0]])})
    assert exc.value.op == "softmax" and exc.value.index == 1


def test_check_finite_falls_back_to_an_exact_scan():
    """The one-pass check squares and sums, which overflows on finite 1e200s;
    those pass, and an inf or nan is still named by op and tape index."""
    tape = ad.Tape()
    for _ in range(2):
        tape.record("add", (), tape.new_node(), lambda g: [])
    ad._check_finite("gelu", np.full((3, 4), 1e200), tape)
    loss, _ = ad.forward(lambda p, _: oracles.sum_all(ad.multiply(p["w"], 1.0)),
                         {"w": np.full(3, 1e200)})
    assert loss == 3e200
    for bad in (np.inf, -np.inf, np.nan):
        out = np.full((3, 4), 1e200)
        out[2, 1] = bad
        with pytest.raises(ad.NonFiniteError) as exc:
            ad._check_finite("gelu", out, tape)
        assert (exc.value.op, exc.value.index) == ("gelu", 2)


def test_forward_rejects_nonscalar_output():
    def prog(p, batch):
        return ad.multiply(p["w"], 2.0)

    with pytest.raises(ad.ShapeError):
        ad.forward(prog, {"w": np.ones(3)})


def test_shape_error_names_primitive():
    def prog(p, batch):
        return oracles.sum_all(ad.matmul(p["a"], p["b"]))

    with pytest.raises(ad.ShapeError, match="matmul"):
        ad.forward(prog, {"a": np.ones((2, 3)), "b": np.ones((4, 2))})


@pytest.mark.parametrize("op", ["add", "multiply"])
def test_elementwise_shape_error_names_its_op(op):
    with pytest.raises(ad.ShapeError) as exc:
        getattr(ad, op)(np.ones((2, 3)), np.ones((2,)))
    assert str(exc.value) == f"{op}: incompatible shapes (2, 3) and (2,)"


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_error_carries_index():
    def prog(p, batch):
        big = ad.multiply(p["w"], 1e300)
        return oracles.sum_all(ad.multiply(big, big))  # overflows to inf

    with pytest.raises(ad.NonFiniteError) as exc:
        ad.forward(prog, {"w": np.asarray(1e9)})
    assert exc.value.index >= 0


def test_pinned_mlp_loss():
    """Regression constant plus the independent scalar-loop oracle."""
    model = zoo.Mlp([4, 8, 3])
    params = model.init_params(7)
    rng = np.random.default_rng(11)
    X = rng.normal(size=(6, 4))
    y = rng.integers(0, 3, size=6)
    loss = zoo.batch_loss(model, params, (X, y))
    assert loss == MLP_483_SEED7_LOSS

    def scalar_loss():
        p = {n: a for n, a in params}
        losses = []
        for row in range(len(X)):
            h = [float(v) for v in X[row]]
            for li in range(2):
                W, b = p[f"w{li}"], p[f"b{li}"]
                out = []
                for j in range(W.shape[1]):
                    s = b[j]
                    for i in range(W.shape[0]):
                        s += h[i] * W[i, j]
                    out.append(float(s))
                h = [v if v > 0 else 0.0 for v in out] if li == 0 else out
            mx = max(h)
            lse = mx + math.log(math.fsum(math.exp(v - mx) for v in h))
            losses.append(lse - h[int(y[row])])
        return math.fsum(losses) / len(losses)

    assert scalar_loss() == pytest.approx(loss, abs=1e-15)


def test_batch_of_identical_samples_equals_single():
    model = zoo.Mlp([4, 8, 3])
    params = model.init_params(7)
    x = np.random.default_rng(2).normal(size=(1, 4))
    y = np.array([1])
    single = zoo.batch_loss(model, params, (x, y))
    for n in (2, 3, 5, 8):
        rep = zoo.batch_loss(model, params, (np.repeat(x, n, axis=0), np.repeat(y, n)))
        assert rep == single, f"mean over {n} copies drifted"


def test_determinism_bit_identical():
    model = zoo.Mlp([6, 5, 4])
    params = model.init_params(1)
    X = np.random.default_rng(3).normal(size=(4, 6))
    y = np.array([0, 1, 2, 3])
    l1, g1 = ad.gradient(model.loss, dict(params), (X, y))
    l2, g2 = ad.gradient(model.loss, dict(params), (X, y))
    assert l1 == l2
    for n in g1:
        assert np.array_equal(g1[n], g2[n])


def test_gradient_linearity():
    """grad(a*f + b*g) == a*grad(f) + b*grad(g) to near machine precision."""
    rng = np.random.default_rng(4)
    w = rng.normal(size=(3, 3))
    u = rng.normal(size=(3, 3))
    a, b = 1.7, -0.4

    def f(p, batch):
        return oracles.sum_all(ad.multiply(p["w"], p["w"]))

    def g(p, batch):
        return oracles.sum_all(ad.multiply(p["w"], u))

    def combo(p, batch):
        return ad.add(ad.multiply(f(p, batch), a), ad.multiply(g(p, batch), b))

    _, gf = ad.gradient(f, {"w": w})
    _, gg = ad.gradient(g, {"w": w})
    _, gc = ad.gradient(combo, {"w": w})
    assert np.max(np.abs(gc["w"] - (a * gf["w"] + b * gg["w"]))) < 1e-12


PRIMITIVE_PROGRAMS = {
    "matmul": lambda p, _: oracles.sum_all(ad.matmul(p["a"], p["b"])),
    "add": lambda p, _: oracles.sum_all(ad.add(p["a"], p["b"])),
    "multiply": lambda p, _: oracles.sum_all(ad.multiply(p["a"], p["b"])),
    "gelu": lambda p, _: oracles.sum_all(ad.gelu(p["a"])),
    "softmax": lambda p, _: oracles.sum_all(
        ad.multiply(ad.softmax(p["a"], 1.0, np.zeros(4)), p["b"])
    ),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_PROGRAMS))
def test_primitive_matches_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    shape = (3, 4) if name != "matmul" else (3, 4)
    params = {"a": rng.uniform(-1, 1, size=shape)}
    params["b"] = rng.uniform(-1, 1, size=(4, 3) if name == "matmul" else shape)
    prog = PRIMITIVE_PROGRAMS[name]
    rep = oracles.grad_check(prog, params, None, n_coords=24, seed=5)
    assert rep.passed, f"{name}: max rel err {rep.max_rel_err}"


def test_layer_norm_and_embedding_fd():
    rng = np.random.default_rng(8)
    ids = rng.integers(0, 7, size=(2, 5))

    def prog(p, batch):
        e = ad.embedding(p["table"], ids)
        normed = ad.layer_norm(e, p["g"], p["b"])
        return oracles.sum_all(ad.multiply(normed, normed))

    params = {
        "table": rng.uniform(-1, 1, size=(7, 6)),
        "g": rng.uniform(0.5, 1.5, size=6),
        "b": rng.uniform(-0.5, 0.5, size=6),
    }
    rep = oracles.grad_check(prog, params, None, n_coords=40, seed=6)
    assert rep.passed, rep.per_param_max


def test_softmax_cross_entropy_head_tight_tolerance():
    rng = np.random.default_rng(12)
    targets = rng.integers(0, 5, size=8)

    def prog(p, batch):
        return ad.cross_entropy(ad.matmul(np.eye(8), p["logits"]), targets)

    params = {"logits": rng.normal(size=(8, 5))}
    rep = oracles.grad_check(prog, params, None, n_coords=40, seed=7, tolerance=1e-6)
    assert rep.passed, rep.max_rel_err


def test_linear_program_error_near_machine_epsilon():
    u = np.arange(1.0, 7.0)

    def prog(p, batch):
        return oracles.sum_all(ad.multiply(p["w"], u))

    rep = oracles.grad_check(prog, {"w": np.ones(6)}, None, n_coords=6, seed=0)
    assert rep.max_rel_err < 1e-9


def test_relu_kink_coordinates_are_excluded():
    """A weight whose +/-step forward passes flip a relu sign is skipped."""

    def prog(p, batch):
        return oracles.sum_all(ad.relu(p["w"]))

    # w sits exactly on the kink: +h and -h land on different sides
    rep = oracles.grad_check(prog, {"w": np.zeros(3)}, None, n_coords=3, seed=0)
    assert len(rep.excluded) == 3
    assert rep.checked == 0


def test_relu_adjoint_at_zero_is_zero():
    def prog(p, batch):
        return oracles.sum_all(ad.relu(p["w"]))

    _, grads = ad.gradient(prog, {"w": np.zeros(4)})
    assert np.array_equal(grads["w"], np.zeros(4))


def test_transformer_gradients_match_fd(corpus):
    model = zoo.TinyTransformer.build(32, 16, 4, 2, max_len=16)
    params = model.init_params(3)
    ids = np.random.default_rng(9).integers(0, 32, size=(2, 10))
    rep = oracles.grad_check(model.loss, dict(params), ids, n_coords=50, seed=10)
    assert rep.passed, rep.per_param_max


@given(st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_grad_check_passes_on_random_mlps(seed):
    rng = np.random.default_rng(seed)
    model = zoo.Mlp([3, 4, 2])
    params = model.init_params(seed % 1000)
    X = rng.uniform(-1, 1, size=(3, 3))
    y = rng.integers(0, 2, size=3)
    rep = oracles.grad_check(model.loss, dict(params), (X, y), n_coords=10, seed=seed % 97)
    assert rep.max_rel_err < 1e-5


def test_out_of_vocab_token_reports_sample_index():
    model = zoo.TinyTransformer.build(8, 4, 2, 1, max_len=8)
    params = model.init_params(0)
    ids = np.array([[1, 2, 3], [1, 99, 2]])
    with pytest.raises(ad.OutOfVocabError) as exc:
        zoo.batch_loss(model, params, ids)
    assert exc.value.sample_index == 1


_OPERANDS = {
    "x": np.array([[-1.0, 2.0, 0.5], [3.0, -4.0, 1.5]]),
    "g": np.array([1.5, -2.0, 0.25]),
    "b": np.array([0.5, -0.5, 2.0]),
}


@pytest.mark.parametrize("op, args", [("relu", "x"), ("add", "xg"), ("layer_norm", "xgb")])
def test_an_entry_names_only_its_tracked_inputs(op, args):
    """For each choice of leaf and constant operands: the entry names the
    leaves only, in input order, and its adjoint returns one pair for each,
    with the contribution that leaf gets when every operand is a leaf. An op
    on constants records nothing."""
    g = np.random.default_rng(0).normal(size=(2, 3))
    reference = None
    for tracked in itertools.product((True, False), repeat=len(args)):
        tape = ad.Tape()
        operands = [
            tape.leaf(a, _OPERANDS[a]) if t else _OPERANDS[a] for a, t in zip(args, tracked)
        ]
        out = getattr(ad, op)(*operands)
        if not any(tracked):
            assert tape.entries == [] and out.tape is None and out.node is None
            continue
        (entry,) = tape.entries
        leaves = [x.node for x in operands if isinstance(x, ad.Tensor)]
        assert (entry.op, entry.inputs, entry.output) == (op, tuple(leaves), out.node)
        contribs = entry.backward(g)
        assert [node for node, _ in contribs] == leaves
        if reference is None:  # the first choice makes every operand a leaf
            reference = [c for _, c in contribs]
        expected = [c for c, t in zip(reference, tracked) if t]
        for (_, c), e in zip(contribs, expected):
            assert c.tobytes() == e.tobytes()


def _block_tape(x, p):
    """The (op, input nodes) of one transformer block whose input is node x
    and whose parameters are the leaves p to p + 15; it writes nodes x + 1
    to x + 29, its output."""
    entries = [("layer_norm", (x, p, p + 1))]
    for j in range(3):  # q, k, v
        m = x + 2 + 4 * j
        entries += [
            ("matmul", (x + 1, p + 2 + 2 * j)), ("add", (m, p + 3 + 2 * j)),
            ("reshape", (m + 1,)), ("transpose", (m + 2,)),
        ]
    return entries + [
        ("transpose", (x + 9,)), ("matmul", (x + 5, x + 14)), ("softmax", (x + 15,)),
        ("matmul", (x + 16, x + 13)), ("transpose", (x + 17,)), ("reshape", (x + 18,)),
        ("matmul", (x + 19, p + 8)), ("add", (x + 20, p + 9)), ("add", (x, x + 21)),
        ("layer_norm", (x + 22, p + 10, p + 11)), ("matmul", (x + 23, p + 12)),
        ("add", (x + 24, p + 13)), ("gelu", (x + 25,)), ("matmul", (x + 26, p + 14)),
        ("add", (x + 27, p + 15)), ("add", (x + 22, x + 28)),
    ]


# One benchmark-transformer pass at batch 1: nodes 0-37 are the parameter
# leaves, and entry i writes node 38 + i. A change to the recording path
# must leave this sequence as it is.
BENCHMARK_TRANSFORMER_TAPE = [
    ("embedding", (0,)), ("embedding", (1,)), ("add", (38, 39)),
    *_block_tape(40, 2), *_block_tape(69, 18),
    ("layer_norm", (98, 34, 35)), ("matmul", (99, 36)), ("add", (100, 37)),
    ("cross_entropy", (101,)),
]


def test_benchmark_transformer_pass_records_the_pinned_tape():
    model = zoo.TinyTransformer.build(256, 32, 4, 2)
    params = dict(model.init_params(0))
    batch = np.random.default_rng(0).integers(0, 256, size=(1, 129))
    _, tape = ad.forward(model.loss, params, batch)
    assert len(tape.leaves) == 38
    assert [(e.op, e.inputs) for e in tape.entries] == BENCHMARK_TRANSFORMER_TAPE
    assert [e.output for e in tape.entries] == list(range(38, 38 + 65))
    # walking backwards, an output's shape is that of a later entry's
    # contribution to it; the last output is the scalar loss
    shapes = {tape.entries[-1].output: ()}
    rng = np.random.default_rng(1)
    for e in reversed(tape.entries):
        contribs = e.backward(np.asarray(rng.normal(size=shapes[e.output])))
        assert type(contribs) is list
        assert [node for node, _ in contribs] == list(e.inputs)
        for node, contrib in contribs:
            assert type(contrib) is np.ndarray
            shapes.setdefault(node, contrib.shape)
