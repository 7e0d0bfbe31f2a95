import os
import threading

import numpy as np
import pytest

from proxprune import data, smoothing, zoo


@pytest.fixture(autouse=True)
def no_child_or_thread_left_behind():
    """Fail any test that leaves a child process (running or unreaped), a
    helper counted as live, or a thread behind: helper processes must end
    with the call that forked them, on every exit path."""
    threads = threading.active_count()
    yield
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no child at all
        pass
    else:
        pytest.fail("the test left a child process behind")
    live, smoothing.ForkedChild.live = smoothing.ForkedChild.live, 0  # spare later tests
    assert live == 0, "the test left a helper counted as live"
    assert threading.active_count() == threads, "the test left a thread running"


WORDS = ["the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "and", "runs"]


@pytest.fixture(scope="session")
def corpus_file(tmp_path_factory):
    """Deterministic word-salad corpus; byte content is fixed by the seed."""
    rng = np.random.default_rng(42)
    text = " ".join(rng.choice(WORDS) for _ in range(3000))
    path = tmp_path_factory.mktemp("corpus") / "corpus.txt"
    path.write_text(text)
    return path


@pytest.fixture(scope="session")
def corpus(corpus_file):
    return data.load_corpus(corpus_file)


@pytest.fixture(scope="session")
def trained_mlp(corpus):
    """Toy byte-context MLP trained for two short epochs (fixed seeds)."""
    model = zoo.Mlp([4 * 256, 16, 256])
    params = model.init_params(7)
    batches = [data.make_batch(model, corpus, 16, seed=(7, 1, i))[0] for i in range(10)]
    params, info = zoo.recover_finetune(model, params, batches, epochs=2, lr=0.5)
    assert info.epoch_losses[-1] < info.epoch_losses[0]
    return model, params
