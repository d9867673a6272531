"""Acceptance criteria, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Criteria 6 and 7 need external data and are skipped unless the
environment variables named in their skip reasons are set; criterion 7 is
the full-scale cross-validation run and can take hours.
"""

import hashlib
import io
import math
import os
import time

import numpy as np
import pytest

import synthdata
from oracles import dense_gradients, finite_difference, oracle_feature_map, tensor_hashes
from sentconv import checkpoint, cli, corpus, embed, evaluate, net, optim

MR_PATH = os.environ.get("SENTCONV_MR_TSV")
W2V_PATH = os.environ.get("SENTCONV_W2V_BIN")
RUN_FULL = os.environ.get("SENTCONV_RUN_FULL") == "1"


# -------------------------------------------------------------------------
# criterion 1: analytic gradients match central finite differences
# -------------------------------------------------------------------------

def _toy_model():
    """k=6, widths (2, 3), 4 maps each, 3 classes, n=7, two channels."""
    rng = np.random.default_rng(20240)
    vocab_size, dim = 12, 6
    mats = []
    for _ in range(2):
        m = np.zeros((vocab_size, dim))
        m[1:] = rng.normal(0.0, 0.6, (vocab_size - 1, dim))
        mats.append(m)
    channels = [embed.EmbeddingChannel(mats[0], trainable=False),
                embed.EmbeddingChannel(mats[1], trainable=True)]
    params = net.init_params(channels, 3, (2, 3), 4, seed=606, keep_prob=0.5,
                             activation="relu", init_scale=0.5)
    token_ids = np.array([3, 7, 1, 9, 4, 11, 6])
    mask = np.array([1, 0, 1, 1, 1, 1, 0, 1], dtype=np.float64)
    return params, token_ids, mask


def test_criterion_1_gradient_oracle():
    start = time.monotonic()
    params, token_ids, mask = _toy_model()
    label = 1

    # fixture sanity: stay clear of ReLU kinks and pooling ties so the
    # finite-difference window cannot flip a gate or an argmax
    _, trace = net.forward(params, token_ids, mask=mask)
    for pre in trace.preacts:
        assert np.min(np.abs(pre)) > 1e-3
        acts = np.maximum(pre, 0.0)
        top2 = np.sort(acts, axis=0)[-2:, :]
        assert np.all(top2[1] - top2[0] > 1e-3)

    def loss_fn():
        logits, _ = net.forward(params, token_ids, mask=mask)
        return net.loss_and_probs(logits, label)[1]

    grads = dense_gradients(params, trace, net.backward(params, trace, [label])[1])
    assert "channel0" not in grads  # static channel: no gradient by contract

    checked = 0
    for name, tensor in net.trainable_tensors(params):
        analytic = grads[name]
        numeric = finite_difference(loss_fn, tensor, step=1e-5)
        diff = np.abs(analytic - numeric)
        scale = np.maximum(np.abs(analytic), np.abs(numeric))
        big = np.abs(analytic) >= 1e-8
        assert np.all(diff[big] < 1e-6 * scale[big])
        assert np.all(diff[~big] < 1e-9)
        checked += analytic.size
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\ncriterion 1: PASS — {checked} parameters match central differences "
          f"(rel < 1e-6) in {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 2: convolution matches a naive triple-loop oracle
# -------------------------------------------------------------------------

def test_criterion_2_convolution_oracle():
    start = time.monotonic()
    rng = np.random.default_rng(777)
    worst = 0.0
    for case in range(1000):
        n_channels = int(rng.integers(1, 3))
        k = int(rng.integers(1, 9))
        n = int(rng.integers(1, 13))
        h = int(rng.integers(1, min(n, 5) + 1))
        vocab_size = int(rng.integers(2, 14))
        channels = []
        for c in range(n_channels):
            m = np.zeros((vocab_size, k))
            m[1:] = rng.normal(0.0, 0.8, (vocab_size - 1, k))
            channels.append(embed.EmbeddingChannel(m, trainable=(c == 0)))
        weights, bias = rng.normal(size=(h, k)), float(rng.normal())
        ids = rng.integers(0, vocab_size, size=n)
        activation = "tanh" if case % 2 else "relu"
        params = net.ModelParams(channels, [net.FilterBank(weights[None], np.array([bias]))],
                                 net.OutputLayer(np.zeros((2, 1)), np.zeros(2)),
                                 activation=activation)
        _, trace = net.forward(params, ids, np.ones(1))  # masks change only the logits
        got = net._activate(trace.preacts[0][:, 0], activation)
        want = oracle_feature_map(ids, channels, weights, bias, activation)
        worst = max(worst, float(np.max(np.abs(got - want))),
                    abs(float(trace.z[0, 0]) - float(np.max(want))))
    elapsed = time.monotonic() - start
    assert worst <= 1e-12
    assert elapsed < 30.0
    print(f"\ncriterion 2: PASS — 1000 random cases, worst deviation {worst:.2e} "
          f"in {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 3: synthetic end-to-end training, variant ordering
# -------------------------------------------------------------------------

def _variant_config(variant):
    return optim.TrainConfig(variant=variant, widths=(2, 3), maps_per_width=8,
                             dim=16, keep_prob=0.5, batch_size=50, max_epochs=25,
                             patience=8, seed=5)


def test_criterion_3_synthetic_end_to_end():
    dataset, train, held, vocab = synthdata.encoded_corpus(n=2000, seed=42,
                                                           holdout=400, holdout_seed=99)
    train_ds, dev_ds = corpus.select_dev_split(train, 0.10, seed=123)

    # CNN-rand from scratch, bounded time
    config = _variant_config("rand")
    base, _ = embed.build_base_matrix(vocab, config.dim, "rand", config.seed)
    params = evaluate.initial_params(config, base, dataset.num_classes)
    start = time.monotonic()
    result = optim.fit(params, train_ds.examples, dev_ds.examples, config)
    rand_time = time.monotonic() - start
    accs = {"rand": net.accuracy(result.params, held.examples)}
    assert len(result.history) <= 25
    assert accs["rand"] >= 0.95
    assert rand_time < 120.0

    # informative planted vectors, written and re-read through the binary format
    planted = synthdata.planted_vectors(vocab, config.dim, seed=7)
    blob = io.BytesIO()
    embed.write_word2vec_binary(blob, vocab.id_to_word[1:], planted[1:])
    for variant in ("static", "non-static"):
        config = _variant_config(variant)
        blob.seek(0)
        base, matched = embed.parse_word2vec_binary(blob, vocab, config.dim)
        assert len(matched) == len(vocab) - 1
        params = evaluate.initial_params(config, base, dataset.num_classes)
        result = optim.fit(params, train_ds.examples, dev_ds.examples, config)
        accs[variant] = net.accuracy(result.params, held.examples)

    assert accs["static"] >= accs["rand"] - 0.01
    assert accs["non-static"] >= accs["static"] - 0.01
    print(f"\ncriterion 3: PASS — held-out accuracy rand={accs['rand']:.4f} "
          f"({rand_time:.0f}s), static={accs['static']:.4f}, "
          f"non-static={accs['non-static']:.4f}")


# -------------------------------------------------------------------------
# criterion 4: word2vec binary fixture, round trip, truncation
# -------------------------------------------------------------------------

def test_criterion_4_word2vec_parser():
    start = time.monotonic()
    records = [("cat", [1.0, 2.0, 3.0]), ("dog", [-1.0, 0.5, 0.25])]
    blob = io.BytesIO()
    blob.write(b"2 3\n")
    for word, values in records:
        blob.write(word.encode() + b" " + np.array(values, dtype="<f4").tobytes() + b"\n")
    fixture = blob.getvalue()

    vocab = corpus.build_vocabulary([["cat", "dog"]])
    matrix, matched = embed.parse_word2vec_binary(io.BytesIO(fixture), vocab)
    assert matched == {"cat", "dog"}
    assert matrix[vocab.id("cat")].tobytes() == np.array([1.0, 2.0, 3.0]).tobytes()
    assert matrix[vocab.id("dog")].tobytes() == np.array([-1.0, 0.5, 0.25]).tobytes()

    rewritten = io.BytesIO()
    embed.write_word2vec_binary(rewritten, ["cat", "dog"],
                                matrix[[vocab.id("cat"), vocab.id("dog")]])
    assert rewritten.getvalue() == fixture

    with pytest.raises(ValueError, match="truncated record"):
        embed.parse_word2vec_binary(io.BytesIO(fixture[:-6]), vocab)

    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    print(f"\ncriterion 4: PASS — exact parse, byte-identical round trip, "
          f"truncation detected in {elapsed:.2f}s")


# -------------------------------------------------------------------------
# criterion 5: invariants hold after every single update
# -------------------------------------------------------------------------

def test_criterion_5_invariant_suite():
    start = time.monotonic()

    # one train_epoch call over exactly one batch == one parameter update
    config = optim.TrainConfig(variant="multichannel", widths=(2, 3), maps_per_width=4,
                               dim=10, keep_prob=0.5, batch_size=40, max_epochs=1,
                               patience=1, seed=31, init_scale=2.0)  # start above the cap
    pairs = synthdata.trigger_bigram_pairs(40, seed=8, n_filler=25)
    token_lists, labels = corpus.tokenize_corpus(pairs)
    vocab = corpus.build_vocabulary(token_lists)
    dataset = corpus.encode_corpus(token_lists, labels, vocab, 3)
    base = synthdata.planted_vectors(vocab, config.dim, seed=6)
    params = evaluate.initial_params(config, base, dataset.num_classes)
    static_hash = hashlib.sha256(params.channels[0].matrix.tobytes()).hexdigest()
    assert np.any(np.linalg.norm(params.output.weights, axis=1) > config.norm_limit)

    states = optim.init_states(params, config.rho, config.eps)
    mask_rng = np.random.default_rng([config.seed, 0])
    for update in range(1, 26):
        optim.train_epoch(params, dataset.examples, config, states, mask_rng,
                          config.seed, update)
        norms = np.linalg.norm(params.output.weights, axis=1)
        assert np.all(norms <= config.norm_limit + 1e-9), f"update {update}"
        for ch in params.channels:
            assert np.all(ch.matrix[corpus.PAD_ID] == 0.0), f"update {update}"
        assert hashlib.sha256(params.channels[0].matrix.tobytes()).hexdigest() \
            == static_hash, f"update {update}"

    # dropout expectation: mean train-mode logits over 10000 masks vs inference
    rng = np.random.default_rng(77)
    mc_params = net.clone_params(params)
    ids = dataset.examples[0].token_ids
    infer_logits = net.predict_logits(mc_params, [ids])[0]
    n_samples = 10_000
    samples = np.empty((n_samples, mc_params.num_classes))
    mask_rng = np.random.default_rng(1234)
    for s in range(n_samples):
        mask = (mask_rng.random(mc_params.num_filters) < mc_params.keep_prob).astype(np.float64)
        samples[s], _ = net.forward(mc_params, ids, mask=mask)
    mean = samples.mean(axis=0)
    sem = samples.std(axis=0, ddof=1) / math.sqrt(n_samples)
    assert np.all(np.abs(mean - infer_logits) <= 4.0 * sem)

    # adadelta determinism: same seed, bit-identical parameters
    results = []
    for _ in range(2):
        p = np.zeros(7)
        state = optim.init_state(p, 0.95, 1e-6)
        grad_rng = np.random.default_rng(5)
        for _ in range(10):
            optim.adadelta_step(p, grad_rng.normal(size=7), state)
        results.append(p.tobytes())
    assert results[0] == results[1]

    # projection idempotence, exact
    out = net.OutputLayer(rng.normal(0, 4, size=(6, 9)), np.zeros(6))
    optim.l2_renorm(out, 3.0)
    once = out.weights.tobytes()
    optim.l2_renorm(out, 3.0)
    assert out.weights.tobytes() == once

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\ncriterion 5: PASS — norms/pad/static invariants over 25 updates, "
          f"dropout expectation, determinism, idempotence in {elapsed:.1f}s")


# -------------------------------------------------------------------------
# criterion 6: summary statistics of the real movie-review data (extended)
# -------------------------------------------------------------------------

@pytest.mark.skipif(not MR_PATH, reason="set SENTCONV_MR_TSV to a normalized "
                    "movie-review tsv (see demos/normalize_mr.py) to run")
def test_criterion_6_movie_review_statistics(capsys):
    code = cli.main(["inspect-data", "--data", MR_PATH]
                    + (["--vectors", W2V_PATH] if W2V_PATH else []))
    out = capsys.readouterr().out
    assert code == 0
    stats = dict(line.split("\t") for line in out.splitlines())
    assert stats["N"] == "10662"
    assert stats["c"] == "2"
    vocab_size = int(stats["V"])
    assert abs(vocab_size - 18765) / 18765 <= 0.05
    if W2V_PATH:
        matched = int(stats["V_pre"])
        assert abs(matched - 16448) / 16448 <= 0.05
    print(f"\ncriterion 6: PASS — N=10662, c=2, |V|={vocab_size} within 5% of 18765")


# -------------------------------------------------------------------------
# criterion 7: full 10-fold cross-validation on movie reviews (extended)
# -------------------------------------------------------------------------

@pytest.mark.skipif(not (MR_PATH and W2V_PATH and RUN_FULL),
                    reason="full-scale run (hours): set SENTCONV_MR_TSV, "
                    "SENTCONV_W2V_BIN and SENTCONV_RUN_FULL=1")
def test_criterion_7_movie_review_cross_validation():
    targets = {"rand": 76.1, "static": 81.0}
    pairs = corpus.load_tsv(MR_PATH)
    token_lists, labels = corpus.tokenize_corpus(pairs)
    vocab = corpus.build_vocabulary(token_lists)
    means = {}
    for variant, target in targets.items():
        config = optim.TrainConfig(variant=variant, seed=1)
        dataset = corpus.encode_corpus(token_lists, labels, vocab, max(config.widths))
        base, _ = embed.build_base_matrix(vocab, config.dim, variant, config.seed,
                                          vectors_path=W2V_PATH)
        params0 = evaluate.initial_params(config, base, dataset.num_classes)
        accuracies = evaluate.run_cross_validation(dataset, config, params0)
        means[variant] = 100.0 * float(np.mean(accuracies))
        assert abs(means[variant] - target) <= 2.5, \
            f"{variant}: {means[variant]:.1f} vs target {target}"
    print(f"\ncriterion 7: PASS — CV means {means}")


# -------------------------------------------------------------------------
# criterion 8: checkpoint round trip
# -------------------------------------------------------------------------

def test_criterion_8_checkpoint_round_trip(tmp_path):
    start = time.monotonic()
    config = optim.TrainConfig(variant="multichannel", widths=(2, 3), maps_per_width=3,
                               dim=8, keep_prob=0.5, batch_size=20, max_epochs=2,
                               patience=2, seed=17, init_scale=0.1)
    pairs = synthdata.separable_pairs(80, seed=3)
    token_lists, labels = corpus.tokenize_corpus(pairs)
    vocab = corpus.build_vocabulary(token_lists)
    dataset = corpus.encode_corpus(token_lists, labels, vocab, 3)
    base = synthdata.planted_vectors(vocab, config.dim, seed=4)
    params = evaluate.initial_params(config, base, dataset.num_classes)
    train_ds, dev_ds = corpus.select_dev_split(dataset, 0.10, seed=5)
    result = optim.fit(params, train_ds.examples, dev_ds.examples, config)
    history = optim.history_to_csv(result.history)

    first = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(first, result.params, vocab, config, history)
    loaded = checkpoint.load_checkpoint(first)
    second = tmp_path / "model2.ckpt"
    checkpoint.save_checkpoint(second, loaded.params, loaded.vocab, loaded.config,
                               loaded.history_csv)
    assert second.read_bytes() == first.read_bytes()

    rng = np.random.default_rng(9)
    for _ in range(100):
        ids = rng.integers(0, len(vocab), size=int(rng.integers(3, 12)))
        before = net.predict_probs(result.params, ids)
        after = net.predict_probs(loaded.params, ids)
        assert np.array_equal(before, after)

    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    print(f"\ncriterion 8: PASS — byte-identical re-save, 100 identical "
          f"predictions in {elapsed:.1f}s")
