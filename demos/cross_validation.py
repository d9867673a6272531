"""Small 10-fold cross-validation run with a seed-fixed fold plan.

Two variants share the identical fold assignment (it depends only on the
seed), so their per-fold accuracies are directly comparable.

Run: python3 demos/cross_validation.py   (about five seconds)
"""

import numpy as np

from sentconv import corpus, embed, evaluate, optim

rng = np.random.default_rng(1)
fillers = [f"f{i}" for i in range(30)]
pairs = []
for i in range(300):
    sent = list(rng.choice(fillers, int(rng.integers(5, 10))))
    label = i % 2
    sent[int(rng.integers(0, len(sent)))] = "goodish" if label else "dreadful"
    pairs.append((label, " ".join(sent)))

token_lists, labels = corpus.tokenize_corpus(pairs)
vocab = corpus.build_vocabulary(token_lists)

reports = {}
for variant in ("rand", "static"):
    config = optim.TrainConfig(variant=variant, widths=(2, 3), maps_per_width=3,
                               dim=8, keep_prob=0.5, batch_size=10, max_epochs=12,
                               patience=12, seed=11, init_scale=0.1)
    dataset = corpus.encode_corpus(token_lists, labels, vocab, max(config.widths))
    plan = evaluate.cv_fold_plan(len(dataset), config)
    print(f"{variant}: fold sizes {np.bincount(plan).tolist()}")
    # `static` freezes a random table drawn from another seed, standing in
    # for pre-trained vectors
    seed = config.seed if variant == "rand" else 2
    base, _ = embed.build_base_matrix(vocab, config.dim, "rand", seed)
    params0 = evaluate.initial_params(config, base, dataset.num_classes)
    reports[variant] = evaluate.run_cross_validation(dataset, config, params0)

print(f"\n{'fold':>4s} {'rand':>8s} {'static':>8s}")
for fold, (a, b) in enumerate(zip(reports["rand"], reports["static"])):
    print(f"{fold:4d} {a:8.3f} {b:8.3f}")
print(f"{'mean':>4s} {np.mean(reports['rand']):8.3f} {np.mean(reports['static']):8.3f}")
