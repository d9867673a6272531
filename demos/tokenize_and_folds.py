"""Corpus handling walk-through: tokenize, build a vocabulary, encode, plan folds.

Run: python3 demos/tokenize_and_folds.py
"""

import numpy as np

from sentconv import corpus

raw_sentences = [
    (1, "A thoughtful, provocative film -- don't miss it!"),
    (0, "Can't recommend this one; it's a mess (truly)."),
    (1, "Smart and funny, you'll grin for 90 minutes."),
    (0, "The plot isn't there, the acting isn't either."),
]

print("== tokenization ==")
for label, text in raw_sentences:
    print(f"  [{label}] {text}")
    print(f"      -> {corpus.clean_and_tokenize(text)}")

token_lists, labels = corpus.tokenize_corpus(raw_sentences)
vocab = corpus.build_vocabulary(token_lists)
print(f"\n== vocabulary ==\n  {len(vocab)} entries (pad + {len(vocab) - 1} words)")
print(f"  first ten ids: {vocab.id_to_word[:10]}")

print("\n== encoding ==")
ids = corpus.encode_and_pad(token_lists[0], vocab, h_max=5)
print(f"  sentence 0 as ids: {ids.tolist()}")
short = corpus.encode_and_pad(["smart", "!"], vocab, h_max=5)
print(f"  2-token sentence padded to the widest filter: {short.tolist()}")
unseen = corpus.encode_and_pad(["completely", "unseen", "words"], vocab, h_max=5)
print(f"  out-of-vocabulary tokens map to the pad id: {unseen.tolist()}")

print("\n== cross-validation fold plan ==")
plan = corpus.assign_folds(n_examples=103, n_folds=10, seed=7)
sizes = np.bincount(plan, minlength=10)
print(f"  fold sizes: {sizes.tolist()}  (always within 1 of each other)")
print("  same seed gives the identical plan:",
      np.array_equal(plan, corpus.assign_folds(103, 10, seed=7)))
print("  audit export, first lines:")
for i, fold in enumerate(plan[:3]):
    print(f"    {i}\t{fold}")

print("\n== dev split ==")
examples = [corpus.Example(np.array([1, 2, 3]), i % 2) for i in range(100)]
dataset = corpus.Dataset(examples, num_classes=2)
train, dev = corpus.select_dev_split(dataset, fraction=0.10, seed=3)
print(f"  100 examples -> train {len(train)}, dev {len(dev)}")
