"""Word-vector file handling: binary/text formats, unknown-word initialization.

Run: python3 demos/word_vector_files.py
"""

import io
import os
import tempfile

import numpy as np

from sentconv import corpus, embed

vocab = corpus.build_vocabulary([["cat", "dog", "bird", "axolotl", "quokka"]])

print("== write and re-read the binary format ==")
rng = np.random.default_rng(0)
known_words = ["cat", "dog", "bird"]
known = rng.normal(0, 0.4, (3, 5)).astype(np.float32).astype(np.float64)
blob = io.BytesIO()
embed.write_word2vec_binary(blob, known_words, known)
print(f"  file header: {blob.getvalue()[:4]!r} (vocab count, dimensionality)")

blob.seek(0)
matrix, matched = embed.parse_word2vec_binary(blob, vocab)
print(f"  matched {sorted(matched)}; values recovered exactly:",
      np.array_equal(matrix[vocab.id('cat')], known[0]))

again = io.BytesIO()
embed.write_word2vec_binary(again, known_words,
                            matrix[[vocab.id(w) for w in known_words]])
print("  parse -> write round trip is byte-identical:",
      again.getvalue() == blob.getvalue())

print("\n== variance-matched initialization of unknown words ==")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "vectors.bin")
    with open(path, "wb") as fh:
        fh.write(blob.getvalue())
    base, _ = embed.build_base_matrix(vocab, 5, "static", seed=1, vectors_path=path)
pooled = base[[vocab.id(w) for w in known_words]].var()
a = np.sqrt(3 * pooled)
unknown = base[[vocab.id("axolotl"), vocab.id("quokka")]]
print(f"  pooled variance of matched entries: {pooled:.5f}")
print(f"  half-width a = sqrt(3 v) = {a:.5f}; a^2/3 = {a * a / 3:.5f}")
print(f"  axolotl and quokka rows drawn from U[-a, a]: "
      f"{np.all(np.abs(unknown) <= a) and np.all(unknown != 0)}")

print("\n== channel assembly per model variant ==")
rand_base, _ = embed.build_base_matrix(vocab, 5, "rand", seed=2)
for variant in embed.VARIANTS:
    channels = embed.assemble_channels(variant, rand_base if variant == "rand" else base)
    flags = [ch.trainable for ch in channels]
    print(f"  {variant:13s} -> {len(channels)} channel(s), trainable={flags}")

print("\n== the plain-text variant, with the optional `<count> <dim>` header ==")
text_blob = io.BytesIO()
text_blob.write(b"2 5\n")
embed.write_word2vec_text(text_blob, ["cat", "dog"], known[:2])
print("  " + text_blob.getvalue().decode().splitlines()[1][:60] + " ...")
with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "vectors.vec")
    with open(path, "wb") as fh:
        fh.write(text_blob.getvalue())
    text_matrix, text_matched = embed.load_vectors(path, vocab)
print(f"  read as text: matched {sorted(text_matched)}, same values as the binary file:",
      np.array_equal(text_matrix[vocab.id("dog")], known[1]))
