"""The README's library quick start runs as written, and every module
attribute that the README and the package docstrings name exists."""

import importlib
import re
from pathlib import Path

import synthdata
from sentconv import corpus, embed

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("corpus", "embed", "net", "optim", "evaluate", "checkpoint", "cli")
# A backticked `module.name` or `module.Name.attr`, as the docs name code.
REFERENCE = re.compile(rf"`({'|'.join(MODULES)})\.(\w+(?:\.\w+)*)")


def test_library_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)[1]
    pairs = synthdata.trigger_bigram_pairs(60, seed=5)
    synthdata.write_tsv(tmp_path / "reviews.tsv", pairs)
    vocab = corpus.build_vocabulary(corpus.tokenize_corpus(pairs)[0])
    with open(tmp_path / "vectors.bin", "wb") as fh:
        embed.write_word2vec_binary(fh, vocab.id_to_word[1:],
                                    synthdata.planted_vectors(vocab, 300, seed=5)[1:])
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    assert 1 <= scope["result"].best_epoch <= scope["config"].max_epochs
    assert len(scope["accuracies"]) == 10
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_docs_name_real_code():
    sources = [ROOT / "README.md", *sorted((ROOT / "src" / "sentconv").glob("*.py"))]
    references = {match.groups() for path in sources
                  for match in REFERENCE.finditer(path.read_text(encoding="utf-8"))}
    assert len(references) >= 10  # the pattern still finds the docs' references
    missing = []
    for module, dotted in sorted(references):
        target = importlib.import_module(f"sentconv.{module}")
        for name in dotted.split("."):
            if not hasattr(target, name):
                missing.append(f"{module}.{dotted}")
                break
            target = getattr(target, name)
    assert not missing, f"the docs name code that does not exist: {missing}"
