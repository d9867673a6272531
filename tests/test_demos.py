"""The fast demos run to completion against the current library."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("demo", ["cross_validation", "gradient_check", "tokenize_and_folds",
                                  "train_variants", "word_vector_files"])
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", f"{demo}.py")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_normalize_mr_writes_tsv(tmp_path):
    pos, neg, out = tmp_path / "rt.pos", tmp_path / "rt.neg", tmp_path / "mr.tsv"
    pos.write_bytes("a charming caf\xe9 film \n\nwarm and wise\n".encode("latin-1"))
    neg.write_bytes("d\xe9j\xe0 vu , again\n".encode("latin-1"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", "normalize_mr.py"),
                           str(pos), str(neg), str(out)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8") == ("1\ta charming café film\n"
                                               "1\twarm and wise\n"
                                               "0\tdéjà vu , again\n")
