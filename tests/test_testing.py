import os
import subprocess
import sys
from pathlib import Path

import litrag
from litrag.testing import DocTruth, _doc_tag, question_for


def test_doc_tags_are_unique_and_alphabetic_below_676():
    tags = [_doc_tag(i) for i in range(676)]
    assert len(set(tags)) == 676
    assert all(tag.isalpha() for tag in tags)
    # the first 26 tags are the ones every existing test corpus was built with
    assert tags[:3] == ["ad", "bk", "cr"]


def test_question_for_asks_the_same_in_every_process():
    # string hashing is salted per process; the default question must not be
    truth = DocTruth("paper-07", "numeric", [f"word{i}" for i in range(60)], [])
    code = (
        "from litrag.testing import DocTruth, question_for\n"
        "print(question_for(DocTruth('paper-07', 'numeric', [f'word{i}' for i in range(60)], [])))"
    )
    src = str(Path(litrag.__file__).resolve().parents[1])
    asked = set()
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=src)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60, check=True
        )
        asked.add(done.stdout.strip())
    assert asked == {question_for(truth)}
