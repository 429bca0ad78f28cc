"""Vector search scores, pinned bit for bit and independent of BLAS threads.

``tests/golden/vector_scores_digest.json`` holds a sha256 over ``(row,
score.hex())`` of ``search(question, top_k=32, min_score=0.02)`` for every
seed-7 CypherEval gold question, over the small graph's description
corpus.  Search sums each score in a fixed order on the calling thread, so
the digest depends neither on the host's core count nor on OpenBLAS's
thread count: child processes with one and with two BLAS threads must both
reproduce it.  Regenerate only for an intended change of scores::

    python -m pytest tests/test_vector_scores.py -q --golden-update
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.embed.vector_store import VectorStore
from repro.eval import build_cyphereval
from repro.iyp import IYPConfig, generate_iyp
from repro.rag.describe import build_description_corpus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = ROOT / "tests" / "golden" / "vector_scores_digest.json"
_CHILD = ("import json; from tests.test_vector_scores import score_digest; "
          "print(json.dumps(score_digest()))")


def score_digest() -> dict:
    """The digest of every seed-7 gold question's top-32 rows and score bits."""
    dataset = generate_iyp(IYPConfig.small(seed=42))
    index = VectorStore(build_description_corpus(dataset.store))
    questions = [item.question for item in build_cyphereval(dataset, seed=7)]
    digest, hits = hashlib.sha256(), 0
    for question in questions:
        for row, score in zip(*index.search(question, top_k=32, min_score=0.02)):
            digest.update(f"{row} {score.hex()}\n".encode())
            hits += 1
    return {"questions": len(questions), "hits": hits, "sha256": digest.hexdigest()}


def _child_digest(blas_threads: int) -> dict:
    """:func:`score_digest` in a fresh interpreter with ``blas_threads``
    OpenBLAS threads (the variable is read when numpy loads)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    completed = subprocess.run([sys.executable, "-c", _CHILD], cwd=ROOT, env=env,
                               capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_scores_match_golden(request):
    digest = score_digest()
    if request.config.getoption("--golden-update", default=False):
        GOLDEN_PATH.write_text(json.dumps(digest, indent=2) + "\n")
        pytest.skip("golden regenerated")
    assert digest == json.loads(GOLDEN_PATH.read_text()), (
        "vector scores drifted: regenerate with --golden-update only for an "
        "intended change of scores"
    )


def test_scores_do_not_depend_on_blas_threads():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert _child_digest(1) == golden
    assert _child_digest(2) == golden
