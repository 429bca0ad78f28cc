"""Golden digest of the generated IYP graph.

``generate_iyp`` must draw the same random numbers in the same order for
every seed: every evaluation digest, every e2e workload digest and
``exec_match_share`` rests on the graph being the same graph.  This test
hashes every node ``(id, sorted labels, sorted properties)`` and every
relationship ``(id, type, start, end, sorted properties)`` and compares
against digests recorded in ``tests/golden/iyp_graph_digest.json``.

A speed-up of the generator must leave these digests unchanged.
Regenerate only for an intended change to the generated graph::

    python -m pytest tests/test_iyp_graph_digest.py -q --golden-update
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.iyp import IYPConfig, generate_iyp

GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "iyp_graph_digest.json"


def graph_digest(store) -> dict:
    """Counts plus a SHA-256 over every node and relationship, in id order."""
    sha = hashlib.sha256()
    for node in store.all_nodes():
        entry = [node.node_id, sorted(node.labels), sorted(node.properties.items())]
        sha.update(json.dumps(entry).encode())
        sha.update(b"\n")
    for rel in store.all_relationships():
        entry = [
            rel.rel_id,
            rel.rel_type,
            rel.start_id,
            rel.end_id,
            sorted(rel.properties.items()),
        ]
        sha.update(json.dumps(entry).encode())
        sha.update(b"\n")
    return {
        "nodes": store.node_count,
        "relationships": store.relationship_count,
        "sha256": sha.hexdigest(),
    }


@pytest.mark.parametrize(
    "size, seed",
    [
        ("small", 7),
        ("small", 11),
        ("small", 42),
        ("medium", 42),
        pytest.param("large", 42, marks=pytest.mark.slow),
    ],
)
def test_generated_graph_matches_golden(request, size, seed):
    key = f"{size}-{seed}"
    digest = graph_digest(generate_iyp(getattr(IYPConfig, size)(seed=seed)).store)
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    if request.config.getoption("--golden-update", default=False) or key not in golden:
        golden[key] = digest
        GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"golden {key} recorded")
    assert digest == golden[key], (
        f"generated {key} graph drifted; if the change is intentional, "
        "regenerate with --golden-update"
    )
