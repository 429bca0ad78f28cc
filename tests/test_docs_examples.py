"""Executes every ```cypher block in docs/ so documentation cannot rot, and
checks every ``>>> `` EXPLAIN example in a ```text block against
``CypherEngine.explain`` on the small graph."""

import re
from pathlib import Path

import pytest

from repro.cypher import CypherEngine
from repro.iyp import IYPConfig, generate_iyp

DOCS_DIR = Path(__file__).resolve().parent.parent / "docs"
_BLOCK_RE = re.compile(r"```cypher\n(.*?)```", re.DOTALL)

#: parameters supplied to blocks that use query parameters
_DOC_PARAMS = {"asn": 2497}


def _doc_blocks():
    blocks = []
    for doc in sorted(DOCS_DIR.glob("*.md")):
        for index, match in enumerate(_BLOCK_RE.finditer(doc.read_text())):
            blocks.append(
                pytest.param(match.group(1).strip(), id=f"{doc.stem}-{index:02d}")
            )
    return blocks


_TEXT_BLOCK_RE = re.compile(r"^( *)```text\n(.*?)^\1```", re.DOTALL | re.MULTILINE)


def _explain_examples():
    """``(query, expected lines)`` per ``>>> query`` line of a text block:
    the lines under it, up to a blank line or the next ``>>> ``."""
    examples = []
    for doc in sorted(DOCS_DIR.glob("*.md")):
        for match in _TEXT_BLOCK_RE.finditer(doc.read_text()):
            indent = len(match.group(1))
            query, expected = None, []
            for line in [line[indent:] for line in match.group(2).splitlines()] + [""]:
                if query is not None and (not line or line.startswith(">>> ")):
                    examples.append(pytest.param(
                        query, expected, id=f"{doc.stem}-explain-{len(examples):02d}"))
                    query = None
                if line.startswith(">>> "):
                    query, expected = line[4:], []
                elif query is not None:
                    expected.append(line)
    return examples


@pytest.fixture(scope="module")
def scratch_engine():
    """A private small graph: docs may mutate it freely."""
    dataset = generate_iyp(IYPConfig.small(seed=42))
    return CypherEngine(dataset.store)


class TestDocumentationExamples:
    def test_docs_exist_and_have_examples(self):
        assert DOCS_DIR.is_dir()
        assert len(_doc_blocks()) >= 20

    @pytest.mark.parametrize("block", _doc_blocks())
    def test_block_executes(self, scratch_engine, block):
        params = {k: v for k, v in _DOC_PARAMS.items() if f"${k}" in block}
        scratch_engine.run(block, **params)  # must not raise

    def test_docs_have_explain_examples(self):
        assert len(_explain_examples()) >= 4

    @pytest.mark.parametrize("query, expected", _explain_examples())
    def test_explain_example_matches(self, small_store, query, expected):
        assert CypherEngine(small_store).explain(query).splitlines() == expected
