"""The ChatIYP prompt chain (paper §2: "a prompt chain fine-tuned on IYP
query patterns").

Prompts carry explicit ``[TASK: ...]`` markers and ``[SECTION]`` blocks that
the backbone routes on.  The text-to-Cypher prompt embeds the live graph
schema and a bank of IYP query-pattern exemplars, mirroring what the
LlamaIndex Neo4j integration injects for real LLMs.
"""

from __future__ import annotations

import json
import re

__all__ = [
    "IYP_FEW_SHOT_EXAMPLES",
    "text2cypher_prompt",
    "answer_prompt",
    "rerank_prompt",
    "judge_prompt",
    "sanitize_user_text",
]

_SECTION_MARKER_RE = re.compile(r"^\s*\[(?:TASK\s*:.*|\w+)\]\s*$", re.MULTILINE)


def sanitize_user_text(text: str) -> str:
    """Neutralise prompt-structure markers inside user-provided text.

    Prompts are routed on ``[TASK: ...]`` / ``[SECTION]`` lines; a question
    that *contains* such a line could hijack the backbone's routing
    (prompt injection).  Any user line that looks like a marker gets its
    brackets defanged before it is embedded in a prompt.
    """
    return _SECTION_MARKER_RE.sub(
        lambda match: match.group(0).replace("[", "(").replace("]", ")"), text
    )

#: (question, cypher) exemplars of canonical IYP query patterns.
IYP_FEW_SHOT_EXAMPLES: list[tuple[str, str]] = [
    (
        "What is the percentage of Japan's population in AS2497?",
        "MATCH (:AS {asn: 2497})-[p:POPULATION]->(:Country {country_code: 'JP'}) "
        "RETURN p.percent AS percent",
    ),
    (
        "Which country is AS15169 registered in?",
        "MATCH (a:AS {asn: 15169})-[:COUNTRY]->(c:Country) RETURN c.name AS country",
    ),
    (
        "How many prefixes does AS13335 originate?",
        "MATCH (:AS {asn: 13335})-[:ORIGINATE]->(p:Prefix) RETURN count(p) AS prefixes",
    ),
    (
        "Which IXPs is AS2914 a member of?",
        "MATCH (:AS {asn: 2914})-[:MEMBER_OF]->(i:IXP) RETURN i.name AS ixp ORDER BY ixp",
    ),
    (
        "Which ASes does AS7922 depend on?",
        "MATCH (:AS {asn: 7922})-[d:DEPENDS_ON]->(t:AS) "
        "RETURN t.asn AS asn, d.hege AS hegemony ORDER BY hegemony DESC",
    ),
]


def text2cypher_prompt(question: str, schema: str) -> str:
    """The IYP text-to-Cypher prompt with schema + few-shot chain."""
    examples = "\n".join(
        f"Q: {q}\nCypher: {c}" for q, c in IYP_FEW_SHOT_EXAMPLES
    )
    return (
        "[TASK: text2cypher]\n"
        "You are an expert on the Internet Yellow Pages (IYP) graph database.\n"
        "Translate the user's question into a single Cypher query.\n"
        "Use only node labels, relationship types and properties from the schema.\n"
        f"[SCHEMA]\n{schema}\n"
        f"[EXAMPLES]\n{examples}\n"
        f"[QUESTION]\n{sanitize_user_text(question)}\n"
    )


def answer_prompt(question: str, result_json: str, context: str) -> str:
    """The generation prompt: question + structured result and/or context."""
    parts = [
        "[TASK: answer]",
        "You are ChatIYP, answering questions about Internet infrastructure "
        "using the IYP knowledge graph. Answer concisely and factually from "
        "the retrieved information only.",
        f"[QUESTION]\n{sanitize_user_text(question)}",
    ]
    if result_json:
        parts.append(f"[RESULT]\n{result_json}")
    if context:
        parts.append(f"[CONTEXT]\n{context}")
    return "\n".join(parts) + "\n"


def rerank_prompt(query: str, passages: list[str]) -> str:
    """The context re-ranking prompt: every candidate passage in one call.

    The passages go in as one JSON list of sanitized, stripped strings.
    JSON escapes their newlines, so the whole list sits on one line and no
    passage can open a section of its own.
    """
    listed = json.dumps([sanitize_user_text(passage).strip() for passage in passages])
    return (
        "[TASK: rerank]\n"
        "Rate from 0 to 10 how useful each passage is for answering the query "
        "about Internet infrastructure. Reply with one score per passage, in "
        "order, one per line.\n"
        f"[QUERY]\n{sanitize_user_text(query)}\n"
        f"[PASSAGES]\n{listed}\n"
    )


def judge_prompt(question: str, candidate: str, reference: str, gold_facts_json: str = "") -> str:
    """The G-Eval judging prompt (factuality, relevance, informativeness)."""
    parts = [
        "[TASK: judge]",
        "Evaluate the candidate answer against the reference for factuality, "
        "relevance and informativeness. Think step by step, then output a score.",
        f"[QUESTION]\n{sanitize_user_text(question)}",
        f"[REFERENCE]\n{sanitize_user_text(reference)}",
        f"[CANDIDATE]\n{sanitize_user_text(candidate)}",
    ]
    if gold_facts_json:
        parts.append(f"[GOLD_FACTS]\n{gold_facts_json}")
    return "\n".join(parts) + "\n"
