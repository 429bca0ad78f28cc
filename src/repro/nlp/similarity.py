"""Classic string/set similarity measures used by retrieval and the judge."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Sequence

from .tokenize import word_tokenize

__all__ = [
    "jaccard",
    "dice",
    "cosine_counts",
    "levenshtein",
    "normalized_levenshtein",
    "token_f1",
    "counted_f1",
]


def jaccard(left: Iterable, right: Iterable) -> float:
    """Jaccard similarity of two iterables (as sets); 1.0 for two empties."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    union = left_set | right_set
    return len(left_set & right_set) / len(union)


def dice(left: Iterable, right: Iterable) -> float:
    """Sørensen–Dice coefficient of two iterables (as sets)."""
    left_set, right_set = set(left), set(right)
    if not left_set and not right_set:
        return 1.0
    denominator = len(left_set) + len(right_set)
    return 2 * len(left_set & right_set) / denominator if denominator else 0.0


def cosine_counts(left: Counter, right: Counter) -> float:
    """Cosine similarity of two count vectors."""
    if not left or not right:
        return 1.0 if not left and not right else 0.0
    dot = sum(count * right.get(key, 0) for key, count in left.items())
    norm_left = sum(count * count for count in left.values()) ** 0.5
    norm_right = sum(count * count for count in right.values()) ** 0.5
    if norm_left == 0 or norm_right == 0:
        return 0.0
    return dot / (norm_left * norm_right)


def levenshtein(left: str, right: str) -> int:
    """Edit distance with the classic two-row dynamic program."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            insert_cost = current[j - 1] + 1
            delete_cost = previous[j] + 1
            substitute_cost = previous[j - 1] + (left_char != right_char)
            current.append(min(insert_cost, delete_cost, substitute_cost))
        previous = current
    return previous[-1]


def normalized_levenshtein(left: str, right: str) -> float:
    """1 - distance/max_len: 1.0 identical, 0.0 completely different."""
    longest = max(len(left), len(right))
    if longest == 0:
        return 1.0
    return 1.0 - levenshtein(left, right) / longest


def token_f1(candidate: str | Sequence[str], reference: str | Sequence[str]) -> float:
    """Bag-of-words F1 (SQuAD-style), tokenising strings when needed."""
    cand_tokens = word_tokenize(candidate) if isinstance(candidate, str) else list(candidate)
    ref_tokens = word_tokenize(reference) if isinstance(reference, str) else list(reference)
    return counted_f1(cand_tokens, ref_tokens, Counter(ref_tokens))


def counted_f1(
    candidate: Sequence[str], reference: Sequence[str], reference_counts: Counter
) -> float:
    """:func:`token_f1` of two token lists, given ``Counter(reference)``:
    a caller that scores many candidates against one reference counts it once."""
    if not candidate and not reference:
        return 1.0
    if not candidate or not reference:
        return 0.0
    overlap = sum((Counter(candidate) & reference_counts).values())
    if overlap == 0:
        return 0.0
    precision = overlap / len(candidate)
    recall = overlap / len(reference)
    return 2 * precision * recall / (precision + recall)
