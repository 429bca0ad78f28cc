"""Entity extraction from natural-language questions.

The text-to-Cypher model grounds questions by spotting Internet-entity
mentions: AS numbers, prefixes, IPs, domain names, plus gazetteer matches
for countries, IXPs, tags, organizations and rankings known to the graph.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

__all__ = ["ExtractedEntities", "Gazetteer", "EntityExtractor"]

_ASN_RE = re.compile(r"\bas[\s\-]?(\d{1,7})\b|\basn[\s:]*(\d{1,7})\b", re.IGNORECASE)
_PREFIX_RE = re.compile(r"\b(\d{1,3}(?:\.\d{1,3}){3}/\d{1,2})\b")
_PREFIX6_RE = re.compile(
    r"\b([0-9a-f]{1,4}(?::[0-9a-f]{0,4}){1,7}/\d{1,3})", re.IGNORECASE
)
_IP_RE = re.compile(r"\b(\d{1,3}(?:\.\d{1,3}){3})\b(?!/)")
_DOMAIN_RE = re.compile(
    r"\b((?:[a-z0-9][a-z0-9\-]*\.)+(?:com|net|org|io|jp|de|fr|in|br|uk|co\.uk))\b",
    re.IGNORECASE,
)
_NUMBER_RE = re.compile(r"\b(\d+(?:\.\d+)?)\b")
_CODE_RE = re.compile(r"\b[A-Z]{2}\b")


@dataclass
class ExtractedEntities:
    """All entity mentions found in one question."""

    asns: list[int] = field(default_factory=list)
    prefixes: list[str] = field(default_factory=list)
    ips: list[str] = field(default_factory=list)
    domains: list[str] = field(default_factory=list)
    countries: list[str] = field(default_factory=list)  # ISO codes
    ixps: list[str] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)
    organizations: list[str] = field(default_factory=list)
    rankings: list[str] = field(default_factory=list)
    numbers: list[float] = field(default_factory=list)

    def is_empty(self) -> bool:
        """True when nothing at all was recognised."""
        return not any(
            (
                self.asns, self.prefixes, self.ips, self.domains, self.countries,
                self.ixps, self.tags, self.organizations, self.rankings,
            )
        )


@dataclass
class Gazetteer:
    """Known-entity name tables, typically derived from an IYP dataset."""

    countries: dict[str, str] = field(default_factory=dict)  # lowercase name/code -> code
    ixps: list[str] = field(default_factory=list)
    tags: list[str] = field(default_factory=list)
    organizations: list[str] = field(default_factory=list)
    rankings: list[str] = field(default_factory=list)

    @classmethod
    def from_dataset(cls, dataset) -> "Gazetteer":
        """Build from an :class:`~repro.iyp.generator.IYPDataset`."""
        countries: dict[str, str] = {}
        for code, name in dataset.country_names.items():
            countries[name.lower()] = code
            countries[code.lower()] = code
        return cls(
            countries=countries,
            ixps=list(dataset.ixp_nodes),
            tags=list(dataset.tag_nodes),
            organizations=list(dataset.org_nodes),
            rankings=list(dataset.ranking_nodes),
        )


class EntityExtractor:
    """Extracts :class:`ExtractedEntities` from question text."""

    def __init__(self, gazetteer: Gazetteer | None = None) -> None:
        self.gazetteer = gazetteer or Gazetteer()
        # Longest-first (phrase, lowered phrase) lists so "DE-CIX Frankfurt"
        # beats "DE-CIX".
        self._phrase_tables = [
            (attribute, [(phrase, phrase.lower())
                         for phrase in sorted(phrases, key=len, reverse=True)])
            for attribute, phrases in (
                ("ixps", self.gazetteer.ixps),
                ("tags", self.gazetteer.tags),
                ("rankings", self.gazetteer.rankings),
                ("organizations", self.gazetteer.organizations),
            )
        ]
        # Country names longer than a code, longest first; bare codes are
        # matched as upper-case tokens instead (``_extract_countries``).
        self._country_names = [
            (name, code)
            for name, code in sorted(
                self.gazetteer.countries.items(), key=lambda kv: len(kv[0]), reverse=True
            )
            if len(name) > 3
        ]

    def extract(self, text: str) -> ExtractedEntities:
        """Scan ``text`` for every supported entity kind."""
        entities = ExtractedEntities()
        consumed_spans: list[tuple[int, int]] = []

        for match in _ASN_RE.finditer(text):
            asn = int(match.group(1) or match.group(2))
            if asn not in entities.asns:
                entities.asns.append(asn)
            consumed_spans.append(match.span())
        for match in _PREFIX_RE.finditer(text):
            if match.group(1) not in entities.prefixes:
                entities.prefixes.append(match.group(1))
            consumed_spans.append(match.span())
        for match in _PREFIX6_RE.finditer(text):
            prefix = match.group(1).lower()
            if prefix not in entities.prefixes:
                entities.prefixes.append(prefix)
            consumed_spans.append(match.span())
        for match in _IP_RE.finditer(text):
            if any(start <= match.start() < end for start, end in consumed_spans):
                continue
            if match.group(1) not in entities.ips:
                entities.ips.append(match.group(1))
            consumed_spans.append(match.span())
        for match in _DOMAIN_RE.finditer(text):
            domain = match.group(1).lower()
            if domain not in entities.domains:
                entities.domains.append(domain)
            consumed_spans.append(match.span())

        lowered = text.lower()
        for attribute, phrases in self._phrase_tables:
            found = getattr(entities, attribute)
            for phrase, lowered_phrase in phrases:
                index = lowered.find(lowered_phrase)
                if index == -1:
                    continue
                span = (index, index + len(phrase))
                if any(start < span[1] and span[0] < end for start, end in consumed_spans):
                    continue
                if phrase not in found:
                    found.append(phrase)
                consumed_spans.append(span)

        entities.countries = self._extract_countries(text, lowered)

        for match in _NUMBER_RE.finditer(text):
            if any(start <= match.start() < end for start, end in consumed_spans):
                continue
            value = float(match.group(1))
            entities.numbers.append(int(value) if value.is_integer() else value)
        return entities

    def _extract_countries(self, text: str, lowered: str) -> list[str]:
        found: list[str] = []
        # Multi-word country names first ("united states", "south korea").
        for name, code in self._country_names:
            if name in lowered and code not in found:
                found.append(code)
        # Bare ISO codes must be upper-case in the text ("JP", "US") to
        # avoid matching English words like "in" or "us".
        for match in _CODE_RE.finditer(text):
            code = self.gazetteer.countries.get(match.group(0).lower())
            if code and code not in found:
                found.append(code)
        return found
