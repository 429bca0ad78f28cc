"""Simulated text-to-Cypher model.

This is the repo's stand-in for prompting GPT-3.5 with the IYP prompt
chain.  It behaves like an imperfect LLM in a mechanistic, reproducible
way:

1. **Semantic parsing** — the question is matched against an intent bank
   (keyword-synonym groups + required entities).  Simple single-relation
   questions match a precise intent; structurally complex multi-hop
   questions either match only a *sub*-intent (producing a plausible but
   wrong query) or nothing at all.
2. **Uncertainty-driven perturbation** — the fraction of the question the
   matched intent actually *explains* (token coverage) drives an error
   model: low coverage means a high chance the emitted query is perturbed
   (wrong direction, wrong relationship type, dropped filter, wrong
   entity, or an outright syntax error).

Together these reproduce the failure geometry the poster reports: accuracy
degrades with structural complexity, not with domain vocabulary.
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..nlp.entities import EntityExtractor, ExtractedEntities, Gazetteer
from ..nlp.tokenize import STOPWORDS, word_tokenize

__all__ = ["CypherGeneration", "ErrorModel", "TextToCypherModel", "INTENT_NAMES"]


@dataclass
class CypherGeneration:
    """The model's output: a query (or None) plus diagnostic metadata."""

    cypher: Optional[str]
    confidence: float
    intent: Optional[str]
    perturbation: Optional[str] = None
    coverage: float = 0.0

    @property
    def failed(self) -> bool:
        """True when no query could be produced at all."""
        return self.cypher is None


@dataclass
class ErrorModel:
    """Coverage → perturbation-probability curve.

    ``probability = clamp(base + slope * (1 - coverage) ** power)``.
    Defaults are calibrated so the Figure-2b difficulty profile emerges.
    """

    base: float = 0.28
    slope: float = 1.6
    power: float = 1.6
    syntax_share: float = 0.18  # share of perturbations that break syntax

    def probability(self, coverage: float) -> float:
        raw = self.base + self.slope * max(0.0, 1.0 - coverage) ** self.power
        return max(0.0, min(0.97, raw))


# ---------------------------------------------------------------------------
# Keyword synonym groups
# ---------------------------------------------------------------------------

def _g(*words: str) -> frozenset[str]:
    return frozenset(words)


K_COUNT = _g("how many", "number of", "count", "total")
K_LIST = _g("list", "which", "what are", "show", "give", "what is", "what", "who")
K_TOP = _g("top", "most", "largest", "biggest", "highest", "best ranked", "leading")
K_COUNTRY_LOC = _g("country", "registered", "based", "located", "headquartered")
K_POPULATION = _g("population", "percentage", "percent", "share", "serves", "eyeball users")
K_PREFIX = _g("prefix", "prefixes", "announce", "announces", "originate", "originates", "originated")
K_RANK = _g("rank", "ranked", "ranking", "asrank", "position")
K_IXP = _g("ixp", "ixps", "internet exchange", "exchange point", "exchanges")
K_MEMBER = _g("member", "members", "membership", "present at", "connected")
K_ORG = _g("organization", "organisation", "company", "operator", "manages", "managed", "operates", "runs")
K_TAG = _g("tag", "tags", "tagged", "categorized", "classified", "category")
K_PEER = _g("peer", "peers", "peering", "neighbors", "neighbours")
K_DEPEND = _g("depend", "depends", "dependent", "dependencies", "hegemony", "rely", "relies")
K_CUSTOMER = _g("customer", "customers", "downstream")
K_PROVIDER = _g("provider", "providers", "upstream", "transit provider")
K_NAME = _g("name", "named", "called", "known as")
K_DOMAIN = _g("domain", "domains", "website", "websites", "site", "sites")
K_RESOLVE = _g("resolve", "resolves", "resolution", "ip address", "ip addresses", "points to")
K_HOST = _g("hostname", "hostnames", "host name", "subdomain", "subdomains", "hosts")
K_PROBE = _g("probe", "probes", "atlas")
K_FACILITY = _g("facility", "facilities", "data center", "datacenter", "data centre", "colocation")
K_WEBSITE = _g("website", "url", "web page", "homepage")
K_AS_WORD = _g("as", "ases", "asn", "autonomous system", "autonomous systems", "network", "networks")
K_THRESHOLD = _g("above", "over", "more than", "greater than", "at least")


def _quote(value: str) -> str:
    return "'" + value.replace("\\", "\\\\").replace("'", "\\'") + "'"


# ---------------------------------------------------------------------------
# Intent bank
# ---------------------------------------------------------------------------

Builder = Callable[[ExtractedEntities], str]


@dataclass(frozen=True)
class Intent:
    """One recognisable question shape."""

    name: str
    groups: tuple[frozenset[str], ...]
    requires: tuple[str, ...]
    builder: Builder
    priority: int = 0


def _build_intents() -> list[Intent]:
    intents: list[Intent] = []

    def add(name, groups, requires, priority=0):
        def decorator(builder: Builder) -> Builder:
            intents.append(Intent(name, tuple(groups), tuple(requires), builder, priority))
            return builder

        return decorator

    # ---- AS-centric, single hop (easy) --------------------------------

    @add("as_country", [K_COUNTRY_LOC], ["asns"])
    def _as_country(e):
        return (
            f"MATCH (a:AS {{asn: {e.asns[0]}}})-[:COUNTRY]->(c:Country) "
            "RETURN c.name AS country"
        )

    @add("as_population_share", [K_POPULATION], ["asns", "countries"], priority=4)
    def _as_population(e):
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[p:POPULATION]->"
            f"(:Country {{country_code: {_quote(e.countries[0])}}}) "
            "RETURN p.percent AS percent"
        )

    @add("as_prefix_count", [K_COUNT, K_PREFIX], ["asns"], priority=2)
    def _as_prefix_count(e):
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[:ORIGINATE]->(p:Prefix) "
            "RETURN count(p) AS prefixes"
        )

    @add("as_prefix_list", [K_PREFIX], ["asns"])
    def _as_prefix_list(e):
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[:ORIGINATE]->(p:Prefix) "
            "RETURN p.prefix AS prefix ORDER BY prefix"
        )

    @add("prefix_origin", [K_PREFIX], ["prefixes"], priority=3)
    def _prefix_origin(e):
        return (
            f"MATCH (a:AS)-[:ORIGINATE]->(:Prefix {{prefix: {_quote(e.prefixes[0])}}}) "
            "RETURN a.asn AS asn, a.name AS name"
        )

    @add("as_name", [K_NAME], ["asns"])
    def _as_name(e):
        return f"MATCH (a:AS {{asn: {e.asns[0]}}}) RETURN a.name AS name"

    @add("as_rank", [K_RANK], ["asns"], priority=1)
    def _as_rank(e):
        ranking = e.rankings[0] if e.rankings else "CAIDA ASRank"
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[r:RANK]->"
            f"(:Ranking {{name: {_quote(ranking)}}}) RETURN r.rank AS rank"
        )

    @add("as_ixps", [K_IXP], ["asns"], priority=1)
    def _as_ixps(e):
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[:MEMBER_OF]->(i:IXP) "
            "RETURN i.name AS ixp ORDER BY ixp"
        )

    @add("as_org", [K_ORG], ["asns"], priority=1)
    def _as_org(e):
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[:MANAGED_BY]->(o:Organization) "
            "RETURN o.name AS organization"
        )

    @add("as_tags", [K_TAG], ["asns"], priority=1)
    def _as_tags(e):
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[:CATEGORIZED]->(t:Tag) "
            "RETURN t.label AS tag ORDER BY tag"
        )

    @add("as_website", [K_WEBSITE], ["asns"], priority=2)
    def _as_website(e):
        return f"MATCH (:AS {{asn: {e.asns[0]}}})-[:WEBSITE]->(u:URL) RETURN u.url AS url"

    @add("as_peer_count", [K_COUNT, K_PEER], ["asns"], priority=2)
    def _as_peer_count(e):
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[:PEERS_WITH]-(b:AS) "
            "RETURN count(DISTINCT b) AS peers"
        )

    @add("as_peers_list", [K_PEER], ["asns"])
    def _as_peers(e):
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[:PEERS_WITH]-(b:AS) "
            "RETURN DISTINCT b.asn AS asn ORDER BY asn"
        )

    @add("as_providers", [K_PROVIDER], ["asns"], priority=2)
    def _as_providers(e):
        return (
            f"MATCH (p:AS)-[:PEERS_WITH {{rel: -1}}]->(:AS {{asn: {e.asns[0]}}}) "
            "RETURN p.asn AS asn, p.name AS name ORDER BY asn"
        )

    @add("as_customers", [K_CUSTOMER], ["asns"], priority=2)
    def _as_customers(e):
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[:PEERS_WITH {{rel: -1}}]->(c:AS) "
            "RETURN c.asn AS asn ORDER BY asn"
        )

    @add("as_dependencies", [K_DEPEND], ["asns"])
    def _as_dependencies(e):
        threshold = ""
        numbers = [n for n in e.numbers if isinstance(n, float) or 0 < n < 1]
        if numbers:
            threshold = f" WHERE d.hege > {numbers[0]}"
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[d:DEPENDS_ON]->(t:AS)"
            f"{threshold} RETURN t.asn AS asn, d.hege AS hegemony "
            "ORDER BY hegemony DESC"
        )

    @add("as_dependents", [K_DEPEND, _g("on as", "on it", "dependent on")], ["asns"], priority=3)
    def _as_dependents(e):
        threshold = ""
        numbers = [n for n in e.numbers if isinstance(n, float) or 0 < n < 1]
        if numbers:
            threshold = f" WHERE d.hege > {numbers[0]}"
        return (
            f"MATCH (s:AS)-[d:DEPENDS_ON]->(:AS {{asn: {e.asns[0]}}})"
            f"{threshold} RETURN s.asn AS asn, d.hege AS hegemony "
            "ORDER BY hegemony DESC"
        )

    @add("as_probes", [K_PROBE], ["asns"], priority=1)
    def _as_probes(e):
        return (
            f"MATCH (p:AtlasProbe)-[:LOCATED_IN]->(:AS {{asn: {e.asns[0]}}}) "
            "RETURN count(p) AS probes"
        )

    # ---- Country-centric ------------------------------------------------

    @add("country_as_count", [K_COUNT, K_AS_WORD], ["countries"], priority=1)
    def _country_as_count(e):
        return (
            f"MATCH (a:AS)-[:COUNTRY]->(:Country {{country_code: {_quote(e.countries[0])}}}) "
            "RETURN count(a) AS ases"
        )

    @add("country_as_list", [K_LIST, K_AS_WORD], ["countries"])
    def _country_as_list(e):
        return (
            f"MATCH (a:AS)-[:COUNTRY]->(:Country {{country_code: {_quote(e.countries[0])}}}) "
            "RETURN a.asn AS asn ORDER BY asn"
        )

    @add("country_top_prefix_as", [K_TOP, K_PREFIX], ["countries"], priority=3)
    def _country_top_prefix_as(e):
        return (
            f"MATCH (a:AS)-[:COUNTRY]->(:Country {{country_code: {_quote(e.countries[0])}}}) "
            "MATCH (a)-[:ORIGINATE]->(p:Prefix) "
            "RETURN a.asn AS asn, a.name AS name, count(p) AS prefixes "
            "ORDER BY prefixes DESC LIMIT 1"
        )

    @add("country_ixps", [K_IXP], ["countries"], priority=1)
    def _country_ixps(e):
        return (
            f"MATCH (i:IXP)-[:COUNTRY]->(:Country {{country_code: {_quote(e.countries[0])}}}) "
            "RETURN i.name AS ixp ORDER BY ixp"
        )

    @add("country_probes", [K_PROBE], ["countries"], priority=1)
    def _country_probes(e):
        return (
            f"MATCH (p:AtlasProbe)-[:COUNTRY]->(:Country {{country_code: {_quote(e.countries[0])}}}) "
            "RETURN count(p) AS probes"
        )

    @add("country_population_value", [K_POPULATION], ["countries"])
    def _country_population(e):
        return (
            f"MATCH (c:Country {{country_code: {_quote(e.countries[0])}}}) "
            "RETURN c.population AS population"
        )

    @add("country_top_population_as", [K_TOP, K_POPULATION], ["countries"], priority=4)
    def _country_top_population_as(e):
        return (
            f"MATCH (a:AS)-[p:POPULATION]->(:Country {{country_code: {_quote(e.countries[0])}}}) "
            "RETURN a.asn AS asn, a.name AS name, p.percent AS percent "
            "ORDER BY percent DESC LIMIT 1"
        )

    # ---- IXP-centric -----------------------------------------------------

    @add("ixp_members_count", [K_COUNT, K_MEMBER], ["ixps"], priority=2)
    def _ixp_members_count(e):
        return (
            f"MATCH (a:AS)-[:MEMBER_OF]->(:IXP {{name: {_quote(e.ixps[0])}}}) "
            "RETURN count(a) AS members"
        )

    @add("ixp_members_list", [K_MEMBER], ["ixps"])
    def _ixp_members_list(e):
        return (
            f"MATCH (a:AS)-[:MEMBER_OF]->(:IXP {{name: {_quote(e.ixps[0])}}}) "
            "RETURN a.asn AS asn ORDER BY asn"
        )

    @add("ixp_facility", [K_FACILITY], ["ixps"], priority=2)
    def _ixp_facility(e):
        return (
            f"MATCH (:IXP {{name: {_quote(e.ixps[0])}}})-[:LOCATED_IN]->(f:Facility) "
            "RETURN f.name AS facility"
        )

    @add("ixp_country", [K_COUNTRY_LOC], ["ixps"], priority=1)
    def _ixp_country(e):
        return (
            f"MATCH (:IXP {{name: {_quote(e.ixps[0])}}})-[:COUNTRY]->(c:Country) "
            "RETURN c.name AS country"
        )

    # ---- Tag / organization ----------------------------------------------

    @add("tag_as_count", [K_COUNT, K_TAG], ["tags"], priority=2)
    def _tag_as_count(e):
        return (
            f"MATCH (a:AS)-[:CATEGORIZED]->(:Tag {{label: {_quote(e.tags[0])}}}) "
            "RETURN count(a) AS ases"
        )

    @add("tag_as_list", [K_TAG], ["tags"])
    def _tag_as_list(e):
        return (
            f"MATCH (a:AS)-[:CATEGORIZED]->(:Tag {{label: {_quote(e.tags[0])}}}) "
            "RETURN a.asn AS asn ORDER BY asn"
        )

    @add("org_country", [K_COUNTRY_LOC], ["organizations"])
    def _org_country(e):
        return (
            f"MATCH (:Organization {{name: {_quote(e.organizations[0])}}})-[:COUNTRY]->(c:Country) "
            "RETURN c.name AS country"
        )

    @add("org_ases", [K_AS_WORD], ["organizations"], priority=1)
    def _org_ases(e):
        return (
            f"MATCH (a:AS)-[:MANAGED_BY]->(:Organization {{name: {_quote(e.organizations[0])}}}) "
            "RETURN a.asn AS asn ORDER BY asn"
        )

    # ---- Domains -----------------------------------------------------------

    @add("domain_rank", [K_RANK], ["domains"], priority=1)
    def _domain_rank(e):
        ranking = e.rankings[0] if e.rankings else "Tranco Top 1M"
        return (
            f"MATCH (:DomainName {{name: {_quote(e.domains[0])}}})-[r:RANK]->"
            f"(:Ranking {{name: {_quote(ranking)}}}) RETURN r.rank AS rank"
        )

    @add("top_domains", [K_TOP, K_DOMAIN], [], priority=1)
    def _top_domains(e):
        limit = int(e.numbers[0]) if e.numbers else 10
        ranking = e.rankings[0] if e.rankings else "Tranco Top 1M"
        return (
            f"MATCH (d:DomainName)-[r:RANK]->(:Ranking {{name: {_quote(ranking)}}}) "
            f"RETURN d.name AS domain ORDER BY r.rank LIMIT {limit}"
        )

    @add("domain_resolve", [K_RESOLVE], ["domains"], priority=2)
    def _domain_resolve(e):
        return (
            f"MATCH (:DomainName {{name: {_quote(e.domains[0])}}})-[:RESOLVES_TO]->(i:IP) "
            "RETURN i.ip AS ip ORDER BY ip"
        )

    @add("domain_hosts", [K_HOST], ["domains"], priority=1)
    def _domain_hosts(e):
        return (
            f"MATCH (h:HostName)-[:PART_OF]->(:DomainName {{name: {_quote(e.domains[0])}}}) "
            "RETURN h.name AS hostname ORDER BY hostname"
        )

    # ---- Compound (the multi-hop shapes the parser does know) -------------

    @add("peers_population", [K_PEER, K_POPULATION], ["asns", "countries"], priority=6)
    def _peers_population(e):
        return (
            f"MATCH (:AS {{asn: {e.asns[0]}}})-[:PEERS_WITH]-(b:AS)"
            f"-[p:POPULATION]->(:Country {{country_code: {_quote(e.countries[0])}}}) "
            "RETURN round(sum(p.percent), 1) AS percent"
        )

    @add("tag_orgs", [K_ORG, K_TAG], ["tags"], priority=5)
    def _tag_orgs(e):
        return (
            "MATCH (o:Organization)<-[:MANAGED_BY]-(a:AS)-[:CATEGORIZED]->"
            f"(:Tag {{label: {_quote(e.tags[0])}}}) "
            "RETURN DISTINCT o.name AS organization ORDER BY organization"
        )

    @add("country_ixp_members", [K_MEMBER, K_IXP], ["countries"], priority=5)
    def _country_ixp_members(e):
        return (
            "MATCH (a:AS)-[:MEMBER_OF]->(i:IXP)-[:COUNTRY]->"
            f"(:Country {{country_code: {_quote(e.countries[0])}}}) "
            "RETURN DISTINCT a.asn AS asn ORDER BY asn"
        )

    @add("domain_origin_as", [K_RESOLVE, K_PREFIX], ["domains"], priority=6)
    def _domain_origin_as(e):
        return (
            f"MATCH (:DomainName {{name: {_quote(e.domains[0])}}})-[:RESOLVES_TO]->(:IP)"
            "-[:PART_OF]->(:Prefix)<-[:ORIGINATE]-(a:AS) "
            "RETURN DISTINCT a.asn AS asn ORDER BY asn"
        )

    @add("ixp_member_dependents", [K_MEMBER, K_DEPEND], ["ixps", "asns"], priority=6)
    def _ixp_member_dependents(e):
        return (
            f"MATCH (m:AS)-[:MEMBER_OF]->(:IXP {{name: {_quote(e.ixps[0])}}}) "
            f"MATCH (m)-[:DEPENDS_ON]->(:AS {{asn: {e.asns[0]}}}) "
            "RETURN count(DISTINCT m) AS members"
        )

    return intents


INTENTS: list[Intent] = _build_intents()
INTENT_NAMES: list[str] = [intent.name for intent in INTENTS]


# ---------------------------------------------------------------------------
# Matching machinery
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset(keyword for intent in INTENTS for group in intent.groups
                      for keyword in group)
#: multi-word keywords, matched as substrings of the normalized question
_PHRASES = tuple(sorted(keyword for keyword in _KEYWORDS if " " in keyword))
#: single-word keywords; every one is a run of ``[a-z0-9]``
_WORDS = _KEYWORDS.difference(_PHRASES)
_KEYWORD_TOKENS = {keyword: word_tokenize(keyword) for keyword in _KEYWORDS}
_ALNUM_RE = re.compile(r"[a-z0-9]+")
#: the entity kinds some intent requires
_ENTITY_KINDS = tuple(sorted({kind for intent in INTENTS for kind in intent.requires}))


def _keywords_in(normalized: str) -> frozenset[str]:
    """The bank's keywords that a normalized question contains.

    A normalized question is space-joined ``word_tokenize`` tokens, so its
    only word characters are ``[a-z0-9]``, and a single-word keyword lies
    between word boundaries exactly when it is one of the question's
    alphanumeric runs.  A multi-word keyword is a substring.
    """
    present = _WORDS.intersection(_ALNUM_RE.findall(normalized))
    return present.union(phrase for phrase in _PHRASES if phrase in normalized)


def _matched_keywords(
    present: frozenset[str], groups: tuple[frozenset[str], ...]
) -> Optional[list[str]]:
    """For each group, its synonyms among the ``present`` keywords; None when
    any group has none."""
    matched: list[str] = []
    for group in groups:
        hits = [keyword for keyword in group if keyword in present]
        if not hits:
            return None
        matched.extend(hits)
    return matched


class TextToCypherModel:
    """The simulated LLM's text-to-Cypher head."""

    def __init__(
        self,
        gazetteer: Optional[Gazetteer] = None,
        seed: int = 0,
        error_model: Optional[ErrorModel] = None,
    ) -> None:
        self.extractor = EntityExtractor(gazetteer)
        self.seed = seed
        self.error_model = error_model or ErrorModel()
        # ISO code -> the gazetteer's first name for it longer than a code
        self._country_names: dict[str, str] = {}
        for key, code in self.extractor.gazetteer.countries.items():
            if len(key) > 3:
                self._country_names.setdefault(code, key)

    # -- public ----------------------------------------------------------

    def generate(self, question: str) -> CypherGeneration:
        """Translate ``question`` into Cypher (possibly wrong, possibly None)."""
        tokens = word_tokenize(question)
        keywords = _keywords_in(" " + " ".join(tokens) + " ")
        entities = self.extractor.extract(question)
        kinds = {kind for kind in _ENTITY_KINDS if getattr(entities, kind)}

        best: Optional[Intent] = None
        best_score = -1.0
        best_matched: list[str] = []
        for intent in INTENTS:
            if not kinds.issuperset(intent.requires):
                continue
            matched = _matched_keywords(keywords, intent.groups)
            if matched is None:
                continue
            score = 2.0 * len(intent.groups) + intent.priority + 0.5 * len(intent.requires)
            if score > best_score:
                best_score = score
                best = intent
                best_matched = matched

        if best is None:
            return CypherGeneration(cypher=None, confidence=0.0, intent=None, coverage=0.0)

        coverage = self._coverage(tokens, best_matched, entities)
        cypher = best.builder(entities)
        rng = self._rng(question)
        probability = self.error_model.probability(coverage)
        perturbation = None
        if rng.random() < probability:
            cypher, perturbation = self._perturb(cypher, entities, rng)
        confidence = round(max(0.05, min(0.99, coverage * (1.0 - 0.3 * bool(perturbation)))), 3)
        return CypherGeneration(
            cypher=cypher,
            confidence=confidence,
            intent=best.name,
            perturbation=perturbation,
            coverage=round(coverage, 3),
        )

    # -- internals --------------------------------------------------------

    def _rng(self, question: str) -> random.Random:
        digest = hashlib.md5(f"{self.seed}:{question}".encode()).digest()
        return random.Random(int.from_bytes(digest[:8], "little"))

    def _coverage(
        self, tokens: list[str], matched_keywords: list[str], entities: ExtractedEntities
    ) -> float:
        """Fraction of the question's content ``tokens`` the matched intent explains."""
        if not tokens:
            return 0.0
        explained: set[str] = set()
        for keyword in matched_keywords:
            explained.update(_KEYWORD_TOKENS[keyword])
        for values in (
            entities.prefixes, entities.ips, entities.domains, entities.ixps,
            entities.tags, entities.organizations, entities.rankings,
        ):
            for value in values:
                explained.update(word_tokenize(str(value)))
        for asn in entities.asns:
            explained.add(str(asn))
            explained.add(f"as{asn}")
        for code in entities.countries:
            explained.add(code.lower())
            name = self._country_names.get(code)
            if name:
                explained.update(word_tokenize(name))
        for number in entities.numbers:
            explained.add(str(int(number) if float(number).is_integer() else number))

        content = [token for token in tokens if token not in STOPWORDS]
        if not content:
            return 1.0
        covered = sum(1 for token in content if token in explained)
        return covered / len(content)

    # -- perturbations ------------------------------------------------------

    _RELTYPE_CONFUSION = {
        "COUNTRY": "POPULATION",
        "POPULATION": "COUNTRY",
        "ORIGINATE": "DEPENDS_ON",
        "DEPENDS_ON": "PEERS_WITH",
        "PEERS_WITH": "DEPENDS_ON",
        "MEMBER_OF": "MANAGED_BY",
        "MANAGED_BY": "MEMBER_OF",
        "RESOLVES_TO": "PART_OF",
        "PART_OF": "RESOLVES_TO",
        "CATEGORIZED": "NAME",
        "RANK": "CATEGORIZED",
        "LOCATED_IN": "COUNTRY",
        "WEBSITE": "NAME",
        "NAME": "WEBSITE",
    }

    def _perturb(
        self, cypher: str, entities: ExtractedEntities, rng: random.Random
    ) -> tuple[str, str]:
        """Damage a query the way an over-confident LLM does."""
        kinds = ["wrong_reltype", "wrong_direction", "drop_filter", "wrong_entity"]
        weights = [0.30, 0.22, 0.25, 0.23]
        if rng.random() < self.error_model.syntax_share:
            return self._break_syntax(cypher, rng), "syntax_error"
        for _ in range(4):
            kind = rng.choices(kinds, weights=weights, k=1)[0]
            mutated = getattr(self, f"_perturb_{kind}")(cypher, entities, rng)
            if mutated is not None and mutated != cypher:
                return mutated, kind
        return self._break_syntax(cypher, rng), "syntax_error"

    def _perturb_wrong_reltype(self, cypher, entities, rng) -> Optional[str]:
        present = [rel for rel in self._RELTYPE_CONFUSION if f":{rel}" in cypher]
        if not present:
            return None
        target = rng.choice(present)
        return cypher.replace(f":{target}", f":{self._RELTYPE_CONFUSION[target]}", 1)

    def _perturb_wrong_direction(self, cypher, entities, rng) -> Optional[str]:
        if "]->(" in cypher:
            return cypher.replace("]->(", "]-(", 1).replace(")-[", ")<-[", 1)
        if ")<-[" in cypher:
            return cypher.replace(")<-[", ")-[", 1).replace("]-(", "]->(", 1)
        return None

    def _perturb_drop_filter(self, cypher, entities, rng) -> Optional[str]:
        match = re.search(r" \{[^{}]*\}", cypher)
        if match is None:
            return None
        return cypher[: match.start()] + cypher[match.end() :]

    def _perturb_wrong_entity(self, cypher, entities, rng) -> Optional[str]:
        if entities.asns:
            asn = entities.asns[0]
            return cypher.replace(f"asn: {asn}", f"asn: {asn + rng.randint(1, 9)}", 1)
        if entities.countries:
            code = entities.countries[0]
            other = rng.choice(["US", "DE", "FR", "GB", "CN", "BR"])
            if other == code:
                other = "JP"
            return cypher.replace(f"'{code}'", f"'{other}'", 1)
        return None

    def _break_syntax(self, cypher: str, rng: random.Random) -> str:
        choice = rng.randint(0, 2)
        if choice == 0:
            return cypher.replace("RETURN", "RETRUN", 1)
        if choice == 1 and ")" in cypher:
            index = cypher.rindex(")")
            return cypher[:index] + cypher[index + 1 :]
        return cypher.replace("MATCH", "MATCHE", 1)
