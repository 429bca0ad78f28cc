"""Synthetic IYP graph generator.

Builds a seeded, deterministic Internet Yellow Pages knowledge graph with
realistic structure:

* AS sizes follow a power law; large ASes originate more prefixes, peer
  more, and appear at better ranks.
* A transit hierarchy (full-mesh tier-1 core, customer-provider edges) is
  generated for ``PEERS_WITH`` / ``DEPENDS_ON``.
* APNIC-style eyeball population shares per country (``POPULATION
  {percent}``), anchored so the paper's §1 example — Japan's population in
  AS2497 — resolves to a stable value.

The generator substitutes the public IYP dumps the paper queries; see
DESIGN.md for the substitution rationale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Optional

from ..graph.model import Node
from ..graph.store import GraphStore, _bulk_build
from .names import (
    COUNTRIES,
    DOMAIN_TLDS,
    DOMAIN_WORDS,
    FACILITY_CITIES,
    IXP_NAMES,
    ORG_SUFFIXES,
    RANKING_NAMES,
    TAG_LABELS,
    WELL_KNOWN_ASES,
)
from .schema import NodeLabel, RelType

__all__ = ["IYPConfig", "IYPDataset", "generate_iyp", "AS2497_JP_PERCENT"]

# The §1 anchor: Japan's population share served by AS2497 (IIJ).
AS2497_JP_PERCENT = 5.3


@dataclass
class IYPConfig:
    """Size and seed knobs for the synthetic IYP graph."""

    seed: int = 42
    n_ases: int = 400
    n_prefixes: int = 1200
    n_ips: int = 800
    n_domains: int = 250
    n_hostnames: int = 150
    n_organizations: int = 120
    n_probes: int = 80
    n_tier1: int = 8
    population_ases_per_country: int = 6

    @classmethod
    def small(cls, seed: int = 42) -> "IYPConfig":
        """A few hundred nodes — fast unit-test graphs."""
        return cls(
            seed=seed, n_ases=80, n_prefixes=150, n_ips=100, n_domains=40,
            n_hostnames=25, n_organizations=30, n_probes=15, n_tier1=5,
            population_ases_per_country=4,
        )

    @classmethod
    def medium(cls, seed: int = 42) -> "IYPConfig":
        """The default evaluation graph (thousands of nodes)."""
        return cls(seed=seed)

    @classmethod
    def large(cls, seed: int = 42) -> "IYPConfig":
        """Benchmark-scale graph (tens of thousands of nodes)."""
        return cls(
            seed=seed, n_ases=2000, n_prefixes=8000, n_ips=6000,
            n_domains=1500, n_hostnames=900, n_organizations=600,
            n_probes=400, n_tier1=12, population_ases_per_country=8,
        )


@dataclass
class IYPDataset:
    """A generated graph plus entity handles for question templating."""

    store: GraphStore
    config: IYPConfig
    as_nodes: dict[int, Node] = field(default_factory=dict)
    as_names: dict[int, str] = field(default_factory=dict)
    as_country: dict[int, str] = field(default_factory=dict)
    as_size: dict[int, float] = field(default_factory=dict)
    country_nodes: dict[str, Node] = field(default_factory=dict)
    country_names: dict[str, str] = field(default_factory=dict)
    ixp_nodes: dict[str, Node] = field(default_factory=dict)
    org_nodes: dict[str, Node] = field(default_factory=dict)
    prefix_nodes: dict[str, Node] = field(default_factory=dict)
    prefix_origin: dict[str, int] = field(default_factory=dict)
    domain_nodes: dict[str, Node] = field(default_factory=dict)
    tag_nodes: dict[str, Node] = field(default_factory=dict)
    ranking_nodes: dict[str, Node] = field(default_factory=dict)
    population_share: dict[tuple[int, str], float] = field(default_factory=dict)

    @property
    def asns(self) -> list[int]:
        return sorted(self.as_nodes)

    @property
    def country_codes(self) -> list[str]:
        return sorted(self.country_nodes)

    @property
    def prefixes(self) -> list[str]:
        return sorted(self.prefix_nodes)

    @property
    def domains(self) -> list[str]:
        return sorted(self.domain_nodes)

    @property
    def tags(self) -> list[str]:
        return sorted(self.tag_nodes)

    @property
    def ixps(self) -> list[str]:
        return sorted(self.ixp_nodes)


def generate_iyp(config: Optional[IYPConfig] = None) -> IYPDataset:
    """Generate a complete synthetic IYP graph.

    Deterministic in ``config.seed``: the same configuration always yields
    byte-identical graphs.  Time is linear in graph size: weighted draws
    bisect cumulative weights computed once per build step.  The build runs
    with the cyclic GC paused, and the finished graph is frozen out of its
    scans (see :func:`~repro.graph.store._bulk_build`).
    """
    config = config or IYPConfig()
    rng = random.Random(config.seed)
    with _bulk_build():
        store = GraphStore()
        dataset = IYPDataset(store=store, config=config)

        _build_countries(dataset)
        _build_tags(dataset)
        _build_rankings(dataset)
        _build_ases(dataset, rng)
        _build_organizations(dataset, rng)
        _build_facilities_and_ixps(dataset, rng)
        _build_topology(dataset, rng)
        _build_prefixes_and_ips(dataset, rng)
        _build_domains(dataset, rng)
        _build_population(dataset, rng)
        _build_ranks(dataset, rng)
        _build_probes(dataset, rng)
        _build_indexes(dataset)
    return dataset


# ---------------------------------------------------------------------------
# Build steps
# ---------------------------------------------------------------------------

def _build_countries(dataset: IYPDataset) -> None:
    for code, name, population_millions in COUNTRIES:
        node = dataset.store.create_node(
            [NodeLabel.COUNTRY],
            {
                "country_code": code,
                "name": name,
                "population": int(population_millions * 1_000_000),
            },
        )
        dataset.country_nodes[code] = node
        dataset.country_names[code] = name


def _build_tags(dataset: IYPDataset) -> None:
    for label in TAG_LABELS:
        dataset.tag_nodes[label] = dataset.store.create_node(
            [NodeLabel.TAG], {"label": label}
        )


def _build_rankings(dataset: IYPDataset) -> None:
    for name in RANKING_NAMES:
        dataset.ranking_nodes[name] = dataset.store.create_node(
            [NodeLabel.RANKING], {"name": name}
        )


def _pareto_size(rng: random.Random) -> float:
    """Power-law AS 'size' weight (degree/prefix propensity)."""
    return min(rng.paretovariate(1.2), 500.0)


def _build_ases(dataset: IYPDataset, rng: random.Random) -> None:
    store = dataset.store
    country_codes = [code for code, _, _ in COUNTRIES]

    def add_as(asn: int, name: str, country_code: str, size: float) -> None:
        node = store.create_node([NodeLabel.AS], {"asn": asn, "name": name})
        dataset.as_nodes[asn] = node
        dataset.as_names[asn] = name
        dataset.as_country[asn] = country_code
        dataset.as_size[asn] = size
        name_node = store.create_node([NodeLabel.NAME], {"name": name})
        store.create_relationship(node.node_id, RelType.NAME, name_node.node_id)
        store.create_relationship(
            node.node_id, RelType.COUNTRY, dataset.country_nodes[country_code].node_id
        )

    for asn, name, country_code in WELL_KNOWN_ASES[: dataset.config.n_ases]:
        # Well-known networks are the big ones; give them heavy sizes.
        add_as(asn, name, country_code, 40.0 + 200.0 * rng.random())

    synthetic_needed = max(0, dataset.config.n_ases - len(WELL_KNOWN_ASES))
    used_asns = set(dataset.as_nodes)
    for _ in range(synthetic_needed):
        asn = rng.randint(1000, 400000)
        while asn in used_asns:
            asn = rng.randint(1000, 400000)
        used_asns.add(asn)
        country_code = rng.choice(country_codes)
        word = rng.choice(DOMAIN_WORDS).capitalize()
        suffix = rng.choice(ORG_SUFFIXES)
        add_as(asn, f"{word} {suffix} AS{asn}", country_code, _pareto_size(rng))

    # Tag ASes: biggest get transit/CDN tags, many get eyeball/enterprise.
    ranked = sorted(dataset.as_size, key=dataset.as_size.get, reverse=True)
    for position, asn in enumerate(ranked):
        node = dataset.as_nodes[asn]
        if position < dataset.config.n_tier1 * 2:
            tag = "Transit Provider"
        elif dataset.as_names[asn].split()[0] in (
            "GOOGLE", "CLOUDFLARENET", "AKAMAI-ASN1", "FASTLY", "AMAZON-02",
            "MICROSOFT-CORP", "FACEBOOK", "NETFLIX",
        ):
            tag = "Content Delivery Network"
        elif rng.random() < 0.45:
            tag = "Eyeball"
        elif rng.random() < 0.4:
            tag = "Enterprise"
        else:
            tag = rng.choice(TAG_LABELS)
        dataset.store.create_relationship(
            node.node_id, RelType.CATEGORIZED, dataset.tag_nodes[tag].node_id
        )
        if rng.random() < 0.25:
            extra = rng.choice(TAG_LABELS)
            if extra != tag:
                dataset.store.create_relationship(
                    node.node_id, RelType.CATEGORIZED, dataset.tag_nodes[extra].node_id
                )


def _build_organizations(dataset: IYPDataset, rng: random.Random) -> None:
    store = dataset.store
    orgs: list[Node] = []
    for i in range(dataset.config.n_organizations):
        word = rng.choice(DOMAIN_WORDS).capitalize()
        suffix = rng.choice(ORG_SUFFIXES)
        name = f"{word} {suffix}"
        if name in dataset.org_nodes:
            name = f"{name} {i}"
        country_code = rng.choice(list(dataset.country_nodes))
        node = store.create_node([NodeLabel.ORGANIZATION], {"name": name})
        dataset.org_nodes[name] = node
        orgs.append(node)
        store.create_relationship(
            node.node_id, RelType.COUNTRY, dataset.country_nodes[country_code].node_id
        )
        name_node = store.create_node([NodeLabel.NAME], {"name": name})
        store.create_relationship(node.node_id, RelType.NAME, name_node.node_id)
    # Every AS is managed by some organization.
    for asn, as_node in dataset.as_nodes.items():
        org = rng.choice(orgs)
        store.create_relationship(as_node.node_id, RelType.MANAGED_BY, org.node_id)
        if rng.random() < 0.5:
            url = store.create_node(
                [NodeLabel.URL],
                {"url": f"https://as{asn}.example.net"},
            )
            store.create_relationship(as_node.node_id, RelType.WEBSITE, url.node_id)


def _build_facilities_and_ixps(dataset: IYPDataset, rng: random.Random) -> None:
    store = dataset.store
    facilities: dict[str, Node] = {}
    for city, country_code in FACILITY_CITIES:
        if country_code not in dataset.country_nodes:
            continue
        node = store.create_node(
            [NodeLabel.FACILITY], {"name": f"{city} Data Center"}
        )
        facilities[city] = node
        store.create_relationship(
            node.node_id, RelType.COUNTRY, dataset.country_nodes[country_code].node_id
        )
    org_list = list(dataset.org_nodes.values())
    for name, country_code in IXP_NAMES:
        if country_code not in dataset.country_nodes:
            continue
        node = store.create_node([NodeLabel.IXP], {"name": name})
        dataset.ixp_nodes[name] = node
        store.create_relationship(
            node.node_id, RelType.COUNTRY, dataset.country_nodes[country_code].node_id
        )
        if org_list:
            store.create_relationship(
                node.node_id, RelType.MANAGED_BY, rng.choice(org_list).node_id
            )
        same_country = [
            facility
            for (city, cc2), facility in zip(FACILITY_CITIES, facilities.values())
            if cc2 == country_code
        ]
        if same_country:
            store.create_relationship(
                node.node_id, RelType.LOCATED_IN, rng.choice(same_country).node_id
            )
    # IXP membership: probability grows with AS size.
    ixp_list = list(dataset.ixp_nodes.values())
    if not ixp_list:
        return
    max_size = max(dataset.as_size.values())
    for asn, as_node in dataset.as_nodes.items():
        share = dataset.as_size[asn] / max_size
        memberships = rng.sample(
            ixp_list, k=min(len(ixp_list), 1 + int(share * 8))
        ) if rng.random() < 0.25 + 0.7 * share else []
        for ixp in memberships:
            store.create_relationship(as_node.node_id, RelType.MEMBER_OF, ixp.node_id)


def _build_topology(dataset: IYPDataset, rng: random.Random) -> None:
    """CAIDA-style AS relationships plus IHR-style AS dependencies."""
    store = dataset.store
    ranked = sorted(dataset.as_size, key=dataset.as_size.get, reverse=True)
    tier1 = ranked[: dataset.config.n_tier1]
    # Full-mesh peering among the tier-1 clique (rel = 0).
    for i, left in enumerate(tier1):
        for right in tier1[i + 1 :]:
            store.create_relationship(
                dataset.as_nodes[left].node_id,
                RelType.PEERS_WITH,
                dataset.as_nodes[right].node_id,
                {"rel": 0},
            )
    # Everyone else picks 1-3 providers among larger networks (rel = -1,
    # provider -> customer, CAIDA convention).
    providers: dict[int, list[int]] = {asn: [] for asn in ranked}
    # Candidates are always a prefix of ``ranked``, so one running sum serves
    # every draw; ``choices`` bisects it exactly as it would the weights'.
    cum_sizes = list(accumulate(dataset.as_size[asn] for asn in ranked))
    for position, asn in enumerate(ranked[dataset.config.n_tier1 :], start=dataset.config.n_tier1):
        candidates = ranked[: position]
        count = min(len(candidates), rng.randint(1, 3))
        cum_weights = cum_sizes[:position]
        chosen: set[int] = set()
        for _ in range(count):
            pick = rng.choices(candidates, cum_weights=cum_weights, k=1)[0]
            chosen.add(pick)
        for provider in chosen:
            providers[asn].append(provider)
            store.create_relationship(
                dataset.as_nodes[provider].node_id,
                RelType.PEERS_WITH,
                dataset.as_nodes[asn].node_id,
                {"rel": -1},
            )
    # Some lateral peering (rel = 0) between mid-size networks.
    mid = ranked[dataset.config.n_tier1 : dataset.config.n_tier1 + len(ranked) // 3]
    for asn in mid:
        if rng.random() < 0.5 and len(mid) > 1:
            peer = rng.choice(mid)
            if peer != asn:
                store.create_relationship(
                    dataset.as_nodes[asn].node_id,
                    RelType.PEERS_WITH,
                    dataset.as_nodes[peer].node_id,
                    {"rel": 0},
                )
    # DEPENDS_ON: customers depend on their providers (high hegemony) and
    # transitively on tier-1s (lower hegemony).
    for asn in ranked:
        for provider in providers[asn]:
            store.create_relationship(
                dataset.as_nodes[asn].node_id,
                RelType.DEPENDS_ON,
                dataset.as_nodes[provider].node_id,
                {"hege": round(0.3 + 0.7 * rng.random(), 3)},
            )
        if asn not in tier1:
            for t1 in rng.sample(tier1, k=min(2, len(tier1))):
                store.create_relationship(
                    dataset.as_nodes[asn].node_id,
                    RelType.DEPENDS_ON,
                    dataset.as_nodes[t1].node_id,
                    {"hege": round(0.05 + 0.3 * rng.random(), 3)},
                )


def _build_prefixes_and_ips(dataset: IYPDataset, rng: random.Random) -> None:
    store = dataset.store
    asns = list(dataset.as_nodes)
    cum_weights = list(accumulate(dataset.as_size[asn] for asn in asns))
    used: set[str] = set()
    prefix_list: list[str] = []
    for index in range(dataset.config.n_prefixes):
        asn = rng.choices(asns, cum_weights=cum_weights, k=1)[0]
        # Roughly one prefix in six is IPv6, mirroring current table shares.
        if index % 6 == 5:
            prefix = _random_v6_prefix(rng, used)
            address_family = 6
        else:
            prefix = _random_prefix(rng, used)
            address_family = 4
        node = store.create_node(
            [NodeLabel.PREFIX], {"prefix": prefix, "af": address_family}
        )
        dataset.prefix_nodes[prefix] = node
        dataset.prefix_origin[prefix] = asn
        if address_family == 4:
            prefix_list.append(prefix)
        store.create_relationship(
            dataset.as_nodes[asn].node_id, RelType.ORIGINATE, node.node_id
        )
        country_code = dataset.as_country[asn]
        if rng.random() < 0.9:
            store.create_relationship(
                node.node_id, RelType.COUNTRY, dataset.country_nodes[country_code].node_id
            )
        if rng.random() < 0.2:
            tag = rng.choice(list(dataset.tag_nodes))
            store.create_relationship(
                node.node_id, RelType.CATEGORIZED, dataset.tag_nodes[tag].node_id
            )
    # IPs inside random IPv4 prefixes (v6 prefixes stay address-free).
    for _ in range(dataset.config.n_ips):
        prefix = rng.choice(prefix_list)
        base = prefix.split("/")[0].rsplit(".", 1)[0]
        ip = f"{base}.{rng.randint(1, 254)}"
        node = store.create_node([NodeLabel.IP], {"ip": ip, "af": 4})
        store.create_relationship(
            node.node_id, RelType.PART_OF, dataset.prefix_nodes[prefix].node_id
        )


def _random_v6_prefix(rng: random.Random, used: set[str]) -> str:
    while True:
        # Global unicast 2000::/3 space, documentation-style grouping.
        first = rng.choice(["2001", "2400", "2600", "2a00", "2c00"])
        second = f"{rng.randint(0, 0xFFFF):x}"
        length = rng.choice([32, 32, 48])
        if length == 32:
            prefix = f"{first}:{second}::/32"
        else:
            third = f"{rng.randint(0, 0xFFFF):x}"
            prefix = f"{first}:{second}:{third}::/48"
        if prefix not in used:
            used.add(prefix)
            return prefix


def _random_prefix(rng: random.Random, used: set[str]) -> str:
    while True:
        octet1 = rng.randint(1, 223)
        if octet1 in (10, 127, 169, 172, 192):
            continue
        length = rng.choice([16, 20, 22, 24, 24, 24])
        if length == 16:
            prefix = f"{octet1}.{rng.randint(0, 255)}.0.0/16"
        elif length in (20, 22):
            prefix = f"{octet1}.{rng.randint(0, 255)}.{rng.randint(0, 15) * 16}.0/{length}"
        else:
            prefix = f"{octet1}.{rng.randint(0, 255)}.{rng.randint(0, 255)}.0/24"
        if prefix not in used:
            used.add(prefix)
            return prefix


def _build_domains(dataset: IYPDataset, rng: random.Random) -> None:
    store = dataset.store
    ip_nodes = list(store.nodes_by_label(NodeLabel.IP))
    tranco = dataset.ranking_nodes.get("Tranco Top 1M")
    umbrella = dataset.ranking_nodes.get("Cisco Umbrella Top 1M")
    used: set[str] = set()
    rank = 0
    for _ in range(dataset.config.n_domains):
        name = _random_domain(rng, used)
        node = store.create_node([NodeLabel.DOMAIN_NAME], {"name": name})
        dataset.domain_nodes[name] = node
        rank += rng.randint(1, 40)
        if tranco is not None:
            store.create_relationship(
                node.node_id, RelType.RANK, tranco.node_id, {"rank": rank}
            )
        if umbrella is not None and rng.random() < 0.5:
            store.create_relationship(
                node.node_id, RelType.RANK, umbrella.node_id,
                {"rank": rank + rng.randint(-rank // 2 or 1, 200)},
            )
        for ip in rng.sample(ip_nodes, k=min(len(ip_nodes), rng.randint(1, 3))):
            store.create_relationship(node.node_id, RelType.RESOLVES_TO, ip.node_id)
    domains = list(dataset.domain_nodes)
    for _ in range(dataset.config.n_hostnames):
        domain = rng.choice(domains)
        host = rng.choice(["www", "mail", "api", "cdn", "ns1", "blog", "shop"])
        hostname = f"{host}.{domain}"
        node = store.create_node([NodeLabel.HOST_NAME], {"name": hostname})
        store.create_relationship(
            node.node_id, RelType.PART_OF, dataset.domain_nodes[domain].node_id
        )


def _random_domain(rng: random.Random, used: set[str]) -> str:
    while True:
        first = rng.choice(DOMAIN_WORDS)
        second = rng.choice(DOMAIN_WORDS)
        tld = rng.choice(DOMAIN_TLDS)
        name = f"{first}{second}.{tld}" if first != second else f"{first}.{tld}"
        if name not in used:
            used.add(name)
            return name


def _build_population(dataset: IYPDataset, rng: random.Random) -> None:
    """APNIC-style per-country eyeball population shares."""
    store = dataset.store
    by_country: dict[str, list[int]] = {}
    for asn, country_code in dataset.as_country.items():
        by_country.setdefault(country_code, []).append(asn)
    for country_code, asns in by_country.items():
        country_node = dataset.country_nodes[country_code]
        chosen = sorted(
            asns, key=lambda a: dataset.as_size[a], reverse=True
        )[: dataset.config.population_ases_per_country]
        raw = [dataset.as_size[a] ** 0.8 for a in chosen]
        total_weight = sum(raw) or 1.0
        budget = 55.0 + 35.0 * rng.random()  # top ASes cover 55-90 %
        for asn, weight in zip(chosen, raw):
            percent = round(budget * weight / total_weight, 1)
            if asn == 2497 and country_code == "JP":
                continue  # anchored below
            if percent <= 0:
                continue
            dataset.population_share[(asn, country_code)] = percent
            store.create_relationship(
                dataset.as_nodes[asn].node_id,
                RelType.POPULATION,
                country_node.node_id,
                {"percent": percent},
            )
    # Anchor the paper's example: AS2497 serves a stable share of Japan.
    if 2497 in dataset.as_nodes and "JP" in dataset.country_nodes:
        dataset.population_share[(2497, "JP")] = AS2497_JP_PERCENT
        store.create_relationship(
            dataset.as_nodes[2497].node_id,
            RelType.POPULATION,
            dataset.country_nodes["JP"].node_id,
            {"percent": AS2497_JP_PERCENT},
        )


def _build_ranks(dataset: IYPDataset, rng: random.Random) -> None:
    store = dataset.store
    asrank = dataset.ranking_nodes.get("CAIDA ASRank")
    hegemony = dataset.ranking_nodes.get("IHR AS Hegemony")
    ranked = sorted(dataset.as_size, key=dataset.as_size.get, reverse=True)
    for position, asn in enumerate(ranked, start=1):
        if asrank is not None:
            store.create_relationship(
                dataset.as_nodes[asn].node_id, RelType.RANK, asrank.node_id,
                {"rank": position},
            )
        if hegemony is not None and position <= len(ranked) // 4:
            store.create_relationship(
                dataset.as_nodes[asn].node_id, RelType.RANK, hegemony.node_id,
                {"rank": position + rng.randint(0, 5)},
            )
    # Per-country IHR rankings for JP and US.
    for country_code in ("JP", "US"):
        ranking = dataset.ranking_nodes.get(f"IHR country ranking of ASes ({country_code})")
        if ranking is None:
            continue
        local = [asn for asn in ranked if dataset.as_country[asn] == country_code]
        for position, asn in enumerate(local, start=1):
            store.create_relationship(
                dataset.as_nodes[asn].node_id, RelType.RANK, ranking.node_id,
                {"rank": position},
            )


def _build_probes(dataset: IYPDataset, rng: random.Random) -> None:
    store = dataset.store
    asns = list(dataset.as_nodes)
    cum_weights = list(accumulate(dataset.as_size[asn] for asn in asns))
    for probe_id in range(1, dataset.config.n_probes + 1):
        asn = rng.choices(asns, cum_weights=cum_weights, k=1)[0]
        node = store.create_node(
            [NodeLabel.ATLAS_PROBE], {"id": 6000 + probe_id, "status_name": "Connected"}
        )
        store.create_relationship(
            node.node_id, RelType.LOCATED_IN, dataset.as_nodes[asn].node_id
        )
        store.create_relationship(
            node.node_id,
            RelType.COUNTRY,
            dataset.country_nodes[dataset.as_country[asn]].node_id,
        )


def _build_indexes(dataset: IYPDataset) -> None:
    store = dataset.store
    store.create_property_index(NodeLabel.AS, "asn")
    store.create_property_index(NodeLabel.COUNTRY, "country_code")
    store.create_property_index(NodeLabel.PREFIX, "prefix")
    store.create_property_index(NodeLabel.DOMAIN_NAME, "name")
    store.create_property_index(NodeLabel.HOST_NAME, "name")
    store.create_property_index(NodeLabel.IXP, "name")
    store.create_property_index(NodeLabel.TAG, "label")
    store.create_property_index(NodeLabel.RANKING, "name")
    store.create_property_index(NodeLabel.ORGANIZATION, "name")
    store.create_property_index(NodeLabel.IP, "ip")
