"""Named WAN topologies: regions and a per-pair latency matrix.

A :class:`GeoTopology` is a pure, picklable description of a deployment
footprint: a tuple of region names and one ``(base, jitter)`` latency
entry per unordered region pair (including the diagonal, which models
the intra-region link).  Latencies are *one-way* seconds, matching
``NetworkConfig.one_way_latency``; jitter is an additive uniform draw on
top of the base, exactly like the uniform model's.

Presets (rounded from public inter-region RTT tables, halved to one-way):

* :func:`wan3` — us-east / eu-west / ap-south.
* :func:`wan5` — adds us-west and ap-east.

Arbitrary matrices load from JSON via :meth:`GeoTopology.from_dict`, so
a topology is addressable as plain data from the CLI
(``python -m repro list wan3 > my_matrix.json`` writes a template to edit,
``python -m repro sweep geo --topologies my_matrix.json`` runs it).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterator

from repro.errors import SimulationError

US = 1e-6
MS = 1e-3


def _pair_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class RegionLink:
    """One latency-matrix entry: the ``a <-> b`` link class (symmetric)."""

    a: str
    b: str
    base: float  #: one-way base latency, seconds
    jitter: float = 0.0  #: additive uniform jitter bound, seconds

    def __post_init__(self) -> None:
        if self.base < 0.0 or self.jitter < 0.0:
            raise SimulationError(
                f"region pair {self.a} <-> {self.b} has negative latency"
            )


@dataclass(frozen=True)
class GeoTopology:
    """A named multi-region deployment footprint."""

    name: str
    regions: tuple[str, ...]
    links: tuple[RegionLink, ...]

    def __post_init__(self) -> None:
        if len(self.regions) < 1:
            raise SimulationError("topology needs at least one region")
        if len(set(self.regions)) != len(self.regions):
            raise SimulationError(f"duplicate region names in {self.name!r}")
        known = set(self.regions)
        seen: set[tuple[str, str]] = set()
        for link in self.links:
            if link.a not in known or link.b not in known:
                raise SimulationError(
                    f"link {link.a} <-> {link.b} names an unknown region"
                )
            key = _pair_key(link.a, link.b)
            if key in seen:
                raise SimulationError(
                    f"duplicate latency entry for region pair {key[0]} <-> {key[1]}"
                )
            seen.add(key)
        for i, a in enumerate(self.regions):
            for b in self.regions[i:]:
                if _pair_key(a, b) not in seen:
                    raise SimulationError(
                        f"topology {self.name!r} is missing the latency entry "
                        f"for region pair {a} <-> {b}"
                    )

    # -- lookups ---------------------------------------------------------
    @property
    def _matrix(self) -> dict[tuple[str, str], RegionLink]:
        matrix = self.__dict__.get("_matrix_memo")
        if matrix is None:
            matrix = {_pair_key(l.a, l.b): l for l in self.links}
            object.__setattr__(self, "_matrix_memo", matrix)
        return matrix

    def link(self, a: str, b: str) -> RegionLink:
        try:
            return self._matrix[_pair_key(a, b)]
        except KeyError:
            raise SimulationError(
                f"no latency entry for region pair {a} <-> {b} in {self.name!r}"
            ) from None

    def latency(self, a: str, b: str) -> tuple[float, float]:
        """The ``(base, jitter)`` one-way latency for the ``a <-> b`` pair."""
        link = self.link(a, b)
        return link.base, link.jitter

    def region_index(self, region: str) -> int:
        try:
            return self.regions.index(region)
        except ValueError:
            raise SimulationError(
                f"unknown region {region!r} (topology {self.name!r} has "
                f"{', '.join(self.regions)})"
            ) from None

    def cross_region_links(self) -> Iterator[RegionLink]:
        for link in self.links:
            if link.a != link.b:
                yield link

    def min_cross_region(self) -> RegionLink:
        """The fastest cross-region link (one RTT of it is the edge tier's
        yardstick)."""
        links = list(self.cross_region_links())
        if not links:
            raise SimulationError(
                f"topology {self.name!r} has a single region; a geo run "
                f"needs at least two"
            )
        return min(links, key=lambda l: (l.base, l.a, l.b))

    # -- serialization ---------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "regions": list(self.regions),
            "links": [
                {"a": l.a, "b": l.b, "base": l.base, "jitter": l.jitter}
                for l in self.links
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "GeoTopology":
        return cls(
            name=data["name"],
            regions=tuple(data["regions"]),
            links=tuple(
                RegionLink(
                    a=l["a"], b=l["b"],
                    base=float(l["base"]), jitter=float(l.get("jitter", 0.0)),
                )
                for l in data["links"]
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "GeoTopology":
        return cls.from_dict(json.loads(text))


def _intra(region: str) -> RegionLink:
    """Intra-region link: the classic datacenter defaults (75us + 10us)."""
    return RegionLink(region, region, base=75 * US, jitter=10 * US)


def wan3() -> GeoTopology:
    """3 regions: us-east / eu-west / ap-south."""
    return GeoTopology(
        name="wan3",
        regions=("us-east", "eu-west", "ap-south"),
        links=(
            _intra("us-east"),
            _intra("eu-west"),
            _intra("ap-south"),
            RegionLink("us-east", "eu-west", base=40 * MS, jitter=3 * MS),
            RegionLink("us-east", "ap-south", base=90 * MS, jitter=6 * MS),
            RegionLink("eu-west", "ap-south", base=60 * MS, jitter=5 * MS),
        ),
    )


def wan5() -> GeoTopology:
    """5 regions: the wan3 footprint plus us-west and ap-east."""
    return GeoTopology(
        name="wan5",
        regions=("us-east", "us-west", "eu-west", "ap-south", "ap-east"),
        links=(
            _intra("us-east"),
            _intra("us-west"),
            _intra("eu-west"),
            _intra("ap-south"),
            _intra("ap-east"),
            RegionLink("us-east", "us-west", base=30 * MS, jitter=2 * MS),
            RegionLink("us-east", "eu-west", base=40 * MS, jitter=3 * MS),
            RegionLink("us-east", "ap-south", base=90 * MS, jitter=6 * MS),
            RegionLink("us-east", "ap-east", base=80 * MS, jitter=6 * MS),
            RegionLink("us-west", "eu-west", base=65 * MS, jitter=4 * MS),
            RegionLink("us-west", "ap-south", base=110 * MS, jitter=7 * MS),
            RegionLink("us-west", "ap-east", base=55 * MS, jitter=4 * MS),
            RegionLink("eu-west", "ap-south", base=60 * MS, jitter=5 * MS),
            RegionLink("eu-west", "ap-east", base=95 * MS, jitter=6 * MS),
            RegionLink("ap-south", "ap-east", base=35 * MS, jitter=3 * MS),
        ),
    )


#: Named presets addressable from CLIs and specs.
TOPOLOGIES = {"wan3": wan3, "wan5": wan5}


def get_topology(name_or_path: str) -> GeoTopology:
    """Resolve a preset name or a JSON latency-matrix file path."""
    factory = TOPOLOGIES.get(name_or_path)
    if factory is not None:
        return factory()
    if name_or_path.endswith(".json"):
        with open(name_or_path) as fh:
            return GeoTopology.from_json(fh.read())
    raise SimulationError(
        f"unknown topology {name_or_path!r} "
        f"(presets: {', '.join(sorted(TOPOLOGIES))}; or a .json matrix path)"
    )
