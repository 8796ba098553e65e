"""Dataset snapshot persistence: JSON-lines save/load.

Snapshots let experiments reuse an expensive generated community and let
users feed their own crawled data into the system.  The format is one
JSON object per line with a ``kind`` discriminator — append-friendly,
diff-friendly, and streamable, so a multi-gigabyte crawl never has to fit
in memory as one JSON document.

Record kinds::

    {"kind": "agent",   "uri": ..., "name": ...}
    {"kind": "product", "id": ..., "title": ..., "descriptors": [...]}
    {"kind": "trust",   "source": ..., "target": ..., "value": ...}
    {"kind": "rating",  "agent": ..., "product": ..., "value": ...}
    {"kind": "topic",   "id": ..., "parent": ..., "label": ...}   # taxonomy

Topic records must be topologically ordered (parents first); the writers
here guarantee that.
"""

from __future__ import annotations

import json
from collections.abc import Iterator
from pathlib import Path

from ..core.models import Agent, Dataset, Product, Rating, TrustStatement
from ..core.taxonomy import Taxonomy

__all__ = [
    "load_dataset",
    "load_taxonomy",
    "save_dataset",
    "save_taxonomy",
]


def _dataset_records(dataset: Dataset) -> Iterator[dict]:
    for uri in sorted(dataset.agents):
        agent = dataset.agents[uri]
        yield {"kind": "agent", "uri": agent.uri, "name": agent.name}
    for identifier in sorted(dataset.products):
        product = dataset.products[identifier]
        yield {
            "kind": "product",
            "id": product.identifier,
            "title": product.title,
            "descriptors": sorted(product.descriptors),
        }
    for key in sorted(dataset.trust):
        statement = dataset.trust[key]
        yield {
            "kind": "trust",
            "source": statement.source,
            "target": statement.target,
            "value": statement.value,
        }
    for key in sorted(dataset.ratings):
        rating = dataset.ratings[key]
        yield {
            "kind": "rating",
            "agent": rating.agent,
            "product": rating.product,
            "value": rating.value,
        }


def save_dataset(dataset: Dataset, path: str | Path) -> None:
    """Write *dataset* to *path* as JSON lines (sorted, deterministic)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        for record in _dataset_records(dataset):
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")


def _apply_record(dataset: Dataset, record: dict, line_number: int) -> None:
    kind = record.get("kind")
    if kind == "agent":
        dataset.add_agent(Agent(uri=record["uri"], name=record.get("name", "")))
    elif kind == "product":
        dataset.add_product(
            Product(
                identifier=record["id"],
                title=record.get("title", ""),
                descriptors=frozenset(record.get("descriptors", ())),
            )
        )
    elif kind == "trust":
        dataset.add_trust(
            TrustStatement(
                source=record["source"],
                target=record["target"],
                value=float(record["value"]),
            )
        )
    elif kind == "rating":
        dataset.add_rating(
            Rating(
                agent=record["agent"],
                product=record["product"],
                value=float(record.get("value", 1.0)),
            )
        )
    else:
        raise ValueError(f"line {line_number}: unknown record kind {kind!r}")


def load_dataset(path: str | Path, validate: bool = True) -> Dataset:
    """Load a dataset snapshot written by :func:`save_dataset`.

    With ``validate=True`` (default) referential integrity is checked
    after loading; disable only for deliberately partial snapshots.
    """
    dataset = Dataset()
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_number}: invalid JSON") from exc
            _apply_record(dataset, record, line_number)
    if validate:
        dataset.validate()
    return dataset


def save_taxonomy(taxonomy: Taxonomy, path: str | Path) -> None:
    """Write *taxonomy* to *path* as JSON lines (parents before children)."""
    path = Path(path)
    with path.open("w", encoding="utf-8") as handle:
        # Preorder walk guarantees the parent-first invariant.
        stack = [taxonomy.root]
        while stack:
            topic = stack.pop()
            record = {
                "kind": "topic",
                "id": topic,
                "parent": taxonomy.parent(topic),
                "label": taxonomy.label(topic),
            }
            handle.write(json.dumps(record, sort_keys=True))
            handle.write("\n")
            stack.extend(reversed(taxonomy.children(topic)))


def load_taxonomy(path: str | Path) -> Taxonomy:
    """Load a taxonomy snapshot written by :func:`save_taxonomy`."""
    path = Path(path)
    taxonomy: Taxonomy | None = None
    with path.open("r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if record.get("kind") != "topic":
                raise ValueError(
                    f"line {line_number}: expected topic record, got "
                    f"{record.get('kind')!r}"
                )
            parent = record["parent"]
            if parent is None:
                if taxonomy is not None:
                    raise ValueError(f"line {line_number}: second root topic")
                taxonomy = Taxonomy(record["id"], record.get("label", ""))
            else:
                if taxonomy is None:
                    raise ValueError(
                        f"line {line_number}: child topic before the root"
                    )
                taxonomy.add_topic(record["id"], parent, record.get("label", ""))
    if taxonomy is None:
        raise ValueError(f"{path}: no topic records found")
    return taxonomy
