"""Golden-bundle check: file hashes, manifest normalisation, total identities."""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal
from pathlib import Path

# Manifest fields that legitimately differ between runs of the same code on
# the same ledger: wall times, where the ledger sits, library versions, and
# the worker count (outputs are identical for any job count).
_VOLATILE = (("stages",), ("input", "path"), ("versions",), ("config", "jobs"))


def normalise_manifest(manifest: dict) -> dict:
    """A copy of ``manifest`` without the volatile fields."""
    out = json.loads(json.dumps(manifest))
    for path in _VOLATILE:
        node = out
        for key in path[:-1]:
            node = node.get(key, {})
        node.pop(path[-1], None)
    return out


def file_hashes(bundle: Path) -> dict[str, str]:
    """sha256 of every file in ``bundle``; manifest.json hashed normalised."""
    hashes = {}
    for path in sorted(Path(bundle).iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = normalise_manifest(json.loads(data))
            data = (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode()
        hashes[path.name] = hashlib.sha256(data).hexdigest()
    return hashes


def compare(actual: dict[str, str], golden: dict[str, str]) -> list[str]:
    """Readable differences between two {file: sha256} maps."""
    problems = [f"missing file {name}" for name in sorted(golden.keys() - actual.keys())]
    problems += [f"unexpected file {name}" for name in sorted(actual.keys() - golden.keys())]
    problems += [
        f"{name}: sha256 {actual[name][:12]} != golden {golden[name][:12]}"
        for name in sorted(golden.keys() & actual.keys())
        if actual[name] != golden[name]
    ]
    return problems


def totals_problems(bundle: Path) -> list[str]:
    """Category totals must add up to the ledger totals exactly."""
    totals = json.loads((Path(bundle) / "ledger_totals.json").read_text())
    stats = json.loads((Path(bundle) / "category_stats.json").read_text())
    sums = {
        "nodes": sum(row["node_count"] for row in stats.values()),
        "links": sum(row["link_count"] for row in stats.values()),
        "transactions": sum(row["tx_count"] for row in stats.values()),
        "volume": sum((Decimal(row["volume"]) for row in stats.values()), Decimal(0)),
    }
    return [
        f"category_stats {key} add up to {value}, ledger_totals says {totals[key]}"
        for key, value in sums.items()
        if Decimal(str(value)) != Decimal(str(totals[key]))
    ]


def category_sizes(bundle: Path) -> dict[str, list[int]]:
    """{category: [nodes, links]} from a bundle's category_stats.json."""
    stats = json.loads((Path(bundle) / "category_stats.json").read_text())
    return {label: [row["node_count"], row["link_count"]] for label, row in stats.items()}


def size(bundle: Path) -> tuple[int, int]:
    """(files, bytes) of a bundle."""
    paths = list(Path(bundle).iterdir())
    return len(paths), sum(p.stat().st_size for p in paths)
