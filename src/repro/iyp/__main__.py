"""``python -m repro.iyp`` — generate and export a synthetic IYP dump.

Examples::

    python -m repro.iyp --size small --out dumps/small
    python -m repro.iyp --size medium --seed 7 --out dumps/medium --stats
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..graph.csv_io import export_to_directory
from ..graph.schema import introspect_schema
from .generator import IYPConfig, generate_iyp


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.iyp",
        description="Generate a synthetic Internet Yellow Pages graph and "
                    "export it as CSV dumps",
    )
    parser.add_argument("--size", default="small", choices=("small", "medium", "large"))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--out", type=Path, required=True, help="output directory")
    parser.add_argument("--stats", action="store_true", help="print the schema summary")
    args = parser.parse_args(argv)

    config = getattr(IYPConfig, args.size)(seed=args.seed)
    dataset = generate_iyp(config)
    paths = export_to_directory(dataset.store, args.out)
    print(f"Generated {dataset.store.node_count} nodes / "
          f"{dataset.store.relationship_count} relationships (seed={args.seed})")
    for path in paths:
        print(f"Wrote {path}")
    if args.stats:
        print()
        print(introspect_schema(dataset.store).describe())
    return 0


if __name__ == "__main__":
    sys.exit(main())
