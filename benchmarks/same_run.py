"""Same-run A/B timing: two sides measured in one process, in alternating rounds.

The protocol behind every ``BENCH_*.json`` ratio; a tool keeps only what a
pass runs, on which data, in which units.  Each side (two source trees, or
two engines) gives one callable per stage that runs one pass and returns its
time.  Every side and stage gets one untimed pass first (caches, imports,
specialization); then each round runs every stage once per side, the first
side first on even rounds, so host load hits both alike and neither always
runs warm.  A side's figure is its median over rounds; a stage's ratio is
the median of the rounds' baseline/change ratios (above 1: the change is
faster), and ``ratio_range`` their minimum and maximum.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import importlib.util
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from typing import Callable

_ROOT = Path(__file__).resolve().parent.parent

#: the ``IYPConfig`` fields a tool's ``--scale`` multiplies: every entity
#: count.  The tier-1 clique and the ASes drawn per country keep their large
#: values; ``--scale 4`` builds 92,124 nodes and 223,751 relationships.
ENTITY_COUNTS = ("n_ases", "n_prefixes", "n_ips", "n_domains", "n_hostnames",
                 "n_organizations", "n_probes")


def graph_config(iyp, size: str, seed: int, scale: int | None = None):
    """A tree's ``IYPConfig`` of ``size`` (its ``iyp`` module); with ``scale``,
    that preset with each of its ``ENTITY_COUNTS`` multiplied by ``scale``."""
    config = getattr(iyp.IYPConfig, size)(seed=seed)
    if scale is None:
        return config
    return dataclasses.replace(
        config, **{name: getattr(config, name) * scale for name in ENTITY_COUNTS})


def load_tree(src: Path, name: str) -> Callable[[str], object]:
    """Import the ``repro`` package under ``src`` as ``name``, beside any other tree
    in this process; return ``module(path)``, which imports its ``repro.<path>``."""
    for stale in [key for key in sys.modules if key.startswith(f"{name}.")]:
        del sys.modules[stale]  # a tree loaded earlier under ``name``
    init = src / "repro" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return lambda path: importlib.import_module(f"{name}.{path}")


def alternate(sides: dict[str, dict[str, Callable[[], float]]], rounds: int,
              warm_up: bool = True) -> dict[str, dict[str, list[float]]]:
    """Per side and stage, the figure of each of ``rounds`` alternating rounds;
    ``warm_up=False`` skips the untimed passes, for a caller that warms up itself."""
    if warm_up:
        for passes in sides.values():
            for one_pass in passes.values():
                one_pass()
    stages = list(next(iter(sides.values())))
    samples = {side: {stage: [] for stage in stages} for side in sides}
    for index in range(rounds):
        order = list(sides) if index % 2 == 0 else list(reversed(sides))
        for stage in stages:
            for side in order:
                samples[side][stage].append(sides[side][stage]())
    return samples


def compare_trees(tool: str, src: Path, baseline_src: Path, passes: Callable,
                  rounds: int) -> dict[str, dict[str, list[float]]]:
    """Load the change and baseline trees (change first) and time the
    ``passes`` each makes of its ``module`` importer, alternating."""
    return alternate({
        side: passes(load_tree(tree.resolve(), f"_{tool}_{side}"))
        for side, tree in (("change", src), ("baseline", baseline_src))
    }, rounds)


def summarize(samples: dict[str, dict[str, list[float]]],
              key: Callable[[str], str] = str,
              figure_digits: int = 2, ratio_digits: int = 2) -> dict:
    """Per side, each stage's median under ``key(stage)``; per stage, the
    median and the range of the rounds' baseline/change ratios."""
    result: dict = {
        side: {key(stage): round(statistics.median(figures), figure_digits)
               for stage, figures in stages.items()}
        for side, stages in samples.items()
    }
    ratios = {stage: sorted(base / change for base, change in
                            zip(figures, samples["change"][stage]))
              for stage, figures in samples["baseline"].items()}
    result["ratio"] = {stage: round(statistics.median(values), ratio_digits)
                       for stage, values in ratios.items()}
    result["ratio_range"] = {stage: [round(values[0], ratio_digits),
                                     round(values[-1], ratio_digits)]
                             for stage, values in ratios.items()}
    return result


def protocol(rounds: int, unit: str) -> str:
    """The ``protocol`` line of a result: ``rounds`` rounds of passes in ``unit``."""
    return (f"{rounds} rounds of one pass per side and stage, sides alternating in one "
            f"process after one untimed pass each; medians over rounds, in {unit}; "
            "ratio: median of the rounds' baseline/change, ratio_range: their minimum "
            "and maximum")


def host() -> str:
    """The interpreter, machine and CPU count a result was measured on."""
    return (f"{platform.python_implementation()} {platform.python_version()}, "
            f"{platform.machine()}, {os.cpu_count()} CPUs")


def parser(doc: str, baseline_required: bool = True) -> argparse.ArgumentParser:
    """The options every same-run tool shares: ``--src``, ``--baseline-src``, ``--output``."""
    parser = argparse.ArgumentParser(description=doc,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--src", type=Path, default=_ROOT / "src",
                        help="source tree of the change (default: this checkout)")
    parser.add_argument("--baseline-src", type=Path, required=baseline_required,
                        help="source tree to compare against, e.g. the parent commit's")
    parser.add_argument("--output", type=Path, help="write the JSON result here")
    return parser


def write(result: dict, output: Path | None) -> int:
    """Print ``result`` as JSON, and write it to ``output`` if given; 0."""
    text = json.dumps(result, indent=2) + "\n"
    if output is not None:
        output.write_text(text)
    print(text, end="")
    return 0
