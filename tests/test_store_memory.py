"""Memory guard for the graph store's layout.

The whole graph lives in the serving process, so the bytes each node or
relationship costs set how large a graph one process can serve.  This
bounds what ``tracemalloc`` sees held after generating the medium graph,
per entity: a layout change that brings back per-node index maps, dict
tables or private empty property maps fails here.
"""

import tracemalloc

from repro.iyp import IYPConfig, generate_iyp

#: Traced bytes per node or relationship of the medium graph: 332 with
#: per-type adjacency maps, id-indexed tables and one shared empty property
#: map (CPython 3.11, x86_64), plus a 10% margin.
MAX_BYTES_PER_ENTITY = 365


def test_medium_store_bytes_per_entity():
    tracemalloc.start()
    try:
        store = generate_iyp(IYPConfig.medium()).store
        traced, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    per_entity = traced / (store.node_count + store.relationship_count)
    assert per_entity <= MAX_BYTES_PER_ENTITY, f"{per_entity:.0f} bytes per entity"
