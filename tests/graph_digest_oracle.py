"""The whole-text canonical form of :class:`repro.graph.ConsentGraph`.

The digest as it was before it hashed in chunks: every node's and
edge's JSON line built in memory, and each edge type's rows ordered by
one Python sort over ``(src rank, dst rank, flat props, table, row)``
key tuples. It reads the graph's node and edge tables directly, so it
pins :meth:`ConsentGraph.digest` and :meth:`ConsentGraph.edges_of_type`
byte for byte, independently of their chunked routine.
"""

import hashlib
from itertools import repeat
from typing import List, Tuple

from repro.graph import ConsentGraph
from repro.graph.model import _json_value


def node_order(graph: ConsentGraph) -> Tuple[List[int], List[int]]:
    """Node ids in ``(type, key)`` order, and each id's position."""
    order = [
        ids[key]
        for _, ids in sorted(graph._node_ids.items())
        for key in sorted(ids)
    ]
    ranks = [0] * len(order)
    for rank, node_id in enumerate(order):
        ranks[node_id] = rank
    return order, ranks


def canonical_rows(tables, ranks: List[int]) -> List[Tuple[int, int]]:
    """``(table index, row)`` of every row of *tables* (one edge type),
    in canonical order."""
    keys: List[tuple] = []
    for t, table in enumerate(tables):
        flat: list = []
        for name, column in zip(table.names, table.values):
            flat += (repeat(name), column)
        keys.extend(
            zip(
                map(ranks.__getitem__, table.src),
                map(ranks.__getitem__, table.dst),
                zip(*flat) if flat else repeat(()),
                repeat(t),
                range(len(table)),
            )
        )
    keys.sort()
    return [key[3:] for key in keys]


def prop_texts(table) -> List[str]:
    """Each row's properties as ``json.dumps(sort_keys=True)`` writes
    them."""
    if not table.names:
        return ["{}"] * len(table)
    pieces = [
        [label + text for text in map(_json_value, column)]
        for label, column in zip(
            (f"{_json_value(name)}: " for name in table.names), table.values
        )
    ]
    return ["{" + ", ".join(parts) + "}" for parts in zip(*pieces)]


def edges_of_type(graph: ConsentGraph, etype: str):
    """``(src, dst, props)`` of one edge type, in canonical order."""
    tables = list(graph._tables.get(etype, {}).values())
    out = []
    for t, row in canonical_rows(tables, node_order(graph)[1]):
        table = tables[t]
        props = dict(zip(table.names, (column[row] for column in table.values)))
        out.append((table.src[row], table.dst[row], props))
    return out


def digest(graph: ConsentGraph) -> str:
    """SHA-256 of the whole canonical text, built in memory."""
    order, ranks = node_order(graph)
    node_json = [
        f"[{_json_value(ntype)}, {_json_value(key)}]"
        for ntype, key in zip(graph._node_types, graph._node_keys)
    ]
    node_props = graph._node_props
    hasher = hashlib.sha256()
    hasher.update(
        "".join(
            f"{node_json[i][:-1]}, "
            f"{_json_value(node_props[i]) if i in node_props else '{}'}]\n"
            for i in order
        ).encode("utf-8")
    )
    hasher.update(b"--edges--\n")
    for etype in sorted(graph._tables):
        tables = list(graph._tables[etype].values())
        head = f"[{_json_value(etype)}, "
        lines = [
            [
                f"{head}{node_json[s]}, {node_json[d]}, {props}]\n"
                for s, d, props in zip(table.src, table.dst, prop_texts(table))
            ]
            for table in tables
        ]
        hasher.update(
            "".join(
                lines[t][row] for t, row in canonical_rows(tables, ranks)
            ).encode("utf-8")
        )
    return hasher.hexdigest()
