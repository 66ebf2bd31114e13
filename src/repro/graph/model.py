"""The consent ecosystem as a deterministic typed property graph.

One :class:`ConsentGraph` holds every entity the paper's analyses touch
-- domains, CMPs, TCF vendors, GVL versions, rankings, countries,
vantages -- as typed nodes, and every relationship between them as typed
property edges. The paper's analyses run over *projections* of this one
relational structure (:mod:`repro.graph.query`): each projection
reshapes the graph into the input of the :mod:`repro.core` function
that defines the analysis.

Design rules, all load-bearing:

* **Interning.** A node is keyed ``(type, natural_key)`` and interned on
  first use; adding it again returns the same id, and property updates
  merge (a conflicting re-assignment raises -- two ingestors must never
  disagree about a fact). Edges are keyed ``(etype, src, dst, props)``
  and deduplicate the same way, so every ingestor is idempotent by
  construction (re-ingesting the same source changes nothing).
* **Canonical digest.** :meth:`ConsentGraph.digest` hashes the *sorted*
  node and edge relations, never insertion order. Two graphs holding the
  same facts digest identically no matter which ingestor ran first --
  the property the ingest-order-independence tests pin.
* **Order-free queries.** Nothing in the query layer may read insertion
  order; every traversal sorts explicitly (by natural key, by a ``seq``
  property, by version number). :meth:`adjacency` hands out sorted edge
  lists for exactly this reason.

The graph is deliberately in-memory and plain-Python: at study scale
(tens of thousands of capture rows, a few hundred vendors over a few
hundred GVL versions) a dict-interned edge table builds in a second or
two (``BENCH_graph.json``), so it is always built, never cached.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterator, List, Optional, Tuple

#: Property values are JSON scalars only, so digests are stable across
#: Python versions.
PropValue = object  # str | int | float | bool | None

#: The node types the ingestors populate. Not enforced as a closed set
#: (new ingestors may extend the schema), but declared for docs/tests.
NODE_TYPES: Tuple[str, ...] = (
    "domain",
    "cmp",
    "vendor",
    "gvl_version",
    "purpose",
    "ranking",
    "country",
    "region",
    "vantage",
)

#: Edge types, same contract as :data:`NODE_TYPES`.
EDGE_TYPES: Tuple[str, ...] = (
    "CAPTURED",      # domain -> vantage, one per capture row {seq, day, cmp}
    "OBSERVES",      # domain -> cmp, deduplicated "ever seen with"
    "ADOPTED",       # domain -> cmp, worldgen episode {start, end}
    "RANK",          # domain -> ranking {rank} or {bucket}
    "COUNTRY",       # ranking -> country
    "REGISTERED_IN", # domain -> country (TLD-derived)
    "IN_REGION",     # country/vantage -> region
    "MEMBER_OF",     # vendor -> gvl_version {consent, li} purpose CSVs
    "DECLARES",      # vendor -> purpose, deduplicated "ever declared"
)


class GraphError(ValueError):
    """Raised on contradictory graph construction (conflicting facts)."""


def _canonical_props(props: Dict[str, PropValue]) -> Tuple[Tuple[str, PropValue], ...]:
    return tuple(sorted(props.items()))


class ConsentGraph:
    """An interned, digestable typed property graph."""

    def __init__(self) -> None:
        #: (type, key) -> node id, first-appearance interned.
        self._node_ids: Dict[Tuple[str, str], int] = {}
        #: node id -> (type, key).
        self._nodes: List[Tuple[str, str]] = []
        #: node id -> merged property dict.
        self._node_props: List[Dict[str, PropValue]] = []
        #: (etype, src, dst, canonical props) -> edge id.
        self._edge_ids: Dict[
            Tuple[str, int, int, Tuple[Tuple[str, PropValue], ...]], int
        ] = {}
        #: edge id -> (etype, src, dst, props dict).
        self._edges: List[Tuple[str, int, int, Dict[str, PropValue]]] = []
        #: etype -> edge ids (insertion order; queries must re-sort).
        self._edges_by_type: Dict[str, List[int]] = {}
        #: (src id, etype) -> edge ids, for adjacency walks.
        self._out: Dict[Tuple[int, str], List[int]] = {}
        #: (dst id, etype) -> edge ids.
        self._in: Dict[Tuple[int, str], List[int]] = {}
        self._digest_cache: Optional[str] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, ntype: str, key: str, **props: PropValue) -> int:
        """Intern ``(ntype, key)`` and merge *props* onto it.

        Returns the node id. Setting a property to the value it already
        holds is a no-op (idempotent re-ingest); setting it to a
        *different* value raises :class:`GraphError` -- two ingestors
        claiming contradictory facts is a bug, never a merge.
        """
        node_key = (ntype, key)
        node_id = self._node_ids.get(node_key)
        if node_id is None:
            node_id = len(self._nodes)
            self._node_ids[node_key] = node_id
            self._nodes.append(node_key)
            self._node_props.append({})
            self._digest_cache = None
        if props:
            merged = self._node_props[node_id]
            for name, value in sorted(props.items()):
                existing = merged.get(name, _MISSING)
                if existing is _MISSING:
                    merged[name] = value
                    self._digest_cache = None
                elif existing != value:
                    raise GraphError(
                        f"node {ntype}:{key} property {name!r} conflict: "
                        f"{existing!r} != {value!r}"
                    )
        return node_id

    def add_edge(
        self, etype: str, src: int, dst: int, **props: PropValue
    ) -> int:
        """Add (or find) the edge ``src -[etype props]-> dst``.

        Edges are identified by their full ``(etype, src, dst, props)``
        tuple: adding the same edge twice returns the existing id, so
        ingestors are idempotent; rows that must stay distinct carry a
        distinguishing property (the capture ingestor's ``seq``).
        """
        for node_id in (src, dst):
            if not 0 <= node_id < len(self._nodes):
                raise GraphError(f"unknown node id {node_id}")
        edge_key = (etype, src, dst, _canonical_props(props))
        edge_id = self._edge_ids.get(edge_key)
        if edge_id is not None:
            return edge_id
        edge_id = len(self._edges)
        self._edge_ids[edge_key] = edge_id
        self._edges.append((etype, src, dst, dict(props)))
        self._edges_by_type.setdefault(etype, []).append(edge_id)
        self._out.setdefault((src, etype), []).append(edge_id)
        self._in.setdefault((dst, etype), []).append(edge_id)
        self._digest_cache = None
        return edge_id

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._nodes)

    @property
    def n_edges(self) -> int:
        return len(self._edges)

    def node_id(self, ntype: str, key: str) -> Optional[int]:
        return self._node_ids.get((ntype, key))

    def node(self, node_id: int) -> Tuple[str, str]:
        """The ``(type, key)`` of a node id."""
        return self._nodes[node_id]

    def node_key(self, node_id: int) -> str:
        return self._nodes[node_id][1]

    def props(self, node_id: int) -> Dict[str, PropValue]:
        """A copy of the node's merged properties."""
        return dict(self._node_props[node_id])

    def nodes_of_type(self, ntype: str) -> List[int]:
        """Node ids of one type, sorted by natural key (never insertion
        order -- the ingest-order-independence contract)."""
        return [
            self._node_ids[(t, k)]
            for t, k in sorted(self._node_ids)
            if t == ntype
        ]

    def edge(
        self, edge_id: int
    ) -> Tuple[str, int, int, Dict[str, PropValue]]:
        etype, src, dst, props = self._edges[edge_id]
        return etype, src, dst, dict(props)

    def edges_of_type(
        self, etype: str
    ) -> List[Tuple[int, int, Dict[str, PropValue]]]:
        """All ``(src, dst, props)`` of one edge type, canonically sorted
        by ``(src (type, key), dst (type, key), props)``."""
        out = [
            (self._edges[e][1], self._edges[e][2], self._edges[e][3])
            for e in self._edges_by_type.get(etype, ())
        ]
        out.sort(
            key=lambda row: (
                self._nodes[row[0]],
                self._nodes[row[1]],
                _canonical_props(row[2]),
            )
        )
        return out

    def adjacency(
        self, node_id: int, etype: str, *, direction: str = "out"
    ) -> List[Tuple[int, Dict[str, PropValue]]]:
        """Sorted ``(neighbor id, edge props)`` pairs for one node.

        *direction* is ``"out"`` (edges leaving *node_id*) or ``"in"``.
        The list is sorted by ``(neighbor (type, key), props)`` --
        adjacency walks see a canonical order, not insertion order.
        """
        if direction == "out":
            table, pick = self._out, 2
        elif direction == "in":
            table, pick = self._in, 1
        else:
            raise GraphError(f"direction must be 'out' or 'in', not {direction!r}")
        pairs = [
            (self._edges[e][pick], self._edges[e][3])
            for e in table.get((node_id, etype), ())
        ]
        pairs.sort(key=lambda p: (self._nodes[p[0]], _canonical_props(p[1])))
        return pairs

    def degree(self, node_id: int, etype: str, *, direction: str = "in") -> int:
        """Edge count of one type at a node -- the "marketshare as
        CMP-node degree" primitive."""
        table = self._in if direction == "in" else self._out
        return len(table.get((node_id, etype), ()))

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def _canonical_nodes(self) -> Iterator[Tuple[str, str, Dict[str, PropValue]]]:
        for ntype, key in sorted(self._node_ids):
            yield ntype, key, self._node_props[self._node_ids[(ntype, key)]]

    def _canonical_edges(
        self,
    ) -> List[Tuple[str, Tuple[str, str], Tuple[str, str], Dict[str, PropValue]]]:
        rows = [
            (etype, self._nodes[src], self._nodes[dst], props)
            for etype, src, dst, props in self._edges
        ]
        rows.sort(
            key=lambda r: (r[0], r[1], r[2], _canonical_props(r[3]))
        )
        return rows

    def digest(self) -> str:
        """Canonical SHA-256 of the graph's full relational content.

        Insertion-order independent: the hash walks nodes sorted by
        ``(type, key)`` and edges sorted by ``(etype, endpoints,
        props)``. Equal digests therefore mean equal graphs as *sets of
        facts* -- the fingerprint the property suite relies on.
        """
        if self._digest_cache is None:
            hasher = hashlib.sha256()
            for ntype, key, props in self._canonical_nodes():
                hasher.update(
                    json.dumps([ntype, key, _sorted_dict(props)],
                               sort_keys=True).encode("utf-8")
                )
                hasher.update(b"\n")
            hasher.update(b"--edges--\n")
            for etype, src, dst, props in self._canonical_edges():
                hasher.update(
                    json.dumps(
                        [etype, list(src), list(dst), _sorted_dict(props)],
                        sort_keys=True,
                    ).encode("utf-8")
                )
                hasher.update(b"\n")
            self._digest_cache = hasher.hexdigest()
        return self._digest_cache

    def stats(self) -> Dict[str, int]:
        """Node/edge counts per type (sorted keys), for reporting."""
        out: Dict[str, int] = {}
        for ntype, key in sorted(self._node_ids):
            out[f"nodes:{ntype}"] = out.get(f"nodes:{ntype}", 0) + 1
        for etype in sorted(self._edges_by_type):
            out[f"edges:{etype}"] = len(self._edges_by_type[etype])
        return out


def _sorted_dict(props: Dict[str, PropValue]) -> Dict[str, PropValue]:
    return {name: props[name] for name in sorted(props)}


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
