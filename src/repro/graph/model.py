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
  disagree about a fact). Edges are identified by ``(etype, src, dst,
  props)`` and deduplicate the same way, so every ingestor is idempotent
  by construction (re-ingesting the same source changes nothing).
* **Canonical digest.** :meth:`ConsentGraph.digest` hashes the *sorted*
  node and edge relations, never insertion order. Two graphs holding the
  same facts digest identically no matter which ingestor ran first --
  the property the ingest-order-independence tests pin.
* **Order-free queries.** Nothing in the query layer may read insertion
  order; every traversal sorts explicitly (by natural key, by a ``seq``
  property, by version number). :meth:`adjacency` hands out sorted edge
  lists for exactly this reason.

Edges are stored columnarly: one table per edge type and property-name
set (``RANK`` has a ``{rank}`` and a ``{bucket}`` table), holding
integer source and destination node-id columns and one column per
property -- and nothing per row besides. Ingestors add whole columns at
once (:meth:`add_edges`); :meth:`add_edge` is the same insertion with
one row. An insertion dedups rows on their flat ``(src, dst, *values)``
identity, but it only needs those tuples when row hashes cannot prove
the rows new and distinct (:meth:`ConsentGraph._insert`); only then is
a table's identity index built, from its columns. Adjacency and degree
indexes are built per table on the first query that needs them, and
every read hands out fresh property dicts. At study scale (tens of
thousands of capture rows, a few hundred vendors over a few hundred GVL
versions) a build takes a few hundredths of a second
(``BENCH_graph.json``), so the graph is always built, never cached.
"""

from __future__ import annotations

import hashlib
import json
from array import array
from bisect import bisect_left
from functools import partial
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

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

#: An edge's identity within its table: ``(src, dst, *values)``, the
#: values in property-name order.
EdgeKey = Tuple[PropValue, ...]


class GraphError(ValueError):
    """Raised on contradictory graph construction (conflicting facts)."""


class _EdgeTable:
    """The edges of one type with one property-name set, as columns.

    Row ``i`` is the edge ``src[i] -> dst[i]`` with property
    ``names[j]`` set to ``values[j][i]`` and graph-wide edge id
    ``ids[i]`` (ascending, so a bisect finds a row by id). Rows are
    distinct; :meth:`key_index` maps each row's :data:`EdgeKey` to the
    row, built on first use.
    """

    __slots__ = ("names", "src", "dst", "values", "ids", "_keys", "_index")

    def __init__(self, names: Tuple[str, ...]) -> None:
        self.names = names
        self.src: List[int] = []
        self.dst: List[int] = []
        self.values: Tuple[List[PropValue], ...] = tuple([] for _ in names)
        self.ids = array("q")
        #: EdgeKey -> row, built on first use and kept up to date.
        self._keys: Optional[Dict[EdgeKey, int]] = None
        #: direction -> node id -> rows, built on first use.
        self._index: Dict[str, Dict[int, List[int]]] = {}

    def __len__(self) -> int:
        return len(self.ids)

    def rows(self) -> Iterator[EdgeKey]:
        """Every row's :data:`EdgeKey`, in row order."""
        return zip(self.src, self.dst, *self.values)

    def key_index(self) -> Dict[EdgeKey, int]:
        """:data:`EdgeKey` -> row, built from the columns on first use."""
        if self._keys is None:
            self._keys = dict(zip(self.rows(), range(len(self.ids))))
        return self._keys

    def append(self, columns: Sequence[Sequence], first_id: int) -> None:
        """Append new rows given as *columns* (``src``, ``dst``, then one
        per name)."""
        row = len(self.ids)
        n = len(columns[0])
        if self._keys is not None:
            self._keys.update(zip(zip(*columns), range(row, row + n)))
        for column, new in zip((self.src, self.dst, *self.values), columns):
            column.extend(new)
        self.ids.extend(range(first_id, first_id + n))
        self._index.clear()

    def row_props(self, rows: Sequence[int]) -> List[Dict[str, PropValue]]:
        """Fresh property dicts of *rows*, in order."""
        if not self.names:
            return [{} for _ in rows]
        values = zip(*[map(column.__getitem__, rows) for column in self.values])
        return list(map(dict, map(zip, repeat(self.names), values)))

    def rows_at(self, node_id: int, direction: str) -> Sequence[int]:
        """Rows whose source (``"out"``) or destination (``"in"``) is
        *node_id*, in row order."""
        index = self._index.get(direction)
        if index is None:
            index = self._index[direction] = {}
            for row, node in enumerate(self.src if direction == "out" else self.dst):
                rows = index.get(node)
                if rows is None:
                    index[node] = [row]
                else:
                    rows.append(row)
        return index.get(node_id, ())

    def prop_keys(self, rows: Sequence[int]) -> List[tuple]:
        """Each row's name-sorted ``(name, value)`` pairs flattened into
        one tuple, which orders exactly like the tuple of pairs."""
        if not self.names:
            return [()] * len(rows)
        flat: list = []
        for name, column in zip(self.names, self.values):
            flat += (repeat(name), map(column.__getitem__, rows))
        return list(zip(*flat))

    def edges(
        self, rows: Sequence[int]
    ) -> Iterator[Tuple[int, int, Dict[str, PropValue]]]:
        """``(src, dst, props)`` of *rows*, in order, with fresh props."""
        return zip(
            map(self.src.__getitem__, rows),
            map(self.dst.__getitem__, rows),
            self.row_props(rows),
        )

    def line_pieces(
        self, rows: Sequence[int], head: str, node_texts: _NodeTexts
    ) -> Iterator[Tuple[str, ...]]:
        """The canonical line of each of *rows*, as a tuple of string
        pieces: *head* (``'["ETYPE", '``), the endpoints' JSON, then the
        properties as ``json.dumps`` writes them with ``sort_keys``
        (``names`` is sorted already)."""
        src = list(map(self.src.__getitem__, rows))
        dst = list(map(self.dst.__getitem__, rows))
        node_texts.fill(src)
        node_texts.fill(dst)
        parts: list = [
            repeat(head),
            map(node_texts.__getitem__, src),
            repeat(", "),
            map(node_texts.__getitem__, dst),
        ]
        separator = ", {"
        for name, column in zip(self.names, self.values):
            parts += (
                repeat(f"{separator}{_json_value(name)}: "),
                _json_texts(list(map(column.__getitem__, rows))),
            )
            separator = ", "
        parts.append(repeat("}]\n" if self.names else ", {}]\n"))
        return zip(*parts)


class _NodeTexts(dict):
    """Node id -> its ``'["type", "key"]'`` JSON, for the nodes
    :meth:`fill` was given."""

    def __init__(self, types: List[str], keys: List[str]) -> None:
        super().__init__()
        self.types = types
        self.keys = keys

    def fill(self, node_ids: Iterable[int]) -> None:
        missing = list(set(node_ids).difference(self))
        if missing:
            self.update(
                zip(
                    missing,
                    map(
                        "[{}, {}]".format,
                        _json_texts(list(map(self.types.__getitem__, missing))),
                        _json_texts(list(map(self.keys.__getitem__, missing))),
                    ),
                )
            )


class ConsentGraph:
    """An interned, digestable typed property graph."""

    def __init__(self) -> None:
        #: type -> key -> node id, first-appearance interned.
        self._node_ids: Dict[str, Dict[str, int]] = {}
        #: node id -> type, and node id -> key.
        self._node_types: List[str] = []
        self._node_keys: List[str] = []
        #: node id -> merged property dict, for nodes that have any.
        self._node_props: Dict[int, Dict[str, PropValue]] = {}
        #: etype -> sorted property names -> table.
        self._tables: Dict[str, Dict[Tuple[str, ...], _EdgeTable]] = {}
        self._n_edges = 0
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
        node_id = self.add_nodes(ntype, (key,))[0]
        if props:
            merged = self._node_props.setdefault(node_id, {})
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

    def add_nodes(self, ntype: str, keys: Iterable[str]) -> List[int]:
        """Intern every ``(ntype, key)``; returns their node ids, in
        order (:meth:`add_node` without properties, for many keys)."""
        ids = self._node_ids.get(ntype)
        if ids is None:
            ids = self._node_ids[ntype] = {}
        out = []
        for key in keys:
            node_id = ids.get(key)
            if node_id is None:
                node_id = ids[key] = len(self._node_keys)
                self._node_types.append(ntype)
                self._node_keys.append(key)
                self._digest_cache = None
            out.append(node_id)
        return out

    def add_edge(
        self, etype: str, src: int, dst: int, **props: PropValue
    ) -> int:
        """Add (or find) the edge ``src -[etype props]-> dst``.

        Edges are identified by their full ``(etype, src, dst, props)``
        tuple: adding the same edge twice returns the existing id, so
        ingestors are idempotent; rows that must stay distinct carry a
        distinguishing property (the capture ingestor's ``seq``).
        """
        names = tuple(sorted(props))
        key = (src, dst, *[props[name] for name in names])
        table, added = self._insert(etype, names, [(value,) for value in key])
        if added:
            return table.ids[-1]
        return table.ids[table.key_index()[key]]

    def add_edges(
        self,
        etype: str,
        src: Sequence[int],
        dst: Sequence[int],
        **columns: Sequence[PropValue],
    ) -> None:
        """:meth:`add_edge` for every row of equal-length columns: row
        ``i`` is ``src[i] -[etype {name: columns[name][i]}]-> dst[i]``.
        Rows already in the graph, or repeated within the call, are
        added once."""
        names = tuple(sorted(columns))
        rows = [src, dst, *[columns[name] for name in names]]
        if any(len(column) != len(src) for column in rows):
            raise GraphError(f"{etype} columns differ in length")
        self._insert(etype, names, rows)

    def _insert(
        self, etype: str, names: Tuple[str, ...], columns: List[Sequence]
    ) -> Tuple[_EdgeTable, int]:
        """The one insertion path: append the rows of *columns* (``src``,
        ``dst``, then one per name) not yet in the ``(etype, names)``
        table, first occurrence first. Returns the table and the number
        of rows added.

        If no two of the table's rows and the new ones share a hash, the
        new rows are all new and distinct, and the columns are appended
        as they are: no row becomes a tuple, and the table keeps no
        index. Otherwise (a repeated row, or rows whose hashes merely
        collide) the exact path dedups the rows' :data:`EdgeKey` tuples,
        against the table's :meth:`~_EdgeTable.key_index` if it has
        rows. A table that has an index, or more rows than both
        :data:`_REHASH_ROWS` and the insertion, takes the exact path."""
        tables = self._tables.get(etype)
        table = None if tables is None else tables.get(names)
        if table is None:
            table = _EdgeTable(names)
        n = len(columns[0])
        if not n:
            return table, 0
        if not (
            table._keys is None
            and len(table) <= max(n, _REHASH_ROWS)
            and _distinct(chain(table.rows(), zip(*columns)), len(table) + n)
        ):
            fresh = list(dict.fromkeys(zip(*columns)))
            if len(table):
                index = table.key_index()
                fresh = [key for key in fresh if key not in index]
            if not fresh:
                return table, 0
            if len(fresh) < n:
                columns = [
                    list(map(itemgetter(i), fresh)) for i in range(len(columns))
                ]
                n = len(fresh)
        n_nodes = len(self._node_keys)
        for column in columns[:2]:
            if min(column) < 0 or max(column) >= n_nodes:
                bad = next(i for i in column if not 0 <= i < n_nodes)
                raise GraphError(f"unknown node id {bad}")
        table.append(columns, self._n_edges)
        self._tables.setdefault(etype, {})[names] = table
        self._n_edges += n
        self._digest_cache = None
        return table, n

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        return len(self._node_keys)

    @property
    def n_edges(self) -> int:
        return self._n_edges

    def node_id(self, ntype: str, key: str) -> Optional[int]:
        return self._node_ids.get(ntype, {}).get(key)

    def node(self, node_id: int) -> Tuple[str, str]:
        """The ``(type, key)`` of a node id."""
        return self._node_types[node_id], self._node_keys[node_id]

    def node_key(self, node_id: int) -> str:
        return self._node_keys[node_id]

    def props(self, node_id: int) -> Dict[str, PropValue]:
        """A copy of the node's merged properties."""
        return dict(self._node_props.get(node_id, ()))

    def nodes_of_type(self, ntype: str) -> List[int]:
        """Node ids of one type, sorted by natural key (never insertion
        order -- the ingest-order-independence contract)."""
        ids = self._node_ids.get(ntype, {})
        return [ids[key] for key in sorted(ids)]

    def edge(
        self, edge_id: int
    ) -> Tuple[str, int, int, Dict[str, PropValue]]:
        """The ``(etype, src, dst, props)`` of an edge id."""
        for etype, tables in self._tables.items():
            for table in tables.values():
                row = bisect_left(table.ids, edge_id)
                if row < len(table) and table.ids[row] == edge_id:
                    (props,) = table.row_props((row,))
                    return etype, table.src[row], table.dst[row], props
        raise IndexError(f"no edge {edge_id}")

    def edges_of_type(
        self, etype: str
    ) -> List[Tuple[int, int, Dict[str, PropValue]]]:
        """All ``(src, dst, props)`` of one edge type, canonically sorted
        by ``(src (type, key), dst (type, key), props)``."""
        tables = list(self._tables.get(etype, {}).values())
        out: List[Tuple[int, int, Dict[str, PropValue]]] = []
        for chunk in self._canonical_chunks(tables, self._node_order()[1]):
            out += _in_order(chunk, _EdgeTable.edges)
        return out

    def edge_columns(self, etype: str, *names: str) -> Tuple[list, ...]:
        """``src``, ``dst`` and the columns of property *names* of every
        edge of one type, as fresh lists, the type's tables concatenated
        in no defined order: for a projection that orders rows by their
        properties itself, without :meth:`edges_of_type`'s canonical
        sort and per-row dicts. A table of the type without one of
        *names* raises ``KeyError``."""
        out: Tuple[list, ...] = tuple([] for _ in range(2 + len(names)))
        for table in self._tables.get(etype, {}).values():
            columns = dict(zip(table.names, table.values))
            for column, new in zip(
                out, (table.src, table.dst, *map(columns.__getitem__, names))
            ):
                column += new
        return out

    def adjacency(
        self, node_id: int, etype: str, *, direction: str = "out"
    ) -> List[Tuple[int, Dict[str, PropValue]]]:
        """Sorted ``(neighbor id, edge props)`` pairs for one node.

        *direction* is ``"out"`` (edges leaving *node_id*) or ``"in"``.
        The list is sorted by ``(neighbor (type, key), props)`` --
        adjacency walks see a canonical order, not insertion order.
        """
        if direction not in ("out", "in"):
            raise GraphError(f"direction must be 'out' or 'in', not {direction!r}")
        types, keys = self._node_types, self._node_keys
        found = []
        for table in self._tables.get(etype, {}).values():
            rows = table.rows_at(node_id, direction)
            if not rows:
                continue
            neighbors = table.dst if direction == "out" else table.src
            names = table.names
            values = (
                zip(*[map(column.__getitem__, rows) for column in table.values])
                if names
                else repeat(())
            )
            for row, row_values in zip(rows, values):
                neighbor = neighbors[row]
                found.append(
                    (
                        types[neighbor],
                        keys[neighbor],
                        tuple(zip(names, row_values)),  # canonical props
                        neighbor,
                    )
                )
        found.sort()
        return [(neighbor, dict(props)) for _, _, props, neighbor in found]

    def degree(self, node_id: int, etype: str, *, direction: str = "in") -> int:
        """Edge count of one type at a node -- the "marketshare as
        CMP-node degree" primitive."""
        if direction != "in":
            direction = "out"
        return sum(
            len(table.rows_at(node_id, direction))
            for table in self._tables.get(etype, {}).values()
        )

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def _node_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """Node ids in ``(type, key)`` order, and each node id's
        position in that order (its rank)."""
        n_nodes = len(self._node_keys)
        order = np.fromiter(
            (
                ids[key]
                for _, ids in sorted(self._node_ids.items())
                for key in sorted(ids)
            ),
            dtype=np.int64,
            count=n_nodes,
        )
        ranks = np.empty(n_nodes, dtype=np.int32)
        ranks[order] = np.arange(n_nodes, dtype=np.int32)
        return order, ranks

    @staticmethod
    def _canonical_chunks(
        tables: Sequence[_EdgeTable], ranks: np.ndarray
    ) -> Iterator[_Chunk]:
        """The rows of *tables* (one edge type) in canonical order: by
        source and destination ``(type, key)`` -- their *ranks* -- then
        by :meth:`_EdgeTable.prop_keys`.

        A stable numpy sort orders every row by its endpoint ranks, so
        rows that tie there stay in ``(table, row)`` order. The property
        key is built only for the rows of runs of equal ``(src, dst)``,
        one chunk at a time; edges are unique, so the ``(table, row)``
        tie-break never decides. Yields chunks (:data:`_Chunk`) of at
        least ``_CHUNK`` rows; the last may be shorter, and a chunk never
        splits a run. Besides one chunk, only integer arrays are held:
        9 bytes per row of the type and 8 per run (about 28 per row
        while the sort runs)."""
        offsets = np.cumsum([0] + [len(table) for table in tables])
        n = int(offsets[-1])
        if not n:
            return
        src = np.concatenate([ranks[table.src] for table in tables])
        dst = np.concatenate([ranks[table.dst] for table in tables])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        # tied[i]: sorted rows i and i + 1 share their endpoints.
        tied = (src[1:] == src[:-1]) & (dst[1:] == dst[:-1])
        del src, dst
        run_starts = np.flatnonzero(~tied) + 1
        start = 0
        while start < n:
            at = int(np.searchsorted(run_starts, start + _CHUNK))
            end = int(run_starts[at]) if at < len(run_starts) else n
            positions = order[start:end]
            tie = tied[start : end - 1]
            if tie.any():
                _sort_runs(tables, offsets, positions, tie)
            yield _by_table(tables, offsets, positions)
            start = end

    def digest(self) -> str:
        """Canonical SHA-256 of the graph's full relational content.

        Insertion-order independent: the hash walks nodes sorted by
        ``(type, key)`` and edges sorted by ``(etype, endpoints,
        props)``, one JSON line each. Equal digests therefore mean equal
        graphs as *sets of facts* -- the fingerprint the property suite
        relies on. The text is hashed a chunk of lines at a time
        (:meth:`_canonical_chunks`), never held whole.
        """
        if self._digest_cache is None:
            order, ranks = self._node_order()
            types, keys = self._node_types, self._node_keys
            node_props = self._node_props.get
            hasher = hashlib.sha256()
            for start in range(0, len(order), _CHUNK):
                ids = order[start : start + _CHUNK].tolist()
                lines = zip(
                    repeat("["),
                    _json_texts(list(map(types.__getitem__, ids))),
                    repeat(", "),
                    _json_texts(list(map(keys.__getitem__, ids))),
                    repeat(", "),
                    (
                        "{}" if props is None else _json_value(props)
                        for props in map(node_props, ids)
                    ),
                    repeat("]\n"),
                )
                hasher.update("".join(chain.from_iterable(lines)).encode())
            hasher.update(b"--edges--\n")
            node_texts = _NodeTexts(types, keys)
            for etype in sorted(self._tables):
                tables = list(self._tables[etype].values())
                head = f"[{_json_value(etype)}, "
                pieces = partial(
                    _EdgeTable.line_pieces, head=head, node_texts=node_texts
                )
                for chunk in self._canonical_chunks(tables, ranks):
                    lines = _in_order(chunk, pieces)
                    hasher.update("".join(chain.from_iterable(lines)).encode())
                    if len(node_texts) > _CHUNK:  # keep the memo bounded
                        node_texts.clear()
            self._digest_cache = hasher.hexdigest()
        return self._digest_cache

    def stats(self) -> Dict[str, int]:
        """Node/edge counts per type (sorted keys), for reporting."""
        out: Dict[str, int] = {}
        for ntype in sorted(self._node_ids):
            out[f"nodes:{ntype}"] = len(self._node_ids[ntype])
        for etype in sorted(self._tables):
            out[f"edges:{etype}"] = sum(
                len(table) for table in self._tables[etype].values()
            )
        return out


#: Nodes or edge rows per piece of canonical text: what bounds the
#: memory :meth:`ConsentGraph.digest` holds beyond a few integer arrays.
_CHUNK = 1024

#: An insertion re-hashes a table's rows, rather than build its identity
#: index, only while they number at most this many or at most as many
#: as the rows it inserts: re-hashing then costs O(1) amortized per
#: inserted row, even for :meth:`ConsentGraph.add_edge` in a loop.
_REHASH_ROWS = 64

_json_encode = json.JSONEncoder(sort_keys=True).encode


def _json_value(value: object) -> str:
    """``json.dumps(value, sort_keys=True)``, with strs and ints
    short-cut."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    return _json_encode(value)


def _json_texts(values: List[object]) -> Iterable[str]:
    """:func:`_json_value` of each of *values*, a column at a time."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return map(encode_basestring_ascii, values)
    if kinds == {int}:
        return map(str, values)
    return map(_json_value, values)


def _distinct(rows: Iterable[EdgeKey], count: int) -> bool:
    """True if the *count* *rows* have pairwise different hashes, which
    proves them pairwise different. False says nothing: equal rows, or
    a collision (``hash(-1) == hash(-2)``). Holds 8 bytes per row."""
    hashes = np.fromiter(
        # Salted per process, but only picks the dedup path: both give
        # the same rows.
        map(hash, rows),  # repro-lint: disable=DET003
        dtype=np.int64,
        count=count,
    )
    hashes.sort()
    return not (hashes[1:] == hashes[:-1]).any()


def _sort_runs(
    tables: Sequence[_EdgeTable],
    offsets: np.ndarray,
    positions: np.ndarray,
    tie: np.ndarray,
) -> None:
    """Sort each run of rows that tie on their endpoints, in place, by
    :meth:`_EdgeTable.prop_keys`. *positions* index the concatenation
    of *tables* (table ``t`` starts at ``offsets[t]``); ``tie[i]`` says
    rows ``i`` and ``i + 1`` tie."""
    new_run = np.ones(len(positions), dtype=bool)
    new_run[1:] = ~tie
    member = ~new_run
    member[:-1] |= tie
    members = np.flatnonzero(member)
    found = positions[members]
    keys = _in_order(_by_table(tables, offsets, found), _EdgeTable.prop_keys)
    ranked = sorted(zip(np.cumsum(new_run)[members].tolist(), keys, found.tolist()))
    positions[members] = [position for _, _, position in ranked]


#: A chunk of canonically ordered rows, split by table: ``(table,
#: rows, at)``, where *at* gives each row's index in the chunk (``None``
#: when the chunk has one table).
_Chunk = List[Tuple[_EdgeTable, List[int], Optional[List[int]]]]


def _by_table(
    tables: Sequence[_EdgeTable], offsets: np.ndarray, positions: np.ndarray
) -> _Chunk:
    """Rows given by their *positions* in the concatenation of *tables*,
    split by table."""
    if len(tables) == 1:
        return [(tables[0], positions.tolist(), None)]
    table_of = np.searchsorted(offsets, positions, side="right") - 1
    chunk: _Chunk = []
    for t in np.unique(table_of).tolist():
        at = np.flatnonzero(table_of == t)
        chunk.append((tables[t], (positions[at] - offsets[t]).tolist(), at.tolist()))
    return chunk


def _in_order(
    chunk: _Chunk, each: Callable[[_EdgeTable, List[int]], Iterable]
) -> Iterable:
    """``each(table, rows)``, one item per row, over every table of
    *chunk*, back in the chunk's order."""
    if len(chunk) == 1:
        table, rows, _ = chunk[0]
        return each(table, rows)
    merged: list = [None] * sum(len(rows) for _, rows, _ in chunk)
    for table, rows, at in chunk:
        for index, item in zip(at, each(table, rows)):
            merged[index] = item
    return merged


class _Missing:
    __slots__ = ()


_MISSING = _Missing()
