"""Row-level oracle for capture stores.

Tests compare stores through their decoded rows -- the
``(domain, date_ordinal, cmp_key, vantage_id)`` tuples of
``iter_rows()`` -- so every column takes part, the vantage included,
and build stores from such rows through the one write path,
``append_batch``.
"""

from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.crawler.columnar import CaptureStore

Row = Tuple[str, int, Optional[str], int]


def rows(store) -> List[Row]:
    """Every row of *store* (plain or spilling), in insertion order."""
    return list(store.iter_rows())


def store_from_rows(
    rows: Iterable[Row],
    requests: Union[int, Sequence[int]] = 1,
    store=None,
):
    """*store* (a fresh ``CaptureStore`` by default) after appending
    *rows* in one batch; each row is one capture of *requests* requests
    (or of ``requests[i]``, given a sequence)."""
    rows = list(rows)
    if store is None:
        store = CaptureStore()
    if isinstance(requests, int):
        requests = [requests] * len(rows)
    store.append_batch(
        [row[0] for row in rows],
        [row[1] for row in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
        list(requests),
    )
    return store
