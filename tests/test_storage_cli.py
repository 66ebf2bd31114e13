"""Capture-store persistence: segment files, the JSONL export, the CLI."""

import datetime as dt
import hashlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crawler.columnar import VANTAGE_TABLE
from repro.crawler.storage import (
    EXPORT_VERSION,
    ROW_BYTES,
    SEGMENT_VERSION,
    STORE_FORMAT,
    StorageError,
    load_store,
    read_export,
    save_store,
    store_digest,
    write_export,
)
from repro.cli import main as cli_main
from tests.store_oracle import rows, store_from_rows


def make_rows(n=5):
    return [
        (
            f"site{i}.com",
            (dt.date(2020, 1, 1) + dt.timedelta(days=i)).toordinal(),
            "quantcast" if i % 2 else None,
            i % len(VANTAGE_TABLE),
        )
        for i in range(n)
    ]


def export_text(store):
    buffer = io.StringIO()
    write_export(store, buffer)
    return buffer.getvalue()


HEADER = json.dumps(
    {"format": STORE_FORMAT, "version": EXPORT_VERSION, "n_captures": 1,
     "total_requests": 0, "n_observations": 1}
) + "\n"


class TestStorage:
    def test_roundtrip_string(self):
        original = store_from_rows(make_rows())
        back = read_export(io.StringIO(export_text(original)))
        assert rows(back) == rows(original)
        assert store_digest(back) == store_digest(original)

    def test_roundtrip_file(self, tmp_path):
        original = store_from_rows(make_rows(20), requests=3)
        path = tmp_path / "store.seg"
        assert save_store(original, path) == 20
        assert path.stat().st_size > 20 * ROW_BYTES
        back = load_store(path)
        assert rows(back) == rows(original)
        assert store_digest(back) == store_digest(original)

    def test_store_roundtrip(self, study, tmp_path):
        store = study.run_social_crawl(
            dt.date(2020, 4, 1), dt.date(2020, 4, 8)
        )
        path = tmp_path / "store.seg"
        n = save_store(store, path)
        assert n == store.n_rows
        back = load_store(path)
        assert back.n_captures == store.n_captures
        assert back.domain_day_rows() == store.domain_day_rows()
        assert list(back.domain_day_rows()) == list(store.domain_day_rows())

    def test_blank_lines_skipped(self):
        text = export_text(store_from_rows(make_rows(2))) + "\n\n"
        assert read_export(io.StringIO(text)).n_rows == 2

    def test_invalid_json_raises(self):
        with pytest.raises(StorageError, match="line 1"):
            read_export(io.StringIO("not-json\n"))

    def test_missing_field_raises(self):
        with pytest.raises(StorageError, match="malformed"):
            read_export(io.StringIO(HEADER + '{"domain": "a.com"}\n'))

    def test_vantage_preserved(self):
        original = store_from_rows(make_rows(12))
        back = read_export(io.StringIO(export_text(original)))
        assert [r[3] for r in rows(back)] == [r[3] for r in make_rows(12)]
        assert {r[3] for r in rows(back)} == set(range(len(VANTAGE_TABLE)))


def synthetic_store(row_list, extra_failed_captures=0, total_requests=0):
    """A store whose counters may exceed its row count (the shape
    produced when failed-capture accounting diverges)."""
    store = store_from_rows(row_list, requests=0)
    store.n_captures += extra_failed_captures
    store.total_requests = total_requests
    return store


class _ExplodingStore:
    """Export source whose row stream dies after *n_ok* rows."""

    n_captures = n_rows = 8
    total_requests = 0

    def __init__(self, n_ok):
        self.n_ok = n_ok

    def iter_rows(self):
        yield from store_from_rows(make_rows(self.n_ok)).iter_rows()
        raise RuntimeError("simulated crash")


class TestCrashSafety:
    def test_dump_failure_leaves_original_intact(self, tmp_path):
        path = tmp_path / "obs.jsonl"
        write_export(store_from_rows(make_rows(3)), path)
        original = path.read_text()
        with pytest.raises(RuntimeError, match="simulated crash"):
            write_export(_ExplodingStore(2), path)
        assert path.read_text() == original
        assert list(tmp_path.iterdir()) == [path]  # no temp leftovers

    def test_dump_failure_creates_no_file(self, tmp_path):
        path = tmp_path / "never.jsonl"
        with pytest.raises(RuntimeError):
            write_export(_ExplodingStore(0), path)
        assert not path.exists()
        assert list(tmp_path.iterdir()) == []

    def test_save_store_failure_leaves_original_intact(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "store.seg"
        save_store(synthetic_store(make_rows(4)), path)
        original = path.read_bytes()

        import repro.crawler.storage as storage_mod

        calls = {"n": 0}
        real = storage_mod.le_bytes

        def explode_midway(column):
            calls["n"] += 1
            if calls["n"] > 2:
                raise RuntimeError("simulated kill -9")
            return real(column)

        monkeypatch.setattr(storage_mod, "le_bytes", explode_midway)
        with pytest.raises(RuntimeError):
            save_store(synthetic_store(make_rows(8)), path)
        assert path.read_bytes() == original
        assert list(tmp_path.iterdir()) == [path]

    def test_externally_truncated_store_rejected(self, tmp_path):
        path = tmp_path / "store.seg"
        save_store(synthetic_store(make_rows(6)), path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(StorageError, match="header promises 6 rows"):
            load_store(path)
        export = tmp_path / "store.jsonl"
        write_export(synthetic_store(make_rows(6)), export)
        lines = export.read_text().splitlines()
        export.write_text("\n".join(lines[:-2]) + "\n")  # drop two records
        with pytest.raises(StorageError, match="truncated store"):
            read_export(export)


class TestStoreHeader:
    def test_header_written_first_and_skipped_by_load_observations(
        self, tmp_path
    ):
        path = tmp_path / "store.jsonl"
        original = synthetic_store(make_rows(4))
        write_export(original, path)
        first = json.loads(path.read_text().splitlines()[0])
        assert first == {
            "format": STORE_FORMAT, "version": EXPORT_VERSION,
            "n_captures": 4, "total_requests": 0, "n_observations": 4,
        }
        assert rows(read_export(path)) == make_rows(4)
        segment = tmp_path / "store.seg"
        save_store(original, segment)
        header = json.loads(segment.read_bytes().split(b"\n", 1)[0])
        assert header["version"] == SEGMENT_VERSION
        assert header["n_rows"] == 4

    def test_roundtrip_preserves_failed_capture_accounting(self, tmp_path):
        original = synthetic_store(
            make_rows(5), extra_failed_captures=3, total_requests=41
        )
        for path, save, load in (
            (tmp_path / "store.seg", save_store, load_store),
            (tmp_path / "store.jsonl", write_export, read_export),
        ):
            assert save(original, path) == 5
            back = load(path)
            assert back.n_captures == original.n_captures == 8
            assert back.total_requests == 41
            assert rows(back) == rows(original)

    def test_live_crawl_roundtrip_exact(self, study, tmp_path):
        store = study.run_social_crawl(
            dt.date(2020, 4, 1), dt.date(2020, 4, 15)
        )
        stats = study.last_crawl_stats
        assert stats.failures > 0  # the window must exercise failures
        for path, save, load in (
            (tmp_path / "store.seg", save_store, load_store),
            (tmp_path / "store.jsonl", write_export, read_export),
        ):
            save(store, path)
            back = load(path)
            assert back.n_captures == store.n_captures
            assert back.total_requests == store.total_requests
            assert rows(back) == rows(store)
            assert store_digest(back) == store_digest(store)

    def test_headerless_export_rejected(self, tmp_path):
        path = tmp_path / "legacy.jsonl"
        text = export_text(store_from_rows(make_rows(7)))
        path.write_text(text.split("\n", 1)[1])
        with pytest.raises(StorageError, match="not an export header"):
            read_export(path)

    def test_future_version_rejected(self, tmp_path):
        path = tmp_path / "store.seg"
        header = {"format": STORE_FORMAT, "version": SEGMENT_VERSION + 1}
        path.write_text(json.dumps(header) + "\n")
        with pytest.raises(StorageError, match="unsupported segment version"):
            load_store(path)
        export = tmp_path / "store.jsonl"
        export.write_text(json.dumps({**header, "version": 9}) + "\n")
        with pytest.raises(StorageError, match="unsupported export version"):
            read_export(export)

    @settings(max_examples=25, deadline=None)
    @given(
        n_rows=st.integers(min_value=0, max_value=25),
        extra_failed=st.integers(min_value=0, max_value=10),
        requests=st.integers(min_value=0, max_value=5_000),
    )
    def test_roundtrip_property(self, n_rows, extra_failed, requests):
        store = synthetic_store(
            make_rows(n_rows),
            extra_failed_captures=extra_failed,
            total_requests=requests,
        )
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "store.seg"
            save_store(store, path)
            back = load_store(path)
        assert rows(back) == rows(store)
        assert back.n_captures == store.n_captures == n_rows + extra_failed
        assert back.total_requests == requests
        assert store_digest(back) == store_digest(store)


class TestErrorLabeling:
    def test_invalid_json_error_names_file(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(export_text(store_from_rows(make_rows(1))) + "not-json\n")
        with pytest.raises(StorageError) as excinfo:
            read_export(path)
        message = str(excinfo.value)
        assert "broken.jsonl" in message and "line 3" in message

    def test_malformed_record_error_names_file_and_line(self, tmp_path):
        path = tmp_path / "partial.jsonl"
        good = export_text(store_from_rows(make_rows(2)))
        path.write_text(good + '{"domain": "only-a-domain.com"}\n')
        with pytest.raises(
            StorageError,
            match=re.escape("partial.jsonl") + r".*line 4.*malformed",
        ):
            read_export(path)

    def test_in_memory_sources_labeled_as_stream(self):
        with pytest.raises(StorageError, match="<stream>.*line 1"):
            read_export(io.StringIO("not-json\n"))

    def test_load_store_errors_name_file(self, tmp_path):
        path = tmp_path / "store.seg"
        save_store(synthetic_store(make_rows(2)), path)
        with path.open("ab") as handle:
            handle.write(b"garbage\n")
        with pytest.raises(StorageError, match="store.seg"):
            load_store(path)


#: sha256 of ``repro --domains 1000 crawl --days 5 --start 2020-04-01
#: --events-per-day 400 --out FILE`` as the JSON Lines writer of the
#: previous storage format produced it (every execution mode).
EXPORT_SHA256 = (
    "cd2875193a89249bbcb39546891e0d784b4b6587f804e18d438379bd458c64f0"
)
#: ``figure6 --in`` of that export, as printed by that build.
FIGURE6_LINES = [
    "2020-04-01     18  {'quantcast': 7, 'onetrust': 6, 'cookiebot': 3, "
    "'trustarc': 2}",
    "2020-05-01     58  {'quantcast': 16, 'onetrust': 27, 'cookiebot': 8, "
    "'trustarc': 7}",
]


class TestExportCompatibility:
    """The export's bytes did not move with the storage format."""

    @pytest.mark.parametrize(
        "flags",
        [
            [],
            ["--memory-budget", "120"],
            ["--workers", "2"],
            ["--workers", "2", "--memory-budget", "120"],
        ],
        ids=["serial", "budget", "process", "process-budget"],
    )
    def test_crawl_out_matches_previous_writer(self, tmp_path, capsys, flags):
        path = tmp_path / "out.jsonl"
        rc = cli_main(
            ["--domains", "1000", *flags, "crawl", "--days", "5",
             "--start", "2020-04-01", "--events-per-day", "400",
             "--out", str(path)]
        )
        assert rc == 0
        assert "1,352 observations" in capsys.readouterr().out
        assert hashlib.sha256(path.read_bytes()).hexdigest() == EXPORT_SHA256
        rc = cli_main(["--domains", "1000", "figure6", "--in", str(path)])
        assert rc == 0
        assert capsys.readouterr().out.splitlines() == FIGURE6_LINES

    def test_events_per_day_reaches_the_crawl(self, tmp_path, capsys):
        counts = []
        for rate in ("100", "400"):
            path = tmp_path / f"out-{rate}.jsonl"
            rc = cli_main(
                ["--domains", "1000", "crawl", "--days", "5",
                 "--start", "2020-04-01", "--events-per-day", rate,
                 "--out", str(path)]
            )
            assert rc == 0
            counts.append(read_export(path).n_rows)
        assert counts[1] == 1_352
        assert counts[0] < counts[1] / 2


class TestCli:
    def test_table1(self, capsys):
        rc = cli_main(
            ["--domains", "2000", "--toplist", "300",
             "table1", "--date", "2020-05-15"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "OneTrust" in out and "Coverage" in out

    def test_figure5(self, capsys):
        rc = cli_main(["--domains", "2000", "figure5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "top" in out and "%" in out

    def test_crawl_then_figure6(self, tmp_path, capsys):
        path = str(tmp_path / "obs.jsonl")
        rc = cli_main(
            ["--domains", "1000", "crawl", "--days", "14",
             "--start", "2020-04-01", "--events-per-day", "120",
             "--out", path]
        )
        assert rc == 0
        assert "observations" in capsys.readouterr().out
        rc = cli_main(["--domains", "1000", "figure6", "--in", path])
        assert rc == 0

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            cli_main(["frobnicate"])

    def test_zero_workers_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--workers", "0", "gvl"])
        assert excinfo.value.code == 2
        assert "parallelism must be >= 1" in capsys.readouterr().err

    def test_gvl_and_graph_gvl_churn_print_the_same_lines(self, capsys):
        assert cli_main(["--domains", "1000", "gvl"]) == 0
        direct = capsys.readouterr().out.splitlines()
        rc = cli_main(
            ["--domains", "1000", "--toplist", "100", "study",
             "--days", "2", "--events-per-day", "40",
             "graph-query", "gvl-churn"]
        )
        assert rc == 0
        via_graph = capsys.readouterr().out.splitlines()
        assert any("vendors" in line for line in direct)
        assert any(line.startswith("  li-to-consent") for line in direct)
        assert via_graph[-len(direct):] == direct
