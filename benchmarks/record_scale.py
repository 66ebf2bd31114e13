"""Record (or check) the flat-RSS scale benchmark.

Runs the social-share crawl at two scales -- a small study and a
``LARGE_DAYS / SMALL_DAYS`` (~12x) larger one -- with the spilling
capture store active (``StudyConfig.memory_budget``), and records
``(crawls, peak_rss_mb, wall_seconds)`` for each run into
``BENCH_scale.json``. The point of the record is the *ratio*: crawls
grow ~12x while peak RSS stays roughly flat, because the store spills
full segments to disk and the world caches are bounded LRUs.

Each run then reads the whole store back the way a study does and
records the peak RSS after each read: ``store_digest`` (which streams
the spilled segments one at a time) and ``Study.adoption_series``
(restricted to the toplist, so it holds the toplist domains' rows by
design).

Peak RSS is read through :class:`repro.obs.memory.RusageReader`, i.e.
the kernel's process-lifetime high-water mark. Because ``ru_maxrss``
is monotone within a process, each study runs in its own subprocess
(``--run-one``); the parent only orchestrates and aggregates.

``--check`` mode (wired into ``make bench-scale`` and the perf CI job)
re-runs the large study and fails when

* its peak RSS after the crawl, or after ``store_digest``, exceeds the
  budget-derived cap (``BASE_RSS_MB`` plus ``ROW_BUDGET`` rows at
  ``ROW_COST_BYTES`` each, with slack), or
* its peak RSS regresses more than ``RSS_SLACK_FRACTION`` over the
  committed ``BENCH_scale.json``, or
* a tiny spill-vs-in-memory digest comparison stops being
  bit-identical (the correctness half of the guard).

``--check`` never writes the JSON; refresh the baseline on purpose
with ``make bench-scale-baseline``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
OUT_PATH = REPO_ROOT / "BENCH_scale.json"

#: One fixed workload, two sizes. The large study clears the 3M-crawl
#: mark (365 days x 25k events/day x ~40% queue acceptance).
SEED = 7
N_DOMAINS = 20_000
EVENTS_PER_DAY = 25_000
STUDY_START = "2020-03-01"
SMALL_DAYS = 30
LARGE_DAYS = 365

#: Spill budget: the active in-memory segment never exceeds this many
#: rows; full segments go to segment files on disk.
ROW_BUDGET = 100_000

#: RSS cap for the CI guard, derived from the budget: a fixed base for
#: the interpreter + numpy + the bounded world caches, plus a generous
#: per-resident-row cost for the active segment. Crawl volume does not
#: appear in the formula -- that is the invariant under test.
BASE_RSS_MB = 170.0
ROW_COST_BYTES = 600
RSS_CAP_MB = BASE_RSS_MB + ROW_BUDGET * ROW_COST_BYTES / (1024 * 1024)

#: A fresh run may exceed the committed large-study RSS by at most
#: this fraction before --check fails.
RSS_SLACK_FRACTION = 0.2

#: Digest guard scale: big enough to force several spills at a small
#: budget, small enough to run twice in seconds.
GUARD_DAYS = 3
GUARD_EVENTS_PER_DAY = 4_000
GUARD_BUDGET = 1_500


def _study_config(days: int, budget: Optional[int]):
    from repro.core.pipeline import StudyConfig

    start = dt.date.fromisoformat(STUDY_START)
    return StudyConfig(
        seed=SEED,
        n_domains=N_DOMAINS,
        toplist_size=1_000,
        events_per_day=EVENTS_PER_DAY,
        study_start=start,
        study_end=start + dt.timedelta(days=days),
        memory_budget=budget,
    )


def run_one(spec: Dict) -> Dict:
    """Run ONE study in this process and report its numbers.

    Invoked via ``--run-one`` in a subprocess so the reported
    ``peak_rss_mb`` is this study's own high-water mark, not the max
    over every study the parent has run so far.
    """
    from repro.core.pipeline import Study
    from repro.crawler.storage import store_digest
    from repro.obs.memory import RusageReader

    reader = RusageReader()
    config = _study_config(spec["days"], spec.get("budget"))
    study = Study(config)
    t0 = time.perf_counter()
    store = study.run_social_crawl()
    crawls = store.n_rows
    # Downstream consumption must stay bounded too: stream the rows
    # (one spilled segment resident at a time) instead of folding.
    with_cmp = 0
    for _domain, _ordinal, cmp_key, _vantage in store.iter_rows():
        if cmp_key is not None:
            with_cmp += 1
    wall = time.perf_counter() - t0
    peak_mb = reader.peak_rss_bytes() / (1024 * 1024)
    t0 = time.perf_counter()
    store_digest(store)
    digest_wall = time.perf_counter() - t0
    digest_peak_mb = reader.peak_rss_bytes() / (1024 * 1024)
    t0 = time.perf_counter()
    study.adoption_series(store)
    adoption_wall = time.perf_counter() - t0
    adoption_peak_mb = reader.peak_rss_bytes() / (1024 * 1024)
    return {
        "crawls": crawls,
        "rows_with_cmp": with_cmp,
        "segments": getattr(store, "n_segments", 0),
        "peak_rss_mb": round(peak_mb, 1),
        "wall_seconds": round(wall, 2),
        "digest_peak_rss_mb": round(digest_peak_mb, 1),
        "digest_seconds": round(digest_wall, 2),
        "adoption_peak_rss_mb": round(adoption_peak_mb, 1),
        "adoption_seconds": round(adoption_wall, 2),
    }


def run_in_subprocess(spec: Dict) -> Dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--run-one",
         json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"--run-one failed for spec {spec}")
    return json.loads(proc.stdout)


def check_digest_guard() -> List[str]:
    """Spilled and never-spilled runs of one study must agree bit-for-bit."""
    from repro.core.pipeline import Study, StudyConfig
    from repro.crawler.storage import store_digest

    start = dt.date.fromisoformat(STUDY_START)
    base = dict(
        seed=SEED,
        n_domains=2_000,
        toplist_size=200,
        events_per_day=GUARD_EVENTS_PER_DAY,
        study_start=start,
        study_end=start + dt.timedelta(days=GUARD_DAYS),
    )
    plain = Study(StudyConfig(**base)).run_social_crawl()
    spilled = Study(
        StudyConfig(**base, memory_budget=GUARD_BUDGET)
    ).run_social_crawl()
    problems = []
    if spilled.n_segments == 0:
        problems.append(
            "digest guard never spilled; shrink GUARD_BUDGET"
        )
    if store_digest(plain) != store_digest(spilled):
        problems.append(
            "spilled study digest differs from in-memory digest"
        )
    spilled.cleanup()
    return problems


def check_floor() -> int:
    problems = check_digest_guard()
    if not OUT_PATH.exists():
        print(f"{OUT_PATH.name} not found; nothing to check against")
        if problems:
            for problem in problems:
                print(f"FAIL: {problem}")
            return 1
        return 0
    baseline = json.loads(OUT_PATH.read_text())
    committed = baseline["runs"]["large"]["peak_rss_mb"]

    spec = {"days": LARGE_DAYS, "budget": ROW_BUDGET}
    fresh = run_in_subprocess(spec)
    cap = RSS_CAP_MB
    ceiling = committed * (1.0 + RSS_SLACK_FRACTION)
    print(
        f"large study: {fresh['crawls']} crawls, "
        f"{fresh['peak_rss_mb']:.1f} MB peak RSS "
        f"(cap {cap:.1f} MB, committed {committed:.1f} MB, "
        f"ceiling {ceiling:.1f} MB), {fresh['wall_seconds']:.1f}s; "
        f"after store_digest {fresh['digest_peak_rss_mb']:.1f} MB "
        f"({fresh['digest_seconds']:.1f}s); after adoption_series "
        f"{fresh['adoption_peak_rss_mb']:.1f} MB (not gated)"
    )
    for stage, key in (
        ("crawl", "peak_rss_mb"), ("store_digest", "digest_peak_rss_mb")
    ):
        if fresh[key] > cap:
            problems.append(
                f"peak RSS after {stage} {fresh[key]:.1f} MB exceeds "
                f"budget-derived cap {cap:.1f} MB"
            )
    if fresh["peak_rss_mb"] > ceiling:
        problems.append(
            f"peak RSS {fresh['peak_rss_mb']:.1f} MB regresses >"
            f"{RSS_SLACK_FRACTION:.0%} over committed "
            f"{committed:.1f} MB"
        )
    if fresh["crawls"] < 3_000_000:
        problems.append(
            f"large study produced {fresh['crawls']} crawls; "
            "the benchmark must cover >= 3M"
        )
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    print("OK: RSS stays under the spill-budget cap; digests match")
    return 0


def record() -> int:
    problems = check_digest_guard()
    if problems:
        for problem in problems:
            print(f"FAIL: {problem}")
        return 1
    runs = {}
    for name, days in (("small", SMALL_DAYS), ("large", LARGE_DAYS)):
        spec = {"days": days, "budget": ROW_BUDGET}
        result = run_in_subprocess(spec)
        result["days"] = days
        runs[name] = result
        print(
            f"{name}: {result['crawls']} crawls in "
            f"{result['wall_seconds']:.1f}s, peak RSS "
            f"{result['peak_rss_mb']:.1f} MB "
            f"({result['segments']} spilled segments); after "
            f"store_digest {result['digest_peak_rss_mb']:.1f} MB "
            f"({result['digest_seconds']:.1f}s), after adoption_series "
            f"{result['adoption_peak_rss_mb']:.1f} MB"
        )
    crawl_ratio = runs["large"]["crawls"] / runs["small"]["crawls"]
    rss_ratio = runs["large"]["peak_rss_mb"] / runs["small"]["peak_rss_mb"]
    record_obj = {
        "recorded_at": dt.datetime.now(dt.timezone.utc).isoformat(),
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "workload": {
            "seed": SEED,
            "n_domains": N_DOMAINS,
            "events_per_day": EVENTS_PER_DAY,
            "row_budget": ROW_BUDGET,
            "study_start": STUDY_START,
        },
        "runs": runs,
        "crawl_ratio": round(crawl_ratio, 2),
        "rss_ratio": round(rss_ratio, 2),
    }
    OUT_PATH.write_text(json.dumps(record_obj, indent=2) + "\n")
    print(
        f"wrote {OUT_PATH.name}: crawls x{crawl_ratio:.1f}, "
        f"peak RSS x{rss_ratio:.2f}"
    )
    if rss_ratio > crawl_ratio / 2:
        print("FAIL: RSS growth is not sub-linear in crawl count")
        return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify RSS + digests against the committed baseline "
        "instead of recording a new one",
    )
    parser.add_argument(
        "--run-one",
        metavar="SPEC_JSON",
        default=None,
        help="internal: run one study in this process and print its "
        "numbers as JSON",
    )
    args = parser.parse_args(argv)
    if args.run_one is not None:
        print(json.dumps(run_one(json.loads(args.run_one))))
        return 0
    if args.check:
        return check_floor()
    return record()


if __name__ == "__main__":
    sys.exit(main())
