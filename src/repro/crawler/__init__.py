"""The web-measurement platform (Netograph substitute).

Reproduces the measurement infrastructure of Section 3.2:

* :mod:`repro.crawler.capture` -- the capture schema: per-visit HTTP
  headers, connection metadata, cookies, storage records, screenshot
  descriptors, and the final address-bar URL;
* :mod:`repro.crawler.browser` -- the browser simulator applying crawl
  profiles (aggressive default timeouts vs. extended timeouts);
* :mod:`repro.crawler.queue` -- the capture queue with the paper's
  deduplication rules (same domain within 1 h, same URL within 48 h);
* :mod:`repro.crawler.seeds` -- the social-media URL stream (Reddit plus
  Twitter's 1% sample feed, skewed towards popular URLs by resharing);
* :mod:`repro.crawler.platform` -- orchestration: vantage assignment
  (50% EU / 50% US cloud), crawling, and the capture store;
* :mod:`repro.crawler.toplist_crawl` -- the toplist protocol: six
  crawl configurations plus retries (Section 3.2), crawled through the
  platform's row step into compact per-domain rows; full captures
  (DOM dialog, screenshots) are rendered on demand.
"""

from repro.crawler.browser import CrawlProfile, crawl_url
from repro.crawler.capture import Capture, Observation, Vantage
from repro.crawler.clientstorage import StorageRecord, cmp_from_storage
from repro.crawler.platform import CaptureStore, NetographPlatform, PlatformConfig
from repro.crawler.queue import CaptureQueue
from repro.crawler.seeds import SocialShareStream, StreamConfig
from repro.crawler.storage import load_store, save_store

__all__ = [
    "Capture",
    "Observation",
    "Vantage",
    "CrawlProfile",
    "crawl_url",
    "CaptureQueue",
    "SocialShareStream",
    "StreamConfig",
    "NetographPlatform",
    "PlatformConfig",
    "CaptureStore",
    "StorageRecord",
    "cmp_from_storage",
    "save_store",
    "load_store",
]
