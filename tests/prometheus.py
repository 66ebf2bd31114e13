"""A minimal parser for the Prometheus text exposition format 0.0.4."""

import re
from typing import Dict, List, Tuple

_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$")
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"(?:,|$)')


def parse_prometheus(
    text: str,
) -> Tuple[Dict[str, Tuple[str, str]], List[Tuple[str, Dict[str, str], float]]]:
    """``(metric name -> (help, type), [(sample name, labels, value)])``.

    Raises ``ValueError`` on any line that is neither a comment nor a
    well-formed sample, and on a sample whose label pairs are not sorted
    by name (``le`` excepted, which goes last).
    """
    meta: Dict[str, List[str]] = {}
    samples = []
    for line in text.splitlines():
        if line.startswith("# HELP "):
            name, _, help_text = line[len("# HELP "):].partition(" ")
            meta.setdefault(name, ["", ""])[0] = help_text
            continue
        if line.startswith("# TYPE "):
            name, _, kind = line[len("# TYPE "):].partition(" ")
            meta.setdefault(name, ["", ""])[1] = kind
            continue
        match = _SAMPLE.match(line)
        if match is None:
            raise ValueError(f"malformed line {line!r}")
        name, raw_labels, value = match.groups()
        pairs = _LABEL.findall(raw_labels or "")
        keys = [k for k, _v in pairs if k != "le"]
        if keys != sorted(keys):
            raise ValueError(f"unsorted labels in {line!r}")
        samples.append((name, dict(pairs), float(value)))
    return {name: (h, t) for name, (h, t) in meta.items()}, samples
