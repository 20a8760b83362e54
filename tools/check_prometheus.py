#!/usr/bin/env python3
"""Prometheus text-exposition validator for the `/metrics` endpoint.

Reads an exposition (a file argument, or stdin with `-`) and checks the
text format 0.0.4 rules the in-process renderer promises:

  * metric and label names match the Prometheus grammar;
  * every sample is preceded by `# HELP` and `# TYPE` lines for its
    family, each emitted exactly once, TYPE one of counter/gauge/histogram;
  * label values escape `\\`, `"` and newlines;
  * sample values parse as Prometheus numbers (including NaN/+Inf/-Inf);
  * histogram families emit `_bucket`/`_sum`/`_count` series, bucket
    counts are cumulative and monotone in `le`, and the mandatory
    `le="+Inf"` bucket equals `_count`.

With `--jobs`, additionally validates the job-server families the
`repro serve` daemon promises: `jobs_state` is a gauge carrying exactly
the five job states (queued/running/done/failed/cancelled) with
non-negative integer values, `job_wall_us` and `job_queue_wait_us` (when
present) are histograms whose every series is labeled by `problem`, and
the `jobs_*` counters (when present) are typed as counters. The HTTP
families must be present (a scrape follows earlier requests):
`http_requests_total` is a counter whose every series carries a `route`
from the server's fixed set and a three-digit `status`, and
`http_request_us` is a histogram whose every series carries such a
`route`.

Offline by design (CI must not depend on the network): this validates a
scraped payload, it does not scrape. Exit status is 0 when the exposition
is well-formed, 1 otherwise, with one `line N: message` diagnostic per
violation.
"""

import re
import sys
from pathlib import Path

METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
# One label pair: name="value" with \\, \" and \n escapes allowed.
LABEL_PAIR_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\[\\"n])*)"')
SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
VALUE_RE = re.compile(r"^(NaN|[+-]Inf|[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)$")
VALID_TYPES = {"counter", "gauge", "histogram"}

# A histogram family `h` owns series h_bucket / h_sum / h_count.
HIST_SUFFIXES = ("_bucket", "_sum", "_count")


def family_of(name: str, types: dict) -> str:
    """The family a sample belongs to (strips histogram suffixes)."""
    for suffix in HIST_SUFFIXES:
        base = name[: -len(suffix)]
        if name.endswith(suffix) and types.get(base) == "histogram":
            return base
    return name


def parse_labels(raw: str, lineno: int, errors: list) -> dict:
    """Validates `{a="b",c="d"}` and returns the label dict."""
    inner = raw[1:-1]
    labels = {}
    consumed = 0
    for m in LABEL_PAIR_RE.finditer(inner):
        if m.group(1) in labels:
            errors.append(f"line {lineno}: duplicate label `{m.group(1)}`")
        labels[m.group(1)] = m.group(2)
        consumed += len(m.group(0))
    # Everything besides the pairs must be separating commas.
    leftovers = LABEL_PAIR_RE.sub("", inner).replace(",", "").strip()
    if leftovers:
        errors.append(f"line {lineno}: malformed label block `{{{inner}}}`")
    return labels


def check(text: str) -> list:
    errors = []
    helps: set = set()
    types: dict = {}
    # family -> {sorted-label-tuple-without-le -> [(le, count)]}
    buckets: dict = {}
    counts: dict = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3:
                errors.append(f"line {lineno}: malformed HELP line")
                continue
            name = parts[2]
            if name in helps:
                errors.append(f"line {lineno}: duplicate HELP for `{name}`")
            helps.add(name)
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in VALID_TYPES:
                errors.append(f"line {lineno}: malformed TYPE line `{line}`")
                continue
            name = parts[2]
            if name in types:
                errors.append(f"line {lineno}: duplicate TYPE for `{name}`")
            if name not in helps:
                errors.append(f"line {lineno}: TYPE for `{name}` precedes its HELP")
            types[name] = parts[3]
            continue
        if line.startswith("#"):
            # Plain comments are legal and ignored.
            continue

        m = SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {lineno}: unparseable sample `{line}`")
            continue
        name, raw_labels, value = m.group(1), m.group(2), m.group(3)
        if not METRIC_NAME_RE.match(name):
            errors.append(f"line {lineno}: bad metric name `{name}`")
        if not VALUE_RE.match(value):
            errors.append(f"line {lineno}: bad sample value `{value}`")
        labels = parse_labels(raw_labels, lineno, errors) if raw_labels else {}
        for label in labels:
            if not LABEL_NAME_RE.match(label) or label == "__name__":
                errors.append(f"line {lineno}: bad label name `{label}`")

        family = family_of(name, types)
        if family not in types:
            errors.append(f"line {lineno}: sample `{name}` has no TYPE")
            continue
        if family not in helps:
            errors.append(f"line {lineno}: sample `{name}` has no HELP")

        if types[family] == "histogram" and name == family + "_bucket":
            le = labels.get("le")
            if le is None:
                errors.append(f"line {lineno}: `{name}` bucket without `le`")
                continue
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            buckets.setdefault(family, {}).setdefault(key, []).append(
                (lineno, le, float(value))
            )
        if types[family] == "histogram" and name == family + "_count":
            key = tuple(sorted(labels.items()))
            counts[(family, key)] = float(value)

    for family, series in buckets.items():
        for key, rows in series.items():
            inf = None
            prev = None
            for lineno, le, count in rows:
                if prev is not None and count < prev:
                    errors.append(
                        f"line {lineno}: `{family}_bucket` counts not "
                        f"cumulative at le=\"{le}\""
                    )
                prev = count
                if le == "+Inf":
                    inf = count
            if inf is None:
                errors.append(f"`{family}` histogram is missing its le=\"+Inf\" bucket")
            elif counts.get((family, key)) != inf:
                errors.append(
                    f"`{family}` +Inf bucket ({inf:g}) != _count "
                    f"({counts.get((family, key))})"
                )
    return errors


# The job-state machine's five states, mirrored from `jobs::JOB_STATES`.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")
JOB_COUNTERS = (
    "jobs_submitted",
    "jobs_rejected_backpressure",
    "jobs_rejected_invalid",
    "jobs_journal_errors",
)
JOBS_STATE_SAMPLE_RE = re.compile(
    r'(?m)^jobs_state\{state="([^"]*)"\}\s+(\S+)$'
)
# The ops server's fixed `route` label values, mirrored from `ops::handle`.
HTTP_ROUTES = ("metrics", "healthz", "progress", "jobs", "job", "other")
PROBLEM_HISTOGRAMS = ("job_wall_us", "job_queue_wait_us")


def series_labels(text: str, family: str) -> list:
    """The label dict of every sample line of `family` (with suffixes)."""
    pattern = re.compile(rf"(?m)^{family}(?:_bucket|_sum|_count)?(\{{[^}}]*\}})?\s")
    return [
        dict(LABEL_PAIR_RE.findall(m.group(1) or "")) for m in pattern.finditer(text)
    ]


def check_jobs(text: str) -> list:
    """Job-server family checks on an already well-formed exposition."""
    errors = []
    types = {}
    for m in re.finditer(r"(?m)^# TYPE (\S+) (\S+)$", text):
        types[m.group(1)] = m.group(2)

    if types.get("jobs_state") != "gauge":
        errors.append("`jobs_state` family missing or not a gauge")
    seen = {}
    for m in JOBS_STATE_SAMPLE_RE.finditer(text):
        state, value = m.group(1), float(m.group(2))
        if state not in JOB_STATES:
            errors.append(f"`jobs_state` has unknown state `{state}`")
        if state in seen:
            errors.append(f"`jobs_state` repeats state `{state}`")
        if value < 0 or value != int(value):
            errors.append(
                f"`jobs_state{{state=\"{state}\"}}` is not a non-negative "
                f"integer: {value:g}"
            )
        seen[state] = value
    for state in JOB_STATES:
        if types.get("jobs_state") == "gauge" and state not in seen:
            errors.append(f"`jobs_state` is missing state `{state}`")

    for family in PROBLEM_HISTOGRAMS:
        if family not in types:
            continue
        if types[family] != "histogram":
            errors.append(f"`{family}` is not a histogram")
        if any("problem" not in labels for labels in series_labels(text, family)):
            errors.append(f"`{family}` series without a `problem` label")

    for family, kind, needed in (
        ("http_requests_total", "counter", ("route", "status")),
        ("http_request_us", "histogram", ("route",)),
    ):
        if types.get(family) != kind:
            errors.append(f"`{family}` family missing or not a {kind}")
            continue
        for labels in series_labels(text, family):
            missing = [name for name in needed if name not in labels]
            if missing:
                errors.append(f"`{family}` series without label(s) {missing}")
                break
            if labels["route"] not in HTTP_ROUTES:
                errors.append(f"`{family}` has unknown route `{labels['route']}`")
                break
            if "status" in needed and not re.fullmatch(r"[1-5]\d\d", labels["status"]):
                errors.append(f"`{family}` has bad status `{labels['status']}`")
                break
    for counter in JOB_COUNTERS:
        if counter in types and types[counter] != "counter":
            errors.append(f"`{counter}` is not a counter")
    return errors


def main(argv: list) -> int:
    want_jobs = "--jobs" in argv
    argv = [a for a in argv if a != "--jobs"]
    if len(argv) != 1:
        print("usage: check_prometheus.py [--jobs] FILE|-", file=sys.stderr)
        return 2
    text = sys.stdin.read() if argv[0] == "-" else Path(argv[0]).read_text()
    if not text.strip():
        print("error: empty exposition", file=sys.stderr)
        return 1
    errors = check(text)
    if want_jobs:
        errors += check_jobs(text)
    for err in errors:
        print(err, file=sys.stderr)
    if errors:
        print(f"{len(errors)} exposition violation(s)", file=sys.stderr)
        return 1
    families = len(re.findall(r"(?m)^# TYPE ", text))
    print(f"exposition ok: {families} metric familie(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
