"""Pure helpers of the benchmark: statistics, failure accounting and the
output checks. Kept free of I/O so that `test_benchlib.py` can cover them."""

import hashlib
import math


def median(values):
    values = sorted(values)
    if not values:
        raise ValueError("median of no values")
    mid = len(values) // 2
    if len(values) % 2:
        return values[mid]
    return (values[mid - 1] + values[mid]) / 2


def window_rate(done_s, wall_s, window_s=1.0):
    """Median completions per second over the whole `window_s` windows of
    a `wall_s`-second load: a contention burst slows a few windows, not the
    figure."""
    windows = [0] * int(wall_s // window_s)
    for t in done_s:
        i = int(t // window_s)
        if i < len(windows):
            windows[i] += 1
    return median(windows) / window_s


def beyond(n, pct):
    """Samples strictly past the nearest-rank `pct` percentile of `n`."""
    return n - math.ceil(pct / 100 * n)


def percentile(samples, pct, min_beyond=10):
    """Nearest-rank percentile, refused unless at least `min_beyond`
    samples lie beyond it: a tail figure from fewer samples is noise."""
    n = len(samples)
    if n == 0 or beyond(n, pct) < min_beyond:
        raise ValueError(
            f"p{pct} of {n} samples has {beyond(n, pct) if n else 0} beyond it, "
            f"need {min_beyond}")
    return sorted(samples)[math.ceil(pct / 100 * n) - 1]


class Tally:
    """Operations attempted and failed. A refused request, a wrong output
    and a crash all count as failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, ok, problem=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def add(self, attempted, failed, problems=()):
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)

    def fail_share(self):
        return self.failed / self.attempted if self.attempted else 1.0


def serve_failures(load):
    """Failed requests of one load run: transport errors, non-200 answers
    (429 refusals included) and hot bodies that differ from their cold body."""
    return load["failed"] + load["mismatched"]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def digest_matches(data, reference_digest):
    return sha256(data) == reference_digest


def csv_problems(data, reference_digest):
    if digest_matches(data, reference_digest):
        return []
    return ["sweep CSV digest differs from the reference"]


def parse_table(text):
    """`label  value` rows of the CLI's two-column tables."""
    rows = {}
    for line in text.splitlines():
        parts = line.strip().split("  ")
        parts = [p.strip() for p in parts if p.strip()]
        if len(parts) >= 2:
            rows[parts[0]] = parts[1]
    return rows


def _first(value):
    return value.split()[0]


def check_run(stdout, ref):
    """Problems in a `gcs run` report against the reference execution."""
    rows = parse_table(stdout)
    problems = []
    try:
        bounds = rows["A^opt bounds (𝒢 / local)"].split(" / ")
        deliveries, dropped = rows["deliveries / dropped"].split(" / ")
        seen = {
            "global_skew_6": _first(rows["worst global skew"]),
            "local_skew_6": _first(rows["worst local skew"]),
            "global_bound_6": bounds[0].strip(),
            "local_bound_6": bounds[1].strip(),
            "send_events": int(rows["send events"]),
            "deliveries": int(deliveries),
            "dropped": int(dropped),
        }
    except (KeyError, IndexError, ValueError) as e:
        return [f"unreadable run report ({e!r})"]
    problems += [f"{k}: {v} != reference {ref[k]}" for k, v in seen.items() if v != ref[k]]
    problems += _bound_problems(ref)
    return problems


def check_chaos(stdout, ref):
    """Problems in a `gcs chaos run` report against the reference."""
    rows = parse_table(stdout)
    problems = []
    try:
        seen = {
            "global_skew_6": rows["global skew"],
            "local_skew_6": rows["local skew"],
            "global_bound_6": rows["global bound 𝒢"],
            "local_bound_6": rows["local bound"],
            "transmissions": int(rows["transmissions"]),
            "deliveries": int(rows["deliveries"]),
            "dropped_model": int(rows["dropped (model)"]),
            "dropped_faults": int(rows["dropped (faults)"]),
            "duplicated": int(rows["duplicated"]),
        }
    except (KeyError, ValueError) as e:
        return [f"unreadable chaos report ({e!r})"]
    problems += [f"{k}: {v} != reference {ref[k]}" for k, v in seen.items() if v != ref[k]]
    if "oracle: clean" not in stdout:
        problems.append("oracle verdict is not clean")
    if ref["verdict"] != "clean":
        problems.append(f"reference verdict is {ref['verdict']}")
    problems += _bound_problems(ref)
    return problems


def _bound_problems(ref):
    problems = []
    if ref["global_skew"] > ref["global_bound"]:
        problems.append("global skew exceeds the A^opt bound")
    if ref["local_skew"] > ref["local_bound"]:
        problems.append("local skew exceeds the A^opt bound")
    return problems


# Fields a traced execution must reproduce exactly.
FIDELITY_FIELDS = (
    "nodes", "diameter", "horizon", "global_skew_bits", "local_skew_bits",
    "send_events", "transmissions", "deliveries", "dropped", "dropped_model",
    "dropped_faults", "duplicated", "verdict",
)


def fidelity_problems(reference, traced):
    return [f"traced {k}: {traced[k]} != untraced {reference[k]}"
            for k in FIDELITY_FIELDS if traced[k] != reference[k]]


# Reference fields a canary records in golden.json, where present.
GOLDEN_FIELDS = FIDELITY_FIELDS + ("events", "jobs", "failed")


def golden_problems(values, golden):
    """Differences between a canary's values and its golden record."""
    if golden is None:
        return ["no golden values recorded for this workload"]
    keys = sorted(set(values) | set(golden))
    return [f"{k}: {values.get(k)} != golden {golden.get(k)}"
            for k in keys if values.get(k) != golden.get(k)]
