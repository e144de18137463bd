"""Turns the raw measurements of one benchmark run into the reported metrics.

Kept free of any process or file handling so that `test_aggregate.py` can
check it on its own.
"""

import json
import math
import re
import statistics

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")

# Samples a tail percentile must leave beyond it.
TAIL_SAMPLES = 10

PATTERNS = ["P1", "P2", "P3", "P4", "P5", "P6", "RP1", "RP2", "RP3"]

# (name, unit, better) of every metric a run with --trace 0 prints.
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("job_s", "s", "lower"),
    ("heap_peak_mb", "MB", "lower"),
]

# (name, unit, better) of every metric a run with --trace 1 prints. A layer
# that a workload bypasses reads 0 there.
PER_LAYER = (
    [
        ("NetworkGen.generate.s", "s", "lower"),
        ("NetworkGen.generate.rows", "count", "lower"),
        ("SubgraphExtractor.cycleArcs.s", "s", "lower"),
        ("SubgraphExtractor.cycleArcs.rows", "count", "lower"),
        ("SubgraphExtractor.taggedInteractions.self_s", "s", "lower"),
        ("SubgraphExtractor.taggedInteractions.joined_rows", "count", "lower"),
        ("SubgraphExtractor.taggedInteractions.kept_rows", "count", "lower"),
        ("SubgraphExtractor.taggedInteractions.kept_ratio", "ratio", "higher"),
        ("SubgraphExtractor.extract.self_s", "s", "lower"),
        ("SubgraphExtractor.extract.subgraphs", "count", "lower"),
        ("SubgraphExtractor.extract.shuffle_mb", "MB", "lower"),
        ("SubgraphExtractor.extract.task_skew", "ratio", "lower"),
        ("FlowExperiment.measure.s", "s", "lower"),
        ("Solubility.solvableByGreedy.s", "s", "lower"),
        ("Preprocess.run.s", "s", "lower"),
        ("Preprocess.run.removed_interactions", "count", "higher"),
        ("Simplify.run.s", "s", "lower"),
        ("Simplify.run.chains_reduced", "count", "higher"),
        ("Greedy.flow.s", "s", "lower"),
        ("MaxFlowLP.solve.raw_s", "s", "lower"),
        ("MaxFlowLP.solve.reduced_s", "s", "lower"),
        ("MaxFlowLP.vars", "count", "lower"),
        ("MaxFlowLP.rows", "count", "lower"),
        ("MaxFlowLP.tableau_mb_max", "MB", "lower"),
        ("FlowPipeline.class_a", "count", "higher"),
        ("FlowPipeline.class_b", "count", "higher"),
        ("FlowPipeline.class_c", "count", "lower"),
        ("FlowPipeline.no_lp_ratio", "ratio", "higher"),
        ("TimeExpanded.maxFlow.s", "s", "lower"),
        ("AdjacencyIndex.fromInteractions.s", "s", "lower"),
    ]
    + [(f"GraphBrowsing.{p}.{m}", u, "lower")
       for p in PATTERNS for m, u in (("s", "s"), ("instances", "count"), ("capped", "count"))]
    + [(f"PathTables.{t}.{m}", u, "lower")
       for t in ("l2", "l3", "c2") for m, u in (("s", "s"), ("rows", "count"))]
    + [(f"PatternEnum.{p}.s", "s", "lower") for p in PATTERNS]
    + [
        ("PatternEnum.shuffle_mb", "MB", "lower"),
        ("jvm.gc_s", "s", "lower"),
        ("lp_ms_mean", "ms", "lower"),
        ("pre_ms_mean", "ms", "lower"),
        ("presim_ms_mean", "ms", "lower"),
        ("presim_ms_p98", "ms", "lower"),
        ("presim_ms.samples", "count", "higher"),
        ("gb_s", "s", "lower"),
        ("pb_s", "s", "lower"),
        ("failed_ratio", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.job_s_untraced", "s", "lower"),
        ("trace.job_s_traced", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


def tail_percentile(n):
    """Highest whole percentile that leaves at least TAIL_SAMPLES of `n`
    samples beyond it, or None when `n` cannot support any."""
    if n <= TAIL_SAMPLES:
        return None
    return min(99, math.floor(100 * (1 - TAIL_SAMPLES / n)))


def percentile(values, p):
    """The `p`-th percentile of `values` by linear interpolation."""
    xs = sorted(values)
    if not xs:
        raise ValueError("no samples")
    pos = (len(xs) - 1) * p / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def failed_ratio(attempted, failed):
    """Failed operations over attempted ones; a run that attempted nothing
    has failed entirely."""
    if attempted <= 0:
        return 1.0
    return failed / attempted


def valid_name(name):
    return NAME_RE.fullmatch(name) is not None and len(name) <= 64


def _tail(samples):
    """presim_ms_p98 and its sample count, or zeros without samples."""
    n = len(samples)
    p = tail_percentile(n)
    if p is None:
        return 0.0, n
    if p < 98:
        raise ValueError(f"{n} samples cannot support p98 (highest is p{p})")
    return percentile(samples, 98), n


def metrics(raw, trace):
    """{name: (value, unit)} for one run's raw measurements."""
    if not trace:
        values = {
            "setup_s": statistics.median(raw["setup_s"]),
            "job_s": statistics.median(raw["job_s"]),
            "heap_peak_mb": raw["heap_peak_mb"],
        }
        table = END_TO_END
    else:
        values = {name: 0.0 for name, _, _ in PER_LAYER}
        values.update(raw["layers"])
        samples = raw["samples"]
        for key in ("lp_ms", "pre_ms", "presim_ms"):
            if samples.get(key):
                values[key + "_mean"] = statistics.fmean(samples[key])
        values["presim_ms_p98"], values["presim_ms.samples"] = _tail(samples.get("presim_ms", []))
        values["failed_ratio"] = failed_ratio(raw["attempted"], len(raw["failures"]))
        table = PER_LAYER
    unknown = set(values) - {name for name, _, _ in table}
    if unknown:
        raise ValueError(f"unlisted metrics {sorted(unknown)}")
    return {name: (float(values[name]), unit) for name, unit, _ in table}


def same_fingerprint(a, b, rel=1e-9):
    """Equal keys, equal whole numbers, floats within `rel`."""
    if set(a) != set(b):
        return False
    for k in a:
        x, y = a[k], b[k]
        if isinstance(x, float) or isinstance(y, float):
            if not math.isclose(x, y, rel_tol=rel, abs_tol=rel):
                return False
        elif x != y:
            return False
    return True


def summary(correct, attempted, failed, values):
    """The one-line JSON object a run prints last."""
    for name in values:
        if not valid_name(name):
            raise ValueError(f"bad metric name {name!r}")
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in values.items()},
    })


def parse_summary(line):
    """Inverse of `summary`: (correct, attempted, failed, {name: (value, unit)})."""
    d = json.loads(line)
    if set(d) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"unexpected keys {sorted(d)}")
    values = {name: (m["value"], m["unit"]) for name, m in d["metrics"].items()}
    return d["correct"], d["attempted"], d["failed"], values
