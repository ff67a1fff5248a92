"""Metric assembly: end-to-end values, and per-layer values from the traced
replay's spans plus the program's own metrics registry.

Span file (written by nc_trace): one span per line,
    id  parent  name  tag  start_ns  end_ns
with parent 0 for a root.  A span's self time is its duration minus the
durations of its children (the replay is single-threaded, so children never
overlap).  A metric whose layer the workload does not use reads 0.
"""

END_TO_END = [
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("correct_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
]

KINDS = ("eval", "optimize", "sweep", "tuple_menu")


def read_spans(path):
    spans = {}
    with open(path) as f:
        for line in f:
            sid, parent, name, tag, start, end = line.rstrip("\n").split("\t")
            spans[int(sid)] = {"parent": int(parent), "name": name,
                               "tag": tag, "dur_ns": int(end) - int(start)}
    child_ns = {}
    for span in spans.values():
        if span["parent"]:
            child_ns[span["parent"]] = (child_ns.get(span["parent"], 0)
                                        + span["dur_ns"])
    for sid, span in spans.items():
        span["self_ns"] = span["dur_ns"] - child_ns.get(sid, 0)
    return spans


def _pick(spans, name, tag=None, parent_tag=None):
    return sorted(
        s["self_ns"] for s in spans.values()
        if s["name"] == name and (tag is None or s["tag"] == tag)
        and (parent_tag is None
             or spans.get(s["parent"], {}).get("tag") == parent_tag))


def percentile(values, q):
    """Nearest-rank percentile of an ascending list; 0 when it is empty
    (a layer the workload does not use)."""
    if not values:
        return 0.0
    rank = max(1, -(-len(values) * q // 100))
    return values[int(rank) - 1]


def _ratio(num, den):
    return num / den if den else 0.0


def end_to_end(values, attempted, failed):
    values = dict(values, correct_ratio=_ratio(attempted - failed, attempted))
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def per_layer(summary, spans, registry, extra):
    us, ms = 1e-3, 1e-6
    c = registry.get
    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    def pct(name, q=50, **match):
        """Percentile self time, ns, of the spans called `name`."""
        return percentile(_pick(spans, name, **match), q)

    rtt = pct("server.rtt")
    put("server.rtt_us.p50", rtt * us, "us")
    put("server.rtt_us.p99", pct("server.rtt", 99) * us, "us")
    wire = (rtt - pct("batch_io.parse_request") - pct("service.serve")
            - pct("batch_io.response_line"))
    put("server.wire_us", max(wire, 0.0) * us if rtt else 0.0, "us")
    put("batch_io.parse_request_us", pct("batch_io.parse_request") * us, "us")
    put("batch_io.canonical_key_us", pct("batch_io.canonical_key") * us, "us")
    put("batch_io.response_line_us", pct("batch_io.response_line") * us, "us")

    put("service.create_ms", pct("service.create") * ms, "ms")
    for kind in KINDS:
        put(f"service.serve_us.{kind}.p50",
            pct("service.serve", tag=kind) * us, "us")
        put(f"service.serve_us.{kind}.p99",
            pct("service.serve", 99, tag=kind) * us, "us")
        put(f"service.serve_us.{kind}.count",
            len(_pick(spans, "service.serve", tag=kind)), "count")
    put("service.run_batch_s", pct("service.run_batch") * 1e-9, "s")

    memo_lookups = c("api.memo.hits", 0) + c("api.memo.misses", 0)
    put("memo.hit_ratio", _ratio(c("api.memo.hits", 0), memo_lookups),
        "ratio")
    put("memo.entries", summary["memo_entries"], "count")

    disk_lookups = c("api.disk.hits", 0) + c("api.disk.misses", 0)
    put("disk.hit_ratio", _ratio(c("api.disk.hits", 0), disk_lookups),
        "ratio")
    put("disk.hit_serve_us",
        pct("service.serve", parent_tag="disk") * us, "us")
    put("disk.parse_response_us", pct("disk.parse_response") * us, "us")
    put("disk.stores", c("api.disk.stores", 0), "count")
    put("disk.segment_bytes", extra.get("segment_bytes", 0), "bytes")

    put("surrogate.precompute_s", extra.get("precompute_s", 0.0), "s")
    put("surrogate.open_ms", pct("surrogate.open") * ms, "ms")
    put("surrogate.lookup_us", pct("surrogate.lookup") * us, "us")
    eligible = (c("api.surrogate.hits", 0) + c("api.surrogate.fallbacks", 0)
                + c("api.surrogate.rejects", 0))
    put("surrogate.hit_ratio", _ratio(c("api.surrogate.hits", 0), eligible),
        "ratio")

    for scheme in ("I", "II", "III"):
        put(f"opt.optimize_us.{scheme}",
            pct("opt.optimize_single_cache", tag=scheme) * us, "us")
    for shape in ("2x2", "3x3"):
        put(f"opt.tuple_menu.best_at_ms.{shape}",
            pct("opt.tuple_menu.best_at", tag=shape) * ms, "ms")
    put("opt.combos_evaluated", c("opt.combos_evaluated", 0), "count")
    put("opt.designs_considered", c("opt.designs_considered", 0), "count")

    put("explorer.l1_size_sweep_ms", pct("explorer.l1_size_sweep") * ms, "ms")
    put("explorer.l2_size_sweep_ms", pct("explorer.l2_size_sweep") * ms, "ms")
    put("cachemodel.evaluate_uniform_us",
        pct("cachemodel.evaluate_uniform") * us, "us")
    put("cachemodel.components_batch_us",
        pct("cachemodel.components_batch") * us, "us")

    wall = summary["batch_wall_s"]
    threads = summary["batch_threads"]
    put("parallel.efficiency",
        _ratio(summary["batch_serve_total_s"], wall * threads), "ratio")
    put("batch.straggler_share", _ratio(summary["batch_serve_max_s"], wall),
        "ratio")
    put("trace.overhead_ratio",
        _ratio(min(summary["traced_wall_s"]), min(summary["untraced_wall_s"])),
        "ratio")
    return out


def per_layer_names():
    """(name, unit) of every per-layer metric, in report order."""
    empty = {"memo_entries": 0, "batch_wall_s": 0.0,
             "batch_serve_total_s": 0.0, "batch_serve_max_s": 0.0,
             "batch_threads": 1, "traced_wall_s": [1.0],
             "untraced_wall_s": [1.0]}
    return [(name, m["unit"])
            for name, m in per_layer(empty, {}, {}, {}).items()]
