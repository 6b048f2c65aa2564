"""Arithmetic of the benchmark.

Pure functions over the JSON lines that perfbench_cells and
perfbench_traced print (see cells.cc): span self times, per-run
pooling of the end-to-end metrics, the traced run's per-layer
numbers, the golden diff and the result line. run.py builds, runs
and prints; test_analysis.py checks this module without a build.
"""

import json
import statistics

# name -> (unit, better). BENCHMARK.json lists the same names and units
# (test_analysis.py checks that they agree).
END_TO_END = {
    "cell_wall_s": ("s", "lower"),
    "sim_cycles_per_s": ("Mcycle/s", "higher"),
    "warp_instr_per_s": ("M/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "table1_max_err_pct": ("%", "lower"),
    "cell_pass_pct": ("%", "higher"),
}

PER_LAYER = {
    "api.build_config_s": "s",
    "workloads.create_s": "s",
    "gpu.construct_s": "s",
    "gpu.destroy_s": "s",
    "workloads.host_s": "s",
    "gpu.launch_s": "s",
    "gpu.launch_loop_s": "s",
    "gpu.analyze_s": "s",
    "gpu.dispatch_tick_s": "s",
    "engine.self_s": "s",
    "engine.ns_per_step": "ns",
    "engine.steps": "count",
    "engine.promise_s": "s",
    "engine.ff_account_s": "s",
    "engine.share_pct": "%",
    "engine.parallel_speedup": "x",
    "simt.sm_tick_s": "s",
    "simt.sm_ticks": "count",
    "simt.ns_per_sm_tick": "ns",
    "simt.share_pct": "%",
    "cache.l1_probes_per_request": "ratio",
    "cache.l2_probes_per_request": "ratio",
    "icnt.tick_s": "s",
    "icnt.arb_stalls_per_transfer": "ratio",
    "mem.l2_tick_s": "s",
    "mem.ns_per_l2_tick": "ns",
    "mem.dram_tick_s": "s",
    "mem.ns_per_dram_tick": "ns",
    "mem.dram_write_pct": "%",
    "mem.share_pct": "%",
    "latency.merge_s": "s",
    "latency.collect_s": "s",
    "trace.overhead_pct": "%",
}

# Set-up: everything before the first simulated cycle.
SETUP_PHASES = ("create", "build_config", "construct")

# Entry points the traced build wraps. Every one fires on every
# benchmark workload; a zero count means the wrap no longer reaches
# the code (for example an LTO build inlined the call).
REQUIRED_WRAPS = ("add", "link", "setSerialized", "step", "fastForward",
                  "settle", "launch", "analyze")
# Component layers the proxies time; each ticks on every workload.
LAYERS = ("simt", "icnt", "mem.l2", "mem.dram", "gpu")

# bench_table1_static_latency's tolerance against the paper.
TABLE1_TOLERANCE = 0.10

# Seconds of one host-speed probe pass (host_probe.hh) on the 4-core
# KVM guest the benchmark was written on, when its neighbours were
# quiet. The end-to-end times are scaled to a host that runs the
# probe in this time (README.md, "Host-speed normalization").
HOST_REF_S = 0.160


def parse_lines(text):
    """Group a binary's JSON lines by their "kind"."""
    out = {"cell": [], "probe": [], "spans": [], "process": None,
           "calibration": None}
    for line in text.splitlines():
        if not line.strip():
            continue
        obj = json.loads(line)
        kind = obj["kind"]
        if kind in ("cell", "probe"):
            out[kind].append(obj)
        elif kind == "spans":
            out["spans"] = obj["spans"]
        elif kind == "process":
            out["process"] = obj
        elif kind == "calibration":
            out["calibration"] = obj["calibration"]
    return out


def seconds(span):
    return (span["end_ns"] - span["start_ns"]) / 1e9


def self_seconds(spans):
    """Span id -> its duration minus the durations of its children."""
    own = {s["id"]: seconds(s) for s in spans}
    for s in spans:
        if s["parent"]:
            own[s["parent"]] -= seconds(s)
    return own


def top_spans(spans):
    """The run's top-level spans (cells, set-up samples and host-speed
    probes) in the order they ran, each as
    {"name", "cell", "wall_s", "phases": {name: s}, "span": span}."""
    tops = {}
    for s in spans:
        if s["parent"] == 0:
            tops[s["id"]] = {"name": s["name"], "cell": s["cell"],
                             "wall_s": seconds(s), "phases": {},
                             "span": s}
    for s in spans:
        top = tops.get(s["parent"])
        if top is not None:
            top["phases"][s["name"]] = (top["phases"].get(s["name"], 0.0)
                                        + seconds(s))
    return sorted(tops.values(), key=lambda t: t["span"]["id"])


def host_factors(tops):
    """Top-level span id -> HOST_REF_S / the mean of the host-speed
    probe passes just before and just after it, for every cell and
    set-up sample. A factor below 1 means the host ran slow."""
    factors = {}
    for i, top in enumerate(tops):
        if top["name"] == "hostref":
            continue
        near = [tops[j]["wall_s"] for j in (i - 1, i + 1)
                if 0 <= j < len(tops) and tops[j]["name"] == "hostref"]
        if not near:
            raise ValueError("%s %d has no host-speed probe beside it"
                             % (top["name"], top["cell"]))
        factors[top["span"]["id"]] = HOST_REF_S / statistics.mean(near)
    return factors


def setup_seconds(top):
    return sum(top["phases"][p] for p in SETUP_PHASES)


def table1_max_err_pct(probes):
    """Largest |measured - paper| / paper over the probes, in %."""
    return max(100.0 * abs(p["measured"] - p["paper"]) / p["paper"]
               for p in probes if p["paper"])


def probe_failures(probes):
    """Probes whose chase did not verify or that miss the paper's
    value by more than the tolerance."""
    bad = []
    for p in probes:
        off = p["paper"] and (abs(p["measured"] - p["paper"]) / p["paper"]
                              > TABLE1_TOLERANCE)
        if not p["chain_ok"] or off:
            bad.append(p)
    return bad


def golden_diff(record, golden):
    """None when @p record equals @p golden byte for byte, else a
    one-line description of the first difference."""
    if record == golden:
        return None
    try:
        a = json.loads(record)["records"][0]
        b = json.loads(golden)["records"][0]
    except (ValueError, KeyError, IndexError):
        return "record is not a gpulat.run.v1 document"
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if isinstance(va, dict) and isinstance(vb, dict):
            for sub in sorted(set(va) | set(vb)):
                if va.get(sub) != vb.get(sub):
                    return "%s.%s: %r != golden %r" % (
                        key, sub, va.get(sub), vb.get(sub))
        return "%s: %r != golden %r" % (key, va, vb)
    return "same values, different bytes"


def end_to_end(cells, spans, process, probes, passed, normalize=True):
    """The end-to-end metrics of one untraced run.

    @p passed counts the timed cells that verified and matched their
    golden. Every time is a median over the run's cells (set-up also
    over its set-up samples), each cell's time first scaled by its
    host factor; @p normalize=False leaves the times as measured.
    """
    tops = top_spans(spans)
    factors = host_factors(tops)
    measured = [t for t in tops if t["name"] != "hostref"]
    timed = [t for t in measured if t["name"] == "cell"]
    by_index = {c["index"]: c for c in cells}

    def scaled(top, s):
        return s * factors[top["span"]["id"]] if normalize else s

    def rate(key):
        return statistics.median(
            by_index[t["cell"]][key] / scaled(t, t["phases"]["run"])
            for t in timed) / 1e6

    return {
        "cell_wall_s": statistics.median(scaled(t, t["wall_s"])
                                         for t in timed),
        "sim_cycles_per_s": rate("cycles"),
        "warp_instr_per_s": rate("instructions"),
        "setup_s": statistics.median(scaled(t, setup_seconds(t))
                                     for t in measured),
        "peak_rss_mb": process["peak_rss_kb"] / 1024.0,
        "table1_max_err_pct": table1_max_err_pct(probes),
        "cell_pass_pct": 100.0 * passed / len(cells),
    }


def proxied_ns(counts, cal):
    """Estimated true ns of one (layer, method) from [calls, timed
    calls, ns of the timed calls]: the timed calls' mean, less the
    timer's own share, times all calls."""
    calls, sampled, ns = counts
    if not sampled:
        return 0.0
    return (ns - sampled * cal["sampled_inner_ns"]) * calls / sampled


def instrumentation_ns(components, cal):
    """What the proxies cost a thread beyond the true time of the calls
    they forward: the timer's cost inside and outside each timed call,
    and the counting of each untimed one."""
    total = 0.0
    for methods in components.values():
        for calls, sampled, _ in methods.values():
            total += (sampled * (cal["sampled_inner_ns"]
                                 + cal["sampled_outer_ns"])
                      + (calls - sampled) * cal["unsampled_ns"])
    return total


def layer_seconds(threads, cal, kind, method):
    """Estimated seconds of one (layer, method), over all threads."""
    return sum(proxied_ns(t["components"][kind][method], cal)
               for t in threads) / 1e9


def ratio(num, den):
    return num / den if den else 0.0


def traced_cell_layers(cell, spans, cal):
    """Per-layer numbers of one traced cell.

    @p spans are this cell's spans. Engine self time is the main
    thread's wrapped step/fastForward/settle time less what its own
    proxied calls took and cost; layer times sum over threads (with
    engine.tickJobs=2 the SMs also tick on a worker).
    """
    trace = cell["trace"]
    threads = trace["threads"]
    own = self_seconds(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    launches = by_name.get("launch", [])

    def phase(name):
        return sum(seconds(s) for s in by_name.get(name, []))

    engine_calls = trace["engine"]["calls"]
    engine_ns = trace["engine"]["ns"]
    launch_loop_ns = 0.0
    for s in launches:
        a = s["attrs"]
        launch_loop_ns += (own[s["id"]] * 1e9 - a["engine_ns"]
                           - a["engine_calls"] * cal["engine_outer_ns"])

    main = [t for t in threads if t["main"]]
    main_child_ns = sum(proxied_ns(counts, cal)
                        for t in main
                        for methods in t["components"].values()
                        for counts in methods.values())
    main_overhead_ns = sum(instrumentation_ns(t["components"], cal)
                           for t in main)
    engine_self = (engine_ns - engine_calls * cal["engine_inner_ns"]
                   - main_child_ns - main_overhead_ns) / 1e9

    def calls(kind, method):
        return sum(t["components"][kind][method][0] for t in threads)

    def tick_s(kind):
        return layer_seconds(threads, cal, kind, "tick")

    def all_kinds(method):
        return sum(layer_seconds(threads, cal, k, method)
                   for k in threads[0]["components"]) if threads else 0.0

    counters = json.loads(cell["record"])["records"][0]["counters"]

    def counter(name):
        return counters.get(name, 0)

    transferred = counter("icnt.req.transferred")
    dram_reads = counter("dram_reads")
    dram_writes = counter("dram_writes")
    launch_s = sum(seconds(s) for s in launches)
    promise_s = all_kinds("promise")
    run_span = by_name["run"][0]
    out = {
        "api.build_config_s": phase("build_config"),
        "workloads.create_s": phase("create"),
        "gpu.construct_s": phase("construct"),
        "gpu.destroy_s": phase("destroy"),
        "workloads.host_s": own[run_span["id"]],
        "gpu.launch_s": launch_s,
        "gpu.launch_loop_s": launch_loop_ns / 1e9,
        "gpu.analyze_s": phase("analyze"),
        "gpu.dispatch_tick_s": tick_s("gpu"),
        "engine.self_s": engine_self,
        "engine.ns_per_step": ratio(engine_self * 1e9, cell["steps"]),
        "engine.steps": cell["steps"],
        "engine.promise_s": promise_s,
        "engine.ff_account_s": all_kinds("fast_forward"),
        "engine.share_pct": 100.0 * ratio(engine_self + promise_s, launch_s),
        "simt.sm_tick_s": tick_s("simt"),
        "simt.sm_ticks": calls("simt", "tick"),
        "simt.ns_per_sm_tick":
            ratio(tick_s("simt") * 1e9, calls("simt", "tick")),
        "simt.share_pct": 100.0 * ratio(tick_s("simt"), launch_s),
        "cache.l1_probes_per_request": ratio(
            counter("l1.hits") + counter("l1.misses"), transferred),
        "cache.l2_probes_per_request":
            ratio(counter("l2_accesses"), transferred),
        "icnt.tick_s": tick_s("icnt"),
        "icnt.arb_stalls_per_transfer":
            ratio(counter("icnt.req.arb_stalls"), transferred),
        "mem.l2_tick_s": tick_s("mem.l2"),
        "mem.ns_per_l2_tick":
            ratio(tick_s("mem.l2") * 1e9, calls("mem.l2", "tick")),
        "mem.dram_tick_s": tick_s("mem.dram"),
        "mem.ns_per_dram_tick":
            ratio(tick_s("mem.dram") * 1e9, calls("mem.dram", "tick")),
        "mem.dram_write_pct":
            100.0 * ratio(dram_writes, dram_reads + dram_writes),
        "mem.share_pct": 100.0 * ratio(tick_s("mem.l2") + tick_s("mem.dram"),
                                       launch_s),
        "latency.merge_s": phase("traces"),
        "latency.collect_s": phase("collect"),
        # Not a metric: what the calibration says tracing cost this
        # cell's main thread, to set beside the measured overhead.
        "modeled_overhead_s": (
            main_overhead_ns + engine_calls
            * (cal["engine_inner_ns"] + cal["engine_outer_ns"])) / 1e9,
    }
    return out


def tracer_problems(cell):
    """Self-checks of one traced cell: every wrapped entry point and
    every proxied layer must have fired."""
    trace = cell["trace"]
    problems = ["wrapped %s was never called" % w
                for w in REQUIRED_WRAPS if not trace["wraps"].get(w)]
    for layer in LAYERS:
        if not any(t["components"][layer]["tick"][0]
                   for t in trace["threads"]):
            problems.append("no %s component ticked through a proxy"
                            % layer)
    return problems


def scaled_cell_walls(spans):
    """Cell index -> the cell's wall time times its host factor."""
    tops = top_spans(spans)
    factors = host_factors(tops)
    return {t["cell"]: t["wall_s"] * factors[t["span"]["id"]]
            for t in tops if t["name"] == "cell"}


def per_layer(cells, spans, cal, tj1_walls, tj2_walls):
    """The traced run's per-layer metrics.

    @p cells and @p spans come from the traced process, whose cells
    alternate between armed (with a "trace" entry) and bare. Per-cell
    numbers are medians over the armed cells, as measured. The tracing
    overhead compares armed with bare cells of that same process, and
    the parallel speedup the scaled walls @p tj1_walls and
    @p tj2_walls, so that host drift between the cells compared
    cancels.
    """
    walls = scaled_cell_walls(spans)
    armed = [c for c in cells if "trace" in c]
    bare = [c for c in cells if "trace" not in c]
    per_cell = []
    for cell in armed:
        mine = [s for s in spans if s["cell"] == cell["index"]]
        per_cell.append(traced_cell_layers(cell, mine, cal))
    out = {name: statistics.median(c[name] for c in per_cell)
           for name in per_cell[0]}
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(walls[c["index"]] for c in armed)
        / statistics.median(walls[c["index"]] for c in bare) - 1.0)
    out["engine.parallel_speedup"] = (statistics.median(tj1_walls)
                                      / statistics.median(tj2_walls))
    return out


def result_line(correct, attempted, failed, metrics, units):
    """The final stdout line: {"correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    })
