#!/usr/bin/env python3
"""Unit tests of the benchmark's arithmetic and output format.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

No build is needed: the inputs are hand-made JSON lines in the shape
cells.cc prints.
"""

import json
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import analysis  # noqa: E402
import run  # noqa: E402


def span(sid, parent, cell, name, start_ms, end_ms, attrs=None):
    return {"id": sid, "parent": parent, "cell": cell, "name": name,
            "start_ns": int(start_ms * 1e6), "end_ns": int(end_ms * 1e6),
            "attrs": attrs or {}}


def record(counters, cycles=100):
    return json.dumps({"schema": "gpulat.run.v1", "records": [
        {"workload": "w", "cycles": cycles, "counters": counters}]})


def cell_spans(sid, cell, t0, setup, run, tail=1.0, launches=()):
    """A timed cell: create/build_config/construct share @p setup ms,
    then run (@p run ms, with child launches), traces, collect and
    destroy of @p tail ms each."""
    out = [span(sid, 0, cell, "cell", t0, t0 + setup + run + 4 * tail)]
    t = t0
    for i, name in enumerate(("create", "build_config", "construct")):
        out.append(span(sid + 1 + i, sid, cell, name, t, t + setup / 3))
        t += setup / 3
    run_id = sid + 4
    out.append(span(run_id, sid, cell, "run", t, t + run))
    lt = t
    next_id = sid + 10
    for dur, attrs in launches:
        out.append(span(next_id, run_id, cell, "launch", lt, lt + dur, attrs))
        out.append(span(next_id + 1, next_id, cell, "analyze", lt, lt + 1))
        lt += dur
        next_id += 2
    t += run
    for i, name in enumerate(("traces", "collect", "destroy")):
        out.append(span(sid + 5 + i, sid, cell, name, t, t + tail))
        t += tail
    return out


class SpanArithmetic(unittest.TestCase):
    def test_self_time_is_span_minus_children(self):
        spans = [span(1, 0, 0, "cell", 0, 100), span(2, 1, 0, "run", 10, 90),
                 span(3, 2, 0, "launch", 20, 50),
                 span(4, 2, 0, "launch", 50, 80)]
        own = analysis.self_seconds(spans)
        self.assertAlmostEqual(own[1], 0.020)
        self.assertAlmostEqual(own[2], 0.020)
        self.assertAlmostEqual(own[3], 0.030)

    def test_top_spans_keep_the_order_they_ran_in(self):
        spans = [span(1, 0, 0, "hostref", 0, 1), span(2, 0, 0, "cell", 1, 5),
                 span(3, 0, 0, "hostref", 5, 6)]
        self.assertEqual([t["span"]["id"] for t in analysis.top_spans(spans)],
                         [1, 2, 3])

    def test_top_spans_sum_repeated_phases(self):
        spans = [span(1, 0, 0, "cell", 0, 10), span(2, 1, 0, "create", 0, 2),
                 span(3, 1, 0, "create", 2, 5)]
        (top,) = analysis.top_spans(spans)
        self.assertAlmostEqual(top["phases"]["create"], 0.005)
        self.assertAlmostEqual(top["wall_s"], 0.010)


def hostref(sid, cell, t0, ms=analysis.HOST_REF_S * 1000):
    """A host-speed probe pass; the default takes the nominal time."""
    return [span(sid, 0, cell, "hostref", t0, t0 + ms)]


class EndToEndPooling(unittest.TestCase):
    def setUp(self):
        # Probes bracket every cell and sample, as cells.cc runs them.
        self.spans = (hostref(1, 0, -100)
                      + cell_spans(2, 0, 0, setup=300, run=1000)
                      + hostref(19, 0, 1900)
                      + cell_spans(20, 1, 2000, setup=450, run=3000)
                      + hostref(39, 1, 5900)
                      + cell_spans(40, 2, 6000, setup=600, run=2000)
                      + hostref(59, 2, 8900)
                      + [span(60, 0, 3, "setup_sample", 9000, 9400),
                         span(61, 60, 3, "create", 9000, 9100),
                         span(62, 60, 3, "build_config", 9100, 9110),
                         span(63, 60, 3, "construct", 9110, 9300),
                         span(64, 60, 3, "destroy", 9300, 9400)]
                      + hostref(65, 3, 9500))
        self.cells = [{"index": i, "cycles": 1_000_000,
                       "instructions": 500_000} for i in range(3)]
        self.probes = [
            {"gpu": "g", "unit": "DRAM", "paper": 685.0,
             "measured": 682.681640625, "chain_ok": True},
            {"gpu": "g", "unit": "L2 D$", "paper": 310.0,
             "measured": 310.0009765625, "chain_ok": True}]

    def metrics(self, passed=3):
        return analysis.end_to_end(self.cells, self.spans,
                                   {"peak_rss_kb": 524288}, self.probes,
                                   passed)

    def test_rates_are_medians_over_cells(self):
        m = self.metrics()
        # 1M cycles in 1, 3 and 2 s inside Workload::run.
        self.assertAlmostEqual(m["sim_cycles_per_s"], 0.5)
        self.assertAlmostEqual(m["warp_instr_per_s"], 0.25)

    def test_slow_host_probes_scale_the_cell_between_them(self):
        # The probes around cell 1 ran 2x and 6x slower than nominal:
        # its times count at 1/4. Cells 0 and 2 share one of them.
        ref_ms = analysis.HOST_REF_S * 1000
        for sid, ms in ((19, 2 * ref_ms), (39, 6 * ref_ms)):
            i = next(i for i, s in enumerate(self.spans) if s["id"] == sid)
            self.spans[i] = hostref(sid, 0, self.spans[i]["start_ns"] / 1e6,
                                    ms)[0]
        tops = analysis.top_spans(self.spans)
        factors = analysis.host_factors(tops)
        self.assertEqual(sorted(factors), [2, 20, 40, 60])
        self.assertAlmostEqual(factors[2], 1 / 1.5)
        self.assertAlmostEqual(factors[20], 0.25)
        self.assertAlmostEqual(factors[40], 1 / 3.5)
        self.assertAlmostEqual(factors[60], 1.0)
        m = self.metrics()
        # Run seconds 0.667, 0.75 and 0.571: median 0.667 s.
        self.assertAlmostEqual(m["sim_cycles_per_s"], 1.5)
        raw = analysis.end_to_end(self.cells, self.spans, {"peak_rss_kb": 1},
                                  self.probes, 3, normalize=False)
        self.assertAlmostEqual(raw["sim_cycles_per_s"], 0.5)

    def test_cell_without_a_probe_beside_it_is_an_error(self):
        tops = analysis.top_spans(cell_spans(1, 0, 0, setup=3, run=10))
        with self.assertRaises(ValueError):
            analysis.host_factors(tops)

    def test_wall_and_setup_are_medians(self):
        m = self.metrics()
        self.assertAlmostEqual(m["cell_wall_s"], 2.604)
        # Set-up samples join the cells: 0.3, 0.45, 0.6 and 0.3.
        self.assertAlmostEqual(m["setup_s"], 0.375)

    def test_memory_accuracy_and_pass_share(self):
        m = self.metrics(passed=2)
        self.assertAlmostEqual(m["peak_rss_mb"], 512.0)
        self.assertAlmostEqual(m["table1_max_err_pct"],
                               100 * (685 - 682.681640625) / 685)
        self.assertAlmostEqual(m["cell_pass_pct"], 200 / 3)

    def test_probe_outside_tolerance_fails(self):
        self.assertEqual(analysis.probe_failures(self.probes), [])
        bad = dict(self.probes[0], measured=760.0)
        self.assertEqual(analysis.probe_failures([bad]), [bad])
        unchased = dict(self.probes[1], chain_ok=False)
        self.assertEqual(analysis.probe_failures([unchased]), [unchased])


CAL = {"ns_per_tick": 0.5, "sample_period": 16, "sampled_inner_ns": 20.0,
       "sampled_outer_ns": 30.0, "unsampled_ns": 4.0,
       "engine_inner_ns": 10.0, "engine_outer_ns": 15.0}


def components(**layers):
    """Per-layer [calls, timed calls, ns] for tick/promise/ff."""
    empty = {"tick": [0, 0, 0], "promise": [0, 0, 0],
             "fast_forward": [0, 0, 0]}
    out = {k: dict(empty) for k in ("simt", "icnt", "mem.l2", "mem.dram",
                                    "gpu", "other")}
    for key, methods in layers.items():
        out[key.replace("_", ".")] = dict(empty, **methods)
    return out


class TracedLayers(unittest.TestCase):
    def test_sampled_estimate_removes_timer_bias(self):
        # 160 calls, 10 timed at 120 ns each of which 20 ns is timer:
        # 100 ns per call, 16000 ns in all.
        self.assertAlmostEqual(analysis.proxied_ns([160, 10, 1200], CAL),
                               16000.0)
        self.assertEqual(analysis.proxied_ns([5, 0, 0], CAL), 0.0)

    def test_engine_self_and_launch_loop_subtract_children(self):
        main = components(simt={"tick": [1000, 100, 52000]},
                          mem_dram={"promise": [1000, 100, 4000]})
        worker = components(simt={"tick": [1000, 100, 52000]})
        cell = {"index": 0, "steps": 500, "record": record({
                    "icnt.req.transferred": 100, "l1.hits": 150,
                    "l1.misses": 50, "l2_accesses": 400,
                    "icnt.req.arb_stalls": 25, "dram_reads": 1,
                    "dram_writes": 3}),
                "trace": {"threads": [{"main": True, "components": main},
                                      {"main": False, "components": worker}],
                          "engine": {"calls": 1000, "ns": 2_000_000}}}
        attrs = {"engine_calls": 1000, "engine_ns": 2_000_000}
        spans = cell_spans(1, 0, 0, setup=3, run=10,
                           launches=[(5.0, attrs)])
        m = analysis.traced_cell_layers(cell, spans, CAL)

        simt_ns = 1000 * (520 - 20)            # per thread
        dram_promise_ns = 1000 * (40 - 20)
        overhead_ns = (200 * (20 + 30) + 1800 * 4)  # main thread
        self.assertAlmostEqual(m["simt.sm_tick_s"], 2 * simt_ns / 1e9)
        self.assertAlmostEqual(m["engine.promise_s"], dram_promise_ns / 1e9)
        engine_self_ns = (2_000_000 - 1000 * 10 - simt_ns - dram_promise_ns
                          - overhead_ns)
        self.assertAlmostEqual(m["engine.self_s"], engine_self_ns / 1e9)
        self.assertAlmostEqual(m["engine.ns_per_step"], engine_self_ns / 500)
        # Launch self (5 ms less 1 ms analyze) less the engine calls
        # and what wrapping them cost outside their timers.
        self.assertAlmostEqual(m["gpu.launch_loop_s"],
                               (4e6 - 2_000_000 - 1000 * 15) / 1e9)
        self.assertAlmostEqual(m["gpu.analyze_s"], 0.001)
        self.assertAlmostEqual(m["workloads.host_s"], 0.005)
        self.assertAlmostEqual(m["simt.ns_per_sm_tick"], 500.0)
        self.assertEqual(m["simt.sm_ticks"], 2000)
        self.assertAlmostEqual(m["cache.l1_probes_per_request"], 2.0)
        self.assertAlmostEqual(m["cache.l2_probes_per_request"], 4.0)
        self.assertAlmostEqual(m["icnt.arb_stalls_per_transfer"], 0.25)
        self.assertAlmostEqual(m["mem.dram_write_pct"], 75.0)
        self.assertAlmostEqual(m["simt.share_pct"],
                               100 * 2 * simt_ns / 5e6)

    def test_overhead_compares_armed_with_bare_cells(self):
        empty = {"main": True, "components": components(
            simt={"tick": [10, 1, 100]})}
        cells, spans = [], []
        # The probes around the last cell averaged twice the nominal
        # time, so its 3.8 s counts as 1.9 s.
        ref_ms = analysis.HOST_REF_S * 1000
        spans += hostref(1, 0, -200)
        for index, (wall, armed) in enumerate(
                ((2.2, True), (2.0, False), (2.3, True), (3.8, False))):
            t0 = index * 10_000
            spans += cell_spans(2 + 20 * index, index, t0, setup=3,
                                run=wall * 1000 - 7)
            spans += hostref(21 + 20 * index, index, t0 + 9_000,
                             ref_ms * (3 if index == 3 else 1))
            cell = {"index": index, "steps": 10, "record": record({})}
            if armed:
                cell["trace"] = {"threads": [empty],
                                 "engine": {"calls": 0, "ns": 0}}
            cells.append(cell)
        m = analysis.per_layer(cells, spans, CAL, tj1_walls=[3.0, 3.2],
                               tj2_walls=[2.0, 2.0])
        self.assertAlmostEqual(m["trace.overhead_pct"],
                               100 * (2.25 / 1.95 - 1))
        self.assertAlmostEqual(m["engine.parallel_speedup"], 1.55)

    def test_self_check_flags_missing_wraps_and_layers(self):
        wraps = {w: 1 for w in analysis.REQUIRED_WRAPS}
        threads = [{"main": True, "components": components(
            **{k.replace(".", "_"): {"tick": [1, 1, 10]}
               for k in analysis.LAYERS})}]
        ok = {"trace": {"wraps": wraps, "threads": threads}}
        self.assertEqual(analysis.tracer_problems(ok), [])
        inlined = {"trace": {"wraps": dict(wraps, step=0),
                             "threads": [{"main": True,
                                          "components": components()}]}}
        problems = analysis.tracer_problems(inlined)
        self.assertIn("wrapped step was never called", problems)
        self.assertEqual(len(problems), 1 + len(analysis.LAYERS))


class GoldenDiff(unittest.TestCase):
    def test_identical_bytes_pass(self):
        text = record({"l1.hits": 3})
        self.assertIsNone(analysis.golden_diff(text, text))

    def test_first_differing_counter_is_named(self):
        diff = analysis.golden_diff(record({"a": 1, "l1.hits": 4}),
                                    record({"a": 1, "l1.hits": 3}))
        self.assertEqual(diff, "counters.l1.hits: 4 != golden 3")

    def test_formatting_only_difference_still_fails(self):
        text = record({"a": 1})
        self.assertEqual(analysis.golden_diff(text + "\n", text),
                         "same values, different bytes")


class OutputFormat(unittest.TestCase):
    def test_result_line_shape(self):
        units = {n: u for n, (u, _) in analysis.END_TO_END.items()}
        metrics = {n: 1.0 + i / 7 for i, n in enumerate(units)}
        line = analysis.result_line(True, 12, 0, metrics, units)
        obj = json.loads(line)
        self.assertEqual(set(obj), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertEqual(obj["metrics"]["setup_s"],
                         {"value": metrics["setup_s"], "unit": "s"})
        self.assertEqual(obj["metrics"]["sim_cycles_per_s"]["value"],
                         1 + 1 / 7)
        self.assertNotIn("\n", line)

    def test_benchmark_json_agrees_with_the_code(self):
        bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        e2e = {m["name"]: (m["unit"], m["better"])
               for m in bench["end_to_end"]}
        self.assertEqual(e2e, analysis.END_TO_END)
        layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(layers, analysis.PER_LAYER)
        self.assertEqual([w["name"] for w in bench["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual(bench["paths"], [HERE.name])

    def test_every_seed_slot_has_a_golden(self):
        for name in run.WORKLOADS:
            seeds = {run.workload_seed(name, s) for s in range(40)}
            self.assertEqual(len(seeds), run.SEED_SLOTS)
            for wseed in seeds:
                self.assertTrue(run.golden_path(name, wseed).is_file(),
                                run.golden_path(name, wseed))


if __name__ == "__main__":
    unittest.main()
