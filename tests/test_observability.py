"""Observability layer: tracer core, exporters, pipeline integration,
decision-event consistency, schema validation, null-tracer zero-cost."""

import json

import pytest

import repro.pipeline as pipeline_mod
from repro.benchgen.figures import ALL_FIGURES
from repro.interp.interpreter import Interpreter
from repro.observability import (NULL_TRACER, SchemaError, Tracer,
                                 chrome_trace_json, pass_profile,
                                 pass_self_times, phase_table, resolve,
                                 summary, validate_stats)
from repro.pipeline import EXPERIMENTS, run_experiment
from repro.profile import profile_blocks

from helpers import module_of

LOOPY = """
func main
entry:
    input n
    make s, 0
    make i, 0
    br head
head:
    cmplt c, i, n
    cbr c, body, exit
body:
    copy t, s
    add s, t, i
    add i, i, 1
    br head
exit:
    copy r, s
    ret r
endfunc
"""


class TestTracerCore:
    def test_span_nesting_depth_and_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("sibling") as sibling:
                pass
        assert outer.depth == 0 and outer.parent is None
        assert inner.depth == 1 and inner.parent == outer.seq
        assert sibling.depth == 1 and sibling.parent == outer.seq
        assert [s.name for s in tracer.spans] == ["outer", "inner",
                                                  "sibling"]
        assert all(s.closed for s in tracer.spans)
        assert outer.duration_ns >= inner.duration_ns >= 0

    def test_children_helper(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        assert [s.name for s in tracer.children(outer)] == ["a", "b"]

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        outer.__enter__()
        inner.__enter__()
        with pytest.raises(RuntimeError):
            outer.__exit__(None, None, None)

    def test_events_share_monotonic_order_with_spans(self):
        tracer = Tracer()
        tracer.event("before")
        with tracer.span("work") as span:
            inside = tracer.event("inside", detail=1)
        after = tracer.event("after")
        seqs = [tracer.events[0].seq, span.seq, inside.seq, after.seq]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        assert inside.span == span.seq
        assert after.span is None
        assert inside.attrs == {"detail": 1}

    def test_counter_accumulation(self):
        tracer = Tracer()
        tracer.count("x")
        tracer.count("x", 4)
        bound = tracer.counter("y")
        bound.add()
        bound.add(2)
        assert tracer.counters == {"x": 5, "y": 3}

    def test_events_in(self):
        tracer = Tracer()
        with tracer.span("s") as span:
            tracer.event("e1")
        tracer.event("e2")
        assert [e.name for e in tracer.events_in(span)] == ["e1"]


class TestNullTracer:
    def test_null_tracer_is_noop(self):
        with NULL_TRACER.span("anything", attr=1) as record:
            assert record is None
        NULL_TRACER.event("whatever", x=2)
        NULL_TRACER.count("c", 10)
        NULL_TRACER.counter("c").add(5)
        assert not NULL_TRACER.enabled
        assert not hasattr(NULL_TRACER, "counters")

    def test_resolve(self):
        assert resolve(None) is NULL_TRACER
        tracer = Tracer()
        assert resolve(tracer) is tracer

    def test_default_run_skips_snapshots_entirely(self, monkeypatch):
        """Structural zero-overhead: without a tracer, run_phases never
        touches the per-phase snapshot machinery."""
        def boom(module):
            raise AssertionError("_snapshot called on the null path")

        monkeypatch.setattr(pipeline_mod, "_snapshot", boom)
        module = module_of(LOOPY)
        result = run_experiment(module, "Lphi,ABI+C")
        assert result.phase_breakdown == []
        assert result.tracer is NULL_TRACER

    def test_traced_run_uses_snapshots(self):
        module = module_of(LOOPY)
        result = run_experiment(module, "Lphi,ABI+C", tracer=Tracer())
        assert result.phase_breakdown


class TestChromeExport:
    def _trace(self):
        tracer = Tracer()
        module = module_of(LOOPY)
        run_experiment(module, "Lphi,ABI+C", verify=[("main", [4])],
                       tracer=tracer)
        return tracer

    def test_round_trip_fields(self):
        tracer = self._trace()
        document = json.loads(chrome_trace_json(tracer))
        events = document["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        instants = [e for e in events if e["ph"] == "i"]
        counters = [e for e in events if e["ph"] == "C"]
        assert complete and counters
        for event in complete:
            assert isinstance(event["ts"], float)
            assert isinstance(event["dur"], float)
            assert event["dur"] >= 0.0
            assert event["pid"] == 1 and event["tid"] == 1
        names = {e["name"] for e in complete}
        assert "experiment:Lphi,ABI+C" in names
        assert "phase:pinningPhi" in names
        assert "interp:main" in names
        assert {e["name"] for e in instants} >= {"coalesce.block"}
        counter_names = {e["name"] for e in counters}
        assert "interp.steps" in counter_names
        for event in counters:
            assert event["args"] == {event["name"]:
                                     tracer.counters[event["name"]]}

    def test_span_attrs_are_jsonable(self):
        tracer = self._trace()
        # Must not raise even with IR objects in event attrs.
        json.loads(chrome_trace_json(tracer, indent=1))


class TestPhaseBreakdown:
    def test_every_phase_present_with_timing_and_deltas(self):
        module = module_of(LOOPY)
        name = "Lphi,ABI+C"
        doc = run_experiment(module, name, tracer=Tracer()).to_stats()
        for phases in (doc["env"]["phases"], doc["result"]["phases"]):
            assert [e["phase"] for e in phases] == list(EXPERIMENTS[name])
        for timing in doc["env"]["phases"]:
            assert timing["duration_ns"] >= 0
        for entry in doc["result"]["phases"]:
            for key in ("instructions", "moves", "phis",
                        "copies_inserted", "copies_removed"):
                assert isinstance(entry["delta"][key], int)
            assert "main" in entry["functions"]

    def test_deltas_telescope_to_totals(self):
        module = module_of(LOOPY)
        result = run_experiment(module, "Lphi,ABI+C", tracer=Tracer())
        phases = result.to_stats()["result"]["phases"]
        first = phases[0]
        last = phases[-1]
        summed = sum(e["delta"]["instructions"] for e in phases)
        initial = sum(f["before"]["instructions"]
                      for f in first["functions"].values())
        final = sum(f["after"]["instructions"]
                    for f in last["functions"].values())
        assert initial + summed == final
        assert final == result.instructions
        moves_summed = sum(e["delta"]["moves"] for e in phases)
        initial_moves = sum(f["before"]["moves"]
                            for f in first["functions"].values())
        assert initial_moves + moves_summed == result.moves

    def test_stats_deterministic_across_identical_runs(self):
        module = module_of(LOOPY)
        one, two = (run_experiment(module, "Lphi,ABI+C",
                                   verify=[("main", [5])],
                                   tracer=Tracer()).to_stats()
                    for _ in range(2))
        # Per-phase deltas, phase_stats and every decision counter
        # replay exactly; code-cache traffic depends on what ran before
        # (the cache is process-global) and lives in ``env``.
        assert one["result"] == two["result"]
        assert one["result"]["counters"] and one["result"]["phases"]
        assert one["env"]["events"] == two["env"]["events"]

    def test_phase_table_renders(self):
        module = module_of(LOOPY)
        result = run_experiment(module, "Lphi,ABI+C", tracer=Tracer())
        text = phase_table(result.to_stats())
        assert "pinningPhi" in text and "dmoves" in text
        untraced = run_experiment(module, "Lphi,ABI+C").to_stats()
        assert phase_table(untraced).startswith("(no per-phase stats")

    def test_summary_renders(self):
        tracer = Tracer()
        run_experiment(module_of(LOOPY), "Lphi,ABI+C", tracer=tracer)
        text = summary(tracer)
        assert "phase:coalescing" in text
        assert "counters:" in text


class TestPassProfile:
    def test_self_time_subtracts_direct_children(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                with tracer.span("leaf"):
                    pass
            with tracer.span("inner"):
                pass
        rows = {r["pass"]: r for r in pass_self_times(tracer)}
        assert rows["inner"]["calls"] == 2
        outer, = [s for s in tracer.spans if s.name == "outer"]
        inners = [s for s in tracer.spans if s.name == "inner"]
        leaf, = [s for s in tracer.spans if s.name == "leaf"]
        assert rows["outer"]["self_ns"] == outer.duration_ns \
            - sum(s.duration_ns for s in inners)
        assert rows["inner"]["total_ns"] == \
            sum(s.duration_ns for s in inners)
        # only direct children are subtracted: leaf comes out of the
        # first inner's self time, not out of outer's.
        assert rows["inner"]["self_ns"] == rows["inner"]["total_ns"] \
            - leaf.duration_ns
        assert rows["leaf"]["self_ns"] == rows["leaf"]["total_ns"]

    def test_open_spans_are_skipped(self):
        tracer = Tracer()
        open_span = tracer.span("never-closed")
        open_span.__enter__()
        with tracer.span("closed"):
            pass
        names = [r["pass"] for r in pass_self_times(tracer)]
        assert names == ["closed"]

    def test_rows_sorted_by_self_time(self):
        tracer = Tracer()
        run_experiment(module_of(LOOPY), "Lphi,ABI+C", tracer=tracer)
        rows = pass_self_times(tracer)
        assert [r["self_ns"] for r in rows] == \
            sorted((r["self_ns"] for r in rows), reverse=True)
        for row in rows:
            assert 0 <= row["self_ns"] <= row["total_ns"]

    def test_profile_renders(self):
        tracer = Tracer()
        run_experiment(module_of(LOOPY), "Lphi,ABI+C", tracer=tracer)
        text = pass_profile(tracer)
        assert "phase:pinningPhi" in text
        assert "self(ms)" in text and "TOTAL" in text
        assert pass_profile(Tracer()).startswith("(no pass profile")


class TestStatsDocument:
    def test_to_stats_validates_and_round_trips(self):
        module = module_of(LOOPY)
        result = run_experiment(module, "Lphi,ABI+C", tracer=Tracer())
        doc = result.to_stats()
        validate_stats(doc)
        assert json.loads(result.to_json()) == doc
        assert doc["result"]["totals"]["moves"] == result.moves
        assert doc["result"]["counters"] == result.tracer.counters
        assert doc["result"]["phase_stats"]["pinningPhi"]["main"]["gain"] \
            >= 0
        assert not any(name.startswith("analysis.")
                       for name in result.tracer.counters)

    def test_null_tracer_doc_still_validates(self):
        module = module_of(LOOPY)
        result = run_experiment(module, "C")
        doc = result.to_stats()
        validate_stats(doc)
        assert doc["result"]["phases"] == [] == doc["env"]["phases"]
        assert doc["result"]["counters"] == {}

    def test_validator_rejects_bad_documents(self):
        module = module_of(LOOPY)
        doc = run_experiment(module, "C", tracer=Tracer()).to_stats()
        validate_stats(doc)
        for mutate in (
                lambda d: d.pop("schema"),
                lambda d: d.__setitem__("schema", "repro.stats/v0"),
                lambda d: d["result"]["totals"].__setitem__("moves", "1"),
                lambda d: d["result"]["phases"][0]["delta"].pop("moves"),
                lambda d: d["env"]["phases"][0].__setitem__(
                    "duration_ns", -1),
                lambda d: d["env"]["phases"].pop(),
                lambda d: d["result"]["counters"].__setitem__("x", True),
                lambda d: d["env"].pop("events"),
                lambda d: d["env"]["interp"].pop("code_cache"),
                lambda d: d.pop("result"),
        ):
            bad = json.loads(json.dumps(doc))
            mutate(bad)
            with pytest.raises(SchemaError):
                validate_stats(bad)

    def test_collection_document(self):
        module = module_of(LOOPY)
        runs = [run_experiment(module, n, tracer=Tracer()).to_stats()
                for n in ("C", "Lphi+C")]
        validate_stats({"schema": "repro.stats-collection/v1",
                        "runs": runs})
        with pytest.raises(SchemaError):
            validate_stats({"schema": "repro.stats-collection/v1",
                            "runs": runs + [{"schema": "nope"}]})

    def test_cache_block_validates(self, tmp_path):
        module = module_of(LOOPY)
        result = run_experiment(module, "C", tracer=Tracer(),
                                cache=str(tmp_path / "cache"))
        doc = result.to_stats()
        assert doc["schema"] == "repro.stats/v2"
        validate_stats(doc)
        for key in ("hits", "misses", "stores", "evictions", "bytes"):
            assert isinstance(doc["env"]["cache"][key], int)
        for mutate in (
                lambda d: d["env"]["cache"].pop("misses"),
                lambda d: d["env"]["cache"].__setitem__("hits", "3"),
                lambda d: d["env"].__setitem__("cache", [1, 2]),
        ):
            bad = json.loads(json.dumps(doc))
            mutate(bad)
            with pytest.raises(SchemaError):
                validate_stats(bad)

    def test_v1_schemas_are_rejected_naming_v2(self):
        module = module_of(LOOPY)
        doc = run_experiment(module, "C", tracer=Tracer()).to_stats()
        for old in ("repro.stats/v1", "repro.stats/v1.3",
                    "repro.stats/v1.6"):
            relabelled = json.loads(json.dumps(doc))
            relabelled["schema"] = old
            with pytest.raises(SchemaError, match="repro.stats/v2"):
                validate_stats(relabelled)


class TestDigestIdentity:
    """One ``stats_digest`` for one traced, verified run of a suite
    module at any job count, cache temperature and interpreter tier:
    everything that varies between them lives in ``env``."""

    @pytest.fixture(scope="class")
    def suite(self):
        from repro.benchgen import load_suite

        return load_suite("VALcc1")

    @pytest.fixture(scope="class")
    def reference(self, suite):
        return self._run(suite).to_stats()

    @staticmethod
    def _run(suite, **kwargs):
        return run_experiment(suite.module, "Lphi,ABI+C",
                              verify=suite.verify, tracer=Tracer(),
                              **kwargs)

    @pytest.mark.parametrize("tier", ["reference", "compiled"])
    @pytest.mark.parametrize("cache", ["none", "cold", "warm"])
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_digest(self, suite, reference, tmp_path, monkeypatch,
                        jobs, cache, tier):
        from repro.observability import stats_digest
        from repro.parallel import fork_available

        if jobs > 1 and not fork_available():
            pytest.skip("platform lacks fork")
        monkeypatch.setenv("REPRO_INTERP", tier)
        directory = None if cache == "none" else str(tmp_path / "cache")
        if cache == "warm":
            self._run(suite, cache=directory)
        doc = self._run(suite, jobs=jobs, cache=directory).to_stats()
        validate_stats(doc)
        assert doc["env"]["interp"]["tier"] == tier
        if cache == "warm":
            assert doc["env"]["cache"]["hits"] == len(suite.module.functions)
        if jobs > 1:
            assert doc["env"]["parallel"]["workers"] == 2
        assert doc["result"]["counters"]["interp.runs"] == \
            2 * len(suite.verify)
        assert doc["result"] == reference["result"]
        assert stats_digest(doc) == stats_digest(reference)


class TestCoalescerDecisionEvents:
    """Acceptance: coalesce_phis decision events/counters agree with the
    returned phase stats on the paper's figure examples."""

    @pytest.mark.parametrize("figure", sorted(ALL_FIGURES))
    def test_counters_match_stats(self, figure):
        module, verify = ALL_FIGURES[figure]()
        tracer = Tracer()
        result = run_experiment(module, "Lphi,ABI+C", verify=verify,
                                tracer=tracer)
        stats = result.phase_stats["pinningPhi"]
        totals = {
            "coalesce.edges_built":
                sum(s.affinity_edges for s in stats.values()),
            "coalesce.edges_pruned_interference":
                sum(s.pruned_initial for s in stats.values()),
            "coalesce.edges_pruned_weight":
                sum(s.pruned_weighted for s in stats.values()),
            "coalesce.edges_pruned_safety":
                sum(s.pruned_safety for s in stats.values()),
            "coalesce.components_merged":
                sum(s.merged_components for s in stats.values()),
            "coalesce.pins_applied":
                sum(s.pinned_variables for s in stats.values()),
            "coalesce.gain": sum(s.gain for s in stats.values()),
        }
        for name, expected in totals.items():
            assert tracer.counters.get(name, 0) == expected, name

    def test_block_events_sum_to_counters(self):
        module, verify = ALL_FIGURES["fig8"]()
        tracer = Tracer()
        run_experiment(module, "Lphi,ABI+C", verify=verify, tracer=tracer)
        blocks = [e for e in tracer.events if e.name == "coalesce.block"]
        assert blocks, "expected per-block decision events"
        assert sum(e.attrs["pruned_interference"] for e in blocks) == \
            tracer.counters.get("coalesce.edges_pruned_interference", 0)
        assert sum(e.attrs["components_merged"] for e in blocks) == \
            tracer.counters.get("coalesce.components_merged", 0)
        merges = [e for e in tracer.events if e.name == "coalesce.merge"]
        assert len(merges) == \
            tracer.counters.get("coalesce.components_merged", 0)

    def test_interference_queries_counted(self):
        module, verify = ALL_FIGURES["fig8"]()
        tracer = Tracer()
        run_experiment(module, "Lphi,ABI+C", verify=verify, tracer=tracer)
        assert tracer.counters.get("coalesce.interference_queries", 0) > 0


class TestSreedharAndChaitinEvents:
    def test_sreedhar_counters_match_stats(self):
        module, verify = ALL_FIGURES["fig10"]()
        tracer = Tracer()
        result = run_experiment(module, "Sphi+C", verify=verify,
                                tracer=tracer)
        stats = result.phase_stats["sreedhar"]
        assert tracer.counters.get("sreedhar.phis_processed", 0) == \
            sum(s.phis_processed for s in stats.values())
        assert tracer.counters.get("sreedhar.split_copies", 0) == \
            sum(s.split_copies for s in stats.values())
        assert tracer.counters.get("sreedhar.pinned", 0) == \
            sum(s.pinned for s in stats.values())
        phi_events = [e for e in tracer.events if e.name == "sreedhar.phi"]
        assert len(phi_events) == \
            tracer.counters.get("sreedhar.phis_processed", 0)
        assert sum(e.attrs["splits"] for e in phi_events) == \
            tracer.counters.get("sreedhar.split_copies", 0)

    def test_chaitin_round_events(self):
        module = module_of(LOOPY)
        tracer = Tracer()
        result = run_experiment(module, "C", tracer=tracer)
        rounds = [e for e in tracer.events if e.name == "chaitin.round"]
        assert rounds
        assert tracer.counters.get("chaitin.rounds", 0) == len(rounds)
        assert sum(e.attrs["copies_removed"] for e in rounds) == \
            sum(result.phase_stats["coalescing"].values())
        assert rounds[-1].attrs["copies_removed"] == 0  # fixpoint proof


class TestInterpreterHooks:
    def test_on_block_fires_once_per_block_execution(self):
        module = module_of(LOOPY)
        seen = []
        Interpreter(module, on_block=lambda fn, label:
                    seen.append((fn, label))).run("main", [2])
        assert seen.count(("main", "entry")) == 1
        assert seen.count(("main", "head")) == 3
        assert seen.count(("main", "body")) == 2
        assert seen.count(("main", "exit")) == 1

    def test_tracer_counts_and_span(self):
        module = module_of(LOOPY)
        tracer = Tracer()
        trace = Interpreter(module, tracer=tracer).run("main", [2])
        assert tracer.counters["interp.runs"] == 1
        assert tracer.counters["interp.steps"] == trace.steps
        # entry once, head 3x, body 2x, exit once
        assert tracer.counters["interp.block_entries"] == 7
        assert tracer.spans[0].name == "interp:main"

    def test_tracer_and_hook_compose(self):
        module = module_of(LOOPY)
        tracer = Tracer()
        counted = []
        Interpreter(module, on_block=lambda fn, label: counted.append(label),
                    tracer=tracer).run("main", [1])
        assert len(counted) == tracer.counters["interp.block_entries"]

    def test_profile_blocks_unified_on_hook(self):
        module = module_of(LOOPY)
        counts = profile_blocks(module, [("main", [4])])
        assert counts[("main", "entry")] == 1
        assert counts[("main", "head")] == 5
        assert counts[("main", "body")] == 4
        assert counts[("main", "exit")] == 1
