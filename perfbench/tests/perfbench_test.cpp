// Tests of the benchmark itself: its statistics, span accounting, report
// format, and that its workload loops reproduce the library's own entry points.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/evaluation.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "trafficx/runner.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

// --- Percentile rule ------------------------------------------------------------

TEST(PercentileRule, CountsSamplesRankedBeyondTheQuantile) {
  EXPECT_EQ(samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(samples_beyond(100, 0.90), 10u);
  EXPECT_EQ(samples_beyond(0, 0.5), 0u);
}

TEST(PercentileRule, TailNeedsTenSamplesBeyond) {
  EXPECT_TRUE(percentile_supported(1000, 0.99));
  EXPECT_FALSE(percentile_supported(999, 0.99));
  EXPECT_TRUE(percentile_supported(100, 0.90));
  EXPECT_FALSE(percentile_supported(99, 0.90));
}

TEST(PercentileRule, HighestSupportedPercentile) {
  EXPECT_DOUBLE_EQ(highest_supported_percentile(1000), 99.0);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(10'000), 99.9);
  EXPECT_DOUBLE_EQ(highest_supported_percentile(9), 0.0);
  const double p = highest_supported_percentile(1283);
  EXPECT_TRUE(percentile_supported(1283, p / 100.0));
  EXPECT_FALSE(percentile_supported(1283, (p + 0.1) / 100.0));
}

TEST(Quantile, InterpolatesLinearly) {
  EXPECT_DOUBLE_EQ(quantile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(quantile({1.0, 2.0, 3.0}, 1.0), 3.0);
  EXPECT_DOUBLE_EQ(median({7.0}), 7.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

// --- Span self time -------------------------------------------------------------------

TEST(SpanSelfTime, SubtractsTheUnionOfDirectChildren) {
  const std::vector<Span> spans = {
      {0, 0, 100, -1, 0},  // root
      {1, 10, 30, 0, 1},   // child
      {1, 20, 50, 0, 2},   // overlapping child: [10, 50) counts once
      {1, 60, 70, 0, 3},
      {2, 62, 65, 3, 3},   // grandchild: charged to span 3 only
      {1, 90, 140, 0, 4},  // runs past the root: clipped to [90, 100)
  };
  const std::vector<std::int64_t> self = self_times_ns(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10 - 10);
  EXPECT_EQ(self[1], 20);
  EXPECT_EQ(self[3], 10 - 3);
  EXPECT_EQ(self[4], 3);
  EXPECT_EQ(self[5], 50);
}

TEST(SpanSelfTime, RecorderNestsScopesAndSumsPerName) {
  SpanRecorder recorder;
  {
    const auto outer = span(&recorder, "outer");
    for (int i = 0; i < 3; ++i) {
      const auto inner = span(&recorder, "inner", static_cast<std::uint32_t>(i + 1));
    }
  }
  ASSERT_EQ(recorder.spans().size(), 4u);
  EXPECT_EQ(recorder.spans()[0].parent, -1);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(recorder.spans()[i].parent, 0);
    EXPECT_EQ(recorder.spans()[i].flow, i);
  }
  const auto total = recorder.total_seconds();
  const auto self = recorder.self_seconds();
  EXPECT_NEAR(self.at("outer") + self.at("inner"), total.at("outer"), 1e-12);
  EXPECT_EQ(recorder.counts().at("inner"), 3u);

  std::ostringstream out;
  recorder.write_jsonl(out);
  EXPECT_NE(out.str().find("\"name\":\"inner\""), std::string::npos);
}

TEST(SpanSelfTime, NullRecorderRecordsNothing) {
  const auto s = span(nullptr, "ignored");
  SUCCEED();
}

// --- Output schema -------------------------------------------------------------------

TEST(OutputSchema, ReportIsOneJsonLineWithEveryField) {
  Report report;
  report.options.workload = Workload::kPaperEval;
  report.options.seed = 3;
  report.attempted = 10;
  report.digest = 0xabc;
  report.notes = {"a \"quoted\" note"};
  report.metrics = {{"run_s", 0.125, "s", Label::kHost},
                    {"delivery_rate", 1.0 / 3.0, "ratio", Label::kSim}};
  std::ostringstream out;
  write_report(out, report);
  const std::string line = out.str();
  EXPECT_EQ(line.find('\n'), line.size() - 1);
  for (const char* key : {"\"workload\":\"paper-eval\"", "\"seed\":3", "\"correct\":true",
                          "\"attempted\":10", "\"failed\":0", "\"digest\":\"0000000000000abc\"",
                          "\"run_s\":{\"value\":0.125,\"unit\":\"s\",\"label\":\"host\"}",
                          "\"label\":\"sim\"", "0.33333333333333331", "a \\\"quoted\\\" note"}) {
    EXPECT_NE(line.find(key), std::string::npos) << key << " in " << line;
  }
}

// --- Workload loops reproduce the library ------------------------------------------

TEST(TrafficReplay, FirstFlowsIsAPrefixOfThePoissonSchedule) {
  const TrafficDef def = traffic_def(Workload::kHotspot, 5);
  const osmx::City city = osmx::generate_city(def.profile);
  const trafficx::FlowSchedule full = trafficx::compile(def.spec, city);
  ASSERT_GT(full.flows.size(), 100u);
  const trafficx::FlowSchedule head = first_flows(def.spec, city, 100);
  ASSERT_EQ(head.flows.size(), 100u);
  EXPECT_EQ(head.spec.duration_s, def.spec.duration_s);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(head.flows[i].src, full.flows[i].src);
    EXPECT_EQ(head.flows[i].dst, full.flows[i].dst);
    EXPECT_EQ(head.flows[i].start_s, full.flows[i].start_s);
  }
  const trafficx::FlowSchedule longer = first_flows(def.spec, city, full.flows.size() + 50);
  EXPECT_EQ(longer.flows.size(), full.flows.size() + 50);
  EXPECT_EQ(longer.spec.duration_s, longer.flows.back().start_s);
}

TEST(TrafficReplay, MatchesRunWorkloadFlowForFlow) {
  for (const Workload w : {Workload::kHotspot, Workload::kQfgeo}) {
    TrafficDef def = traffic_def(w, 11);
    def.flows = 60;
    TrafficSetup ours = setup_traffic(def);
    const TrafficRun run = drive_flows(*ours.network, ours.schedule);

    core::CityMeshNetwork theirs{ours.compiled, def.network};
    const trafficx::WorkloadResult want = trafficx::run_workload(theirs, ours.schedule);
    ASSERT_EQ(run.flows.size(), want.flows.size());
    for (std::size_t i = 0; i < run.flows.size(); ++i) {
      EXPECT_EQ(run.flows[i].injected, want.flows[i].injected) << i;
      EXPECT_EQ(run.flows[i].delivered, want.flows[i].delivered) << i;
      EXPECT_EQ(run.flows[i].latency_s, want.flows[i].latency_s) << i;
      EXPECT_EQ(run.flows[i].transmissions, want.flows[i].transmissions) << i;
    }
    EXPECT_EQ(run.medium.deferrals, want.summary.deferrals);
    EXPECT_EQ(run.medium.queue_drops, want.summary.queue_drops);
    EXPECT_EQ(flows_digest(run.flows), flows_digest(want.flows));
  }
}

TEST(TrafficReplay, HotspotReproducesFig9Row) {
  // bench/fig9_capacity, 64 flows/s: 1283 offered, 850 delivered, 33721
  // deferrals, 2733 drops, p50 10395.0 ms.
  const TrafficDef def = traffic_def(Workload::kHotspot, 909);
  TrafficSetup setup = setup_traffic(def);
  const TrafficRun run = drive_flows(*setup.network, setup.schedule);
  const core::CapacitySummary s = core::summarize_capacity(
      run.flows, setup.schedule.spec.duration_s, run.medium.queue_drops,
      run.medium.deferrals, run.medium.airtime_s);
  EXPECT_EQ(s.flows_offered, 1283u);
  EXPECT_EQ(s.flows_delivered, 850u);
  EXPECT_EQ(s.deferrals, 33721u);
  EXPECT_EQ(s.queue_drops, 2733u);
  EXPECT_NEAR(s.latency_p50_s * 1e3, 10395.0, 0.05);
}

PaperEvalDef small_paper_eval(std::uint64_t seed, std::size_t sends) {
  PaperEvalDef def = paper_eval_def(seed);
  def.profiles.resize(3);
  def.sends_per_city = sends;
  return def;
}

TEST(PaperEval, DigestIsIdenticalAtOneAndFourWorkers) {
  const PaperEvalDef def = small_paper_eval(4, 20);
  const PaperEvalRun one = run_paper_eval(def, 1, false);
  const PaperEvalRun four = run_paper_eval(def, 4, false);
  const PaperEvalRun traced = run_paper_eval(def, 4, true);
  EXPECT_EQ(one.city_compiles, def.profiles.size());
  EXPECT_EQ(sends_digest(one.cities), sends_digest(four.cities));
  EXPECT_EQ(sends_digest(one.cities), sends_digest(traced.cities));
  std::size_t sends = 0;
  for (const CitySends& c : one.cities) sends += c.sends.size();
  EXPECT_EQ(sends, def.profiles.size() * def.sends_per_city);
}

TEST(PaperEval, SendLoopMatchesEvaluateCity) {
  // At fig6's evaluation seed the benchmark's loop is core::evaluate_city.
  const PaperEvalDef def = small_paper_eval(core::EvaluationConfig{}.seed, 50);
  const PaperEvalRun run = run_paper_eval(def, 2, false);
  for (std::size_t c = 0; c < def.profiles.size(); ++c) {
    core::EvaluationConfig cfg;
    cfg.deliverability_pairs = def.sends_per_city;
    const core::CityEvaluation want =
        core::evaluate_city(osmx::generate_city(def.profiles[c]), cfg);
    const auto& sends = run.cities[c].sends;
    ASSERT_EQ(sends.size(), want.deliveries_attempted) << def.profiles[c].name;
    std::size_t delivered = 0;
    std::vector<double> overheads;
    for (const SendRecord& s : sends) {
      delivered += s.delivered ? 1 : 0;
      if (s.delivered && s.overhead) overheads.push_back(*s.overhead);
    }
    EXPECT_EQ(delivered, want.deliveries_succeeded) << def.profiles[c].name;
    EXPECT_EQ(overheads, want.overheads) << def.profiles[c].name;
  }
}

// --- Traced runs ------------------------------------------------------------------------

double metric(const Report& r, const std::string& name) {
  for (const Metric& m : r.metrics) {
    if (m.name == name) return m.value;
  }
  ADD_FAILURE() << "missing metric " << name;
  return 0.0;
}

TEST(TracedRun, ReproducesTheUntracedDigestAndAccountsForItsRunPhase) {
  Options options;
  options.workload = Workload::kQfgeo;
  options.seed = 2;
  options.seconds = 1;
  const Report plain = run(options);
  options.trace = true;
  const Report traced = run(options);
  EXPECT_TRUE(plain.correct);
  EXPECT_TRUE(traced.correct);
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_GE(traced.reps, 2u);

  // QF-Geo plans no building route: no Dijkstra work at all.
  EXPECT_EQ(metric(traced, "planner.plans"), 0.0);
  EXPECT_EQ(metric(traced, "planner.plan_s"), 0.0);
  EXPECT_GT(metric(traced, "qfgeo.candidates"), 0.0);
  EXPECT_EQ(metric(traced, "network.injects"), 1000.0);

  const double accounted =
      metric(traced, "cryptox.postbox_keys_s") + metric(traced, "network.register_s") +
      metric(traced, "network.inject_s") + metric(traced, "sim.loop_s") +
      metric(traced, "trace.unattributed_s");
  EXPECT_NEAR(accounted, metric(traced, "trace.run_s"), 0.01 * metric(traced, "trace.run_s"));
}

}  // namespace
