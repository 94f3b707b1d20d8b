// Tests for the obs tracing layer: span recording and nesting, explicit
// simulated-time events, the chrome://tracing JSON exporter, buffer
// overflow accounting, the executor's Gantt instrumentation
// (execute_with_faults exporting task/redispatch/checkpoint events) and the
// FrontierIndex build's per-pass spans.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/cluster_exec.hpp"
#include "cloud/provider.hpp"
#include "core/frontier_index.hpp"
#include "obs/trace.hpp"

namespace {

namespace obs = celia::obs;
using namespace celia::cloud;
using celia::apps::ParallelPattern;
using celia::apps::Workload;
using celia::hw::WorkloadClass;

std::vector<int> single(const std::string& name, int count = 1) {
  std::vector<int> counts(9, 0);
  counts[catalog_index(name)] = count;
  return counts;
}

Workload independent_tasks(std::vector<double> tasks) {
  Workload workload;
  workload.app_name = "test";
  workload.workload_class = WorkloadClass::kVideoEncoding;
  workload.pattern = ParallelPattern::kIndependentTasks;
  workload.total_instructions =
      std::accumulate(tasks.begin(), tasks.end(), 0.0);
  workload.task_instructions = std::move(tasks);
  return workload;
}

Workload bulk_synchronous(std::uint64_t steps, double per_step,
                          double sync_bytes) {
  Workload workload;
  workload.app_name = "test";
  workload.workload_class = WorkloadClass::kNBody;
  workload.pattern = ParallelPattern::kBulkSynchronous;
  workload.steps = steps;
  workload.instructions_per_step = per_step;
  workload.sync_bytes_per_step = sync_bytes;
  workload.total_instructions = steps * per_step;
  return workload;
}

std::size_t count_named(const std::vector<obs::TraceEvent>& events,
                        std::string_view name) {
  return static_cast<std::size_t>(
      std::count_if(events.begin(), events.end(),
                    [&](const obs::TraceEvent& e) { return e.name == name; }));
}

class ObsTrace : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_tracing_enabled(true);
    obs::clear_trace();
  }
  void TearDown() override {
    obs::set_tracing_enabled(false);
    obs::clear_trace();
  }
};

TEST_F(ObsTrace, DisabledTracingRecordsNothing) {
  obs::set_tracing_enabled(false);
  {
    obs::Span span("never", "test");
  }
  obs::record_complete("never", "test", 10, 5, 1);
  obs::record_instant("never", "test", 10, 1);
  EXPECT_TRUE(obs::trace_snapshot().empty());
}

TEST_F(ObsTrace, SpanEmitsCompleteEvent) {
  {
    obs::Span span("unit_of_work", "test");
  }
  const auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "unit_of_work");
  EXPECT_EQ(events[0].category, "test");
  EXPECT_EQ(events[0].phase, 'X');
  EXPECT_GE(events[0].dur_us, 0);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_GT(events[0].tid, 0u);
}

TEST_F(ObsTrace, NestedSpansRecordDepths) {
  {
    obs::Span outer("outer", "test");
    {
      obs::Span inner("inner", "test");
    }
  }
  auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 2u);
  // The outer span starts first; snapshot is ts-sorted.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);
  EXPECT_EQ(events[0].tid, events[1].tid);
}

TEST_F(ObsTrace, ExplicitEventsAreSortedByTimestamp) {
  obs::record_complete("late", "sim", 200, 40, 3);
  obs::record_instant("middle", "sim", 150, 7);
  obs::record_complete("early", "sim", 100, 10, 3);
  const auto events = obs::trace_snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "early");
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[2].name, "late");
  EXPECT_EQ(events[1].phase, 'i');
  EXPECT_EQ(events[1].tid, 7u);
  EXPECT_EQ(events[2].dur_us, 40);
}

TEST_F(ObsTrace, ChromeTraceJsonSchema) {
  obs::record_complete("alpha", "exec", 100, 50, 3);
  obs::record_instant("beta", "exec", 150, 7);
  const std::string json = obs::write_chrome_trace();

  // Top-level shape.
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  // Complete event: ph X with a dur field and the shared pid.
  EXPECT_NE(json.find("{\"name\":\"alpha\",\"cat\":\"exec\",\"ph\":\"X\","
                      "\"ts\":100,\"dur\":50,\"pid\":1,\"tid\":3}"),
            std::string::npos);
  // Instant event: ph i carries a scope and no dur.
  EXPECT_NE(json.find("{\"name\":\"beta\",\"cat\":\"exec\",\"ph\":\"i\","
                      "\"ts\":150,\"s\":\"t\",\"pid\":1,\"tid\":7}"),
            std::string::npos);
}

TEST_F(ObsTrace, ChromeTraceEscapesJsonSpecials) {
  obs::record_instant("quo\"te\nline\\slash", "test", 1, 1);
  const std::string json = obs::write_chrome_trace();
  EXPECT_NE(json.find("quo\\\"te\\nline\\\\slash"), std::string::npos);
}

TEST_F(ObsTrace, BufferOverflowCountsDroppedEvents) {
  const std::uint64_t dropped_before = obs::trace_dropped_count();
  constexpr std::size_t kExtra = 10;
  for (std::size_t i = 0; i < obs::kMaxEventsPerThread + kExtra; ++i)
    obs::record_instant("flood", "test", static_cast<std::int64_t>(i), 1);
  EXPECT_EQ(obs::trace_dropped_count() - dropped_before, kExtra);
  EXPECT_EQ(count_named(obs::trace_snapshot(), "flood"),
            obs::kMaxEventsPerThread);
  // clear_trace() frees the buffer for subsequent events.
  obs::clear_trace();
  obs::record_instant("after", "test", 0, 1);
  EXPECT_EQ(obs::trace_snapshot().size(), 1u);
}

// ---------------------------------------------------------------------------
// Executor Gantt instrumentation (simulated-time events).

TEST_F(ObsTrace, TaskFarmUnderFaultsExportsGanttEvents) {
  const auto counts = single("c4.large", 2);
  const Workload workload = independent_tasks(std::vector<double>(16, 1e11));
  const ClusterExecutor executor;

  CloudProvider baseline_provider(8);
  const auto baseline = executor.execute(
      workload, baseline_provider.provision(counts), counts);

  FaultModel model;
  model.mtbf_seconds = baseline.seconds / 4.0;  // several crashes expected
  FaultExecutionOptions options;
  options.faults = model;

  CloudProvider provider(8);
  const auto fleet = provider.provision_with_faults(counts, model);
  const auto report =
      executor.execute_with_faults(workload, provider, fleet, counts, options);
  ASSERT_TRUE(report.completed);
  ASSERT_GT(report.faults.node_failures, 0u);
  ASSERT_GT(report.faults.tasks_redispatched, 0u);

  const auto events = obs::trace_snapshot();
  // One complete 'task' segment per task (first completion wins).
  EXPECT_EQ(count_named(events, "task"), workload.task_instructions.size());
  // Fault instants mirror the FaultStats counters exactly.
  EXPECT_EQ(count_named(events, "node_crash"), report.faults.node_failures);
  EXPECT_EQ(count_named(events, "redispatch"),
            report.faults.tasks_redispatched);
  EXPECT_EQ(count_named(events, "replacement"), report.faults.replacements);
  // The wall-clock umbrella span is present once.
  EXPECT_EQ(count_named(events, "execute_with_faults"), 1u);
  // Simulated timestamps are microseconds of simulated time, so every
  // event lands inside [0, makespan].
  const auto makespan_us = static_cast<std::int64_t>(report.seconds * 1e6);
  for (const auto& event : events) {
    if (event.category != "exec" || event.phase != 'i') continue;
    EXPECT_GE(event.ts_us, 0);
    EXPECT_LE(event.ts_us, makespan_us);
  }
}

TEST_F(ObsTrace, BulkSynchronousExportsCheckpointAndStepEvents) {
  const auto counts = single("m4.large", 3);
  const Workload workload = bulk_synchronous(80, 3e10, 1e6);
  const ClusterExecutor executor;

  CloudProvider baseline_provider(21);
  const auto baseline = executor.execute(
      workload, baseline_provider.provision(counts), counts);

  FaultModel model;
  model.mtbf_seconds = baseline.seconds / 2.0;
  FaultExecutionOptions options;
  options.faults = model;
  options.checkpoint.interval_seconds = baseline.seconds / 10.0;
  options.checkpoint.write_cost_seconds = baseline.seconds / 400.0;

  CloudProvider provider(21);
  const auto fleet = provider.provision_with_faults(counts, model);
  const auto report =
      executor.execute_with_faults(workload, provider, fleet, counts, options);
  ASSERT_TRUE(report.completed);
  ASSERT_GT(report.faults.node_failures, 0u);
  ASSERT_GT(report.faults.checkpoints_written, 0u);

  const auto events = obs::trace_snapshot();
  EXPECT_EQ(count_named(events, "checkpoint"),
            report.faults.checkpoints_written);
  EXPECT_EQ(count_named(events, "node_crash"), report.faults.node_failures);
  // Every committed BSP step leaves one complete 'step' segment; crashes
  // re-run steps, so at least `steps` segments exist.
  EXPECT_GE(count_named(events, "step"), workload.steps);
}

TEST_F(ObsTrace, InertFaultRunRecordsNoExecEvents) {
  const auto counts = single("c4.xlarge", 2);
  const Workload workload = independent_tasks(std::vector<double>(8, 1e11));
  const ClusterExecutor executor;
  CloudProvider provider(5);
  const auto fleet = provider.provision_with_faults(counts, FaultModel{});
  const auto report =
      executor.execute_with_faults(workload, provider, fleet, counts);
  ASSERT_TRUE(report.completed);
  // The inert model takes the legacy execute() path before any
  // instrumentation, so the trace stays empty (bit-identity guard).
  EXPECT_TRUE(obs::trace_snapshot().empty());
}

TEST_F(ObsTrace, FrontierBuildEmitsOneSpanPerPass) {
  const celia::core::ConfigurationSpace space(std::vector<int>(9, 2));
  const celia::core::ResourceCapacity capacity(
      std::vector<double>(9, 1.2e9), Catalog::ec2_table3());
  celia::parallel::ThreadPool pool(2);
  celia::core::FrontierIndex::BuildOptions options;
  options.pool = &pool;
  (void)celia::core::FrontierIndex::build(space, capacity, options);

  const auto events = obs::trace_snapshot();
  const auto parent = std::find_if(
      events.begin(), events.end(),
      [](const obs::TraceEvent& e) { return e.name == "frontier_build"; });
  ASSERT_NE(parent, events.end());
  ASSERT_EQ(count_named(events, "frontier_build"), 1u);
  std::vector<obs::TraceEvent> children;
  for (const auto& e : events)
    if (e.name.starts_with("frontier_build.")) children.push_back(e);
  std::sort(children.begin(), children.end(),
            [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
              return a.ts_us < b.ts_us;
            });
  const std::vector<std::string> expected = {
      "frontier_build.fences", "frontier_build.pass_a",
      "frontier_build.pass_b", "frontier_build.order",
      "frontier_build.pass_c", "frontier_build.merge"};
  ASSERT_EQ(children.size(), expected.size());
  for (std::size_t i = 0; i < children.size(); ++i) {
    SCOPED_TRACE(children[i].name);
    EXPECT_EQ(children[i].name, expected[i]);
    EXPECT_EQ(children[i].category, "planner");
    EXPECT_EQ(children[i].tid, parent->tid);
    EXPECT_EQ(children[i].depth, parent->depth + 1);
    // Inside the parent, and no overlap with the previous pass.
    EXPECT_GE(children[i].ts_us, parent->ts_us);
    EXPECT_LE(children[i].ts_us + children[i].dur_us,
              parent->ts_us + parent->dur_us);
    if (i > 0)
      EXPECT_GE(children[i].ts_us,
                children[i - 1].ts_us + children[i - 1].dur_us);
  }
}

}  // namespace
