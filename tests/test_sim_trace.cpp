// Tests for the max-plus timelines, the §6 trace format, and the ebb & flow
// analysis behind Figure 1 / Table 1's m column.
#include <gtest/gtest.h>

#include <vector>

#include "sim/timeline.hpp"
#include "support/check.hpp"
#include "trace/ebb_flow.hpp"
#include "trace/trace_log.hpp"

namespace {

using namespace mg;
using mg::support::ContractViolation;

// ---- Timeline ------------------------------------------------------------------

TEST(Timeline, ReservesFromEarliestWhenFree) {
  sim::Timeline t;
  const auto i = t.reserve(3.0, 2.0);
  EXPECT_DOUBLE_EQ(i.start, 3.0);
  EXPECT_DOUBLE_EQ(i.end, 5.0);
  EXPECT_DOUBLE_EQ(i.duration(), 2.0);
}

TEST(Timeline, SerializesOverlappingRequests) {
  sim::Timeline t;
  t.reserve(0.0, 2.0);
  const auto second = t.reserve(1.0, 2.0);  // wants 1.0 but resource busy
  EXPECT_DOUBLE_EQ(second.start, 2.0);
  EXPECT_DOUBLE_EQ(second.end, 4.0);
}

TEST(Timeline, TracksBusyTimeAndHistory) {
  sim::Timeline t;
  t.reserve(0.0, 1.0);
  t.reserve(5.0, 2.5);
  EXPECT_DOUBLE_EQ(t.busy_time(), 3.5);
  EXPECT_DOUBLE_EQ(t.free_from(), 7.5);
  EXPECT_EQ(t.history().size(), 2u);
}

TEST(Timeline, ZeroDurationIsAllowed) {
  sim::Timeline t;
  const auto i = t.reserve(1.0, 0.0);
  EXPECT_DOUBLE_EQ(i.start, i.end);
}

TEST(Timeline, NegativeDurationIsRejected) {
  sim::Timeline t;
  EXPECT_THROW(t.reserve(0.0, -1.0), ContractViolation);
}

// ---- trace format -----------------------------------------------------------------

TEST(TraceFormat, MatchesPaperLayout) {
  trace::TraceMessage m;
  m.host = "bumpa.sen.cwi.nl";
  m.task_id = 262146;
  m.process_id = 140;
  m.seconds = 1048087412;
  m.microseconds = 175834;
  m.task_name = "mainprog";
  m.manifold_name = "Master(port in)";
  m.source_file = "ResSourceCode.c";
  m.source_line = 136;
  m.text = "Welcome";
  EXPECT_EQ(m.format(),
            "bumpa.sen.cwi.nl 262146 140 1048087412 175834\n"
            "    mainprog Master(port in) ResSourceCode.c 136 -> Welcome");
}

TEST(TraceLogTest, RecordsInOrderAndRenders) {
  trace::TraceLog log;
  trace::TraceMessage m;
  m.text = "first";
  log.record(m);
  m.text = "second";
  log.record(m);
  EXPECT_EQ(log.size(), 2u);
  const auto messages = log.snapshot();
  EXPECT_EQ(messages[0].text, "first");
  EXPECT_EQ(messages[1].text, "second");
  EXPECT_NE(log.render().find("second"), std::string::npos);
  log.clear();
  EXPECT_EQ(log.size(), 0u);
}

// ---- ebb & flow ---------------------------------------------------------------------

TEST(EbbFlow, BuildsStepFunction) {
  const auto series = trace::build_ebb_flow({{1.0, +1}, {3.0, +1}, {4.0, -1}}, 6.0);
  EXPECT_EQ(series.count_at(0.5), 0);
  EXPECT_EQ(series.count_at(1.5), 1);
  EXPECT_EQ(series.count_at(3.5), 2);
  EXPECT_EQ(series.count_at(5.0), 1);
  EXPECT_EQ(series.peak(), 2);
}

TEST(EbbFlow, WeightedAverageIsTimeWeighted) {
  // 1 machine on [0,2), 2 on [2,4), 0 on [4,8): avg = (2*1+2*2+4*0)/8 = 0.75.
  const auto series =
      trace::build_ebb_flow({{0.0, +1}, {2.0, +1}, {4.0, -1}, {4.0, -1}}, 8.0);
  EXPECT_DOUBLE_EQ(series.weighted_average(), 0.75);
}

TEST(EbbFlow, HandlesUnsortedEvents) {
  const auto series = trace::build_ebb_flow({{5.0, -1}, {1.0, +1}, {3.0, +1}, {6.0, -1}}, 10.0);
  EXPECT_EQ(series.peak(), 2);
  EXPECT_EQ(series.count_at(9.0), 0);
}

TEST(EbbFlow, SimultaneousEventsCollapse) {
  const auto series = trace::build_ebb_flow({{1.0, +1}, {1.0, +1}, {1.0, +1}}, 2.0);
  EXPECT_EQ(series.peak(), 3);
  // One breakpoint at t=1 with count 3, plus the initial zero segment.
  EXPECT_EQ(series.times.size(), 2u);
}

TEST(EbbFlow, NegativeCountIsAContractViolation) {
  EXPECT_THROW(trace::build_ebb_flow({{1.0, -1}}, 2.0), ContractViolation);
}

TEST(EbbFlow, EmptySeriesIsWellDefined) {
  const auto series = trace::build_ebb_flow({}, 5.0);
  EXPECT_EQ(series.peak(), 0);
  EXPECT_DOUBLE_EQ(series.weighted_average(), 0.0);
  EXPECT_EQ(series.count_at(1.0), 0);
}

TEST(EbbFlow, AsciiChartRendersWithoutCrashing) {
  const auto series = trace::build_ebb_flow({{0.0, +1}, {2.0, +1}, {5.0, -1}}, 10.0);
  const std::string chart = trace::render_ascii_chart(series, 40, 8);
  EXPECT_NE(chart.find('*'), std::string::npos);
  EXPECT_NE(chart.find("peak 2"), std::string::npos);
}

}  // namespace
