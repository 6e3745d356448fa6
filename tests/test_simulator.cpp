#include "sim/core/simulator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace aedbmls::sim {
namespace {

TEST(Simulator, StartsAtZero) {
  Simulator simulator;
  EXPECT_EQ(simulator.now(), Time{});
  EXPECT_EQ(simulator.pending_events(), 0u);
}

TEST(Simulator, AdvancesToEventTimes) {
  Simulator simulator;
  std::vector<double> times;
  simulator.schedule(seconds(1), [&] { times.push_back(simulator.now().seconds()); });
  simulator.schedule(seconds(3), [&] { times.push_back(simulator.now().seconds()); });
  simulator.run();
  EXPECT_EQ(times, (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(simulator.now(), seconds(3));
}

TEST(Simulator, EventsCanScheduleEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(seconds(1), [&] {
    simulator.schedule(seconds(1), [&] { ++fired; });
  });
  simulator.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), seconds(2));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(seconds(1), [&] { ++fired; });
  simulator.schedule(seconds(5), [&] { ++fired; });
  simulator.run_until(seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(simulator.now(), seconds(2));
  EXPECT_EQ(simulator.pending_events(), 1u);
}

TEST(Simulator, RunUntilIncludesBoundaryEvents) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(seconds(2), [&] { ++fired; });
  simulator.run_until(seconds(2));
  EXPECT_EQ(fired, 1);
}

TEST(Simulator, StopHaltsRun) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(seconds(1), [&] {
    ++fired;
    simulator.stop();
  });
  simulator.schedule(seconds(2), [&] { ++fired; });
  simulator.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(simulator.stopped());
  EXPECT_EQ(simulator.pending_events(), 1u);
}

TEST(Simulator, ExecutedEventsCounter) {
  Simulator simulator;
  for (int i = 0; i < 25; ++i) simulator.schedule(seconds(i), [] {});
  simulator.run();
  EXPECT_EQ(simulator.executed_events(), 25u);
}

TEST(Simulator, ZeroDelayEventRunsAtCurrentTime) {
  Simulator simulator;
  double when = -1.0;
  simulator.schedule(seconds(1), [&] {
    simulator.schedule(Time{}, [&] { when = simulator.now().seconds(); });
  });
  simulator.run();
  EXPECT_DOUBLE_EQ(when, 1.0);
}

}  // namespace
}  // namespace aedbmls::sim
