// bench::Artifacts and the strict numeric flag parser: flag-less runs
// arm and write nothing, snapshots merge in call order, and a sweep
// exports the same bytes serially and on a SweepRunner pool.
#include "bench/artifacts.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/runner.hpp"
#include "sim/simulator.hpp"
#include "storm/cluster.hpp"

namespace storm::bench {
namespace {

using namespace storm::sim::time_literals;
using namespace storm::sim::byte_literals;

/// argv-style view over a list of strings (argv[0] is "prog").
class Args {
 public:
  explicit Args(std::vector<std::string> args) : strings_(std::move(args)) {
    strings_.insert(strings_.begin(), "prog");
    for (auto& s : strings_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

double number(std::vector<std::string> args, double max = 1e15,
              bool whole = false) {
  Args a(std::move(args));
  return number_flag(a.argc(), a.argv(), "--x", max, whole);
}

// --- number_flag ----------------------------------------------------------

TEST(NumberFlag, ParsesAndDefaultsToZero) {
  EXPECT_EQ(number({"--x", "2.5"}), 2.5);
  EXPECT_EQ(number({"--fast", "--x", "1e3"}), 1000.0);
  EXPECT_EQ(number({"--x", "64"}, 64, /*whole=*/true), 64.0);
  EXPECT_EQ(number({"--fast"}), 0.0);
  EXPECT_EQ(number({}), 0.0);
}

TEST(NumberFlagDeathTest, MissingValueIsAUsageError) {
  EXPECT_EXIT(number({"--x"}), ::testing::ExitedWithCode(2),
              "--x requires a value \\(usage: --x <N>\\)");
}

TEST(NumberFlagDeathTest, TrailingGarbageIsAUsageError) {
  EXPECT_EXIT(number({"--x", "1e15x"}), ::testing::ExitedWithCode(2),
              "usage: --x <N>");
  EXPECT_EXIT(number({"--x", ""}), ::testing::ExitedWithCode(2),
              "usage: --x <N>");
  EXPECT_EXIT(number({"--x", "--fast"}), ::testing::ExitedWithCode(2),
              "usage: --x <N>");
}

TEST(NumberFlagDeathTest, NonPositiveOrOutOfRangeIsAUsageError) {
  EXPECT_EXIT(number({"--x", "0"}), ::testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(number({"--x", "-3"}), ::testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(number({"--x", "nan"}), ::testing::ExitedWithCode(2), "usage");
  EXPECT_EXIT(number({"--x", "65"}, 64), ::testing::ExitedWithCode(2),
              "usage");
  EXPECT_EXIT(number({"--x", "12.5"}, 64, /*whole=*/true),
              ::testing::ExitedWithCode(2), "not a whole number");
}

TEST(NumberFlagDeathTest, JobsFlagSharesTheChecks) {
  Args zero({"--jobs", "0"});
  EXPECT_EXIT(jobs_flag(zero.argc(), zero.argv()),
              ::testing::ExitedWithCode(2), "usage: --jobs <N>");
  Args trailing({"--jobs"});
  EXPECT_EXIT(jobs_flag(trailing.argc(), trailing.argv()),
              ::testing::ExitedWithCode(2), "usage: --jobs <N>");
}

// --- Artifacts --------------------------------------------------------------

/// One small launch on a `nodes`-node cluster, instrumented by `art`.
Artifacts::Snapshot run_point(const Artifacts& art, int nodes) {
  sim::Simulator sim(0xA47ULL + static_cast<std::uint64_t>(nodes));
  core::ClusterConfig cfg = core::ClusterConfig::es40(nodes);
  cfg.storm.quantum = 1_ms;
  core::Cluster cluster(sim, cfg);
  art.attach(cluster);
  cluster.submit({.name = "noop", .binary_size = 1_MB, .npes = nodes * 4});
  EXPECT_TRUE(cluster.run_until_all_complete(60_sec));
  return art.capture(cluster);
}

TEST(Artifacts, NoFlagsArmsNothingAndWritesNothing) {
  Args a({"--fast"});
  Artifacts art(a.argc(), a.argv(), "test");
  sim::Simulator sim(1);
  core::Cluster cluster(sim, core::ClusterConfig::es40(2));
  art.attach(cluster);
  EXPECT_EQ(cluster.tracer(), nullptr);
  EXPECT_EQ(cluster.timeseries(), nullptr);
  cluster.submit({.name = "noop", .binary_size = 1_MB, .npes = 8});
  ASSERT_TRUE(cluster.run_until_all_complete(60_sec));
  const Artifacts::Snapshot s = art.capture(cluster);
  EXPECT_EQ(s.metrics.size(), 0u);
  EXPECT_TRUE(s.series.empty());
  EXPECT_TRUE(s.trace.json.empty());
  EXPECT_TRUE(s.state.empty());
  EXPECT_EQ(s.runs, 1u);
  art.adopt(Artifacts::Snapshot(s));
  // Every artifact announces itself on stdout or stderr when written.
  ::testing::internal::CaptureStdout();
  ::testing::internal::CaptureStderr();
  EXPECT_EQ(art.write(), 0);
  EXPECT_EQ(::testing::internal::GetCapturedStdout(), "");
  EXPECT_EQ(::testing::internal::GetCapturedStderr(), "");
}

TEST(Artifacts, SnapshotMergesInCallOrder) {
  Artifacts::Snapshot a, b, c;
  a.metrics.counter("n").add(1);
  a.metrics.gauge("g").set(1.0);
  a.trace.json = "trace-a";
  a.state = "state-a";
  a.runs = 1;
  a.nodes_max = 64;
  b.metrics.counter("n").add(2);
  b.metrics.gauge("g").set(2.0);
  b.trace.json = "trace-b";
  b.state = "state-b";
  b.runs = 1;
  b.nodes_max = 8;
  c.metrics.counter("n").add(4);  // c: an untraced run, no state
  c.metrics.gauge("g");           // registered, never set
  c.runs = 1;

  a += std::move(b);
  a += std::move(c);
  EXPECT_EQ(a.metrics.find_counter("n")->value(), 7);
  EXPECT_EQ(a.metrics.find_gauge("g")->value(), 2.0);  // last set wins
  EXPECT_EQ(a.trace.json, "trace-b");
  EXPECT_EQ(a.state, "state-b");
  EXPECT_EQ(a.runs, 3u);
  EXPECT_EQ(a.nodes_max, 64u);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(Artifacts, SweepSerialVsJobs4ByteIdentical) {
  const int kNodes[] = {1, 2, 4, 8, 4, 2};
  auto export_sweep = [&](int jobs) {
    const std::string dir =
        ::testing::TempDir() + "artifacts_j" + std::to_string(jobs) + "_";
    Args a({"--metrics", dir + "m.json", "--timeseries", dir + "ts.json",
            "--state", dir + "s.json"});
    Artifacts art(a.argc(), a.argv(), "test");
    SweepRunner(jobs).run(
        std::size(kNodes),
        [&](std::size_t i) { return run_point(art, kNodes[i]); },
        [&](std::size_t, Artifacts::Snapshot& s) { art.adopt(std::move(s)); });
    ::testing::internal::CaptureStdout();
    ::testing::internal::CaptureStderr();
    EXPECT_EQ(art.write(), 0);
    ::testing::internal::GetCapturedStdout();
    ::testing::internal::GetCapturedStderr();
    std::string metrics = slurp(dir + "m.json");
    // Peak RSS is the one nondeterministic line.
    const auto proc = metrics.find("  \"proc\":");
    EXPECT_NE(proc, std::string::npos);
    metrics.erase(proc, metrics.find('\n', proc) + 1 - proc);
    return std::vector<std::string>{metrics, slurp(dir + "ts.json"),
                                    slurp(dir + "s.json")};
  };
  const std::vector<std::string> serial = export_sweep(1);
  const std::vector<std::string> pooled = export_sweep(4);
  ASSERT_EQ(serial.size(), pooled.size());
  for (std::size_t k = 0; k < serial.size(); ++k) {
    EXPECT_GT(serial[k].size(), 100u) << k;
    EXPECT_EQ(serial[k], pooled[k]) << k;
  }
  // The state is the last point's (2 nodes), not the largest one's.
  EXPECT_NE(serial[2].find("\"nodes\": 2"), std::string::npos);
}

}  // namespace
}  // namespace storm::bench
