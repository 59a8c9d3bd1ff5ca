// End-to-end checks of the benchmark binary: a clean run passes, and a
// deliberately stale read or a dropped acknowledged write fails the run.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "common/json.h"

namespace perfbench {
namespace {

struct RunOutput {
  int exit_code = -1;
  std::string last_line;
};

RunOutput RunBench(const std::string& args) {
  const std::filesystem::path bin(PERFBENCH_BINARY);
  const std::string work = (bin.parent_path() / "test-work").string();
  const std::string cmd = std::string(PERFBENCH_BINARY) + " " + args +
                          " --work-dir " + work + " 2>/dev/null";
  RunOutput out;
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  if (!pipe) return out;
  char buf[4096];
  std::string all;
  while (std::fgets(buf, sizeof(buf), pipe)) all += buf;
  const int status = ::pclose(pipe);
  out.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  std::istringstream lines(all);
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) out.last_line = line;
  }
  return out;
}

zht::json::Value Parse(const std::string& line) {
  auto parsed = zht::json::Parse(line);
  EXPECT_TRUE(parsed.ok()) << line;
  return parsed.ok() ? *parsed : zht::json::Value{};
}

TEST(Run, CleanRunIsCorrectAndReportsEveryEndToEndMetric) {
  const RunOutput out =
      RunBench("--workload uniform-small --seed 5 --seconds 1 --trace 0");
  EXPECT_EQ(out.exit_code, 0);
  const zht::json::Value v = Parse(out.last_line);
  ASSERT_NE(v.Get("correct"), nullptr);
  EXPECT_TRUE(v.Get("correct")->boolean);
  EXPECT_EQ(v.Get("failed")->number, 0);
  EXPECT_GT(v.Get("attempted")->number, 0);
  for (const char* name : {"setup_s", "ops_s", "sat_p99_us", "lat_p50_us",
                           "lat_p99_us", "cpu_us_per_op", "rss_mb"}) {
    const zht::json::Value* m = v.Get("metrics")->Get(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_GT(m->Get("value")->number, 0) << name;
  }
}

TEST(Run, StaleReadFailsTheRun) {
  const RunOutput out = RunBench(
      "--workload uniform-small --seed 6 --seconds 2 --trace 0 "
      "--inject stale-read");
  EXPECT_NE(out.exit_code, 0);
  const zht::json::Value v = Parse(out.last_line);
  ASSERT_NE(v.Get("correct"), nullptr);
  EXPECT_FALSE(v.Get("correct")->boolean);
  EXPECT_GT(v.Get("failed")->number, 0);
}

TEST(Run, DroppedAckedWriteFailsTheRun) {
  const RunOutput out = RunBench(
      "--workload logged-write --seed 7 --seconds 1 --trace 0 "
      "--inject drop-write");
  EXPECT_NE(out.exit_code, 0);
  const zht::json::Value v = Parse(out.last_line);
  ASSERT_NE(v.Get("correct"), nullptr);
  EXPECT_FALSE(v.Get("correct")->boolean);
  EXPECT_GT(v.Get("failed")->number, 0);
}

TEST(Run, TracedRunReportsEveryPerLayerMetric) {
  std::ifstream spec_file(PERFBENCH_SPEC);
  std::stringstream spec_text;
  spec_text << spec_file.rdbuf();
  const zht::json::Value spec = Parse(spec_text.str());
  ASSERT_NE(spec.Get("per_layer"), nullptr);

  const RunOutput out =
      RunBench("--workload logged-write --seed 8 --seconds 1 --trace 1");
  EXPECT_EQ(out.exit_code, 0);
  const zht::json::Value v = Parse(out.last_line);
  ASSERT_NE(v.Get("metrics"), nullptr);
  const auto& metrics = v.Get("metrics")->object;
  EXPECT_EQ(metrics.size(), spec.Get("per_layer")->array.size());
  for (const zht::json::Value& m : spec.Get("per_layer")->array) {
    EXPECT_TRUE(metrics.count(m.Get("name")->string)) << m.Get("name")->string;
  }
  auto value = [&v](const char* name) {
    return v.Get("metrics")->Get(name)->Get("value")->number;
  };
  // The per-request decomposition accounts for the latency-phase RTT.
  EXPECT_GT(value("trace.decomposed_share"), 0.9);
  EXPECT_GT(value("trace.rtt_us_mean"), 0);
  EXPECT_LT(std::abs(value("trace.residual_us_mean")),
            0.01 * value("trace.rtt_us_mean"));
  EXPECT_GT(value("repl.legs_per_write"), 0.9);
}

}  // namespace
}  // namespace perfbench
