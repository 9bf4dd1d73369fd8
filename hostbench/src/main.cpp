// hostbench — host-time benchmark for CIMFlow.
//
//   hostbench --workload evaluate-timing|validate-functional|daemon-mix
//             --seed N --seconds S --trace 0|1 --cli PATH/cimflow_cli
//             [--t0-ns NS] [--out-dir DIR]
//   hostbench --self-test --cli PATH/cimflow_cli
//
// Prints one JSON object as the last line of stdout: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics of the
// workload; --trace 1 runs the per-layer profile and writes its spans to
// DIR/trace-<workload>-<seed>.json. Normally started through run.py, which
// builds this binary first.
#include <sys/stat.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.hpp"

namespace {

std::string number(double value) {
  char buf[64];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  return ec == std::errc() ? std::string(buf, end) : "0";
}

void print_result(const hostbench::Result& result) {
  for (const std::string& problem : result.problems) {
    std::fprintf(stderr, "hostbench: CHECK FAILED: %s\n", problem.c_str());
  }
  std::string out = "{\"correct\": ";
  out += result.correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const hostbench::Metric& m = result.metrics[i];
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + number(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

int usage(const char* why) {
  std::fprintf(stderr, "hostbench: %s\n", why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  hostbench::Config config;
  config.t0_ns = hostbench::now_ns();
  const unsigned hw = std::thread::hardware_concurrency();
  config.threads = std::clamp<std::int64_t>(hw == 0 ? 1 : hw, 1, 4);
  // Half the load budget: with as many sim threads as CPUs, the pool's
  // yield-spinning CPU and its stragglers track whatever else the host runs.
  config.sim_threads = std::min<std::int64_t>(config.threads, 2);
  bool self_test = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    const std::string value = has_value ? argv[i + 1] : "";
    bool takes_value = true;
    try {
      if (arg == "--workload") {
        config.workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        config.trace = value == "1";
      } else if (arg == "--cli") {
        config.cli = value;
      } else if (arg == "--t0-ns") {
        config.t0_ns = std::stoll(value);
      } else if (arg == "--out-dir") {
        config.out_dir = value;
      } else if (arg == "--self-test") {
        self_test = true;
        takes_value = false;
      } else {
        return usage(("unknown argument " + arg).c_str());
      }
    } catch (const std::logic_error&) {  // stoull/stod/stoll on a malformed value
      return usage(("invalid value for " + arg).c_str());
    }
    if (takes_value && !has_value) return usage((arg + " needs a value").c_str());
    if (takes_value) ++i;
  }
  mkdir(config.out_dir.c_str(), 0755);
  if (self_test) return hostbench::run_self_test(config);

  const std::string& w = config.workload;
  if (w != "evaluate-timing" && w != "validate-functional" && w != "daemon-mix") {
    return usage("--workload must be evaluate-timing, validate-functional or daemon-mix");
  }
  if (config.seconds < 0) return usage("--seconds is required");
  if (config.cli.empty() && (w == "daemon-mix" || config.trace)) {
    return usage("--cli is required");
  }

  hostbench::Result result;
  try {
    if (config.trace) {
      hostbench::run_profile(config, result);
    } else if (w == "daemon-mix") {
      hostbench::run_daemon_mix(config, result);
    } else {
      hostbench::run_inprocess(config, result);
    }
  } catch (const std::exception& e) {
    result.problem(std::string("run aborted: ") + e.what());
  }
  if (result.attempted < 1) result.problem("no operation attempted");
  for (const hostbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.problem("metric " + m.name + " is not finite");
  }
  print_result(result);
  return 0;
}
