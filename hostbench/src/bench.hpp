// Shared vocabulary of the host-time benchmark: run configuration, the result
// every workload fills, sample statistics, wall/CPU clocks and the in-memory
// span log of traced runs.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace hostbench {

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = -1;  ///< --seconds: whole rounds are run until it passes
  bool trace = false;   ///< --trace 1: per-layer profile instead of end-to-end
  bool smoke = false;   ///< micro-model variant of every workload (self-test)
  std::string cli;      ///< path of the cimflow_cli binary (daemon-mix)
  std::int64_t t0_ns = 0;  ///< steady-clock time the benchmark process began
  std::string out_dir = ".bench_results";  ///< sockets and trace files
  std::int64_t threads = 4;      ///< min(nproc, 4): daemon-mix connections
  std::int64_t sim_threads = 2;  ///< min(nproc, 2): evaluate-timing sim threads
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `correct` is false as soon as any check records a
/// problem; the problems themselves go to stderr.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void problem(const std::string& text) { problems.push_back(text); }
  bool correct() const { return problems.empty(); }
};

// --- statistics --------------------------------------------------------------

/// Median as Python's statistics.median computes it.
double median(std::vector<double> values);
/// Nearest-rank percentile: the smallest sample with at least p*n samples at
/// or below it. With n samples, n - ceil(p*n) samples lie beyond it.
double nearest_rank(std::vector<double> values, double p);
double min_of(const std::vector<double>& values);
double max_of(const std::vector<double>& values);

// --- clocks ------------------------------------------------------------------

std::int64_t now_ns();
double seconds_since(std::int64_t start_ns);
/// User + system CPU seconds of this process (all threads).
double process_cpu_s();
/// Peak resident set of this process, MB.
double process_peak_rss_mb();

// --- spans -------------------------------------------------------------------

/// In-memory span log of a traced run, written out once at the end. Each span
/// has a name, start, end, parent (index or -1) and request id (-1 outside the
/// daemon). Thread-safe; the parent is the innermost span open on the calling
/// thread.
class SpanLog {
 public:
  struct Record {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;
    std::int64_t id = -1;
  };

  std::int64_t open(const std::string& name, std::int64_t id);
  void close(std::int64_t index);
  void add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
           std::int64_t parent, std::int64_t id);
  /// Sum of the durations of every span called `name`, seconds.
  double total_s(const std::string& name) const;
  /// Writes the spans as a JSON array; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// Times a scope; records it as a span when `log` is non-null.
class Span {
 public:
  Span(SpanLog* log, const std::string& name, std::int64_t id = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int64_t index() const noexcept { return index_; }
  double elapsed_s() const { return seconds_since(start_ns_); }

 private:
  SpanLog* log_;
  std::int64_t index_ = -1;
  std::int64_t saved_parent_ = -1;
  std::int64_t start_ns_ = 0;
};

// --- workloads ---------------------------------------------------------------

void run_inprocess(const Config& config, Result& result);
void run_daemon_mix(const Config& config, Result& result);
void run_profile(const Config& config, Result& result);
int run_self_test(const Config& config);

}  // namespace hostbench
