#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>

#include "bench.hpp"
#include "cimflow/support/json.hpp"

namespace hostbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double nearest_rank(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const std::size_t k = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(k, values.size() - 1)];
}

double min_of(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::min_element(values.begin(), values.end());
}

double max_of(const std::vector<double>& values) {
  return values.empty() ? 0 : *std::max_element(values.begin(), values.end());
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
}

double process_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {
thread_local std::int64_t current_parent = -1;
}  // namespace

std::int64_t SpanLog::open(const std::string& name, std::int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({name, now_ns(), 0, current_parent, id});
  return static_cast<std::int64_t>(records_.size()) - 1;
}

void SpanLog::close(std::int64_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  records_[static_cast<std::size_t>(index)].end_ns = now_ns();
}

void SpanLog::add(const std::string& name, std::int64_t start_ns, std::int64_t end_ns,
                  std::int64_t parent, std::int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back({name, start_ns, end_ns, parent, id});
}

double SpanLog::total_s(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::int64_t total = 0;
  for (const Record& r : records_) {
    if (r.name == name) total += r.end_ns - r.start_ns;
  }
  return static_cast<double>(total) * 1e-9;
}

bool SpanLog::write(const std::string& path) const {
  cimflow::JsonArray spans;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans.reserve(records_.size());
    for (const Record& r : records_) {
      cimflow::JsonObject o;
      o["name"] = cimflow::Json(r.name);
      o["start_ns"] = cimflow::Json(r.start_ns);
      o["end_ns"] = cimflow::Json(r.end_ns);
      o["parent"] = cimflow::Json(r.parent);
      o["id"] = cimflow::Json(r.id);
      spans.push_back(cimflow::Json(std::move(o)));
    }
  }
  std::ofstream out(path);
  out << cimflow::Json(std::move(spans)).dump(1) << "\n";
  return static_cast<bool>(out);
}

Span::Span(SpanLog* log, const std::string& name, std::int64_t id) : log_(log) {
  if (log_ != nullptr) {
    index_ = log_->open(name, id);
    saved_parent_ = current_parent;
    current_parent = index_;
  }
  start_ns_ = now_ns();
}

Span::~Span() {
  if (log_ != nullptr) {
    log_->close(index_);
    current_parent = saved_parent_;
  }
}

}  // namespace hostbench
