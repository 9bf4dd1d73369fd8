// --self-test: shows that each of the benchmark's checks can fail, checks the
// statistics helpers on known samples, and runs every workload's code path
// (untraced and traced) on the micro model in a few seconds.
#include <cmath>
#include <cstdio>

#include "cimflow/models/models.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "%s %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void test_statistics() {
  expect(near(median({3, 1, 2}), 2) && near(median({4, 1, 3, 2}), 2.5),
         "median of odd and even samples");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  // p90 of 100 samples is the 90th smallest: exactly ten samples beyond it.
  expect(near(nearest_rank(hundred, 0.9), 90) && near(nearest_rank(hundred, 0.5), 50) &&
             near(nearest_rank(hundred, 1.0), 100) && near(nearest_rank({7}, 0.9), 7),
         "nearest-rank percentiles");
}

void test_golden_comparison() {
  const cimflow::graph::Graph graph = cimflow::models::build_model("micro");
  FunctionalProbe probe =
      probe_functional(graph, cimflow::arch::ArchConfig::cimflow_default(), 2, nullptr);
  expect(golden_mismatches(probe) == 0, "micro batch 2 matches the golden executor");
  probe.actual[1][0] ^= 0x01;
  expect(golden_mismatches(probe) == 1, "one flipped simulator output byte is caught");
  probe.actual[1].pop_back();
  expect(golden_mismatches(probe) >= 1, "a truncated simulator output is caught");
}

void test_daemon_checks(const Config& smoke) {
  Result result;
  const std::vector<CatalogueEntry> catalogue = daemon_catalogue(smoke);
  const DaemonRound round =
      run_daemon_round(smoke, catalogue, round_order(smoke, catalogue, 1), nullptr, result);
  PayloadBook book;
  check_daemon_round(catalogue, round, book, result);
  expect(result.correct() && round.stats.is_object(), "smoke daemon round passes its checks");
  if (!round.stats.is_object()) return;

  const CatalogueEntry& entry = catalogue.front();
  const std::string direct = direct_payload(entry, nullptr, nullptr);
  expect(book.check_direct(entry.label, direct).empty(),
         "daemon payload equals the direct in-process run");
  PayloadBook altered;
  std::string payload = book.payloads().at(entry.label);
  payload[payload.find("cycles") + 9] ^= 0x01;  // one digit of the cycle count
  altered.record(entry.label, payload);
  expect(!altered.check_direct(entry.label, direct).empty(),
         "an altered daemon payload fails the direct-run comparison");
  expect(!book.record(entry.label, payload).empty(),
         "an altered repeat fails the repeat comparison");

  expect(check_tally(round.stats, round.tally).empty(), "stats agree with the tally");
  Tally dropped = round.tally;
  --dropped.by_verb["evaluate"];
  --dropped.compute;
  expect(!check_tally(round.stats, dropped).empty(),
         "a request dropped from the tally fails the stats agreement");

  for (const auto& [label, text] : book.payloads()) {
    if (label != "sweep_micro") continue;
    cimflow::Json sweep = cimflow::Json::parse(text);
    expect(check_pareto(sweep).empty(), "sweep front is non-dominated");
    // Put a dominated point on the front: it must be reported.
    cimflow::JsonObject doc = sweep.as_object();
    cimflow::JsonObject search = doc["search"].as_object();
    cimflow::JsonArray front = search["front"].as_array();
    const cimflow::JsonArray& points = doc["points"].as_array();
    const cimflow::Json& best = points[static_cast<std::size_t>(front[0].at("index").as_int())];
    for (const cimflow::Json& point : points) {
      const cimflow::Json& s = point.at("sim");
      if (!point.at("ok").as_bool() ||
          s.at("ms_per_image").as_double() <= best.at("sim").at("ms_per_image").as_double() ||
          s.at("mj_per_image").as_double() <= best.at("sim").at("mj_per_image").as_double()) {
        continue;
      }
      cimflow::JsonObject member;
      member["index"] = point.at("index");
      member["objectives"] = cimflow::Json(cimflow::JsonArray{s.at("ms_per_image"),
                                                              s.at("mj_per_image")});
      front.push_back(cimflow::Json(std::move(member)));
      break;
    }
    const bool added = front.size() > search["front"].as_array().size();
    search["front"] = cimflow::Json(std::move(front));
    doc["search"] = cimflow::Json(std::move(search));
    expect(added && !check_pareto(cimflow::Json(std::move(doc))).empty(),
           "a dominated point on the front is caught");
  }
}

void smoke_run(Config config, const std::string& workload, bool trace) {
  config.workload = workload;
  config.trace = trace;
  config.seconds = 0;
  Result result;
  try {
    if (trace) {
      run_profile(config, result);
    } else if (workload == "daemon-mix") {
      run_daemon_mix(config, result);
    } else {
      run_inprocess(config, result);
    }
  } catch (const std::exception& e) {
    result.problem(e.what());
  }
  for (const std::string& p : result.problems) std::fprintf(stderr, "  %s\n", p.c_str());
  const std::size_t expected = trace ? 1 : 6;
  expect(result.correct() && result.attempted > 0 && result.failed == 0 &&
             result.metrics.size() >= expected,
         "smoke " + workload + (trace ? " --trace 1" : " --trace 0") + " (" +
             std::to_string(result.metrics.size()) + " metrics)");
}

}  // namespace

int run_self_test(const Config& config) {
  Config smoke = config;
  smoke.smoke = true;
  test_statistics();
  test_golden_comparison();
  test_daemon_checks(smoke);
  for (const char* workload : {"evaluate-timing", "validate-functional", "daemon-mix"}) {
    smoke_run(smoke, workload, false);
  }
  smoke_run(smoke, "validate-functional", true);
  std::fprintf(stderr, "self-test: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace hostbench
