// The operations each workload runs, shared by the end-to-end runs, the
// traced layer profile and the self-test.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "cimflow/core/flow.hpp"
#include "cimflow/support/json.hpp"

namespace hostbench {

// --- in-process workloads ------------------------------------------------------

/// One Flow::evaluate, configured as `cimflow_cli evaluate` would be.
struct EvalOp {
  std::string label;
  std::string model;
  std::int64_t input_hw = 224;
  std::int64_t batch = 8;
  std::int64_t sim_threads = 1;
  bool validate = false;
  bool known_fault = false;  ///< expected to fail validation (counted as failed)
};

/// evaluate-timing: the four paper models, 224 px, batch 8, dp, timing mode,
/// in one seeded order.
std::vector<EvalOp> timing_ops(const Config& config);
/// validate-functional: validated functional runs at 64 px, in one seeded
/// order; efficientnetb0 batch 4 is the known SE miscompile.
std::vector<EvalOp> functional_ops(const Config& config);

struct OpRun {
  double seconds = 0;  ///< model build + Flow::evaluate
  double cpu_s = 0;    ///< process CPU over the same span
  cimflow::EvaluationReport report;
  std::int64_t graph_macs = 0;  ///< Graph::total_macs() of the built model
};

/// Builds the model and evaluates it. Program-internal phase spans go to
/// `spans` (as children of the op's span) when tracing.
OpRun run_op(const EvalOp& op, SpanLog* spans);

struct RoundRecord {
  double wall_s = 0;
  double cpu_s = 0;
  std::map<std::string, double> op_s;      ///< latency by op label
  std::map<std::string, double> op_cpu_s;  ///< process CPU by op label
};

/// Runs every op once and checks each outcome: the MAC identity, the
/// validation verdict, and byte-identity with the op's first report in `first`.
RoundRecord run_eval_round(const std::vector<EvalOp>& ops, SpanLog* spans, Result& result,
                           std::map<std::string, cimflow::EvaluationReport>& first);

// --- daemon-mix -------------------------------------------------------------------

struct CatalogueEntry {
  std::string label;
  std::string verb;  ///< evaluate | sweep | stats | metrics
  cimflow::Json params;
};

std::vector<CatalogueEntry> daemon_catalogue(const Config& config);
/// One round's requests: every entry the same number of times (5; 2 in the
/// smoke variant), in a seeded order.
std::vector<std::size_t> round_order(const Config& config,
                                     const std::vector<CatalogueEntry>& catalogue,
                                     std::uint64_t seed);

struct Reply {
  std::size_t entry = 0;
  std::int64_t id = 0;
  double latency_s = 0;  ///< send to terminal event, client side
  bool ok = false;
  std::string payload;   ///< the result's payload document, dumped
  cimflow::Json cache;   ///< the result's cache block (compute verbs)
  std::string error;
};

struct DaemonRound {
  double wall_s = 0;       ///< first send to last terminal event
  double cpu_s = 0;        ///< daemon user + system CPU over its life
  double peak_rss_mb = 0;  ///< daemon peak resident set
  std::vector<Reply> replies;
  cimflow::Json stats;     ///< `stats` after the last reply
  Tally tally;
};

/// Starts a fresh `cimflow_cli serve`, drives it with `config.threads`
/// closed-loop connections through `order`, reads `stats`, shuts it down and
/// reaps it. `on_ready` runs once the socket accepts. Problems go to `result`.
DaemonRound run_daemon_round(const Config& config,
                             const std::vector<CatalogueEntry>& catalogue,
                             const std::vector<std::size_t>& order, SpanLog* spans,
                             Result& result, const std::function<void()>& on_ready = {});

/// Checks one round's replies: all succeeded, repeats are byte-identical,
/// validated requests passed, sweep fronts are non-dominated, and the stats
/// counters agree with the tally.
void check_daemon_round(const std::vector<CatalogueEntry>& catalogue,
                        const DaemonRound& round, PayloadBook& book, Result& result);

/// The payload a direct in-process Flow::evaluate / SearchDriver run with the
/// entry's params produces, dumped; `seconds` receives its wall time.
std::string direct_payload(const CatalogueEntry& entry, SpanLog* spans, double* seconds);

}  // namespace hostbench
