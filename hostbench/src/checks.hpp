// Output checks of the benchmark. Each compares the program against an
// independent computation or a required property, never against a stored
// copy of earlier output; the self-test shows each one can fail.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cimflow/arch/arch_config.hpp"
#include "cimflow/core/flow.hpp"
#include "cimflow/graph/graph.hpp"
#include "cimflow/support/json.hpp"

namespace hostbench {

class SpanLog;

/// Bytes that differ between a simulator output and the golden output
/// (a length difference counts every missing or extra byte).
std::int64_t count_mismatches(const std::vector<std::uint8_t>& actual,
                              const std::vector<std::uint8_t>& expected);

/// One functional simulation of a compiled program next to the golden
/// executor, timed layer by layer. Inputs are the synthetic images
/// Flow::evaluate uses (seed 7 + image).
struct FunctionalProbe {
  double compile_s = 0;          ///< compiler::compile, materialize_data on
  double compile_nomat_s = 0;    ///< the same compile, materialize_data off
  double run_functional_s = 0;   ///< Simulator::run, functional
  double run_timing_s = 0;       ///< Simulator::run, timing, same program
  double output_s = 0;           ///< Simulator::output over every image
  double golden_s = 0;           ///< ReferenceExecutor::run over every image
  std::int64_t overlay_bytes = 0;
  std::vector<std::vector<std::uint8_t>> actual;    ///< simulator, per image
  std::vector<std::vector<std::uint8_t>> expected;  ///< golden, per image
  cimflow::sim::SimReport functional;
  cimflow::sim::SimReport timing;
};

FunctionalProbe probe_functional(const cimflow::graph::Graph& graph,
                                 const cimflow::arch::ArchConfig& arch,
                                 std::int64_t batch, SpanLog* spans);

/// Mismatched bytes over every image of a probe.
std::int64_t golden_mismatches(const FunctionalProbe& probe);

/// Simulated statistics that must not depend on functional vs timing mode.
std::vector<std::string> compare_sim_counts(const std::string& what,
                                            const cimflow::sim::SimReport& a,
                                            const cimflow::sim::SimReport& b);

/// First payload seen per catalogue entry; every repeat must match it byte
/// for byte, and so must the direct in-process run.
class PayloadBook {
 public:
  /// Returns a problem text, or "" when `payload` is the first or identical.
  std::string record(const std::string& label, const std::string& payload);
  /// Returns a problem text, or "" when the daemon's payload equals `direct`.
  std::string check_direct(const std::string& label, const std::string& direct) const;
  const std::map<std::string, std::string>& payloads() const { return first_; }

 private:
  std::map<std::string, std::string> first_;
};

/// What the load generator sent, by verb.
struct Tally {
  std::map<std::string, std::int64_t> by_verb;
  std::int64_t compute = 0;  ///< evaluate + sweep: the verbs the daemon queues
};

/// The daemon's `stats` must agree with the generator's own tally: accepted =
/// compute requests sent = completed, nothing failed or rejected, and the
/// per-verb request counts match.
std::vector<std::string> check_tally(const cimflow::Json& stats, const Tally& tally);

/// No point on a sweep payload's Pareto front may be dominated by another
/// evaluated point (objectives recomputed from each point's report).
std::vector<std::string> check_pareto(const cimflow::Json& sweep_payload);

}  // namespace hostbench
