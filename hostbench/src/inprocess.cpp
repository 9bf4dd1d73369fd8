// evaluate-timing and validate-functional: Flow::evaluate in this process,
// exactly as `cimflow_cli evaluate` configures it.
#include <algorithm>
#include <cstdio>
#include <random>
#include <utility>

#include "cimflow/models/models.hpp"
#include "cimflow/sim/decoded.hpp"
#include "cimflow/support/trace.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

template <typename T>
void seeded_shuffle(std::vector<T>& items, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng() % i]);
  }
}

cimflow::graph::Graph build(const std::string& model, std::int64_t input_hw) {
  cimflow::models::ModelOptions options;
  options.input_hw = input_hw;
  return cimflow::models::build_model(model, options);
}

}  // namespace

std::vector<EvalOp> timing_ops(const Config& config) {
  std::vector<EvalOp> ops;
  const std::vector<std::string> models =
      config.smoke ? std::vector<std::string>{"micro"}
                   : std::vector<std::string>{"resnet18", "vgg19", "mobilenetv2",
                                              "efficientnetb0"};
  for (const std::string& model : models) {
    ops.push_back({model, model, 224, 8, config.sim_threads, false, false});
  }
  seeded_shuffle(ops, config.seed);
  return ops;
}

std::vector<EvalOp> functional_ops(const Config& config) {
  std::vector<EvalOp> ops;
  if (config.smoke) {
    ops.push_back({"micro_b8", "micro", 224, 8, 1, true, false});
    ops.push_back({"micro_b1", "micro", 224, 1, 1, true, false});
  } else {
    ops.push_back({"resnet18_b8", "resnet18", 64, 8, 1, true, false});
    ops.push_back({"mobilenetv2_b8", "mobilenetv2", 64, 8, 1, true, false});
    ops.push_back({"vgg19_b1", "vgg19", 64, 1, 1, true, false});
    ops.push_back({"efficientnetb0_b1", "efficientnetb0", 64, 1, 1, true, false});
    // The squeeze-and-excitation miscompile at batch >= 2: 334 mismatched
    // bytes at every thread count and kernel tier. Kept as a counted failure
    // so the change that fixes it moves `failed`.
    ops.push_back({"efficientnetb0_b4", "efficientnetb0", 64, 4, 1, true, true});
  }
  seeded_shuffle(ops, config.seed);
  return ops;
}

OpRun run_op(const EvalOp& op, SpanLog* spans) {
  OpRun run;
  const double cpu0 = process_cpu_s();
  Span span(spans, "flow.evaluate." + op.label);
  const cimflow::graph::Graph graph = [&] {
    Span build_span(spans, "models.build");
    return build(op.model, op.input_hw);
  }();
  run.graph_macs = graph.total_macs();
  cimflow::Flow flow(cimflow::arch::ArchConfig::cimflow_default());
  cimflow::FlowOptions options;
  options.batch = op.batch;
  options.validate = op.validate;
  options.eval.sim_threads = op.sim_threads;
  cimflow::trace::Collector collector;
  if (spans != nullptr) options.eval.trace = &collector;
  run.report = flow.evaluate(graph, options);
  if (spans != nullptr) {
    for (const cimflow::trace::SpanRecord& s : collector.spans()) {
      spans->add(s.name, s.start_ns, s.start_ns + s.dur_ns, span.index(), -1);
    }
  }
  run.seconds = span.elapsed_s();
  run.cpu_s = process_cpu_s() - cpu0;
  return run;
}

RoundRecord run_eval_round(const std::vector<EvalOp>& ops, SpanLog* spans, Result& result,
                           std::map<std::string, cimflow::EvaluationReport>& first) {
  RoundRecord record;
  std::vector<std::pair<const EvalOp*, OpRun>> runs;
  const std::int64_t t0 = now_ns();
  const double cpu0 = process_cpu_s();
  for (const EvalOp& op : ops) {
    ++result.attempted;
    try {
      runs.emplace_back(&op, run_op(op, spans));
      record.op_s[op.label] = runs.back().second.seconds;
      record.op_cpu_s[op.label] = runs.back().second.cpu_s;
    } catch (const std::exception& e) {
      ++result.failed;
      result.problem(op.label + ": " + e.what());
    }
  }
  record.wall_s = seconds_since(t0);
  record.cpu_s = process_cpu_s() - cpu0;

  // Checks run after the clock stops.
  std::string line = "round";
  for (const auto& [op, run] : runs) {
    line += " " + op->label + "=" + std::to_string(run.seconds);
  }
  std::fprintf(stderr, "%s wall=%f cpu=%f\n", line.c_str(), record.wall_s, record.cpu_s);
  for (const auto& [op, run] : runs) {
    const cimflow::sim::SimReport& sim = run.report.sim;
    if (sim.macs != run.graph_macs * op->batch) {
      result.problem(op->label + ": simulated macs " + std::to_string(sim.macs) +
                     " != total_macs x batch " +
                     std::to_string(run.graph_macs * op->batch));
    }
    if (op->validate) {
      const bool passed = run.report.validated && run.report.validation_passed &&
                          run.report.mismatched_bytes == 0;
      if (!passed) {
        ++result.failed;
        if (!op->known_fault) {
          result.problem(op->label + ": validation failed, " +
                         std::to_string(run.report.mismatched_bytes) +
                         " mismatched bytes");
        }
      }
    }
    auto [it, inserted] = first.emplace(op->label, run.report);
    if (!inserted && it->second.to_json().dump() != run.report.to_json().dump()) {
      result.problem(op->label + ": repeated evaluation gave a different report");
    }
  }
  return record;
}

namespace {

/// evaluate-timing: the report must not depend on the simulator's thread
/// count. One model per run (chosen by the seed) is rerun serially.
void check_thread_identity(const Config& config, const std::vector<EvalOp>& ops,
                           const std::map<std::string, cimflow::EvaluationReport>& first,
                           Result& result) {
  EvalOp serial = ops[config.seed % ops.size()];
  const auto it = first.find(serial.label);
  if (it == first.end()) return;  // the op already failed and was reported
  serial.sim_threads = 1;
  if (run_op(serial, nullptr).report.to_json().dump() != it->second.to_json().dump()) {
    result.problem(serial.label + ": report at sim_threads 1 differs from sim_threads " +
                   std::to_string(config.sim_threads));
  }
}

/// validate-functional: every program's functional run must report the
/// simulated statistics of a timing run of the same configuration, and one
/// passing op per run is compared against the golden executor here, byte by
/// byte, independently of Flow's own validation.
void check_functional(const Config& config, const std::vector<EvalOp>& ops,
                      const std::map<std::string, cimflow::EvaluationReport>& first,
                      Result& result) {
  for (const EvalOp& op : ops) {
    const auto it = first.find(op.label);
    if (it == first.end()) continue;
    EvalOp timing = op;
    timing.validate = false;
    for (const std::string& p :
         compare_sim_counts(op.label + " functional vs timing", it->second.sim,
                            run_op(timing, nullptr).report.sim)) {
      result.problem(p);
    }
  }
  std::vector<EvalOp> passing;
  for (const EvalOp& op : ops) {
    if (!op.known_fault) passing.push_back(op);
  }
  const EvalOp& op = passing[config.seed % passing.size()];
  const FunctionalProbe probe = probe_functional(
      build(op.model, op.input_hw), cimflow::arch::ArchConfig::cimflow_default(),
      op.batch, nullptr);
  if (const std::int64_t bad = golden_mismatches(probe); bad != 0) {
    result.problem(op.label + ": " + std::to_string(bad) +
                   " bytes differ from the golden executor");
  }
}

}  // namespace

void run_inprocess(const Config& config, Result& result) {
  const bool timing = config.workload == "evaluate-timing";
  const std::vector<EvalOp> ops = timing ? timing_ops(config) : functional_ops(config);
  // A CLI process decodes every program cold; without pinning, each op here
  // does too (the decode is released with its program).
  cimflow::sim::decoded_cache_set_strong_capacity(0);

  std::map<std::string, cimflow::EvaluationReport> first;
  std::map<std::string, double> fastest;    // op label -> fastest latency of the run
  std::map<std::string, double> least_cpu;  // op label -> least CPU of the run
  const double setup_s = seconds_since(config.t0_ns);
  const std::int64_t start = now_ns();
  do {
    const RoundRecord record = run_eval_round(ops, nullptr, result, first);
    for (const auto& [label, seconds] : record.op_s) {
      auto [it, inserted] = fastest.emplace(label, seconds);
      if (!inserted) it->second = std::min(it->second, seconds);
    }
    for (const auto& [label, seconds] : record.op_cpu_s) {
      auto [it, inserted] = least_cpu.emplace(label, seconds);
      if (!inserted) it->second = std::min(it->second, seconds);
    }
  } while (seconds_since(start) < config.seconds);
  const double peak_rss_mb = process_peak_rss_mb();

  if (timing) {
    check_thread_identity(config, ops, first, result);
  } else {
    check_functional(config, ops, first, result);
  }

  // Interference from other tenants of a shared host only ever adds time,
  // and it comes in bursts of seconds to minutes. A run's fastest repetition
  // is therefore its steadiest estimate of the work itself: on a 4-vCPU Xeon
  // VM it cut validate-functional's 10-run quartile spread of wall_s from
  // 0.22 to 0.06 of the median. The list's time is the sum of its ops'
  // fastest repetitions, each op taking its own best round: on
  // evaluate-timing that spread 0.07 over ten runs where the fastest whole
  // round spread 0.11.
  std::vector<double> op_s;
  double wall_s = 0, cpu_s = 0;
  for (const auto& [label, seconds] : fastest) {
    op_s.push_back(seconds);
    wall_s += seconds;
    cpu_s += least_cpu.at(label);
  }
  result.metric("setup_s", setup_s, "s");
  result.metric("wall_s", wall_s, "s");
  result.metric("cpu_s", cpu_s, "s");
  result.metric("peak_rss_mb", peak_rss_mb, "MB");
  result.metric("request_p50_s", median(op_s), "s");
  // Too few ops per run for a percentile tail: the slowest op.
  result.metric("request_tail_s", max_of(op_s), "s");
}

}  // namespace hostbench
