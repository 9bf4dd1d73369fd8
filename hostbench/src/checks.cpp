#include "checks.hpp"

#include <algorithm>
#include <cstdlib>

#include "bench.hpp"
#include "cimflow/compiler/compiler.hpp"
#include "cimflow/graph/executor.hpp"
#include "cimflow/sim/simulator.hpp"

namespace hostbench {

using cimflow::Json;

std::int64_t count_mismatches(const std::vector<std::uint8_t>& actual,
                              const std::vector<std::uint8_t>& expected) {
  const std::size_t common = std::min(actual.size(), expected.size());
  std::int64_t mismatches = static_cast<std::int64_t>(
      std::max(actual.size(), expected.size()) - common);
  for (std::size_t i = 0; i < common; ++i) {
    if (actual[i] != expected[i]) ++mismatches;
  }
  return mismatches;
}

FunctionalProbe probe_functional(const cimflow::graph::Graph& graph,
                                 const cimflow::arch::ArchConfig& arch,
                                 std::int64_t batch, SpanLog* spans) {
  FunctionalProbe probe;
  cimflow::compiler::CompileOptions copt;
  copt.batch = batch;
  copt.materialize_data = false;
  {
    Span span(spans, "compiler.compile.nomat");
    (void)cimflow::compiler::compile(graph, arch, copt);
    probe.compile_nomat_s = span.elapsed_s();
  }
  copt.materialize_data = true;
  cimflow::compiler::CompileResult compiled;
  {
    Span span(spans, "compiler.compile.mat");
    compiled = cimflow::compiler::compile(graph, arch, copt);
    probe.compile_s = span.elapsed_s();
  }

  std::vector<cimflow::graph::TensorI8> tensors;
  std::vector<std::vector<std::uint8_t>> inputs;
  const cimflow::graph::Shape in_shape = graph.node(graph.inputs().front()).out_shape;
  for (std::int64_t img = 0; img < batch; ++img) {
    tensors.push_back(
        cimflow::graph::random_tensor(in_shape, 7 + static_cast<std::uint64_t>(img)));
    inputs.push_back(cimflow::tensor_bytes(tensors.back()));
  }

  cimflow::sim::SimOptions fopt;
  fopt.functional = true;
  cimflow::sim::Simulator functional(arch, fopt);
  {
    Span span(spans, "sim.run.functional");
    probe.functional = functional.run(compiled.program, inputs);
    probe.run_functional_s = span.elapsed_s();
  }
  {
    Span span(spans, "sim.output");
    for (std::int64_t img = 0; img < batch; ++img) {
      probe.actual.push_back(functional.output(compiled.program, img));
    }
    probe.output_s = span.elapsed_s();
  }
  probe.overlay_bytes = functional.memory_stats().global_overlay_bytes;

  cimflow::sim::Simulator timing(arch, cimflow::sim::SimOptions{});
  {
    Span span(spans, "sim.run.timing_same_program");
    probe.timing = timing.run(compiled.program);
    probe.run_timing_s = span.elapsed_s();
  }

  {
    Span span(spans, "graph.golden");
    cimflow::graph::ReferenceExecutor golden(graph);
    for (std::int64_t img = 0; img < batch; ++img) {
      probe.expected.push_back(cimflow::tensor_bytes(
          golden.run({tensors[static_cast<std::size_t>(img)]})));
    }
    probe.golden_s = span.elapsed_s();
  }
  return probe;
}

std::int64_t golden_mismatches(const FunctionalProbe& probe) {
  std::int64_t total = 0;
  for (std::size_t img = 0; img < probe.expected.size(); ++img) {
    const std::vector<std::uint8_t> none;
    total += count_mismatches(img < probe.actual.size() ? probe.actual[img] : none,
                              probe.expected[img]);
  }
  return total + std::abs(static_cast<std::int64_t>(probe.actual.size()) -
                          static_cast<std::int64_t>(probe.expected.size()));
}

std::vector<std::string> compare_sim_counts(const std::string& what,
                                            const cimflow::sim::SimReport& a,
                                            const cimflow::sim::SimReport& b) {
  std::vector<std::string> problems;
  auto same = [&](const char* field, double x, double y) {
    if (x != y) {
      problems.push_back(what + ": " + field + " differs (" + Json::number_to_string(x) +
                         " vs " + Json::number_to_string(y) + ")");
    }
  };
  same("cycles", static_cast<double>(a.cycles), static_cast<double>(b.cycles));
  same("instructions", static_cast<double>(a.instructions),
       static_cast<double>(b.instructions));
  same("mvm_count", static_cast<double>(a.mvm_count), static_cast<double>(b.mvm_count));
  same("energy", a.energy.total(), b.energy.total());
  return problems;
}

std::string PayloadBook::record(const std::string& label, const std::string& payload) {
  auto [it, inserted] = first_.emplace(label, payload);
  if (inserted || it->second == payload) return "";
  return label + ": repeated request returned different payload bytes";
}

std::string PayloadBook::check_direct(const std::string& label,
                                      const std::string& direct) const {
  auto it = first_.find(label);
  if (it == first_.end()) return label + ": no daemon payload to compare";
  if (it->second != direct) {
    return label + ": daemon payload differs from the direct in-process run";
  }
  return "";
}

std::vector<std::string> check_tally(const Json& stats, const Tally& tally) {
  std::vector<std::string> problems;
  auto expect = [&](const std::string& what, std::int64_t got, std::int64_t want) {
    if (got != want) {
      problems.push_back("stats " + what + " = " + std::to_string(got) +
                         ", generator tally = " + std::to_string(want));
    }
  };
  const Json& daemon = stats.at("daemon");
  expect("daemon.accepted", daemon.get_or("accepted", std::int64_t{-1}), tally.compute);
  expect("daemon.completed", daemon.get_or("completed", std::int64_t{-1}), tally.compute);
  expect("daemon.failed", daemon.get_or("failed", std::int64_t{-1}), 0);
  expect("daemon.rejected_queue_full",
         daemon.get_or("rejected_queue_full", std::int64_t{-1}), 0);
  const Json& verbs = stats.at("verbs");
  for (const char* verb : {"evaluate", "sweep"}) {
    auto it = tally.by_verb.find(verb);
    const std::int64_t sent = it == tally.by_verb.end() ? 0 : it->second;
    const std::int64_t got =
        verbs.contains(verb) ? verbs.at(verb).get_or("requests", std::int64_t{-1}) : 0;
    const std::int64_t failures =
        verbs.contains(verb) ? verbs.at(verb).get_or("failures", std::int64_t{-1}) : 0;
    expect(std::string("verbs.") + verb + ".requests", got, sent);
    expect(std::string("verbs.") + verb + ".failures", failures, 0);
  }
  return problems;
}

namespace {

double objective_of(const std::string& name, const Json& point) {
  return point.at("sim").at(name == "latency" ? "ms_per_image" : "mj_per_image").as_double();
}

bool dominates(const std::vector<double>& a, const std::vector<double>& b) {
  bool strictly = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly = true;
  }
  return strictly;
}

}  // namespace

std::vector<std::string> check_pareto(const Json& sweep_payload) {
  std::vector<std::string> problems;
  const Json& search = sweep_payload.at("search");
  std::vector<std::string> names;
  for (const Json& name : search.at("objectives").as_array()) {
    names.push_back(name.as_string());
    if (names.back() != "latency" && names.back() != "energy") {
      problems.push_back("unchecked objective " + names.back());
      return problems;
    }
  }
  std::map<std::int64_t, std::vector<double>> evaluated;
  for (const Json& point : sweep_payload.at("points").as_array()) {
    if (!point.at("ok").as_bool()) continue;
    std::vector<double> values;
    for (const std::string& name : names) values.push_back(objective_of(name, point));
    evaluated[point.at("index").as_int()] = values;
  }
  const cimflow::JsonArray& front = search.at("front").as_array();
  if (front.empty() && !evaluated.empty()) problems.push_back("empty Pareto front");
  for (const Json& member : front) {
    const std::int64_t index = member.at("index").as_int();
    auto it = evaluated.find(index);
    if (it == evaluated.end()) {
      problems.push_back("front member " + std::to_string(index) +
                         " is not an evaluated point");
      continue;
    }
    std::vector<double> listed;
    for (const Json& v : member.at("objectives").as_array()) listed.push_back(v.as_double());
    if (listed != it->second) {
      problems.push_back("front member " + std::to_string(index) +
                         " lists objectives its report does not give");
    }
    for (const auto& [other, values] : evaluated) {
      if (other != index && dominates(values, it->second)) {
        problems.push_back("front member " + std::to_string(index) +
                           " is dominated by point " + std::to_string(other));
      }
    }
  }
  return problems;
}

}  // namespace hostbench
