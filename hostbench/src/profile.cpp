// --trace 1: the per-layer profile. Times the calls into each layer's public
// functions, keeps every span in memory and writes them out at the end.
//
// Every traced run reports the same metric set, whatever the workload:
//   * the workload's own round, untraced and traced as U T T U (tracing
//     overhead);
//   * one traced pass of each in-process workload's ops (flow.evaluate_s rows);
//   * one traced daemon-mix round (service, memo, decode and DSE metrics) and
//     the direct in-process runs of its catalogue (daemon.direct_s rows);
//   * layer probes: models, graph, compiler, decode and timing simulation at
//     the evaluate-timing configuration, plus materialisation, functional
//     kernels, output and golden executor at the validate-functional one;
//   * the simulated counts per model, which a host-time change must not move.
#include "cimflow/compiler/compiler.hpp"
#include "cimflow/compiler/partition.hpp"
#include "cimflow/graph/condense.hpp"
#include "cimflow/isa/registry.hpp"
#include "cimflow/models/models.hpp"
#include "cimflow/sim/decoded.hpp"
#include "cimflow/sim/simulator.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using cimflow::Json;

struct TimingProbeTotals {
  double build_s = 0, condense_s = 0, mapping_s = 0, compile_s = 0, decode_s = 0;
  double run_s = 0;
  std::int64_t instructions = 0;
  double speedup = 0;
};

/// Layer by layer at the evaluate-timing configuration; records the
/// simulated counts of each model as it goes.
TimingProbeTotals probe_timing(const Config& config, SpanLog& log, Result& result) {
  TimingProbeTotals t;
  const cimflow::arch::ArchConfig arch = cimflow::arch::ArchConfig::cimflow_default();
  for (const EvalOp& op : timing_ops(config)) {
    Span probe(&log, "probe.timing." + op.label);
    cimflow::models::ModelOptions mo;
    mo.input_hw = op.input_hw;
    Span build(&log, "models.build");
    const cimflow::graph::Graph graph = cimflow::models::build_model(op.model, mo);
    t.build_s += build.elapsed_s();
    cimflow::compiler::CompileOptions copt;
    copt.batch = op.batch;
    copt.materialize_data = false;
    {
      Span condense(&log, "graph.condense");
      const cimflow::graph::CondensedGraph cg = cimflow::graph::CondensedGraph::build(graph);
      t.condense_s += condense.elapsed_s();
      Span mapping(&log, "compiler.mapping");
      (void)cimflow::compiler::plan_mapping(cg, arch, copt.strategy, copt.batch);
      t.mapping_s += mapping.elapsed_s();
    }
    cimflow::compiler::CompileResult compiled;
    {
      Span compile(&log, "compiler.compile");
      compiled = cimflow::compiler::compile(graph, arch, copt);
      t.compile_s += compile.elapsed_s();
    }
    std::shared_ptr<const cimflow::sim::DecodedProgram> decoded;
    {
      Span decode(&log, "sim.decode");
      decoded = cimflow::sim::DecodedProgram::shared(compiled.program,
                                                     cimflow::isa::Registry::builtin());
      t.decode_s += decode.elapsed_s();
    }
    cimflow::sim::SimOptions sopt;
    sopt.threads = op.sim_threads;
    cimflow::sim::SimReport report;
    double parallel_s = 0;
    {
      Span run(&log, "sim.run.timing");
      report = cimflow::sim::Simulator(arch, sopt).run(compiled.program, {}, nullptr, decoded);
      parallel_s = run.elapsed_s();
    }
    t.run_s += parallel_s;
    t.instructions += report.instructions;
    if (op.model == "vgg19" || config.smoke) {
      sopt.threads = 1;
      Span run(&log, "sim.run.timing_serial");
      (void)cimflow::sim::Simulator(arch, sopt).run(compiled.program, {}, nullptr, decoded);
      t.speedup = run.elapsed_s() / parallel_s;
    }
    if (report.macs != graph.total_macs() * op.batch) {
      result.problem(op.label + ": simulated macs != total_macs x batch");
    }
    const std::string& m = op.model;
    result.metric("sim.cycles." + m, static_cast<double>(report.cycles), "cycles");
    result.metric("sim.instructions." + m, static_cast<double>(report.instructions), "count");
    result.metric("sim.mvm_count." + m, static_cast<double>(report.mvm_count), "count");
    result.metric("sim.energy_mj." + m, report.energy_mj(), "mJ");
    result.metric("sim.events_dispatched." + m,
                  static_cast<double>(report.scheduler.events_dispatched), "count");
    result.metric("sim.idle_cycles_skipped." + m,
                  static_cast<double>(report.scheduler.idle_cycles_skipped), "cycles");
    result.metric("compiler.instructions." + m,
                  static_cast<double>(compiled.stats.total_instructions), "count");
  }
  return t;
}

/// Materialisation, functional kernels, output and golden executor at the
/// validate-functional configurations. Passing configs must be bit-exact.
void probe_functional_layers(const Config& config, SpanLog& log, Result& result) {
  const cimflow::arch::ArchConfig arch = cimflow::arch::ArchConfig::cimflow_default();
  double materialize_s = 0, functional_s = 0, kernel_s = 0, output_s = 0, golden_s = 0;
  double golden_macs = 0;
  std::int64_t overlay = 0;
  for (const EvalOp& op : functional_ops(config)) {
    Span probe(&log, "probe.functional." + op.label);
    cimflow::models::ModelOptions mo;
    mo.input_hw = op.input_hw;
    const cimflow::graph::Graph graph = cimflow::models::build_model(op.model, mo);
    const FunctionalProbe p = probe_functional(graph, arch, op.batch, &log);
    materialize_s += p.compile_s - p.compile_nomat_s;
    functional_s += p.run_functional_s;
    kernel_s += p.run_functional_s - p.run_timing_s;
    output_s += p.output_s;
    golden_s += p.golden_s;
    golden_macs += static_cast<double>(graph.total_macs()) * static_cast<double>(op.batch);
    overlay += p.overlay_bytes;
    const std::int64_t bad = golden_mismatches(p);
    if (bad != 0 && !op.known_fault) {
      result.problem(op.label + ": " + std::to_string(bad) + " bytes differ from golden");
    }
    for (const std::string& problem :
         compare_sim_counts(op.label + " functional vs timing", p.functional, p.timing)) {
      result.problem(problem);
    }
  }
  result.metric("compiler.materialize_s", materialize_s, "s");
  result.metric("sim.run_functional_s", functional_s, "s");
  result.metric("sim.kernel_overhead_s", kernel_s, "s");
  result.metric("sim.output_s", output_s, "s");
  result.metric("sim.overlay_bytes", static_cast<double>(overlay), "B");
  result.metric("graph.golden_s", golden_s, "s");
  result.metric("graph.golden_macs_per_s", golden_macs / golden_s, "MAC/s");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Service, cache and DSE metrics of one traced daemon round, plus the
/// direct in-process runs its payloads must equal.
void daemon_layers(const std::vector<CatalogueEntry>& catalogue,
                   const DaemonRound& round, SpanLog& log, Result& result) {
  PayloadBook book;
  check_daemon_round(catalogue, round, book, result);

  std::map<std::string, std::pair<double, std::int64_t>> client;  // verb -> (sum, n)
  double memo_hits = 0, memo_lookups = 0, dse_hits = 0, dse_lookups = 0, points = 0;
  for (const Reply& reply : round.replies) {
    const std::string& verb = catalogue[reply.entry].verb;
    auto& c = client[verb == "metrics" ? "stats" : verb];
    c.first += reply.latency_s;
    ++c.second;
    if (!reply.ok || !reply.cache.is_object()) continue;
    if (verb == "evaluate") {
      memo_hits += reply.cache.get_or("compile_memo_hit", false) ? 1 : 0;
      memo_lookups += 1;
    } else if (verb == "sweep") {
      const double h = static_cast<double>(reply.cache.get_or("compile_memo_hits", std::int64_t{0}));
      const double m = static_cast<double>(reply.cache.get_or("compile_memo_misses", std::int64_t{0}));
      memo_hits += h;
      memo_lookups += h + m;
      dse_hits += h;
      dse_lookups += h + m;
      points += static_cast<double>(
          Json::parse(reply.payload).at("search").at("evaluations").as_int());
    }
  }
  const Json& verbs = round.stats.is_object() ? round.stats.at("verbs") : Json();
  auto server = [&](const char* verb) {
    if (!verbs.is_object() || !verbs.contains(verb)) return 0.0;
    const Json& v = verbs.at(verb);
    return ratio(v.get_or("wall_seconds_total", 0.0),
                 static_cast<double>(v.get_or("requests", std::int64_t{0})));
  };
  for (const char* verb : {"evaluate", "sweep"}) {
    const auto& c = client[verb];
    const double handle = server(verb);
    result.metric(std::string("service.handle_s.") + verb, handle, "s");
    result.metric(std::string("service.overhead_s.") + verb,
                  ratio(c.first, static_cast<double>(c.second)) - handle, "s");
  }
  result.metric("service.inline_latency_s",
                ratio(client["stats"].first, static_cast<double>(client["stats"].second)),
                "s");
  result.metric("core.memo_hit_ratio", ratio(memo_hits, memo_lookups), "ratio");
  double decode_hits = 0, decode_lookups = 0;
  if (round.stats.is_object()) {
    const Json& d = round.stats.at("decode_cache");
    decode_hits = static_cast<double>(d.get_or("hits", std::int64_t{0}));
    decode_lookups = static_cast<double>(d.get_or("lookups", std::int64_t{0}));
  }
  result.metric("sim.decode_hit_ratio", ratio(decode_hits, decode_lookups), "ratio");
  result.metric("dse.points_per_s", ratio(points, server("sweep") * static_cast<double>(
                                                      client["sweep"].second)),
                "points/s");
  result.metric("dse.compile_cache_hit_ratio", ratio(dse_hits, dse_lookups), "ratio");

  // Serialisation of the response documents, repeated to rise above timer noise.
  std::vector<Json> documents;
  double bytes = 0;
  for (const auto& [label, payload] : book.payloads()) {
    documents.push_back(Json::parse(payload));
    bytes += static_cast<double>(documents.back().dump_line().size());
  }
  constexpr int kDumps = 20;
  {
    Span dump(&log, "support.json_dump");
    for (int i = 0; i < kDumps; ++i) {
      for (const Json& doc : documents) (void)doc.dump_line();
    }
    result.metric("support.json_dump_s", dump.elapsed_s() / kDumps, "s");
  }
  result.metric("service.payload_bytes", bytes, "B");

  for (const CatalogueEntry& entry : catalogue) {
    if (entry.verb != "evaluate" && entry.verb != "sweep") continue;
    double seconds = 0;
    const std::string direct = direct_payload(entry, &log, &seconds);
    if (const std::string p = book.check_direct(entry.label, direct); !p.empty()) {
      result.problem(p);
    }
    result.metric("daemon.direct_s." + entry.label, seconds, "s");
  }
}

}  // namespace

void run_profile(const Config& config, Result& result) {
  SpanLog log;
  cimflow::sim::decoded_cache_set_strong_capacity(0);
  const std::vector<CatalogueEntry> catalogue = daemon_catalogue(config);
  const std::vector<std::size_t> order = round_order(config, catalogue, config.seed);
  const std::vector<EvalOp> timing = timing_ops(config);
  const std::vector<EvalOp> functional = functional_ops(config);
  const std::string& w = config.workload;

  // The workload's own round, untraced and traced in the order U T T U so a
  // linear drift in host speed cancels. Only these rounds count toward
  // attempted/failed, so the failed share matches --trace 0.
  Result side;  // checks of the other passes; their problems are merged below
  std::map<std::string, cimflow::EvaluationReport> first;
  DaemonRound traced_round;
  double untraced_s = 0, traced_s = 0;
  for (const bool traced : {false, true, true, false}) {
    SpanLog* spans = traced ? &log : nullptr;
    double wall_s = 0;
    if (w == "daemon-mix") {
      DaemonRound round = run_daemon_round(config, catalogue, order, spans, result);
      wall_s = round.wall_s;
      if (traced) traced_round = std::move(round);
    } else {
      const std::vector<EvalOp>& ops = w == "evaluate-timing" ? timing : functional;
      wall_s = run_eval_round(ops, spans, result, first).wall_s;
    }
    (traced ? traced_s : untraced_s) += wall_s / 2;
  }
  result.metric("bench.trace_overhead_s", traced_s - untraced_s, "s");

  if (w != "evaluate-timing") run_eval_round(timing, &log, side, first);
  if (w != "validate-functional") run_eval_round(functional, &log, side, first);
  // The workload's own ops ran traced twice, the others once.
  const double timing_passes = w == "evaluate-timing" ? 2 : 1;
  const double functional_passes = w == "validate-functional" ? 2 : 1;
  for (const EvalOp& op : timing) {
    result.metric("flow.evaluate_s.timing." + op.label,
                  log.total_s("flow.evaluate." + op.label) / timing_passes, "s");
  }
  for (const EvalOp& op : functional) {
    result.metric("flow.evaluate_s.functional." + op.label,
                  log.total_s("flow.evaluate." + op.label) / functional_passes, "s");
  }

  if (w != "daemon-mix") traced_round = run_daemon_round(config, catalogue, order, &log, side);
  daemon_layers(catalogue, traced_round, log, side);

  const TimingProbeTotals t = probe_timing(config, log, result);
  result.metric("models.build_s", t.build_s, "s");
  result.metric("graph.condense_s", t.condense_s, "s");
  result.metric("compiler.mapping_s", t.mapping_s, "s");
  result.metric("compiler.compile_s", t.compile_s, "s");
  result.metric("sim.decode_s", t.decode_s, "s");
  result.metric("sim.run_timing_s", t.run_s, "s");
  result.metric("sim.timing_minstr_per_s", static_cast<double>(t.instructions) / t.run_s / 1e6,
                "Minstr/s");
  result.metric("sim.thread_speedup", t.speedup, "x");
  probe_functional_layers(config, log, result);

  result.metrics.insert(result.metrics.end(), side.metrics.begin(), side.metrics.end());
  result.problems.insert(result.problems.end(), side.problems.begin(), side.problems.end());
  const std::string path =
      config.out_dir + "/trace-" + w + "-" + std::to_string(config.seed) + ".json";
  if (!log.write(path)) result.problem("cannot write " + path);
}

}  // namespace hostbench
