// daemon-mix: a `cimflow_cli serve` child driven over its UNIX socket by a
// closed-loop load generator, and the direct in-process runs its payloads
// are checked against.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "cimflow/models/models.hpp"
#include "cimflow/search/driver.hpp"
#include "cimflow/service/protocol.hpp"
#include "workloads.hpp"

namespace hostbench {

using cimflow::Json;
using cimflow::JsonArray;
using cimflow::JsonObject;

namespace {

Json evaluate_params(const std::string& model, std::int64_t input_hw, std::int64_t batch,
                     bool validate) {
  JsonObject p;
  p["model"] = Json(model);
  p["input_hw"] = Json(input_hw);
  p["strategy"] = Json("dp");
  p["batch"] = Json(batch);
  if (validate) p["validate"] = Json(true);
  p["sim_threads"] = Json(std::int64_t{1});
  return Json(std::move(p));
}

Json sweep_params(const std::string& model, std::int64_t input_hw, std::int64_t batch) {
  JsonObject p;
  p["model"] = Json(model);
  p["input_hw"] = Json(input_hw);
  p["mg"] = Json(JsonArray{Json(4), Json(8), Json(12), Json(16)});
  p["flit"] = Json(JsonArray{Json(8), Json(16)});
  p["strategies"] = Json(JsonArray{Json("generic"), Json("dp")});
  p["batch"] = Json(batch);
  p["budget"] = Json(std::int64_t{0});
  p["sim_threads"] = Json(std::int64_t{1});
  p["threads"] = Json(std::int64_t{2});
  p["objectives"] = Json(JsonArray{Json("latency"), Json("energy")});
  p["search_strategy"] = Json("grid");
  return Json(std::move(p));
}

bool is_compute(const std::string& verb) { return verb == "evaluate" || verb == "sweep"; }

/// The daemon child. Killed and reaped on destruction if still running.
class DaemonProcess {
 public:
  DaemonProcess(const std::string& cli, const std::string& socket, std::int64_t workers,
                std::int64_t queue) {
    const std::vector<std::string> args = {
        cli, "serve", "--socket", socket, "--workers", std::to_string(workers),
        "--queue", std::to_string(queue), "--log-level", "error"};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
    if (pid_ == 0) {
      // stdout belongs to the benchmark's result line.
      dup2(STDERR_FILENO, STDOUT_FILENO);
      execv(argv[0], argv.data());
      _exit(127);
    }
  }
  ~DaemonProcess() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  DaemonProcess(const DaemonProcess&) = delete;
  DaemonProcess& operator=(const DaemonProcess&) = delete;

  bool exited() {
    int status = 0;
    if (pid_ > 0 && waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return true;
    }
    return pid_ <= 0;
  }

  /// Waits up to `timeout_s` for a clean exit and collects its resource use.
  bool reap(double timeout_s, rusage& usage, int& status) {
    const std::int64_t start = now_ns();
    while (pid_ > 0) {
      const pid_t got = wait4(pid_, &status, WNOHANG, &usage);
      if (got == pid_) {
        pid_ = -1;
        return true;
      }
      if (seconds_since(start) > timeout_s) return false;
      usleep(1000);
    }
    return false;
  }

 private:
  pid_t pid_ = -1;
};

class Connection {
 public:
  explicit Connection(const std::string& path) {
    fd_ = socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) throw std::runtime_error("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
      close(fd_);
      fd_ = -1;
      throw std::runtime_error("connect failed");
    }
    // A stuck daemon ends the run with a failure instead of hanging it.
    timeval tv{120, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  bool send_line(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      off += static_cast<std::size_t>(n);
    }
    return true;
  }

  bool read_line(std::string& line) {
    while (true) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      char chunk[65536];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::string request_line(std::int64_t id, const std::string& verb, const Json& params) {
  JsonObject request;
  request["id"] = Json(id);
  request["verb"] = Json(verb);
  request["params"] = params;
  return cimflow::service::wire_line(Json(std::move(request)));
}

/// Sends one request and reads events until its terminal one. Latency runs
/// from the send to the arrival of the terminal line.
void exchange(Connection& conn, const std::string& line, const std::string& verb,
              SpanLog* spans, Reply& reply) {
  Span request_span(spans, "service.request." + verb, reply.id);
  const std::int64_t t0 = now_ns();
  {
    Span span(spans, "client.send", reply.id);
    if (!conn.send_line(line)) {
      reply.error = "send failed";
      return;
    }
  }
  std::string text;
  while (true) {
    {
      Span span(spans, "client.wait", reply.id);
      if (!conn.read_line(text)) {
        reply.error = "connection closed before a terminal event";
        return;
      }
    }
    reply.latency_s = seconds_since(t0);
    Span span(spans, "client.decode", reply.id);
    const Json event = Json::parse(text);
    const std::string kind = event.get_or("event", std::string());
    if (kind == "progress") continue;
    if (kind == "result") {
      reply.ok = true;
      reply.payload = event.at("payload").dump();
      if (event.contains("cache")) reply.cache = event.at("cache");
    } else {
      reply.error = event.contains("error") ? event.at("error").dump_line() : text;
    }
    return;
  }
}

}  // namespace

std::vector<CatalogueEntry> daemon_catalogue(const Config& config) {
  if (config.smoke) {
    return {
        {"micro_b8", "evaluate", evaluate_params("micro", 224, 8, false)},
        {"micro_b2_validate", "evaluate", evaluate_params("micro", 224, 2, true)},
        {"sweep_micro", "sweep", sweep_params("micro", 224, 4)},
        {"stats", "stats", Json(JsonObject{})},
        {"metrics", "metrics", Json(JsonObject{})},
    };
  }
  return {
      {"resnet18_224_b8", "evaluate", evaluate_params("resnet18", 224, 8, false)},
      {"mobilenetv2_224_b8", "evaluate", evaluate_params("mobilenetv2", 224, 8, false)},
      {"micro_b8", "evaluate", evaluate_params("micro", 224, 8, false)},
      {"mobilenetv2_64_b4_validate", "evaluate", evaluate_params("mobilenetv2", 64, 4, true)},
      {"resnet18_64_b2_validate", "evaluate", evaluate_params("resnet18", 64, 2, true)},
      {"sweep_micro", "sweep", sweep_params("micro", 224, 4)},
      {"sweep_resnet18_64_b4", "sweep", sweep_params("resnet18", 64, 4)},
      {"stats", "stats", Json(JsonObject{})},
      {"metrics", "metrics", Json(JsonObject{})},
  };
}

std::vector<std::size_t> round_order(const Config& config,
                                     const std::vector<CatalogueEntry>& catalogue,
                                     std::uint64_t seed) {
  // Every entry equally often: no entry's share is a guess about real traffic,
  // and each daemon's first copy of a configuration is its memo miss.
  const std::size_t copies = config.smoke ? 2 : 5;
  std::vector<std::size_t> order;
  for (std::size_t i = 0; i < catalogue.size(); ++i) order.insert(order.end(), copies, i);
  std::mt19937_64 rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng() % i]);
  return order;
}

DaemonRound run_daemon_round(const Config& config,
                             const std::vector<CatalogueEntry>& catalogue,
                             const std::vector<std::size_t>& order, SpanLog* spans,
                             Result& result, const std::function<void()>& on_ready) {
  static int counter = 0;
  DaemonRound round;
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const CatalogueEntry& entry = catalogue[order[i]];
    lines.push_back(request_line(static_cast<std::int64_t>(i) + 1, entry.verb, entry.params));
    ++round.tally.by_verb[entry.verb];
    if (is_compute(entry.verb)) ++round.tally.compute;
  }
  const std::string socket = config.out_dir + "/d" + std::to_string(getpid()) + "-" +
                             std::to_string(counter++) + ".sock";

  const std::int64_t start = now_ns();
  DaemonProcess daemon(config.cli, socket, 2, config.threads);
  std::vector<std::unique_ptr<Connection>> conns;
  while (conns.empty()) {
    try {
      conns.push_back(std::make_unique<Connection>(socket));
    } catch (const std::exception&) {
      if (daemon.exited() || seconds_since(start) > 30) {
        result.problem("cimflowd did not start accepting on " + socket);
        result.attempted += static_cast<std::int64_t>(order.size());
        result.failed += static_cast<std::int64_t>(order.size());
        return round;
      }
      usleep(50);
    }
  }
  if (on_ready) on_ready();
  while (static_cast<std::int64_t>(conns.size()) < config.threads) {
    conns.push_back(std::make_unique<Connection>(socket));
  }

  round.replies.resize(order.size());
  std::atomic<std::size_t> next{0};
  const std::int64_t t0 = now_ns();
  {
    std::vector<std::thread> clients;
    for (auto& conn : conns) {
      clients.emplace_back([&, c = conn.get()] {
        for (std::size_t i = next++; i < order.size(); i = next++) {
          Reply& reply = round.replies[i];
          reply.entry = order[i];
          reply.id = static_cast<std::int64_t>(i) + 1;
          try {
            exchange(*c, lines[i], catalogue[reply.entry].verb, spans, reply);
          } catch (const std::exception& e) {
            reply.error = e.what();
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  round.wall_s = seconds_since(t0);

  result.attempted += static_cast<std::int64_t>(order.size());
  for (const Reply& reply : round.replies) {
    if (!reply.ok) {
      ++result.failed;
      result.problem(catalogue[reply.entry].label + " (id " + std::to_string(reply.id) +
                     "): " + reply.error);
    }
  }

  Reply stats;
  stats.id = static_cast<std::int64_t>(order.size()) + 1;
  Reply shutdown;
  shutdown.id = stats.id + 1;
  try {
    exchange(*conns.front(), request_line(stats.id, "stats", Json(JsonObject{})), "stats",
             nullptr, stats);
    if (stats.ok) round.stats = Json::parse(stats.payload);
    exchange(*conns.front(), request_line(shutdown.id, "shutdown", Json(JsonObject{})),
             "shutdown", nullptr, shutdown);
  } catch (const std::exception& e) {
    stats.error = e.what();
  }
  if (!stats.ok || !shutdown.ok) {
    result.problem("stats/shutdown failed: " + stats.error + shutdown.error);
  }
  conns.clear();
  rusage usage{};
  int status = 0;
  if (!daemon.reap(30, usage, status) || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    result.problem("cimflowd did not exit cleanly after shutdown");
  }
  round.cpu_s = static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
                static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) * 1e-6;
  round.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  unlink(socket.c_str());
  return round;
}

void check_daemon_round(const std::vector<CatalogueEntry>& catalogue,
                        const DaemonRound& round, PayloadBook& book, Result& result) {
  std::map<std::string, bool> seen;  // one payload per entry needs a parse
  for (const Reply& reply : round.replies) {
    const CatalogueEntry& entry = catalogue[reply.entry];
    if (!reply.ok || !is_compute(entry.verb)) continue;
    if (const std::string p = book.record(entry.label, reply.payload); !p.empty()) {
      result.problem(p);
    }
    if (seen[entry.label]) continue;
    seen[entry.label] = true;
    const Json payload = Json::parse(reply.payload);
    if (entry.params.get_or("validate", false)) {
      const Json& v = payload.at("validation");
      if (!v.at("passed").as_bool() || v.at("mismatched_bytes").as_int() != 0) {
        result.problem(entry.label + ": validated request did not pass");
      }
    }
    if (entry.verb == "sweep") {
      for (const std::string& p : check_pareto(payload)) result.problem(entry.label + ": " + p);
    }
  }
  if (round.stats.is_object()) {
    for (const std::string& p : check_tally(round.stats, round.tally)) result.problem(p);
  }
}

std::string direct_payload(const CatalogueEntry& entry, SpanLog* spans, double* seconds) {
  Span span(spans, "direct." + entry.label);
  const Json& p = entry.params;
  cimflow::models::ModelOptions mo;
  mo.input_hw = p.at("input_hw").as_int();
  const cimflow::graph::Graph graph = cimflow::models::build_model(p.at("model").as_string(), mo);
  const cimflow::arch::ArchConfig arch = cimflow::arch::ArchConfig::cimflow_default();
  std::string payload;
  if (entry.verb == "evaluate") {
    cimflow::Flow flow(arch);
    cimflow::FlowOptions options;
    options.strategy = cimflow::compiler::strategy_from_string(p.at("strategy").as_string());
    options.batch = p.at("batch").as_int();
    options.validate = p.get_or("validate", false);
    options.eval.sim_threads = p.at("sim_threads").as_int();
    payload = flow.evaluate(graph, options).to_json().dump();
  } else {
    cimflow::search::SearchJob job;
    job.space.mg_sizes.clear();
    for (const Json& v : p.at("mg").as_array()) job.space.mg_sizes.push_back(v.as_int());
    job.space.flit_sizes.clear();
    for (const Json& v : p.at("flit").as_array()) job.space.flit_sizes.push_back(v.as_int());
    job.space.strategies.clear();
    for (const Json& v : p.at("strategies").as_array()) {
      job.space.strategies.push_back(cimflow::compiler::strategy_from_string(v.as_string()));
    }
    job.batch = p.at("batch").as_int();
    job.objectives.clear();
    for (const Json& v : p.at("objectives").as_array()) {
      job.objectives.push_back(cimflow::search::objective_from_string(v.as_string()));
    }
    cimflow::search::SearchDriver::Options dopt;
    dopt.engine.num_threads = static_cast<std::size_t>(p.at("threads").as_int());
    dopt.engine.eval.sim_threads = p.at("sim_threads").as_int();
    const auto strategy = cimflow::search::make_strategy(p.at("search_strategy").as_string());
    payload = cimflow::search::SearchDriver(dopt).run(graph, arch, *strategy, job).to_json(false).dump();
  }
  if (seconds != nullptr) *seconds = span.elapsed_s();
  return payload;
}

void run_daemon_mix(const Config& config, Result& result) {
  const std::vector<CatalogueEntry> catalogue = daemon_catalogue(config);
  PayloadBook book;
  std::vector<double> walls, cpus, rss, latencies;
  double setup_s = 0;
  const std::int64_t start = now_ns();
  // At least three rounds (one in the smoke variant), so every run has at
  // least ten latency samples beyond its p90.
  const std::size_t min_rounds = config.smoke ? 1 : 3;
  do {
    // Each round draws its own order, so a run's medians average over the
    // queueing patterns of several orders instead of repeating one.
    const std::vector<std::size_t> order =
        round_order(config, catalogue, config.seed * 1000 + walls.size());
    const DaemonRound round =
        run_daemon_round(config, catalogue, order, nullptr, result, [&] {
          if (setup_s == 0) setup_s = seconds_since(config.t0_ns);
        });
    walls.push_back(round.wall_s);
    cpus.push_back(round.cpu_s);
    rss.push_back(round.peak_rss_mb);
    // Polls are answered inline in microseconds; their latency is the
    // per-layer service.inline_latency_s, not part of the request metrics.
    std::vector<double> round_latencies;
    int memo_hits = 0, evaluates = 0;
    for (const Reply& reply : round.replies) {
      const std::string& verb = catalogue[reply.entry].verb;
      if (is_compute(verb)) round_latencies.push_back(reply.latency_s);
      if (verb == "evaluate" && reply.cache.is_object()) {
        ++evaluates;
        memo_hits += reply.cache.get_or("compile_memo_hit", false) ? 1 : 0;
      }
    }
    std::fprintf(stderr, "round wall=%f cpu=%f rss=%f p50=%f p90=%f memo_hits=%d/%d\n",
                 round.wall_s, round.cpu_s, round.peak_rss_mb, median(round_latencies),
                 nearest_rank(round_latencies, 0.9), memo_hits, evaluates);
    latencies.insert(latencies.end(), round_latencies.begin(), round_latencies.end());
    check_daemon_round(catalogue, round, book, result);
    if (!result.correct()) break;
  } while (seconds_since(start) < config.seconds || walls.size() < min_rounds);

  for (const CatalogueEntry& entry : catalogue) {
    if (!is_compute(entry.verb)) continue;
    if (const std::string p = book.check_direct(entry.label, direct_payload(entry, nullptr, nullptr));
        !p.empty()) {
      result.problem(p);
    }
  }

  // The run's fastest round and least CPU: every round draws its own order,
  // but over ten-run sets on a shared 4-vCPU VM these spread 0.05, 0.15 and
  // 0.32 where the median round spread 0.07, 0.17 and 0.49, since a host
  // slowdown covering part of a run moves the median first.
  result.metric("setup_s", setup_s, "s");
  result.metric("wall_s", min_of(walls), "s");
  result.metric("cpu_s", min_of(cpus), "s");
  result.metric("peak_rss_mb", max_of(rss), "MB");
  result.metric("request_p50_s", median(latencies), "s");
  result.metric("request_tail_s", nearest_rank(latencies, 0.9), "s");
}

}  // namespace hostbench
