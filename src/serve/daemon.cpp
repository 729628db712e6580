#include "serve/daemon.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>

#include "support/json.h"
#include "wisdom/harvest.h"

namespace ifko::serve {

namespace {

std::string comboKey(const arch::MachineConfig& machine,
                     sim::TimeContext context, int64_t n) {
  return machine.name + "|" + std::string(sim::contextName(context)) + "|" +
         std::to_string(n);
}

}  // namespace

Daemon::Daemon(ServeConfig config, std::string* error)
    : config_(std::move(config)) {
  std::string problems;
  for (const kernels::KernelSpec& spec : kernels::extendedKernels())
    kernels_[spec.name()] = KernelEntry{spec.hilSource(), &spec};
  if (!config_.kernelsDir.empty()) {
    std::string dirError;
    for (search::KernelJob& job :
         search::loadKernelDir(config_.kernelsDir, &dirError))
      kernels_[job.name] = KernelEntry{std::move(job.hilSource), nullptr};
    if (!dirError.empty()) problems += "kernels: " + dirError + "\n";
  }

  if (!config_.wisdomPath.empty()) {
    std::string loadError;
    if (!store_.load(config_.wisdomPath, &loadError))
      problems += "wisdom: " + loadError + "\n";
    if (store_.damagedLines() > 0)
      problems += "wisdom: skipped " + std::to_string(store_.damagedLines()) +
                  " damaged line(s) in " + config_.wisdomPath + "\n";
    if (store_.schemaSkippedLines() > 0)
      problems += "wisdom: skipped " +
                  std::to_string(store_.schemaSkippedLines()) +
                  " line(s) from another wisdom_schema in " +
                  config_.wisdomPath + "\n";
  }
  if (error != nullptr) *error = problems;
}

Daemon::~Daemon() {
  if (listenFd_ >= 0) ::close(listenFd_);
  if (!unixPath_.empty()) ::unlink(unixPath_.c_str());
}

std::vector<std::string> Daemon::kernelNames() const {
  std::vector<std::string> names;
  names.reserve(kernels_.size());
  for (const auto& [name, entry] : kernels_) names.push_back(name);
  return names;
}

std::string Daemon::errorResponse(const std::string& code,
                                  const std::string& message) {
  ++stats_.errors;
  JsonWriter w;
  w.field("ok", false).field("code", code).field("error", message);
  return w.str();
}

search::Orchestrator& Daemon::orchestratorFor(
    const arch::MachineConfig& machine, sim::TimeContext context, int64_t n) {
  const std::string key = comboKey(machine, context, n);
  auto it = orchestrators_.find(key);
  if (it == orchestrators_.end()) {
    search::OrchestratorConfig cfg = config_.orchestrator;
    cfg.search.context = context;
    cfg.search.n = n;
    std::string ignored;  // cache/trace file problems degrade, not fail
    it = orchestrators_
             .emplace(key, std::make_unique<search::Orchestrator>(
                               machine, std::move(cfg), &ignored))
             .first;
  }
  return *it->second;
}

void Daemon::saveWisdom() {
  if (config_.wisdomPath.empty()) return;
  std::string error;
  if (!store_.save(config_.wisdomPath, &error))
    std::fprintf(stderr, "ifko serve: wisdom save failed: %s\n",
                 error.c_str());
}

std::string Daemon::handleLine(const std::string& line) {
  ++stats_.requests;
  std::string parseError;
  const std::optional<Request> req = parseRequest(line, &parseError);
  if (!req.has_value()) return errorResponse("parse_error", parseError);
  try {
    switch (req->verb) {
      case Request::Verb::Query:
      case Request::Verb::Tune:
      case Request::Verb::Explain: return handleKernelVerb(*req);
      case Request::Verb::Export: return handleExport(*req);
      case Request::Verb::Import: return handleImport(*req);
      case Request::Verb::Stats: return handleStats();
      case Request::Verb::Shutdown: return handleShutdown();
    }
    return errorResponse("internal_error", "unhandled verb");
  } catch (const std::exception& e) {
    return errorResponse("internal_error", e.what());
  } catch (...) {
    return errorResponse("internal_error", "unknown exception");
  }
}

std::string Daemon::handleKernelVerb(const Request& req) {
  const auto kernelIt = kernels_.find(req.target);
  if (kernelIt == kernels_.end())
    return errorResponse("unknown_kernel",
                         "no kernel '" + req.target + "' (see STATS)");
  const KernelEntry& entry = kernelIt->second;

  arch::MachineConfig machine = config_.defaultArch;
  if (!req.arch.empty()) {
    const auto parsed = arch::parseArchFlag(req.arch);
    if (!parsed.has_value())
      return errorResponse("parse_error", "unknown arch '" + req.arch +
                                              "' (want p4e|opteron)");
    machine = *parsed;
  }
  sim::TimeContext context = config_.orchestrator.search.context;
  if (!req.context.empty()) {
    const auto parsed = sim::parseContextFlag(req.context);
    if (!parsed.has_value())
      return errorResponse("parse_error", "unknown context '" + req.context +
                                              "' (want ooc|inl2)");
    context = *parsed;
  }
  const int64_t n = req.n > 0 ? req.n : config_.orchestrator.search.n;

  const wisdom::WisdomKey key =
      wisdom::keyFor(entry.source, machine, context, n);

  const wisdom::WisdomMatch match = store_.find(key);

  auto respond = [&](const std::string& how, const std::string& params,
                     uint64_t bestCycles, uint64_t defaultCycles,
                     int64_t evaluations) {
    JsonWriter w;
    w.field("ok", true)
        .field("kernel", req.target)
        .field("machine", key.machine)
        .field("context", key.context)
        .field("n_class", key.nClass)
        .field("match", how)
        .field("params", params)
        .field("best_cycles", bestCycles)
        .field("default_cycles", defaultCycles);
    if (bestCycles != 0)
      w.field("speedup", static_cast<double>(defaultCycles) /
                             static_cast<double>(bestCycles));
    w.field("evaluations", evaluations);
    return w.str();
  };

  if (req.verb == Request::Verb::Explain) {
    if (!match.hit())
      return errorResponse("no_wisdom", "no wisdom for " + req.target + " (" +
                                            key.machine + ", " + key.context +
                                            ", " + key.nClass +
                                            ") — QUERY or TUNE it first");
    const wisdom::WisdomRecord& rec = *match.record;
    JsonWriter w;
    w.field("ok", true)
        .field("kernel", req.target)
        .field("machine", rec.key.machine)
        .field("context", rec.key.context)
        .field("n_class", rec.key.nClass)
        .field("match", std::string(wisdom::matchKindName(match.kind)))
        .field("params", rec.params)
        .field("best_cycles", rec.bestCycles)
        .field("default_cycles", rec.defaultCycles)
        .field("speedup", rec.speedup())
        .field("evaluations", rec.evaluations)
        .field("run", rec.runId);
    if (!rec.topCause.empty())
      w.field("top_cause", rec.topCause)
          .field("top_cause_share", rec.topCauseShare)
          .field("mem_share", rec.memStallShare);
    return w.str();
  }

  // QUERY answered from wisdom: the fast path.  Exact and near hits both
  // answer without touching the evaluator; only a full miss tunes.
  if (req.verb == Request::Verb::Query && match.hit()) {
    if (match.kind == wisdom::MatchKind::Exact)
      ++stats_.wisdomExact;
    else
      ++stats_.wisdomNear;
    const wisdom::WisdomRecord& rec = *match.record;
    return respond(std::string(wisdom::matchKindName(match.kind)), rec.params,
                   rec.bestCycles, rec.defaultCycles, 0);
  }

  // Tune-through path (QUERY miss, or an explicit TUNE): route through the
  // fault-isolated orchestrator for this (arch, context, n) combination,
  // seeded by the nearest wisdom we do have.  The lookup is deferred so the
  // kernel's DEFAULTS attribution ranks the fallback candidates — the store
  // never crosses kernel or machine, so the probe only reorders this
  // kernel's own records.
  search::Orchestrator& orch = orchestratorFor(machine, context, n);
  search::KernelJob job;
  job.name = req.target;
  job.hilSource = entry.source;
  job.spec = entry.spec;
  job.warmStartProvider = [this, key](const search::EvalOutcome& def) {
    const auto warm = wisdom::findWarmStart(store_, key, def);
    return warm.has_value() ? std::optional(warm->params) : std::nullopt;
  };
  const search::KernelOutcome outcome = orch.tune(job);
  ++stats_.tuned;
  stats_.evaluations += static_cast<uint64_t>(outcome.evaluationsRun);
  if (!outcome.result.ok)
    return errorResponse(outcome.quarantined ? "quarantined" : "tune_failed",
                         outcome.result.error);

  const wisdom::WisdomRecord rec = wisdom::harvestRecord(
      key, req.target,
      "serve/" +
          std::string(search::strategyName(config_.orchestrator.strategy)),
      outcome.result);

  if (store_.record(rec)) saveWisdom();
  return respond("tuned", rec.params, rec.bestCycles, rec.defaultCycles,
                 outcome.evaluationsRun);
}

std::string Daemon::handleExport(const Request& req) {
  const std::string path =
      req.target.empty() ? config_.wisdomPath : req.target;
  if (path.empty())
    return errorResponse("export_failed",
                         "no path: daemon has no --wisdom file, so EXPORT "
                         "needs an explicit path");
  std::string error;
  if (!store_.save(path, &error)) return errorResponse("export_failed", error);
  JsonWriter w;
  w.field("ok", true).field("path", path).field(
      "records", static_cast<uint64_t>(store_.size()));
  return w.str();
}

std::string Daemon::handleImport(const Request& req) {
  // The inbound half of federation: keep-best merge a peer's exported
  // wisdom file into the live store.  Merge order never matters (lower
  // best_cycles wins, ties keep the incumbent), so two daemons IMPORTing
  // each other's EXPORTs converge on the same records.
  std::error_code ec;
  if (!std::filesystem::exists(req.target, ec))
    return errorResponse("import_failed", "no such file: " + req.target);
  wisdom::WisdomStore incoming;
  std::string loadError;
  if (!incoming.load(req.target, &loadError))
    return errorResponse("import_failed", loadError);
  const size_t adopted = store_.merge(incoming);
  if (adopted > 0) saveWisdom();
  JsonWriter w;
  w.field("ok", true)
      .field("path", req.target)
      .field("loaded", static_cast<uint64_t>(incoming.size()))
      .field("adopted", static_cast<uint64_t>(adopted))
      .field("records", static_cast<uint64_t>(store_.size()));
  return w.str();
}

std::string Daemon::handleStats() {
  size_t cacheEntries = 0;
  for (const auto& [key, orch] : orchestrators_)
    cacheEntries += orch->cache().size();
  JsonWriter w;
  w.field("ok", true)
      .field("requests", stats_.requests)
      .field("wisdom_exact", stats_.wisdomExact)
      .field("wisdom_near", stats_.wisdomNear)
      .field("tuned", stats_.tuned)
      .field("errors", stats_.errors)
      .field("evaluations", stats_.evaluations)
      .field("wisdom_records", static_cast<uint64_t>(store_.size()))
      .field("kernels", static_cast<uint64_t>(kernels_.size()))
      .field("orchestrators", static_cast<uint64_t>(orchestrators_.size()))
      .field("eval_cache_entries", static_cast<uint64_t>(cacheEntries));
  return w.str();
}

std::string Daemon::handleShutdown() {
  shutdown_ = true;
  saveWisdom();
  JsonWriter w;
  w.field("ok", true)
      .field("shutdown", true)
      .field("wisdom_saved", !config_.wisdomPath.empty());
  return w.str();
}

// --- socket layer ----------------------------------------------------------

bool Daemon::listenUnix(const std::string& path, std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr)
      *error = "socket path too long (" + std::to_string(path.size()) +
               " bytes, limit " + std::to_string(sizeof(addr.sun_path) - 1) +
               "): " + path;
    return false;
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  ::unlink(path.c_str());  // replace a stale socket from a dead daemon
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return fail("bind " + path);
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    ::unlink(path.c_str());
    return fail("listen " + path);
  }
  listenFd_ = fd;
  unixPath_ = path;
  return true;
}

bool Daemon::listenTcp(int port, std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what + ": " + std::strerror(errno);
    return false;
  };
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return fail("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only, by design
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return fail("bind 127.0.0.1:" + std::to_string(port));
  }
  if (::listen(fd, 16) < 0) {
    ::close(fd);
    return fail("listen 127.0.0.1:" + std::to_string(port));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) == 0)
    boundPort_ = ntohs(bound.sin_port);
  listenFd_ = fd;
  return true;
}

namespace {

/// Writes the whole buffer, riding out partial writes.  MSG_NOSIGNAL: a
/// client that hangs up mid-response must not SIGPIPE the daemon.
bool sendAll(int fd, const std::string& data) {
  size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

int Daemon::run(std::string* error) {
  if (listenFd_ < 0) {
    if (error != nullptr) *error = "run() before listenUnix()/listenTcp()";
    return 1;
  }
  while (!shutdown_) {
    const int conn = ::accept(listenFd_, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR) continue;
      if (error != nullptr)
        *error = std::string("accept: ") + std::strerror(errno);
      return 1;
    }
    // Satellite fix: a client that connects and never finishes a line used
    // to park this serial loop forever (one stalled peer = denial of
    // service for everyone behind it).  SO_RCVTIMEO turns the stall into a
    // structured timeout response and a dropped connection.
    if (config_.recvTimeoutMs > 0) {
      timeval tv{};
      tv.tv_sec = config_.recvTimeoutMs / 1000;
      tv.tv_usec = (config_.recvTimeoutMs % 1000) * 1000;
      ::setsockopt(conn, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    }
    std::string buffer;
    char chunk[4096];
    while (!shutdown_) {
      const ssize_t n = ::recv(conn, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        sendAll(conn, errorResponse(
                          "timeout",
                          "no complete request line within " +
                              std::to_string(config_.recvTimeoutMs) +
                              " ms — connection closed") +
                          "\n");
        break;
      }
      if (n <= 0) break;  // client hung up (or a read error: same treatment)
      buffer.append(chunk, static_cast<size_t>(n));
      size_t nl;
      while (!shutdown_ && (nl = buffer.find('\n')) != std::string::npos) {
        std::string line = buffer.substr(0, nl);
        buffer.erase(0, nl + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!sendAll(conn, handleLine(line) + "\n")) break;
      }
    }
    ::close(conn);
  }
  ::close(listenFd_);
  listenFd_ = -1;
  if (!unixPath_.empty()) {
    ::unlink(unixPath_.c_str());
    unixPath_.clear();
  }
  return 0;
}

}  // namespace ifko::serve
