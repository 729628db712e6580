// serve_mix: an in-process serve::Daemon on a Unix socket, driven by one
// serve::Connection as an open loop (requests are due on a fixed schedule,
// whether or not earlier ones were answered).
//
// Set-up starts the daemon and seeds its wisdom and EvalCache with one TUNE
// per (kernel, arch) pair of the 16 registry kernels on P4E and Opteron,
// in-L2 at N=1024.  A phase then sends kRequests requests at a fixed 320
// per second (one phase, on a fresh daemon, per 10 s of --seconds):
//
//   QUERY  (94%)  a seeded pair, at N=1024 (exact hit) or N=4096 (near hit:
//                 the nearest N-class on record is the seeded 2^10)
//   TUNE   (5%)   every seeded key five times: warm EvalCache, 0 evaluations
//   TUNE   (1%)   every pair once at its own fresh N in 65..96 (class 2^7,
//                 never the nearest class of any QUERY): a full search plus
//                 a wisdom save
//
// Each pair is cold-tuned exactly once and only after its seed record
// exists, so every response — including the cold searches, which warm-start
// from that record — is a deterministic function of the request and is held
// to the golden snapshot.  Cold TUNEs block the serial accept loop, so the
// QUERY tail shows head-of-line blocking.
#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>

#include "arch/machine.h"
#include "bench.h"
#include "kernels/registry.h"
#include "openloop.h"
#include "replay.h"
#include "serve/client.h"
#include "serve/daemon.h"
#include "serve/protocol.h"
#include "stats.h"
#include "support/hash.h"
#include "support/json.h"
#include "support/str.h"
#include "wisdom/wisdom.h"

namespace perfbench {

using namespace ifko;

namespace {

constexpr int64_t kSeedN = 1024;     // class 2^10
constexpr int64_t kNearN = 4096;     // class 2^12
constexpr int64_t kColdBaseN = 65;   // class 2^7: pair i cold-tunes at 65+i
constexpr size_t kRequests = 3200;     // per phase: 320 requests/s
constexpr double kPhaseSeconds = 10.0;
constexpr size_t kRepeatsPerKey = 5;
constexpr double kNearShare = 0.25;  // of the QUERYs
constexpr size_t kMinSetups = 5;     // set-up samples per untraced run
/// Request ids of the set-up TUNEs (schedule requests are 0..kRequests-1).
constexpr int64_t kSetupIdBase = 1000000;

struct Pair {
  std::string kernel;
  std::string arch;  ///< protocol arch flag
  const kernels::KernelSpec* spec = nullptr;
};

std::vector<Pair> allPairs() {
  std::vector<Pair> pairs;
  for (const char* arch : {"p4e", "opteron"})
    for (const kernels::KernelSpec& s : kernels::extendedKernels())
      pairs.push_back({s.name(), arch, &s});
  return pairs;
}

std::string tuneLine(const Pair& p, int64_t n) {
  return "TUNE " + p.kernel + " arch=" + p.arch +
         " context=inl2 n=" + std::to_string(n);
}

enum class Kind { Query, Repeat, Cold };

struct Req {
  Kind kind = Kind::Query;
  size_t pair = 0;
  int64_t n = kSeedN;
  std::string line;
};

/// The TUNEs sit in fixed slots — cold ones every kRequests/pairs requests,
/// repeats halfway between every kRequests/(kRepeatsPerKey*pairs) — and the
/// seed decides which pair each slot serves and what every QUERY asks.  So
/// every seed queues the same amount of work behind the same slots, and the
/// QUERY tail measures head-of-line blocking rather than the luck of the
/// draw.
std::vector<Req> makeSchedule(const std::vector<Pair>& pairs, uint64_t seed) {
  SplitMix64 rng(seed);
  std::vector<size_t> cold(pairs.size());
  for (size_t i = 0; i < cold.size(); ++i) cold[i] = i;
  std::vector<size_t> repeat;
  for (size_t r = 0; r < kRepeatsPerKey; ++r)
    repeat.insert(repeat.end(), cold.begin(), cold.end());
  seededShuffle(cold, rng);
  seededShuffle(repeat, rng);
  const size_t coldEvery = kRequests / cold.size();
  const size_t repeatEvery = kRequests / repeat.size();

  std::vector<Req> reqs;
  for (size_t i = 0; i < kRequests; ++i) {
    if (i % coldEvery == 0) {
      const size_t p = cold[i / coldEvery];
      const auto n = kColdBaseN + static_cast<int64_t>(p);
      reqs.push_back({Kind::Cold, p, n, tuneLine(pairs[p], n)});
    } else if (i % repeatEvery == repeatEvery / 2) {
      const size_t p = repeat[i / repeatEvery];
      reqs.push_back({Kind::Repeat, p, kSeedN, tuneLine(pairs[p], kSeedN)});
    } else {
      const size_t p = rng.below(pairs.size());
      const int64_t n = rng.nextDouble() < kNearShare ? kNearN : kSeedN;
      reqs.push_back({Kind::Query, p, n,
                      "QUERY " + pairs[p].kernel + " arch=" + pairs[p].arch +
                          " context=inl2 n=" + std::to_string(n)});
    }
  }
  return reqs;
}

/// The daemon configuration, on fresh cache and wisdom files in `dir`.
serve::ServeConfig freshServeConfig(const std::string& dir,
                                    const std::string& tracePath) {
  serve::ServeConfig cfg;
  cfg.orchestrator.search = search::SearchConfig::smoke();
  cfg.orchestrator.search.context = sim::TimeContext::InL2;
  cfg.orchestrator.search.n = kSeedN;
  cfg.orchestrator.cachePath = dir + "/serve.cache.jsonl";
  cfg.orchestrator.tracePath = tracePath;
  cfg.wisdomPath = dir + "/serve.wisdom.jsonl";
  std::filesystem::create_directories(dir);
  std::filesystem::remove(cfg.orchestrator.cachePath);
  std::filesystem::remove(cfg.wisdomPath);
  if (!tracePath.empty()) std::filesystem::remove(tracePath);
  return cfg;
}

/// Response fields a request must reproduce exactly.
Golden::Fields responseFields(const std::map<std::string, JsonValue>& r) {
  auto get = [&](const char* k) {
    const auto it = r.find(k);
    if (it == r.end()) return std::string("<absent>");
    return it->second.kind == JsonValue::Kind::String
               ? it->second.string
               : std::to_string(it->second.asInt());
  };
  return {{"params", get("params")},
          {"best_cycles", get("best_cycles")},
          {"default_cycles", get("default_cycles")},
          {"evaluations", get("evaluations")}};
}

/// Checks one response line.  Seed and cold TUNEs are golden records of
/// their own; QUERYs and repeat TUNEs must answer the pair's seed record
/// with zero evaluations.  Returns the parsed response (empty on failure).
std::map<std::string, JsonValue> checkResponse(
    const std::optional<std::string>& line, const std::string& request,
    const std::string& goldenKey, const std::string& wantMatch, bool reuse,
    Golden& golden, bool write, Outcome& out) {
  std::map<std::string, JsonValue> r;
  if (!line.has_value() || !parseJsonObject(*line, &r) || r.count("ok") == 0 ||
      !r["ok"].boolean) {
    out.fail(request + ": bad response " + line.value_or("<none>"));
    return {};
  }
  if (r["match"].string != wantMatch)
    out.fail(request + ": match '" + r["match"].string + "', expected '" +
             wantMatch + "'");
  Golden::Fields f = responseFields(r);
  if (reuse) {
    if (f["evaluations"] != "0")
      out.fail(request + ": ran " + f["evaluations"] + " evaluations");
    f.erase("evaluations");
    golden.check(goldenKey, f, /*write=*/false, out);
  } else {
    golden.check(goldenKey, f, write, out);
  }
  return r;
}

/// A daemon serving on a Unix socket from its own thread, plus the one
/// client connection.  Destruction sends SHUTDOWN and joins the thread.
class Server {
 public:
  Server(const std::string& dir, const std::string& tracePath, Outcome& out)
      : daemon_(freshServeConfig(dir, tracePath)) {
    std::string err;
    const std::string sock = dir + "/s.sock";
    if (!daemon_.listenUnix(sock, &err)) {
      out.fail("listen: " + err);
      return;
    }
    thread_ = std::thread([this] {
      std::string runErr;
      if (daemon_.run(&runErr) != 0)
        std::fprintf(stderr, "perfbench: daemon: %s\n", runErr.c_str());
    });
    if (!conn_.connect({sock, 0}, &err)) {
      // The accept loop can only be stopped through a connection; without
      // one it cannot be joined.
      std::fprintf(stderr, "perfbench: connect: %s\n", err.c_str());
      std::_Exit(2);
    }
  }
  ~Server() {
    if (conn_.connected()) (void)conn_.roundTrip("SHUTDOWN");
    conn_.close();
    if (thread_.joinable()) thread_.join();
  }
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  serve::Connection& conn() { return conn_; }

 private:
  serve::Daemon daemon_;
  serve::Connection conn_;
  std::thread thread_;
};

/// Starts a daemon and issues the seeding TUNEs (checked against golden).
struct SetUp {
  std::unique_ptr<Server> server;
  double seconds = 0.0;
  std::vector<double> seedSpeedups;
};

SetUp setUp(const std::vector<Pair>& pairs, const std::string& dir,
            const std::string& tracePath, Golden& golden, bool write,
            Outcome& out) {
  SetUp s;
  const auto t0 = std::chrono::steady_clock::now();
  s.server = std::make_unique<Server>(dir, tracePath, out);
  for (const Pair& p : pairs) {
    const std::string line = tuneLine(p, kSeedN);
    const auto r = checkResponse(s.server->conn().roundTrip(line), line,
                                 "seed|" + p.kernel + "|" + p.arch, "tuned",
                                 false, golden, write, out);
    if (!r.empty())
      s.seedSpeedups.push_back(r.at("speedup").number);
  }
  s.seconds = since(t0);
  return s;
}

struct Phase {
  std::vector<RequestTiming> timing;
  std::vector<std::optional<std::string>> responses;
};

/// The open loop: a sender thread issues request i at its due time (sleep,
/// then spin the last stretch), while this thread reads the in-order
/// responses.  Times are seconds from the phase start.
Phase runPhase(serve::Connection& conn, const std::vector<Req>& reqs,
               double seconds) {
  Phase ph;
  const std::vector<double> due = fixedRateSchedule(reqs.size(), seconds);
  ph.timing.resize(reqs.size());
  ph.responses.resize(reqs.size());
  using clock = std::chrono::steady_clock;
  const auto t0 = clock::now() + std::chrono::milliseconds(5);
  auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<clock::duration>(
                    std::chrono::duration<double>(s));
  };
  auto rel = [&](clock::time_point t) {
    return std::chrono::duration<double>(t - t0).count();
  };
  std::thread sender([&] {
    for (size_t i = 0; i < reqs.size(); ++i) {
      const auto when = at(due[i]);
      std::this_thread::sleep_until(when - std::chrono::microseconds(300));
      while (clock::now() < when) {
      }
      ph.timing[i].due = due[i];
      ph.timing[i].sent = rel(clock::now());
      if (!conn.sendLine(reqs[i].line)) break;
    }
  });
  for (size_t i = 0; i < reqs.size(); ++i) {
    ph.responses[i] = conn.recvLine();
    ph.timing[i].done = rel(clock::now());
    if (!ph.responses[i].has_value()) break;
  }
  sender.join();
  return ph;
}

std::string matchFor(const Req& r) {
  if (r.kind != Kind::Query) return "tuned";
  return r.n == kSeedN ? "exact" : "near-n";
}

std::string goldenKeyFor(const Req& r, const std::vector<Pair>& pairs) {
  const Pair& p = pairs[r.pair];
  if (r.kind == Kind::Cold)
    return "cold|" + p.kernel + "|" + p.arch + "|" + std::to_string(r.n);
  return "seed|" + p.kernel + "|" + p.arch;
}

/// Checks every response of a phase against the golden snapshot.
void checkPhase(const Phase& ph, const std::vector<Req>& reqs,
                const std::vector<Pair>& pairs, Golden& golden, bool write,
                Outcome& out) {
  for (size_t i = 0; i < reqs.size(); ++i) {
    out.attempt();
    (void)checkResponse(ph.responses[i], reqs[i].line,
                        goldenKeyFor(reqs[i], pairs), matchFor(reqs[i]),
                        reqs[i].kind != Kind::Cold, golden, write, out);
  }
}

std::vector<double> latenciesOf(const OpenLoopSummary& s,
                                const std::vector<Req>& reqs, bool query) {
  std::vector<double> v;
  for (size_t i = 0; i < reqs.size(); ++i)
    if ((reqs[i].kind == Kind::Query) == query) v.push_back(s.latencyMs[i]);
  return v;
}

void notePhase(const char* what, const OpenLoopSummary& s,
               const std::vector<Req>& reqs, int64_t faults) {
  Outcome::noteTiming(std::string(what) + " QUERY latency", "ms",
                      latenciesOf(s, reqs, true));
  Outcome::noteTiming(std::string(what) + " TUNE latency", "ms",
                      latenciesOf(s, reqs, false));
  Outcome::note(std::string(what) + ": makespan " + fmtFixed(s.makespan, 3) +
                " s, daemon busy " + fmtFixed(s.busySeconds, 3) +
                " s, generator lateness p50 " +
                fmtFixed(s.latenessP50Ms, 4) + " ms max " +
                fmtFixed(s.latenessMaxMs, 3) + " ms, max backlog " +
                std::to_string(s.maxBacklog) + ", " + std::to_string(faults) +
                " minor page faults");
}

/// The daemon's own evaluation counter must equal the golden evaluations of
/// every search it ran (seed + cold TUNEs; everything else reuses).
void checkEvaluations(Server& server, Golden& golden, bool write,
                      Outcome& out) {
  std::map<std::string, JsonValue> stats;
  const auto line = server.conn().roundTrip("STATS");
  if (!line.has_value() || !parseJsonObject(*line, &stats)) {
    out.fail("STATS: bad response");
    return;
  }
  golden.check("totals",
               {{"evaluations", std::to_string(stats["evaluations"].asInt())},
                {"wisdom_records",
                 std::to_string(stats["wisdom_records"].asInt())}},
               write, out);
}

std::map<std::string, KernelSource> registrySources() {
  std::map<std::string, KernelSource> m;
  for (const kernels::KernelSpec& s : kernels::extendedKernels())
    m[s.name()] = {s.hilSource(), &s};
  return m;
}

/// The request-level replay: a socket-less daemon handles the same lines
/// (set-up TUNEs, then the schedule) under spans around parseRequest,
/// WisdomStore::find, handleLine and, after each cold TUNE, WisdomStore::save.
/// Returns each schedule request's service time in ms.
std::vector<double> replayRequests(const std::vector<Pair>& pairs,
                                   const std::vector<Req>& reqs,
                                   const std::string& dir, SpanRecorder& rec,
                                   size_t* wisdomRecords, Outcome& out) {
  serve::Daemon daemon(freshServeConfig(dir, ""));
  std::vector<double> serviceMs(reqs.size());
  auto handle = [&](const std::string& line, int64_t id, int64_t n,
                    const Pair& p) {
    std::string err;
    {
      ScopedSpan s(rec, "serve.parseRequest", id);
      if (!serve::parseRequest(line, &err).has_value())
        out.fail(line + ": " + err);
    }
    const wisdom::WisdomKey key{
        hashHex(p.spec->hilSource()),
        p.arch == "opteron" ? arch::opteron().name : arch::p4e().name,
        std::string(sim::contextName(sim::TimeContext::InL2)),
        wisdom::nClassFor(n)};
    {
      ScopedSpan s(rec, "wisdom.find", id);
      (void)daemon.store().find(key);
    }
    const bool query = line.rfind("QUERY", 0) == 0;
    const int64_t span =
        rec.open(query ? "serve.handleLine/QUERY" : "serve.handleLine/TUNE",
                 id);
    std::map<std::string, JsonValue> r;
    if (!parseJsonObject(daemon.handleLine(line), &r) || !r["ok"].boolean)
      out.fail("replayed " + line + " failed");
    rec.close(span);
    return rec.spans()[static_cast<size_t>(span)].duration();
  };
  for (size_t k = 0; k < pairs.size(); ++k)
    (void)handle(tuneLine(pairs[k], kSeedN),
                 kSetupIdBase + static_cast<int64_t>(k), kSeedN, pairs[k]);
  for (size_t i = 0; i < reqs.size(); ++i) {
    const auto id = static_cast<int64_t>(i);
    serviceMs[i] =
        1000.0 * handle(reqs[i].line, id, reqs[i].n, pairs[reqs[i].pair]);
    if (reqs[i].kind == Kind::Cold) {
      ScopedSpan s(rec, "wisdom.save", id);
      std::string err;
      if (!daemon.store().save(dir + "/replay.wisdom.jsonl", &err))
        out.fail("wisdom save: " + err);
    }
  }
  *wisdomRecords = daemon.store().size();
  return serviceMs;
}

/// The schedule of phase `k` of a run seeded with `seed`.
std::vector<Req> phaseSchedule(const std::vector<Pair>& pairs, uint64_t seed,
                               int k) {
  return makeSchedule(pairs, seed + 0x9E3779B97F4A7C15ull *
                                        static_cast<uint64_t>(k));
}

/// One fresh daemon (set-up) and one open-loop phase per kPhaseSeconds of
/// --seconds.  The QUERY latencies of all phases are pooled before their
/// median and p99 are taken; the busy time is the median over the phases.
void runUntraced(const Options& o, const std::vector<Pair>& pairs,
                 Golden& golden, Outcome& out) {
  const int phases =
      std::max(1, static_cast<int>(o.seconds / kPhaseSeconds + 1e-9));
  std::vector<double> setupS, busy, queryMs, geo;
  for (int k = 0; k < phases; ++k) {
    const std::vector<Req> reqs = phaseSchedule(pairs, o.seed, k);
    SetUp s = setUp(pairs, o.workDir + "/daemon", "", golden, o.writeGolden,
                    out);
    setupS.push_back(s.seconds);
    const int64_t faults0 = minorFaults();
    const Phase ph = runPhase(s.server->conn(), reqs, kPhaseSeconds);
    const int64_t faults = minorFaults() - faults0;
    checkPhase(ph, reqs, pairs, golden, o.writeGolden, out);
    checkEvaluations(*s.server, golden, o.writeGolden, out);
    golden.requireVisited({"replay_totals"}, o.writeGolden, out);
    const OpenLoopSummary sum = account(ph.timing);
    notePhase("phase", sum, reqs, faults);
    const std::vector<double> ms = latenciesOf(sum, reqs, true);
    queryMs.insert(queryMs.end(), ms.begin(), ms.end());
    busy.push_back(sum.busySeconds);
    geo.push_back(geomean(s.seedSpeedups));
  }
  while (setupS.size() < kMinSetups)
    setupS.push_back(
        setUp(pairs, o.workDir + "/daemon", "", golden, false, out).seconds);
  if (!tailSupported(99.0, queryMs.size())) out.fail("too few QUERYs for p99");
  Outcome::noteTiming("set-up", "s", setupS);
  Outcome::noteTiming("QUERY latency, all phases", "ms", queryMs);

  out.set("setup_s", median(setupS), "s");
  out.set("peak_rss_mb", peakRssMb(), "MB");
  const double busyS = median(busy);
  out.set("wall_s", busyS, "s");
  out.set("speedup_geo", median(geo), "x");
  out.set("latency_p50_ms", median(queryMs), "ms");
  out.set("latency_tail_ms", percentile(queryMs, 99.0), "ms");
  out.set("throughput_per_s", static_cast<double>(kRequests) / busyS, "1/s");
}

/// One untraced and one traced phase of the same schedule, then the replay
/// of the traced phase.
void runTraced(const Options& o, const std::vector<Pair>& pairs,
               Golden& golden, Outcome& out) {
  const std::vector<Req> reqs = phaseSchedule(pairs, o.seed, 0);
  double untracedWall = 0.0;
  {
    SetUp s = setUp(pairs, o.workDir + "/daemon", "", golden, false, out);
    const int64_t faults0 = minorFaults();
    const Phase ph = runPhase(s.server->conn(), reqs, kPhaseSeconds);
    const int64_t faults = minorFaults() - faults0;
    checkPhase(ph, reqs, pairs, golden, false, out);
    checkEvaluations(*s.server, golden, false, out);
    golden.requireVisited({"replay_totals"}, o.writeGolden, out);
    const OpenLoopSummary sum = account(ph.timing);
    notePhase("untraced", sum, reqs, faults);
    untracedWall = s.seconds + sum.busySeconds;
  }
  const std::string tracePath = o.workDir + "/orchestrator.trace.jsonl";
  SetUp s = setUp(pairs, o.workDir + "/daemon", tracePath, golden, false, out);
  const int64_t faults0 = minorFaults();
  const Phase ph = runPhase(s.server->conn(), reqs, kPhaseSeconds);
  const int64_t faults = minorFaults() - faults0;
  checkPhase(ph, reqs, pairs, golden, false, out);
  checkEvaluations(*s.server, golden, false, out);
  golden.requireVisited({"replay_totals"}, o.writeGolden, out);
  const OpenLoopSummary sum = account(ph.timing);
  notePhase("traced", sum, reqs, faults);
  const double tracedSetup = s.seconds;
  s = {};  // stop the daemon: its trace is complete

  // Every search in the trace belongs to one TUNE: the set-up TUNEs, then
  // the schedule's TUNEs in order (QUERYs all hit wisdom).
  ReplayInput in;
  in.tracePath = tracePath;
  in.kernels = registrySources();
  in.config = search::SearchConfig::smoke();
  in.workDir = o.workDir;
  for (size_t k = 0; k < pairs.size(); ++k)
    in.kernelRequests.push_back(kSetupIdBase + static_cast<int64_t>(k));
  for (size_t i = 0; i < reqs.size(); ++i)
    if (reqs[i].kind != Kind::Query)
      in.kernelRequests.push_back(static_cast<int64_t>(i));

  SpanRecorder rec;
  const double r0 = rec.now();
  LayerContext ctx;
  ctx.replay = replayTrace(in, rec, out);
  size_t records = 0;
  const std::vector<double> serviceMs =
      replayRequests(pairs, reqs, o.workDir + "/replay-daemon", rec, &records,
                     out);
  ctx.replayWall = rec.now() - r0;
  ctx.wisdomRecords = records;
  ctx.untracedWall = untracedWall;
  ctx.tracedWall = tracedSetup + sum.busySeconds;
  ctx.tuneLatencyMs = latenciesOf(sum, reqs, false);
  for (size_t i = 0; i < reqs.size(); ++i)
    if (reqs[i].kind == Kind::Query)
      ctx.holWaitMs.push_back(sum.latencyMs[i] - serviceMs[i]);

  golden.check("replay_totals", countFields(ctx.replay.counts),
               o.writeGolden, out);
  setLayerMetrics(rec.spans(), ctx, out);
  if (!o.spansPath.empty() && !rec.writeJsonl(o.spansPath))
    out.fail("cannot write spans to " + o.spansPath);
}

}  // namespace

Outcome runServeWorkload(const Options& o) {
  Outcome out;
  Golden golden;
  std::string err;
  // --write-golden updates the snapshot in place (a missing one is fine).
  if (!golden.load(o.goldenPath, &err) && !o.writeGolden) out.fail(err);
  const std::vector<Pair> pairs = allPairs();
  if (o.trace)
    runTraced(o, pairs, golden, out);
  else
    runUntraced(o, pairs, golden, out);
  if (o.writeGolden && !golden.save(o.goldenPath))
    out.fail("cannot write " + o.goldenPath);
  return out;
}

}  // namespace perfbench
