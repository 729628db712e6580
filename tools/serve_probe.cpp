// Load generator for the `ifko serve` daemon: measures the warm-query fast
// path against the cold tune-through path, and asserts the fast path never
// touches the evaluator.
//
//   serve_probe --socket=PATH | --port=N [--kernel=NAME] [--warm=N]
//               [--assert-speedup=X]
//
// Phases, over one connection:
//   1. STATS         baseline evaluation counter
//   2. TUNE <kernel> the cold path: a full search through the orchestrator
//                    (this also writes the wisdom record the warm phase hits)
//   3. QUERY x N     the warm path: every response must be a wisdom hit
//                    ("evaluations":0) — a map lookup, no evaluator
//   4. STATS         the evaluation counter must not have moved during 3
//
// Prints per-phase wall time and the cold/warm per-request ratio;
// --assert-speedup=X exits nonzero unless ratio >= X (the serve CI smoke
// uses 100).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <optional>
#include <string>

#include "serve/client.h"
#include "support/json.h"
#include "support/str.h"

using namespace ifko;

namespace {

double seconds(std::chrono::steady_clock::time_point from,
               std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Parses one response line; returns nullopt (with a message) unless it is
/// a well-formed `{"ok":true,...}` object.
std::optional<std::map<std::string, JsonValue>> parseOk(
    const std::optional<std::string>& resp, const char* what) {
  if (!resp.has_value()) {
    std::fprintf(stderr, "serve_probe: %s: no response\n", what);
    return std::nullopt;
  }
  std::map<std::string, JsonValue> obj;
  if (!parseJsonObject(*resp, &obj)) {
    std::fprintf(stderr, "serve_probe: %s: malformed response: %s\n", what,
                 resp->c_str());
    return std::nullopt;
  }
  const auto it = obj.find("ok");
  if (it == obj.end() || it->second.kind != JsonValue::Kind::Bool ||
      !it->second.boolean) {
    std::fprintf(stderr, "serve_probe: %s: daemon said no: %s\n", what,
                 resp->c_str());
    return std::nullopt;
  }
  return obj;
}

int64_t numField(const std::map<std::string, JsonValue>& obj,
                 const char* key) {
  const auto it = obj.find(key);
  return it != obj.end() && it->second.kind == JsonValue::Kind::Number
             ? it->second.asInt()
             : 0;
}

}  // namespace

int main(int argc, char** argv) {
  serve::Endpoint ep;
  std::string kernel = "ddot";
  int64_t warm = 200;
  double assertSpeedup = 0.0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (startsWith(a, "--socket=")) {
      ep.unixPath = a.substr(std::strlen("--socket="));
    } else if (startsWith(a, "--port=")) {
      int64_t port = 0;
      // Bounded before the narrowing: 70000 must not connect to 4464.
      if (!parseInt64(a.substr(std::strlen("--port=")), &port) || port < 1 ||
          port > 65535) {
        std::fprintf(stderr,
                     "serve_probe: bad --port (want integer in 1..65535)\n");
        return 2;
      }
      ep.tcpPort = static_cast<int>(port);
    } else if (startsWith(a, "--kernel=")) {
      kernel = a.substr(std::strlen("--kernel="));
    } else if (startsWith(a, "--warm=")) {
      if (!parseInt64(a.substr(std::strlen("--warm=")), &warm) || warm < 1) {
        std::fprintf(stderr, "serve_probe: bad --warm\n");
        return 2;
      }
    } else if (startsWith(a, "--assert-speedup=")) {
      assertSpeedup = std::atof(a.c_str() + std::strlen("--assert-speedup="));
    } else {
      std::fprintf(stderr,
                   "usage: serve_probe --socket=PATH | --port=N "
                   "[--kernel=NAME] [--warm=N] [--assert-speedup=X]\n");
      return 2;
    }
  }
  if (ep.unixPath.empty() && ep.tcpPort == 0) {
    std::fprintf(stderr, "serve_probe: need --socket=PATH or --port=N\n");
    return 2;
  }

  serve::Connection conn;
  std::string err;
  if (!conn.connect(ep, &err)) {
    std::fprintf(stderr, "serve_probe: %s\n", err.c_str());
    return 1;
  }

  auto stats = parseOk(conn.roundTrip("STATS", &err), "STATS");
  if (!stats.has_value()) return 1;
  const int64_t evalsBefore = numField(*stats, "evaluations");

  // Cold path: a forced search.  Also seeds the wisdom record.
  const auto coldStart = std::chrono::steady_clock::now();
  auto tuned = parseOk(conn.roundTrip("TUNE " + kernel, &err), "TUNE");
  const auto coldEnd = std::chrono::steady_clock::now();
  if (!tuned.has_value()) return 1;
  const double coldSec = seconds(coldStart, coldEnd);
  std::printf("cold TUNE %s: %.4f s (%lld evaluations)\n", kernel.c_str(),
              coldSec,
              static_cast<long long>(numField(*tuned, "evaluations")));

  auto statsAfterTune = parseOk(conn.roundTrip("STATS", &err), "STATS");
  if (!statsAfterTune.has_value()) return 1;
  const int64_t evalsAfterTune = numField(*statsAfterTune, "evaluations");

  // Warm path: every QUERY must be answered from wisdom, evaluator untouched.
  const auto warmStart = std::chrono::steady_clock::now();
  for (int64_t i = 0; i < warm; ++i) {
    auto q = parseOk(conn.roundTrip("QUERY " + kernel, &err), "QUERY");
    if (!q.has_value()) return 1;
    if (numField(*q, "evaluations") != 0) {
      std::fprintf(stderr,
                   "serve_probe: warm QUERY #%lld ran %lld evaluations — "
                   "not served from wisdom\n",
                   static_cast<long long>(i + 1),
                   static_cast<long long>(numField(*q, "evaluations")));
      return 1;
    }
  }
  const auto warmEnd = std::chrono::steady_clock::now();
  const double warmSec = seconds(warmStart, warmEnd);

  auto statsAfter = parseOk(conn.roundTrip("STATS", &err), "STATS");
  if (!statsAfter.has_value()) return 1;
  const int64_t evalsAfter = numField(*statsAfter, "evaluations");
  if (evalsAfter != evalsAfterTune) {
    std::fprintf(stderr,
                 "serve_probe: daemon evaluation counter moved during the "
                 "warm phase (%lld -> %lld)\n",
                 static_cast<long long>(evalsAfterTune),
                 static_cast<long long>(evalsAfter));
    return 1;
  }

  const double warmPer = warmSec / static_cast<double>(warm);
  std::printf("warm QUERY x%lld: %.4f s total, %.3f ms/query, 0 evaluations "
              "(daemon counter %lld -> %lld across the warm phase)\n",
              static_cast<long long>(warm), warmSec, 1000.0 * warmPer,
              static_cast<long long>(evalsAfterTune),
              static_cast<long long>(evalsAfter));
  std::printf("tune-through evaluations this probe: %lld\n",
              static_cast<long long>(evalsAfterTune - evalsBefore));

  const double ratio = warmPer > 0 ? coldSec / warmPer : 0.0;
  std::printf("cold/warm per-request ratio: %.0fx\n", ratio);
  if (assertSpeedup > 0) {
    const bool pass = ratio >= assertSpeedup;
    std::printf("assert ratio >= %.0f: %s\n", assertSpeedup,
                pass ? "PASS" : "FAIL");
    return pass ? 0 : 1;
  }
  return 0;
}
