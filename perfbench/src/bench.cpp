#include "bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#include "stats.h"
#include "support/json.h"
#include "support/str.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

void Outcome::set(const std::string& name, double value,
                  const std::string& unit) {
  if (!std::isfinite(value)) {
    fail("metric " + name + " is not finite");
    value = 0.0;
  }
  for (auto& [n, m] : metrics_)
    if (n == name) {
      m = {value, unit};
      return;
    }
  metrics_.push_back({name, {value, unit}});
}

void Outcome::fail(const std::string& why) {
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
}

void Outcome::note(const std::string& line) {
  std::printf("# %s\n", line.c_str());
}

void Outcome::noteTiming(const std::string& what, const std::string& unit,
                         const std::vector<double>& samples) {
  const Summary s = summarize(samples);
  char buf[256];
  if (s.tailLevel > 0)
    std::snprintf(buf, sizeof buf, "%s: p50 %.4g %s, p%g %.4g %s, n=%zu",
                  what.c_str(), s.p50, unit.c_str(), s.tailLevel, s.tail,
                  unit.c_str(), s.count);
  else
    std::snprintf(buf, sizeof buf, "%s: p50 %.4g %s, n=%zu (no tail: n<20)",
                  what.c_str(), s.p50, unit.c_str(), s.count);
  note(buf);
}

std::string Outcome::json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(std::max<int64_t>(1, attempted_));
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    char num[64];
    std::snprintf(num, sizeof num, "%.17g", m.first);
    if (!first) out += ", ";
    first = false;
    out += '"';
    out += ifko::jsonEscape(name);
    out += "\": {\"value\": ";
    out += num;
    out += ", \"unit\": \"";
    out += ifko::jsonEscape(m.second);
    out += "\"}";
  }
  out += "}}";
  return out;
}

bool Golden::load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot read golden snapshot " + path;
    return false;
  }
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::map<std::string, ifko::JsonValue> obj;
    if (!ifko::parseJsonObject(line, &obj) || obj.count("key") == 0) {
      *error = "damaged golden line in " + path + ": " + line;
      return false;
    }
    Fields fields;
    for (const auto& [k, v] : obj)
      if (k != "key") fields[k] = v.string;
    records_[obj["key"].string] = std::move(fields);
  }
  return true;
}

bool Golden::save(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  for (const auto& [key, fields] : records_) {
    ifko::JsonWriter w;
    w.field("key", key);
    for (const auto& [k, v] : fields) w.field(k, v);
    out << w.str() << "\n";
  }
  return static_cast<bool>(out);
}

void Golden::check(const std::string& key, const Fields& fields, bool write,
                   Outcome& out) {
  visited_.insert(key);
  if (write) {
    records_[key] = fields;
    return;
  }
  const auto it = records_.find(key);
  if (it == records_.end()) {
    out.fail("golden snapshot has no record for " + key);
    return;
  }
  for (const auto& [k, v] : fields) {
    const auto want = it->second.find(k);
    if (want == it->second.end() || want->second != v)
      out.fail(key + ": " + k + " is '" + v + "', golden snapshot says '" +
               (want == it->second.end() ? "<absent>" : want->second) + "'");
  }
}

void Golden::requireVisited(const std::set<std::string>& except, bool write,
                            Outcome& out) {
  if (!write)
    for (const auto& [key, fields] : records_)
      if (except.count(key) == 0 && visited_.count(key) == 0)
        out.fail("golden record " + key + " was not produced");
  visited_.clear();
}

int64_t Golden::sum(const std::string& field,
                    const std::set<std::string>& except) const {
  int64_t total = 0;
  for (const auto& [key, fields] : records_) {
    const auto it = fields.find(field);
    int64_t v = 0;
    if (except.count(key) == 0 && it != fields.end() &&
        ifko::parseInt64(it->second, &v))
      total += v;
  }
  return total;
}

double peakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double cpuSeconds() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

int64_t minorFaults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<int64_t>(ru.ru_minflt);
}

int hostThreads() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string cpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    return std::string(ifko::trim(brand));
  }
#endif
  return "unknown";
}

}  // namespace perfbench
