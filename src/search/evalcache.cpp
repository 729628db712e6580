#include "search/evalcache.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>

#include "support/json.h"

namespace ifko::search {

std::string EvalKey::str() const {
  // '|' never occurs in a hash, machine/context name, or TuningSpec string.
  return sourceHash + "|" + machine + "|" + context + "|" + std::to_string(n) +
         "|" + std::to_string(seed) + "|" + std::to_string(testerN) + "|" +
         params;
}

EvalCache::~EvalCache() {
  if (outFd_ >= 0) ::close(outFd_);
}

std::string EvalCache::formatLine(const EvalKey& key, const EvalRecord& rec) {
  JsonWriter w;
  w.field("source", key.sourceHash)
      .field("machine", key.machine)
      .field("context", key.context)
      .field("n", key.n)
      .field("seed", key.seed)
      .field("tester_n", key.testerN)
      .field("params", key.params)
      .field("cycles", rec.cycles)
      .field("status", std::string(evalStatusName(rec.status)));
  if (rec.counters.has_value()) w.field("counters", countersJson(*rec.counters));
  return w.str();
}

bool EvalCache::parseLine(const std::string& line, EvalKey* key,
                          EvalRecord* rec) {
  std::map<std::string, JsonValue> obj;
  if (!parseJsonObject(line, &obj)) return false;
  auto str = [&](const char* k) -> const std::string* {
    auto it = obj.find(k);
    if (it == obj.end() || it->second.kind != JsonValue::Kind::String)
      return nullptr;
    return &it->second.string;
  };
  auto num = [&](const char* k, double* out) {
    auto it = obj.find(k);
    if (it == obj.end() || it->second.kind != JsonValue::Kind::Number)
      return false;
    *out = it->second.number;
    return true;
  };
  const std::string* source = str("source");
  const std::string* machine = str("machine");
  const std::string* context = str("context");
  const std::string* params = str("params");
  double n = 0, seed = 0, testerN = 0, cycles = 0;
  if (source == nullptr || machine == nullptr || context == nullptr ||
      params == nullptr || !num("n", &n) || !num("seed", &seed) ||
      !num("tester_n", &testerN) || !num("cycles", &cycles))
    return false;
  // Both fields are required: a line without `status` (schema v1), or a
  // timed line without `counters` (v2), would replay differently from a
  // fresh evaluation, so it is damage and the candidate is evaluated again.
  const std::string* status = str("status");
  if (status == nullptr) return false;
  auto parsed = parseEvalStatus(*status);
  if (!parsed.has_value()) return false;
  *rec = EvalRecord{static_cast<uint64_t>(cycles), *parsed};
  if (auto it = obj.find("counters");
      it != obj.end() && it->second.kind == JsonValue::Kind::Object &&
      it->second.object != nullptr)
    rec->counters = parseCounters(*it->second.object);
  if (rec->status == EvalOutcome::Status::Timed && !rec->counters.has_value())
    return false;
  *key = EvalKey{*source,
                 *machine,
                 *context,
                 static_cast<int64_t>(n),
                 static_cast<uint64_t>(seed),
                 static_cast<int64_t>(testerN),
                 *params};
  return true;
}

bool EvalCache::loadFileLocked(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) return true;  // a cache that does not exist yet is just empty
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EvalKey key;
    EvalRecord rec;
    if (!parseLine(line, &key, &rec)) {  // skip damaged lines, counted
      ++damagedLines_;
      continue;
    }
    map_[key.str()] = rec;
  }
  if (in.bad()) {
    if (error != nullptr) *error = "error reading cache file '" + path + "'";
    return false;
  }
  return true;
}

namespace {

/// O_APPEND so every write lands at the current end of file no matter how
/// many processes share it — the atomicity the single-write(2) append in
/// insert() relies on.
int openAppendFd(const std::string& path) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  } while (fd < 0 && errno == EINTR);
  return fd;
}

}  // namespace

bool EvalCache::open(const std::string& path, std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    damagedLines_ = 0;
    std::string loadError;
    if (!loadFileLocked(path, &loadError)) return fail(loadError);
  }
  const int fd = openAppendFd(path);
  if (fd < 0)
    return fail("cannot open cache file '" + path + "' for appending");
  std::lock_guard<std::mutex> lock(mu_);
  if (outFd_ >= 0) ::close(outFd_);
  outFd_ = fd;
  return true;
}

std::string EvalCache::shardFileName(const std::string& dir,
                                     const std::string& shard) {
  return dir + "/cache." + shard + ".jsonl";
}

std::vector<std::string> EvalCache::shardFiles(const std::string& dir,
                                               std::string* error) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (name.size() > 12 && name.rfind("cache.", 0) == 0 &&
        name.compare(name.size() - 6, 6, ".jsonl") == 0)
      files.push_back(entry.path().string());
  }
  if (ec) {
    if (error != nullptr)
      *error = "cannot list shard directory '" + dir + "': " + ec.message();
    return {};
  }
  std::sort(files.begin(), files.end());
  return files;
}

bool EvalCache::openDir(const std::string& dir, const std::string& shard,
                        std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec)
    return fail("cannot create shard directory '" + dir +
                "': " + ec.message());
  std::string listError;
  std::vector<std::string> files = shardFiles(dir, &listError);
  if (!listError.empty()) return fail(listError);
  {
    std::lock_guard<std::mutex> lock(mu_);
    damagedLines_ = 0;
    for (const std::string& file : files) {
      std::string loadError;
      if (!loadFileLocked(file, &loadError)) return fail(loadError);
    }
  }
  const std::string own = shardFileName(dir, shard);
  const int fd = openAppendFd(own);
  if (fd < 0)
    return fail("cannot open shard file '" + own + "' for appending");
  std::lock_guard<std::mutex> lock(mu_);
  if (outFd_ >= 0) ::close(outFd_);
  outFd_ = fd;
  return true;
}

bool EvalCache::mergeFiles(const std::vector<std::string>& inputs,
                           const std::string& outPath, std::string* error,
                           CacheMergeStats* stats) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return false;
  };
  CacheMergeStats st;
  // Ordered by key so the merged file is deterministic: any input order
  // produces the same bytes.  First occurrence wins, which is harmless —
  // records are pure functions of their keys, so duplicates are identical.
  std::map<std::string, std::string> lines;
  for (const std::string& input : inputs) {
    std::ifstream in(input);
    if (!in) return fail("cannot read cache file '" + input + "'");
    ++st.files;
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      EvalKey key;
      EvalRecord rec;
      if (!parseLine(line, &key, &rec)) {
        ++st.damaged;
        continue;
      }
      ++st.lines;
      if (!lines.emplace(key.str(), formatLine(key, rec)).second)
        ++st.duplicates;
    }
    if (in.bad()) return fail("error reading cache file '" + input + "'");
  }
  st.unique = lines.size();

  // Atomic: a unique temp name keeps concurrent mergers from clobbering
  // each other's half-written file (same discipline as WisdomStore::save).
  const std::string tmp =
      outPath + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return fail("cannot write '" + tmp + "'");
    for (const auto& [key, line] : lines) out << line << "\n";
    out.flush();
    if (!out) return fail("error writing '" + tmp + "'");
  }
  if (std::rename(tmp.c_str(), outPath.c_str()) != 0) {
    std::remove(tmp.c_str());
    return fail("cannot rename '" + tmp + "' over '" + outPath + "'");
  }
  if (stats != nullptr) *stats = st;
  return true;
}

std::optional<EvalRecord> EvalCache::lookup(const EvalKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key.str());
  if (it == map_.end()) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  return it->second;
}

void EvalCache::insert(const EvalKey& key, uint64_t cycles,
                       EvalOutcome::Status status,
                       const std::optional<EvalCounters>& counters) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] =
      map_.emplace(key.str(), EvalRecord{cycles, status, counters});
  if (!inserted) return;
  if (outFd_ < 0) return;
  // One whole line per write(2) on an O_APPEND descriptor: the kernel
  // serializes concurrent appends, so writers in other processes can never
  // interleave mid-line.  A short write (signal/ENOSPC) is finished with
  // the remainder — same torn-tail exposure a crash always had, and load()
  // skips a torn line.
  const std::string line = formatLine(key, it->second) + "\n";
  size_t off = 0;
  while (off < line.size()) {
    const ssize_t n = ::write(outFd_, line.data() + off, line.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // disk error: the memo stays correct, persistence degrades
    }
    off += static_cast<size_t>(n);
  }
}

size_t EvalCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

uint64_t EvalCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

uint64_t EvalCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

double EvalCache::hitRate() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(hits_) / static_cast<double>(total);
}

void EvalCache::resetStats() {
  std::lock_guard<std::mutex> lock(mu_);
  hits_ = 0;
  misses_ = 0;
}

size_t EvalCache::damagedLines() const {
  std::lock_guard<std::mutex> lock(mu_);
  return damagedLines_;
}

}  // namespace ifko::search
