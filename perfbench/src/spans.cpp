#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "support/json.h"

namespace perfbench {

double SpanRecorder::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

int64_t SpanRecorder::open(std::string name, int64_t request) {
  Span s;
  s.name = std::move(name);
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  s.start = now();
  spans_.push_back(std::move(s));
  const auto index = static_cast<int64_t>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void SpanRecorder::close(int64_t index) {
  spans_[static_cast<size_t>(index)].end = now();
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

void SpanRecorder::rename(int64_t index, std::string name) {
  spans_[static_cast<size_t>(index)].name = std::move(name);
}

bool SpanRecorder::writeJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start\":%.9f,\"end\":%.9f,"
                 "\"parent\":%lld,\"request\":%lld}\n",
                 ifko::jsonEscape(s.name).c_str(), s.start, s.end,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  return std::fclose(f) == 0;
}

std::vector<double> selfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size())
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);

  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double runStart = 0.0;
    double runEnd = -1.0;  // empty run
    for (auto [start, end] : kids) {
      start = std::max(start, p.start);
      end = std::min(end, p.end);
      if (end <= start) continue;
      if (runEnd < runStart || start > runEnd) {
        if (runEnd > runStart) covered += runEnd - runStart;
        runStart = start;
        runEnd = end;
      } else {
        runEnd = std::max(runEnd, end);
      }
    }
    if (runEnd > runStart) covered += runEnd - runStart;
    self[i] = p.duration() - covered;
  }
  return self;
}

}  // namespace perfbench
