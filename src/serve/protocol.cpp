#include "serve/protocol.h"

#include <sstream>
#include <vector>

#include "arch/machine.h"
#include "sim/timer.h"
#include "support/str.h"

namespace ifko::serve {

namespace {

struct VerbEntry {
  Request::Verb verb;
  const char* name;
  bool takesTarget;      ///< QUERY/TUNE/EXPLAIN require one, EXPORT allows one
  bool requiresTarget;
};

constexpr VerbEntry kVerbs[] = {
    {Request::Verb::Query, "QUERY", true, true},
    {Request::Verb::Tune, "TUNE", true, true},
    {Request::Verb::Explain, "EXPLAIN", true, true},
    {Request::Verb::Export, "EXPORT", true, false},
    {Request::Verb::Import, "IMPORT", true, true},
    {Request::Verb::Stats, "STATS", false, false},
    {Request::Verb::Shutdown, "SHUTDOWN", false, false},
};

}  // namespace

std::string_view verbName(Request::Verb verb) {
  for (const VerbEntry& e : kVerbs)
    if (e.verb == verb) return e.name;
  return "?";
}

std::optional<Request> parseRequest(const std::string& line,
                                    std::string* error) {
  auto fail = [&](const std::string& msg) {
    if (error != nullptr) *error = msg;
    return std::nullopt;
  };

  std::istringstream in(line);
  std::vector<std::string> tokens;
  std::string tok;
  while (in >> tok) tokens.push_back(tok);
  if (tokens.empty()) return fail("empty request");

  const VerbEntry* entry = nullptr;
  for (const VerbEntry& e : kVerbs)
    if (tokens[0] == e.name) entry = &e;
  if (entry == nullptr)
    return fail("unknown verb '" + tokens[0] +
                "' (want QUERY|TUNE|EXPLAIN|EXPORT|IMPORT|STATS|SHUTDOWN)");

  Request req;
  req.verb = entry->verb;
  size_t i = 1;
  // The target is the first token without '=' after the verb (kernel names
  // and export paths never contain '=').
  if (entry->takesTarget && i < tokens.size() &&
      tokens[i].find('=') == std::string::npos)
    req.target = tokens[i++];
  if (entry->requiresTarget && req.target.empty())
    return fail(std::string(entry->name) + " needs a kernel name");

  for (; i < tokens.size(); ++i) {
    const size_t eq = tokens[i].find('=');
    if (eq == std::string::npos || eq == 0)
      return fail("malformed option '" + tokens[i] + "' (want key=value)");
    const std::string key = tokens[i].substr(0, eq);
    const std::string value = tokens[i].substr(eq + 1);
    if (key == "arch") {
      if (!arch::parseArchFlag(value).has_value())
        return fail("unknown arch '" + value + "' (want p4e|opteron)");
      req.arch = value;
    } else if (key == "context") {
      if (!sim::parseContextFlag(value).has_value())
        return fail("unknown context '" + value + "' (want ooc|inl2)");
      req.context = value;
    } else if (key == "n") {
      int64_t n = 0;
      if (!parseInt64(value, &n) || n < 1)
        return fail("bad n '" + value + "' (want integer >= 1)");
      req.n = n;
    } else {
      return fail("unknown option '" + key + "' (want arch|context|n)");
    }
  }
  return req;
}

std::string formatRequest(const Request& req) {
  std::string out{verbName(req.verb)};
  if (!req.target.empty()) out += " " + req.target;
  if (!req.arch.empty()) out += " arch=" + req.arch;
  if (!req.context.empty()) out += " context=" + req.context;
  if (req.n > 0) out += " n=" + std::to_string(req.n);
  return out;
}

}  // namespace ifko::serve
