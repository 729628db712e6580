// The driver's command line: every verb accepts exactly the flags of its
// groups, a flag a verb would ignore is an error that names both, and the
// built binary rejects such a command with exit status 2 before it reads a
// file or starts tuning.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <cstdio>
#include <map>
#include <ostream>
#include <set>
#include <string>
#include <vector>

#include "driver/options.h"

namespace ifko::driver {
namespace {

/// A valid value for every flag in the table ("" for a switch).
const std::map<std::string, std::string> kSample = {
    {"--arch", "opteron"},     {"--sv", "0"},
    {"--ur", "4"},             {"--ae", "2"},
    {"--wnt", ""},             {"--lc", "1"},
    {"--pf", "X:nta:256"},     {"--bf", ""},
    {"--cisc", ""},            {"--params", "ur=2"},
    {"--dump-ir", ""},         {"--n", "4096"},
    {"--context", "inl2"},     {"--fast", ""},
    {"--extensions", ""},      {"--jobs", "4"},
    {"--cache", "c.jsonl"},    {"--cache-dir", "shards"},
    {"--shard", "w0"},         {"--trace", "t.jsonl"},
    {"--strategy", "evolve"},  {"--budget", "8"},
    {"--budget-cycles", "99"}, {"--search-seed", "3"},
    {"--eval-timeout-ms", "50"}, {"--quarantine", "2"},
    {"--fault-plan", "crash@3"}, {"--wisdom", "w.jsonl"},
    {"--workers", "3"},        {"--worker-id", "1"},
    {"--socket", "x.sock"},    {"--port", "0"},
    {"--kernels", "kernels"},  {"--recv-timeout-ms", "100"},
    {"--tune", ""},            {"--explain-verb", ""},
    {"--stats", ""},           {"--export", "e.jsonl"},
    {"--shutdown", ""},        {"--from", "a.jsonl"},
};

std::string sampleArg(const FlagSpec& f) {
  const std::string& v = kSample.at(f.name);
  return v.empty() ? f.name : std::string(f.name) + "=" + v;
}

std::set<std::string> flagsOf(const char* verb) {
  const VerbSpec* v = findVerb(verb);
  EXPECT_NE(v, nullptr) << verb;
  std::set<std::string> out;
  for (const FlagSpec& f : flagTable())
    if (v != nullptr && (v->groups & f.group) != 0) out.insert(f.name);
  return out;
}

bool parse(const char* verb, const std::vector<std::string>& args,
           Options* o, std::string* error) {
  return parseOptions(*findVerb(verb), args, o, error);
}

TEST(FlagTable, EachVerbAcceptsExactlyItsFlags) {
  std::set<std::string> names;
  for (const FlagSpec& flag : flagTable()) {
    EXPECT_TRUE(names.insert(flag.name).second) << "duplicate " << flag.name;
    ASSERT_TRUE(kSample.count(flag.name)) << "no sample for " << flag.name;
  }
  for (const VerbSpec& verb : verbTable()) {
    for (const FlagSpec& flag : flagTable()) {
      Options o;
      std::string error;
      const bool ok = parseOptions(verb, {sampleArg(flag)}, &o, &error);
      if ((verb.groups & flag.group) != 0) {
        EXPECT_TRUE(ok) << verb.name << " " << sampleArg(flag) << ": "
                        << error;
      } else {
        EXPECT_FALSE(ok) << verb.name << " " << flag.name;
        EXPECT_EQ(error,
                  std::string(verb.name) + " does not take " + flag.name);
      }
    }
  }
}

TEST(FlagTable, VerbSetsMatchWhatEachVerbReads) {
  EXPECT_EQ(flagsOf("analyze"), std::set<std::string>{"--arch"});
  // compile checks at min(N, 512) but never times, so --context is foreign.
  EXPECT_TRUE(flagsOf("compile").count("--n"));
  EXPECT_FALSE(flagsOf("compile").count("--context"));
  EXPECT_TRUE(flagsOf("run").count("--context"));
  // The search never reads the tuning parameters or --dump-ir.
  EXPECT_FALSE(flagsOf("tune").count("--ur"));
  EXPECT_FALSE(flagsOf("tune").count("--dump-ir"));
  // explain is tune without --wisdom; tune-all is tune plus the split.
  std::set<std::string> tune = flagsOf("tune");
  ASSERT_TRUE(tune.erase("--wisdom"));
  EXPECT_EQ(flagsOf("explain"), tune);
  std::set<std::string> all = flagsOf("tune-all");
  EXPECT_TRUE(all.erase("--workers"));
  EXPECT_TRUE(all.erase("--worker-id"));
  EXPECT_EQ(all, flagsOf("tune"));
  // serve's tune-on-miss path reads every search flag.
  for (const std::string& f : flagsOf("tune"))
    EXPECT_TRUE(flagsOf("serve").count(f)) << f;
  EXPECT_FALSE(flagsOf("query").count("--wisdom"));
  EXPECT_EQ(flagsOf("cache-merge"), std::set<std::string>{"--from"});
  EXPECT_EQ(flagsOf("wisdom-merge"), std::set<std::string>{"--from"});
}

TEST(FlagTable, ValuesParseAndBadShapesAreNamed) {
  Options o;
  std::string error;
  ASSERT_TRUE(parse("tune-all",
                    {"--arch=opteron", "--n=4096", "--context=inl2", "--fast",
                     "--jobs=4", "--workers=3", "--worker-id=2",
                     "--strategy=evolve", "--budget=8"},
                    &o, &error))
      << error;
  EXPECT_EQ(o.archFlag, "opteron");
  EXPECT_EQ(o.n, 4096);
  EXPECT_TRUE(o.nSet);
  EXPECT_EQ(o.contextFlag, "inl2");
  EXPECT_TRUE(o.fast);
  EXPECT_EQ(o.jobs, 4);
  EXPECT_EQ(o.workers, 3);
  EXPECT_EQ(o.workerId, 2);
  EXPECT_TRUE(o.workerIdSet);
  EXPECT_EQ(o.strategy, search::StrategyKind::Evolve);
  EXPECT_EQ(o.budget, 8);

  Options q;
  ASSERT_TRUE(parse("query", {"--export"}, &q, &error)) << error;
  EXPECT_EQ(q.queryVerb, serve::Request::Verb::Export);
  EXPECT_EQ(q.exportPath, "");
  ASSERT_TRUE(parse("wisdom-merge", {"--from=a", "--from=b"}, &q, &error));
  EXPECT_EQ(q.fromPaths, (std::vector<std::string>{"a", "b"}));

  struct Bad {
    const char* verb;
    std::string arg;
    std::string error;
  };
  for (const Bad& b : {
           Bad{"tune", "--bogus", "unknown option '--bogus'"},
           Bad{"tune", "stray.hil", "unknown option 'stray.hil'"},
           Bad{"tune", "--fast=1", "--fast takes no value"},
           Bad{"tune", "--jobs", "--jobs needs a value (--jobs=N)"},
           Bad{"tune", "--jobs=0",
               "bad --jobs (want integer in 1..2147483647): '0'"},
           Bad{"serve", "--port=70000",
               "bad --port (want integer in 0..65535): '70000'"},
           Bad{"tune", "--context=in-L2",
               "unknown context 'in-L2' (want ooc|inl2)"},
       }) {
    Options x;
    std::string err;
    EXPECT_FALSE(parse(b.verb, {b.arg}, &x, &err)) << b.arg;
    EXPECT_EQ(err, b.error);
  }
}

// --- the built binary -------------------------------------------------------

/// Runs `ifko <args>` and returns its exit status and combined output.
int runIfko(const std::string& args, std::string* output) {
  const std::string cmd = std::string(IFKO_CLI_PATH) + " " + args + " 2>&1";
  FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return -1;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, p)) > 0;)
    output->append(buf, n);
  const int status = ::pclose(p);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

struct Rejection {
  std::string name;   ///< the test's name
  std::string args;   ///< the verb, then the flags after its kernel file
  std::string error;  ///< the whole output
};

void PrintTo(const Rejection& r, std::ostream* os) { *os << r.args; }

class ForeignFlag : public testing::TestWithParam<Rejection> {};

TEST_P(ForeignFlag, ExitsTwoNamingVerbAndFlag) {
  std::string out;
  // The kernel file exists: the rejection must come before it is read, and
  // nothing but the one error line may be printed.
  const std::string& args = GetParam().args;
  const size_t verbEnd = args.find(' ');
  EXPECT_EQ(runIfko(args.substr(0, verbEnd) + " " IFKO_KERNELS_HIL_DIR
                        "/ddot.hil" + args.substr(verbEnd),
                    &out),
            2);
  EXPECT_EQ(out, GetParam().error + "\n");
}

INSTANTIATE_TEST_SUITE_P(
    Driver, ForeignFlag,
    testing::Values(
        Rejection{"TuneWorkers", "tune --workers=3 --worker-id=1 --kernels=foo",
                  "tune does not take --workers"},
        Rejection{"AnalyzeJobs",
                  "analyze --jobs=4 --socket=/x --budget=3 --shard=foo",
                  "analyze does not take --jobs"},
        Rejection{"CompileStrategy",
                  "compile --strategy=evolve --wisdom=/nonexistent/x",
                  "compile does not take --strategy"},
        Rejection{"ExplainWisdom", "explain --wisdom=/nonexistent/x",
                  "explain does not take --wisdom"},
        Rejection{"TuneUr", "tune --ur=4 --dump-ir",
                  "tune does not take --ur"}),
    [](const testing::TestParamInfo<Rejection>& info) {
      return info.param.name;
    });

// A verb without a positional argument rejects one before it reads a file
// or starts: the socket path is unbindable, so a daemon that started anyway
// would fail with a different message instead of hanging the test.
TEST(Driver, VerbWithoutArgumentRejectsPositional) {
  std::string out;
  const std::string stray = IFKO_KERNELS_HIL_DIR "/ddot.hil";
  EXPECT_EQ(runIfko("serve " + stray + " --socket=/nonexistent/dir/ifko.sock",
                    &out),
            2);
  EXPECT_EQ(out, "serve takes no argument '" + stray + "'\n");
}

/// The lines of `usage` that list `verb`'s flags.
std::string flagLinesOf(const std::string& usage, const std::string& verb) {
  const std::string head = "\n  " + verb + " ";
  size_t at = usage.find(head);
  if (at == std::string::npos) return "";
  at = usage.find('\n', at + 1) + 1;
  std::string lines;
  while (usage.compare(at, 6, "      ") == 0) {
    const size_t end = usage.find('\n', at);
    lines += usage.substr(at, end - at + 1);
    at = end + 1;
  }
  return lines;
}

TEST(DriverUsage, ListsEachVerbsFlagsFromTheTable) {
  std::string usage;
  EXPECT_EQ(runIfko("", &usage), 2);
  EXPECT_EQ(usage, usageText());
  EXPECT_NE(flagLinesOf(usage, "tune-all").find("--workers=N"),
            std::string::npos)
      << usage;
  const std::string tune = flagLinesOf(usage, "tune");
  EXPECT_NE(tune.find("--strategy="), std::string::npos) << usage;
  EXPECT_EQ(tune.find("--workers"), std::string::npos) << usage;
}

}  // namespace
}  // namespace ifko::driver
