// Determinism is the product: `ifko tune-all` must write byte-identical
// wisdom and the same set of cache records at any --jobs, warm or cold,
// after a kill -9 and a plain rerun on the same cache, and across a
// three-worker split folded back together by cache-merge and wisdom-merge.
// Every leg drives the real driver binary and is held to one reference: a
// cold --jobs=1 run.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The file's lines, sorted: cache files are append-order logs, equal as
/// sets of records.
std::vector<std::string> sortedLines(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::sort(lines.begin(), lines.end());
  return lines;
}

/// Every deterministic line of a `tune-all` log: the table rows and the
/// batch summary without their wall-clock seconds, the fault tally and the
/// FAILED diagnostics.
std::vector<std::string> summaryLines(const std::string& log) {
  static const std::regex kWall(" in [0-9.]+ s wall");
  static const std::regex kSecColumn(" +[0-9.]+ *$");
  std::ifstream in(log);
  EXPECT_TRUE(in.is_open()) << log;
  std::vector<std::string> lines;
  bool inTable = false;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("kernel ", 0) == 0) {
      inTable = true;
    } else if (line.empty()) {
      inTable = false;
    } else if (inTable) {
      lines.push_back(std::regex_replace(line, kSecColumn, ""));
    } else if (line.find(" kernels (") != std::string::npos) {
      lines.push_back(std::regex_replace(line, kWall, ""));
    } else if (line.rfind("evaluation failures", 0) == 0 ||
               line.rfind("FAILED ", 0) == 0) {
      lines.push_back(line);
    }
  }
  return lines;
}

/// Starts `ifko <args>` with stdout and stderr appended to `log`.
pid_t spawnIfko(const std::vector<std::string>& args, const std::string& log) {
  std::vector<std::string> argv = {IFKO_CLI_PATH};
  argv.insert(argv.end(), args.begin(), args.end());
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd >= 0) {
    ::dup2(fd, STDOUT_FILENO);
    ::dup2(fd, STDERR_FILENO);
  }
  std::vector<char*> cargv;
  for (std::string& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  ::execv(cargv[0], cargv.data());
  ::_exit(127);
}

class Determinism : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = std::string(::testing::TempDir()) + "determinism_" + info->name() +
           "_" + std::to_string(::getpid()) + "/";
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    // The reference every leg is held to: cold, serial.
    ASSERT_TRUE(tuneAll({"--jobs=1", "--cache=" + path("ref.cache.jsonl"),
                         "--wisdom=" + path("ref.wis.jsonl")}));
    refWisdom_ = slurp(path("ref.wis.jsonl"));
    refCache_ = sortedLines(path("ref.cache.jsonl"));
    ASSERT_NE(refWisdom_.find("\"kernel\":\"ddot\""), std::string::npos);
    ASSERT_FALSE(refCache_.empty());
  }
  void TearDown() override {
    if (!HasFailure()) fs::remove_all(dir_);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return dir_ + name;
  }

  /// `ifko tune-all kernels_hil --fast --n=1024 <extra>`; true on exit 0.
  bool tuneAll(const std::vector<std::string>& extra) {
    std::vector<std::string> args = {"tune-all", IFKO_KERNELS_HIL_DIR,
                                     "--fast", "--n=1024"};
    args.insert(args.end(), extra.begin(), extra.end());
    return run(args);
  }

  /// Runs `ifko <args>` to completion; true on exit 0.
  bool run(const std::vector<std::string>& args) {
    const bool ok = exitCode(args, path("ifko.log")) == 0;
    if (!ok) ADD_FAILURE() << "ifko failed; log:\n" << slurp(path("ifko.log"));
    return ok;
  }

  /// Runs `ifko <args>` to completion with its output in `log`; the exit
  /// status, or -1 when it did not exit normally.
  static int exitCode(const std::vector<std::string>& args,
                      const std::string& log) {
    const pid_t pid = spawnIfko(args, log);
    if (pid < 0) return -1;
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  /// The bar for every leg: byte-identical wisdom, the same cache records.
  void expectMatchesReference(const std::string& wisdom,
                              const std::string& cache) {
    EXPECT_EQ(slurp(wisdom), refWisdom_) << wisdom << " differs from "
                                         << path("ref.wis.jsonl");
    EXPECT_EQ(sortedLines(cache), refCache_)
        << cache << " differs from " << path("ref.cache.jsonl");
  }

  std::string dir_;
  std::string refWisdom_;
  std::vector<std::string> refCache_;
};

TEST_F(Determinism, ColdAtJobs4MatchesJobs1) {
  ASSERT_TRUE(tuneAll({"--jobs=4", "--cache=" + path("j4.cache.jsonl"),
                       "--wisdom=" + path("j4.wis.jsonl")}));
  expectMatchesReference(path("j4.wis.jsonl"), path("j4.cache.jsonl"));
}

TEST_F(Determinism, WarmRerunMatchesCold) {
  // The reference cache is fully warm: every candidate replays as a hit,
  // and a fresh wisdom file must come out byte-identical.
  ASSERT_TRUE(tuneAll({"--jobs=4", "--cache=" + path("ref.cache.jsonl"),
                       "--wisdom=" + path("warm.wis.jsonl")}));
  expectMatchesReference(path("warm.wis.jsonl"), path("ref.cache.jsonl"));
  EXPECT_NE(slurp(path("ifko.log")).find("cache 100.0% hits"),
            std::string::npos);
}

TEST_F(Determinism, FaultPlanInjectsTheSameFaultsAtJobs1And4) {
  // Some kernels end quarantined, so the run exits 1; which candidate gets
  // which fault must not depend on which worker starts first.
  std::vector<std::vector<std::string>> summaries;
  for (const char* jobs : {"1", "4"}) {
    const std::string tag = std::string("faulted.j") + jobs;
    const std::vector<std::string> args = {
        "tune-all",
        IFKO_KERNELS_HIL_DIR,
        "--fast",
        "--n=1024",
        std::string("--jobs=") + jobs,
        "--eval-timeout-ms=50",
        "--fault-plan=crash%7:seed=5,hang%11:seed=9",
        "--wisdom=" + path(tag + ".wis.jsonl")};
    EXPECT_EQ(exitCode(args, path(tag + ".log")), 1) << slurp(path(tag + ".log"));
    summaries.push_back(summaryLines(path(tag + ".log")));
  }
  EXPECT_EQ(slurp(path("faulted.j4.wis.jsonl")),
            slurp(path("faulted.j1.wis.jsonl")));
  ASSERT_GT(summaries[0].size(), 24u);
  EXPECT_EQ(summaries[1], summaries[0]);
}

TEST_F(Determinism, KillNineThenPlainRerunMatchesUninterrupted) {
  const std::vector<std::string> args = {
      "tune-all",
      IFKO_KERNELS_HIL_DIR,
      "--fast",
      "--n=1024",
      "--jobs=1",
      "--cache=" + path("kill.cache.jsonl"),
      "--wisdom=" + path("kill.wis.jsonl"),
      "--trace=" + path("kill.trace.jsonl")};
  const pid_t pid = spawnIfko(args, path("ifko.log"));
  ASSERT_GT(pid, 0);

  // Poll the trace every millisecond; SIGKILL after the 8th kernel_end.
  int kernelEnds = 0;
  std::streamoff offset = 0;
  int status = 0;
  pid_t reaped = 0;
  while (kernelEnds < 8) {
    reaped = ::waitpid(pid, &status, WNOHANG);
    if (reaped != 0) break;  // exited (or waitpid failed) before the kill
    std::ifstream in(path("kill.trace.jsonl"));
    in.seekg(offset);
    for (std::string line; std::getline(in, line) && !in.eof();) {
      offset = in.tellg();
      if (line.find("\"event\":\"kernel_end\"") != std::string::npos)
        ++kernelEnds;
    }
    if (kernelEnds < 8)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (reaped == 0) {
    ::kill(pid, SIGKILL);
    reaped = ::waitpid(pid, &status, 0);
  }
  ASSERT_EQ(reaped, pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "the run finished before the kill";
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The resume is the same command on the same cache (and wisdom).
  ASSERT_TRUE(run(args));
  expectMatchesReference(path("kill.wis.jsonl"), path("kill.cache.jsonl"));
}

TEST_F(Determinism, ThreeWorkerSplitMergesToTheReference) {
  for (int k = 0; k < 3; ++k)
    ASSERT_TRUE(tuneAll({"--jobs=4", "--workers=3",
                         "--worker-id=" + std::to_string(k),
                         "--cache-dir=" + path("shards"),
                         "--shard=w" + std::to_string(k),
                         "--wisdom=" + path("w" + std::to_string(k) +
                                            ".wis.jsonl")}));
  ASSERT_TRUE(run({"cache-merge", path("merged.cache.jsonl"),
                   "--from=" + path("shards")}));
  ASSERT_TRUE(run({"wisdom-merge", path("merged.wis.jsonl"),
                   "--from=" + path("w0.wis.jsonl"),
                   "--from=" + path("w1.wis.jsonl"),
                   "--from=" + path("w2.wis.jsonl")}));
  expectMatchesReference(path("merged.wis.jsonl"),
                         path("merged.cache.jsonl"));
}

}  // namespace
