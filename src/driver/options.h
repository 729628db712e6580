// The ifko driver's command line: one table of flags and one table of
// verbs.
//
// Every flag belongs to one group, and every verb accepts the groups whose
// flags it reads.  parseOptions() rejects any other flag ("tune does not
// take --workers") instead of letting the verb silently ignore it, and
// usageText() lists each verb's flags from the same two tables.  What each
// flag means is documented with its subsystem: docs/TUNING.md (search,
// cache, trace, faults), docs/SERVING.md (serve, query, wisdom) and
// docs/DISTRIBUTED.md (fleet, merges).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "arch/machine.h"
#include "fko/compiler.h"
#include "search/faultguard.h"
#include "search/linesearch.h"
#include "serve/protocol.h"
#include "sim/timer.h"

namespace ifko::driver {

/// Everything the flags can set, with the defaults a verb sees when a flag
/// is absent.
struct Options {
  arch::MachineConfig machine = arch::p4e();
  fko::CompileOptions compile;
  int64_t n = 80000;
  sim::TimeContext context = sim::TimeContext::OutOfCache;
  bool dumpIr = false;
  bool extensions = false;
  bool fast = false;
  int64_t jobs = 1;
  std::string cachePath;
  std::string cacheDirPath;  ///< --cache-dir: sharded eval-cache directory
  std::string cacheShard;    ///< --shard: shard name inside --cache-dir
  std::string tracePath;
  int64_t workers = 0;   ///< tune-all --workers: fleet width; 0 = single
  int64_t workerId = 0;  ///< tune-all --worker-id: this worker's slot
  bool workerIdSet = false;
  int64_t recvTimeoutMs = 30000;  ///< serve --recv-timeout-ms (0 = off)
  std::vector<std::string> fromPaths;  ///< --from= inputs (repeatable)
  search::StrategyKind strategy = search::StrategyKind::Line;
  int64_t budget = 0;        ///< max observed candidates; 0 = unlimited
  int64_t budgetCycles = 0;  ///< max simulated cycles spent; 0 = unlimited
  int64_t searchSeed = 1;
  int64_t evalTimeoutMs = 0;  ///< per-candidate deadline; 0 = off
  int64_t quarantine = 3;     ///< hard failures before abandoning; 0 = never
  search::FaultPlan faultPlan;
  std::string wisdomPath;  ///< --wisdom: warm-start + write-back store
  // serve/query plumbing
  std::string socketPath;  ///< --socket: Unix-domain endpoint
  int64_t tcpPort = -1;    ///< --port: loopback TCP; -1 unset, 0 ephemeral
  std::string kernelsDir;  ///< serve --kernels: extra *.hil kernels
  serve::Request::Verb queryVerb = serve::Request::Verb::Query;
  std::string exportPath;  ///< query --export=PATH ("" = daemon default)
  // Raw flag spellings, so `query` forwards only what the user actually
  // said and the daemon's own defaults cover the rest.
  std::string archFlag;     ///< "" unless --arch was given
  std::string contextFlag;  ///< "" unless --context was given
  bool nSet = false;        ///< --n was given
};

/// Flag groups.  A flag belongs to exactly one; a verb accepts a union.
enum FlagGroup : unsigned {
  kArchFlag = 1u << 0,       ///< --arch
  kParamFlags = 1u << 1,     ///< the tuning parameters and --dump-ir
  kNFlag = 1u << 2,          ///< --n
  kContextFlag = 1u << 3,    ///< --context
  kSearchFlags = 1u << 4,    ///< search scale, cache, trace, strategy, faults
  kWisdomFlag = 1u << 5,     ///< --wisdom
  kFleetFlags = 1u << 6,     ///< --workers, --worker-id
  kEndpointFlags = 1u << 7,  ///< --socket, --port
  kDaemonFlags = 1u << 8,    ///< serve's own: --kernels, --recv-timeout-ms
  kQueryFlags = 1u << 9,     ///< the request a `query` sends
  kFromFlag = 1u << 10,      ///< --from (the merges' inputs)
  kSizeFlags = kNFlag | kContextFlag,
};

/// Whether a flag takes a value: `--fast`, `--cache=FILE`, or `--export`
/// with or without `=PATH`.
enum class FlagValue : uint8_t { None, Required, Optional };

struct FlagSpec {
  const char* name;     ///< "--jobs"
  const char* valueHelp;  ///< usage placeholder ("N"); "" for a switch
  FlagValue value;
  FlagGroup group;
  /// Stores `value` ("" when none was given) into `o` and returns "", or
  /// returns a one-line error.
  std::string (*apply)(Options& o, std::string_view flag,
                       const std::string& value);
};

enum class Command : uint8_t {
  Analyze, Compile, Run, Tune, TuneAll, Explain, Sim, Serve, Query,
  CacheMerge, WisdomMerge
};

struct VerbSpec {
  const char* name;
  Command command;
  const char* argHelp;  ///< "" = no positional argument
  const char* summary;  ///< one usage line
  bool needsArg;        ///< the positional argument is required
  bool readsFile;       ///< the argument is a file whose contents the verb gets
  unsigned groups;      ///< the FlagGroups whose flags the verb reads
};

[[nodiscard]] std::span<const FlagSpec> flagTable();
[[nodiscard]] std::span<const VerbSpec> verbTable();
/// The verb called `name`, or nullptr.
[[nodiscard]] const VerbSpec* findVerb(std::string_view name);

/// Parses `args` (each `--name` or `--name=value`) for `verb` into *o.
/// Stops at the first unknown flag, flag the verb does not take, or bad
/// value, and returns false with a one-line message in *error.
[[nodiscard]] bool parseOptions(const VerbSpec& verb,
                                const std::vector<std::string>& args,
                                Options* o, std::string* error);

/// The usage text: every verb with its argument, summary and flags.
[[nodiscard]] std::string usageText();

}  // namespace ifko::driver
