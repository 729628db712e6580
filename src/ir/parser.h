// Parser for the textual IR form produced by ir::print().
//
// print() and parse() round-trip: parse(print(fn)) reconstructs the
// function (blocks, instructions, parameters with mark-up, return type,
// loop mark, register-allocation state).  This is tooling glue: dumped IR
// can be edited by hand, stored as a test fixture, or piped back into the
// simulator.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "ir/function.h"

namespace ifko::ir {

/// Largest block id and register id parse() accepts (a virtual register
/// rvN/xvN has id kVirtBase + N).  The dataflow passes size their block
/// maps and per-block register bitsets by the largest id, so an id past
/// this bound in IR text is an error, not a multi-gigabyte allocation.
inline constexpr int64_t kMaxParsedId = 65535;

/// Parses one function.  On failure returns nullopt and, when `error` is
/// non-null, stores a message with the offending line (the first problem
/// found).
[[nodiscard]] std::optional<Function> parse(std::string_view text,
                                            std::string* error = nullptr);

}  // namespace ifko::ir
