// Strict parsing of numeric command-line flags and environment variables.
//
// std::atoi and std::atof turn "two" into 0 without a word, which silently
// changes a run (zero threads means every core; a zero regression threshold
// flags everything). These parsers accept a value only if the whole string
// is a number in range. Anything else prints
//   invalid value '<value>' for <name>: expected <what>
// to stderr and exits with status 2. `simulate`, `bench_all` and the bench
// harness (MACARON_SWEEP_THREADS) share them.

#ifndef MACARON_SRC_COMMON_CLI_H_
#define MACARON_SRC_COMMON_CLI_H_

#include <cstdint>
#include <string>

namespace macaron::cli {

// Prints the message above for flag or variable `name` and exits 2.
[[noreturn]] void BadValue(const char* name, const std::string& v, const char* expected);

// A finite number in [lo, hi] spanning the whole of `v`.
double ParseReal(const char* name, const std::string& v, double lo, double hi,
                 const char* expected);

// A decimal integer in [lo, hi] spanning the whole of `v` (digits only).
uint64_t ParseUnsigned(const char* name, const std::string& v, uint64_t lo, uint64_t hi,
                       const char* expected);

}  // namespace macaron::cli

#endif  // MACARON_SRC_COMMON_CLI_H_
