// Strict command lines for the benches and examples.
//
// A binary declares every flag it takes. `--name VALUE` and
// `--name=VALUE` both give a valued flag its value; a switch takes
// none. Anything else (an unknown flag, a stray argument, a missing
// value, a value on a switch, or a value the flag rejects) prints the
// problem and the valid flags on stderr and exits 2: a typo must never
// run the defaults.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ctrl/profiles.hpp"

namespace tmg::scenario {

struct CliFlag {
  std::string name;   // "--trials"
  std::string value;  // placeholder in the flag list ("N"); empty: a switch
  /// Applies the flag (`value` is empty for a switch). Returns what is
  /// wrong with the value, or an empty string when it is accepted.
  std::function<std::string(const std::string& value)> apply;
};

/// A switch that sets `out`.
CliFlag cli_switch(std::string name, bool& out);
/// A valued flag stored verbatim in `out`.
CliFlag cli_text(std::string name, std::string value, std::string& out);
/// A non-negative decimal count (parse_jobs_value); `zero` says what 0
/// means, e.g. "0 = hardware default".
CliFlag cli_count(std::string name, std::size_t& out, std::string zero);
/// `--profile NAME`: a controller profile by its CLI name.
CliFlag cli_profile(std::optional<ctrl::ControllerProfile>& out);

/// Parse argv[1..argc) against `flags`, applying each in command-line
/// order; exits 2 on the first error.
void parse_cli(int argc, char** argv, const std::vector<CliFlag>& flags);

/// The value of a `--jobs` or `--trials` count, or std::nullopt if
/// `text` is not a plain non-negative decimal integer in range (no
/// signs, spaces, suffixes or hex).
std::optional<std::size_t> parse_jobs_value(const char* text);

}  // namespace tmg::scenario
