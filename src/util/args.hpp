// Minimal command-line flag parser for the CLI front end and examples.
// Supports --flag value, --flag=value, and boolean --flag forms.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace appfl::util {

class ArgParser {
 public:
  ArgParser(int argc, const char* const* argv);

  /// True if --name was passed (with or without a value).
  bool has(const std::string& name) const;

  /// Value of --name (from "--name v" or "--name=v"); nullopt if absent or
  /// valueless.
  std::optional<std::string> value(const std::string& name) const;

  std::string get_string(const std::string& name,
                         const std::string& fallback) const;
  std::int64_t get_int(const std::string& name, std::int64_t fallback) const;
  double get_double(const std::string& name, double fallback) const;

  /// Positional (non-flag) arguments, in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Flags that were passed but never queried — typo detection for the CLI.
  std::vector<std::string> unknown_flags() const;

 private:
  struct Flag {
    std::string name;
    std::optional<std::string> value;
    mutable bool queried = false;
  };
  const Flag* find(const std::string& name) const;

  std::vector<Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace appfl::util
