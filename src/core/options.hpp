// The option table: every run knob a command-line flag or an APPFL_*
// environment variable can set is declared once, as one row. A row names
// its flag and/or env name, its value syntax and bounds, the field it sets,
// the CLI mode it belongs to, the obs level it needs (output paths only)
// and a help line. The table generates appfl_cli's flag parser and --help,
// and the env pass every FL loop runs at start (with_env_overrides).
//
// Precedence: defaults (RunConfig's, or a front end's own), then flags,
// then env. An env value that does not parse or is out of bounds is warned
// about on stderr and ignored; an empty one counts as unset. Single-field
// bounds live in the rows; cross-field rules stay in RunConfig::validate().
#pragma once

#include <iosfwd>
#include <optional>
#include <string>

#include "core/async_runner.hpp"
#include "core/config.hpp"

namespace appfl::util {
class ArgParser;
}  // namespace appfl::util

namespace appfl::core {

/// The synthetic data sets and device fleets appfl_cli offers.
enum class Dataset { kMnist, kCifar10, kFemnist, kCoronahack };
enum class Fleet { kV100, kA100, kMixed };

std::string to_string(Fleet f);

/// A front end's own knobs: data shape, fleet and output.
struct FrontEndOptions {
  Dataset dataset = Dataset::kMnist;
  std::size_t clients = 4;      // clients of the IID data sets
  std::size_t writers = 16;     // writers of femnist
  std::size_t per_client = 96;  // training samples per client
  Fleet fleet = Fleet::kV100;
  std::string csv;
  bool report = false;
  bool quiet = false;
};

/// What the rows write into. A row whose part is missing is skipped: the
/// env pass of a sync run has no AsyncConfig, and only a front end has
/// FrontEndOptions. When `async` is set, `run` points at async->run.
struct OptionTarget {
  RunConfig* run = nullptr;
  AsyncConfig* async = nullptr;
  FrontEndOptions* front = nullptr;
};

/// Applies every table flag in `args` to `target`. Returns the usage error,
/// naming the flag, for a valued flag without a value, a value outside its
/// syntax or bounds, a flag outside its mode ("--participants requires
/// --population"), an output path its obs level cannot produce, or an
/// unknown flag; nullopt when the flags are fine.
std::optional<std::string> parse_flags(const util::ArgParser& args,
                                       const OptionTarget& target);

/// --help: every flag with its syntax, help line, default (read from
/// `defaults`) and env name, then the env-only rows.
void write_help(std::ostream& os, const OptionTarget& defaults);

/// The env pass: every APPFL_* row applied over `config`, then each obs
/// output path the resolved level cannot produce dropped with a warning.
/// The AsyncConfig overload applies the async rows too. The kernel and log
/// names are process-wide defaults their own layers read.
RunConfig with_env_overrides(RunConfig config);
AsyncConfig with_env_overrides(AsyncConfig config);

/// The obs output rule for RunConfig::validate(): throws appfl::Error when
/// an output path is set that config.obs_level cannot produce.
void check_obs_outputs(const RunConfig& config);

}  // namespace appfl::core
