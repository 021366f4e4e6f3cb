#include "core/options.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <span>
#include <string_view>
#include <type_traits>
#include <utility>

#include "comm/communicator.hpp"
#include "tensor/gemm.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/env.hpp"
#include "util/logging.hpp"

namespace appfl::core {
namespace {

enum class Kind { kUint, kNumber, kChoice, kText, kSwitch, kIds };
using enum Kind;

/// The CLI mode a flag belongs to, and the flag that turns the mode on. A
/// flag whose mode is off is a usage error.
enum class Mode { kAny, kSecureAgg, kPopulation, kAsync };
using enum Mode;
constexpr std::array<std::string_view, 4> kModeFlags = {
    "", "secure-agg", "population", "async-strategy"};

// Accepted names, indexed by the enum each row sets.
constexpr std::array<std::string_view, 4> kDatasetNames = {
    "mnist", "cifar10", "femnist", "coronahack"};
constexpr std::array<std::string_view, 4> kAlgorithmNames = {
    "fedavg", "iceadmm", "iiadmm", "fedprox"};
constexpr std::array<std::string_view, 3> kModelNames = {"cnn", "mlp",
                                                         "logistic"};
constexpr std::array<std::string_view, 2> kProtocolNames = {"mpi", "grpc"};
constexpr std::array<std::string_view, 3> kFleetNames = {"v100", "a100",
                                                         "mixed"};
// Switch values: the first three mean on.
constexpr std::array<std::string_view, 6> kSwitchWords = {
    "true", "1", "yes", "false", "0", "no"};

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A parsed value; the members that matter follow the row's kind.
struct Value {
  std::uint64_t uint = 0;  // kUint; kSwitch: 0 or 1; kChoice: name index
  double number = 0.0;
  std::string text;  // kText; kChoice: the name
  std::vector<std::uint32_t> ids;
};

/// Copies `v` into `field` (store) or `field` into `v`, through the Value
/// member the field's type uses.
template <class T>
void transfer(T& field, Value& v, bool store) {
  auto& slot = [&v]() -> auto& {
    if constexpr (std::is_enum_v<T> || std::is_unsigned_v<T>) return v.uint;
    else if constexpr (std::is_floating_point_v<T>) return v.number;
    else if constexpr (std::is_same_v<T, std::string>) return v.text;
    else return v.ids;
  }();
  if (store) {
    field = static_cast<T>(slot);
  } else {
    slot = static_cast<std::remove_reference_t<decltype(slot)>>(field);
  }
}

/// Where a row's value lands: the kind of value its C++ type takes (a
/// string with names is a choice), and `io`, which stores `v` into the
/// field or loads the field into `v`, returning false when the target
/// lacks the row's part.
struct Field {
  Kind kind = kText;
  bool (*io)(const OptionTarget&, Value& v, bool store) = nullptr;
};

/// The field at `Path` under the target part `Part`.
template <auto Part, auto... Path>
constexpr Field field() {
  using T = std::remove_cvref_t<decltype((
      *(std::declval<const OptionTarget&>().*Part) .* ... .* Path))>;
  return {std::is_same_v<T, bool>          ? kSwitch
          : std::is_enum_v<T>              ? kChoice
          : std::is_unsigned_v<T>          ? kUint
          : std::is_floating_point_v<T>    ? kNumber
          : std::is_same_v<T, std::string> ? kText
                                           : kIds,
          [](const OptionTarget& t, Value& v, bool store) {
            if (t.*Part == nullptr) return false;
            transfer((*(t.*Part) .* ... .* Path), v, store);
            return true;
          }};
}
template <auto... Path>
constexpr Field run = field<&OptionTarget::run, Path...>();
template <auto... Path>
constexpr Field async = field<&OptionTarget::async, Path...>();
template <auto... Path>
constexpr Field front = field<&OptionTarget::front, Path...>();

using R = RunConfig;
using A = AsyncConfig;
using S = AsyncStrategyOptions;
using F = comm::FaultConfig;
using E = FrontEndOptions;

struct Option {
  std::string_view flag = {};  // without "--"; empty for env-only rows
  std::string_view env = {};   // empty for flag-only rows
  double lo = 0.0;  // kUint / kNumber bounds, inclusive
  double hi = kInf;
  bool lo_open = false;  // kNumber: lo itself is out of bounds
  std::span<const std::string_view> names = {};  // kChoice
  Field field = {};  // unset: only the row's own layer reads it
  Mode mode = kAny;
  obs::Level needs = obs::Level::kOff;  // output paths: the level making them
  bool layer_env = false;  // env read by its own layer as a process default
  std::string_view help = {};

  Kind kind() const {
    return field.kind == kText && !names.empty() ? kChoice : field.kind;
  }
};

// --help prints the rows in this order, with a heading where the mode
// changes.
const Option kOptions[] = {
    {.flag = "dataset", .names = kDatasetNames, .field = front<&E::dataset>,
     .help = "synthetic data set"},
    {.flag = "clients", .lo = 1, .field = front<&E::clients>,
     .help = "clients of the IID data sets"},
    {.flag = "writers", .lo = 1, .field = front<&E::writers>,
     .help = "writers of femnist"},
    {.flag = "per-client", .lo = 1, .field = front<&E::per_client>,
     .help = "training samples per client"},
    {.flag = "algorithm", .names = kAlgorithmNames, .field = run<&R::algorithm>,
     .help = "FL algorithm (other modes default to fedavg)"},
    {.flag = "model", .names = kModelNames, .field = run<&R::model>,
     .help = "model"},
    {.flag = "rounds", .lo = 1, .field = run<&R::rounds>,
     .help = "communication rounds"},
    {.flag = "local-steps", .lo = 1, .field = run<&R::local_steps>,
     .help = "local epochs per round"},
    {.flag = "batch-size", .lo = 1, .field = run<&R::batch_size>,
     .help = "mini-batch size"},
    {.flag = "lr", .lo_open = true, .field = run<&R::lr>,
     .help = "FedAvg learning rate"},
    {.flag = "momentum", .hi = 1, .field = run<&R::momentum>,
     .help = "FedAvg momentum"},
    {.flag = "rho", .lo_open = true, .field = run<&R::rho>,
     .help = "IADMM penalty"},
    {.flag = "zeta", .field = run<&R::zeta>, .help = "IADMM proximity"},
    {.flag = "adaptive-rho", .field = run<&R::adaptive_rho>,
     .help = "residual-balancing rho adaptation (IADMM)"},
    {.flag = "mu", .field = run<&R::fedprox_mu>,
     .help = "FedProx proximal coefficient"},
    {.flag = "epsilon", .lo_open = true, .field = run<&R::epsilon>,
     .help = "per-round DP budget; inf = off"},
    {.flag = "clip", .field = run<&R::clip>,
     .help = "gradient clipping bound; 0 = off"},
    {.flag = "fraction", .hi = 1, .lo_open = true,
     .field = run<&R::client_fraction>, .help = "client sampling fraction"},
    {.flag = "protocol", .names = kProtocolNames, .field = run<&R::protocol>,
     .help = "communication protocol"},
    {.flag = "codec", .env = "APPFL_WIRE_CODEC",
     .names = comm::kUplinkCodecNames, .field = run<&R::uplink_codec>,
     .help = "lossy uplink codec (fedavg/fedprox, sync runs)"},
    {.flag = "fault-drop", .env = "APPFL_FAULT_DROP", .hi = 1,
     .field = run<&R::faults, &F::drop>,
     .help = "per-message drop probability"},
    {.flag = "fault-dup", .env = "APPFL_FAULT_DUPLICATE", .hi = 1,
     .field = run<&R::faults, &F::duplicate>,
     .help = "duplicate-delivery probability"},
    {.flag = "fault-reorder", .env = "APPFL_FAULT_REORDER", .hi = 1,
     .field = run<&R::faults, &F::reorder>,
     .help = "queue-jumping probability"},
    {.flag = "fault-corrupt", .env = "APPFL_FAULT_CORRUPT", .hi = 1,
     .field = run<&R::faults, &F::corrupt>,
     .help = "payload bit-flip probability"},
    {.flag = "fault-delay", .env = "APPFL_FAULT_DELAY", .hi = 1,
     .field = run<&R::faults, &F::delay>, .help = "extra-latency probability"},
    {.flag = "fault-delay-max", .env = "APPFL_FAULT_DELAY_MAX_S",
     .field = run<&R::faults, &F::delay_max_s>,
     .help = "longest injected delay, sim-seconds"},
    {.flag = "fault-dead", .env = "APPFL_FAULT_DEAD",
     .field = run<&R::faults, &F::dead>,
     .help = "client ids that never answer"},
    {.flag = "gather-timeout", .lo_open = true,
     .field = run<&R::gather_timeout_s>,
     .help = "server gather deadline, sim-seconds"},
    {.flag = "mailbox-cap", .env = "APPFL_MAILBOX_CAP",
     .field = run<&R::mailbox_capacity>,
     .help = "per-mailbox high-water mark; 0 = unbounded"},
    {.flag = "kernel-threads", .env = "APPFL_KERNEL_THREADS",
     .hi = tensor::kMaxKernelThreads, .field = run<&R::kernel_threads>,
     .layer_env = true, .help = "intra-op kernel threads; 0 = hardware"},
    {.flag = "seed", .field = run<&R::seed>, .help = "experiment seed"},
    {.flag = "csv", .field = front<&E::csv>,
     .help = "write the learning curve as CSV"},
    {.flag = "ckpt-dir", .env = "APPFL_CKPT_DIR",
     .field = run<&R::checkpoint_dir>,
     .help = "A/B checkpoint store for crash recovery"},
    {.flag = "ckpt-every", .env = "APPFL_CKPT_EVERY", .lo = 1,
     .field = run<&R::checkpoint_every_n_rounds>,
     .help = "checkpoint cadence in rounds (async: updates)"},
    {.flag = "resume", .env = "APPFL_CKPT_RESUME",
     .field = run<&R::resume_from>,
     .help = "resume from the newest valid checkpoint in PATH"},
    {.flag = "obs-level", .env = "APPFL_OBS_LEVEL", .names = obs::kLevelNames,
     .field = run<&R::obs_level>, .help = "observability plane"},
    {.flag = "trace-out", .env = "APPFL_OBS_TRACE_OUT",
     .field = run<&R::trace_out>, .needs = obs::Level::kTrace,
     .help = "Chrome trace JSON"},
    {.flag = "metrics-out", .env = "APPFL_OBS_METRICS_OUT",
     .field = run<&R::metrics_out>, .needs = obs::Level::kMetrics,
     .help = "per-round JSONL stream"},
    {.flag = "critpath-out", .env = "APPFL_OBS_CRITPATH_OUT",
     .field = run<&R::critpath_out>, .needs = obs::Level::kTrace,
     .help = "per-round critical-path JSONL (+ .csv sibling)"},
    {.flag = "health-out", .env = "APPFL_OBS_HEALTH_OUT",
     .field = run<&R::health_out>, .needs = obs::Level::kMetrics,
     .help = "per-client health ledger CSV"},
    {.flag = "flight-dir", .env = "APPFL_OBS_FLIGHT_DIR",
     .field = run<&R::flight_dir>, .needs = obs::Level::kMetrics,
     .help = "flight-recorder dump directory"},
    {.flag = "report", .field = front<&E::report>,
     .help = "print per-class recall of the final model"},
    {.flag = "quiet", .field = front<&E::quiet>,
     .help = "suppress the per-round table"},
    {.flag = "secure-agg", .field = run<&R::secure_agg>,
     .help = "masked aggregation with Shamir dropout recovery"},
    {.flag = "population", .lo = 1, .field = run<&R::population>,
     .help = "synthetic clients; runs the population engine"},
    {.flag = "async-strategy", .env = "APPFL_ASYNC_STRATEGY",
     .names = kAsyncStrategyNames, .field = async<&A::strategy, &S::kind>,
     .help = "runs the async server (FedAvg local solver)"},
    {.flag = "secure-agg-threshold", .lo = 2,
     .field = run<&R::secure_agg_threshold>, .mode = kSecureAgg,
     .help = "Shamir threshold; 0 = majority of the cohort"},
    {.flag = "participants", .lo = 1, .field = run<&R::participants_per_round>,
     .mode = kPopulation, .help = "sampled clients per round"},
    {.flag = "tree-fanout", .env = "APPFL_TREE_FANOUT",
     .field = run<&R::tree_fan_out>, .mode = kPopulation,
     .help = "aggregation-tree fan-out; 0 = flat gather"},
    {.flag = "staleness-weight", .env = "APPFL_ASYNC_STALENESS_WEIGHT",
     .names = kStalenessWeightNames, .field = async<&A::strategy, &S::weight>,
     .mode = kAsync, .help = "staleness damping of the mixing rate"},
    {.flag = "buffer-k", .env = "APPFL_ASYNC_BUFFER_K", .lo = 1,
     .field = async<&A::strategy, &S::buffer_k>, .mode = kAsync,
     .help = "FedBuff: arrivals per commit"},
    {.flag = "mixing-alpha", .hi = 1, .lo_open = true,
     .field = async<&A::mixing_alpha>, .mode = kAsync,
     .help = "base mixing rate"},
    {.flag = "total-updates", .field = async<&A::total_updates>, .mode = kAsync,
     .help = "update budget; 0 = rounds x clients"},
    {.flag = "validate-every", .field = async<&A::validate_every>,
     .mode = kAsync,
     .help = "validate every K applied updates; 0 = at the end"},
    {.flag = "fleet", .names = kFleetNames, .field = front<&E::fleet>,
     .mode = kAsync,
     .help = "device fleet; async faults honor --fault-drop only"},
    {.env = "APPFL_ASYNC_HINGE_S0", .field = async<&A::strategy, &S::hinge_s0>,
     .help = "hinge weighting: last staleness at full mixing"},
    {.env = "APPFL_LOG_LEVEL", .names = log::kLevelNames, .layer_env = true,
     .help = "log verbosity (default info)"},
};

/// The row's field read from `t`; nullopt when `t` lacks the row's part.
std::optional<Value> load(const Option& o, const OptionTarget& t) {
  Value v;
  if (o.field.io == nullptr || !o.field.io(t, v, false)) return std::nullopt;
  return v;
}

std::uint64_t uint_bound(double b) {
  return b >= 0x1p64 ? std::numeric_limits<std::uint64_t>::max()
                     : static_cast<std::uint64_t>(b);
}

std::string number_text(double x) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", x);
  return buf;
}

/// What a row accepts, for messages: "a positive integer", "mpi|grpc", ...
std::string need(const Option& o) {
  switch (o.kind()) {
    case kUint: return util::describe_uint(uint_bound(o.lo), uint_bound(o.hi));
    case kNumber:
      return (o.lo_open ? "a number in (" : "a number in [") +
             number_text(o.lo) + ", " + number_text(o.hi) + "]";
    case kChoice: return util::join_names(o.names);
    case kText: return "a value";
    case kSwitch: return util::join_names(kSwitchWords);
    case kIds: return "comma-separated client ids";
  }
  return "?";
}

/// `text` as the row's value; nullopt when it is outside the syntax or
/// bounds. An id list skips empty ids, keeps the good ones and collects the
/// bad ones in `bad`.
std::optional<Value> parse_value(const Option& o, std::string_view text,
                                 std::vector<std::string_view>& bad) {
  Value v;
  std::optional<std::uint64_t> u;
  std::optional<std::size_t> i;
  const std::string s(text);
  char* end = nullptr;
  switch (o.kind()) {
    case kUint:
      if (!(u = util::parse_uint(text, uint_bound(o.lo), uint_bound(o.hi)))) {
        return std::nullopt;
      }
      v.uint = *u;
      break;
    case kNumber:
      v.number = std::strtod(s.c_str(), &end);
      if (s.empty() || *end != '\0' || v.number > o.hi ||
          !(o.lo_open ? v.number > o.lo : v.number >= o.lo)) {
        return std::nullopt;
      }
      break;
    case kChoice:
      if (!(i = util::find_name(o.names, text))) return std::nullopt;
      v.uint = *i;
      v.text = s;
      break;
    case kText: v.text = s; break;
    case kSwitch:
      if (!(i = util::find_name(kSwitchWords, text))) return std::nullopt;
      v.uint = *i < 3 ? 1 : 0;
      break;
    case kIds:
      for (std::size_t pos = 0; pos <= text.size();) {
        const std::size_t comma = std::min(text.find(',', pos), text.size());
        const std::string_view id = text.substr(pos, comma - pos);
        if ((u = util::parse_uint(id, 0, 0xFFFFFFFF))) {
          v.ids.push_back(static_cast<std::uint32_t>(*u));
        } else if (!id.empty()) {
          bad.push_back(id);
        }
        pos = comma + 1;
      }
      break;
  }
  return v;
}

/// "trace" or "metrics or trace": the obs levels that produce a row's path.
std::string levels_from(obs::Level needs) {
  std::string out;
  for (std::size_t i = static_cast<std::size_t>(needs);
       i < obs::kLevelNames.size(); ++i) {
    out += (out.empty() ? "" : " or ") + std::string(obs::kLevelNames[i]);
  }
  return out;
}

/// The obs output rule, stated once: the first output row whose path `t`
/// sets but its obs level cannot produce (nullptr when none, or when the
/// level does not parse; validate() reports that).
const Option* unproducible_output(const OptionTarget& t) {
  const auto level = obs::parse_level(t.run->obs_level);
  if (!level) return nullptr;
  for (const Option& o : kOptions) {
    if (o.needs > *level && !load(o, t)->text.empty()) return &o;
  }
  return nullptr;
}

void apply_env(const OptionTarget& t) {
  for (const Option& o : kOptions) {
    if (o.env.empty() || o.layer_env || !load(o, t)) continue;
    const std::string name(o.env);
    const auto text = util::env_value(name.c_str());
    if (!text) continue;
    // A bad id is skipped on its own; the rest of the list still applies.
    std::vector<std::string_view> bad;
    auto v = parse_value(o, *text, bad);
    if (!v) util::warn_ignored_env(name, *text, need(o));
    for (const std::string_view id : bad) {
      util::warn_ignored_env(name, id, need(o));
    }
    if (v) o.field.io(t, *v, true);
  }
  while (const Option* o = unproducible_output(t)) {
    util::warn_ignored_env(o->env, load(*o, t)->text,
                           "obs level " + levels_from(o->needs) + ", not " +
                               t.run->obs_level);
    Value cleared;
    o->field.io(t, cleared, true);
  }
}

}  // namespace

std::string to_string(Fleet f) {
  return std::string(kFleetNames[static_cast<std::size_t>(f)]);
}

std::optional<std::string> parse_flags(const util::ArgParser& args,
                                       const OptionTarget& target) {
  // Rows whose part the target lacks are never queried, so they surface
  // as unknown flags.
  std::vector<std::string_view> on;  // given flags; switches only when true
  for (const Option& o : kOptions) {
    const std::string flag(o.flag);
    if (flag.empty() || !load(o, target) || !args.has(flag)) continue;
    const std::optional<std::string> raw = args.value(flag);
    std::vector<std::string_view> bad;
    std::optional<Value> v;
    if (o.kind() == kSwitch && !raw) {
      v.emplace().uint = 1;
    } else if (!raw || raw->empty()) {
      return "--" + flag + " needs a value";
    } else if (v = parse_value(o, *raw, bad); !v || !bad.empty()) {
      return "--" + flag + " expects " + need(o) + ", got '" + *raw + "'";
    }
    o.field.io(target, *v, true);
    if (o.kind() != kSwitch || v->uint != 0) on.push_back(o.flag);
  }
  const auto given = [&](std::string_view f) {
    return std::ranges::count(on, f) > 0;
  };
  for (const Option& o : kOptions) {
    const std::string_view mode_flag = kModeFlags[static_cast<int>(o.mode)];
    if (o.mode != kAny && given(o.flag) && !given(mode_flag)) {
      return "--" + std::string(o.flag) + " requires --" +
             std::string(mode_flag);
    }
  }
  if (const Option* o = unproducible_output(target)) {
    return "--" + std::string(o->flag) + " requires --obs-level " +
           levels_from(o->needs);
  }
  std::string unknown;
  for (const std::string& f : args.unknown_flags()) unknown += " --" + f;
  if (!unknown.empty()) return "unknown flag(s):" + unknown;
  return std::nullopt;
}

void write_help(std::ostream& os, const OptionTarget& defaults) {
  os << "appfl_cli — run a privacy-preserving federated learning "
        "experiment\n\nEach flag notes its default and the APPFL_* name "
        "that overrides it at run start.\nThe kernel and log names only set "
        "a process default, which the flags override.\n";
  constexpr std::size_t kColumn = 28;  // where help text starts
  std::string heading;
  for (const Option& o : kOptions) {
    const std::string h =
        o.flag.empty() ? "Environment only"
        : o.mode == kAny
            ? "Flags"
            : "With --" + std::string(kModeFlags[static_cast<int>(o.mode)]);
    if (h != heading) os << "\n" << (heading = h) << ":\n";
    const Kind kind = o.kind();
    const std::string syntax[] = {" N", " X", " " + util::join_names(o.names),
                                  " PATH", "", " ID,ID,..."};
    const std::string head = (o.flag.empty() ? std::string(o.env)
                                             : "--" + std::string(o.flag)) +
                             syntax[static_cast<int>(kind)];
    // A mode flag's default is "mode off", not a value.
    const bool mode_flag =
        !o.flag.empty() && std::ranges::count(kModeFlags, o.flag) > 0;
    const auto v = mode_flag ? std::nullopt : load(o, defaults);
    std::string notes;
    if (v && kind != kSwitch && kind != kIds) {
      notes = kind == kUint     ? std::to_string(v->uint)
              : kind == kNumber ? number_text(v->number)
              : kind == kChoice && v->text.empty()
                  ? std::string(o.names[v->uint])
                  : v->text;
      if (!notes.empty()) notes = "default " + notes;
    }
    if (!o.flag.empty() && !o.env.empty()) {
      notes += (notes.empty() ? "env " : "; env ") + std::string(o.env);
    }
    // The help starts in column kColumn (on the next line after a long
    // head); the notes follow it, or get their own line when too long.
    const bool inline_notes = kColumn + o.help.size() + notes.size() + 3 <= 80;
    os << "  " << head
       << (head.size() + 2 < kColumn
               ? std::string(kColumn - head.size() - 2, ' ')
               : "\n" + std::string(kColumn, ' '))
       << o.help
       << (inline_notes && !notes.empty() ? " (" + notes + ")" : "") << "\n";
    if (!inline_notes) os << std::string(kColumn, ' ') << notes << "\n";
  }
}

RunConfig with_env_overrides(RunConfig config) {
  apply_env({.run = &config});
  return config;
}

AsyncConfig with_env_overrides(AsyncConfig config) {
  apply_env({.run = &config.run, .async = &config});
  return config;
}

void check_obs_outputs(const RunConfig& config) {
  // The rows only read through the target here.
  const OptionTarget t{.run = const_cast<RunConfig*>(&config)};
  const Option* o = unproducible_output(t);
  APPFL_CHECK_MSG(o == nullptr, o->flag << " output needs obs level "
                                        << levels_from(o->needs)
                                        << ", but obs_level is '"
                                        << config.obs_level << "'");
}

}  // namespace appfl::core
