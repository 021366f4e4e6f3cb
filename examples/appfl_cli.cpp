// appfl_cli — full command-line front end to the framework.
//
//   ./build/examples/appfl_cli --dataset mnist --algorithm iiadmm
//       --rounds 10 --local-steps 2 --epsilon 10 --protocol grpc
//       --clients 4 --model mlp --csv out.csv   (one line)
//
// The flags, their checks and --help come from the option table
// (core/options.hpp); this file adds the rules between modes. Usage errors
// exit 2, run failures exit 1.
#include <cmath>
#include <iostream>
#include <optional>
#include <string>

#include "core/async_runner.hpp"
#include "core/event_engine.hpp"
#include "core/evaluation.hpp"
#include "core/options.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "hw/device.hpp"
#include "util/args.hpp"
#include "util/check.hpp"
#include "util/table.hpp"

namespace {

using appfl::core::Algorithm;
using appfl::core::Dataset;

/// The rules between modes that no single row of the table states; fills
/// in the mode-dependent default algorithm.
std::optional<std::string> check_modes(
    const appfl::util::ArgParser& args, appfl::core::RunConfig& cfg,
    const appfl::core::FrontEndOptions& front) {
  const bool population = args.has("population");
  const bool async = args.has("async-strategy");
  if (population && async) {
    return "--population and --async-strategy are mutually exclusive";
  }
  if (cfg.secure_agg && async) {
    return "--secure-agg needs a synchronized masking cohort; "
           "--async-strategy is not supported";
  }
  if (population) {
    for (const char* flag : {"dataset", "clients", "writers", "fraction"}) {
      if (args.has(flag)) {
        return "--" + std::string(flag) +
               " does not apply to --population, which generates its own "
               "FEMNIST-style clients and samples --participants per round";
      }
    }
  }
  if ((population || async) &&
      (front.report || cfg.uplink_codec != appfl::comm::UplinkCodec::kNone)) {
    return "--report and --codec apply to synchronous runs only";
  }
  if (async && args.has("algorithm") && cfg.algorithm != Algorithm::kFedAvg) {
    return "--async-strategy runs the FedAvg local solver; --algorithm " +
           args.value("algorithm").value_or("") + " is not supported";
  }
  if (!args.has("algorithm") && (population || async || cfg.secure_agg)) {
    cfg.algorithm = Algorithm::kFedAvg;
  }
  return std::nullopt;
}

appfl::data::FederatedSplit make_split(const appfl::core::FrontEndOptions& f,
                                       std::uint64_t seed) {
  if (f.dataset == Dataset::kFemnist) {
    appfl::data::FemnistSpec spec;
    spec.num_writers = f.writers;
    spec.mean_samples_per_writer = f.per_client;
    spec.test_size = 256;
    spec.seed = seed;
    return appfl::data::femnist_like(spec);
  }
  appfl::data::SynthImageSpec spec;
  spec.num_clients = f.clients;
  spec.train_per_client = f.per_client;
  spec.test_size = 256;
  spec.seed = seed;
  if (f.dataset == Dataset::kCifar10) return appfl::data::cifar10_like(spec);
  if (f.dataset == Dataset::kCoronahack) {
    return appfl::data::coronahack_like(spec);
  }
  return appfl::data::mnist_like(spec);
}

int usage_error(const std::string& message) {
  std::cerr << message << "\n(use --help)\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using appfl::util::fmt;
  try {
    const appfl::util::ArgParser args(argc, argv);
    // Everything the flags set. The CLI's defaults differ from RunConfig's,
    // and stdout depends on them.
    appfl::core::AsyncConfig async_cfg;  // .run: the RunConfig of every mode
    appfl::core::RunConfig& cfg = async_cfg.run;
    cfg.algorithm = Algorithm::kIIAdmm;
    cfg.rho = cfg.zeta = 2.5F;
    cfg.participants_per_round = 100;
    appfl::core::FrontEndOptions front;
    const appfl::core::OptionTarget target{&cfg, &async_cfg, &front};
    if (args.has("help")) {
      appfl::core::write_help(std::cout, target);
      return 0;
    }
    if (auto error = appfl::core::parse_flags(args, target)) {
      return usage_error(*error);
    }
    if (auto error = check_modes(args, cfg, front)) return usage_error(*error);
    const bool population_mode = args.has("population");
    const bool async_mode = args.has("async-strategy");
    try {
      cfg.validate();
      if (async_mode) async_cfg.strategy.validate();
    } catch (const appfl::Error& e) {
      // Report the failed check, not where it lives.
      const std::string what = e.what();
      const std::size_t dash = what.find(" — ");
      return usage_error(dash == std::string::npos
                             ? what.substr(0, what.find(" at "))
                             : what.substr(dash + std::string(" — ").size()));
    }
    const std::size_t per_client = front.per_client;
    const bool quiet = front.quiet;
    const bool report = front.report;
    const std::string& csv_path = front.csv;

    // -- Run (population engine) -------------------------------------------
    if (population_mode) {
      appfl::data::FemnistSpec spec;
      spec.num_writers = cfg.population;
      spec.mean_samples_per_writer = per_client;
      spec.test_size = 256;
      spec.seed = cfg.seed;
      const appfl::data::SyntheticPopulation pop(spec);
      const auto result = appfl::core::run_population(cfg, pop);
      // The header shows the run's resolved config (APPFL_TREE_FANOUT).
      const appfl::core::RunConfig& ran = result.run.config;
      std::cout << "appfl_cli: " << appfl::core::to_string(ran.algorithm)
                << " population engine (" << ran.population << " clients, "
                << ran.participants_per_round << " sampled/round, "
                << (ran.tree_fan_out == 0
                        ? std::string("flat gather")
                        : "tree fan-out " + std::to_string(ran.tree_fan_out))
                << ", " << appfl::comm::to_string(ran.protocol) << ")\n\n";

      appfl::util::TextTable table({"round", "participants", "responders",
                                    "train_loss", "test_acc", "comm_s"});
      appfl::util::CsvWriter csv({"round", "participants", "responders",
                                  "train_loss", "test_acc", "comm_s"});
      for (const auto& r : result.run.rounds) {
        const std::vector<std::string> row{
            std::to_string(r.round), std::to_string(r.participants),
            std::to_string(r.responders), fmt(r.train_loss, 4),
            r.test_accuracy < 0 ? "-" : fmt(r.test_accuracy, 4),
            fmt(r.broadcast_s + r.gather_s, 3)};
        table.add_row(row);
        csv.add_row(row);
      }
      if (!quiet) table.print(std::cout);
      if (!csv_path.empty()) {
        csv.write_file(csv_path);
        std::cout << "[csv] " << csv_path << "\n";
      }
      const auto& eng = result.engine;
      std::cout << "\nfinal accuracy: " << fmt(result.run.final_accuracy, 4)
                << "\nuplink: " << result.run.traffic.bytes_up / 1024
                << " KiB, downlink: " << result.run.traffic.bytes_down / 1024
                << " KiB, simulated comm: "
                << fmt(result.run.sim_comm_seconds, 2) << " s"
                << "\nengine: " << eng.events_processed << " events in "
                << fmt(eng.wall_seconds, 2) << " s ("
                << fmt(eng.events_per_second, 0) << " ev/s), peak RSS "
                << eng.peak_rss_bytes / (1024 * 1024) << " MiB, tree depth "
                << eng.tree_depth << " (" << eng.tree_leaf_groups
                << " leaf groups), mailbox overflows "
                << eng.mailbox_overflows << "\n";
      if (cfg.secure_agg) {
        std::cout << "secure-agg: " << result.run.secagg_reconstructions
                  << " pairwise-mask reconstruction(s), "
                  << result.run.secagg_rounds_degraded
                  << " degraded round(s)\n";
      }
      if (result.run.resumed_from_round > 0 ||
          result.run.checkpoints_written > 0) {
        std::cout << "[ckpt] resumed after round "
                  << result.run.resumed_from_round << ", wrote "
                  << result.run.checkpoints_written << " checkpoint(s)\n";
      }
      return 0;
    }

    // -- Run (async) -------------------------------------------------------
    const appfl::data::FederatedSplit split = make_split(front, cfg.seed);
    if (async_mode) {
      const std::vector<appfl::hw::DeviceProfile> fleets[] = {  // by Fleet
          {appfl::hw::v100()},
          {appfl::hw::a100()},
          {appfl::hw::a100(), appfl::hw::v100()}};
      async_cfg.devices = fleets[static_cast<int>(front.fleet)];
      std::cout << "appfl_cli: async "
                << appfl::core::to_string(async_cfg.strategy.kind) << " ("
                << appfl::core::to_string(async_cfg.strategy.weight)
                << " staleness weighting) on " << split.name << " ("
                << split.num_clients() << " clients, "
                << appfl::core::to_string(front.fleet) << " fleet)\n\n";
      const auto result = appfl::core::run_async(async_cfg, split);

      appfl::util::TextTable table({"update", "client", "staleness", "mixing",
                                    "committed", "test_acc", "sim_s"});
      appfl::util::CsvWriter csv({"update", "client", "staleness", "mixing",
                                  "committed", "test_acc", "sim_s"});
      for (std::size_t i = 0; i < result.events.size(); ++i) {
        const auto& e = result.events[i];
        const std::vector<std::string> row{
            std::to_string(i + 1), std::to_string(e.client),
            std::to_string(e.staleness), fmt(e.mixing, 4),
            e.committed ? "yes" : "no",
            e.test_accuracy < 0 ? "-" : fmt(e.test_accuracy, 4),
            fmt(e.sim_time, 3)};
        table.add_row(row);
        csv.add_row(row);
      }
      if (!quiet) table.print(std::cout);
      if (!csv_path.empty()) {
        csv.write_file(csv_path);
        std::cout << "[csv] " << csv_path << "\n";
      }
      std::cout << "\nstrategy: " << result.strategy
                << "\napplied updates: " << result.applied_updates
                << " (committed " << result.committed_updates << ", dropped "
                << result.dropped_updates << ")"
                << "\nmean staleness: " << fmt(result.mean_staleness, 3)
                << "\nsimulated seconds: " << fmt(result.sim_seconds, 2)
                << "\nfinal accuracy: " << fmt(result.final_accuracy, 4)
                << "\n";
      if (result.resumed_from_update > 0 || result.checkpoints_written > 0) {
        std::cout << "[ckpt] resumed after update "
                  << result.resumed_from_update << ", wrote "
                  << result.checkpoints_written << " checkpoint(s)\n";
      }
      return 0;
    }

    // -- Run ---------------------------------------------------------------------
    std::cout << "appfl_cli: " << appfl::core::to_string(cfg.algorithm)
              << " on " << split.name << " (" << split.num_clients()
              << " clients, " << split.total_train() << " samples, eps="
              << (std::isinf(cfg.epsilon) ? std::string("inf")
                                          : fmt(cfg.epsilon, 2))
              << ", " << appfl::comm::to_string(cfg.protocol) << ")\n\n";
    const auto result = appfl::core::run_federated(cfg, split);

    appfl::util::TextTable table(
        {"round", "participants", "train_loss", "test_acc", "comm_s", "rho"});
    appfl::util::CsvWriter csv(
        {"round", "participants", "train_loss", "test_acc", "comm_s", "rho"});
    for (const auto& r : result.rounds) {
      const std::vector<std::string> row{
          std::to_string(r.round), std::to_string(r.participants),
          fmt(r.train_loss, 4),
          r.test_accuracy < 0 ? "-" : fmt(r.test_accuracy, 4),
          fmt(r.broadcast_s + r.gather_s, 3), fmt(r.rho, 2)};
      table.add_row(row);
      csv.add_row(row);
    }
    if (!quiet) table.print(std::cout);
    if (!csv_path.empty()) {
      csv.write_file(csv_path);
      std::cout << "[csv] " << csv_path << "\n";
    }
    std::cout << "\nfinal accuracy: " << fmt(result.final_accuracy, 4)
              << "\nuplink: " << result.traffic.bytes_up / 1024
              << " KiB, downlink: " << result.traffic.bytes_down / 1024
              << " KiB, simulated comm: " << fmt(result.sim_comm_seconds, 2)
              << " s\n";
    if (result.config.faults.enabled()) {
      const auto& t = result.traffic;
      std::cout << "faults: drops=" << t.drops << " dups=" << t.duplicates
                << " reorders=" << t.reorders << " corruptions="
                << t.corruptions << " delays=" << t.delays << " retries="
                << t.retries << " crc_failures=" << t.crc_failures
                << " discards=" << t.discards << " gather_timeouts="
                << t.gather_timeouts << "\n";
    }
    if (cfg.secure_agg) {
      std::cout << "secure-agg: " << result.secagg_reconstructions
                << " pairwise-mask reconstruction(s), "
                << result.secagg_rounds_degraded << " degraded round(s)\n";
    }

    if (result.resumed_from_round > 0 || result.checkpoints_written > 0) {
      std::cout << "[ckpt] resumed after round " << result.resumed_from_round
                << ", wrote " << result.checkpoints_written
                << " checkpoint(s)\n";
    }

    if (report) {
      auto eval_model = appfl::core::build_model(cfg, split.test);
      const auto r = appfl::core::evaluate(*eval_model, result.final_parameters,
                                           split.test);
      std::cout << "\nper-class recall (balanced accuracy "
                << fmt(r.balanced_accuracy(), 4) << ", mean loss "
                << fmt(r.mean_loss, 4) << "):\n";
      for (std::size_t c = 0; c < r.per_class_recall.size(); ++c) {
        if (r.per_class_recall[c] >= 0.0) {
          std::cout << "  class " << c << ": "
                    << fmt(r.per_class_recall[c], 3) << "\n";
        }
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
