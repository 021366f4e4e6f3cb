// appfl_cli — full command-line front end to the framework.
//
//   ./build/examples/appfl_cli --dataset mnist --algorithm iiadmm
//       --rounds 10 --local-steps 2 --epsilon 10 --protocol grpc
//       --clients 4 --model mlp --csv out.csv   (one line)
//
// Every RunConfig knob is exposed; --help lists them. Unknown flags are
// rejected (typo protection).
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <limits>

#include "core/async_runner.hpp"
#include "core/event_engine.hpp"
#include "core/evaluation.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "hw/device.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

void print_help() {
  std::cout <<
      "appfl_cli — run a privacy-preserving federated learning experiment\n\n"
      "  --dataset NAME       mnist | cifar10 | femnist | coronahack (default mnist)\n"
      "  --algorithm NAME     fedavg | iceadmm | iiadmm | fedprox (default iiadmm)\n"
      "  --model NAME         mlp | cnn | logistic (default mlp)\n"
      "  --clients N          clients for the IID datasets (default 4)\n"
      "  --writers N          writers for femnist (default 16)\n"
      "  --per-client N       training samples per client (default 96)\n"
      "  --rounds T           communication rounds (default 10)\n"
      "  --local-steps L      local epochs per round (default 2)\n"
      "  --batch-size B       mini-batch size (default 64)\n"
      "  --lr X               FedAvg learning rate (default 0.05)\n"
      "  --momentum X         FedAvg momentum (default 0.9)\n"
      "  --rho X --zeta X     IADMM penalty/proximity (default 2.5 / 2.5)\n"
      "  --adaptive-rho       residual-balancing rho adaptation\n"
      "  --mu X               FedProx proximal coefficient (default 0.1)\n"
      "  --epsilon X          per-round DP budget; omit for non-private\n"
      "  --clip C             gradient clipping bound (default 1.0)\n"
      "  --fraction F         client sampling fraction (default 1.0)\n"
      "  --protocol NAME      mpi | grpc (default mpi)\n"
      "  --codec NAME         none | fp16 | quant8 | topk | int8 — lossy "
      "uplink codec\n"
      "  --secure-agg         Bonawitz-style masked aggregation: uploads are\n"
      "                       pairwise+self masked; dropouts are recovered\n"
      "                       via Shamir shares (fedavg/fedprox, codec none)\n"
      "  --secure-agg-threshold T  Shamir threshold t (default: majority of\n"
      "                       the round cohort; below t the round degrades)\n"
      "  --fault-drop P       per-message drop probability (default 0)\n"
      "  --fault-dup P        duplicate-delivery probability (default 0)\n"
      "  --fault-reorder P    queue-jumping probability (default 0)\n"
      "  --fault-corrupt P    payload bit-flip probability (default 0)\n"
      "  --fault-delay P      extra-latency probability (default 0)\n"
      "  --fault-delay-max S  max injected delay, sim-seconds (default 0.5)\n"
      "  --fault-dead LIST    comma-separated client ids that never answer\n"
      "  --gather-timeout S   server gather deadline, sim-seconds (default 30)\n"
      "  --kernel-backend B   auto | reference | tiled — tensor kernel engine\n"
      "  --kernel-threads N   intra-op kernel threads (0 = hardware)\n"
      "  --seed S             experiment seed (default 1)\n"
      "  --csv PATH           write the learning curve as CSV\n"
      "  --ckpt-dir PATH      A/B round-checkpoint store for crash recovery\n"
      "  --ckpt-every N       checkpoint cadence in rounds (default 1)\n"
      "  --resume PATH        resume from the newest valid checkpoint in PATH\n"
      "  --obs-level L        off | metrics | trace — observability plane\n"
      "  --trace-out PATH     Chrome trace JSON (requires --obs-level trace)\n"
      "  --metrics-out PATH   per-round JSONL stream (requires metrics/trace)\n"
      "  --critpath-out PATH  per-round critical-path JSONL (+ .csv sibling;\n"
      "                       requires --obs-level trace)\n"
      "  --health-out PATH    per-client health ledger CSV (requires\n"
      "                       metrics/trace)\n"
      "  --flight-dir DIR     flight-recorder dump directory (requires\n"
      "                       metrics/trace)\n"
      "  --report             print per-class recall of the final model\n"
      "  --quiet              suppress the per-round table\n"
      "\n"
      "Population mode (event-driven engine, sampled rounds over a lazy\n"
      "synthetic population; FedAvg/FedProx only):\n"
      "  --population N       total synthetic clients (enables the engine)\n"
      "  --participants K     sampled clients per round (default 100)\n"
      "  --tree-fanout F      leader/sub-leader aggregation tree fan-out;\n"
      "                       0 = flat gather (default 0; byte-identical\n"
      "                       result either way)\n"
      "  --mailbox-cap N      per-mailbox high-water mark, 0 = unbounded\n"
      "                       (overflowed sends are dropped and counted)\n"
      "\n"
      "Asynchronous mode (server absorbs updates as they arrive):\n"
      "  --async-strategy S   fedasync | fedbuff | fedcompass — enables the\n"
      "                       async runner (FedAvg local solver only)\n"
      "  --staleness-weight W constant | polynomial | hinge (default polynomial)\n"
      "  --buffer-k K         FedBuff: arrivals per commit (default 4)\n"
      "  --mixing-alpha X     base mixing rate in (0, 1] (default 0.6)\n"
      "  --total-updates N    async update budget (default rounds × clients)\n"
      "  --validate-every K   validate every K applied updates (0 = end only)\n"
      "  --fleet NAME         v100 | a100 | mixed — device fleet (default v100)\n"
      "                       The async fault model honors --fault-drop only.\n";
}

}  // namespace

int main(int argc, char** argv) {
  using appfl::util::fmt;
  const appfl::util::ArgParser args(argc, argv);
  if (args.has("help")) {
    print_help();
    return 0;
  }

  try {
    // -- Dataset ---------------------------------------------------------------
    const bool population_mode = args.has("population");
    const std::string dataset = args.get_string("dataset", "mnist");
    const std::size_t clients =
        static_cast<std::size_t>(args.get_int("clients", 4));
    const std::size_t per_client =
        static_cast<std::size_t>(args.get_int("per-client", 96));
    appfl::data::FederatedSplit split;
    if (population_mode) {
      // Population mode owns its (FEMNIST-style) data generator; the split
      // is never built. Conflicting dataset flags are caught below.
    } else if (dataset == "femnist") {
      appfl::data::FemnistSpec spec;
      spec.num_writers = static_cast<std::size_t>(args.get_int("writers", 16));
      spec.mean_samples_per_writer = per_client;
      spec.test_size = 256;
      spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
      split = appfl::data::femnist_like(spec);
    } else {
      appfl::data::SynthImageSpec spec;
      spec.num_clients = clients;
      spec.train_per_client = per_client;
      spec.test_size = 256;
      spec.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
      if (dataset == "mnist") {
        split = appfl::data::mnist_like(spec);
      } else if (dataset == "cifar10") {
        split = appfl::data::cifar10_like(spec);
      } else if (dataset == "coronahack") {
        split = appfl::data::coronahack_like(spec);
      } else {
        std::cerr << "unknown --dataset '" << dataset << "'\n";
        return 2;
      }
    }

    // -- Config ----------------------------------------------------------------
    appfl::core::RunConfig cfg;
    const std::string alg = args.get_string("algorithm", "iiadmm");
    if (alg == "fedavg") cfg.algorithm = appfl::core::Algorithm::kFedAvg;
    else if (alg == "iceadmm") cfg.algorithm = appfl::core::Algorithm::kIceAdmm;
    else if (alg == "iiadmm") cfg.algorithm = appfl::core::Algorithm::kIIAdmm;
    else if (alg == "fedprox") cfg.algorithm = appfl::core::Algorithm::kFedProx;
    else {
      std::cerr << "unknown --algorithm '" << alg << "'\n";
      return 2;
    }
    const std::string model = args.get_string("model", "mlp");
    if (model == "mlp") cfg.model = appfl::core::ModelKind::kMlp;
    else if (model == "cnn") cfg.model = appfl::core::ModelKind::kPaperCnn;
    else if (model == "logistic") cfg.model = appfl::core::ModelKind::kLogistic;
    else {
      std::cerr << "unknown --model '" << model << "'\n";
      return 2;
    }
    cfg.rounds = static_cast<std::size_t>(args.get_int("rounds", 10));
    cfg.local_steps = static_cast<std::size_t>(args.get_int("local-steps", 2));
    cfg.batch_size = static_cast<std::size_t>(args.get_int("batch-size", 64));
    cfg.lr = static_cast<float>(args.get_double("lr", 0.05));
    cfg.momentum = static_cast<float>(args.get_double("momentum", 0.9));
    cfg.rho = static_cast<float>(args.get_double("rho", 2.5));
    cfg.zeta = static_cast<float>(args.get_double("zeta", 2.5));
    cfg.adaptive_rho = args.get_bool("adaptive-rho", false);
    cfg.fedprox_mu = static_cast<float>(args.get_double("mu", 0.1));
    cfg.clip = static_cast<float>(args.get_double("clip", 1.0));
    cfg.epsilon = args.has("epsilon")
                      ? args.get_double("epsilon", 10.0)
                      : std::numeric_limits<double>::infinity();
    cfg.client_fraction = args.get_double("fraction", 1.0);
    const std::string protocol = args.get_string("protocol", "mpi");
    if (protocol == "mpi") cfg.protocol = appfl::comm::Protocol::kMpi;
    else if (protocol == "grpc") cfg.protocol = appfl::comm::Protocol::kGrpc;
    else {
      std::cerr << "unknown --protocol '" << protocol << "'\n";
      return 2;
    }
    const std::string codec = args.get_string("codec", "none");
    if (codec == "fp16") cfg.uplink_codec = appfl::comm::UplinkCodec::kFp16;
    else if (codec == "quant8") cfg.uplink_codec = appfl::comm::UplinkCodec::kQuant8;
    else if (codec == "topk") cfg.uplink_codec = appfl::comm::UplinkCodec::kTopK;
    else if (codec == "int8") cfg.uplink_codec = appfl::comm::UplinkCodec::kInt8Ef;
    else if (codec != "none") {
      std::cerr << "unknown --codec '" << codec << "'\n";
      return 2;
    }
    // -- Secure aggregation ------------------------------------------------
    // Queried unconditionally (unknown_flags() safety), cross-validated so
    // an orphan threshold or an impossible combination is a usage error.
    const bool secure_agg = args.get_bool("secure-agg", false);
    const bool has_secagg_threshold = args.has("secure-agg-threshold");
    const long secagg_threshold_raw = args.get_int("secure-agg-threshold", 0);
    if (has_secagg_threshold && !secure_agg) {
      std::cerr << "--secure-agg-threshold requires --secure-agg\n"
                   "(use --help)\n";
      return 2;
    }
    if (secure_agg) {
      if (args.has("algorithm") && alg != "fedavg" && alg != "fedprox") {
        std::cerr << "--secure-agg sums client primals exactly; ADMM "
                     "algorithms are not supported (use fedavg|fedprox)\n"
                     "(use --help)\n";
        return 2;
      }
      if (!args.has("algorithm") && !population_mode) {
        cfg.algorithm = appfl::core::Algorithm::kFedAvg;
      }
      if (codec != "none") {
        std::cerr << "--secure-agg quantizes uploads itself; lossy codecs "
                     "(--codec " << codec << ") cannot apply to masked "
                     "words\n(use --help)\n";
        return 2;
      }
      if (args.has("async-strategy")) {
        std::cerr << "--secure-agg needs a synchronized masking cohort; "
                     "--async-strategy is not supported\n(use --help)\n";
        return 2;
      }
      if (has_secagg_threshold && secagg_threshold_raw < 2) {
        std::cerr << "--secure-agg-threshold must be >= 2 (t=1 would let "
                     "the server open any single client's masks)\n"
                     "(use --help)\n";
        return 2;
      }
      cfg.secure_agg = true;
      cfg.secure_agg_threshold =
          static_cast<std::size_t>(secagg_threshold_raw);
    }

    cfg.faults.drop = args.get_double("fault-drop", 0.0);
    cfg.faults.duplicate = args.get_double("fault-dup", 0.0);
    cfg.faults.reorder = args.get_double("fault-reorder", 0.0);
    cfg.faults.corrupt = args.get_double("fault-corrupt", 0.0);
    cfg.faults.delay = args.get_double("fault-delay", 0.0);
    cfg.faults.delay_max_s = args.get_double("fault-delay-max", 0.5);
    {
      std::string dead = args.get_string("fault-dead", "");
      while (!dead.empty()) {
        const std::size_t comma = dead.find(',');
        const std::string tok = dead.substr(0, comma);
        if (!tok.empty()) {
          if (tok.find_first_not_of("0123456789") != std::string::npos) {
            std::cerr << "--fault-dead expects comma-separated client ids, "
                         "got '" << tok << "'\n(use --help)\n";
            return 2;
          }
          cfg.faults.dead.push_back(static_cast<std::uint32_t>(
              std::strtoul(tok.c_str(), nullptr, 10)));
        }
        dead = comma == std::string::npos ? "" : dead.substr(comma + 1);
      }
    }
    cfg.gather_timeout_s = args.get_double("gather-timeout", 30.0);
    cfg.kernel_backend = args.get_string("kernel-backend", "auto");
    if (cfg.kernel_backend != "auto" && cfg.kernel_backend != "reference" &&
        cfg.kernel_backend != "tiled") {
      std::cerr << "unknown --kernel-backend '" << cfg.kernel_backend << "'\n";
      return 2;
    }
    cfg.kernel_threads =
        static_cast<std::size_t>(args.get_int("kernel-threads", 0));
    cfg.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
    cfg.checkpoint_dir = args.get_string("ckpt-dir", "");
    cfg.resume_from = args.get_string("resume", "");
    if (args.has("ckpt-every")) {
      // Usage errors (exit 2) rather than the exception path: a cadence of
      // 0/negative/garbage must never silently become "checkpoint never".
      const auto v = args.value("ckpt-every");
      char* end = nullptr;
      const long parsed =
          v.has_value() ? std::strtol(v->c_str(), &end, 10) : 0;
      if (!v.has_value() || end == v->c_str() || *end != '\0' || parsed < 1) {
        std::cerr << "--ckpt-every expects a positive integer, got '"
                  << v.value_or("") << "'\n(use --help)\n";
        return 2;
      }
      cfg.checkpoint_every_n_rounds = static_cast<std::size_t>(parsed);
    }
    cfg.obs_level = args.get_string("obs-level", "off");
    if (cfg.obs_level != "off" && cfg.obs_level != "metrics" &&
        cfg.obs_level != "trace") {
      std::cerr << "unknown --obs-level '" << cfg.obs_level
                << "' (expected off|metrics|trace)\n(use --help)\n";
      return 2;
    }
    cfg.trace_out = args.get_string("trace-out", "");
    cfg.metrics_out = args.get_string("metrics-out", "");
    if (!cfg.trace_out.empty() && cfg.obs_level != "trace") {
      std::cerr << "--trace-out requires --obs-level trace\n(use --help)\n";
      return 2;
    }
    if (!cfg.metrics_out.empty() && cfg.obs_level == "off") {
      std::cerr << "--metrics-out requires --obs-level metrics or trace\n"
                   "(use --help)\n";
      return 2;
    }
    cfg.critpath_out = args.get_string("critpath-out", "");
    cfg.health_out = args.get_string("health-out", "");
    cfg.flight_dir = args.get_string("flight-dir", "");
    if (!cfg.critpath_out.empty() && cfg.obs_level != "trace") {
      std::cerr << "--critpath-out requires --obs-level trace\n(use --help)\n";
      return 2;
    }
    if (!cfg.health_out.empty() && cfg.obs_level == "off") {
      std::cerr << "--health-out requires --obs-level metrics or trace\n"
                   "(use --help)\n";
      return 2;
    }
    if (!cfg.flight_dir.empty() && cfg.obs_level == "off") {
      std::cerr << "--flight-dir requires --obs-level metrics or trace\n"
                   "(use --help)\n";
      return 2;
    }
    const bool quiet = args.get_bool("quiet", false);
    const bool report = args.get_bool("report", false);
    const std::string csv_path = args.get_string("csv", "");

    // -- Async mode --------------------------------------------------------
    // Every async flag is queried unconditionally (so unknown_flags() never
    // misfires on them), then cross-validated: async knobs without
    // --async-strategy are usage errors, never silently ignored.
    const bool async_mode = args.has("async-strategy");
    const std::string async_strategy_name =
        args.get_string("async-strategy", "");
    const bool has_staleness_weight = args.has("staleness-weight");
    const std::string staleness_weight_name =
        args.get_string("staleness-weight", "polynomial");
    const bool has_buffer_k = args.has("buffer-k");
    const auto buffer_k_raw = args.value("buffer-k");
    const bool has_mixing_alpha = args.has("mixing-alpha");
    const double mixing_alpha = args.get_double("mixing-alpha", 0.6);
    const bool has_total_updates = args.has("total-updates");
    const long total_updates_raw = args.get_int("total-updates", 0);
    const bool has_validate_every = args.has("validate-every");
    const long validate_every_raw = args.get_int("validate-every", 0);
    const bool has_fleet = args.has("fleet");
    const std::string fleet = args.get_string("fleet", "v100");

    // -- Population mode ---------------------------------------------------
    // Same pattern as async: every flag is queried unconditionally, then
    // cross-validated so orphans are usage errors rather than silent no-ops.
    const long population_raw = args.get_int("population", 0);
    const bool has_participants = args.has("participants");
    const long participants_raw = args.get_int("participants", 100);
    const bool has_tree_fanout = args.has("tree-fanout");
    const long tree_fanout_raw = args.get_int("tree-fanout", 0);
    const long mailbox_cap_raw = args.get_int("mailbox-cap", 0);
    if (mailbox_cap_raw < 0) {
      std::cerr << "--mailbox-cap must be >= 0 (0 = unbounded)\n"
                   "(use --help)\n";
      return 2;
    }
    // The mailbox cap is a general comm guardrail — valid for the flat
    // runner too, not only the population engine.
    cfg.mailbox_capacity = static_cast<std::size_t>(mailbox_cap_raw);
    if (!population_mode) {
      const char* orphan = has_participants  ? "--participants"
                           : has_tree_fanout ? "--tree-fanout"
                                             : nullptr;
      if (orphan != nullptr) {
        std::cerr << orphan << " requires --population\n(use --help)\n";
        return 2;
      }
    } else {
      if (args.has("async-strategy")) {
        std::cerr << "--population and --async-strategy are mutually "
                     "exclusive\n(use --help)\n";
        return 2;
      }
      if (args.has("dataset") || args.has("clients") || args.has("writers")) {
        std::cerr << "--population generates its own FEMNIST-style data; "
                     "--dataset/--clients/--writers do not apply\n"
                     "(use --help)\n";
        return 2;
      }
      if (args.has("fraction")) {
        std::cerr << "--fraction does not apply to --population; use "
                     "--participants K\n(use --help)\n";
        return 2;
      }
      if (!args.has("algorithm")) {
        cfg.algorithm = appfl::core::Algorithm::kFedAvg;
      } else if (alg != "fedavg" && alg != "fedprox") {
        std::cerr << "--population supports fedavg|fedprox only\n"
                     "(use --help)\n";
        return 2;
      }
      if (population_raw < 1 || participants_raw < 1 ||
          participants_raw > population_raw) {
        std::cerr << "--population/--participants must satisfy "
                     "1 <= participants <= population\n(use --help)\n";
        return 2;
      }
      if (tree_fanout_raw < 0 || tree_fanout_raw == 1) {
        std::cerr << "--tree-fanout must be 0 (flat) or >= 2\n"
                     "(use --help)\n";
        return 2;
      }
      cfg.population = static_cast<std::size_t>(population_raw);
      cfg.participants_per_round = static_cast<std::size_t>(participants_raw);
      cfg.tree_fan_out = static_cast<std::size_t>(tree_fanout_raw);
      if (report) {
        std::cerr << "--report is not supported with --population\n"
                     "(use --help)\n";
        return 2;
      }
    }

    appfl::core::AsyncConfig async_cfg;
    if (!async_mode) {
      const char* orphan = has_staleness_weight ? "--staleness-weight"
                           : has_buffer_k       ? "--buffer-k"
                           : has_mixing_alpha   ? "--mixing-alpha"
                           : has_total_updates  ? "--total-updates"
                           : has_validate_every ? "--validate-every"
                           : has_fleet          ? "--fleet"
                                                : nullptr;
      if (orphan != nullptr) {
        std::cerr << orphan << " requires --async-strategy\n(use --help)\n";
        return 2;
      }
    } else {
      if (args.has("algorithm") && alg != "fedavg") {
        std::cerr << "--async-strategy runs the FedAvg local solver; "
                     "--algorithm " << alg << " is not supported\n"
                     "(use --help)\n";
        return 2;
      }
      cfg.algorithm = appfl::core::Algorithm::kFedAvg;
      const auto kind = appfl::core::parse_async_strategy(async_strategy_name);
      if (!kind.has_value()) {
        std::cerr << "unknown --async-strategy '" << async_strategy_name
                  << "' (expected fedasync|fedbuff|fedcompass)\n"
                     "(use --help)\n";
        return 2;
      }
      async_cfg.strategy.kind = *kind;
      const auto weight =
          appfl::core::parse_staleness_weight(staleness_weight_name);
      if (!weight.has_value()) {
        std::cerr << "unknown --staleness-weight '" << staleness_weight_name
                  << "' (expected constant|polynomial|hinge)\n"
                     "(use --help)\n";
        return 2;
      }
      async_cfg.strategy.weight = *weight;
      if (has_buffer_k) {
        char* end = nullptr;
        const long parsed = buffer_k_raw.has_value()
                                ? std::strtol(buffer_k_raw->c_str(), &end, 10)
                                : 0;
        if (!buffer_k_raw.has_value() || end == buffer_k_raw->c_str() ||
            *end != '\0' || parsed < 1) {
          std::cerr << "--buffer-k expects a positive integer, got '"
                    << buffer_k_raw.value_or("") << "'\n(use --help)\n";
          return 2;
        }
        async_cfg.strategy.buffer_k = static_cast<std::size_t>(parsed);
      }
      if (!(mixing_alpha > 0.0 && mixing_alpha <= 1.0)) {
        std::cerr << "--mixing-alpha must be in (0, 1], got " << mixing_alpha
                  << "\n(use --help)\n";
        return 2;
      }
      async_cfg.mixing_alpha = static_cast<float>(mixing_alpha);
      if (total_updates_raw < 0 || validate_every_raw < 0) {
        std::cerr << "--total-updates / --validate-every must be >= 0\n"
                     "(use --help)\n";
        return 2;
      }
      async_cfg.total_updates = static_cast<std::size_t>(total_updates_raw);
      async_cfg.validate_every = static_cast<std::size_t>(validate_every_raw);
      if (fleet == "v100") {
        async_cfg.devices = {appfl::hw::v100()};
      } else if (fleet == "a100") {
        async_cfg.devices = {appfl::hw::a100()};
      } else if (fleet == "mixed") {
        async_cfg.devices = {appfl::hw::a100(), appfl::hw::v100()};
      } else {
        std::cerr << "unknown --fleet '" << fleet
                  << "' (expected v100|a100|mixed)\n(use --help)\n";
        return 2;
      }
      if (report || codec != "none") {
        std::cerr << "--report/--codec are not supported with "
                     "--async-strategy\n(use --help)\n";
        return 2;
      }
    }

    const auto unknown = args.unknown_flags();
    if (!unknown.empty()) {
      std::cerr << "unknown flag(s):";
      for (const auto& f : unknown) std::cerr << " --" << f;
      std::cerr << "\n(use --help)\n";
      return 2;
    }

    // -- Run (population engine) -------------------------------------------
    if (population_mode) {
      cfg = appfl::core::scaling_config_from_env(cfg);
      appfl::data::FemnistSpec spec;
      spec.num_writers = cfg.population;
      spec.mean_samples_per_writer = per_client;
      spec.test_size = 256;
      spec.seed = cfg.seed;
      const appfl::data::SyntheticPopulation pop(spec);
      std::cout << "appfl_cli: " << appfl::core::to_string(cfg.algorithm)
                << " population engine (" << cfg.population << " clients, "
                << cfg.participants_per_round << " sampled/round, "
                << (cfg.tree_fan_out == 0
                        ? std::string("flat gather")
                        : "tree fan-out " + std::to_string(cfg.tree_fan_out))
                << ", " << appfl::comm::to_string(cfg.protocol) << ")\n\n";
      const auto result = appfl::core::run_population(cfg, pop);

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
    if (async_mode) {
      async_cfg.run = cfg;
      std::cout << "appfl_cli: async " << async_strategy_name << " ("
                << staleness_weight_name << " staleness weighting) on "
                << split.name << " (" << split.num_clients() << " clients, "
                << fleet << " fleet)\n\n";
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
    if (appfl::comm::fault_config_from_env(cfg.faults).enabled()) {
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
