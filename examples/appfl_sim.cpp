// appfl_sim — what-if simulator over the calibrated hardware and network
// cost models ("a scalable simulation capability is necessary for PPFL
// packages", paper §I). Predicts per-round and total times for a planned
// deployment without running any training.
//
//   ./build/examples/appfl_sim --clients 203 --ranks 16 --model-mb 26
//       --rounds 50 --device v100 --samples 180 --local-steps 10
#include <cmath>
#include <iostream>

#include "comm/cost_model.hpp"
#include "hw/device.hpp"
#include "hw/placement.hpp"
#include "nn/model_zoo.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

void print_help() {
  std::cout <<
      "appfl_sim — predict federated round times from the calibrated models\n\n"
      "  --clients N       logical FL clients (default 203)\n"
      "  --ranks R         MPI processes hosting them (default 16)\n"
      "  --model-mb M      model update size in MB (default 26)\n"
      "  --rounds T        communication rounds (default 50)\n"
      "  --device NAME     a100 | v100 (default v100)\n"
      "  --samples N       training samples per client (default 180)\n"
      "  --local-steps L   local epochs per round (default 10)\n"
      "  --grpc-streams S  concurrent server streams for gRPC (default 8)\n";
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
    const std::size_t clients =
        static_cast<std::size_t>(args.get_int("clients", 203));
    const std::size_t ranks =
        static_cast<std::size_t>(args.get_int("ranks", 16));
    const double model_mb = args.get_double("model-mb", 26.0);
    const std::size_t rounds =
        static_cast<std::size_t>(args.get_int("rounds", 50));
    const std::string device_name = args.get_string("device", "v100");
    const std::size_t samples =
        static_cast<std::size_t>(args.get_int("samples", 180));
    const std::size_t local_steps =
        static_cast<std::size_t>(args.get_int("local-steps", 10));
    const std::size_t streams =
        static_cast<std::size_t>(args.get_int("grpc-streams", 8));
    const auto unknown = args.unknown_flags();
    if (!unknown.empty()) {
      std::cerr << "unknown flag(s):";
      for (const auto& f : unknown) std::cerr << " --" << f;
      std::cerr << "\n(use --help)\n";
      return 2;
    }
    const appfl::hw::DeviceProfile device =
        device_name == "a100" ? appfl::hw::a100() : appfl::hw::v100();
    const std::size_t payload =
        static_cast<std::size_t>(model_mb * 1e6);

    // Compute side: FLOPs scaled from the calibrated FEMNIST reference.
    const double ref_flops = appfl::hw::reference_femnist_local_update_flops();
    const double flops = ref_flops * static_cast<double>(samples) / 180.0 *
                         static_cast<double>(local_steps) / 10.0;
    const appfl::hw::Placement placement{clients, ranks, 6};
    const double compute_s =
        appfl::hw::round_compute_seconds(placement, device, flops);

    // Communication side.
    appfl::comm::MpiCostModel mpi;
    appfl::comm::GrpcCostModel grpc;
    grpc.server_streams = streams;
    const std::size_t per_rank_payload =
        placement.max_clients_per_rank() * payload;
    const double mpi_round =
        mpi.broadcast_seconds(ranks, payload) +
        mpi.gather_seconds(ranks, per_rank_payload);
    // gRPC: every client transfers individually (expected jitter folded in
    // as the lognormal mean e^{σ²/2} plus the congestion tail).
    const double jitter_mean =
        (1.0 - grpc.congestion_prob) * std::exp(0.5 * grpc.jitter_sigma *
                                                grpc.jitter_sigma) +
        grpc.congestion_prob * 0.5 *
            (grpc.congestion_min + grpc.congestion_max);
    const double per_transfer =
        grpc.base_transfer_seconds(payload) * jitter_mean;
    const double grpc_round =
        2.0 * (per_transfer * static_cast<double>(clients) /
                   static_cast<double>(streams) +
               per_transfer);

    std::cout << "appfl_sim: " << clients << " clients on " << ranks
              << " ranks (" << placement.num_nodes() << " nodes), "
              << device.name << ", " << fmt(model_mb, 1) << " MB updates, "
              << rounds << " rounds\n\n";
    appfl::util::TextTable table({"quantity", "MPI", "gRPC"});
    table.add_row({"compute / round (s)", fmt(compute_s, 2), fmt(compute_s, 2)});
    table.add_row({"comm / round (s)", fmt(mpi_round, 2), fmt(grpc_round, 2)});
    table.add_row({"comm share (%)",
                   fmt(100.0 * mpi_round / (mpi_round + compute_s), 1),
                   fmt(100.0 * grpc_round / (grpc_round + compute_s), 1)});
    table.add_row({"total (h)",
                   fmt(rounds * (compute_s + mpi_round) / 3600.0, 2),
                   fmt(rounds * (compute_s + grpc_round) / 3600.0, 2)});
    table.add_row(
        {"uplink / round (GB)",
         fmt(static_cast<double>(clients) * payload / 1e9, 2),
         fmt(static_cast<double>(clients) * payload / 1e9, 2)});
    table.print(std::cout);
    std::cout << "\n(models calibrated to the paper's Summit anchors; see\n"
                 " DESIGN.md — treat absolute values as planning estimates.)\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
