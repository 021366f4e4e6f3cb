// Run configuration for a federated experiment — the knobs of §IV-A/B:
// algorithm, model, rounds T, local steps L, batch size, optimizer and ADMM
// hyper-parameters, privacy budget ε, and communication protocol.
#pragma once

#include <cstdint>
#include <limits>
#include <string>

#include "comm/communicator.hpp"
#include "nn/sgd.hpp"
#include "obs/obs.hpp"

namespace appfl::core {

enum class Algorithm {
  kFedAvg,   // McMahan et al. 2017; SGD+momentum local solver
  kIceAdmm,  // Zhou & Li 2021; full-batch, ships primal + dual
  kIIAdmm,   // this paper (Algorithm 1); batched, ships primal only
  kFedProx,  // Li et al. 2020; FedAvg + proximal pull (extension)
};

std::string to_string(Algorithm a);

enum class ModelKind {
  kPaperCnn,  // the paper's 2-conv CNN (§IV-A)
  kMlp,       // one-hidden-layer MLP (fast stand-in for scaled-down runs)
  kLogistic,  // convex instance, used by convergence tests
};

enum class DpMode {
  kOutput,    // the paper's §III-B scheme: perturb z_p before sending
  kGradient,  // extension: perturb every clipped batch gradient (DP-SGD
              // style); the per-round ε splits evenly over the local steps
};

struct RunConfig {
  Algorithm algorithm = Algorithm::kFedAvg;
  ModelKind model = ModelKind::kMlp;
  std::size_t mlp_hidden = 64;

  std::size_t rounds = 10;       // T communication rounds
  std::size_t local_steps = 2;   // L local epochs per round
  std::size_t batch_size = 64;   // ≤64 per the paper; ICEADMM ignores this

  // FedAvg local solver. The schedule decays the base lr over rounds
  // (constant by default); weight decay is decoupled L2.
  float lr = 0.05F;
  float momentum = 0.9F;
  float weight_decay = 0.0F;
  nn::LrSchedule lr_schedule = nn::LrSchedule::kConstant;

  // FedProx proximal coefficient μ ≥ 0 (0 recovers FedAvg).
  float fedprox_mu = 0.1F;

  // IADMM-family hyper-parameters (eq. (4)).
  float rho = 5.0F;   // penalty ρ
  float zeta = 5.0F;  // proximity ζ

  // Adaptive penalty ρ^t (paper future work 2; residual balancing after
  // Boyd §3.4.1 / Xu et al.). The server adapts ρ from the primal/dual
  // residuals and broadcasts the value in force with each global model, so
  // server- and client-side arithmetic stays consistent.
  bool adaptive_rho = false;
  float adapt_tau = 2.0F;    // multiplicative step when residuals unbalance
  float adapt_mu = 10.0F;    // imbalance threshold ‖r‖ vs ‖s‖
  float rho_min = 0.1F;      // adaptation clamp
  float rho_max = 100.0F;

  // Differential privacy (§III-B). clip == 0 disables gradient clipping;
  // epsilon == ∞ disables perturbation.
  float clip = 1.0F;
  double epsilon = std::numeric_limits<double>::infinity();
  DpMode dp_mode = DpMode::kOutput;

  comm::Protocol protocol = comm::Protocol::kMpi;
  std::uint64_t seed = 1;

  /// Lossy uplink compression applied inside the communicator. Restricted
  /// to FedAvg/FedProx: the IADMM family's server-side dual replicas would
  /// silently diverge under lossy reconstruction. The async runners have no
  /// communicator and reject it.
  comm::UplinkCodec uplink_codec = comm::UplinkCodec::kNone;
  double topk_fraction = 0.1;

  /// FedAvg aggregation weights: I_p/I when true (objective (1)), 1/P when
  /// false (Algorithm 1's plain average). IADMM servers always use 1/P.
  bool weighted_aggregation = true;

  /// Fraction of clients sampled each round (McMahan et al.'s C parameter).
  /// 1.0 = full participation (the paper's setting). With f < 1 the runner
  /// draws ⌈f·P⌉ distinct clients per round from a seed-derived stream;
  /// FedAvg averages that round's participants, the IADMM servers update
  /// only the participants' (z_p, λ_p) and keep the rest.
  double client_fraction = 1.0;

  /// Population engine (core/event_engine.hpp). population > 0 switches
  /// run_population on: each round samples `participants_per_round` distinct
  /// clients from a `population`-sized lazy synthetic population
  /// (data::SyntheticPopulation) and drives them through the discrete-event
  /// scheduler instead of thread-per-client. Restricted to FedAvg/FedProx
  /// with the codec off (participants are transient, so server-side dual
  /// replicas and per-client codec residuals have nowhere to live) and
  /// adaptive_rho off. run_federated ignores these fields; run_async and
  /// run_async_iiadmm reject population > 0.
  std::size_t population = 0;
  std::size_t participants_per_round = 0;

  /// Aggregation-tree fan-out for the population engine: 0 = flat gather
  /// (every participant feeds the server root directly), F >= 2 = a
  /// leader/sub-leader tree with F children per node (core/agg_tree.hpp).
  /// Routing and simulated cost change; the reduced model is byte-identical
  /// either way.
  std::size_t tree_fan_out = 0;

  /// Per-mailbox high-water mark handed to the communicator / engine
  /// network (0 = unbounded; see comm::ReliabilityConfig::mailbox_capacity).
  /// The population engine requires 0 or >= the tree's maximum fan-in, so
  /// backpressure can never decide which participant's update survives.
  std::size_t mailbox_capacity = 0;

  /// Dropout-resilient secure aggregation (dp/secure_agg.hpp): clients
  /// upload double-masked fixed-point updates plus Shamir share packets;
  /// the server recovers the exact survivor sum as long as at least
  /// `secure_agg_threshold` uploads arrive, and otherwise degrades the
  /// round to a counted skip (model unchanged). Restricted to
  /// FedAvg/FedProx with the uplink codec off (masked words are opaque
  /// bit patterns — lossy codecs would destroy them; ADMM servers need
  /// per-client updates the masked sum cannot provide). Implemented by the
  /// sync runner and the population engine only: run_async,
  /// run_async_iiadmm and run_decentralized reject it rather than run
  /// unmasked. Off by default; when off every code path is bit-identical to
  /// a build without the feature.
  bool secure_agg = false;
  /// Shamir reconstruction threshold t (2 <= t <= round cohort size).
  /// 0 = auto: majority of the round's cohort (⌊n/2⌋ + 1).
  std::size_t secure_agg_threshold = 0;

  std::size_t validate_batch = 256;
  bool validate_every_round = true;

  /// Fault injection on the in-process network (comm robustness plane).
  /// All-zero (the default) keeps the injector off; wire bytes, sim-clock
  /// times, and results are then bit-identical to a fault-free build.
  /// Client endpoint ids listed in faults.dead are permanently failed.
  comm::FaultConfig faults;
  /// Sim-seconds the server's deadline gather waits before proceeding with
  /// whatever arrived (fault plane only).
  double gather_timeout_s = 30.0;
  /// Uplink retransmit policy (fault plane only): base ack timeout that
  /// doubles per retry up to max_uplink_retries attempts.
  double ack_timeout_s = 0.25;
  std::size_t max_uplink_retries = 4;

  /// Crash recovery (core/checkpoint.hpp, RunCheckpoints). An empty
  /// checkpoint_dir (the default) disables checkpointing entirely, leaving
  /// the run bit-identical to a checkpoint-less build; otherwise
  /// run_federated, run_population and the async runners write a checkpoint
  /// to the directory's A/B slot store every checkpoint_every_n_rounds
  /// rounds (applied updates for async), at the last one, and at the halt
  /// point. resume_from names a store directory whose newest valid
  /// checkpoint is restored before the first round — the resumed run
  /// continues to a bit-identical final model.
  std::string checkpoint_dir;
  std::size_t checkpoint_every_n_rounds = 1;
  std::string resume_from;
  /// Chaos-harness hook: stop after completing (and, when a store is
  /// configured, checkpointing) round k — WITHOUT changing `rounds`, so
  /// round-count-dependent lr schedules stay pinned to the full run.
  /// 0 = run to completion. The async runner reads it as "halt after k
  /// applied updates".
  std::size_t halt_after_round = 0;

  /// Kernel engine threads (tensor/gemm.hpp): 0 keeps the process-wide
  /// setting (default: hardware concurrency). run_federated,
  /// run_population, the async runners and run_decentralized each apply it
  /// once at their start; the kernel pool is shared process-wide and nested
  /// inside the runner's per-client parallelism (clients outer, kernels
  /// inner).
  std::size_t kernel_threads = 0;

  /// Observability plane (src/obs). obs_level selects how much the run
  /// records: "off" (default — zero instrumentation, output bit-identical
  /// to a build without the plane), "metrics" (registry counters and
  /// histograms only), "trace" (metrics plus per-phase spans exported as
  /// Chrome trace JSON). trace_out names the trace file (requires "trace");
  /// metrics_out names a JSONL stream with one line per round plus a final
  /// summary (requires at least "metrics"). The plane only reads clocks
  /// and counters — never RNG, sim time, or wire bytes — so enabling it
  /// does not change results.
  std::string obs_level = "off";
  std::string trace_out;
  std::string metrics_out;
  /// Causal-analysis outputs (same level rules): health_out writes the
  /// per-client health ledger CSV at end of run (requires at least
  /// "metrics"); critpath_out writes the critical-path analyzer's per-round
  /// JSONL plus a `.csv` sibling (requires "trace" — the analyzer consumes
  /// span records); flight_dir names a directory the flight recorder dumps
  /// into on secure-agg degraded rounds, unfillable gathers, and
  /// fatal-signal/terminate hooks (requires at least "metrics").
  std::string health_out;
  std::string critpath_out;
  std::string flight_dir;

  /// Per-round DP sensitivity Δ̄ for this config (algorithm-dependent).
  double sensitivity() const;

  /// Throws appfl::Error on inconsistent settings.
  void validate() const;
};

}  // namespace appfl::core
