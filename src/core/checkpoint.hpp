// Checkpointing: resumable training snapshots on disk.
//
// A `RoundCheckpoint` (sync runner and population engine) or an
// `AsyncCheckpoint` (async event loop) is a snapshot taken at a round or
// update boundary, carrying everything a killed process needs to continue
// the run to a bit-identical result: global parameters, server-optimizer
// state (FedOpt moments), per-client ADMM primal/dual replicas, data-loader
// epoch counters, the client-sampler RNG state, DP budget spent, fault-plane
// link counters, and the simulated clock. Payloads are sealed in the comm
// plane's CRC32 envelope (comm/envelope.hpp), so disk corruption is
// detected exactly like wire corruption.
//
// Persistence is crash-consistent via `CheckpointStore`: write-to-temp +
// flush + fsync + atomic rename into a two-slot A/B layout, so a crash at
// ANY instant — including mid-save — always leaves the newest
// previously-completed checkpoint loadable. Recovery scans both slots,
// loads the newest valid one and quarantines torn/corrupt slots with a
// counted diagnostic instead of throwing.
//
// `RunCheckpoints` is the checkpoint plane every resumable loop shares: it
// resolves the run's policy, opens the store, resumes, and decides when to
// save and when to halt.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"

namespace appfl::core {

struct RunConfig;


/// Per-client resumable state. The algorithm-specific vectors are filled by
/// BaseClient::export_state overrides (empty when the algorithm keeps no
/// such state client-side).
struct ClientStateCkpt {
  std::uint32_t id = 0;            // 1-based endpoint id
  std::uint64_t loader_epochs = 0; // DataLoader epochs consumed so far
  std::vector<float> primal;       // ICEADMM's persistent local z_p
  std::vector<float> dual;         // ADMM family's persistent local λ_p
  double dp_spent = 0.0;           // cumulative ε spent by this client

  bool operator==(const ClientStateCkpt&) const = default;
};

/// Server-side resumable state; filled by BaseServer::export_state
/// overrides. `kind` names the exporting server ("fedavg", "iceadmm",
/// "iiadmm", "fedopt") and is cross-checked on import so a checkpoint never
/// restores into the wrong algorithm.
struct ServerStateCkpt {
  std::string kind;
  double rho = 0.0;                          // ρ^t in force (adaptive-ρ)
  std::vector<std::vector<float>> primal;    // per-client z_p replicas
  std::vector<std::vector<float>> dual;      // per-client λ_p replicas
  std::vector<std::uint64_t> sample_counts;  // FedAvg I_p
  std::vector<std::uint64_t> participants;   // FedAvg last responders
  std::vector<float> opt_w;                  // FedOpt server-held w
  std::vector<float> opt_m;                  // FedOpt first moment
  std::vector<float> opt_v;                  // FedOpt second moment

  bool operator==(const ServerStateCkpt&) const = default;
};

/// Communication-plane state that survives a restart: the simulated clock,
/// the cumulative traffic/fault ledger, the fault injector's per-link
/// sequence counters and the int8 error-feedback residuals.
using CommStateCkpt = comm::Communicator::PersistentState;

/// A full resumable snapshot at a synchronous round boundary.
struct RoundCheckpoint {
  std::uint32_t format_version = 2;
  std::string algorithm;           // to_string(config.algorithm), diagnostic
  std::uint64_t seed = 0;          // run fingerprint ↓ — checked on resume
  std::uint32_t num_clients = 0;
  std::uint64_t param_count = 0;
  std::uint32_t total_rounds = 0;  // lr schedules depend on T, so T must match
  std::uint32_t rounds_completed = 0;
  std::vector<float> parameters;   // the round's broadcast w (inspection)
  ServerStateCkpt server;
  std::vector<ClientStateCkpt> clients;
  std::array<std::uint64_t, 4> sampler_state{};  // client-sampling stream
  CommStateCkpt comm;

  // Population-engine extension (core/event_engine). All encoded as optional
  // tags that pre-population decoders skip as unknown fields, so
  // format_version stays 2. `population == 0` means a classic sync-runner
  // checkpoint. Clients in a population run are transient (rebuilt per
  // participation), so `clients` stays empty there; per-client DP spend is
  // carried by `participation` (id → rounds participated) instead.
  std::uint64_t population = 0;
  std::uint32_t participants_per_round = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> participation;

  bool operator==(const RoundCheckpoint&) const = default;
};

/// A resumable snapshot at an asynchronous update boundary (run_async).
struct AsyncCheckpoint {
  std::uint32_t format_version = 2;
  std::uint64_t seed = 0;
  std::uint32_t num_clients = 0;
  std::uint64_t param_count = 0;
  std::uint64_t total_updates = 0;
  std::uint64_t applied_updates = 0;
  std::uint64_t version = 0;           // server model version
  std::uint64_t dispatch_counter = 0;
  double staleness_sum = 0.0;
  double sim_seconds = 0.0;
  std::vector<float> w;                // server-held global model
  std::array<std::uint64_t, 4> jitter_state{};
  struct Pending {
    double finish_time = 0.0;
    std::uint32_t client = 0;          // 1-based
    std::uint64_t version = 0;         // version the client trained on
    bool operator==(const Pending&) const = default;
  };
  std::vector<Pending> queue;          // in-flight dispatches
  std::vector<std::vector<float>> in_flight;  // payloads computed at dispatch
  std::vector<ClientStateCkpt> clients;

  // Strategy-resumable state. All encoded as optional tags that pre-strategy
  // decoders skip as unknown fields, so format_version stays 2. An empty
  // `strategy` means a legacy checkpoint: FedAsync with polynomial weighting
  // (the only scheme that existed when those files were written).
  std::string strategy;                // "fedasync"|"fedbuff"|"fedcompass"|
                                       // "iiadmm"; cross-checked on resume
  std::vector<std::vector<float>> buffer;  // FedBuff: buffered deltas
  std::vector<float> buffer_weights;       // FedBuff: α_s per buffered delta
  std::vector<std::uint64_t> assigned_steps;  // FedCompass per-client steps
  std::uint64_t dropped_updates = 0;   // fault-plane ledger
  std::array<std::uint64_t, 4> fault_rng{};   // drop stream; all-zero = unused
  std::vector<std::vector<float>> server_primal;  // IIADMM z_p replicas
  std::vector<std::vector<float>> server_dual;    // IIADMM λ_p replicas
  std::vector<std::vector<float>> w_sent;  // IIADMM per-client broadcast w

  bool operator==(const AsyncCheckpoint&) const = default;
};

/// Serializes to protolite bytes sealed in the CRC32 envelope. decode_*
/// throws appfl::Error on a bad checksum, malformed body, a flavor
/// mismatch (sync vs async), or an unsupported format version — never
/// crashes (fuzzed in tests/test_fuzz.cpp).
std::vector<std::uint8_t> encode_round_checkpoint(const RoundCheckpoint& ckpt);
RoundCheckpoint decode_round_checkpoint(std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> encode_async_checkpoint(const AsyncCheckpoint& ckpt);
AsyncCheckpoint decode_async_checkpoint(std::span<const std::uint8_t> bytes);

/// Crash-consistent two-slot (A/B) checkpoint directory.
///
/// save() alternates between the slots, always overwriting the OLDER one,
/// via temp file + flush + fsync + atomic rename — so at every instant at
/// least one slot holds a complete previously-saved checkpoint. load_latest()
/// scans both slots and returns the newest valid payload; slots that are
/// torn, truncated, checksum-damaged, or rejected by the caller's validator
/// are renamed to `<slot>.quarantined` and counted in report(), never fatal.
class CheckpointStore {
 public:
  /// Opaque payload validator (e.g. "does this decode as a RoundCheckpoint
  /// for my run"). Must return false — not throw — to reject.
  using Validator = std::function<bool(std::span<const std::uint8_t>)>;

  struct Loaded {
    std::vector<std::uint8_t> payload;
    std::uint64_t sequence = 0;
    std::string slot;  // filename the payload came from
  };

  struct Report {
    std::size_t corrupt_quarantined = 0;
    std::vector<std::string> diagnostics;
  };

  /// Creates `dir` if missing and scans existing slots to decide which one
  /// the next save overwrites. Throws appfl::Error if the directory cannot
  /// be created.
  explicit CheckpointStore(std::string dir);

  /// Persists `payload` under monotonically increasing `sequence` (the
  /// round / update counter). Throws appfl::Error on I/O failure; on any
  /// failure or crash the previously saved slot remains intact.
  void save(std::span<const std::uint8_t> payload, std::uint64_t sequence);

  /// Newest valid slot's payload, or nullopt when no slot is loadable.
  /// Invalid slots are quarantined and counted in report().
  std::optional<Loaded> load_latest(const Validator& valid = nullptr);

  const Report& report() const { return report_; }
  const std::string& dir() const { return dir_; }

  static constexpr const char* kSlotA = "slot_a.ckpt";
  static constexpr const char* kSlotB = "slot_b.ckpt";

 private:
  struct Slot {
    bool present = false;
    bool valid = false;
    std::uint64_t sequence = 0;
    std::vector<std::uint8_t> payload;
    std::string why;  // diagnostic when invalid
  };
  Slot read_slot(const char* name, const Validator& valid) const;
  void quarantine(const char* name, const std::string& why);

  std::string dir_;
  Report report_;
  int write_slot_ = 0;  // 0 ⇒ kSlotA next, 1 ⇒ kSlotB next
};

/// Newest slot that decodes as the given flavor, or nullopt.
std::optional<RoundCheckpoint> load_latest_round_checkpoint(
    CheckpointStore& store);
std::optional<AsyncCheckpoint> load_latest_async_checkpoint(
    CheckpointStore& store);

/// The checkpoint plane of one run, shared by run_federated, run_population
/// and the async event loop. It reads the policy from the run's resolved
/// config and opens the A/B store when a directory is set. A sequence number
/// is a completed round, or an applied update for async. Fingerprint checks
/// and state import stay with each loop.
class RunCheckpoints {
 public:
  explicit RunCheckpoints(const RunConfig& config);

  /// The snapshot to resume from: nullopt without resume_from. Resuming
  /// from the save directory goes through the save store, so the next save
  /// overwrites the slot NOT loaded from. Recovery diagnostics go to stderr;
  /// throws appfl::Error when resume_from holds no loadable checkpoint.
  std::optional<RoundCheckpoint> resume_round();
  std::optional<AsyncCheckpoint> resume_async();

  /// Saves `encode()`'s payload under `seq` when a store is open and `seq`
  /// is on the cadence, the run's last (`last`), or the halt point. The
  /// `ckpt.save` span covers `encode`, so state export and encoding count
  /// as checkpoint time.
  void maybe_save(std::uint64_t seq, std::uint64_t last,
                  const std::function<std::vector<std::uint8_t>()>& encode);

  /// True when the chaos hook (halt_after_round) stops the run after `seq`.
  bool halts_at(std::uint64_t seq) const {
    return halt_after_ > 0 && seq == halt_after_;
  }

  std::size_t written() const { return written_; }

 private:
  template <class Ckpt>
  std::optional<Ckpt> resume(std::optional<Ckpt> (*load)(CheckpointStore&));

  std::string dir_;
  std::size_t every_ = 1;
  std::string resume_from_;
  std::uint64_t halt_after_ = 0;
  std::optional<CheckpointStore> store_;
  std::size_t written_ = 0;
};

}  // namespace appfl::core
