// Checkpointing: resumable training snapshots on disk.
//
// A `RunCheckpoint` is a snapshot taken at a round boundary (sync runner,
// population engine) or an applied-update boundary (async event loop),
// carrying everything a killed process needs to continue the run to a
// bit-identical result: global parameters, server-optimizer state (FedOpt
// moments), per-client ADMM primal/dual replicas, data-loader epoch
// counters, the loop's sequential RNG stream, DP budget spent, fault-plane
// link counters, and the simulated clock. Both flavors share one record and
// one protolite tag space, so one decoder reads every file. Payloads are
// sealed in the comm plane's CRC32 envelope (comm/envelope.hpp), so disk
// corruption is detected exactly like wire corruption.
//
// Persistence is crash-consistent via `CheckpointStore`: write-to-temp +
// flush + fsync + atomic rename into a two-slot A/B layout, so a crash at
// ANY instant — including mid-save — always leaves the newest
// previously-completed checkpoint loadable. Recovery scans both slots,
// loads the newest valid one and quarantines torn/corrupt slots with a
// counted diagnostic instead of throwing.
//
// `RunCheckpoints` is the checkpoint plane every resumable loop shares: it
// resolves the run's policy, opens the store, stamps and checks the run's
// fingerprint, resumes, and decides when to save and when to halt.
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
using CommStateCkpt = comm::CommState;

/// What a checkpoint must share with the run that resumes it. RunCheckpoints
/// stamps it on every save and resumes only a checkpoint that carries the
/// same one.
struct RunFingerprint {
  /// Which kind of loop wrote it; the values are the wire tag's.
  enum class Flavor : std::uint8_t { kRound = 1, kAsync = 2 };

  Flavor flavor = Flavor::kRound;
  std::uint64_t seed = 0;
  std::uint32_t num_clients = 0;  // clients, or the population size
  /// The population engine's cohort size; 0 marks the sync runner and the
  /// async loop.
  std::uint32_t participants_per_round = 0;
  std::uint64_t param_count = 0;
  std::uint64_t total = 0;  // rounds (lr schedules depend on T), or the
                            // async update budget

  bool operator==(const RunFingerprint&) const = default;
};

/// A resumable snapshot of one run. The fingerprint, `algorithm` and
/// `completed` are stamped by RunCheckpoints; the loop fills the rest.
/// Round-flavor fields stay empty in async snapshots and vice versa.
struct RunCheckpoint {
  std::uint32_t format_version = 2;
  RunFingerprint fingerprint;
  std::string algorithm;            // to_string(config.algorithm), diagnostic
  std::uint64_t completed = 0;      // rounds completed, or updates applied
  std::vector<float> parameters;    // the round's broadcast w, or the async
                                    // server's w
  std::vector<ClientStateCkpt> clients;
  std::array<std::uint64_t, 4> rng_state{};  // client sampler, or async
                                             // dispatch jitter

  // Round flavor. Clients in a population run are transient (rebuilt per
  // participation), so `clients` stays empty there; per-client DP spend is
  // carried by `participation` (id → rounds participated) instead.
  ServerStateCkpt server;
  CommStateCkpt comm;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> participation;

  // Async flavor.
  std::uint64_t version = 0;           // server model version
  std::uint64_t dispatch_counter = 0;
  double staleness_sum = 0.0;
  double sim_seconds = 0.0;
  struct Pending {
    double finish_time = 0.0;
    std::uint32_t client = 0;          // 1-based
    std::uint64_t version = 0;         // version the client trained on
    bool operator==(const Pending&) const = default;
  };
  std::vector<Pending> queue;          // in-flight dispatches
  std::vector<std::vector<float>> in_flight;  // payloads computed at dispatch
  // Strategy state. An empty `strategy` means a checkpoint written before
  // strategies existed: FedAsync with polynomial weighting.
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

  bool operator==(const RunCheckpoint&) const = default;
};

/// Serializes to protolite bytes sealed in the CRC32 envelope. Round
/// checkpoints keep the field order of earlier builds, so their bytes are
/// unchanged. decode_checkpoint reads both flavors, including async files
/// that carry the update budget and count under their earlier tags, and
/// throws appfl::Error on a bad checksum, a malformed body, an unknown
/// flavor, or an unsupported format version — never crashes (fuzzed in
/// tests/test_fuzz.cpp).
std::vector<std::uint8_t> encode_checkpoint(const RunCheckpoint& ckpt);
RunCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes);

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
  /// Opaque payload validator (e.g. "does this decode as a
  /// RunCheckpoint"). Must return false — not throw — to reject.
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

/// Newest slot that decodes as a checkpoint, or nullopt.
std::optional<RunCheckpoint> load_latest_checkpoint(CheckpointStore& store);

/// The checkpoint plane of one run, shared by run_federated, run_population
/// and the async event loop. It reads the policy from the run's resolved
/// config, opens the A/B store when a directory is set, and owns the run's
/// fingerprint. A sequence number is a completed round, or an applied
/// update for async. State import and the snapshot stay with each loop.
class RunCheckpoints {
 public:
  RunCheckpoints(const RunConfig& config, const RunFingerprint& fingerprint);

  /// The snapshot to resume from: nullopt without resume_from. Resuming
  /// from the save directory goes through the save store, so the next save
  /// overwrites the slot NOT loaded from. Recovery diagnostics go to stderr;
  /// throws appfl::Error when resume_from holds no loadable checkpoint, or
  /// when the newest one was written by another run (the message names both
  /// fingerprints, and the slots stay in place).
  std::optional<RunCheckpoint> resume();

  /// Saves a snapshot under `seq` when a store is open and `seq` is on the
  /// cadence, the run's last, or the halt point. The plane stamps the
  /// fingerprint, the algorithm and `seq` as the completed count; `fill`
  /// adds the loop's state. The `ckpt.save` span covers `fill`, so state
  /// export and encoding count as checkpoint time.
  void maybe_save(std::uint64_t seq,
                  const std::function<void(RunCheckpoint&)>& fill);

  /// True when the chaos hook (halt_after_round) stops the run after `seq`.
  bool halts_at(std::uint64_t seq) const {
    return halt_after_ > 0 && seq == halt_after_;
  }

  std::size_t written() const { return written_; }

 private:
  std::string dir_;
  std::size_t every_ = 1;
  std::string resume_from_;
  std::uint64_t halt_after_ = 0;
  RunFingerprint fingerprint_;
  std::string algorithm_;
  std::optional<CheckpointStore> store_;
  std::size_t written_ = 0;
};

}  // namespace appfl::core
