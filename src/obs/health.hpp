// Per-client health ledger — rolling per-client statistics the runners and
// the population event engine feed as rounds execute, answering "which
// clients are slow, lossy, or dropping out" without replaying traces.
//
// Fed at obs level kMetrics and above (one mutex acquire per observation;
// client counts are the bottleneck, not rates). Snapshots are taken per
// round into the JSONL stream and at end of run into the summary and an
// optional CSV (--health-out). Straggler scores are computed at snapshot
// time against the cohort's median smoothed latency, so a uniformly slow
// fleet scores ~1.0 everywhere and a true straggler stands out.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace appfl::obs {

/// One client's rolled-up health, as of a snapshot.
struct ClientHealth {
  std::uint32_t client = 0;
  std::uint64_t updates = 0;        // latency observations (≈ rounds trained)
  double latency_ewma_s = 0.0;      // exponentially-weighted update latency
  double latency_var_s2 = 0.0;      // EW variance of the same
  double last_latency_s = 0.0;
  double straggler_score = 0.0;     // latency_ewma / cohort median (0 = n/a)
  std::uint64_t retransmits = 0;    // uplink send attempts beyond the first
  std::uint64_t corrupt_frames = 0; // CRC-damaged frames attributed to client
  std::uint64_t dropped_frames = 0; // uplinks lost after all retries
  std::uint64_t share_discards = 0; // secure-agg share packets discarded
  std::uint64_t dropouts = 0;       // rounds sampled but never sent the
                                    // round's model (lost broadcast)
  double dp_epsilon = 0.0;          // cumulative privacy spend (0 = no DP)
};

class HealthLedger {
 public:
  /// EWMA weight for new latency observations (industry-standard 0.3-ish
  /// keeps ~3 rounds of memory).
  explicit HealthLedger(double alpha = 0.3) : alpha_(alpha) {}

  /// One completed local update: wall (or sim) latency for `client`.
  void observe_latency(std::uint32_t client, double latency_s);
  void add_retransmits(std::uint32_t client, std::uint64_t n);
  void add_corrupt_frames(std::uint32_t client, std::uint64_t n);
  void add_dropped_frames(std::uint32_t client, std::uint64_t n);
  void add_share_discards(std::uint32_t client, std::uint64_t n);
  void note_dropout(std::uint32_t client);
  /// Cumulative DP spend attributed to `client` (last write wins).
  void set_dp_epsilon(std::uint32_t client, double epsilon);

  /// All clients ever observed, ordered by id, with straggler scores
  /// computed against the cohort's median latency EWMA.
  std::vector<ClientHealth> snapshot() const;

  /// Renders a snapshot as the JSONL health line:
  ///   {"type":"health","round":R,"clients":[{...}, ...]}
  static std::string round_json(std::uint32_t round,
                                const std::vector<ClientHealth>& clients);

  /// Writes the final snapshot as CSV. Returns false (message in *error if
  /// given) when the file cannot be written.
  bool write_csv(const std::string& path, std::string* error = nullptr) const;

  void clear();

 private:
  struct Slot {
    std::uint32_t client = 0;
    std::uint64_t updates = 0;
    double ewma = 0.0;
    double var = 0.0;
    double last = 0.0;
    std::uint64_t retransmits = 0;
    std::uint64_t corrupt = 0;
    std::uint64_t dropped = 0;
    std::uint64_t share_discards = 0;
    std::uint64_t dropouts = 0;
    double dp_epsilon = 0.0;
  };

  Slot& slot(std::uint32_t client);  // requires mutex_ held

  const double alpha_;
  mutable std::mutex mutex_;
  std::vector<Slot> slots_;  // ordered by client id (insertion keeps order)
};

}  // namespace appfl::obs
