// In-process message transport: one Mailbox per endpoint, an InProcNetwork
// routing messages between them. This is the actual data plane under both
// simulated protocols — bytes really are encoded by the sender and decoded
// by the receiver, so a protocol bug cannot hide behind the cost model.
//
// The network optionally carries a deterministic FaultInjector that drops,
// duplicates, reorders, delays (in sim-clock seconds), or corrupts messages
// per link. With the injector off (the default) every path below reduces to
// the fault-free transport, bit for bit.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace appfl::comm {

/// A delivered datagram: opaque bytes plus the sender's endpoint id.
/// `deliver_at` is the simulated time the bytes become visible to the
/// receiver (0 unless the fault injector added latency).
struct Datagram {
  std::uint32_t from = 0;
  std::vector<std::uint8_t> bytes;
  double deliver_at = 0.0;
};

/// Per-link fault probabilities for the in-process network. All-zero with
/// no dead endpoints (the default) disables the injector entirely.
struct FaultConfig {
  double drop = 0.0;        // P(message silently lost in flight)
  double duplicate = 0.0;   // P(message delivered twice)
  double reorder = 0.0;     // P(message jumps ahead of queued traffic)
  double corrupt = 0.0;     // P(one payload bit flipped in flight)
  double delay = 0.0;       // P(extra delivery latency added)
  double delay_max_s = 0.5; // delay drawn uniformly from (0, delay_max_s]
  std::vector<std::uint32_t> dead;  // endpoints whose links are fully down

  bool enabled() const;
  /// Throws appfl::Error on out-of-range probabilities or delay bounds.
  void validate() const;
};

/// Counters of faults the injector actually applied.
struct FaultStats {
  std::uint64_t drops = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t reorders = 0;
  std::uint64_t corruptions = 0;
  std::uint64_t delays = 0;
};

/// Deterministic, seeded fault scheduler. Each (from, to) link keeps its own
/// message sequence counter, and every decision draws from a fresh Rng
/// seeded by (seed, stream::kCommFault, from, to, seq) — so the fault
/// schedule is a pure function of the seed and each link's send order,
/// independent of how threads on different links interleave.
class FaultInjector {
 public:
  struct Verdict {
    bool drop = false;
    bool duplicate = false;
    bool reorder = false;
    bool corrupt = false;
    std::size_t corrupt_offset = 0;  // byte to damage
    std::uint8_t corrupt_mask = 1;   // XOR mask (single bit)
    double delay_s = 0.0;            // extra sim-clock latency
  };

  FaultInjector(FaultConfig config, std::uint64_t seed);

  /// Decides the fate of the next message on link from→to.
  Verdict judge(std::uint32_t from, std::uint32_t to, std::size_t num_bytes);

  const FaultConfig& config() const { return config_; }
  FaultStats stats() const;

  /// Resumable snapshot: the applied-fault counters plus every link's
  /// sequence counter (keys = (from << 32) | to in ascending order, parallel
  /// to seqs). Since the schedule is a pure function of (seed, from, to,
  /// seq), restoring these continues the fault schedule with no replayed or
  /// skipped events.
  struct PersistentState {
    FaultStats stats;
    std::vector<std::uint64_t> link_keys;
    std::vector<std::uint64_t> link_seqs;
  };
  PersistentState persistent_state() const;
  void restore_persistent_state(const PersistentState& s);

 private:
  FaultConfig config_;
  std::uint64_t seed_;
  mutable std::mutex mutex_;
  std::unordered_map<std::uint64_t, std::uint64_t> link_seq_;
  FaultStats stats_;
};

/// MPSC queue with blocking and non-blocking receive. Unbounded by default;
/// set_capacity installs a high-water mark so a misconfigured sender burst
/// (e.g. a 100k-client fan-in aimed at one box) degrades into counted drops
/// instead of unbounded std::deque growth.
class Mailbox {
 public:
  /// High-water mark: pushes beyond `cap` queued datagrams are rejected and
  /// counted. 0 (the default) = unbounded, bit-identical to the pre-cap
  /// mailbox. Not thread-safe against concurrent push/pop — configure
  /// before traffic flows.
  void set_capacity(std::size_t cap) { capacity_ = cap; }
  std::size_t capacity() const { return capacity_; }

  /// Datagrams rejected by the high-water mark since construction.
  std::uint64_t overflows() const;

  /// False when the high-water mark rejected the datagram (overflow
  /// counted, nothing queued).
  bool push(Datagram d);

  /// Front-of-queue insert, used by the injector's reorder fault. Subject
  /// to the same high-water mark as push.
  bool push_front(Datagram d);

  /// Blocks until a datagram arrives (ignores deliver_at stamps — the
  /// fault-free path, where every stamp is 0).
  Datagram pop();

  /// Returns immediately; nullopt when the box is empty.
  std::optional<Datagram> try_pop();

  /// First queued datagram with deliver_at <= now; nullopt when none is
  /// ready yet (later-stamped traffic stays queued, preserving FIFO order
  /// among ready messages).
  std::optional<Datagram> try_pop_ready(double now);

  /// Earliest deliver_at among queued datagrams; negative when empty.
  double next_deliver_at() const;

  std::size_t size() const;

 private:
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Datagram> queue_;
  std::size_t capacity_ = 0;  // 0 = unbounded
  std::uint64_t overflows_ = 0;
};

/// A fixed set of endpoints (0 = server, 1..P = clients) with one mailbox
/// each. send() copies nothing extra: the byte buffer is moved through.
class InProcNetwork {
 public:
  /// What happened to a send: whether it was delivered at all, the
  /// simulated time at which the receiver can first see it, and whether the
  /// payload was damaged in flight. A corrupted delivery reaches the
  /// receiver's mailbox but fails CRC validation there, so senders modelling
  /// an ack must treat `delivered && !corrupted` as the ack condition.
  struct SendOutcome {
    bool delivered = true;
    double deliver_at = 0.0;
    bool corrupted = false;
  };

  /// `faults`/`seed` configure the optional injector; a disabled config
  /// builds the plain lossless network. `mailbox_capacity` is the per-box
  /// high-water mark (0 = unbounded; see Mailbox::set_capacity).
  explicit InProcNetwork(std::size_t num_endpoints, FaultConfig faults = {},
                         std::uint64_t seed = 0,
                         std::size_t mailbox_capacity = 0);

  std::size_t num_endpoints() const { return boxes_.size(); }

  /// Datagrams rejected by mailbox high-water marks, summed over all
  /// endpoints (0 with unbounded mailboxes). A rejected primary delivery
  /// also reports SendOutcome::delivered == false to the sender.
  std::uint64_t mailbox_overflows() const;

  /// `now` is the current simulated time (stamped on the datagram; the
  /// injector's delay fault adds to it).
  SendOutcome send(std::uint32_t from, std::uint32_t to,
                   std::vector<std::uint8_t> bytes, double now = 0.0);

  /// Blocking receive at endpoint `at`.
  Datagram recv(std::uint32_t at);

  /// Non-blocking receive at endpoint `at`.
  std::optional<Datagram> try_recv(std::uint32_t at);

  /// Non-blocking receive of the first datagram already deliverable at
  /// simulated time `now`.
  std::optional<Datagram> try_recv_ready(std::uint32_t at, double now);

  /// Earliest pending delivery time at `at`; negative when the box is empty.
  double next_deliver_at(std::uint32_t at) const;

  /// Pending datagram count at `at` (diagnostics).
  std::size_t pending(std::uint32_t at) const;

  bool faults_enabled() const { return injector_ != nullptr; }
  /// Injected-fault counters (all zero when the injector is off).
  FaultStats fault_stats() const;

  /// Injector snapshot / restore for crash recovery (empty state / no-op
  /// when the injector is off).
  FaultInjector::PersistentState fault_persistent_state() const;
  void restore_fault_state(const FaultInjector::PersistentState& s);

 private:
  std::vector<Mailbox> boxes_;
  std::unique_ptr<FaultInjector> injector_;
};

}  // namespace appfl::comm
