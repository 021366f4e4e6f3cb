// Asynchronous federated aggregation (paper future work 1).
//
// §IV-C/D/E all point at the same weakness of synchronous rounds: the server
// waits for the slowest client (stragglers from heterogeneous GPUs or
// congested gRPC links). This module implements the asynchronous server the
// paper proposes to investigate, as a discrete-event simulation:
//
//   * every client runs on its own DeviceProfile (e.g. a mixed A100/V100
//     fleet, §IV-E) and its own gRPC/MPI link;
//   * an AsyncStrategy (core/async_strategy.hpp) decides what the server
//     does with each arriving update — FedAsync mixes it in immediately
//     with a staleness-damped step, FedBuff buffers K deltas per commit,
//     the FedCompass-style scheduler additionally sizes each client's
//     local work so arrivals cluster, and async IIADMM absorbs it exactly
//     into the IIAdmmServer's (z_p, λ_p) replicas;
//   * the client is immediately re-dispatched with the fresh w.
//
// The simulation advances a virtual clock from the hardware and network
// cost models, so sync-vs-async comparisons are apples-to-apples in
// simulated seconds while all updates are computed for real. When the run's
// FaultConfig has a positive drop rate, arrivals are dropped from their own
// deterministic RNG stream and the client re-dispatched — async FL's
// natural retransmit — with the loss counted in dropped_updates.
// run_async and run_async_iiadmm share one event loop; they differ only in
// the commit policy.
#pragma once

#include <string>
#include <vector>

#include "comm/cost_model.hpp"
#include "core/async_strategy.hpp"
#include "core/base.hpp"
#include "core/config.hpp"
#include "data/synth.hpp"
#include "hw/device.hpp"

namespace appfl::core {

struct AsyncConfig {
  RunConfig run;                 // model/local-solver/DP settings
  float mixing_alpha = 0.6F;     // base mixing rate α
  std::size_t total_updates = 0; // 0 ⇒ run.rounds × num_clients
  /// Device of client p: devices[p % devices.size()]. Default: all V100.
  std::vector<hw::DeviceProfile> devices;
  /// Validate the global model every k-th applied update (0 = only at end).
  std::size_t validate_every = 0;
  /// Server absorb rule + dispatch policy. Defaults to FedAsync with
  /// polynomial staleness weighting — the historical behavior, bit-exact.
  AsyncStrategyOptions strategy;
};

struct AsyncEvent {
  double sim_time = 0.0;        // when the update was absorbed
  std::uint32_t client = 0;     // 1-based
  std::size_t staleness = 0;    // server versions elapsed while training
  double mixing = 0.0;          // α_s actually applied
  double test_accuracy = -1.0;  // −1 when not validated at this event
  bool committed = true;        // false: buffered only (FedBuff, pre-K)
};

struct AsyncRunResult {
  std::vector<AsyncEvent> events;
  double final_accuracy = 0.0;
  double sim_seconds = 0.0;       // virtual time to finish all updates
  std::size_t applied_updates = 0;   // arrivals absorbed (incl. buffered)
  std::size_t committed_updates = 0; // model-version advances
  std::size_t dropped_updates = 0;   // arrivals lost to the fault plane
  double mean_staleness = 0.0;
  std::string strategy;           // to_string of the strategy that ran

  /// The final global model (chaos tests byte-compare it across resumes).
  std::vector<float> final_w;
  /// Applied-update count the run resumed after (0 = fresh start).
  std::uint64_t resumed_from_update = 0;
  /// Async checkpoints written by this process.
  std::size_t checkpoints_written = 0;
};

/// Runs the asynchronous scheme on a federated split.
///
/// Crash recovery mirrors the sync runner, at update granularity: with
/// run.checkpoint_dir set an async-flavor RunCheckpoint is stored every
/// run.checkpoint_every_n_rounds *applied updates*, run.resume_from restores
/// the newest valid one (bit-identical continuation — FedBuff's partially
/// filled buffer and the scheduler's step plan included), and
/// run.halt_after_round stops after that many applied updates. A
/// checkpoint of another run (a sync or population one, or another seed,
/// fleet size, model or update budget) is refused with an error that names
/// both fingerprints.
AsyncRunResult run_async(const AsyncConfig& config,
                         const data::FederatedSplit& split);

/// Baseline for comparison: the *synchronous* schedule on the same
/// heterogeneous fleet — every round costs the slowest client's compute +
/// a gather — returning the simulated seconds for the same total number of
/// client updates and the final accuracy (via the standard runner). A
/// positive drop rate charges each lost uplink an ack timeout + retransmit,
/// the sync runner's recovery path.
struct SyncBaselineResult {
  double sim_seconds = 0.0;
  double final_accuracy = 0.0;
  double straggler_idle_fraction = 0.0;  // mean idle share of fast clients
  /// Cumulative simulated seconds at the end of each round (time-to-accuracy
  /// curves read round r's clock from round_seconds[r]).
  std::vector<double> round_seconds;
};

SyncBaselineResult run_sync_baseline(const AsyncConfig& config,
                                     const data::FederatedSplit& split);

/// Asynchronous IIADMM — the paper's algorithm under its future-work
/// schedule, run by run_async's event loop with the IIADMM commit policy.
/// The run's IIAdmmServer keeps the per-client (z_p, λ_p) replicas; each
/// arriving update triggers the server's dual step λ_p ← λ_p +
/// ρ(w_sent_p − z_p^{new}) using the SAME w the client trained against, so
/// the dual-replication invariant (no duals on the wire) survives asynchrony
/// exactly. The global model is line 3's closed form after every
/// absorption, and the client is immediately re-dispatched with it. A
/// dropped arrival rolls the client's dual back to the server replica
/// before the re-dispatch. Honors the same checkpoint/halt/resume and drop
/// contract as run_async (the replicas and w_sent snapshots ride in the
/// async fields of its RunCheckpoint); ρ must be constant (adaptive_rho
/// throws, since clients never receive an adapted ρ) and config.strategy
/// is ignored. duals_consistent is true iff every client's dual matched the
/// server replica bit-for-bit at the end.
struct AsyncIIAdmmResult {
  AsyncRunResult base;
  bool duals_consistent = false;
};

AsyncIIAdmmResult run_async_iiadmm(const AsyncConfig& config,
                                   const data::FederatedSplit& split);

}  // namespace appfl::core
