// secagg_dropout — dropout-resilience sweep for the secure-aggregation path.
//
// Three tables:
//   1. protocol sweep: dropout fraction × Shamir threshold on one cohort.
//      Every client masks a synthetic update, a fraction of uploads is
//      removed AFTER share distribution (the adversarially interesting
//      window), and the recovered survivor sum is bit-compared against the
//      plain quantized survivor sum. Above threshold the recovery must be
//      exact; below, degraded — never a wrong sum.
//   2. round path: FedAvg through the sync runner under drop faults, secure
//      on vs off, reporting the reconstruction/degraded counters and the
//      per-round wall-clock overhead of masking.
//   3. micro: streamed masking vs the retired per-pair-temporary style at
//      cohort 64, each timed 7 times (alternating which runs first) and
//      reported as median and min-max range.
//
// secagg_dropout --smoke: seconds-long CI gate — shrunk sweep, hard
// PASS/FAIL on the exactness/degradation invariants; prints its tables and
// writes no CSV.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string_view>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "dp/secure_agg.hpp"
#include "rng/rng.hpp"
#include "util/table.hpp"

namespace {

using appfl::util::fmt;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// --- 1. Protocol sweep ------------------------------------------------------

struct ProtocolCell {
  double drop = 0.0;
  std::size_t threshold = 0;
  std::size_t u3 = 0;
  bool recovered = false;   // unmask returned ok
  bool exact = false;       // recovered sum == plain survivor sum, bitwise
  std::size_t pair_keys = 0;
  std::size_t self_masks = 0;
  double mask_ms = 0.0;     // total client-side masking
  double unmask_ms = 0.0;   // server-side share recovery + unmask
};

ProtocolCell protocol_cell(std::size_t cohort, std::size_t len, double drop,
                           std::size_t threshold) {
  const std::uint64_t round_seed = 0xD0u;
  std::vector<std::uint32_t> ids(cohort);
  for (std::size_t i = 0; i < cohort; ++i) ids[i] = static_cast<std::uint32_t>(i + 1);

  appfl::rng::Rng data_rng(appfl::rng::derive_seed(round_seed, {1}));
  std::vector<std::vector<float>> updates(cohort, std::vector<float>(len));
  for (auto& u : updates) {
    for (auto& v : u) v = static_cast<float>(data_rng.uniform01() * 8.0 - 4.0);
  }

  appfl::dp::SecureAggServer server(ids, round_seed, threshold);
  std::vector<appfl::dp::SecureAggClient> clients;
  for (std::uint32_t id : ids) {
    clients.emplace_back(id, ids, round_seed, threshold);
    server.deposit_share_packet(id, clients.back().share_packet());
  }
  const auto u2 = server.share_survivors();

  // Drop a deterministic subset of uploads (shares already landed: these
  // are exactly the clients whose pairwise masks must be reconstructed).
  const std::size_t dropped =
      static_cast<std::size_t>(static_cast<double>(cohort) * drop + 0.5);
  appfl::rng::Rng pick(appfl::rng::derive_seed(round_seed, {2}));
  std::vector<bool> out(cohort, false);
  for (std::size_t d = 0; d < dropped;) {
    const std::size_t i = pick.uniform_below(cohort);
    if (!out[i]) { out[i] = true; ++d; }
  }

  ProtocolCell cell;
  cell.drop = drop;
  cell.threshold = threshold;
  std::vector<std::uint32_t> u3;
  std::vector<std::vector<std::uint64_t>> uploads;
  const auto t_mask = Clock::now();
  for (std::size_t i = 0; i < cohort; ++i) {
    if (out[i]) continue;
    u3.push_back(ids[i]);
    uploads.push_back(clients[i].mask(updates[i], u2,
                                      appfl::dp::kDefaultScale, 1.0));
  }
  cell.mask_ms = ms_since(t_mask);
  cell.u3 = u3.size();

  const auto t_unmask = Clock::now();
  const auto rec = server.unmask(u3, uploads);
  cell.unmask_ms = ms_since(t_unmask);
  cell.recovered = rec.ok;
  cell.pair_keys = rec.pair_keys_reconstructed;
  cell.self_masks = rec.self_masks_removed;
  if (rec.ok) {
    std::vector<std::uint64_t> plain(len, 0);
    for (std::size_t i = 0; i < cohort; ++i) {
      if (out[i]) continue;
      const auto q = appfl::dp::quantize(updates[i], appfl::dp::kDefaultScale);
      for (std::size_t w = 0; w < len; ++w) plain[w] += q[w];
    }
    cell.exact = rec.sum == plain;
  }
  return cell;
}

// --- 3. Micro: streamed masking vs per-pair temporaries ---------------------

// The retired implementation materialized one O(len) vector per surviving
// peer before folding it into the upload. This emulation reproduces that
// allocation/traffic pattern (same PRG-draw and add counts; values differ)
// so the row measures the data-path shape, not coincidences of one seed.
double naive_mask_ms(std::size_t cohort, std::size_t len,
                     std::span<const float> values) {
  const auto t0 = Clock::now();
  std::vector<std::uint64_t> out =
      appfl::dp::quantize(values, appfl::dp::kDefaultScale);
  appfl::rng::Rng self(appfl::rng::derive_seed(7, {0}));
  {
    std::vector<std::uint64_t> tmp(len);
    for (auto& w : tmp) w = self.next();
    for (std::size_t i = 0; i < len; ++i) out[i] += tmp[i];
  }
  for (std::size_t peer = 1; peer < cohort; ++peer) {
    appfl::rng::Rng prg(appfl::rng::derive_seed(7, {peer}));
    std::vector<std::uint64_t> tmp(len);  // the per-pair temporary
    for (auto& w : tmp) w = prg.next();
    if (peer % 2 == 0) {
      for (std::size_t i = 0; i < len; ++i) out[i] += tmp[i];
    } else {
      for (std::size_t i = 0; i < len; ++i) out[i] -= tmp[i];
    }
  }
  return ms_since(t0);
}

constexpr std::size_t kMicroReps = 7;

struct Spread {
  double min, median, max;
};

/// Min, median and max of an odd number of timings.
Spread spread(std::vector<double> ms) {
  std::sort(ms.begin(), ms.end());
  return {ms.front(), ms[ms.size() / 2], ms.back()};
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (argv[i] == std::string_view("--smoke")) smoke = true;
  }
  // A smoke run prints its shrunk tables and writes no CSV, so it leaves the
  // committed full-sweep results alone.
  const auto publish = [smoke](const appfl::util::TextTable& table,
                               appfl::util::CsvWriter& csv,
                               const std::string& csv_name) {
    if (smoke) {
      table.print(std::cout);
    } else {
      appfl::bench::emit(table, csv, csv_name);
    }
  };
  bool ok = true;

  // -- 1. Protocol sweep -----------------------------------------------------
  const std::size_t cohort =
      appfl::bench::env_size_t("APPFL_SECAGG_COHORT", smoke ? 8 : 16);
  const std::size_t len =
      appfl::bench::env_size_t("APPFL_SECAGG_LEN", smoke ? 4096 : 65536);
  std::cout << "== secagg_dropout: protocol sweep (cohort " << cohort
            << ", " << len << " params)\n\n";
  const std::vector<double> drops = smoke
      ? std::vector<double>{0.0, 0.25, 0.75}
      : std::vector<double>{0.0, 0.125, 0.25, 0.5, 0.75};
  const std::vector<std::size_t> thresholds{cohort / 2 + 1,
                                            cohort * 3 / 4 + 1};
  appfl::util::TextTable sweep({"drop", "t", "u3", "status", "pair_keys",
                                "self_masks", "mask_ms", "unmask_ms"});
  appfl::util::CsvWriter sweep_csv({"drop", "t", "u3", "status", "pair_keys",
                                    "self_masks", "mask_ms", "unmask_ms"});
  for (const std::size_t t : thresholds) {
    for (const double drop : drops) {
      const auto c = protocol_cell(cohort, len, drop, t);
      const bool above = c.u3 >= t;
      // The two invariants the CI gate enforces: at or above threshold the
      // survivor sum is recovered bit-exactly; below, the round degrades.
      if (above && !(c.recovered && c.exact)) ok = false;
      if (!above && c.recovered) ok = false;
      const std::vector<std::string> row{
          fmt(c.drop, 3), std::to_string(t), std::to_string(c.u3),
          above ? (c.exact ? "exact" : "WRONG") : "degraded",
          std::to_string(c.pair_keys), std::to_string(c.self_masks),
          fmt(c.mask_ms, 1), fmt(c.unmask_ms, 1)};
      sweep.add_row(row);
      sweep_csv.add_row(row);
    }
  }
  publish(sweep, sweep_csv, "secagg_dropout_protocol.csv");

  // -- 2. Round path ---------------------------------------------------------
  const std::size_t rounds =
      appfl::bench::env_size_t("APPFL_SECAGG_ROUNDS", smoke ? 3 : 6);
  const std::size_t clients =
      appfl::bench::env_size_t("APPFL_SECAGG_CLIENTS", 8);
  std::cout << "\n== secagg_dropout: round path (FedAvg, " << clients
            << " clients, " << rounds << " rounds, uplink drop faults)\n\n";
  appfl::data::SynthImageSpec spec;
  spec.num_clients = clients;
  spec.train_per_client = smoke ? 32 : 48;
  spec.test_size = smoke ? 64 : 128;
  spec.seed = 77;
  const auto split = appfl::data::mnist_like(spec);

  appfl::util::TextTable rt({"drop", "mode", "degraded", "reconstructions",
                             "final_acc", "ms_per_round", "overhead_ms"});
  appfl::util::CsvWriter rt_csv({"drop", "mode", "degraded", "reconstructions",
                                 "final_acc", "ms_per_round", "overhead_ms"});
  const std::vector<double> fault_drops =
      smoke ? std::vector<double>{0.2} : std::vector<double>{0.0, 0.1, 0.2};
  for (const double drop : fault_drops) {
    appfl::core::RunConfig cfg;
    cfg.algorithm = appfl::core::Algorithm::kFedAvg;
    cfg.model = appfl::core::ModelKind::kLogistic;
    cfg.rounds = rounds;
    cfg.local_steps = 1;
    cfg.batch_size = 16;
    cfg.seed = 77;
    cfg.validate_every_round = false;
    cfg.faults.drop = drop;
    cfg.max_uplink_retries = 0;  // every drop is a real dropout
    cfg.gather_timeout_s = 5.0;

    double plain_ms = 0.0;
    for (int secure = 0; secure <= 1; ++secure) {
      cfg.secure_agg = secure != 0;
      cfg.secure_agg_threshold = secure != 0 ? clients / 2 + 1 : 0;
      const auto t0 = Clock::now();
      const auto result = appfl::core::run_federated(cfg, split);
      const double per_round = ms_since(t0) / static_cast<double>(rounds);
      if (secure == 0) plain_ms = per_round;
      if (secure != 0 && drop > 0.0 &&
          result.secagg_reconstructions == 0 &&
          result.secagg_rounds_degraded == 0 && result.traffic.drops > 0) {
        // Drops happened but the secure path never noticed — the fault
        // injector is not exercising the mask-recovery machinery.
        ok = false;
      }
      const std::vector<std::string> row{
          fmt(drop, 2), secure != 0 ? "secure" : "plain",
          std::to_string(result.secagg_rounds_degraded),
          std::to_string(result.secagg_reconstructions),
          fmt(result.final_accuracy, 3), fmt(per_round, 0),
          secure != 0 ? fmt(per_round - plain_ms, 0) : "-"};
      rt.add_row(row);
      rt_csv.add_row(row);
    }
  }
  publish(rt, rt_csv, "secagg_dropout_rounds.csv");

  // -- 3. Micro: streamed vs per-pair temporaries ----------------------------
  const std::size_t micro_cohort = 64;
  const std::size_t micro_len =
      appfl::bench::env_size_t("APPFL_SECAGG_MICRO_LEN", smoke ? 20000 : 100000);
  std::cout << "\n== secagg_dropout: masking data path (cohort "
            << micro_cohort << ", " << micro_len << " params)\n\n";
  std::vector<std::uint32_t> micro_ids(micro_cohort);
  for (std::size_t i = 0; i < micro_cohort; ++i) {
    micro_ids[i] = static_cast<std::uint32_t>(i + 1);
  }
  appfl::rng::Rng micro_rng(5);
  std::vector<float> micro_update(micro_len);
  for (auto& v : micro_update) {
    v = static_cast<float>(micro_rng.uniform01() * 2.0 - 1.0);
  }
  const appfl::dp::SecureAggClient micro_client(
      1, micro_ids, /*round_seed=*/5, micro_cohort / 2 + 1);
  // A single timing of either style swings by up to 1.7x between runs on a
  // shared host, so each style reports the median of kMicroReps timings,
  // alternating which style runs first, with their min-max range.
  std::vector<double> stream_ms, naive_ms;
  bool streamed_ok = true;
  const auto time_streamed = [&] {
    const auto t0 = Clock::now();
    const auto streamed = micro_client.mask(micro_update, micro_ids,
                                            appfl::dp::kDefaultScale, 1.0);
    stream_ms.push_back(ms_since(t0));
    if (streamed.size() != micro_len) streamed_ok = false;
  };
  const auto time_naive = [&] {
    naive_ms.push_back(naive_mask_ms(micro_cohort, micro_len, micro_update));
  };
  for (std::size_t rep = 0; rep < kMicroReps; ++rep) {
    if (rep % 2 == 0) {
      time_naive();
      time_streamed();
    } else {
      time_streamed();
      time_naive();
    }
  }
  const Spread naive = spread(naive_ms);
  const Spread stream = spread(stream_ms);
  appfl::util::TextTable micro(
      {"style", "temporaries", "median ms", "range ms", "speedup"});
  appfl::util::CsvWriter micro_csv(
      {"style", "temporaries", "ms", "min_ms", "max_ms", "speedup"});
  micro.add_row({"per-pair temporaries",
                 std::to_string(micro_cohort) + " x " +
                     std::to_string(micro_len * 8 / 1024) + " KiB",
                 fmt(naive.median, 1),
                 fmt(naive.min, 1) + "-" + fmt(naive.max, 1), "1.0"});
  micro_csv.add_row({"per-pair", std::to_string(micro_cohort),
                     fmt(naive.median, 1), fmt(naive.min, 1),
                     fmt(naive.max, 1), "1.0"});
  micro.add_row({"streamed (current)", "0", fmt(stream.median, 1),
                 fmt(stream.min, 1) + "-" + fmt(stream.max, 1),
                 fmt(naive.median / stream.median, 2)});
  micro_csv.add_row({"streamed", "0", fmt(stream.median, 1),
                     fmt(stream.min, 1), fmt(stream.max, 1),
                     fmt(naive.median / stream.median, 2)});
  std::cout << "(" << kMicroReps << " alternated timings per style)\n";
  publish(micro, micro_csv, "secagg_dropout_micro.csv");
  if (!streamed_ok) ok = false;

  std::cout << "\n" << (ok ? "PASS" : "FAIL")
            << ": recovery exact at/above threshold, degraded below\n";
  return ok ? 0 : 1;
}
