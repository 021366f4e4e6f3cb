// Per-layer phase numbers from the spans one traced episode emitted.
//
// A round is an fl.round span for the sync runner and the population
// engine; for the async runner, which has no round span, it is the interval
// between two FedBuff commits (the async.apply spans of committing arrivals,
// matched to the run's events in order). The round's named phases are the
// top-level spans inside it; the part of the round they do not cover is
// reported as core.unattributed_s. Times summed over pool threads (client
// work) are thread-seconds per round.
#include <algorithm>
#include <cstring>
#include <map>

#include "bench.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

using appfl::obs::SpanRecord;

bool is(const SpanRecord& s, const char* name) {
  return std::strcmp(s.name, name) == 0;
}

struct Interval {
  double a, b;
};

/// Length of the union of intervals clipped to [lo, hi].
double covered(std::vector<Interval> v, double lo, double hi) {
  std::sort(v.begin(), v.end(),
            [](const Interval& x, const Interval& y) { return x.a < y.a; });
  double total = 0.0;
  double cur_a = lo, cur_b = lo;
  for (const Interval& iv : v) {
    const double a = std::max(iv.a, lo), b = std::min(iv.b, hi);
    if (b <= a) continue;
    if (a > cur_b) {
      total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  return total + (cur_b - cur_a);
}

/// Names a top-level phase: a span that may tile a round.
bool is_phase(const SpanRecord& s) {
  static const char* const kPhases[] = {
      "fl.compute_global", "comm.broadcast",      "fl.local_update_phase",
      "fl.gather_phase",   "fl.aggregate",        "fl.validate",
      "fl.tree.leader",    "fl.tree.level",       "async.dispatch",
      "async.apply",       "fl.secagg_unmask",    "fl.masked_upload_phase",
      "fl.secagg_share_gather"};
  for (const char* p : kPhases) {
    if (is(s, p)) return true;
  }
  return false;
}

struct Round {
  double a, b;
  std::uint64_t span_id;  // fl.round id, 0 for async commit windows
};

}  // namespace

SpanStats analyze_spans(const Workload& w,
                        const std::vector<SpanRecord>& spans,
                        const Episode& traced) {
  std::vector<Round> rounds;
  if (w.runner == Runner::kAsync) {
    // Commit windows: from one committing apply's end to the next.
    std::vector<const SpanRecord*> applies;
    for (const SpanRecord& s : spans) {
      if (is(s, "async.apply")) applies.push_back(&s);
    }
    std::vector<double> commit_ends;
    for (std::size_t i = 0; i < applies.size(); ++i) {
      // FedBuff commits on every K-th arrival it absorbs.
      if ((i + 1) % kFedBuffK == 0) {
        commit_ends.push_back(applies[i]->wall_start_s + applies[i]->wall_dur_s);
      }
    }
    for (std::size_t i = 1; i < commit_ends.size(); ++i) {
      rounds.push_back({commit_ends[i - 1], commit_ends[i], 0});
    }
  } else {
    for (const SpanRecord& s : spans) {
      if (is(s, "fl.round")) {
        rounds.push_back({s.wall_start_s, s.wall_start_s + s.wall_dur_s, s.span_id});
      }
    }
    std::sort(rounds.begin(), rounds.end(),
              [](const Round& x, const Round& y) { return x.a < y.a; });
    if (rounds.size() > 1) rounds.erase(rounds.begin());  // warm-up
  }

  // Per-round sums of every span name that starts inside the round, plus
  // call counts, and the named-phase coverage of the round's wall.
  std::vector<std::map<std::string, double>> sum(rounds.size());
  std::vector<std::map<std::string, double>> count(rounds.size());
  std::vector<double> participants_arg(rounds.size(), 0.0);
  std::vector<double> waves(rounds.size(), 0.0);
  std::vector<double> unattributed(rounds.size(), 0.0);
  double wall_total = 0.0, attributed_total = 0.0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    std::vector<Interval> phases;
    for (const SpanRecord& s : spans) {
      if (s.wall_start_s < rounds[r].a || s.wall_start_s >= rounds[r].b) continue;
      sum[r][s.name] += s.wall_dur_s;
      count[r][s.name] += 1.0;
      const bool top = w.runner == Runner::kAsync
                           ? s.parent_id == 0
                           : s.parent_id == rounds[r].span_id;
      if (top && is_phase(s)) {
        phases.push_back({s.wall_start_s, s.wall_start_s + s.wall_dur_s});
      }
      if (is(s, "fl.local_update_phase")) {
        participants_arg[r] += static_cast<double>(s.arg);
        waves[r] += 1.0;
      }
    }
    const double wall = rounds[r].b - rounds[r].a;
    const double cov = covered(phases, rounds[r].a, rounds[r].b);
    unattributed[r] = wall - cov;
    wall_total += wall;
    attributed_total += cov;
  }

  // Mean seconds per round: periodic work (async validation every fourth
  // commit) counts at its average cost.
  auto per_round = [&](const char* name) {
    double total = 0.0;
    for (const auto& m : sum) {
      auto it = m.find(name);
      if (it != m.end()) total += it->second;
    }
    return rounds.empty() ? 0.0 : total / static_cast<double>(rounds.size());
  };
  auto calls_per_round = [&](const char* name) {
    double total = 0.0;
    for (const auto& m : count) {
      auto it = m.find(name);
      if (it != m.end()) total += it->second;
    }
    return rounds.empty() ? 0.0 : total / static_cast<double>(rounds.size());
  };
  auto median_span = [&](const char* name) {
    std::vector<double> v;
    for (const SpanRecord& s : spans) {
      if (is(s, name)) v.push_back(s.wall_dur_s);
    }
    return median(v);
  };

  SpanStats out;
  const bool async = w.runner == Runner::kAsync;
  const double n_rounds = static_cast<double>(std::max<std::size_t>(1, traced.rounds));
  out.attributed_frac = wall_total > 0.0 ? attributed_total / wall_total : 0.0;
  std::vector<double> round_walls;
  for (const Round& r : rounds) round_walls.push_back(r.b - r.a);
  out.traced_round_s = median(round_walls);
  out.batches_per_round = calls_per_round("client.batch");

  // Pool idleness over the local phases: client time against the pool
  // threads × phase wall it had available.
  double client_time = 0.0, phase_time = 0.0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    client_time += sum[r]["fl.client_update"];
    phase_time += sum[r]["fl.local_update_phase"];
  }
  const double pool_threads =
      static_cast<double>(appfl::util::ThreadPool::default_threads());
  const double idle =
      !async && phase_time > 0.0
          ? std::max(0.0, 1.0 - client_time / (pool_threads * phase_time))
          : 0.0;

  double waves_total = 0.0, parts_total = 0.0;
  for (std::size_t r = 0; r < rounds.size(); ++r) {
    waves_total += waves[r];
    parts_total += participants_arg[r];
  }
  // Encoded messages per round: the sync communicator encodes every send
  // attempt and one broadcast copy per participant; the population engine
  // encodes every uplink and one canonical broadcast; the async runner
  // bills its links from a cost model and encodes nothing.
  if (async) {
    out.participants_per_round = calls_per_round("async.apply");
  } else {
    out.participants_per_round =
        rounds.empty() ? 0.0 : parts_total / static_cast<double>(rounds.size());
    const double sends = calls_per_round("comm.uplink.send");
    out.uplinks_per_round = sends > 0.0 ? sends : out.participants_per_round;
    out.downlinks_per_round =
        w.runner == Runner::kPopulation ? 1.0 : out.participants_per_round;
  }

  out.metrics = {
      {"core.local_phase_s",
       async ? per_round("async.dispatch") : per_round("fl.local_update_phase"), "s"},
      {"core.pool_idle_frac", idle, "frac"},
      {"core.validate_s", per_round("fl.validate"), "s"},
      {"core.absorb_s", async ? per_round("async.apply") : per_round("fl.aggregate"), "s"},
      {"core.async_dispatch_s", async ? median_span("async.dispatch") : 0.0, "s"},
      {"core.async_apply_s", async ? median_span("async.apply") : 0.0, "s"},
      {"core.events_per_round", static_cast<double>(traced.events) / n_rounds, "count"},
      {"core.wave_width", waves_total > 0.0 ? parts_total / waves_total : 0.0, "count"},
      {"core.unattributed_s", median(unattributed), "s"},
      {"core.attributed_frac", out.attributed_frac, "frac"},
      {"core.traced_round_s", out.traced_round_s, "s"},
      {"nn.batch_s", per_round("client.batch"), "s"},
      {"comm.broadcast_s", per_round("comm.broadcast"), "s"},
      {"comm.gather_s", per_round("comm.gather"), "s"},
      {"comm.uplink_s", per_round("comm.uplink.send"), "s"},
      {"comm.bytes_per_round", static_cast<double>(traced.bytes) / n_rounds, "B"},
      {"comm.retries_per_round", static_cast<double>(traced.retries) / n_rounds, "count"},
      {"comm.crc_failures_per_round",
       static_cast<double>(traced.crc_failures) / n_rounds, "count"},
      {"dp.noise_s", per_round("dp.noise"), "s"},
  };
  return out;
}

}  // namespace perfbench
