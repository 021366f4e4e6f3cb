// Causal observability plane: trace context (span/parent ids, wire
// propagation), the Chrome trace export round-trip, the critical-path
// analyzer, the per-client health ledger, the flight recorder, and the
// secure-agg degrade-reason plumbing end to end through the sync runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "comm/message.hpp"
#include "core/config.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "obs/critpath.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace obs = appfl::obs;

namespace {

struct LevelGuard {
  explicit LevelGuard(obs::Level lv) : prev(obs::level()) {
    obs::set_level(lv);
  }
  ~LevelGuard() { obs::set_level(prev); }
  obs::Level prev;
};

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Same minimal validator as test_obs: balanced braces/brackets outside
// strings with valid escapes.
bool json_well_formed(const std::string& text) {
  std::vector<char> stack;
  bool in_string = false;
  bool escaped = false;
  for (const char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': stack.push_back('}'); break;
      case '[': stack.push_back(']'); break;
      case '}':
      case ']':
        if (stack.empty() || stack.back() != c) return false;
        stack.pop_back();
        break;
      default: break;
    }
  }
  return !in_string && stack.empty();
}

// --- A tiny trace_event reader for the round-trip test --------------------
// Pulls each object out of the "traceEvents" array (events never nest
// braces inside except the flat "args" object, and names are escaped) and
// extracts the fields the assertions need.

struct ParsedEvent {
  std::string body;  // raw object text
  double ts = -1.0;
  double dur = -1.0;
  std::uint64_t tid = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  bool has_sim = false;
};

bool find_number(const std::string& obj, const std::string& key, double* out) {
  const std::size_t pos = obj.find("\"" + key + "\":");
  if (pos == std::string::npos) return false;
  *out = std::strtod(obj.c_str() + pos + key.size() + 3, nullptr);
  return true;
}

std::vector<ParsedEvent> parse_trace_events(const std::string& text) {
  std::vector<ParsedEvent> events;
  const std::size_t arr = text.find("\"traceEvents\"");
  EXPECT_NE(arr, std::string::npos);
  std::size_t pos = text.find('[', arr);
  int depth = 0;
  bool in_string = false, escaped = false;
  std::size_t start = 0;
  for (std::size_t i = pos; i < text.size(); ++i) {
    const char c = text[i];
    if (in_string) {
      if (escaped) escaped = false;
      else if (c == '\\') escaped = true;
      else if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') { in_string = true; continue; }
    if (c == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (c == '}') {
      --depth;
      if (depth == 0) {
        ParsedEvent e;
        e.body = text.substr(start, i - start + 1);
        double v = 0.0;
        if (find_number(e.body, "ts", &v)) e.ts = v;
        if (find_number(e.body, "dur", &v)) e.dur = v;
        if (find_number(e.body, "tid", &v)) e.tid = static_cast<std::uint64_t>(v);
        if (find_number(e.body, "span_id", &v))
          e.span_id = static_cast<std::uint64_t>(v);
        if (find_number(e.body, "parent_id", &v))
          e.parent_id = static_cast<std::uint64_t>(v);
        e.has_sim = e.body.find("\"sim_ts_s\"") != std::string::npos;
        events.push_back(std::move(e));
      }
    } else if (c == ']' && depth == 0) {
      break;
    }
  }
  return events;
}

}  // namespace

// -------------------------------------------------------- trace context ----

TEST(TraceContext, NestedSpansRecordLexicalParents) {
  LevelGuard guard(obs::Level::kTrace);
  obs::Tracer::global().clear();
  std::uint64_t outer_id = 0, inner_id = 0;
  {
    obs::ScopedSpan outer("outer", "test");
    outer_id = outer.id();
    ASSERT_NE(outer_id, 0u);
    EXPECT_EQ(obs::current_span_id(), outer_id);
    {
      obs::ScopedSpan inner("inner", "test");
      inner_id = inner.id();
      EXPECT_EQ(obs::current_span_id(), inner_id);
    }
    EXPECT_EQ(obs::current_span_id(), outer_id);  // stack popped
  }
  EXPECT_EQ(obs::current_span_id(), 0u);
  const auto records = obs::Tracer::global().collect();
  ASSERT_EQ(records.size(), 2u);
  const auto& inner_rec =
      std::string(records[0].name) == "inner" ? records[0] : records[1];
  const auto& outer_rec =
      std::string(records[0].name) == "outer" ? records[0] : records[1];
  EXPECT_EQ(inner_rec.parent_id, outer_id);
  EXPECT_EQ(outer_rec.parent_id, 0u);  // root
  EXPECT_NE(inner_id, outer_id);       // process-unique ids
}

TEST(TraceContext, SetParentOverridesLexicalAndIgnoresZero) {
  LevelGuard guard(obs::Level::kTrace);
  obs::Tracer::global().clear();
  const std::uint64_t remote = obs::next_span_id();
  {
    obs::ScopedSpan span("child", "test");
    span.set_parent(0);  // must be a no-op
    span.set_parent(remote);
  }
  const auto records = obs::Tracer::global().collect();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].parent_id, remote);
}

TEST(TraceContext, InactiveSpanHasZeroIdAndNoStackEffect) {
  LevelGuard guard(obs::Level::kOff);
  obs::ScopedSpan span("noop", "test");
  EXPECT_EQ(span.id(), 0u);  // what a sender stamps on a message: no context
  EXPECT_EQ(obs::current_span_id(), 0u);
}

// ------------------------------------------- wire trace-context transit ----

TEST(TraceWire, SpanIdRoundTripsThroughBothEncodings) {
  appfl::comm::Message m;
  m.kind = appfl::comm::MessageKind::kLocalUpdate;
  m.sender = 3;
  m.round = 2;
  m.primal = {1.0F, -2.5F, 0.125F};
  m.sample_count = 24;
  m.trace_span = 0x1234567890ABCDEFULL;

  const auto raw = appfl::comm::encode_raw(m);
  EXPECT_EQ(appfl::comm::decode_raw(raw), m);
  const auto proto = appfl::comm::encode_proto(m);
  EXPECT_EQ(appfl::comm::decode_proto(proto), m);
  EXPECT_EQ(appfl::comm::decode_raw_view(raw).trace_span, m.trace_span);
  EXPECT_EQ(appfl::comm::decode_proto_view(proto).trace_span, m.trace_span);
}

TEST(TraceWire, ZeroSpanLeavesWireBytesUntouched) {
  // trace_span == 0 (anything below obs=trace) must not appear on the wire
  // at all — obs-off encodings stay byte-identical to pre-trace builds.
  appfl::comm::Message m;
  m.kind = appfl::comm::MessageKind::kLocalUpdate;
  m.sender = 1;
  m.primal = {0.5F, 0.5F};
  const auto raw0 = appfl::comm::encode_raw(m);
  const auto proto0 = appfl::comm::encode_proto(m);
  m.trace_span = 42;
  const auto raw1 = appfl::comm::encode_raw(m);
  const auto proto1 = appfl::comm::encode_proto(m);
  EXPECT_EQ(raw1.size(), raw0.size() + 8);  // optional 8-byte trailer
  EXPECT_GT(proto1.size(), proto0.size());
  EXPECT_EQ(appfl::comm::decode_raw(raw0).trace_span, 0u);
  EXPECT_EQ(appfl::comm::decode_proto(proto0).trace_span, 0u);
}

// --------------------------------------- chrome export round-trip (d) ------

TEST(ChromeTraceRoundTrip, ExportParsesBackWithConsistentContext) {
  const std::string path = temp_path("appfl_causal_trace_test.json");
  std::uint64_t outer_id = 0;
  {
    LevelGuard guard(obs::Level::kTrace);
    obs::Tracer::global().clear();
    {
      obs::ScopedSpan outer("fl.round", "fl");
      outer.set_arg("round", 1);
      outer_id = outer.id();
      {
        obs::ScopedSpan mid("fl.local_update_phase", "fl");
        obs::ScopedSpan leaf("fl.client_update", "fl");
        leaf.set_arg("client", 7);
        leaf.set_sim(1.5, 0.25);
      }
    }
    std::string error;
    ASSERT_TRUE(obs::write_chrome_trace(obs::Tracer::global(), path, &error))
        << error;
  }
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  ASSERT_TRUE(json_well_formed(text));

  const auto events = parse_trace_events(text);
  ASSERT_EQ(events.size(), 3u);

  // Sim-timeline args survive the export.
  EXPECT_EQ(std::count_if(events.begin(), events.end(),
                          [](const ParsedEvent& e) { return e.has_sim; }),
            1);

  // Every span id is present and unique; every parent id references an
  // exported event (the chain closes — no dangling context).
  std::vector<std::uint64_t> ids;
  for (const auto& e : events) {
    ASSERT_NE(e.span_id, 0u) << e.body;
    ids.push_back(e.span_id);
  }
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(std::adjacent_find(ids.begin(), ids.end()), ids.end());
  int roots = 0;
  for (const auto& e : events) {
    if (e.parent_id == 0) {
      ++roots;
      EXPECT_EQ(e.span_id, outer_id);
      continue;
    }
    EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), e.parent_id))
        << "dangling parent in " << e.body;
  }
  EXPECT_EQ(roots, 1);

  // Nesting is well-formed: same-thread events either nest or are disjoint
  // (Chrome's "X" event contract; ts/dur are integer microseconds).
  for (std::size_t i = 0; i < events.size(); ++i) {
    for (std::size_t j = i + 1; j < events.size(); ++j) {
      const auto& a = events[i];
      const auto& b = events[j];
      if (a.tid != b.tid) continue;
      const double a0 = a.ts, a1 = a.ts + a.dur;
      const double b0 = b.ts, b1 = b.ts + b.dur;
      const bool disjoint = a1 <= b0 || b1 <= a0;
      const bool a_in_b = b0 <= a0 && a1 <= b1;
      const bool b_in_a = a0 <= b0 && b1 <= a1;
      EXPECT_TRUE(disjoint || a_in_b || b_in_a)
          << "partial overlap: " << a.body << " vs " << b.body;
    }
  }
  std::filesystem::remove(path);
}

// ------------------------------------------------------- critical path -----

namespace {

obs::SpanRecord make_span(const char* name, std::uint64_t id,
                          std::uint64_t parent, double start, double dur,
                          const char* arg_name = nullptr,
                          std::uint64_t arg = 0) {
  obs::SpanRecord r;
  r.name = name;
  r.cat = "fl";
  r.span_id = id;
  r.parent_id = parent;
  r.wall_start_s = start;
  r.wall_dur_s = dur;
  r.arg_name = arg_name;
  r.arg = arg;
  return r;
}

}  // namespace

TEST(CritPath, BlamesTheLastEndingClientAndAttributesTheRound) {
  // Round 1 (id 1): a local-update phase whose client 3 ends last, then a
  // gather phase. The chain must descend to client 3 and the two top-level
  // phases must attribute the whole round.
  std::vector<obs::SpanRecord> spans;
  spans.push_back(make_span("fl.round", 1, 0, 0.0, 10.0, "round", 1));
  spans.push_back(
      make_span("fl.local_update_phase", 2, 1, 0.0, 6.0, "clients", 3));
  spans.push_back(make_span("fl.client_update", 3, 2, 0.1, 2.0, "client", 1));
  spans.push_back(make_span("fl.client_update", 4, 2, 0.1, 5.8, "client", 3));
  spans.push_back(make_span("fl.client_update", 5, 2, 0.1, 3.0, "client", 2));
  spans.push_back(make_span("fl.gather_phase", 6, 1, 6.0, 4.0));

  const auto paths = obs::critical_paths(spans);
  ASSERT_EQ(paths.size(), 1u);
  const auto& p = paths[0];
  EXPECT_EQ(p.round, 1u);
  EXPECT_DOUBLE_EQ(p.wall_s, 10.0);
  EXPECT_GE(p.attributed_frac, 0.99);
  EXPECT_NE(p.bounded_by.find("client=3"), std::string::npos) << p.bounded_by;
  ASSERT_FALSE(p.chain.empty());
  // The chain walks phase → blocking client.
  bool saw_client3 = false;
  for (const auto& step : p.chain) {
    if (step.name == "fl.client_update" && step.has_client) {
      EXPECT_EQ(step.client, 3u);
      saw_client3 = true;
    }
  }
  EXPECT_TRUE(saw_client3);
}

TEST(CritPath, MultipleRoundsOrderedAndPreContextTracesYieldNothing) {
  std::vector<obs::SpanRecord> spans;
  spans.push_back(make_span("fl.round", 10, 0, 0.0, 1.0, "round", 2));
  spans.push_back(make_span("fl.round", 11, 0, 1.0, 2.0, "round", 1));
  auto paths = obs::critical_paths(spans);
  ASSERT_EQ(paths.size(), 2u);
  EXPECT_EQ(paths[0].round, 1u);  // ordered by round, not by emission
  EXPECT_EQ(paths[1].round, 2u);

  // Records without ids (a pre-upgrade trace) have no DAG to rebuild: the
  // round is still reported but with an empty chain, never garbage.
  std::vector<obs::SpanRecord> old;
  old.push_back(make_span("fl.round", 0, 0, 0.0, 1.0, "round", 1));
  const auto old_paths = obs::critical_paths(old);
  ASSERT_EQ(old_paths.size(), 1u);
  EXPECT_TRUE(old_paths[0].chain.empty());
  EXPECT_DOUBLE_EQ(old_paths[0].attributed_s, 0.0);
}

TEST(CritPath, WritersEmitParseableArtifacts) {
  std::vector<obs::SpanRecord> spans;
  spans.push_back(make_span("fl.round", 1, 0, 0.0, 4.0, "round", 1));
  spans.push_back(make_span("fl.aggregate", 2, 1, 0.0, 4.0));
  const auto paths = obs::critical_paths(spans);
  ASSERT_EQ(paths.size(), 1u);

  const std::string jsonl = temp_path("appfl_critpath_test.jsonl");
  const std::string csv = temp_path("appfl_critpath_test.csv");
  std::string error;
  ASSERT_TRUE(obs::write_critpath_jsonl(paths, jsonl, &error)) << error;
  ASSERT_TRUE(obs::write_critpath_csv(paths, csv, &error)) << error;

  std::ifstream in(jsonl);
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    EXPECT_TRUE(json_well_formed(line)) << line;
    EXPECT_NE(line.find("\"type\":\"critpath\""), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, paths.size());

  const std::string csv_text = slurp(csv);
  EXPECT_NE(csv_text.find("round"), std::string::npos);
  EXPECT_NE(csv_text.find("bounded_by"), std::string::npos);

  EXPECT_EQ(obs::critpath_csv_path("a/b.jsonl"), "a/b.csv");
  EXPECT_EQ(obs::critpath_csv_path("plain"), "plain.csv");
  std::filesystem::remove(jsonl);
  std::filesystem::remove(csv);
}

TEST(CritPath, ValidationTasksRunInsideTheLocalPhaseOfATracedRound) {
  // Two clients with eight samples each and 2048 test samples in one
  // validation batch: the validation task is the last span to end in every
  // round's local phase.
  appfl::data::SynthImageSpec spec;
  spec.num_clients = 2;
  spec.train_per_client = 8;
  spec.test_size = 2048;
  spec.seed = 13;
  const auto split = appfl::data::mnist_like(spec);
  appfl::core::RunConfig cfg;
  cfg.algorithm = appfl::core::Algorithm::kFedAvg;
  cfg.model = appfl::core::ModelKind::kLogistic;
  cfg.rounds = 3;
  cfg.local_steps = 1;
  cfg.batch_size = 8;
  cfg.validate_batch = 2048;
  cfg.seed = 4;
  cfg.obs_level = "trace";
  const auto result = appfl::core::run_federated(cfg, split);
  ASSERT_EQ(result.rounds.size(), 3u);
  const auto records = obs::Tracer::global().collect();
  ASSERT_FALSE(records.empty());

  std::vector<std::uint64_t> ids;
  for (const auto& r : records) ids.push_back(r.span_id);
  std::sort(ids.begin(), ids.end());
  std::vector<std::uint64_t> rounds, phases;
  for (const auto& r : records) {
    if (r.parent_id != 0) {
      EXPECT_TRUE(std::binary_search(ids.begin(), ids.end(), r.parent_id))
          << "dangling parent of " << r.name;
    }
    if (std::strcmp(r.name, "fl.round") == 0) rounds.push_back(r.span_id);
    if (std::strcmp(r.name, "fl.local_update_phase") == 0) {
      phases.push_back(r.span_id);
    }
  }
  ASSERT_EQ(rounds.size(), 3u);
  ASSERT_EQ(phases.size(), 3u);

  // One fl.validate per round under that round's local phase, never a
  // phase of its own; the final validation's task is a root.
  std::size_t in_phase = 0, roots = 0;
  for (const auto& r : records) {
    if (std::strcmp(r.name, "fl.validate") != 0) continue;
    EXPECT_EQ(std::count(rounds.begin(), rounds.end(), r.parent_id), 0);
    if (std::count(phases.begin(), phases.end(), r.parent_id) == 1) {
      ++in_phase;
    } else {
      EXPECT_EQ(r.parent_id, 0u);
      ++roots;
    }
  }
  EXPECT_EQ(in_phase, 3u);
  EXPECT_EQ(roots, 1u);

  // The validation task ended last, so the local phase's blocker is it,
  // and the round stays attributed.
  std::size_t validation_bound = 0;
  for (const auto& p : obs::critical_paths(records)) {
    EXPECT_GE(p.attributed_frac, 0.95) << "round " << p.round;
    EXPECT_FALSE(p.bounded_by.empty()) << "round " << p.round;
    if (p.bounded_by == "fl.validate") ++validation_bound;
  }
  EXPECT_GT(validation_bound, 0u);
}

// -------------------------------------------------------- health ledger ----

TEST(HealthLedger, EwmaVarianceAndStragglerScores) {
  obs::HealthLedger ledger(0.3);
  // Client 1 is steady at 1s; client 2 is the straggler at 3s; client 3 at
  // 1s makes the cohort median 1s.
  for (int r = 0; r < 4; ++r) {
    ledger.observe_latency(1, 1.0);
    ledger.observe_latency(2, 3.0);
    ledger.observe_latency(3, 1.0);
  }
  const auto snap = ledger.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].client, 1u);
  EXPECT_EQ(snap[0].updates, 4u);
  EXPECT_NEAR(snap[0].latency_ewma_s, 1.0, 1e-9);   // constant signal
  EXPECT_NEAR(snap[0].latency_var_s2, 0.0, 1e-9);
  EXPECT_NEAR(snap[1].latency_ewma_s, 3.0, 1e-9);
  EXPECT_NEAR(snap[0].straggler_score, 1.0, 1e-9);  // at the median
  EXPECT_NEAR(snap[1].straggler_score, 3.0, 1e-9);  // 3x the median
  EXPECT_DOUBLE_EQ(snap[0].last_latency_s, 1.0);
}

TEST(HealthLedger, FirstObservationSeedsTheEwma) {
  obs::HealthLedger ledger;
  ledger.observe_latency(5, 2.0);
  const auto snap = ledger.snapshot();
  ASSERT_EQ(snap.size(), 1u);
  // No decay from a zero prior: the first sample IS the estimate.
  EXPECT_DOUBLE_EQ(snap[0].latency_ewma_s, 2.0);
}

TEST(HealthLedger, CountersDropoutsAndJsonCsvOutputs) {
  obs::HealthLedger ledger;
  ledger.observe_latency(1, 0.5);
  ledger.add_retransmits(1, 2);
  ledger.add_corrupt_frames(1, 1);
  ledger.add_dropped_frames(1, 3);
  ledger.add_share_discards(1, 1);
  ledger.note_dropout(2);           // never trained, still tracked
  ledger.set_dp_epsilon(1, 0.75);
  ledger.set_dp_epsilon(1, 1.5);    // last write wins (cumulative spend)

  const auto snap = ledger.snapshot();
  ASSERT_EQ(snap.size(), 2u);
  EXPECT_EQ(snap[0].retransmits, 2u);
  EXPECT_EQ(snap[0].corrupt_frames, 1u);
  EXPECT_EQ(snap[0].dropped_frames, 3u);
  EXPECT_EQ(snap[0].share_discards, 1u);
  EXPECT_DOUBLE_EQ(snap[0].dp_epsilon, 1.5);
  EXPECT_EQ(snap[1].client, 2u);
  EXPECT_EQ(snap[1].dropouts, 1u);
  EXPECT_EQ(snap[1].updates, 0u);

  const std::string json = obs::HealthLedger::round_json(7, snap);
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("\"type\":\"health\""), std::string::npos);
  EXPECT_NE(json.find("\"round\":7"), std::string::npos);

  const std::string csv = temp_path("appfl_health_test.csv");
  std::string error;
  ASSERT_TRUE(ledger.write_csv(csv, &error)) << error;
  const std::string text = slurp(csv);
  EXPECT_NE(text.find("client,updates,latency_ewma_s"), std::string::npos);
  // Header + one row per client.
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
  std::filesystem::remove(csv);

  ledger.clear();
  EXPECT_TRUE(ledger.snapshot().empty());
}

// ------------------------------------------------------ flight recorder ----

TEST(FlightRecorder, RingOverwritesOldestAndKeepsOrder) {
  obs::FlightRecorder rec(4);
  for (int i = 0; i < 6; ++i) {
    rec.record("evt", "{\"i\":" + std::to_string(i) + "}");
  }
  EXPECT_EQ(rec.recorded(), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].data, "{\"i\":" + std::to_string(i + 2) + "}");
    if (i > 0) {
      EXPECT_GE(events[i].wall_s, events[i - 1].wall_s);
    }
  }
  rec.clear();
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_TRUE(rec.events().empty());
}

TEST(FlightRecorder, DumpRequiresDirCreatesItAndWritesParseableJson) {
  obs::FlightRecorder rec(8);
  rec.record("round.start", "{\"round\":1}");
  rec.record("secagg.degraded",
             "{\"round\":1,\"reason\":\"share-wave-timeout\"}");
  EXPECT_FALSE(rec.dump("no-dir-set"));  // no directory: refused, not UB

  // The directory does not exist yet — dump must create it (chaos runs
  // point --flight-dir at fresh paths).
  const std::string dir = temp_path("appfl_flight_test_dir/nested");
  std::filesystem::remove_all(temp_path("appfl_flight_test_dir"));
  rec.set_dump_dir(dir);
  EXPECT_EQ(rec.dump_dir(), dir);
  std::string path;
  ASSERT_TRUE(rec.dump("secagg-degraded-share-wave-timeout", &path));
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_NE(path.find("secagg-degraded-share-wave-timeout.json"),
            std::string::npos);

  const std::string text = slurp(path);
  EXPECT_TRUE(json_well_formed(text)) << text;
  EXPECT_NE(text.find("\"type\":\"flight\""), std::string::npos);
  EXPECT_NE(text.find("\"reason\":\"secagg-degraded-share-wave-timeout\""),
            std::string::npos);
  EXPECT_NE(text.find("\"events_recorded\":2"), std::string::npos);
  EXPECT_NE(text.find("share-wave-timeout"), std::string::npos);
  EXPECT_NE(text.find("\"metrics\":"), std::string::npos);

  // Consecutive dumps never collide (per-process sequence in the name).
  std::string path2;
  ASSERT_TRUE(rec.dump("secagg-degraded-share-wave-timeout", &path2));
  EXPECT_NE(path2, path);
  std::filesystem::remove_all(temp_path("appfl_flight_test_dir"));
}

TEST(FlightRecorder, InlineHookIsGatedOnMetricsLevel) {
  obs::FlightRecorder::global().clear();
  {
    LevelGuard guard(obs::Level::kOff);
    obs::flight_record("ignored");
    EXPECT_EQ(obs::FlightRecorder::global().recorded(), 0u);
  }
  if (obs::detail::kCompiledIn) {
    LevelGuard guard(obs::Level::kMetrics);
    obs::flight_record("kept", "{\"k\":1}");
    EXPECT_EQ(obs::FlightRecorder::global().recorded(), 1u);
  }
  obs::FlightRecorder::global().clear();
}

// ------------------------------------------------ degrade reasons (c) ------

TEST(DegradeReason, ToStringCoversEveryReason) {
  using appfl::core::SecaggDegradeReason;
  EXPECT_EQ(appfl::core::to_string(SecaggDegradeReason::kNone), "none");
  EXPECT_EQ(appfl::core::to_string(SecaggDegradeReason::kBelowThreshold),
            "below-threshold");
  EXPECT_EQ(appfl::core::to_string(SecaggDegradeReason::kShareWaveTimeout),
            "share-wave-timeout");
  EXPECT_EQ(appfl::core::to_string(SecaggDegradeReason::kRootUnreachable),
            "root-unreachable");
}

TEST(DegradeReason, ForcedDegradeNamesItsReasonInRoundMetrics) {
  // Heavy drop + a threshold at the cohort size forces the share wave (or
  // the unmask) to fail: every degraded round must carry a non-kNone
  // reason, and clean rounds must stay kNone.
  appfl::data::SynthImageSpec spec;
  spec.height = 6;
  spec.width = 6;
  spec.num_classes = 3;
  spec.num_clients = 6;
  spec.train_per_client = 24;
  spec.test_size = 32;
  spec.seed = 77;
  const auto split = appfl::data::mnist_like(spec);

  appfl::core::RunConfig cfg;
  cfg.algorithm = appfl::core::Algorithm::kFedAvg;
  cfg.model = appfl::core::ModelKind::kLogistic;
  cfg.rounds = 3;
  cfg.local_steps = 1;
  cfg.batch_size = 16;
  cfg.seed = 3;
  cfg.validate_every_round = false;
  cfg.secure_agg = true;
  cfg.secure_agg_threshold = 5;
  cfg.faults.drop = 0.45;

  const auto result = appfl::core::run_federated(cfg, split);
  std::size_t degraded = 0;
  for (const auto& r : result.rounds) {
    if (r.secagg_degraded) {
      ++degraded;
      EXPECT_NE(r.secagg_degrade_reason,
                appfl::core::SecaggDegradeReason::kNone);
      EXPECT_NE(appfl::core::to_string(r.secagg_degrade_reason), "none");
    } else {
      EXPECT_EQ(r.secagg_degrade_reason,
                appfl::core::SecaggDegradeReason::kNone);
    }
  }
  EXPECT_GT(degraded, 0u) << "fault schedule no longer forces a degrade; "
                             "bump drop or change the seed";
  EXPECT_EQ(result.secagg_rounds_degraded, degraded);
}
