#include "core/obs_session.hpp"

#include <cstdio>
#include <sstream>

#include "obs/critpath.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace appfl::core {

ObsSession::ObsSession(const RunConfig& config)
    : level_(obs::parse_level(config.obs_level).value_or(obs::Level::kOff)),
      trace_out_(config.trace_out),
      health_out_(config.health_out),
      critpath_out_(config.critpath_out),
      previous_(obs::level()) {
  obs::set_level(level_);
  if (level_ >= obs::Level::kMetrics) {
    // Artifacts describe this run only; instruments are zeroed in place so
    // references cached by hot paths (gemm, communicator) stay valid.
    obs::MetricsRegistry::global().reset();
    obs::Tracer::global().clear();
    obs::FlightRecorder::global().clear();
  }
  obs::FlightRecorder::global().set_dump_dir(config.flight_dir);
  if (!config.flight_dir.empty()) obs::FlightRecorder::install_crash_hooks();
  if (!config.metrics_out.empty()) writer_.emplace(config.metrics_out);
}

ObsSession::~ObsSession() { obs::set_level(previous_); }

void ObsSession::write_round(const RoundMetrics& m) {
  obs::flight_record("round.done",
                     "{\"round\":" + std::to_string(m.round) +
                         ",\"responders\":" + std::to_string(m.responders) +
                         "}");
  if (!writer_ || !writer_->ok()) return;
  std::ostringstream os;
  os << "{\"type\":\"round\",\"round\":" << m.round
     << ",\"train_loss\":" << obs::json_number(m.train_loss)
     << ",\"test_accuracy\":" << obs::json_optional(m.test_accuracy)
     << ",\"broadcast_s\":" << obs::json_number(m.broadcast_s)
     << ",\"gather_s\":" << obs::json_number(m.gather_s)
     << ",\"rho\":" << obs::json_number(m.rho)
     << ",\"participants\":" << m.participants
     << ",\"responders\":" << m.responders << ",\"drops\":" << m.drops
     << ",\"retries\":" << m.retries
     << ",\"crc_failures\":" << m.crc_failures
     << ",\"discards\":" << m.discards << ",\"timeouts\":" << m.timeouts
     << ",\"secagg_reconstructions\":" << m.secagg_reconstructions
     << ",\"secagg_degraded\":" << (m.secagg_degraded ? "true" : "false")
     << ",\"secagg_degrade_reason\":";
  if (m.secagg_degrade_reason == SecaggDegradeReason::kNone) {
    os << "null";
  } else {
    os << "\"" << to_string(m.secagg_degrade_reason) << "\"";
  }
  os << "}";
  writer_->line(os.str());
  const std::vector<obs::ClientHealth> clients = health_.snapshot();
  if (!clients.empty()) {
    writer_->line(obs::HealthLedger::round_json(m.round, clients));
  }
}

void ObsSession::secagg_round(std::uint64_t reconstructions,
                              SecaggDegradeReason reason,
                              RoundMetrics& metrics, RunResult& run) {
  const bool degraded = reason != SecaggDegradeReason::kNone;
  metrics.secagg_reconstructions = reconstructions;
  metrics.secagg_degraded = degraded;
  metrics.secagg_degrade_reason = reason;
  run.secagg_reconstructions += reconstructions;
  if (degraded) ++run.secagg_rounds_degraded;
  if (obs::metrics_on()) {
    static obs::Counter& reconstructed =
        obs::MetricsRegistry::global().counter("secure_agg.reconstructions");
    static obs::Counter& rounds_degraded =
        obs::MetricsRegistry::global().counter("secure_agg.rounds_degraded");
    reconstructed.add(reconstructions);
    if (degraded) rounds_degraded.add(1);
  }
  if (!degraded) return;
  obs::flight_record("secagg.degraded",
                     "{\"round\":" + std::to_string(metrics.round) +
                         ",\"reason\":\"" + to_string(reason) + "\"}");
  obs::FlightRecorder::global().dump("secagg-degraded-" + to_string(reason));
}

void ObsSession::write_line(const std::string& json) {
  if (!writer_ || !writer_->ok()) return;
  writer_->line(json);
}

void ObsSession::finish(const RunResult& result) {
  if (writer_ && writer_->ok()) {
    const comm::TrafficStats& t = result.traffic;
    std::ostringstream os;
    os << "{\"type\":\"summary\",\"rounds_completed\":" << result.rounds.size()
       << ",\"final_accuracy\":" << obs::json_number(result.final_accuracy)
       << ",\"mean_test_accuracy\":"
       << obs::json_optional(result.mean_test_accuracy())
       << ",\"best_test_accuracy\":"
       << obs::json_optional(result.best_test_accuracy())
       << ",\"sim_comm_seconds\":" << obs::json_number(result.sim_comm_seconds)
       << ",\"model_parameters\":" << result.model_parameters
       << ",\"dp_epsilon_spent\":" << obs::json_number(result.dp_epsilon_spent)
       << ",\"resumed_from_round\":" << result.resumed_from_round
       << ",\"checkpoints_written\":" << result.checkpoints_written
       << ",\"traffic\":{\"messages_up\":" << t.messages_up
       << ",\"messages_down\":" << t.messages_down
       << ",\"bytes_up\":" << t.bytes_up << ",\"bytes_down\":" << t.bytes_down
       << ",\"bytes_up_precodec\":" << t.bytes_up_precodec
       << ",\"drops\":" << t.drops << ",\"retries\":" << t.retries
       << ",\"crc_failures\":" << t.crc_failures
       << ",\"discards\":" << t.discards
       << ",\"gather_timeouts\":" << t.gather_timeouts
       << "},\"dropped_spans\":" << obs::Tracer::global().dropped() << "}";
    writer_->line(os.str());
  }
  finish();
}

void ObsSession::finish() {
  // Tracer self-telemetry (satellite): silent ring overwrites become
  // visible in the end-of-run metrics snapshot, not only via dropped().
  if (level_ >= obs::Level::kMetrics) {
    obs::Tracer& tracer = obs::Tracer::global();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    reg.counter("obs.spans_emitted").add(tracer.emitted());
    reg.counter("obs.spans_dropped").add(tracer.dropped());
    reg.gauge("obs.trace_threads")
        .set(static_cast<double>(tracer.ring_count()));
  }
  if (writer_ && writer_->ok()) {
    const std::vector<obs::ClientHealth> clients = health_.snapshot();
    if (!clients.empty()) {
      std::string line = obs::HealthLedger::round_json(0, clients);
      // Re-tag the final snapshot so consumers can tell it from a round line.
      line.replace(line.find("\"health\""), 8, "\"health_summary\"");
      writer_->line(line);
    }
    writer_->line(obs::metrics_snapshot_json(
        obs::MetricsRegistry::global().snapshot()));
    writer_->flush();
  }
  if (!health_out_.empty()) {
    std::string error;
    if (!health_.write_csv(health_out_, &error)) {
      std::fprintf(stderr, "warning: health CSV export failed: %s\n",
                   error.c_str());
    }
  }
  if (!trace_out_.empty()) {
    std::string error;
    if (!obs::write_chrome_trace(obs::Tracer::global(), trace_out_,
                                 &error)) {
      std::fprintf(stderr, "warning: trace export failed: %s\n",
                   error.c_str());
    }
  }
  if (!critpath_out_.empty()) {
    const std::vector<obs::RoundCritPath> paths =
        obs::critical_paths(obs::Tracer::global().collect());
    std::string error;
    if (!obs::write_critpath_jsonl(paths, critpath_out_, &error) ||
        !obs::write_critpath_csv(paths,
                                 obs::critpath_csv_path(critpath_out_),
                                 &error)) {
      std::fprintf(stderr, "warning: critical-path export failed: %s\n",
                   error.c_str());
    }
  }
}

}  // namespace appfl::core
