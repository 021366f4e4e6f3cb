#include "core/checkpoint.hpp"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

#include "comm/envelope.hpp"
#include "comm/protolite.hpp"
#include "core/config.hpp"
#include "obs/flight.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace appfl::core {

namespace {

/// Writes `bytes` to `path` crash-consistently: temp file in the same
/// directory, flush + fsync, then atomic rename. A crash at any point
/// leaves either the old `path` content or the new one — never a torn mix.
void atomic_write_file(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  APPFL_CHECK_MSG(f != nullptr, "cannot open " << tmp << " for writing");
  const std::size_t written = bytes.empty()
                                  ? 0
                                  : std::fwrite(bytes.data(), 1, bytes.size(),
                                                f);
  bool ok = written == bytes.size();
  ok = std::fflush(f) == 0 && ok;
#if defined(__unix__) || defined(__APPLE__)
  ok = ::fsync(::fileno(f)) == 0 && ok;
#endif
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    APPFL_CHECK_MSG(false, "write to " << tmp << " failed");
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::remove(tmp.c_str());
    APPFL_CHECK_MSG(false,
                    "rename " << tmp << " -> " << path << ": " << ec.message());
  }
#if defined(__unix__) || defined(__APPLE__)
  // Persist the rename itself (directory entry) so the new file survives a
  // machine crash, not just a process crash. Best-effort.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  const int dfd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
#endif
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.good()) return std::nullopt;
  const std::streamsize size = in.tellg();
  in.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!in.good()) return std::nullopt;
  return bytes;
}

}  // namespace

// ---------------------------------------------------------------------------
// v2 encoding
// ---------------------------------------------------------------------------

namespace {

constexpr std::uint32_t kCkptVersion = 2;

// Top-level fields, one tag space for both flavors.
constexpr std::uint32_t kTVersion = 1;
constexpr std::uint32_t kTFlavor = 2;
constexpr std::uint32_t kTAlgorithm = 3;
constexpr std::uint32_t kTSeed = 4;
constexpr std::uint32_t kTNumClients = 5;
constexpr std::uint32_t kTParamCount = 6;
constexpr std::uint32_t kTTotal = 7;
constexpr std::uint32_t kTCompleted = 8;
constexpr std::uint32_t kTParameters = 9;
constexpr std::uint32_t kTServer = 10;
constexpr std::uint32_t kTClient = 11;      // repeated
constexpr std::uint32_t kTRngState = 12;    // repeated varint ×4
constexpr std::uint32_t kTComm = 13;
// Async files of earlier builds carry the update budget and count here
// instead of under kTTotal / kTCompleted; the decoder reads both.
constexpr std::uint32_t kTTotalUpdates = 14;
constexpr std::uint32_t kTAppliedUpdates = 15;
// Async loop state.
constexpr std::uint32_t kTModelVersion = 16;
constexpr std::uint32_t kTDispatchCounter = 17;
constexpr std::uint32_t kTStalenessSum = 18;
constexpr std::uint32_t kTSimSeconds = 19;
constexpr std::uint32_t kTPending = 20;   // repeated
constexpr std::uint32_t kTInFlight = 21;  // repeated packed floats
// Async strategy state (optional: absent on pre-strategy checkpoints).
constexpr std::uint32_t kTStrategy = 22;       // string
constexpr std::uint32_t kTBufferVals = 23;     // repeated packed floats
constexpr std::uint32_t kTBufferWeight = 24;   // packed floats
constexpr std::uint32_t kTAssignedSteps = 25;  // repeated varint
constexpr std::uint32_t kTDropped = 26;        // varint
constexpr std::uint32_t kTFaultRng = 27;       // repeated varint ×4
constexpr std::uint32_t kTServerPrimal = 28;   // repeated packed floats
constexpr std::uint32_t kTServerDual = 29;     // repeated packed floats
constexpr std::uint32_t kTWSent = 30;          // repeated packed floats
// Population-engine extension (optional: absent on sync-runner
// checkpoints).
constexpr std::uint32_t kTPopulation = 31;            // varint
constexpr std::uint32_t kTParticipantsPerRound = 32;  // varint
// Sparse participation ledger: repeated (id, count) pairs, id always first.
constexpr std::uint32_t kTParticipationId = 33;     // varint 1-based client id
constexpr std::uint32_t kTParticipationCount = 34;  // varint rounds trained

// ClientStateCkpt fields.
constexpr std::uint32_t kCId = 1;
constexpr std::uint32_t kCLoaderEpochs = 2;
constexpr std::uint32_t kCPrimal = 3;
constexpr std::uint32_t kCDual = 4;
constexpr std::uint32_t kCDpSpent = 5;

// ServerStateCkpt fields.
constexpr std::uint32_t kSKind = 1;
constexpr std::uint32_t kSRho = 2;
constexpr std::uint32_t kSPrimal = 3;        // repeated packed floats
constexpr std::uint32_t kSDual = 4;          // repeated packed floats
constexpr std::uint32_t kSSampleCounts = 5;  // repeated varint
constexpr std::uint32_t kSParticipants = 6;  // repeated varint
constexpr std::uint32_t kSOptW = 7;
constexpr std::uint32_t kSOptM = 8;
constexpr std::uint32_t kSOptV = 9;

// CommStateCkpt fields.
constexpr std::uint32_t kMSimNow = 1;
constexpr std::uint32_t kMCounter = 2;  // repeated varint, fixed order below
constexpr std::uint32_t kMLinkKey = 3;  // repeated varint
constexpr std::uint32_t kMLinkSeq = 4;  // repeated varint
// Error-feedback residuals: repeated (id, values) pairs, id always first.
// Only non-empty residuals are written; pre-int8 decoders skip both fields.
constexpr std::uint32_t kMResidualId = 5;    // varint client index (0-based)
constexpr std::uint32_t kMResidualVals = 6;  // packed floats

// Pending fields (async in-flight dispatch).
constexpr std::uint32_t kPFinish = 1;
constexpr std::uint32_t kPClient = 2;
constexpr std::uint32_t kPVersion = 3;

/// TrafficStats <-> flat counter list, in a fixed documented order. The
/// decoder accepts longer lists (future counters) but requires at least
/// this many.
constexpr std::size_t kNumTrafficCounters = 14;

std::vector<std::uint64_t> pack_traffic(const comm::TrafficStats& s) {
  // mailbox_overflows rides as a 15th counter; kNumTrafficCounters stays 14
  // so pre-overflow checkpoints (exactly 14 counters) still decode.
  return {s.messages_up, s.messages_down,  s.bytes_up,      s.bytes_down,
          s.bytes_up_precodec, s.drops,    s.duplicates,    s.reorders,
          s.corruptions, s.delays,         s.retries,       s.crc_failures,
          s.discards,    s.gather_timeouts, s.mailbox_overflows};
}

comm::TrafficStats unpack_traffic(const std::vector<std::uint64_t>& c) {
  APPFL_CHECK_MSG(c.size() >= kNumTrafficCounters,
                  "checkpoint traffic ledger has " << c.size() << " counters, "
                  "expected >= " << kNumTrafficCounters);
  comm::TrafficStats s;
  s.messages_up = c[0];
  s.messages_down = c[1];
  s.bytes_up = c[2];
  s.bytes_down = c[3];
  s.bytes_up_precodec = c[4];
  s.drops = c[5];
  s.duplicates = c[6];
  s.reorders = c[7];
  s.corruptions = c[8];
  s.delays = c[9];
  s.retries = c[10];
  s.crc_failures = c[11];
  s.discards = c[12];
  s.gather_timeouts = c[13];
  if (c.size() > 14) s.mailbox_overflows = c[14];
  return s;
}

void encode_client(comm::ProtoWriter& w, const ClientStateCkpt& c) {
  comm::ProtoWriter cw;
  cw.add_varint(kCId, c.id);
  cw.add_varint(kCLoaderEpochs, c.loader_epochs);
  if (!c.primal.empty()) cw.add_packed_floats(kCPrimal, c.primal);
  if (!c.dual.empty()) cw.add_packed_floats(kCDual, c.dual);
  cw.add_double(kCDpSpent, c.dp_spent);
  w.add_bytes(kTClient, cw.view());
}

ClientStateCkpt decode_client(std::span<const std::uint8_t> bytes) {
  ClientStateCkpt c;
  comm::ProtoReader r(bytes);
  comm::ProtoField f;
  while (r.next(f)) {
    switch (f.field) {
      case kCId: c.id = static_cast<std::uint32_t>(f.varint); break;
      case kCLoaderEpochs: c.loader_epochs = f.varint; break;
      case kCPrimal: c.primal = comm::ProtoReader::as_packed_floats(f); break;
      case kCDual: c.dual = comm::ProtoReader::as_packed_floats(f); break;
      case kCDpSpent: c.dp_spent = comm::ProtoReader::as_double(f); break;
      default: break;
    }
  }
  APPFL_CHECK_MSG(c.id >= 1, "client checkpoint with invalid id " << c.id);
  return c;
}

void encode_server(comm::ProtoWriter& w, const ServerStateCkpt& s) {
  comm::ProtoWriter sw;
  sw.add_string(kSKind, s.kind);
  sw.add_double(kSRho, s.rho);
  for (const auto& v : s.primal) sw.add_packed_floats(kSPrimal, v);
  for (const auto& v : s.dual) sw.add_packed_floats(kSDual, v);
  for (std::uint64_t v : s.sample_counts) sw.add_varint(kSSampleCounts, v);
  for (std::uint64_t v : s.participants) sw.add_varint(kSParticipants, v);
  if (!s.opt_w.empty()) sw.add_packed_floats(kSOptW, s.opt_w);
  if (!s.opt_m.empty()) sw.add_packed_floats(kSOptM, s.opt_m);
  if (!s.opt_v.empty()) sw.add_packed_floats(kSOptV, s.opt_v);
  w.add_bytes(kTServer, sw.view());
}

ServerStateCkpt decode_server(std::span<const std::uint8_t> bytes) {
  ServerStateCkpt s;
  comm::ProtoReader r(bytes);
  comm::ProtoField f;
  while (r.next(f)) {
    switch (f.field) {
      case kSKind: s.kind = comm::ProtoReader::as_string(f); break;
      case kSRho: s.rho = comm::ProtoReader::as_double(f); break;
      case kSPrimal:
        s.primal.push_back(comm::ProtoReader::as_packed_floats(f));
        break;
      case kSDual:
        s.dual.push_back(comm::ProtoReader::as_packed_floats(f));
        break;
      case kSSampleCounts: s.sample_counts.push_back(f.varint); break;
      case kSParticipants: s.participants.push_back(f.varint); break;
      case kSOptW: s.opt_w = comm::ProtoReader::as_packed_floats(f); break;
      case kSOptM: s.opt_m = comm::ProtoReader::as_packed_floats(f); break;
      case kSOptV: s.opt_v = comm::ProtoReader::as_packed_floats(f); break;
      default: break;
    }
  }
  APPFL_CHECK_MSG(!s.kind.empty(), "server checkpoint carries no kind tag");
  return s;
}

void encode_comm(comm::ProtoWriter& w, const CommStateCkpt& c) {
  comm::ProtoWriter mw;
  mw.add_double(kMSimNow, c.sim_now);
  for (std::uint64_t v : pack_traffic(c.stats)) mw.add_varint(kMCounter, v);
  for (std::uint64_t v : c.link_keys) mw.add_varint(kMLinkKey, v);
  for (std::uint64_t v : c.link_seqs) mw.add_varint(kMLinkSeq, v);
  for (std::size_t i = 0; i < c.ef_residuals.size(); ++i) {
    if (c.ef_residuals[i].empty()) continue;
    mw.add_varint(kMResidualId, i);
    mw.add_packed_floats(kMResidualVals, c.ef_residuals[i]);
  }
  w.add_bytes(kTComm, mw.view());
}

CommStateCkpt decode_comm(std::span<const std::uint8_t> bytes) {
  CommStateCkpt c;
  std::vector<std::uint64_t> counters;
  std::optional<std::uint64_t> pending_residual;  // id awaiting its values
  comm::ProtoReader r(bytes);
  comm::ProtoField f;
  while (r.next(f)) {
    switch (f.field) {
      case kMSimNow: c.sim_now = comm::ProtoReader::as_double(f); break;
      case kMCounter: counters.push_back(f.varint); break;
      case kMLinkKey: c.link_keys.push_back(f.varint); break;
      case kMLinkSeq: c.link_seqs.push_back(f.varint); break;
      case kMResidualId:
        APPFL_CHECK_MSG(!pending_residual.has_value(),
                        "checkpoint residual id without values");
        APPFL_CHECK_MSG(f.varint < 1U << 20,
                        "checkpoint residual id out of range");
        pending_residual = f.varint;
        break;
      case kMResidualVals: {
        APPFL_CHECK_MSG(pending_residual.has_value(),
                        "checkpoint residual values without an id");
        const auto id = static_cast<std::size_t>(*pending_residual);
        if (c.ef_residuals.size() <= id) c.ef_residuals.resize(id + 1);
        c.ef_residuals[id] = comm::ProtoReader::as_packed_floats(f);
        pending_residual.reset();
        break;
      }
      default: break;
    }
  }
  APPFL_CHECK_MSG(!pending_residual.has_value(),
                  "checkpoint residual id without values");
  c.stats = unpack_traffic(counters);
  APPFL_CHECK_MSG(c.link_keys.size() == c.link_seqs.size(),
                  "checkpoint link counters are unpaired: "
                      << c.link_keys.size() << " keys vs "
                      << c.link_seqs.size() << " sequences");
  return c;
}

/// The async loop's state, after the fields both flavors share.
void encode_async_state(comm::ProtoWriter& w, const RunCheckpoint& ckpt) {
  w.add_varint(kTModelVersion, ckpt.version);
  w.add_varint(kTDispatchCounter, ckpt.dispatch_counter);
  w.add_double(kTStalenessSum, ckpt.staleness_sum);
  w.add_double(kTSimSeconds, ckpt.sim_seconds);
  for (const auto& p : ckpt.queue) {
    comm::ProtoWriter pw;
    pw.add_double(kPFinish, p.finish_time);
    pw.add_varint(kPClient, p.client);
    pw.add_varint(kPVersion, p.version);
    w.add_bytes(kTPending, pw.view());
  }
  for (const auto& z : ckpt.in_flight) w.add_packed_floats(kTInFlight, z);
  if (!ckpt.strategy.empty()) w.add_string(kTStrategy, ckpt.strategy);
  for (const auto& d : ckpt.buffer) w.add_packed_floats(kTBufferVals, d);
  if (!ckpt.buffer_weights.empty()) {
    w.add_packed_floats(kTBufferWeight, ckpt.buffer_weights);
  }
  for (std::uint64_t s : ckpt.assigned_steps) w.add_varint(kTAssignedSteps, s);
  if (ckpt.dropped_updates != 0) w.add_varint(kTDropped, ckpt.dropped_updates);
  bool fault_rng_used = false;
  for (std::uint64_t word : ckpt.fault_rng) fault_rng_used |= word != 0;
  if (fault_rng_used) {
    for (std::uint64_t word : ckpt.fault_rng) w.add_varint(kTFaultRng, word);
  }
  for (const auto& v : ckpt.server_primal) w.add_packed_floats(kTServerPrimal, v);
  for (const auto& v : ckpt.server_dual) w.add_packed_floats(kTServerDual, v);
  for (const auto& v : ckpt.w_sent) w.add_packed_floats(kTWSent, v);
}

/// Copies a repeated varint field of exactly four words (an RNG state).
void take_words(const std::vector<std::uint64_t>& words,
                std::array<std::uint64_t, 4>& out, const char* what) {
  APPFL_CHECK_MSG(words.size() == 4, "checkpoint " << what << " has "
                                         << words.size()
                                         << " words, expected 4");
  for (std::size_t i = 0; i < 4; ++i) out[i] = words[i];
}

/// The flavor-specific invariants of a decoded checkpoint.
void check_round(const RunCheckpoint& ckpt, bool have_server,
                 bool have_comm) {
  const RunFingerprint& fp = ckpt.fingerprint;
  APPFL_CHECK_MSG(have_server, "round checkpoint carries no server state");
  APPFL_CHECK_MSG(have_comm, "round checkpoint carries no comm state");
  if (fp.participants_per_round > 0) {
    // Population-engine checkpoint: clients are transient (rebuilt per
    // participation), so no per-client states ride along.
    APPFL_CHECK_MSG(ckpt.clients.empty(),
                    "population checkpoint carries per-client states");
    APPFL_CHECK_MSG(fp.participants_per_round <= fp.num_clients,
                    "population checkpoint samples "
                        << fp.participants_per_round << " of "
                        << fp.num_clients);
    for (const auto& [id, count] : ckpt.participation) {
      APPFL_CHECK_MSG(id >= 1 && id <= fp.num_clients,
                      "participation ledger has out-of-range client " << id);
      APPFL_CHECK_MSG(count >= 1, "participation ledger has idle client "
                                      << id);
    }
  } else {
    APPFL_CHECK_MSG(ckpt.clients.size() == fp.num_clients,
                    "round checkpoint carries " << ckpt.clients.size()
                        << " client states for " << fp.num_clients
                        << " clients");
  }
}

void check_async(const RunCheckpoint& ckpt) {
  const std::uint32_t n = ckpt.fingerprint.num_clients;
  APPFL_CHECK_MSG(ckpt.clients.size() == n,
                  "async checkpoint carries " << ckpt.clients.size()
                      << " client states for " << n << " clients");
  APPFL_CHECK_MSG(ckpt.in_flight.size() == n,
                  "async checkpoint in-flight table has "
                      << ckpt.in_flight.size() << " entries for " << n
                      << " clients");
  APPFL_CHECK_MSG(ckpt.buffer.size() == ckpt.buffer_weights.size(),
                  "async checkpoint buffer has " << ckpt.buffer.size()
                      << " deltas but " << ckpt.buffer_weights.size()
                      << " weights");
  APPFL_CHECK_MSG(ckpt.assigned_steps.empty() ||
                      ckpt.assigned_steps.size() == n,
                  "async checkpoint step plan has "
                      << ckpt.assigned_steps.size() << " entries for " << n
                      << " clients");
  APPFL_CHECK_MSG(ckpt.server_primal.size() == ckpt.server_dual.size() &&
                      ckpt.server_primal.size() == ckpt.w_sent.size(),
                  "async checkpoint ADMM replica tables are unpaired");
}

/// Seals an encoded body in the comm plane's CRC32 envelope.
std::vector<std::uint8_t> seal(comm::ProtoWriter&& w) {
  return comm::seal_envelope(w.take());
}

/// Opens the envelope (throwing on damage, like a counted wire corruption
/// would be at the comm layer — here the caller wants a hard verdict) and
/// returns the body.
std::span<const std::uint8_t> unseal(std::span<const std::uint8_t> bytes) {
  const auto body = comm::open_envelope(bytes);
  APPFL_CHECK_MSG(body.has_value(),
                  "checkpoint envelope damaged (bad magic or CRC32 mismatch)");
  return *body;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const RunCheckpoint& ckpt) {
  const RunFingerprint& fp = ckpt.fingerprint;
  const bool round = fp.flavor == RunFingerprint::Flavor::kRound;
  comm::ProtoWriter w;
  w.add_varint(kTVersion, ckpt.format_version);
  w.add_varint(kTFlavor, static_cast<std::uint64_t>(fp.flavor));
  w.add_string(kTAlgorithm, ckpt.algorithm);
  w.add_varint(kTSeed, fp.seed);
  w.add_varint(kTNumClients, fp.num_clients);
  w.add_varint(kTParamCount, fp.param_count);
  w.add_varint(kTTotal, fp.total);
  w.add_varint(kTCompleted, ckpt.completed);
  w.add_packed_floats(kTParameters, ckpt.parameters);
  if (round) encode_server(w, ckpt.server);
  for (const auto& c : ckpt.clients) encode_client(w, c);
  for (std::uint64_t s : ckpt.rng_state) w.add_varint(kTRngState, s);
  if (round) encode_comm(w, ckpt.comm);
  if (fp.participants_per_round > 0) {
    w.add_varint(kTPopulation, fp.num_clients);
    w.add_varint(kTParticipantsPerRound, fp.participants_per_round);
    for (const auto& [id, count] : ckpt.participation) {
      w.add_varint(kTParticipationId, id);
      w.add_varint(kTParticipationCount, count);
    }
  }
  if (!round) encode_async_state(w, ckpt);
  return seal(std::move(w));
}

RunCheckpoint decode_checkpoint(std::span<const std::uint8_t> bytes) {
  using Flavor = RunFingerprint::Flavor;
  const auto body = unseal(bytes);
  RunCheckpoint ckpt;
  RunFingerprint& fp = ckpt.fingerprint;
  ckpt.format_version = 0;
  std::uint64_t flavor = 0;
  std::vector<std::uint64_t> rng;
  std::vector<std::uint64_t> fault_rng;
  bool have_server = false;
  bool have_comm = false;
  std::optional<std::uint32_t> pending_participation;
  std::uint64_t population = 0;  // population checkpoints repeat num_clients
  comm::ProtoReader r(body);
  comm::ProtoField f;
  while (r.next(f)) {
    switch (f.field) {
      case kTVersion:
        ckpt.format_version = static_cast<std::uint32_t>(f.varint);
        break;
      case kTFlavor: flavor = f.varint; break;
      case kTAlgorithm: ckpt.algorithm = comm::ProtoReader::as_string(f); break;
      case kTSeed: fp.seed = f.varint; break;
      case kTNumClients:
        fp.num_clients = static_cast<std::uint32_t>(f.varint);
        break;
      case kTParamCount: fp.param_count = f.varint; break;
      case kTTotal:
      case kTTotalUpdates: fp.total = f.varint; break;
      case kTCompleted:
      case kTAppliedUpdates: ckpt.completed = f.varint; break;
      case kTParameters:
        ckpt.parameters = comm::ProtoReader::as_packed_floats(f);
        break;
      case kTServer:
        ckpt.server = decode_server(f.bytes);
        have_server = true;
        break;
      case kTClient: ckpt.clients.push_back(decode_client(f.bytes)); break;
      case kTRngState: rng.push_back(f.varint); break;
      case kTComm:
        ckpt.comm = decode_comm(f.bytes);
        have_comm = true;
        break;
      case kTModelVersion: ckpt.version = f.varint; break;
      case kTDispatchCounter: ckpt.dispatch_counter = f.varint; break;
      case kTStalenessSum:
        ckpt.staleness_sum = comm::ProtoReader::as_double(f);
        break;
      case kTSimSeconds:
        ckpt.sim_seconds = comm::ProtoReader::as_double(f);
        break;
      case kTPending: {
        RunCheckpoint::Pending p;
        comm::ProtoReader pr(f.bytes);
        comm::ProtoField pf;
        while (pr.next(pf)) {
          switch (pf.field) {
            case kPFinish:
              p.finish_time = comm::ProtoReader::as_double(pf);
              break;
            case kPClient: p.client = static_cast<std::uint32_t>(pf.varint); break;
            case kPVersion: p.version = pf.varint; break;
            default: break;
          }
        }
        ckpt.queue.push_back(p);
        break;
      }
      case kTInFlight:
        ckpt.in_flight.push_back(comm::ProtoReader::as_packed_floats(f));
        break;
      case kTStrategy: ckpt.strategy = comm::ProtoReader::as_string(f); break;
      case kTBufferVals:
        ckpt.buffer.push_back(comm::ProtoReader::as_packed_floats(f));
        break;
      case kTBufferWeight:
        ckpt.buffer_weights = comm::ProtoReader::as_packed_floats(f);
        break;
      case kTAssignedSteps: ckpt.assigned_steps.push_back(f.varint); break;
      case kTDropped: ckpt.dropped_updates = f.varint; break;
      case kTFaultRng: fault_rng.push_back(f.varint); break;
      case kTServerPrimal:
        ckpt.server_primal.push_back(comm::ProtoReader::as_packed_floats(f));
        break;
      case kTServerDual:
        ckpt.server_dual.push_back(comm::ProtoReader::as_packed_floats(f));
        break;
      case kTWSent:
        ckpt.w_sent.push_back(comm::ProtoReader::as_packed_floats(f));
        break;
      case kTPopulation: population = f.varint; break;
      case kTParticipantsPerRound:
        fp.participants_per_round = static_cast<std::uint32_t>(f.varint);
        break;
      case kTParticipationId:
        APPFL_CHECK_MSG(!pending_participation,
                        "participation id without a following count");
        pending_participation = static_cast<std::uint32_t>(f.varint);
        break;
      case kTParticipationCount:
        APPFL_CHECK_MSG(pending_participation,
                        "participation count without a preceding id");
        ckpt.participation.emplace_back(
            *pending_participation, static_cast<std::uint32_t>(f.varint));
        pending_participation.reset();
        break;
      default: break;  // forward compatibility
    }
  }
  APPFL_CHECK_MSG(!pending_participation,
                  "participation id without a following count");
  APPFL_CHECK_MSG(ckpt.format_version == kCkptVersion,
                  "unsupported checkpoint version " << ckpt.format_version);
  APPFL_CHECK_MSG(flavor == static_cast<std::uint64_t>(Flavor::kRound) ||
                      flavor == static_cast<std::uint64_t>(Flavor::kAsync),
                  "unknown checkpoint flavor " << flavor);
  fp.flavor = static_cast<Flavor>(flavor);
  take_words(rng, ckpt.rng_state, "rng state");
  if (!fault_rng.empty()) take_words(fault_rng, ckpt.fault_rng, "fault rng");
  APPFL_CHECK_MSG(fp.num_clients >= 1, "checkpoint has no clients");
  APPFL_CHECK_MSG(population == (fp.participants_per_round > 0
                                     ? fp.num_clients
                                     : 0),
                  "checkpoint population " << population << " does not fit "
                      << fp.num_clients << " clients sampled "
                      << fp.participants_per_round << " per round");
  APPFL_CHECK_MSG(ckpt.parameters.size() == fp.param_count,
                  "checkpoint carries " << ckpt.parameters.size()
                      << " parameters for a model of " << fp.param_count);
  APPFL_CHECK_MSG(ckpt.completed >= 1 && ckpt.completed <= fp.total,
                  "checkpoint at step " << ckpt.completed << " of "
                      << fp.total << " is inconsistent");
  if (fp.flavor == Flavor::kRound) {
    check_round(ckpt, have_server, have_comm);
  } else {
    check_async(ckpt);
  }
  return ckpt;
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

namespace {
constexpr std::size_t kSeqHeaderBytes = 8;

void put_seq(std::vector<std::uint8_t>& out, std::uint64_t seq) {
  for (std::size_t i = 0; i < kSeqHeaderBytes; ++i) {
    out.push_back(static_cast<std::uint8_t>(seq >> (8 * i)));
  }
}

std::uint64_t get_seq(std::span<const std::uint8_t> body) {
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < kSeqHeaderBytes; ++i) {
    seq |= static_cast<std::uint64_t>(body[i]) << (8 * i);
  }
  return seq;
}
}  // namespace

CheckpointStore::CheckpointStore(std::string dir) : dir_(std::move(dir)) {
  APPFL_CHECK_MSG(!dir_.empty(), "checkpoint directory path is empty");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  APPFL_CHECK_MSG(!ec, "cannot create checkpoint directory " << dir_ << ": "
                                                             << ec.message());
  // Decide which slot the next save overwrites: the one NOT holding the
  // newest complete checkpoint (corrupt or missing slots are fair game).
  const Slot a = read_slot(kSlotA, nullptr);
  const Slot b = read_slot(kSlotB, nullptr);
  if (a.valid && (!b.valid || a.sequence >= b.sequence)) {
    write_slot_ = 1;
  } else if (b.valid) {
    write_slot_ = 0;
  } else {
    write_slot_ = 0;
  }
}

CheckpointStore::Slot CheckpointStore::read_slot(const char* name,
                                                 const Validator& valid) const {
  Slot slot;
  const std::string path = dir_ + "/" + name;
  const auto bytes = read_file(path);
  if (!bytes.has_value()) return slot;  // missing: not corrupt, just absent
  slot.present = true;
  const auto body = comm::open_envelope(*bytes);
  if (!body.has_value()) {
    slot.why = "bad magic or CRC32 mismatch (torn or corrupted write)";
    return slot;
  }
  if (body->size() < kSeqHeaderBytes) {
    slot.why = "envelope body shorter than the sequence header";
    return slot;
  }
  slot.sequence = get_seq(*body);
  slot.payload.assign(body->begin() + kSeqHeaderBytes, body->end());
  if (valid && !valid(slot.payload)) {
    slot.why = "payload rejected by validator (undecodable or mismatched run)";
    return slot;
  }
  slot.valid = true;
  return slot;
}

void CheckpointStore::quarantine(const char* name, const std::string& why) {
  const std::string path = dir_ + "/" + name;
  const std::string dest = path + ".quarantined";
  std::error_code ec;
  std::filesystem::rename(path, dest, ec);  // overwrites a prior quarantine
  ++report_.corrupt_quarantined;
  report_.diagnostics.push_back(std::string(name) + ": " + why +
                                (ec ? " (quarantine rename failed: " +
                                          ec.message() + ")"
                                    : " -> quarantined"));
}

void CheckpointStore::save(std::span<const std::uint8_t> payload,
                           std::uint64_t sequence) {
  std::vector<std::uint8_t> body;
  body.reserve(kSeqHeaderBytes + payload.size());
  put_seq(body, sequence);
  body.insert(body.end(), payload.begin(), payload.end());
  const std::vector<std::uint8_t> sealed =
      comm::seal_envelope(std::move(body));
  const char* name = write_slot_ == 0 ? kSlotA : kSlotB;
  atomic_write_file(dir_ + "/" + name, sealed);
  write_slot_ ^= 1;
}

std::optional<CheckpointStore::Loaded> CheckpointStore::load_latest(
    const Validator& valid) {
  const char* names[2] = {kSlotA, kSlotB};
  Slot slots[2];
  for (int i = 0; i < 2; ++i) {
    slots[i] = read_slot(names[i], valid);
    if (slots[i].present && !slots[i].valid) {
      quarantine(names[i], slots[i].why);
    }
  }
  int best = -1;
  for (int i = 0; i < 2; ++i) {
    if (slots[i].valid &&
        (best < 0 || slots[i].sequence > slots[best].sequence)) {
      best = i;
    }
  }
  if (best < 0) return std::nullopt;
  // The next save must overwrite the OTHER slot, preserving what we loaded.
  write_slot_ = best ^ 1;
  Loaded out;
  out.payload = std::move(slots[best].payload);
  out.sequence = slots[best].sequence;
  out.slot = names[best];
  return out;
}

std::optional<RunCheckpoint> load_latest_checkpoint(CheckpointStore& store) {
  const auto loaded = store.load_latest([](std::span<const std::uint8_t> p) {
    try {
      (void)decode_checkpoint(p);
      return true;
    } catch (const appfl::Error&) {
      return false;
    }
  });
  if (!loaded.has_value()) return std::nullopt;
  return decode_checkpoint(loaded->payload);
}

// ---------------------------------------------------------------------------
// RunCheckpoints
// ---------------------------------------------------------------------------

namespace {

std::string describe(const RunFingerprint& fp) {
  std::ostringstream os;
  os << "(flavor="
     << (fp.flavor == RunFingerprint::Flavor::kRound ? "round" : "async")
     << ", seed=" << fp.seed << ", clients=" << fp.num_clients
     << ", participants=" << fp.participants_per_round
     << ", params=" << fp.param_count << ", total=" << fp.total << ")";
  return os.str();
}

}  // namespace

RunCheckpoints::RunCheckpoints(const RunConfig& config,
                               const RunFingerprint& fingerprint)
    : dir_(config.checkpoint_dir),
      every_(config.checkpoint_every_n_rounds),
      resume_from_(config.resume_from),
      halt_after_(config.halt_after_round),
      fingerprint_(fingerprint),
      algorithm_(to_string(config.algorithm)) {
  // An empty dir keeps every save path untouched, so a checkpoint-free run
  // stays bit-identical to a pre-checkpoint build.
  if (!dir_.empty()) store_.emplace(dir_);
}

std::optional<RunCheckpoint> RunCheckpoints::resume() {
  if (resume_from_.empty()) return std::nullopt;
  APPFL_SPAN("ckpt.restore", "ckpt");
  obs::flight_record("ckpt.restore");
  std::optional<CheckpointStore> separate;
  CheckpointStore& from = store_ && resume_from_ == dir_
                              ? *store_
                              : separate.emplace(resume_from_);
  std::optional<RunCheckpoint> ckpt = load_latest_checkpoint(from);
  for (const std::string& diag : from.report().diagnostics) {
    std::fprintf(stderr, "warning: checkpoint recovery: %s\n", diag.c_str());
  }
  APPFL_CHECK_MSG(ckpt.has_value(), "resume_from='" << resume_from_
                      << "' holds no loadable checkpoint");
  APPFL_CHECK_MSG(ckpt->fingerprint == fingerprint_,
                  "checkpoint fingerprint mismatch: checkpoint is "
                      << describe(ckpt->fingerprint) << ", this run is "
                      << describe(fingerprint_));
  return ckpt;
}

void RunCheckpoints::maybe_save(
    std::uint64_t seq, const std::function<void(RunCheckpoint&)>& fill) {
  if (!store_ ||
      (seq % every_ != 0 && seq != fingerprint_.total && !halts_at(seq))) {
    return;
  }
  APPFL_SPAN("ckpt.save", "ckpt");
  obs::flight_record("ckpt.save", "{\"round\":" + std::to_string(seq) + "}");
  RunCheckpoint ckpt;
  ckpt.fingerprint = fingerprint_;
  ckpt.algorithm = algorithm_;
  ckpt.completed = seq;
  fill(ckpt);
  store_->save(encode_checkpoint(ckpt), seq);
  ++written_;
}

}  // namespace appfl::core
