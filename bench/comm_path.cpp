// Comm data path before/after bench: CRC32 (bytewise seed loop vs the
// carry-less-multiply fold), proto encode (push-back growth vs pooled
// exact-reserve append), proto decode (owning vs zero-copy view +
// detach_into), and server aggregation (serial vs chunked-parallel) at
// FEMNIST client counts.
// Writes BENCH_comm.json so the perf claims of the comm-path PR are
// reproducible from one binary.
//
//   comm_path           full run, writes BENCH_comm.json
//   comm_path --smoke   seconds-long CI mode: tiny sizes, asserts the
//                       bit-identity invariants, prints the time split,
//                       writes nothing
//
// Env knobs: APPFL_BENCH_COMM_PATH (output path), APPFL_BENCH_COMM_REPS,
// APPFL_BENCH_AGG_FLOATS (aggregate model dimension).
#include <algorithm>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "comm/compression.hpp"
#include "comm/envelope.hpp"
#include "comm/message.hpp"
#include "comm/protolite.hpp"
#include "core/aggregate.hpp"
#include "rng/distributions.hpp"
#include "tensor/accumulate.hpp"
#include "tensor/gemm.hpp"
#include "util/check.hpp"
#include "util/stopwatch.hpp"

namespace {

/// Keeps a computed value alive without linking google-benchmark.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "g"(&v) : "memory");
}

class ScopedEngine {
 public:
  ScopedEngine(appfl::tensor::KernelBackend backend, std::size_t threads)
      : previous_(appfl::tensor::kernel_config()) {
    appfl::tensor::set_kernel_config({backend, threads});
  }
  ~ScopedEngine() { appfl::tensor::set_kernel_config(previous_); }

 private:
  appfl::tensor::KernelConfig previous_;
};

double time_best_of(int reps, const std::function<void()>& fn) {
  fn();  // warm-up: faults pages, fills pools and workspaces
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    appfl::util::Stopwatch sw;
    fn();
    best = std::min(best, sw.elapsed_seconds());
  }
  return best * 1e3;  // ms
}

std::vector<std::uint8_t> random_bytes(std::uint64_t seed, std::size_t n) {
  appfl::rng::Rng r(seed);
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(r.next());
  return v;
}

std::vector<float> gaussian_vec(std::uint64_t seed, std::size_t n) {
  appfl::rng::Rng r(seed);
  std::vector<float> v(n);
  for (auto& x : v) {
    x = static_cast<float>(appfl::rng::normal(r, 0.0, 1.0));
  }
  return v;
}

/// The seed repo's proto encode: a default ProtoWriter growing by push_back
/// with no pre-reserve — the "before" side of the encode comparison.
std::vector<std::uint8_t> encode_proto_seed(const appfl::comm::Message& m) {
  appfl::comm::ProtoWriter w;
  w.add_varint(1, static_cast<std::uint64_t>(m.kind));
  w.add_varint(2, m.sender);
  w.add_varint(3, m.receiver);
  w.add_varint(4, m.round);
  w.add_varint(5, m.sample_count);
  w.add_double(6, m.loss);
  w.add_packed_floats(7, m.primal);
  if (!m.dual.empty()) w.add_packed_floats(8, m.dual);
  if (m.rho != 0.0) w.add_double(9, m.rho);
  if (m.codec != 0) {
    w.add_varint(10, m.codec);
    w.add_bytes(11, m.packed);
  }
  return w.take();
}

struct BenchCase {
  std::string name;
  std::size_t bytes = 0;
  double before_ms = 0.0;
  double after_ms = 0.0;

  double speedup() const {
    return after_ms > 0.0 ? before_ms / after_ms : 0.0;
  }
};

appfl::comm::Message update_of(std::size_t floats) {
  appfl::comm::Message m;
  m.kind = appfl::comm::MessageKind::kLocalUpdate;
  m.sender = 1;
  m.round = 3;
  m.sample_count = 100;
  m.loss = 0.5;
  m.primal = gaussian_vec(floats, floats);
  return m;
}

std::string size_label(std::size_t payload_bytes) {
  if (payload_bytes >= (std::size_t{1} << 20)) {
    return std::to_string(payload_bytes >> 20) + "MB";
  }
  return std::to_string(payload_bytes >> 10) + "KB";
}

BenchCase crc_case(std::size_t payload_bytes, int reps) {
  const auto buf = random_bytes(payload_bytes, payload_bytes);
  APPFL_CHECK_MSG(appfl::comm::crc32(buf) == appfl::comm::crc32_bytewise(buf),
                  "CRC diverged from the bytewise baseline");
  BenchCase c;
  c.name = "crc32_" + size_label(payload_bytes);
  c.bytes = payload_bytes;
  c.before_ms =
      time_best_of(reps, [&] { keep(appfl::comm::crc32_bytewise(buf)); });
  c.after_ms = time_best_of(reps, [&] { keep(appfl::comm::crc32(buf)); });
  return c;
}

BenchCase encode_case(std::size_t floats, int reps) {
  const auto msg = update_of(floats);
  BenchCase c;
  c.name = "encode_proto_" + size_label(4 * floats);
  c.bytes = appfl::comm::proto_encoded_size(msg);
  c.before_ms = time_best_of(reps, [&] { keep(encode_proto_seed(msg)); });
  std::vector<std::uint8_t> pooled;  // recycled across rounds, like the pool
  c.after_ms = time_best_of(reps, [&] {
    pooled.clear();
    appfl::comm::encode_proto_append(msg, pooled);
    keep(pooled);
  });
  return c;
}

BenchCase decode_case(std::size_t floats, int reps) {
  const auto bytes = appfl::comm::encode_proto(update_of(floats));
  BenchCase c;
  c.name = "decode_proto_" + size_label(4 * floats);
  c.bytes = bytes.size();
  c.before_ms =
      time_best_of(reps, [&] { keep(appfl::comm::decode_proto(bytes)); });
  appfl::comm::Message reused;  // capacities survive, like the gather loop
  c.after_ms = time_best_of(reps, [&] {
    appfl::comm::decode_proto_view(bytes).detach_into(reused);
    keep(reused);
  });
  APPFL_CHECK_MSG(reused == appfl::comm::decode_proto(bytes),
                  "view decode diverged from the owning decode");
  return c;
}

BenchCase e2e_case(std::size_t floats, int reps) {
  // One full hop: encode the update, CRC-frame it, verify + decode — the
  // per-message work a send/gather pair performs with fault framing on.
  const auto msg = update_of(floats);
  BenchCase c;
  c.name = "e2e_frame_" + size_label(4 * floats);
  c.bytes = appfl::comm::proto_encoded_size(msg) + appfl::comm::kEnvelopeOverhead;
  // The seed pipeline, reconstructed: push-back proto encode, bytewise CRC
  // at the sender, O(n) front insertion of the envelope header, bytewise
  // re-CRC at the receiver, owning decode. (seal_envelope itself now runs
  // the fast CRC, so timing it would contaminate the baseline.)
  c.before_ms = time_best_of(reps, [&] {
    auto payload = encode_proto_seed(msg);
    const std::uint32_t send_crc = appfl::comm::crc32_bytewise(payload);
    payload.insert(payload.begin(), appfl::comm::kEnvelopeOverhead, 0);
    const std::span<const std::uint8_t> body{
        payload.data() + appfl::comm::kEnvelopeOverhead,
        payload.size() - appfl::comm::kEnvelopeOverhead};
    APPFL_CHECK(appfl::comm::crc32_bytewise(body) == send_crc);
    keep(appfl::comm::decode_proto(body));
  });
  std::vector<std::uint8_t> pooled;
  appfl::comm::Message reused;
  c.after_ms = time_best_of(reps, [&] {
    pooled.clear();
    pooled.resize(appfl::comm::kEnvelopeOverhead);
    appfl::comm::encode_proto_append(msg, pooled);
    appfl::comm::seal_envelope_in_place(pooled);
    const auto payload = appfl::comm::open_envelope(pooled);
    APPFL_CHECK(payload.has_value());
    appfl::comm::decode_proto_view(*payload).detach_into(reused);
    keep(reused);
  });
  APPFL_CHECK_MSG(reused == msg, "e2e round trip corrupted the message");
  return c;
}

std::vector<std::uint8_t> packed_floats(std::uint64_t seed,
                                        std::size_t floats) {
  const std::vector<float> v = gaussian_vec(seed, floats);
  std::vector<std::uint8_t> bytes(4 * floats);
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

/// Consensus aggregate over wire-resident (z_p, λ_p) payloads.
/// before: the seed data path — every payload decoded into a fresh owning
///         vector (FloatView::to_vector) first, then reduced by the serial
///         scalar loop, so all the bytes are touched twice plus 2P
///         model-sized allocations per round.
/// after:  the fused path — consensus_sum_stream reads the wire bytes once
///         through the AVX2 accumulate kernels. Bit-identical by memcmp.
BenchCase aggregate_case(std::size_t clients, std::size_t floats, int reps) {
  std::vector<std::vector<std::uint8_t>> primal, dual;
  primal.reserve(clients);
  dual.reserve(clients);
  for (std::size_t p = 0; p < clients; ++p) {
    primal.push_back(packed_floats(2 * p + 1, floats));
    dual.push_back(packed_floats(2 * p + 2, floats));
  }
  const float inv_p = 1.0F / static_cast<float>(clients);
  const float inv_rho = 1.0F / 2.0F;

  BenchCase c;
  c.name = "aggregate_consensus_p" + std::to_string(clients);
  c.bytes = 4 * floats * clients * 2;
  std::vector<float> decoded(floats), fused(floats);
  c.before_ms = time_best_of(reps, [&] {
    std::fill(decoded.begin(), decoded.end(), 0.0F);
    for (std::size_t p = 0; p < clients; ++p) {
      const std::vector<float> z =
          appfl::comm::FloatView(primal[p].data(), floats).to_vector();
      const std::vector<float> l =
          appfl::comm::FloatView(dual[p].data(), floats).to_vector();
      for (std::size_t i = 0; i < floats; ++i) {
        decoded[i] += inv_p * (z[i] - inv_rho * l[i]);
      }
    }
    keep(decoded);
  });
  std::vector<appfl::core::ConsensusStreamTerm> terms(clients);
  for (std::size_t p = 0; p < clients; ++p) {
    terms[p] = {appfl::comm::WirePayload::f32_bytes(primal[p].data(), floats),
                appfl::comm::WirePayload::f32_bytes(dual[p].data(), floats)};
  }
  c.after_ms = time_best_of(reps, [&] {
    appfl::core::consensus_sum_stream(terms, inv_p, inv_rho, fused);
    keep(fused);
  });
  APPFL_CHECK_MSG(std::memcmp(decoded.data(), fused.data(), 4 * floats) == 0,
                  "fused consensus diverged from decode-then-reduce");
  return c;
}

/// FedAvg-style weighted aggregate over wire-resident primal payloads:
/// decode-then-reduce vs weighted_sum_stream. Same bit-identity contract.
BenchCase fused_aggregate_case(std::size_t clients, std::size_t floats,
                               int reps) {
  std::vector<std::vector<std::uint8_t>> primal;
  std::vector<float> weights(clients);
  primal.reserve(clients);
  for (std::size_t p = 0; p < clients; ++p) {
    primal.push_back(packed_floats(3 * p + 1, floats));
    weights[p] = 1.0F / static_cast<float>(clients - p);
  }

  BenchCase c;
  c.name = "fused_aggregate_p" + std::to_string(clients);
  c.bytes = 4 * floats * clients;
  std::vector<float> decoded(floats), fused(floats);
  c.before_ms = time_best_of(reps, [&] {
    std::fill(decoded.begin(), decoded.end(), 0.0F);
    for (std::size_t p = 0; p < clients; ++p) {
      const std::vector<float> z =
          appfl::comm::FloatView(primal[p].data(), floats).to_vector();
      for (std::size_t i = 0; i < floats; ++i) {
        decoded[i] += weights[p] * z[i];
      }
    }
    keep(decoded);
  });
  std::vector<appfl::core::StreamTerm> terms(clients);
  for (std::size_t p = 0; p < clients; ++p) {
    terms[p] = {appfl::comm::WirePayload::f32_bytes(primal[p].data(), floats),
                weights[p]};
  }
  c.after_ms = time_best_of(reps, [&] {
    appfl::core::weighted_sum_stream(terms, fused);
    keep(fused);
  });
  APPFL_CHECK_MSG(std::memcmp(decoded.data(), fused.data(), 4 * floats) == 0,
                  "fused weighted sum diverged from decode-then-reduce");
  return c;
}

int run_smoke() {
  // CI mode: prove the invariants on small inputs and show the time split.
  const std::size_t floats = 4096;
  const auto msg = update_of(floats);

  appfl::util::Stopwatch sw;
  std::vector<std::uint8_t> buf(appfl::comm::kEnvelopeOverhead);
  appfl::comm::encode_proto_append(msg, buf);
  const double encode_ms = sw.elapsed_seconds() * 1e3;
  APPFL_CHECK(buf.size() == appfl::comm::kEnvelopeOverhead +
                                appfl::comm::proto_encoded_size(msg));

  sw.reset();
  appfl::comm::seal_envelope_in_place(buf);
  const double crc_ms = sw.elapsed_seconds() * 1e3;
  const auto big = random_bytes(7, (std::size_t{1} << 20) + 17);
  APPFL_CHECK_MSG(appfl::comm::crc32(big) == appfl::comm::crc32_bytewise(big),
                  "CRC diverged from the bytewise baseline");

  sw.reset();
  const auto payload = appfl::comm::open_envelope(buf);
  APPFL_CHECK_MSG(payload.has_value(), "smoke envelope failed verification");
  appfl::comm::Message decoded;
  appfl::comm::decode_proto_view(*payload).detach_into(decoded);
  const double decode_ms = sw.elapsed_seconds() * 1e3;
  APPFL_CHECK_MSG(decoded == msg, "smoke round trip corrupted the message");

  // fp16 wire codec round-trips within its bound.
  const auto fp16 = appfl::comm::encode_fp16(msg.primal);
  const auto back = appfl::comm::decode_fp16(fp16);
  APPFL_CHECK(back.size() == floats);
  for (std::size_t i = 0; i < floats; ++i) {
    APPFL_CHECK(std::abs(back[i] - msg.primal[i]) <=
                appfl::comm::kFp16RelativeErrorBound *
                        std::abs(msg.primal[i]) +
                    1e-24);
  }

  sw.reset();
  const auto agg = aggregate_case(203, 32768, 3);
  const double aggregate_ms = sw.elapsed_seconds() * 1e3;
  // Regression gate for the fused decode→aggregate path: the CI workflow
  // fails if the FEMNIST-scale consensus case drops below 2× (the full
  // bench demonstrates ≥3× — smoke sizes are smaller and noisier).
  APPFL_CHECK_MSG(agg.speedup() >= 2.0,
                  "aggregate_consensus_p203 regressed: fused speedup "
                      << agg.speedup() << "x < 2x over decode-then-reduce");
  const auto fused = fused_aggregate_case(50, 32768, 3);
  keep(fused);

  std::cout << "smoke time split (ms): encode=" << encode_ms
            << " crc=" << crc_ms << " decode=" << decode_ms
            << " aggregate=" << aggregate_ms << "\n";
  std::cout << "smoke aggregate_consensus_p203 fused speedup: "
            << agg.speedup() << "x (gate: >= 2x)\n";
  std::cout << "comm_path smoke OK\n";
  return 0;
}

void write_report(const std::vector<BenchCase>& cases,
                  const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  // fp16 halves the float payload; the constant header terms vanish at size.
  const std::size_t n = 1 << 20;
  const double fp16_ratio =
      static_cast<double>(8 + 2 * n) / static_cast<double>(4 * n);
  out << "{\n";
  out << "  \"schema\": \"appfl-bench-comm-v1\",\n";
  out << "  \"note\": \"before = seed comm path (bytewise CRC, push-back "
         "proto encode, owning decode, decode-then-reduce aggregate); after "
         "= carry-less-multiply CRC fold (slicing-by-8 without PCLMULQDQ), "
         "pooled append encode, zero-copy view decode, fused single-pass "
         "streaming aggregate (AVX2 when available)\",\n";
  const std::size_t hw = std::thread::hardware_concurrency();
  const appfl::tensor::KernelConfig kc = appfl::tensor::kernel_config();
  out << "  \"hardware_threads\": " << hw << ",\n";
  out << "  \"kernel_pool_threads\": " << (kc.threads == 0 ? hw : kc.threads)
      << ",\n";
  out << "  \"accumulate_uses_avx2\": "
      << (appfl::tensor::accumulate_uses_avx2() ? "true" : "false") << ",\n";
  out << "  \"crc32_uses_pclmul\": "
      << (appfl::comm::crc32_uses_pclmul() ? "true" : "false") << ",\n";
  out << "  \"fp16_wire_ratio\": " << fp16_ratio << ",\n";
  out << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    out << "    {\"name\": \"" << c.name << "\", "
        << "\"bytes\": " << c.bytes << ", "
        << "\"before_ms\": " << c.before_ms << ", "
        << "\"after_ms\": " << c.after_ms << ", "
        << "\"speedup\": " << c.speedup() << "}"
        << (i + 1 < cases.size() ? "," : "") << "\n";
    std::cout << "BENCH " << c.name << ": before=" << c.before_ms
              << "ms after=" << c.after_ms << "ms speedup=" << c.speedup()
              << "x\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") return run_smoke();
  }
  const int reps = static_cast<int>(
      appfl::bench::env_size_t("APPFL_BENCH_COMM_REPS", 15));
  const std::size_t agg_floats =
      appfl::bench::env_size_t("APPFL_BENCH_AGG_FLOATS", 262144);

  std::vector<BenchCase> cases;
  // ISSUE payload ladder: 64 KB, 1 MB, 8 MB.
  const std::size_t payloads[] = {std::size_t{64} << 10, std::size_t{1} << 20,
                                  std::size_t{8} << 20};
  for (std::size_t bytes : payloads) cases.push_back(crc_case(bytes, reps));
  for (std::size_t bytes : payloads) {
    cases.push_back(encode_case(bytes / 4, reps));
  }
  for (std::size_t bytes : payloads) {
    cases.push_back(decode_case(bytes / 4, reps));
  }
  for (std::size_t bytes : payloads) cases.push_back(e2e_case(bytes / 4, reps));
  // FEMNIST client-count ladder at a 1 MB model: consensus (ADMM) and
  // weighted (FedAvg) aggregates, decode-then-reduce vs fused streaming.
  for (std::size_t clients : {std::size_t{5}, std::size_t{50},
                              std::size_t{203}}) {
    cases.push_back(aggregate_case(clients, agg_floats, reps));
  }
  for (std::size_t clients : {std::size_t{5}, std::size_t{50},
                              std::size_t{203}}) {
    cases.push_back(fused_aggregate_case(clients, agg_floats, reps));
  }

  const char* path = std::getenv("APPFL_BENCH_COMM_PATH");
  write_report(cases, path != nullptr ? path : "BENCH_comm.json");
  return 0;
}
