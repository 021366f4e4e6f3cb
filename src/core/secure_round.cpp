#include "core/secure_round.hpp"

#include <algorithm>
#include <cstring>

#include "rng/rng.hpp"
#include "util/check.hpp"

namespace appfl::core {

namespace {

std::size_t resolve_threshold(const RunConfig& config,
                              std::span<const std::uint32_t> cohort) {
  const std::size_t n = cohort.size();
  APPFL_CHECK_MSG(n >= 2, "secure aggregation needs a cohort of at least 2, "
                          "got " << n);
  APPFL_CHECK(std::is_sorted(cohort.begin(), cohort.end()));
  const std::size_t t = config.secure_agg_threshold != 0
                            ? config.secure_agg_threshold
                            : n / 2 + 1;
  APPFL_CHECK_MSG(t <= n, "secure_agg_threshold " << t
                              << " exceeds the round cohort of " << n);
  return t;
}

}  // namespace

std::string to_string(SecaggDegradeReason r) {
  switch (r) {
    case SecaggDegradeReason::kNone: return "none";
    case SecaggDegradeReason::kBelowThreshold: return "below-threshold";
    case SecaggDegradeReason::kShareWaveTimeout: return "share-wave-timeout";
    case SecaggDegradeReason::kRootUnreachable: return "root-unreachable";
  }
  return "?";
}

std::vector<float> pack_bytes_as_floats(std::span<const std::uint8_t> bytes) {
  std::vector<std::uint8_t> framed(4 + (bytes.size() + 3) / 4 * 4, 0);
  for (int i = 0; i < 4; ++i) {
    framed[i] = static_cast<std::uint8_t>(bytes.size() >> (8 * i));
  }
  std::copy(bytes.begin(), bytes.end(), framed.begin() + 4);
  std::vector<float> out(framed.size() / 4);
  std::memcpy(out.data(), framed.data(), framed.size());
  return out;
}

std::vector<std::uint8_t> unpack_bytes_from_floats(
    std::span<const float> words) {
  APPFL_CHECK_MSG(!words.empty(), "empty transport payload");
  const auto* framed = reinterpret_cast<const std::uint8_t*>(words.data());
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t{framed[i]} << (8 * i);
  APPFL_CHECK_MSG(4 + std::size_t{len} <= words.size() * 4,
                  "transport payload length prefix " << len << " exceeds "
                      << words.size() * 4 - 4 << " bytes");
  return {framed + 4, framed + 4 + len};
}

std::vector<float> pack_words_as_floats(
    std::span<const std::uint64_t> words) {
  std::vector<float> out(words.size() * 2);
  std::memcpy(out.data(), words.data(), words.size() * 8);
  return out;
}

std::vector<std::uint64_t> unpack_words_from_floats(
    const comm::WirePayload& floats) {
  APPFL_CHECK_MSG(floats.enc == comm::WireEncoding::kF32 &&
                      floats.count % 2 == 0,
                  "masked payload of " << floats.count
                                       << " floats is not f32 words");
  std::vector<std::uint64_t> out(floats.count / 2);
  std::memcpy(out.data(), floats.data, floats.count * 4);
  return out;
}

SecureRound::SecureRound(const RunConfig& config,
                         std::vector<std::uint32_t> cohort,
                         std::uint32_t round)
    : cohort_(std::move(cohort)),
      round_(round),
      weighted_(config.weighted_aggregation),
      threshold_(resolve_threshold(config, cohort_)),
      seed_(rng::derive_seed(config.seed, {rng::stream::kSecureAgg, round})),
      server_(cohort_, seed_, threshold_),
      clients_(cohort_.size()),
      updates_(cohort_.size()),
      in_u2_(cohort_.size(), 0) {}

comm::Message SecureRound::share_message(std::size_t slot,
                                         comm::Message update) {
  APPFL_CHECK(slot < cohort_.size() && !clients_[slot]);
  const dp::SecureAggClient& client =
      clients_[slot].emplace(cohort_[slot], cohort_, seed_, threshold_);
  updates_[slot] = std::move(update);
  comm::Message shares;
  shares.kind = comm::MessageKind::kSecAggShares;
  shares.sender = cohort_[slot];
  shares.round = round_;
  shares.primal = pack_bytes_as_floats(client.share_packet());
  return shares;
}

bool SecureRound::deposit_share(std::uint32_t sender,
                                std::span<const float> payload) {
  return server_.deposit_share_packet(sender,
                                      unpack_bytes_from_floats(payload));
}

bool SecureRound::close_share_wave() {
  u2_ = server_.share_survivors();
  for (std::size_t s = 0; s < cohort_.size(); ++s) {
    in_u2_[s] = std::binary_search(u2_.begin(), u2_.end(), cohort_[s]);
  }
  recoverable_ = u2_.size() >= threshold_;
  return recoverable_;
}

comm::Message SecureRound::masked_upload(std::size_t slot) const {
  APPFL_CHECK(uploads(slot));
  const comm::Message& update = updates_[slot];
  comm::Message masked;
  masked.kind = comm::MessageKind::kLocalUpdate;
  masked.sender = cohort_[slot];
  masked.round = round_;
  masked.sample_count = update.sample_count;
  masked.loss = update.loss;
  masked.primal = pack_words_as_floats(clients_[slot]->mask(
      update.primal, u2_, dp::kDefaultScale, weight(update.sample_count)));
  return masked;
}

SecureRound::Result SecureRound::unmask(
    std::span<const comm::GatherUpdate> u3) const {
  Result result;
  if (!recoverable_) {  // too few share packets: nobody uploaded
    result.degrade = SecaggDegradeReason::kShareWaveTimeout;
    return result;
  }
  std::vector<std::uint32_t> ids;
  std::vector<std::vector<std::uint64_t>> words;
  ids.reserve(u3.size());
  words.reserve(u3.size());
  double total_weight = 0.0;
  for (const comm::GatherUpdate& u : u3) {
    ids.push_back(u.sender);
    words.push_back(unpack_words_from_floats(u.primal));
    total_weight += weight(u.sample_count);
  }
  const dp::SecureAggServer::Recovery recovery = server_.unmask(ids, words);
  if (!recovery.ok) {  // |U3| < t: never a partial unmask
    result.degrade = SecaggDegradeReason::kBelowThreshold;
    return result;
  }
  result.reconstructions = recovery.pair_keys_reconstructed;
  result.mean =
      dp::dequantize_sum(recovery.sum, dp::kDefaultScale * total_weight);
  return result;
}

}  // namespace appfl::core
