// One dropout-resilient secure-aggregation round (dp/secure_agg.hpp) over a
// sampled cohort, in messages. The round owns what the protocol decides:
// the threshold, the round seed, each slot's SecureAggClient and held
// update, the wire format (share packets and masked u64 words ride
// Message::primal as float bit patterns, which both wire encodings carry
// exactly) and the scaling (an update is quantized at kDefaultScale × its
// aggregation weight; the survivor sum is divided by kDefaultScale × Σ
// weights). A round loop keeps only its transport.
//
// Slot s is the cohort's s-th smallest id. A round runs share_message for
// every slot that trained, deposit_share for every share packet that
// arrived, close_share_wave (fixing U2), masked_upload for every slot that
// uploads(), and unmask over the masked uploads that arrived (U3).
// share_message and masked_upload may run concurrently for distinct slots.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "core/config.hpp"
#include "dp/secure_agg.hpp"

namespace appfl::core {

/// Why a secure-aggregation round degraded to a counted skip. Attached to
/// RoundMetrics (and the per-round JSONL line) so a post-mortem names the
/// failure instead of just counting it.
enum class SecaggDegradeReason : std::uint8_t {
  kNone = 0,             // round did not degrade
  kBelowThreshold,       // |U3| < t: too few survivor uploads to unmask
  kShareWaveTimeout,     // share packets lost/late: U2 fell below t
  kRootUnreachable,      // tree root never produced a reduced sum
};

std::string to_string(SecaggDegradeReason r);

/// Packs opaque bytes into float words: 4-byte length prefix, then the
/// bytes, zero-padded to a word boundary.
std::vector<float> pack_bytes_as_floats(std::span<const std::uint8_t> bytes);
/// Exact inverse of pack_bytes_as_floats. Throws on a malformed prefix.
std::vector<std::uint8_t> unpack_bytes_from_floats(
    std::span<const float> words);

/// Bit-casts a masked u64 vector to 2 floats per word, and back from a
/// float32 wire payload (throws on another encoding or an odd count).
std::vector<float> pack_words_as_floats(std::span<const std::uint64_t> words);
std::vector<std::uint64_t> unpack_words_from_floats(
    const comm::WirePayload& floats);

/// Floats a masked upload of a `parameters`-value model takes on the wire.
inline std::size_t masked_upload_floats(std::size_t parameters) {
  return 2 * parameters;
}

class SecureRound {
 public:
  struct Result {
    /// kNone: `mean` is the weighted survivor mean. Otherwise the round
    /// degrades and the model must not move.
    SecaggDegradeReason degrade = SecaggDegradeReason::kNone;
    std::vector<float> mean;
    std::uint64_t reconstructions = 0;  ///< pair keys of U2 \ U3 rebuilt
  };

  /// `cohort` in ascending order. Resolves the threshold (the cohort's
  /// majority when config.secure_agg_threshold is 0) and throws
  /// appfl::Error for a cohort below 2 or a threshold above the cohort.
  SecureRound(const RunConfig& config, std::vector<std::uint32_t> cohort,
              std::uint32_t round);

  std::size_t threshold() const { return threshold_; }

  /// Holds slot `slot`'s trained update; returns its kSecAggShares message.
  comm::Message share_message(std::size_t slot, comm::Message update);

  /// Files a share packet that arrived (its message's primal). False, and
  /// `sender` stays out of U2, for a packet that fails verification or
  /// repeats an accepted one. Throws on a malformed length prefix.
  bool deposit_share(std::uint32_t sender, std::span<const float> payload);

  /// Fixes U2. False when |U2| < threshold: no slot uploads.
  bool close_share_wave();
  const std::vector<std::uint32_t>& u2() const { return u2_; }
  bool in_u2(std::size_t slot) const { return in_u2_[slot] != 0; }
  /// The slot trained, is in U2, and U2 reached the threshold.
  bool uploads(std::size_t slot) const {
    return recoverable_ && in_u2(slot) && clients_[slot].has_value();
  }

  /// Slot `slot`'s masked kLocalUpdate (requires uploads(slot)).
  comm::Message masked_upload(std::size_t slot) const;

  /// Unmasks U3, in ascending sender order (reads sender, sample_count and
  /// primal of each).
  Result unmask(std::span<const comm::GatherUpdate> u3) const;

 private:
  double weight(std::uint64_t sample_count) const {
    return weighted_ ? static_cast<double>(sample_count) : 1.0;
  }

  std::vector<std::uint32_t> cohort_;
  std::uint32_t round_ = 0;
  bool weighted_ = true;
  std::size_t threshold_ = 0;
  std::uint64_t seed_ = 0;
  dp::SecureAggServer server_;
  std::vector<std::optional<dp::SecureAggClient>> clients_;
  std::vector<comm::Message> updates_;
  std::vector<std::uint32_t> u2_;
  std::vector<char> in_u2_;
  bool recoverable_ = false;
};

}  // namespace appfl::core
