#include "comm/mailbox.hpp"

#include <algorithm>
#include <utility>

#include "rng/rng.hpp"
#include "util/check.hpp"

namespace appfl::comm {

bool FaultConfig::enabled() const {
  return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 || corrupt > 0.0 ||
         delay > 0.0 || !dead.empty();
}

void FaultConfig::validate() const {
  const auto check_prob = [](double p, const char* name) {
    APPFL_CHECK_MSG(p >= 0.0 && p <= 1.0,
                    "fault probability " << name << " must be in [0, 1], got "
                                         << p);
  };
  check_prob(drop, "drop");
  check_prob(duplicate, "duplicate");
  check_prob(reorder, "reorder");
  check_prob(corrupt, "corrupt");
  check_prob(delay, "delay");
  if (delay > 0.0) {
    APPFL_CHECK_MSG(delay_max_s > 0.0,
                    "delay faults need a positive delay_max_s");
  }
}

FaultInjector::FaultInjector(FaultConfig config, std::uint64_t seed)
    : config_(std::move(config)), seed_(seed) {
  config_.validate();
}

FaultInjector::Verdict FaultInjector::judge(std::uint32_t from,
                                            std::uint32_t to,
                                            std::size_t num_bytes) {
  Verdict v;
  const bool link_dead =
      std::find(config_.dead.begin(), config_.dead.end(), from) !=
          config_.dead.end() ||
      std::find(config_.dead.begin(), config_.dead.end(), to) !=
          config_.dead.end();
  std::uint64_t seq;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t key = (std::uint64_t{from} << 32) | to;
    seq = link_seq_[key]++;
    if (link_dead) {
      v.drop = true;
      ++stats_.drops;
      return v;
    }
  }
  rng::Rng r(rng::derive_seed(seed_, {rng::stream::kCommFault, from, to, seq}));
  // Fixed draw order so enabling one fault knob never shifts the schedule
  // of another: drop, duplicate, reorder, delay(+amount), corrupt(+where).
  v.drop = r.uniform01() < config_.drop;
  v.duplicate = r.uniform01() < config_.duplicate;
  v.reorder = r.uniform01() < config_.reorder;
  const bool delayed = r.uniform01() < config_.delay;
  v.delay_s = delayed ? config_.delay_max_s * r.uniform01_open() : 0.0;
  v.corrupt = r.uniform01() < config_.corrupt && num_bytes > 0;
  if (v.corrupt) {
    v.corrupt_offset = static_cast<std::size_t>(r.uniform_below(num_bytes));
    v.corrupt_mask = static_cast<std::uint8_t>(1U << r.uniform_below(8));
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (v.drop) {
      ++stats_.drops;
    } else {
      if (v.duplicate) ++stats_.duplicates;
      if (v.reorder) ++stats_.reorders;
      if (delayed) ++stats_.delays;
      if (v.corrupt) ++stats_.corruptions;
    }
  }
  return v;
}

FaultStats FaultInjector::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

FaultInjector::PersistentState FaultInjector::persistent_state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  PersistentState s;
  s.stats = stats_;
  // Key order, not hash order: the map's iteration order depends on which
  // pool worker first sent on each link, and checkpoint bytes must not.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> links(link_seq_.begin(),
                                                             link_seq_.end());
  std::sort(links.begin(), links.end());
  s.link_keys.reserve(links.size());
  s.link_seqs.reserve(links.size());
  for (const auto& [key, seq] : links) {
    s.link_keys.push_back(key);
    s.link_seqs.push_back(seq);
  }
  return s;
}

void FaultInjector::restore_persistent_state(const PersistentState& s) {
  APPFL_CHECK(s.link_keys.size() == s.link_seqs.size());
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = s.stats;
  link_seq_.clear();
  for (std::size_t i = 0; i < s.link_keys.size(); ++i) {
    link_seq_[s.link_keys[i]] = s.link_seqs[i];
  }
}

bool Mailbox::push(Datagram d) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ > 0 && queue_.size() >= capacity_) {
      ++overflows_;
      return false;
    }
    queue_.push_back(std::move(d));
  }
  cv_.notify_one();
  return true;
}

bool Mailbox::push_front(Datagram d) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (capacity_ > 0 && queue_.size() >= capacity_) {
      ++overflows_;
      return false;
    }
    queue_.push_front(std::move(d));
  }
  cv_.notify_one();
  return true;
}

std::uint64_t Mailbox::overflows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return overflows_;
}

Datagram Mailbox::pop() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return !queue_.empty(); });
  Datagram d = std::move(queue_.front());
  queue_.pop_front();
  return d;
}

std::optional<Datagram> Mailbox::try_pop() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.empty()) return std::nullopt;
  Datagram d = std::move(queue_.front());
  queue_.pop_front();
  return d;
}

std::optional<Datagram> Mailbox::try_pop_ready(double now) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->deliver_at <= now) {
      Datagram d = std::move(*it);
      queue_.erase(it);
      return d;
    }
  }
  return std::nullopt;
}

double Mailbox::next_deliver_at() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (queue_.empty()) return -1.0;
  double earliest = queue_.front().deliver_at;
  for (const Datagram& d : queue_) earliest = std::min(earliest, d.deliver_at);
  return earliest;
}

std::size_t Mailbox::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

InProcNetwork::InProcNetwork(std::size_t num_endpoints, FaultConfig faults,
                             std::uint64_t seed, std::size_t mailbox_capacity)
    : boxes_(num_endpoints) {
  APPFL_CHECK_MSG(num_endpoints >= 2,
                  "a network needs at least a server and one client");
  if (mailbox_capacity > 0) {
    for (Mailbox& box : boxes_) box.set_capacity(mailbox_capacity);
  }
  if (faults.enabled()) {
    injector_ = std::make_unique<FaultInjector>(std::move(faults), seed);
  }
}

std::uint64_t InProcNetwork::mailbox_overflows() const {
  std::uint64_t total = 0;
  for (const Mailbox& box : boxes_) total += box.overflows();
  return total;
}

InProcNetwork::SendOutcome InProcNetwork::send(std::uint32_t from,
                                               std::uint32_t to,
                                               std::vector<std::uint8_t> bytes,
                                               double now) {
  APPFL_CHECK_MSG(from < boxes_.size(), "bad sender endpoint " << from);
  APPFL_CHECK_MSG(to < boxes_.size(), "bad receiver endpoint " << to);
  if (!injector_) {
    if (!boxes_[to].push({from, std::move(bytes), now})) return {false, now};
    return {true, now};
  }
  const FaultInjector::Verdict v = injector_->judge(from, to, bytes.size());
  if (v.drop) return {false, now};
  if (v.corrupt) bytes[v.corrupt_offset] ^= v.corrupt_mask;
  const double at = now + v.delay_s;
  Datagram d{from, std::move(bytes), at};
  std::optional<Datagram> dup;
  if (v.duplicate) dup = d;  // identical second delivery
  bool delivered;
  if (v.reorder) {
    delivered = boxes_[to].push_front(std::move(d));
  } else {
    delivered = boxes_[to].push(std::move(d));
  }
  // The duplicate is an extra delivery: losing it to the high-water mark
  // only costs the redundant copy, never the outcome the sender sees.
  if (dup) boxes_[to].push(std::move(*dup));
  if (!delivered) return {false, now};
  return {true, at, v.corrupt};
}

Datagram InProcNetwork::recv(std::uint32_t at) {
  APPFL_CHECK(at < boxes_.size());
  return boxes_[at].pop();
}

std::optional<Datagram> InProcNetwork::try_recv(std::uint32_t at) {
  APPFL_CHECK(at < boxes_.size());
  return boxes_[at].try_pop();
}

std::optional<Datagram> InProcNetwork::try_recv_ready(std::uint32_t at,
                                                      double now) {
  APPFL_CHECK(at < boxes_.size());
  return boxes_[at].try_pop_ready(now);
}

double InProcNetwork::next_deliver_at(std::uint32_t at) const {
  APPFL_CHECK(at < boxes_.size());
  return boxes_[at].next_deliver_at();
}

std::size_t InProcNetwork::pending(std::uint32_t at) const {
  APPFL_CHECK(at < boxes_.size());
  return boxes_[at].size();
}

FaultStats InProcNetwork::fault_stats() const {
  return injector_ ? injector_->stats() : FaultStats{};
}

FaultInjector::PersistentState InProcNetwork::fault_persistent_state() const {
  return injector_ ? injector_->persistent_state()
                   : FaultInjector::PersistentState{};
}

void InProcNetwork::restore_fault_state(
    const FaultInjector::PersistentState& s) {
  if (injector_) injector_->restore_persistent_state(s);
}

}  // namespace appfl::comm
