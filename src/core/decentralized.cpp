#include "core/decentralized.hpp"

#include <algorithm>
#include <cmath>

#include "core/evaluation.hpp"
#include "core/runner.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"

namespace appfl::core {

std::size_t Topology::num_edges() const {
  std::size_t twice = 0;
  for (const auto& nbrs : adjacency) twice += nbrs.size();
  return twice / 2;
}

bool Topology::connected() const {
  if (adjacency.empty()) return false;
  std::vector<bool> seen(adjacency.size(), false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const std::size_t p = stack.back();
    stack.pop_back();
    for (std::size_t q : adjacency[p]) {
      if (!seen[q]) {
        seen[q] = true;
        ++visited;
        stack.push_back(q);
      }
    }
  }
  return visited == adjacency.size();
}

void Topology::validate() const {
  for (std::size_t p = 0; p < adjacency.size(); ++p) {
    for (std::size_t q : adjacency[p]) {
      APPFL_CHECK_MSG(q < adjacency.size(), "neighbor out of range");
      APPFL_CHECK_MSG(q != p, "self-loop at node " << p);
      const auto& back = adjacency[q];
      APPFL_CHECK_MSG(std::find(back.begin(), back.end(), p) != back.end(),
                      "asymmetric edge " << p << " -> " << q);
    }
  }
}

Topology ring_topology(std::size_t num_nodes) {
  APPFL_CHECK(num_nodes >= 2);
  Topology t;
  t.adjacency.resize(num_nodes);
  for (std::size_t p = 0; p < num_nodes; ++p) {
    const std::size_t prev = (p + num_nodes - 1) % num_nodes;
    const std::size_t next = (p + 1) % num_nodes;
    t.adjacency[p] = prev == next ? std::vector<std::size_t>{prev}
                                  : std::vector<std::size_t>{std::min(prev, next),
                                                             std::max(prev, next)};
  }
  return t;
}

Topology complete_topology(std::size_t num_nodes) {
  APPFL_CHECK(num_nodes >= 2);
  Topology t;
  t.adjacency.resize(num_nodes);
  for (std::size_t p = 0; p < num_nodes; ++p) {
    for (std::size_t q = 0; q < num_nodes; ++q) {
      if (q != p) t.adjacency[p].push_back(q);
    }
  }
  return t;
}

Topology random_topology(std::size_t num_nodes, double target_degree,
                         std::uint64_t seed) {
  APPFL_CHECK(target_degree >= 2.0);
  Topology t = ring_topology(num_nodes);  // connectivity backbone
  rng::Rng rng(rng::derive_seed(seed, {0x70, num_nodes}));
  auto has_edge = [&](std::size_t a, std::size_t b) {
    const auto& nbrs = t.adjacency[a];
    return std::find(nbrs.begin(), nbrs.end(), b) != nbrs.end();
  };
  const std::size_t target_edges = static_cast<std::size_t>(
      target_degree * static_cast<double>(num_nodes) / 2.0);
  std::size_t guard = 0;
  while (t.num_edges() < target_edges && ++guard < 100 * target_edges) {
    const std::size_t a = rng.uniform_below(num_nodes);
    const std::size_t b = rng.uniform_below(num_nodes);
    if (a == b || has_edge(a, b)) continue;
    t.adjacency[a].push_back(b);
    t.adjacency[b].push_back(a);
  }
  for (auto& nbrs : t.adjacency) std::sort(nbrs.begin(), nbrs.end());
  return t;
}

std::vector<std::vector<double>> metropolis_weights(const Topology& topology) {
  topology.validate();
  APPFL_CHECK_MSG(topology.connected(),
                  "gossip mixing requires a connected topology");
  const std::size_t n = topology.num_nodes();
  std::vector<std::vector<double>> w(n, std::vector<double>(n, 0.0));
  for (std::size_t p = 0; p < n; ++p) {
    double off_diagonal = 0.0;
    for (std::size_t q : topology.adjacency[p]) {
      // Metropolis rule: 1 / (1 + max(deg_p, deg_q)).
      const double weight =
          1.0 / (1.0 + static_cast<double>(std::max(
                           topology.adjacency[p].size(),
                           topology.adjacency[q].size())));
      w[p][q] = weight;
      off_diagonal += weight;
    }
    w[p][p] = 1.0 - off_diagonal;
    APPFL_CHECK(w[p][p] > 0.0);
  }
  return w;
}

DecentralizedResult run_decentralized(const RunConfig& config,
                                      const data::FederatedSplit& split,
                                      const Topology& topology) {
  RunConfig cfg = config;
  cfg.algorithm = Algorithm::kFedAvg;  // gossip uses the SGD local solver
  cfg.validate();
  APPFL_CHECK_MSG(!cfg.secure_agg,
                  "secure aggregation needs a server to unmask the sum; "
                  "gossip would exchange unmasked models");
  const std::size_t n = split.clients.size();
  APPFL_CHECK_MSG(topology.num_nodes() == n,
                  "topology has " << topology.num_nodes() << " nodes for "
                                  << n << " clients");
  tensor::apply_kernel_threads(cfg.kernel_threads);
  const auto weights = metropolis_weights(topology);

  auto prototype = build_model(cfg, split.test);
  std::vector<std::unique_ptr<BaseClient>> nodes;
  nodes.reserve(n);
  for (std::size_t p = 0; p < n; ++p) {
    nodes.push_back(build_client(static_cast<std::uint32_t>(p + 1), cfg,
                                 *prototype, split.clients[p]));
  }
  const std::size_t m = prototype->num_parameters();
  std::vector<std::vector<float>> x(n, prototype->flat_parameters());

  DecentralizedResult result;
  const std::uint64_t bytes_per_exchange = 4ULL * m;

  for (std::uint32_t round = 1; round <= cfg.rounds; ++round) {
    // (i)+(ii): local solve + DP on every node's own iterate.
    std::vector<std::vector<float>> z(n);
    for (std::size_t p = 0; p < n; ++p) {
      z[p] = nodes[p]->update(x[p], round).primal;
    }
    // (iii): Metropolis gossip over perturbed iterates. Each edge carries
    // one model in each direction.
    for (std::size_t p = 0; p < n; ++p) {
      std::vector<float> mixed(m, 0.0F);
      tensor::axpy(static_cast<float>(weights[p][p]), z[p], mixed);
      for (std::size_t q : topology.adjacency[p]) {
        tensor::axpy(static_cast<float>(weights[p][q]), z[q], mixed);
        result.total_bytes += bytes_per_exchange;
      }
      x[p] = std::move(mixed);
    }

    std::vector<float> mean(m, 0.0F);
    const float inv = 1.0F / static_cast<float>(n);
    for (const auto& xi : x) {
      for (std::size_t i = 0; i < m; ++i) mean[i] += inv * xi[i];
    }
    result.round_accuracy.push_back(validation_accuracy(
        *prototype, mean, split.test, cfg.validate_batch));
    double disagreement = 0.0;
    for (const auto& xi : x) {
      double d2 = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        const double d = static_cast<double>(xi[i]) - mean[i];
        d2 += d * d;
      }
      disagreement += std::sqrt(d2);
    }
    result.round_disagreement.push_back(disagreement /
                                        static_cast<double>(n));
  }
  result.final_accuracy = result.round_accuracy.back();
  return result;
}

}  // namespace appfl::core
