// Replay of the public entry points below client.batch.
//
// The framework emits no spans inside a mini-batch, so the benchmark times
// each entry point itself on the workload's own model, batch and message
// sizes, and scales the per-call times by the call counts the traced
// episode's spans gave. The replay runs on the kind of thread the workload
// trains on: a pool worker for sync and population clients (where the GEMM
// engine stays serial), the calling thread for the async runner (where it
// fans out to the kernel pool).
#include <algorithm>
#include <cmath>
#include <memory>

#include "bench.hpp"
#include "comm/envelope.hpp"
#include "comm/message.hpp"
#include "core/aggregate.hpp"
#include "core/runner.hpp"
#include "nn/conv2d.hpp"
#include "nn/loss.hpp"
#include "nn/sequential.hpp"
#include "nn/sgd.hpp"
#include "tensor/accumulate.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "util/thread_pool.hpp"

namespace perfbench {

namespace {

namespace comm = appfl::comm;
namespace nn = appfl::nn;
namespace tensor = appfl::tensor;

/// Median seconds per call of `fn`, repeated for at least `budget_s`.
template <typename Fn>
double time_call(Fn&& fn, double budget_s) {
  std::vector<double> v;
  const double start = now_s();
  while (v.size() < 5 || (now_s() - start < budget_s && v.size() < 2000)) {
    const double t = now_s();
    fn();
    v.push_back(now_s() - t);
  }
  return median(v);
}

struct ModelReplay {
  double conv_s = 0.0;    // Conv2d forward + backward per batch
  double linear_s = 0.0;  // Linear forward + backward per batch
  double loss_s = 0.0;
  double sgd_s = 0.0;
  double param_io_s = 0.0;  // set_flat_parameters + flat_gradients
  double im2col_s = 0.0;
  double gemm_flops = 0.0;
  double gemm_s = 0.0;
  double gemm_calls = 0.0;
  double gemm_fanout_calls = 0.0;
};

ModelReplay replay_model(const core::RunConfig& config,
                         const data::FederatedSplit& split, double budget_s) {
  ModelReplay out;
  std::unique_ptr<nn::Module> owned = core::build_model(config, split.test);
  auto* model = dynamic_cast<nn::Sequential*>(owned.get());
  if (model == nullptr) return out;
  const data::TensorDataset& shard = split.clients.front();
  std::vector<std::size_t> idx(std::min(config.batch_size, shard.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const data::Batch batch = shard.gather(idx);
  const nn::CrossEntropyLoss loss;
  nn::Sgd sgd(config.lr, config.momentum, config.weight_decay);
  const std::vector<float> flat = model->flat_parameters();
  const std::size_t layers = model->num_layers();

  // Forward once to learn every layer's input.
  std::vector<nn::Tensor> inputs{batch.inputs};
  for (std::size_t i = 0; i < layers; ++i) {
    inputs.push_back(model->layer(i).forward(inputs.back()));
  }
  const nn::LossResult lr = loss.compute(inputs.back(), batch.labels);

  for (std::size_t i = 0; i < layers; ++i) {
    nn::Module& layer = model->layer(i);
    const std::string name = layer.name();
    const bool conv = name.rfind("Conv2d", 0) == 0;
    const bool linear = name.rfind("Linear", 0) == 0;
    if (!conv && !linear) continue;
    const nn::Tensor grad_out(inputs[i + 1].shape());
    const double t = time_call(
        [&] {
          layer.forward(inputs[i]);
          layer.backward(grad_out);
        },
        budget_s);
    (conv ? out.conv_s : out.linear_s) += t;

    // The GEMMs this layer lowers to: forward, weight gradient, input
    // gradient, with the layer's shapes.
    std::size_t m, n, k;
    if (conv) {
      const auto& spec = dynamic_cast<nn::Conv2d&>(layer).spec();
      const auto& in_shape = inputs[i].shape();
      const std::size_t oh = spec.out_extent(in_shape[2]);
      const std::size_t ow = spec.out_extent(in_shape[3]);
      m = in_shape[0] * oh * ow;
      n = spec.out_channels;
      k = spec.in_channels * spec.kernel * spec.kernel;
      out.im2col_s += time_call([&] { tensor::im2col(inputs[i], spec); }, budget_s);
    } else {
      m = inputs[i].shape()[0];
      n = inputs[i + 1].shape()[1];
      k = inputs[i].shape()[1];
    }
    std::vector<float> a(m * k, 0.5F), b(n * k, 0.25F), c(std::max(m * n, n * k), 0.0F),
        g(m * n, 0.125F);
    auto run3 = [&] {
      tensor::gemm(tensor::Trans::kNo, tensor::Trans::kYes, m, n, k, a.data(), k,
                   b.data(), k, c.data());
      out.gemm_fanout_calls += tensor::last_gemm_chunks() > 1 ? 1.0 : 0.0;
      tensor::gemm(tensor::Trans::kYes, tensor::Trans::kNo, n, k, m, g.data(), n,
                   a.data(), k, c.data());
      out.gemm_fanout_calls += tensor::last_gemm_chunks() > 1 ? 1.0 : 0.0;
      tensor::gemm(tensor::Trans::kNo, tensor::Trans::kNo, m, k, n, g.data(), n,
                   b.data(), k, a.data());
      out.gemm_fanout_calls += tensor::last_gemm_chunks() > 1 ? 1.0 : 0.0;
      out.gemm_calls += 3.0;
    };
    out.gemm_s += time_call(run3, budget_s);
    out.gemm_flops += 3.0 * 2.0 * static_cast<double>(m * n * k);
  }

  out.loss_s = time_call([&] { loss.compute(inputs.back(), batch.labels); }, budget_s);
  out.param_io_s = time_call(
      [&] {
        model->set_flat_parameters(flat);
        model->flat_gradients();
      },
      budget_s);
  model->zero_grad();
  model->backward(lr.grad);
  out.sgd_s = time_call([&] { sgd.step(*model); }, budget_s);
  return out;
}

/// Encode, CRC and decode of one model-sized update message.
struct CodecReplay {
  double encode_s = 0.0, crc_s = 0.0, decode_s = 0.0;
};

CodecReplay replay_codec(const core::RunConfig& config, std::size_t params,
                         double budget_s) {
  comm::Message m;
  m.kind = comm::MessageKind::kLocalUpdate;
  m.sender = 1;
  m.round = 1;
  m.sample_count = 64;
  m.primal.assign(params, 0.5F);
  const bool grpc = config.protocol == comm::Protocol::kGrpc;
  std::vector<std::uint8_t> bytes;
  CodecReplay out;
  out.encode_s = time_call(
      [&] {
        bytes.clear();
        grpc ? comm::encode_proto_append(m, bytes) : comm::encode_raw_append(m, bytes);
      },
      budget_s);
  out.crc_s = time_call([&] { comm::crc32(bytes); }, budget_s);
  out.decode_s = time_call(
      [&] { grpc ? comm::decode_proto_view(bytes) : comm::decode_raw_view(bytes); },
      budget_s);
  return out;
}

/// Bytes per second the server's streaming reduction reads for a cohort of
/// `cohort` model-sized payloads (consensus form for the ADMM family).
double replay_accumulate(const core::RunConfig& config, std::size_t params,
                         std::size_t cohort, double budget_s) {
  cohort = std::max<std::size_t>(1, cohort);
  std::vector<std::vector<float>> payload(cohort, std::vector<float>(params, 0.5F));
  std::vector<float> out(params, 0.0F);
  const bool admm = config.algorithm == core::Algorithm::kIIAdmm ||
                    config.algorithm == core::Algorithm::kIceAdmm;
  double t;
  if (admm) {
    std::vector<core::ConsensusStreamTerm> terms;
    for (std::size_t p = 0; p < cohort; ++p) {
      terms.push_back({comm::WirePayload::f32(payload[p].data(), params),
                       comm::WirePayload::f32(payload[(p + 1) % cohort].data(), params)});
    }
    const float inv_p = 1.0F / static_cast<float>(cohort);
    t = time_call([&] { core::consensus_sum_stream(terms, inv_p, 0.2F, out); },
                  budget_s);
    return 2.0 * 4.0 * static_cast<double>(params * cohort) / t / 1e9;
  }
  std::vector<core::StreamTerm> terms;
  for (std::size_t p = 0; p < cohort; ++p) {
    terms.push_back({comm::WirePayload::f32(payload[p].data(), params),
                     1.0F / static_cast<float>(cohort)});
  }
  t = time_call([&] { core::weighted_sum_stream(terms, out); }, budget_s);
  return 4.0 * static_cast<double>(params * cohort) / t / 1e9;
}

}  // namespace

std::vector<Metric> replay(const Workload& w, std::uint64_t seed, bool smoke,
                           const SpanStats& counts) {
  const double budget = smoke ? 0.01 : 0.15;
  const core::RunConfig config = w.config(smoke);
  const data::FederatedSplit split = w.inputs(seed, smoke);
  const std::size_t params = [&] {
    auto m = core::build_model(config, split.test);
    return m->num_parameters();
  }();

  // Client-side entry points on the client's kind of thread.
  ModelReplay mr;
  double materialize_s = 0.0;
  auto client_side = [&] {
    mr = replay_model(config, split, budget);
    if (w.runner == Runner::kPopulation) {
      const data::SyntheticPopulation pop(population_spec(seed, smoke));
      std::uint32_t id = 1;
      materialize_s = time_call(
          [&] {
            pop.materialize(id);
            id = (id + 96) % static_cast<std::uint32_t>(pop.size()) + 1;
          },
          budget);
    }
  };
  if (w.runner == Runner::kAsync) {
    client_side();
  } else {
    appfl::util::ThreadPool worker(1);
    worker.submit(client_side).get();
  }
  const CodecReplay cr = replay_codec(config, params, budget);
  const double gbps = replay_accumulate(
      config, params,
      static_cast<std::size_t>(std::lround(counts.participants_per_round)), budget);

  const double batches = counts.batches_per_round;
  const double messages = counts.uplinks_per_round + counts.downlinks_per_round;
  const bool envelope = config.faults.enabled();
  // The ADMM family solves its local problem in closed form; only
  // FedAvg-style clients step an Sgd optimizer.
  const bool sgd = config.algorithm == core::Algorithm::kFedAvg ||
                   config.algorithm == core::Algorithm::kFedProx;
  return {
      {"nn.conv_s", mr.conv_s * batches, "s"},
      {"nn.linear_s", mr.linear_s * batches, "s"},
      {"nn.loss_s", mr.loss_s * batches, "s"},
      {"nn.sgd_step_s", sgd ? mr.sgd_s * batches : 0.0, "s"},
      {"nn.param_io_s", mr.param_io_s * batches, "s"},
      {"tensor.im2col_s", mr.im2col_s * batches, "s"},
      {"tensor.gemm_gflops", mr.gemm_s > 0.0 ? mr.gemm_flops / mr.gemm_s / 1e9 : 0.0,
       "GFLOP/s"},
      {"tensor.gemm_fanout_frac",
       mr.gemm_calls > 0.0 ? mr.gemm_fanout_calls / mr.gemm_calls : 0.0, "frac"},
      {"tensor.accumulate_gbps", gbps, "GB/s"},
      {"comm.encode_s", cr.encode_s * messages, "s"},
      {"comm.crc_s", envelope ? cr.crc_s * messages : 0.0, "s"},
      {"comm.decode_s", cr.decode_s * messages, "s"},
      {"data.materialize_s", materialize_s * counts.participants_per_round, "s"},
  };
}

}  // namespace perfbench
