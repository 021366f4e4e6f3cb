// Microbenchmarks of the substrates (google-benchmark): serialization costs
// (the raw-vs-protobuf gap behind Fig 4's gRPC overhead), matmul/conv
// kernels through the kernel execution engine, Laplace noise generation,
// and a full local-update step. After the google-benchmark pass, main()
// times the engine against the seed kernels at model-zoo shapes and writes
// BENCH_kernels.json (machine-readable before/after numbers) so the perf
// trajectory of the local-update hot path is tracked per PR.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "comm/message.hpp"
#include "core/fedavg.hpp"
#include "data/synth.hpp"
#include "dp/mechanism.hpp"
#include "nn/model_zoo.hpp"
#include "rng/distributions.hpp"
#include "tensor/conv.hpp"
#include "tensor/gemm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/matmul.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace {

/// Forces an engine config for one scope (benchmarks must not leak their
/// backend selection into each other).
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

appfl::comm::Message message_of(std::size_t floats) {
  appfl::comm::Message m;
  m.kind = appfl::comm::MessageKind::kLocalUpdate;
  m.sender = 1;
  m.primal.assign(floats, 0.5F);
  return m;
}

void BM_EncodeRaw(benchmark::State& state) {
  const auto msg = message_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(appfl::comm::encode_raw(msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msg.primal.size() * 4));
}
BENCHMARK(BM_EncodeRaw)->Arg(1024)->Arg(65536)->Arg(1048576);

void BM_EncodeProto(benchmark::State& state) {
  const auto msg = message_of(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(appfl::comm::encode_proto(msg));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(msg.primal.size() * 4));
}
BENCHMARK(BM_EncodeProto)->Arg(1024)->Arg(65536)->Arg(1048576);

void BM_DecodeProto(benchmark::State& state) {
  const auto bytes =
      appfl::comm::encode_proto(message_of(static_cast<std::size_t>(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(appfl::comm::decode_proto(bytes));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes.size()));
}
BENCHMARK(BM_DecodeProto)->Arg(65536)->Arg(1048576);

void BM_Matmul(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  appfl::rng::Rng r(1);
  const auto a = appfl::tensor::Tensor::randn({n, n}, r);
  const auto b = appfl::tensor::Tensor::randn({n, n}, r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(appfl::tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmEngine(benchmark::State& state) {
  // Square GEMM through an explicit engine backend: Arg(0) = size,
  // Arg(1) = 0 for the reference loops (the seed kernels), 1 for the
  // packed/tiled engine.
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const ScopedEngine engine(state.range(1) != 0
                                ? appfl::tensor::KernelBackend::kTiled
                                : appfl::tensor::KernelBackend::kReference,
                            0);
  appfl::rng::Rng r(5);
  const auto a = appfl::tensor::Tensor::randn({n, n}, r);
  const auto b = appfl::tensor::Tensor::randn({n, n}, r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(appfl::tensor::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_GemmEngine)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({512, 0})
    ->Args({512, 1});

void BM_Conv2dForward(benchmark::State& state) {
  appfl::rng::Rng r(2);
  const appfl::tensor::Conv2dSpec spec{1, 8, 3, 1, 1};
  const auto input = appfl::tensor::Tensor::randn({8, 1, 28, 28}, r);
  const auto weight = appfl::tensor::Tensor::randn({8, 1, 3, 3}, r);
  const auto bias = appfl::tensor::Tensor::randn({8}, r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        appfl::tensor::conv2d_forward(input, weight, bias, spec));
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dForwardGemm(benchmark::State& state) {
  // Same workload through the im2col + GEMM lowering for comparison.
  appfl::rng::Rng r(2);
  const appfl::tensor::Conv2dSpec spec{1, 8, 3, 1, 1};
  const auto input = appfl::tensor::Tensor::randn({8, 1, 28, 28}, r);
  const auto weight = appfl::tensor::Tensor::randn({8, 1, 3, 3}, r);
  const auto bias = appfl::tensor::Tensor::randn({8}, r);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        appfl::tensor::conv2d_forward_gemm(input, weight, bias, spec));
  }
}
BENCHMARK(BM_Conv2dForwardGemm);

void BM_Conv2dForwardWide(benchmark::State& state) {
  // Channel-heavy case where the GEMM lowering pays off.
  appfl::rng::Rng r(2);
  const appfl::tensor::Conv2dSpec spec{16, 32, 3, 1, 1};
  const auto input = appfl::tensor::Tensor::randn({4, 16, 14, 14}, r);
  const auto weight = appfl::tensor::Tensor::randn({32, 16, 3, 3}, r);
  const auto bias = appfl::tensor::Tensor::randn({32}, r);
  const bool gemm = state.range(0) != 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        gemm ? appfl::tensor::conv2d_forward_gemm(input, weight, bias, spec)
             : appfl::tensor::conv2d_forward(input, weight, bias, spec));
  }
}
BENCHMARK(BM_Conv2dForwardWide)->Arg(0)->Arg(1);

void BM_ConvLayerFwdBwd(benchmark::State& state) {
  // The paper CNN's second conv layer (8→16 channels, 3×3, pad 1) at
  // MNIST (28×28) or CIFAR10 (32×32) spatial extent — the hot layer of a
  // local update. Arg(0) = spatial extent, Arg(1) = 0 direct / 1 GEMM.
  const std::size_t hw = static_cast<std::size_t>(state.range(0));
  const bool gemm = state.range(1) != 0;
  const appfl::tensor::Conv2dSpec spec{8, 16, 3, 1, 1};
  appfl::rng::Rng r(6);
  const auto input = appfl::tensor::Tensor::randn({16, 8, hw, hw}, r);
  const auto weight = appfl::tensor::Tensor::randn({16, 8, 3, 3}, r);
  const auto bias = appfl::tensor::Tensor::randn({16}, r);
  for (auto _ : state) {
    if (gemm) {
      const auto out =
          appfl::tensor::conv2d_forward_gemm(input, weight, bias, spec);
      benchmark::DoNotOptimize(
          appfl::tensor::conv2d_backward_gemm(out, input, weight, spec));
    } else {
      const auto out = appfl::tensor::conv2d_forward(input, weight, bias, spec);
      benchmark::DoNotOptimize(
          appfl::tensor::conv2d_backward_weight(out, input, spec));
      benchmark::DoNotOptimize(appfl::tensor::conv2d_backward_bias(out));
      benchmark::DoNotOptimize(appfl::tensor::conv2d_backward_input(
          out, weight, input.shape(), spec));
    }
  }
}
BENCHMARK(BM_ConvLayerFwdBwd)
    ->Args({28, 0})
    ->Args({28, 1})
    ->Args({32, 0})
    ->Args({32, 1});

/// CPU seconds the calling thread has run.
double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

void BM_PaperCnnLayers(benchmark::State& state) {
  // One layer of the paper CNN on FEMNIST-like inputs (1×28×28, 62 classes)
  // at batch 16, forward (Arg(1) = 0) or backward (1), run on a client-pool
  // worker as a local update runs it: the conv forward groups its images
  // there and every GEMM stays serial. Arg(0) is the layer index. Each
  // iteration reports the worker's thread CPU time, so neither the hand-off
  // to the pool nor host steal counts.
  const auto index = static_cast<std::size_t>(state.range(0));
  const bool backward = state.range(1) != 0;
  appfl::rng::Rng r(9);
  const auto model = appfl::nn::paper_cnn(1, 28, 28, 62, r);
  appfl::util::ThreadPool pool(1);
  // Every layer's input from one forward pass on the worker; the timed
  // layer's backward gets a random gradient of its output's shape.
  std::vector<appfl::tensor::Tensor> acts{
      appfl::tensor::Tensor::randn({16, 1, 28, 28}, r)};
  pool.submit([&] {
        for (std::size_t i = 0; i < model->num_layers(); ++i) {
          acts.push_back(model->layer(i).forward(acts.back()));
        }
      })
      .get();
  appfl::nn::Module& layer = model->layer(index);
  const auto grad = appfl::tensor::Tensor::randn(acts[index + 1].shape(), r);
  for (auto _ : state) {
    double seconds = 0.0;
    pool.submit([&] {
          const double t0 = thread_cpu_seconds();
          benchmark::DoNotOptimize(backward ? layer.backward(grad)
                                            : layer.forward(acts[index]));
          seconds = thread_cpu_seconds() - t0;
        })
        .get();
    state.SetIterationTime(seconds);
  }
  state.SetLabel(layer.name());
}
// A fixed iteration count: every iteration also pays a hand-off to the pool
// that its manual time leaves out, so a time-based count would run the
// microsecond layers for minutes.
BENCHMARK(BM_PaperCnnLayers)
    ->ArgsProduct({{0, 1, 2, 3, 4, 5, 6, 7, 8}, {0, 1}})
    ->UseManualTime()
    ->Iterations(200)
    ->Unit(benchmark::kMicrosecond);

void BM_LaplaceNoise(benchmark::State& state) {
  appfl::dp::LaplaceMechanism mech(0.1);
  appfl::rng::Rng r(3);
  std::vector<float> buf(static_cast<std::size_t>(state.range(0)), 0.0F);
  for (auto _ : state) {
    mech.apply(buf, r);
    benchmark::DoNotOptimize(buf.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_LaplaceNoise)->Arg(65536);

void BM_FedAvgLocalUpdate(benchmark::State& state) {
  appfl::core::RunConfig cfg;
  cfg.algorithm = appfl::core::Algorithm::kFedAvg;
  cfg.local_steps = 1;
  cfg.batch_size = 32;
  const auto ds = appfl::data::generate_samples(1, 28, 28, 10, 64, 0.8, 4);
  appfl::rng::Rng r(4);
  const auto proto = appfl::nn::mlp(784, 32, 10, r);
  appfl::core::FedAvgClient client(1, cfg, *proto, ds);
  const std::vector<float> w = proto->flat_parameters();
  std::uint32_t round = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(client.update(w, round++));
  }
}
BENCHMARK(BM_FedAvgLocalUpdate);

// -- BENCH_kernels.json ------------------------------------------------------
//
// Hand-timed before/after comparison at the acceptance shapes: "before" is
// the seed kernels (reference GEMM loops / direct conv), "after" is the
// tiled engine. Written after the google-benchmark pass so the perf claims
// in the PR are reproducible from one binary.

double time_best_of(int reps, const std::function<void()>& fn) {
  fn();  // warm-up: populates workspaces, faults pages, dispatches AVX2
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < reps; ++i) {
    appfl::util::Stopwatch sw;
    fn();
    best = std::min(best, sw.elapsed_seconds());
  }
  return best * 1e3;  // ms
}

struct KernelCase {
  std::string name;
  double flops = 0.0;   // per single evaluation
  double before_ms = 0.0;
  double after_ms = 0.0;
};

KernelCase gemm_case(std::size_t n, int reps) {
  appfl::rng::Rng r(7);
  const auto a = appfl::tensor::Tensor::randn({n, n}, r);
  const auto b = appfl::tensor::Tensor::randn({n, n}, r);
  KernelCase c;
  c.name = "gemm_" + std::to_string(n) + "x" + std::to_string(n) + "x" +
           std::to_string(n);
  c.flops = 2.0 * static_cast<double>(n) * n * n;
  {
    const ScopedEngine engine(appfl::tensor::KernelBackend::kReference, 0);
    c.before_ms = time_best_of(reps, [&] {
      benchmark::DoNotOptimize(appfl::tensor::matmul(a, b));
    });
  }
  {
    const ScopedEngine engine(appfl::tensor::KernelBackend::kTiled, 0);
    c.after_ms = time_best_of(reps, [&] {
      benchmark::DoNotOptimize(appfl::tensor::matmul(a, b));
    });
  }
  return c;
}

KernelCase conv_case(const std::string& dataset, std::size_t hw, int reps) {
  // Paper CNN conv2 (8→16 ch, 3×3, pad 1), forward + the weight, bias and
  // input gradients, batch 16 — the per-step hot path of a local update.
  const appfl::tensor::Conv2dSpec spec{8, 16, 3, 1, 1};
  appfl::rng::Rng r(8);
  const auto input = appfl::tensor::Tensor::randn({16, 8, hw, hw}, r);
  const auto weight = appfl::tensor::Tensor::randn({16, 8, 3, 3}, r);
  const auto bias = appfl::tensor::Tensor::randn({16}, r);
  KernelCase c;
  c.name = "conv_" + dataset + "_conv2_fwdbwd_b16";
  // fwd + dweight + dinput each do ~2·N·Cout·OH·OW·Cin·K² flops.
  c.flops = 3.0 * 2.0 * 16 * 16 * static_cast<double>(hw * hw) * 8 * 9;
  c.before_ms = time_best_of(reps, [&] {
    const auto out = appfl::tensor::conv2d_forward(input, weight, bias, spec);
    benchmark::DoNotOptimize(
        appfl::tensor::conv2d_backward_weight(out, input, spec));
    benchmark::DoNotOptimize(appfl::tensor::conv2d_backward_bias(out));
    benchmark::DoNotOptimize(appfl::tensor::conv2d_backward_input(
        out, weight, input.shape(), spec));
  });
  const ScopedEngine engine(appfl::tensor::KernelBackend::kTiled, 0);
  c.after_ms = time_best_of(reps, [&] {
    const auto out =
        appfl::tensor::conv2d_forward_gemm(input, weight, bias, spec);
    benchmark::DoNotOptimize(
        appfl::tensor::conv2d_backward_gemm(out, input, weight, spec));
  });
  return c;
}

void write_kernel_report(const std::string& path) {
  std::vector<KernelCase> cases;
  cases.push_back(gemm_case(256, 3));
  cases.push_back(gemm_case(512, 3));
  cases.push_back(conv_case("mnist28", 28, 3));
  cases.push_back(conv_case("cifar10_32", 32, 3));

  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return;
  }
  out << "{\n";
  out << "  \"schema\": \"appfl-bench-kernels-v1\",\n";
  out << "  \"note\": \"before = seed kernels (reference GEMM / direct conv);"
         " after = tiled engine\",\n";
  out << "  \"avx2\": " << (appfl::tensor::gemm_uses_avx2() ? "true" : "false")
      << ",\n";
  out << "  \"hardware_threads\": " << std::thread::hardware_concurrency()
      << ",\n";
  out << "  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    const double speedup = c.after_ms > 0.0 ? c.before_ms / c.after_ms : 0.0;
    out << "    {\"name\": \"" << c.name << "\", "
        << "\"flops\": " << static_cast<long long>(c.flops) << ", "
        << "\"before_ms\": " << c.before_ms << ", "
        << "\"after_ms\": " << c.after_ms << ", "
        << "\"after_gflops\": " << (c.flops / (c.after_ms * 1e6)) << ", "
        << "\"speedup\": " << speedup << "}" << (i + 1 < cases.size() ? "," : "")
        << "\n";
    std::cout << "BENCH " << c.name << ": before=" << c.before_ms
              << "ms after=" << c.after_ms << "ms speedup=" << speedup << "x\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Skippable for quick filtered runs: APPFL_SKIP_KERNEL_REPORT=1.
  if (const char* skip = std::getenv("APPFL_SKIP_KERNEL_REPORT");
      skip != nullptr && skip[0] == '1') {
    return 0;
  }
  const char* path = std::getenv("APPFL_BENCH_KERNELS_PATH");
  write_kernel_report(path != nullptr ? path : "BENCH_kernels.json");
  return 0;
}
