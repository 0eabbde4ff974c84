// train: closed-loop training steps from two tenants on one device, served
// by the threaded ManagerServer with two pump workers over shm rings.
//
// A step is a 16 KiB H2D of the input batch, the library grd_sgemm plus
// bias/relu and row-sum kernels on the tenant's stream, a stream sync and a
// 1 KiB D2H of the row sums. Cublas::Sgemm always launches on the default
// stream, so the step launches the library's grd_sgemm kernel itself on its
// stream with the same launch shape. After each step, untimed, the Sgemm
// output is read back and compared with the host product as well.
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "guardian/manager.hpp"
#include "kernels.hpp"
#include "simlibs/kernels_ptx.hpp"

namespace grdbench {
namespace {

using grd::Status;
using grd::ptxexec::KernelArg;
using grd::simcuda::DevicePtr;
using grd::simcuda::MemcpyKind;

constexpr std::uint32_t kTenants = 2;
constexpr std::uint32_t kBatches = 8;  // distinct input batches per tenant
constexpr std::uint32_t kWarmupSteps = 10;
constexpr std::uint64_t kPartitionBytes = 16ull << 20;
constexpr std::uint32_t kElemBlock = 128;

struct TrainState {
  grd::ipc::HeapChannel channel;
  Tenant tenant;
  grd::simcuda::FunctionId sgemm = 0, bias_relu = 0, row_sum = 0;
  grd::simcuda::StreamId stream = 0;
  DevicePtr a = 0, b = 0, bias = 0, c = 0, d = 0, rows = 0;
  std::vector<float> b_host, bias_host;
  std::vector<std::vector<float>> inputs;     // kBatches batches of A
  std::vector<std::vector<float>> want_c;     // their Sgemm products
  std::vector<std::vector<float>> want_rows;  // their step results
  std::uint64_t blocks = 0;
  std::uint64_t steps = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<TimedSample> step_us;  // tagged with the completion time
  std::vector<double> done_s;
};

std::uint32_t Blocks(std::uint32_t threads, std::uint32_t per_block) {
  return (threads + per_block - 1) / per_block;
}

Status Step(TrainState& t, OpTimes& ops, std::uint32_t batch) {
  auto& lib = *t.tenant;
  const std::vector<float>& a = t.inputs[batch];
  GRD_RETURN_IF_ERROR(ops.Time(Op::kH2dBatch, [&] {
    return lib.cudaMemcpyH2D(t.a, a.data(), a.size() * 4);
  }));
  grd::simcuda::LaunchConfig config;
  config.stream = t.stream;
  config.block = {kSgemmBlock, 1, 1};
  config.grid = {Blocks(kTrainM * kTrainN, kSgemmBlock), 1, 1};
  GRD_RETURN_IF_ERROR(lib.cudaLaunchKernel(
      t.sgemm, config,
      {KernelArg::U64(t.a), KernelArg::U64(t.b), KernelArg::U64(t.c),
       KernelArg::U32(kTrainM), KernelArg::U32(kTrainN),
       KernelArg::U32(kTrainK)}));
  t.blocks += config.grid.x;
  config.block = {kElemBlock, 1, 1};
  config.grid = {Blocks(kTrainM * kTrainN, kElemBlock), 1, 1};
  GRD_RETURN_IF_ERROR(lib.cudaLaunchKernel(
      t.bias_relu, config,
      {KernelArg::U64(t.d), KernelArg::U64(t.c), KernelArg::U64(t.bias),
       KernelArg::U32(kTrainN), KernelArg::U32(kTrainM * kTrainN)}));
  t.blocks += config.grid.x;
  config.grid = {Blocks(kTrainM, kElemBlock), 1, 1};
  GRD_RETURN_IF_ERROR(lib.cudaLaunchKernel(
      t.row_sum, config,
      {KernelArg::U64(t.rows), KernelArg::U64(t.d), KernelArg::U32(kTrainM),
       KernelArg::U32(kTrainN)}));
  t.blocks += config.grid.x;
  GRD_RETURN_IF_ERROR(ops.Time(
      Op::kStreamSync, [&] { return lib.cudaStreamSynchronize(t.stream); }));
  std::vector<float> rows(kTrainM);
  GRD_RETURN_IF_ERROR(ops.Time(Op::kD2hSmall, [&] {
    return lib.cudaMemcpy(rows.data(), t.rows, kTrainM * 4,
                          MemcpyKind::kDeviceToHost);
  }));
  if (!SameValues(rows, t.want_rows[batch])) ++t.wrong;
  return grd::OkStatus();
}

// Reads back the Sgemm output of the step just run and compares it with the
// host product: the row sums alone pass through ReLU, which would hide a
// wrong negative element.
Status CheckProduct(TrainState& t, std::uint32_t batch) {
  std::vector<float> c(kTrainM * kTrainN);
  GRD_RETURN_IF_ERROR(t.tenant->cudaMemcpy(c.data(), t.c, c.size() * 4,
                                           MemcpyKind::kDeviceToHost));
  if (!SameValues(c, t.want_c[batch])) ++t.wrong;
  return grd::OkStatus();
}

Status SetUp(TrainState& t, std::uint64_t seed, std::uint32_t index,
             std::uint64_t* module_loads) {
  GRD_RETURN_IF_ERROR(t.tenant.Connect(&t.channel.channel(), kPartitionBytes));
  auto& lib = *t.tenant;
  GRD_ASSIGN_OR_RETURN(auto blas,
                       lib.cuModuleLoadData(std::string(grd::simlibs::CublasPtx())));
  GRD_ASSIGN_OR_RETURN(auto mine, lib.cuModuleLoadData(kBenchPtx));
  *module_loads += 2;
  GRD_ASSIGN_OR_RETURN(t.sgemm, lib.cuModuleGetFunction(blas, "grd_sgemm"));
  GRD_ASSIGN_OR_RETURN(t.bias_relu,
                       lib.cuModuleGetFunction(mine, "bench_bias_relu"));
  GRD_ASSIGN_OR_RETURN(t.row_sum, lib.cuModuleGetFunction(mine, "bench_row_sum"));
  GRD_RETURN_IF_ERROR(lib.cudaStreamCreate(&t.stream));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&t.a, kTrainM * kTrainK * 4));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&t.b, kTrainK * kTrainN * 4));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&t.bias, kTrainN * 4));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&t.c, kTrainM * kTrainN * 4));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&t.d, kTrainM * kTrainN * 4));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&t.rows, kTrainM * 4));
  std::mt19937_64 rng = Rng(seed, 40 + index);
  t.b_host = SmallInts(rng, kTrainK * kTrainN, -2, 2);
  t.bias_host = SmallInts(rng, kTrainN, -8, 8);
  for (std::uint32_t i = 0; i < kBatches; ++i) {
    t.inputs.push_back(SmallInts(rng, kTrainM * kTrainK, -2, 2));
    t.want_c.push_back(
        GemmRef(t.inputs.back(), t.b_host, kTrainM, kTrainN, kTrainK));
    t.want_rows.push_back(StepRef(t.want_c.back(), t.bias_host, kTrainM, kTrainN));
  }
  GRD_RETURN_IF_ERROR(lib.cudaMemcpyH2D(t.b, t.b_host.data(), t.b_host.size() * 4));
  GRD_RETURN_IF_ERROR(
      lib.cudaMemcpyH2D(t.bias, t.bias_host.data(), t.bias_host.size() * 4));
  OpTimes untimed(false);
  for (std::uint32_t i = 0; i < kWarmupSteps; ++i) {
    GRD_RETURN_IF_ERROR(Step(t, untimed, i % kBatches));
    GRD_RETURN_IF_ERROR(CheckProduct(t, i % kBatches));
  }
  return grd::OkStatus();
}

}  // namespace

RunResult RunTrain(const Options& options, Clock::time_point process_start) {
  RunResult result;
  grd::simcuda::Gpu gpu(grd::simgpu::QuadroRtxA4000());
  grd::guardian::GrdManager manager(&gpu, grd::guardian::ManagerOptions{});
  TrainState tenants[kTenants];
  // Declared after the tenants whose channels it pumps, so its destructor
  // joins the pump workers before the channels go away.
  grd::guardian::ManagerServer server(
      &manager, grd::guardian::ManagerServer::Policy::kRoundRobin, 2);
  for (auto& t : tenants) server.AddChannel(&t.channel.channel());
  server.Start();

  std::uint64_t setup_loads[kTenants] = {};
  const Status setup = SetUpConcurrently(kTenants, [&](std::size_t i) {
    return SetUp(tenants[i], options.seed, static_cast<std::uint32_t>(i),
                 &setup_loads[i]);
  });
  std::uint64_t module_loads = 0;
  for (std::uint64_t loads : setup_loads) module_loads += loads;
  if (!setup.ok()) {
    result.Check(false, "train: setup: " + setup.ToString());
    return result;
  }
  const double setup_s = SecondsSince(process_start);

  std::vector<OpTimes> ops(kTenants, OpTimes(options.trace));
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t i = 0; i < kTenants; ++i)
      threads.emplace_back([&, i] {
        TrainState& t = tenants[i];
        for (std::uint32_t n = 0; SecondsSince(t0) < options.seconds; ++n) {
          const Clock::time_point begin = Clock::now();
          ++t.steps;
          if (!Step(t, ops[i], n % kBatches).ok()) {
            ++t.failed;
            return;
          }
          const double done = SecondsSince(t0);
          t.step_us.push_back({done, MicrosSince(begin)});
          t.done_s.push_back(done);
          if (!CheckProduct(t, n % kBatches).ok()) {
            ++t.failed;
            return;
          }
        }
      });
  }

  std::uint64_t launched_blocks = 0, ring_calls = 0, wrong = 0;
  std::vector<TimedSample> step_us;
  std::vector<double> done_s;
  for (auto& t : tenants) {
    result.Check(t.tenant->Disconnect().ok(), "train: disconnect");
    launched_blocks += t.blocks;
    ring_calls += t.tenant.transport->calls();
    wrong += t.wrong;
    result.attempted += t.steps;
    result.failed += t.failed;
    step_us.insert(step_us.end(), t.step_us.begin(), t.step_us.end());
    done_s.insert(done_s.end(), t.done_s.begin(), t.done_s.end());
  }
  server.Stop();
  const grd::guardian::ManagerStats& stats = manager.stats();
  result.Check(wrong == 0, "train: " + std::to_string(wrong) +
                               " step results or Sgemm outputs differ from host");
  for (const std::string& mismatch :
       TotalsMismatches(stats, {launched_blocks, ring_calls, module_loads}))
    result.Check(false, "train: " + mismatch);
  result.Check(manager.active_clients() == 0, "train: sessions left open");

  const Windows windows(options.seconds);
  const double mean = windows.MedianMean(step_us);
  const double p50 = windows.MedianQuantile(step_us, 0.50);
  const double p95 = windows.MedianQuantile(step_us, 0.95);
  const double p99 = windows.MedianQuantile(step_us, 0.99);
  const double steps_per_s = windows.MedianRate(done_s);
  result.end_to_end = {{"setup_s", setup_s, "s"},
                       {"latency_mean_us", mean, "us"},
                       {"throughput_per_s", steps_per_s, "1/s"}};
  char line[256];
  std::snprintf(line, sizeof line,
                "train: train_steps_per_s=%.2f step_mean_us=%.1f "
                "step_p50_us=%.1f step_p95_us=%.1f step_p99_us=%.1f "
                "(medians of %d windows; steps=%zu)",
                steps_per_s, mean, p50, p95, p99, windows.count(),
                step_us.size());
  result.notes.push_back(line);

  if (options.trace) {
    OpTimes merged(true);
    for (const auto& o : ops) merged.Merge(o);
    AddStatsCounts(stats, &result);
    AddLayerMetrics(merged, /*process_pool=*/false, &result);
  }
  return result;
}

}  // namespace grdbench
