// serve: open-loop realtime inference next to a closed-loop batch trainer on
// one simulated device, served by a one-worker forked ProcessServer pool.
//
// Three realtime tenants send seeded Poisson arrivals; each request is a
// 1 KiB H2D, a kRealtime saxpy of 4 blocks on the default stream and a
// 1 KiB D2H, timed from when it was due. One kBatch tenant launches rounds
// of busy kernels on its own stream with batching on, pausing on the host
// between rounds; it also holds the canary buffer a realtime tenant attacks
// once the timed window is over.
#include <cinttypes>
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "guardian/process_server.hpp"
#include "kernels.hpp"

namespace grdbench {
namespace {

using grd::Status;
using grd::guardian::protocol::PriorityClass;
using grd::ptxexec::KernelArg;
using grd::simcuda::DevicePtr;
using grd::simcuda::MemcpyKind;

constexpr std::uint32_t kRtTenants = 3;
// Offered load per realtime tenant (requests/s); README records the rate
// sweep that places the total well below saturation.
constexpr double kRtRatePerTenant = 50.0;
constexpr std::uint32_t kRtElems = 256;
constexpr std::uint32_t kRtBlock = 64;  // 4 blocks
constexpr std::uint32_t kRtWarmup = 20;

constexpr std::uint32_t kBatchGrid = 24;
constexpr std::uint32_t kBatchBlock = 128;
constexpr std::uint32_t kBatchThreads = kBatchGrid * kBatchBlock;
constexpr std::uint32_t kBatchIters = 4;
// Host-side pause per batch round (data loading). Without it the batch
// tenant's syncs hold the one-worker pump about 85% of the time, realtime
// requests queue behind them, and the realtime figures swing by a factor of
// up to 4 from run to run.
constexpr std::chrono::milliseconds kBatchPause{2};

constexpr std::uint32_t kCanaryWords = 1024;
constexpr std::uint64_t kPartitionBytes = 8ull << 20;
constexpr std::uint32_t kAttackValue = 0xBADC0DEu;

struct RtState {
  Tenant tenant;
  grd::simcuda::FunctionId saxpy = 0;
  DevicePtr x = 0, y = 0, out = 0;
  std::vector<float> y_host;
  std::uint64_t blocks = 0;
  std::uint64_t requests = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<TimedSample> latency_us;  // tagged with the due time
  std::vector<double> lateness_us;
};

struct BatchState {
  Tenant tenant;
  grd::simcuda::FunctionId busy = 0;
  grd::simcuda::StreamId stream = 0;
  DevicePtr out = 0;
  DevicePtr canary = 0;
  std::uint64_t blocks = 0;
  std::uint64_t kernels = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::vector<double> done_s;  // completion time of each kernel
};

// One realtime request: H2D x, saxpy, D2H out; checks out == a*x + y.
Status RtRequest(RtState& rt, OpTimes& ops, std::mt19937_64& rng) {
  const std::vector<float> x = SmallInts(rng, kRtElems, -64, 64);
  const float a = static_cast<float>(static_cast<int>(rng() % 17) - 8);
  auto& lib = *rt.tenant;
  GRD_RETURN_IF_ERROR(ops.Time(Op::kH2dSmall, [&] {
    return lib.cudaMemcpyH2D(rt.x, x.data(), kRtElems * 4);
  }));
  grd::simcuda::LaunchConfig config;
  config.grid = {kRtElems / kRtBlock, 1, 1};
  config.block = {kRtBlock, 1, 1};
  GRD_RETURN_IF_ERROR(ops.Time(Op::kLaunchSync, [&] {
    return lib.cudaLaunchKernel(
        rt.saxpy, config,
        {KernelArg::U64(rt.out), KernelArg::U64(rt.x), KernelArg::U64(rt.y),
         KernelArg::F32(a), KernelArg::U32(kRtElems)});
  }));
  rt.blocks += config.grid.x;
  std::vector<float> got(kRtElems);
  GRD_RETURN_IF_ERROR(ops.Time(Op::kD2hSmall, [&] {
    return lib.cudaMemcpy(got.data(), rt.out, kRtElems * 4,
                          MemcpyKind::kDeviceToHost);
  }));
  std::vector<float> want(kRtElems);
  for (std::uint32_t i = 0; i < kRtElems; ++i) want[i] = a * x[i] + rt.y_host[i];
  if (!SameValues(got, want)) ++rt.wrong;
  return grd::OkStatus();
}

// One batch round: a busy kernel, stream sync, readback, check.
Status BatchRound(BatchState& batch, OpTimes& ops, std::uint64_t seed,
                  std::uint64_t round) {
  auto& lib = *batch.tenant;
  grd::simcuda::LaunchConfig config;
  config.grid = {kBatchGrid, 1, 1};
  config.block = {kBatchBlock, 1, 1};
  config.stream = batch.stream;
  const auto kernel_seed =
      static_cast<std::uint32_t>((seed * 1000003u + round) * 2654435761u);
  GRD_RETURN_IF_ERROR(lib.cudaLaunchKernel(
      batch.busy, config,
      {KernelArg::U64(batch.out), KernelArg::U32(kernel_seed),
       KernelArg::U32(kBatchIters)}));
  batch.blocks += kBatchGrid;
  GRD_RETURN_IF_ERROR(ops.Time(
      Op::kStreamSync, [&] { return lib.cudaStreamSynchronize(batch.stream); }));
  std::vector<std::uint32_t> got(kBatchThreads);
  GRD_RETURN_IF_ERROR(lib.cudaMemcpy(got.data(), batch.out, got.size() * 4,
                                     MemcpyKind::kDeviceToHost));
  std::vector<std::uint32_t> want(kBatchThreads);
  for (std::uint32_t g = 0; g < kBatchThreads; ++g)
    want[g] = BusyRef(kernel_seed, g, kBatchIters);
  if (!SameValues(got, want)) ++batch.wrong;
  return grd::OkStatus();
}

Status SetUpRt(RtState& rt, grd::ipc::Channel* channel, std::uint64_t seed,
               std::uint32_t index, std::uint64_t* module_loads) {
  GRD_RETURN_IF_ERROR(rt.tenant.Connect(channel, kPartitionBytes));
  auto& lib = *rt.tenant;
  GRD_RETURN_IF_ERROR(lib.SetPriority(PriorityClass::kRealtime));
  GRD_ASSIGN_OR_RETURN(auto module, lib.cuModuleLoadData(kBenchPtx));
  ++*module_loads;
  GRD_ASSIGN_OR_RETURN(rt.saxpy, lib.cuModuleGetFunction(module, "bench_saxpy"));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&rt.x, kRtElems * 4));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&rt.y, kRtElems * 4));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&rt.out, kRtElems * 4));
  std::mt19937_64 rng = Rng(seed, 10 + index);
  rt.y_host = SmallInts(rng, kRtElems, -1000, 1000);
  GRD_RETURN_IF_ERROR(lib.cudaMemcpyH2D(rt.y, rt.y_host.data(), kRtElems * 4));
  // Warm-up: promote the module to the steady execution tier.
  OpTimes untimed(false);
  for (std::uint32_t i = 0; i < kRtWarmup; ++i)
    GRD_RETURN_IF_ERROR(RtRequest(rt, untimed, rng));
  return grd::OkStatus();
}

Status SetUpBatch(BatchState& batch, grd::ipc::Channel* channel,
                  std::uint64_t seed, std::uint64_t* module_loads) {
  GRD_RETURN_IF_ERROR(batch.tenant.Connect(channel, kPartitionBytes));
  auto& lib = *batch.tenant;
  GRD_RETURN_IF_ERROR(lib.SetPriority(PriorityClass::kBatch));
  GRD_ASSIGN_OR_RETURN(auto module, lib.cuModuleLoadData(kBenchPtx));
  ++*module_loads;
  GRD_ASSIGN_OR_RETURN(batch.busy, lib.cuModuleGetFunction(module, "bench_busy"));
  GRD_RETURN_IF_ERROR(lib.cudaStreamCreate(&batch.stream));
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&batch.out, kBatchThreads * 4));
  std::vector<std::uint32_t> pattern(kCanaryWords);
  for (std::uint32_t i = 0; i < kCanaryWords; ++i)
    pattern[i] = CanaryWord(seed, i);
  GRD_RETURN_IF_ERROR(lib.cudaMalloc(&batch.canary, kCanaryWords * 4));
  GRD_RETURN_IF_ERROR(
      lib.cudaMemcpyH2D(batch.canary, pattern.data(), kCanaryWords * 4));
  lib.EnableBatching(8);
  OpTimes untimed(false);
  for (std::uint64_t round = 0; round < 10; ++round)
    GRD_RETURN_IF_ERROR(BatchRound(batch, untimed, seed, ~round));
  return grd::OkStatus();
}

// Realtime tenant 0 aims a store at the batch tenant's canary. Bitwise
// fencing must land it at base + (addr & (size - 1)) in the attacker's own
// partition and leave the canary intact.
void AttackCanary(RtState& attacker_state, BatchState& batch,
                  std::uint64_t seed, std::uint64_t* module_loads,
                  RunResult* result) {
  auto& attacker = *attacker_state.tenant;
  std::vector<std::uint32_t> canary_after(kCanaryWords);
  std::uint32_t landed = 0;
  const Status attack = [&]() -> Status {
    GRD_ASSIGN_OR_RETURN(auto module, attacker.cuModuleLoadData(kBenchPtx));
    ++*module_loads;
    GRD_ASSIGN_OR_RETURN(auto store,
                         attacker.cuModuleGetFunction(module, "bench_store"));
    GRD_RETURN_IF_ERROR(attacker.cudaLaunchKernel(
        store, grd::simcuda::LaunchConfig{},
        {KernelArg::U64(batch.canary), KernelArg::U32(kAttackValue)}));
    attacker_state.blocks += 1;
    GRD_RETURN_IF_ERROR(batch.tenant->cudaMemcpy(
        canary_after.data(), batch.canary, kCanaryWords * 4,
        MemcpyKind::kDeviceToHost));
    const std::uint64_t target =
        attacker.partition_base() +
        (batch.canary & (attacker.partition_size() - 1));
    return attacker.cudaMemcpy(&landed, target, 4, MemcpyKind::kDeviceToHost);
  }();
  result->Check(attack.ok(), "serve: attack sequence: " + attack.ToString());
  result->Check(CanaryIntact(canary_after, seed),
                "serve: canary buffer changed by another tenant's store");
  result->Check(landed == kAttackValue,
                "serve: fenced store did not land at base + (addr & mask)");
}

}  // namespace

RunResult RunServe(const Options& options, Clock::time_point process_start) {
  RunResult result;
  grd::guardian::ProcessServerOptions server_options;
  server_options.workers = 1;  // one worker process = one shared device
  server_options.channels = kRtTenants + 1;
  auto created = grd::guardian::ProcessServer::Create(server_options);
  if (!created.ok()) {
    result.Check(false, "serve: pool create: " + created.status().ToString());
    return result;
  }
  // Declared before the tenants, so it outlives them: on every path the
  // tenants go first, then the pool stops and reaps its worker.
  std::unique_ptr<grd::guardian::ProcessServer> server = std::move(*created);
  if (!server->Start().ok() || !server->WaitForChannelOwners()) {
    result.Check(false, "serve: pool start failed");
    return result;
  }

  RtState rt[kRtTenants];
  BatchState batch;
  std::uint64_t setup_loads[kRtTenants + 1] = {};
  const Status setup = SetUpConcurrently(kRtTenants + 1, [&](std::size_t i) {
    return i < kRtTenants ? SetUpRt(rt[i], &server->channel(i), options.seed,
                                    i, &setup_loads[i])
                          : SetUpBatch(batch, &server->channel(i),
                                       options.seed, &setup_loads[i]);
  });
  std::uint64_t module_loads = 0;
  for (std::uint64_t loads : setup_loads) module_loads += loads;
  if (!setup.ok()) {
    result.Check(false, "serve: setup: " + setup.ToString());
    return result;
  }
  const double setup_s = SecondsSince(process_start);

  // Seeded Poisson arrival times, one schedule per realtime tenant.
  std::vector<double> due_s[kRtTenants];
  for (std::uint32_t i = 0; i < kRtTenants; ++i) {
    std::mt19937_64 rng = Rng(options.seed, 20 + i);
    std::exponential_distribution<double> gap(kRtRatePerTenant);
    for (double t = gap(rng); t < options.seconds; t += gap(rng))
      due_s[i].push_back(t);
  }

  std::vector<OpTimes> ops(kRtTenants + 1, OpTimes(options.trace));
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t i = 0; i < kRtTenants; ++i)
      threads.emplace_back([&, i] {
        std::mt19937_64 rng = Rng(options.seed, 30 + i);
        RtState& state = rt[i];
        for (double due : due_s[i]) {
          const Clock::time_point due_at =
              t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due));
          std::this_thread::sleep_until(due_at);
          state.lateness_us.push_back(MicrosSince(due_at));
          ++state.requests;
          if (!RtRequest(state, ops[i], rng).ok()) {
            ++state.failed;
            return;  // the channel may owe a response; stop this tenant
          }
          state.latency_us.push_back({due, MicrosSince(due_at)});
        }
      });
    threads.emplace_back([&] {
      for (std::uint64_t round = 0; SecondsSince(t0) < options.seconds;
           ++round) {
        ++batch.kernels;
        if (!BatchRound(batch, ops[kRtTenants], options.seed, round).ok()) {
          ++batch.failed;
          return;
        }
        batch.done_s.push_back(SecondsSince(t0));
        std::this_thread::sleep_for(kBatchPause);
      }
    });
  }

  AttackCanary(rt[0], batch, options.seed, &module_loads, &result);

  // Disconnect everyone, then compare the pool's totals with the clients'.
  std::uint64_t launched_blocks = batch.blocks;
  std::uint64_t ring_calls = 0;
  for (auto& state : rt) {
    result.Check(state.tenant->Disconnect().ok(), "serve: rt disconnect");
    launched_blocks += state.blocks;
    ring_calls += state.tenant.transport->calls();
  }
  result.Check(batch.tenant->Disconnect().ok(), "serve: batch disconnect");
  ring_calls += batch.tenant.transport->calls();
  const grd::guardian::ManagerStats& stats = server->state().stats();
  const auto& pool = server->state().counters();
  for (const std::string& mismatch :
       TotalsMismatches(stats, {launched_blocks, ring_calls, module_loads}))
    result.Check(false, "serve: " + mismatch);
  result.Check(pool.sessions_registered == pool.sessions_released,
               "serve: sessions registered != released");

  std::vector<TimedSample> latency;
  std::vector<double> lateness;
  std::uint64_t requests = 0, wrong = batch.wrong;
  for (const auto& state : rt) {
    latency.insert(latency.end(), state.latency_us.begin(),
                   state.latency_us.end());
    lateness.insert(lateness.end(), state.lateness_us.begin(),
                    state.lateness_us.end());
    requests += state.requests;
    result.failed += state.failed;
    wrong += state.wrong;
  }
  result.failed += batch.failed;
  result.attempted = requests + batch.kernels;
  result.Check(wrong == 0, "serve: " + std::to_string(wrong) +
                               " realtime/batch results differ from host");

  const Windows windows(options.seconds);
  std::size_t per_window = 0;
  const double mean = windows.MedianMean(latency);
  const double p50 = windows.MedianQuantile(latency, 0.50);
  const double p95 = windows.MedianQuantile(latency, 0.95);
  const double p99 = windows.MedianQuantile(latency, 0.99, &per_window);
  const double kernels_per_s = windows.MedianRate(batch.done_s);
  result.end_to_end = {{"setup_s", setup_s, "s"},
                       {"latency_mean_us", mean, "us"},
                       {"throughput_per_s", kernels_per_s, "1/s"}};
  char line[320];
  std::snprintf(line, sizeof line,
                "serve: rt_mean_us=%.1f rt_p50_us=%.1f rt_p95_us=%.1f "
                "rt_p99_us=%.1f batch_kernels_per_s=%.2f (medians of %d "
                "windows; rt samples=%zu, fewest per window=%zu, "
                "offered=%.0f/s)",
                mean, p50, p95, p99, kernels_per_s, windows.count(),
                latency.size(), per_window, kRtRatePerTenant * kRtTenants);
  result.notes.push_back(line);
  std::snprintf(line, sizeof line,
                "serve: generator lateness p50=%.1fus p99=%.1fus max=%.1fus; "
                "preemptions=%" PRIu64 " kernel_blocks=%" PRIu64,
                Quantile(lateness, 0.5), Quantile(lateness, 0.99),
                Quantile(lateness, 1.0),
                static_cast<std::uint64_t>(stats.preemptions),
                static_cast<std::uint64_t>(stats.kernel_blocks_executed));
  result.notes.push_back(line);

  if (options.trace) {
    OpTimes merged(true);
    for (const auto& o : ops) merged.Merge(o);
    AddStatsCounts(stats, &result);
    server.reset();  // the probes fork pools of their own
    AddLayerMetrics(merged, /*process_pool=*/true, &result);
  }
  return result;
}

}  // namespace grdbench
