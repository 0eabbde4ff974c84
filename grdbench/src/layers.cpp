// Per-layer metrics of the traced run. Every figure is timed here, around
// calls into one module's public functions; nothing inside src/ is
// instrumented.
#include <cstdio>
#include <thread>

#include "bench.hpp"
#include "guardian/manager.hpp"
#include "guardian/partition_allocator.hpp"
#include "guardian/process_server.hpp"
#include "guardian/sandbox_cache.hpp"
#include "kernels.hpp"
#include "ptx/parser.hpp"
#include "ptx/validator.hpp"
#include "ptxexec/interpreter.hpp"
#include "ptxpatcher/patcher.hpp"
#include "simcuda/native.hpp"
#include "simlibs/kernels_ptx.hpp"

namespace grdbench {
namespace {

using grd::Status;
using grd::guardian::GrdLib;
using grd::ptxexec::KernelArg;
using grd::simcuda::DevicePtr;
using grd::simcuda::MemcpyKind;

constexpr int kProbeSessions = 100;
constexpr std::uint32_t kSmallBytes = 1024;
constexpr std::uint32_t kBatchBytes = kTrainM * kTrainK * 4;  // 16 KiB
// Median of a closure's wall time over `reps` calls, in microseconds.
template <typename F>
double MedianMicros(int reps, F&& body) {
  std::vector<double> us;
  us.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point begin = Clock::now();
    body(i);
    us.push_back(MicrosSince(begin));
  }
  return Quantile(us, 0.5);
}

// Issues every timed GrdLib call through `transport`, one session per
// round, and records each call's latency.
Status ProbeOps(grd::guardian::ClientTransport* transport, OpTimes* ops) {
  std::vector<float> small(kSmallBytes / 4, 1.0f), batch(kBatchBytes / 4, 2.0f);
  for (int round = 0; round < kProbeSessions; ++round) {
    auto connected = ops->Time(
        Op::kRegister, [&] { return GrdLib::Connect(transport, 8ull << 20); });
    GRD_RETURN_IF_ERROR(connected.status());
    GrdLib& lib = *connected;
    if (round == 0) GRD_RETURN_IF_ERROR(lib.cuModuleLoadData(kBenchPtx).status());
    GRD_ASSIGN_OR_RETURN(auto module, ops->Time(Op::kModuleLoadHit, [&] {
                           return lib.cuModuleLoadData(kBenchPtx);
                         }));
    GRD_RETURN_IF_ERROR(ops->Time(Op::kModuleLoadMiss, [&] {
                          return lib.cuModuleLoadData(UniqueMarkPtx(
                              0x5000000u + static_cast<std::uint32_t>(round)));
                        }).status());
    GRD_ASSIGN_OR_RETURN(auto saxpy, ops->Time(Op::kGetFunction, [&] {
                           return lib.cuModuleGetFunction(module, "bench_saxpy");
                         }));
    DevicePtr x = 0, big = 0;
    GRD_RETURN_IF_ERROR(
        ops->Time(Op::kMalloc, [&] { return lib.cudaMalloc(&x, kSmallBytes); }));
    GRD_RETURN_IF_ERROR(
        ops->Time(Op::kMalloc, [&] { return lib.cudaMalloc(&big, kBatchBytes); }));
    GRD_RETURN_IF_ERROR(ops->Time(Op::kH2dSmall, [&] {
      return lib.cudaMemcpyH2D(x, small.data(), kSmallBytes);
    }));
    GRD_RETURN_IF_ERROR(ops->Time(Op::kH2dBatch, [&] {
      return lib.cudaMemcpyH2D(big, batch.data(), kBatchBytes);
    }));
    grd::simcuda::LaunchConfig config;
    config.grid = {4, 1, 1};
    config.block = {64, 1, 1};
    const std::vector<KernelArg> args = {
        KernelArg::U64(big), KernelArg::U64(x), KernelArg::U64(x),
        KernelArg::F32(3.0f), KernelArg::U32(256)};
    GRD_RETURN_IF_ERROR(ops->Time(
        Op::kLaunchSync, [&] { return lib.cudaLaunchKernel(saxpy, config, args); }));
    GRD_RETURN_IF_ERROR(ops->Time(Op::kD2hSmall, [&] {
      return lib.cudaMemcpy(small.data(), big, kSmallBytes,
                            MemcpyKind::kDeviceToHost);
    }));
    grd::simcuda::StreamId stream = 0;
    GRD_RETURN_IF_ERROR(lib.cudaStreamCreate(&stream));
    config.stream = stream;
    GRD_RETURN_IF_ERROR(lib.cudaLaunchKernel(saxpy, config, args));
    GRD_RETURN_IF_ERROR(ops->Time(
        Op::kStreamSync, [&] { return lib.cudaStreamSynchronize(stream); }));
    GRD_RETURN_IF_ERROR(ops->Time(Op::kFree, [&] { return lib.cudaFree(x); }));
    GRD_RETURN_IF_ERROR(ops->Time(Op::kFree, [&] { return lib.cudaFree(big); }));
    GRD_RETURN_IF_ERROR(
        ops->Time(Op::kDisconnect, [&] { return lib.Disconnect(); }));
  }
  return grd::OkStatus();
}

// The same probe over the deployment's ring transport: a one-worker forked
// pool, or the two-worker threaded ManagerServer.
Status ProbeOpsOverRing(bool process_pool, OpTimes* ops) {
  if (process_pool) {
    grd::guardian::ProcessServerOptions server_options;
    server_options.workers = 1;
    server_options.channels = 1;
    GRD_ASSIGN_OR_RETURN(auto server,
                         grd::guardian::ProcessServer::Create(server_options));
    GRD_RETURN_IF_ERROR(server->Start());
    if (!server->WaitForChannelOwners())
      return grd::Internal("probe pool did not start");
    CountingTransport transport(&server->channel(0), kCallTimeout);
    return ProbeOps(&transport, ops);
  }
  grd::simcuda::Gpu gpu(grd::simgpu::QuadroRtxA4000());
  grd::guardian::GrdManager manager(&gpu, grd::guardian::ManagerOptions{});
  grd::ipc::HeapChannel channel;
  grd::guardian::ManagerServer server(
      &manager, grd::guardian::ManagerServer::Policy::kRoundRobin, 2);
  server.AddChannel(&channel.channel());
  server.Start();
  CountingTransport transport(&channel.channel(), kCallTimeout);
  return ProbeOps(&transport, ops);
}

// ipc: a frame echoed through a heap-backed Channel by a benchmark thread.
void AddIpc(RunResult* result) {
  grd::ipc::HeapChannel heap;
  grd::ipc::Channel& channel = heap.channel();
  std::jthread echo([&] {
    while (true) {
      auto frame = channel.request().ReadWithDeadline(kCallTimeout);
      if (!frame.ok() || frame->empty()) return;
      if (!channel.response().Write(*frame).ok()) return;
    }
  });
  const auto rtt = [&](std::size_t bytes, int reps) {
    const grd::ipc::Bytes frame(bytes, 0x5A);
    return MedianMicros(reps, [&](int) { (void)channel.Call(frame); });
  };
  result->Layer("ipc.rtt_small_us", rtt(64, 4000), "us");
  result->Layer("ipc.rtt_batch_us", rtt(kBatchBytes, 1000), "us");
  (void)channel.request().Write(grd::ipc::Bytes{});
}

// ptx / patch / exec / cache: the load pipeline run directly on the
// library PTX every churn session loads.
void AddLoadPipeline(RunResult* result) {
  const std::string source(grd::simlibs::CublasPtx());
  auto parsed = grd::ptx::Parse(source);
  result->Check(parsed.ok(), "layers: library PTX does not parse");
  if (!parsed.ok()) return;
  grd::ptxpatcher::PatchOptions patch;
  patch.elision_enabled = true;  // as ManagerOptions configures the patcher
  auto patched = grd::ptxpatcher::PatchModule(*parsed, patch);
  result->Check(patched.ok(), "layers: library PTX does not patch");
  if (!patched.ok()) return;
  result->Layer("ptx.parse_us", MedianMicros(300, [&](int) {
                  (void)grd::ptx::Parse(source);
                }), "us");
  result->Layer("ptx.validate_us", MedianMicros(300, [&](int) {
                  (void)grd::ptx::ValidateOrError(*parsed);
                }), "us");
  result->Layer("patch.module_us", MedianMicros(300, [&](int) {
                  (void)grd::ptxpatcher::PatchModule(*parsed, patch);
                }), "us");
  result->Layer("exec.compile_us", MedianMicros(300, [&](int) {
                  (void)grd::ptxexec::CompiledModule::Compile(*patched);
                }), "us");
  grd::guardian::SandboxCache warm;
  (void)warm.GetOrPatch(source, *parsed, patch);
  result->Layer("cache.hit_us", MedianMicros(3000, [&](int) {
                  (void)warm.GetOrPatch(source, *parsed, patch);
                }), "us");
  result->Layer("cache.miss_us", MedianMicros(200, [&](int) {
                  grd::guardian::SandboxCache cold;
                  (void)cold.GetOrPatch(source, *parsed, patch);
                }), "us");
}

// alloc / bounds: partition reserve + release, transfer bounds check.
void AddAllocAndBounds(RunResult* result) {
  grd::guardian::PartitionAllocator partitions(16ull << 30);
  result->Layer("alloc.partition_us", MedianMicros(5000, [&](int) {
                  auto bounds = partitions.CreatePartition(8ull << 20);
                  if (bounds.ok()) (void)partitions.ReleasePartition(bounds->base);
                }), "us");
  grd::guardian::PartitionBoundsTable table;
  for (std::uint64_t client = 1; client <= 4; ++client)
    (void)table.Insert(client, {client << 24, 1ull << 24});
  constexpr int kChecks = 10000;
  const double us = MedianMicros(50, [&](int) {
    for (int i = 0; i < kChecks; ++i)
      (void)table.CheckTransfer(2, (2ull << 24) + (i & 0xFFF), 256);
  });
  result->Layer("bounds.check_ns", us * 1000.0 / kChecks, "ns");
}

// sched: realtime launch_sync p50 next to a closed-loop batch tenant, minus
// the same with the device to itself (one-worker forked pool, serve's
// kernel shapes).
Status AddInterference(RunResult* result) {
  grd::guardian::ProcessServerOptions server_options;
  server_options.workers = 1;
  server_options.channels = 2;
  GRD_ASSIGN_OR_RETURN(auto server,
                       grd::guardian::ProcessServer::Create(server_options));
  GRD_RETURN_IF_ERROR(server->Start());
  if (!server->WaitForChannelOwners())
    return grd::Internal("probe pool did not start");
  Tenant rt, batch;
  GRD_RETURN_IF_ERROR(rt.Connect(&server->channel(0), 8ull << 20));
  GRD_RETURN_IF_ERROR(batch.Connect(&server->channel(1), 8ull << 20));
  GRD_RETURN_IF_ERROR(
      rt->SetPriority(grd::guardian::protocol::PriorityClass::kRealtime));
  GRD_RETURN_IF_ERROR(
      batch->SetPriority(grd::guardian::protocol::PriorityClass::kBatch));
  GRD_ASSIGN_OR_RETURN(auto rt_module, rt->cuModuleLoadData(kBenchPtx));
  GRD_ASSIGN_OR_RETURN(auto saxpy, rt->cuModuleGetFunction(rt_module, "bench_saxpy"));
  GRD_ASSIGN_OR_RETURN(auto b_module, batch->cuModuleLoadData(kBenchPtx));
  GRD_ASSIGN_OR_RETURN(auto busy, batch->cuModuleGetFunction(b_module, "bench_busy"));
  DevicePtr x = 0, out = 0;
  GRD_RETURN_IF_ERROR(rt->cudaMalloc(&x, kSmallBytes));
  GRD_RETURN_IF_ERROR(batch->cudaMalloc(&out, 2 * 24 * 128 * 4));
  grd::simcuda::StreamId stream = 0;
  GRD_RETURN_IF_ERROR(batch->cudaStreamCreate(&stream));
  batch->EnableBatching(8);

  grd::simcuda::LaunchConfig rt_config;
  rt_config.grid = {4, 1, 1};
  rt_config.block = {64, 1, 1};
  const std::vector<KernelArg> rt_args = {KernelArg::U64(x), KernelArg::U64(x),
                                          KernelArg::U64(x), KernelArg::F32(1.0f),
                                          KernelArg::U32(256)};
  Status rt_status = grd::OkStatus();
  const auto rt_p50 = [&] {
    return MedianMicros(300, [&](int) {
      const Status s = rt->cudaLaunchKernel(saxpy, rt_config, rt_args);
      if (!s.ok()) rt_status = s;
    });
  };
  for (int i = 0; i < 20; ++i) (void)rt->cudaLaunchKernel(saxpy, rt_config, rt_args);
  const double alone = rt_p50();

  std::atomic<bool> stop{false};
  Status batch_status = grd::OkStatus();
  double with_batch = 0.0;
  {
    std::jthread batch_loop([&] {
      grd::simcuda::LaunchConfig config;
      config.grid = {24, 1, 1};
      config.block = {128, 1, 1};
      config.stream = stream;
      while (!stop.load() && batch_status.ok()) {
        for (std::uint32_t k = 0; k < 2 && batch_status.ok(); ++k)
          batch_status = batch->cudaLaunchKernel(
              busy, config,
              {KernelArg::U64(out + k * 24 * 128 * 4), KernelArg::U32(k),
               KernelArg::U32(4)});
        if (batch_status.ok()) batch_status = batch->cudaStreamSynchronize(stream);
      }
    });
    with_batch = rt_p50();
    stop = true;
  }
  GRD_RETURN_IF_ERROR(rt_status);
  GRD_RETURN_IF_ERROR(batch_status);
  result->Layer("sched.interference_us", with_batch - alone, "us");
  GRD_RETURN_IF_ERROR(rt->Disconnect());
  return batch->Disconnect();
}

// exec / mem / native: the train step's kernels run directly by the
// interpreter at the steady tier, patched and unpatched, and the same step
// through NativeCuda with no Guardian in the path.
struct StepModules {
  std::shared_ptr<const grd::ptxexec::CompiledModule> blas, mine;
};

grd::Result<StepModules> CompileStep(bool patched) {
  StepModules out;
  grd::ptxpatcher::PatchOptions patch;
  patch.elision_enabled = true;
  const auto compile = [&](std::string_view source)
      -> grd::Result<std::shared_ptr<const grd::ptxexec::CompiledModule>> {
    GRD_ASSIGN_OR_RETURN(grd::ptx::Module module, grd::ptx::Parse(source));
    if (patched) {
      GRD_ASSIGN_OR_RETURN(module, grd::ptxpatcher::PatchModule(module, patch));
    }
    return grd::ptxexec::CompiledModule::Compile(module)->Fused(nullptr);
  };
  GRD_ASSIGN_OR_RETURN(out.blas, compile(grd::simlibs::CublasPtx()));
  GRD_ASSIGN_OR_RETURN(out.mine, compile(kBenchPtx));
  return out;
}

void AddExecution(RunResult* result) {
  constexpr std::uint64_t kBase = 256ull << 20, kSize = 16ull << 20;
  const std::uint64_t a = kBase, b = a + kBatchBytes,
                      bias = b + kTrainK * kTrainN * 4,
                      c = bias + kTrainN * 4, d = c + kTrainM * kTrainN * 4,
                      rows = d + kTrainM * kTrainN * 4;
  std::mt19937_64 rng = Rng(99, 99);
  const auto a_host = SmallInts(rng, kTrainM * kTrainK, -2, 2);
  const auto b_host = SmallInts(rng, kTrainK * kTrainN, -2, 2);
  const auto bias_host = SmallInts(rng, kTrainN, -8, 8);
  const auto want = StepRef(GemmRef(a_host, b_host, kTrainM, kTrainN, kTrainK),
                            bias_host, kTrainM, kTrainN);

  grd::simgpu::GlobalMemory memory(1ull << 30);
  grd::simgpu::AllowAllPolicy allow;
  (void)memory.Write(a, a_host.data(), kBatchBytes);
  (void)memory.Write(b, b_host.data(), b_host.size() * 4);
  (void)memory.Write(bias, bias_host.data(), bias_host.size() * 4);

  const auto run_step = [&](const StepModules& m, bool patched,
                            std::uint64_t* instructions) -> Status {
    const auto grd_args = grd::ptxpatcher::ComputeGrdArgs(
        grd::ptxpatcher::BoundsCheckMode::kFencingBitwise, kBase, kSize);
    const auto launch = [&](const grd::ptxexec::CompiledModule& module,
                            const char* name, std::uint32_t grid,
                            std::uint32_t block,
                            std::vector<KernelArg> args) -> Status {
      GRD_ASSIGN_OR_RETURN(auto kernel, module.Find(name));
      if (patched) {
        args.push_back(KernelArg::U64(grd_args.arg0));
        args.push_back(KernelArg::U64(grd_args.arg1));
      }
      grd::ptxexec::Interpreter interpreter(&memory, &allow, 1);
      GRD_ASSIGN_OR_RETURN(
          auto stats,
          interpreter.Execute(*kernel, {{grid, 1, 1}, {block, 1, 1}, args},
                              grd::ptxexec::ExecControls{},
                              grd::ptxexec::ExecTier::kThreaded));
      *instructions += stats.instructions;
      return grd::OkStatus();
    };
    GRD_RETURN_IF_ERROR(launch(*m.blas, "grd_sgemm",
                               kTrainM * kTrainN / kSgemmBlock, kSgemmBlock,
                               {KernelArg::U64(a), KernelArg::U64(b),
                                KernelArg::U64(c), KernelArg::U32(kTrainM),
                                KernelArg::U32(kTrainN), KernelArg::U32(kTrainK)}));
    GRD_RETURN_IF_ERROR(launch(*m.mine, "bench_bias_relu", kTrainM * kTrainN / 128,
                               128,
                               {KernelArg::U64(d), KernelArg::U64(c),
                                KernelArg::U64(bias), KernelArg::U32(kTrainN),
                                KernelArg::U32(kTrainM * kTrainN)}));
    return launch(*m.mine, "bench_row_sum", (kTrainM + 127) / 128, 128,
                  {KernelArg::U64(rows), KernelArg::U64(d),
                   KernelArg::U32(kTrainM), KernelArg::U32(kTrainN)});
  };

  auto patched = CompileStep(true);
  auto native = CompileStep(false);
  result->Check(patched.ok() && native.ok(), "layers: step kernels compile");
  if (!patched.ok() || !native.ok()) return;
  std::uint64_t patched_instr = 0, native_instr = 0;
  Status status = grd::OkStatus();
  const double step_ms = MedianMicros(15, [&](int) {
                           patched_instr = 0;
                           const Status s = run_step(*patched, true, &patched_instr);
                           if (!s.ok()) status = s;
                         }) / 1000.0;
  std::vector<float> got(kTrainM);
  (void)memory.Read(rows, got.data(), kTrainM * 4);
  result->Check(status.ok() && SameValues(got, want),
                "layers: interpreted step differs from host");
  const double native_ms = MedianMicros(15, [&](int) {
                             native_instr = 0;
                             const Status s = run_step(*native, false, &native_instr);
                             if (!s.ok()) status = s;
                           }) / 1000.0;
  result->Check(status.ok(), "layers: native interpreted step failed");
  result->Layer("exec.step_ms", step_ms, "ms");
  result->Layer("exec.native_step_ms", native_ms, "ms");
  result->Layer("exec.minstr_per_s", patched_instr / step_ms / 1000.0, "Minstr/s");
  result->Layer("exec.instructions_per_step", static_cast<double>(patched_instr),
                "count");
  result->Layer("exec.guard_instructions_per_step",
                static_cast<double>(patched_instr - native_instr), "count");

  std::vector<std::uint8_t> buffer(kBatchBytes, 0x3C);
  const double write_us = MedianMicros(3000, [&](int i) {
    (void)memory.Write(kBase + (i % 64) * kBatchBytes, buffer.data(), kBatchBytes);
  });
  const double read_us = MedianMicros(3000, [&](int i) {
    (void)memory.Read(kBase + (i % 64) * kBatchBytes, buffer.data(), kBatchBytes);
  });
  result->Layer("mem.write_gb_per_s", kBatchBytes / write_us / 1000.0, "GB/s");
  result->Layer("mem.read_gb_per_s", kBatchBytes / read_us / 1000.0, "GB/s");
}

Status AddNative(RunResult* result) {
  grd::simcuda::Gpu gpu(grd::simgpu::QuadroRtxA4000());
  grd::simcuda::NativeCuda cuda(&gpu);
  GRD_ASSIGN_OR_RETURN(auto blas,
                       cuda.cuModuleLoadData(std::string(grd::simlibs::CublasPtx())));
  GRD_ASSIGN_OR_RETURN(auto mine, cuda.cuModuleLoadData(kBenchPtx));
  GRD_ASSIGN_OR_RETURN(auto sgemm, cuda.cuModuleGetFunction(blas, "grd_sgemm"));
  GRD_ASSIGN_OR_RETURN(auto relu, cuda.cuModuleGetFunction(mine, "bench_bias_relu"));
  GRD_ASSIGN_OR_RETURN(auto sum, cuda.cuModuleGetFunction(mine, "bench_row_sum"));
  DevicePtr a = 0, b = 0, bias = 0, c = 0, d = 0, rows = 0;
  GRD_RETURN_IF_ERROR(cuda.cudaMalloc(&a, kBatchBytes));
  GRD_RETURN_IF_ERROR(cuda.cudaMalloc(&b, kTrainK * kTrainN * 4));
  GRD_RETURN_IF_ERROR(cuda.cudaMalloc(&bias, kTrainN * 4));
  GRD_RETURN_IF_ERROR(cuda.cudaMalloc(&c, kTrainM * kTrainN * 4));
  GRD_RETURN_IF_ERROR(cuda.cudaMalloc(&d, kTrainM * kTrainN * 4));
  GRD_RETURN_IF_ERROR(cuda.cudaMalloc(&rows, kTrainM * 4));
  std::mt19937_64 rng = Rng(98, 98);
  const auto a_host = SmallInts(rng, kTrainM * kTrainK, -2, 2);
  const auto b_host = SmallInts(rng, kTrainK * kTrainN, -2, 2);
  const auto bias_host = SmallInts(rng, kTrainN, -8, 8);
  GRD_RETURN_IF_ERROR(cuda.cudaMemcpyH2D(b, b_host.data(), b_host.size() * 4));
  GRD_RETURN_IF_ERROR(
      cuda.cudaMemcpyH2D(bias, bias_host.data(), bias_host.size() * 4));
  std::vector<float> got(kTrainM);
  Status status = grd::OkStatus();
  const auto step = [&]() -> Status {
    GRD_RETURN_IF_ERROR(cuda.cudaMemcpyH2D(a, a_host.data(), kBatchBytes));
    grd::simcuda::LaunchConfig config;
    config.block = {kSgemmBlock, 1, 1};
    config.grid = {kTrainM * kTrainN / kSgemmBlock, 1, 1};
    GRD_RETURN_IF_ERROR(cuda.cudaLaunchKernel(
        sgemm, config,
        {KernelArg::U64(a), KernelArg::U64(b), KernelArg::U64(c),
         KernelArg::U32(kTrainM), KernelArg::U32(kTrainN), KernelArg::U32(kTrainK)}));
    config.block = {128, 1, 1};
    config.grid = {kTrainM * kTrainN / 128, 1, 1};
    GRD_RETURN_IF_ERROR(cuda.cudaLaunchKernel(
        relu, config,
        {KernelArg::U64(d), KernelArg::U64(c), KernelArg::U64(bias),
         KernelArg::U32(kTrainN), KernelArg::U32(kTrainM * kTrainN)}));
    config.grid = {(kTrainM + 127) / 128, 1, 1};
    GRD_RETURN_IF_ERROR(cuda.cudaLaunchKernel(
        sum, config,
        {KernelArg::U64(rows), KernelArg::U64(d), KernelArg::U32(kTrainM),
         KernelArg::U32(kTrainN)}));
    GRD_RETURN_IF_ERROR(cuda.cudaDeviceSynchronize());
    return cuda.cudaMemcpy(got.data(), rows, kTrainM * 4,
                           MemcpyKind::kDeviceToHost);
  };
  for (int i = 0; i < 3 && status.ok(); ++i) status = step();
  const double ms = MedianMicros(15, [&](int) {
                      const Status s = step();
                      if (!s.ok()) status = s;
                    }) / 1000.0;
  GRD_RETURN_IF_ERROR(status);
  result->Check(SameValues(got, StepRef(GemmRef(a_host, b_host, kTrainM, kTrainN,
                                                kTrainK),
                                        bias_host, kTrainM, kTrainN)),
                "layers: native step differs from host");
  result->Layer("native.train_step_ms", ms, "ms");
  return grd::OkStatus();
}

}  // namespace

void AddStatsCounts(const grd::guardian::ManagerStats& stats,
                    RunResult* result) {
  result->Layer("sched.preemptions", static_cast<double>(stats.preemptions),
                "count");
  result->Layer("sched.kernel_blocks",
                static_cast<double>(stats.kernel_blocks_executed), "count");
  result->Layer("cache.hits", static_cast<double>(stats.ptx_cache_hits),
                "count");
  result->Layer("cache.patched",
                static_cast<double>(stats.ptx_modules_patched), "count");
}

void AddLayerMetrics(const OpTimes& workload_ops, bool process_pool,
                     RunResult* result) {
  // Calls the workload issued often enough are reported from its own
  // samples; the rest come from a probe tenant on the same kind of server.
  OpTimes ring_probe(true), loopback_probe(true);
  Status probe = ProbeOpsOverRing(process_pool, &ring_probe);
  result->Check(probe.ok(), "layers: ring op probe: " + probe.ToString());
  {
    grd::simcuda::Gpu gpu(grd::simgpu::QuadroRtxA4000());
    grd::guardian::GrdManager manager(&gpu, grd::guardian::ManagerOptions{});
    grd::guardian::LoopbackTransport loopback(&manager);
    probe = ProbeOps(&loopback, &loopback_probe);
    result->Check(probe.ok(), "layers: loopback op probe: " + probe.ToString());
  }
  constexpr std::size_t kEnoughSamples = 100;
  double op_h2d_small = 0.0, mgr_h2d_small = 0.0;
  for (std::size_t i = 0; i < kOpCount; ++i) {
    const Op op = static_cast<Op>(i);
    const auto& own = workload_ops.samples(op);
    const auto& samples =
        own.size() >= kEnoughSamples ? own : ring_probe.samples(op);
    const std::string name = kOpNames[i];
    result->Layer("op." + name + "_p50_us", Quantile(samples, 0.50), "us");
    result->Layer("op." + name + "_p99_us", Quantile(samples, 0.99), "us");
    const double mgr = Quantile(loopback_probe.samples(op), 0.50);
    result->Layer("mgr." + name + "_us", mgr, "us");
    if (op == Op::kH2dSmall) {
      op_h2d_small = Quantile(samples, 0.50);
      mgr_h2d_small = mgr;
    }
  }
  result->Layer("pump.small_op_us", op_h2d_small - mgr_h2d_small, "us");

  AddIpc(result);
  AddLoadPipeline(result);
  AddAllocAndBounds(result);
  const Status interference = AddInterference(result);
  result->Check(interference.ok(),
                "layers: interference probe: " + interference.ToString());
  AddExecution(result);
  const Status native = AddNative(result);
  result->Check(native.ok(), "layers: native step: " + native.ToString());
}

}  // namespace grdbench
