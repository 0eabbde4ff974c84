// churn: short-lived tenants, closed loop, one after another over the one
// channel of a one-worker forked ProcessServer pool. A second client and
// worker outnumbered the 4 vCPUs of the measuring VM with clients, pumps and
// executors: five 40 s runs then spread 0.22 in session latency and rate,
// against 0.07 with one.
//
// A session connects, creates a cuBLAS handle (a cached load of the shared
// library PTX plus its implicit mallocs and events), runs one Ddot and one
// Idamax on 256 doubles with readback, frees, and disconnects. In every
// block of kMissEvery sessions, one (at a seeded position) also loads a
// module unique to it, which misses the sandbox cache, and runs its kernel.
#include <cmath>
#include <cstdio>

#include "bench.hpp"
#include "guardian/process_server.hpp"
#include "kernels.hpp"
#include "simlibs/cublas.hpp"

namespace grdbench {
namespace {

using grd::Status;
using grd::ptxexec::KernelArg;
using grd::simcuda::DevicePtr;
using grd::simcuda::MemcpyKind;

constexpr std::uint32_t kVector = 256;
constexpr std::uint32_t kMissEvery = 8;  // miss share = 1/8
constexpr std::uint32_t kWarmupSessions = 2 * kMissEvery;
constexpr std::uint64_t kPartitionBytes = 8ull << 20;
// Blocks a session launches: Ddot (2 single-block kernels) + Idamax (1).
constexpr std::uint64_t kBlocksPerSession = 3;

struct ChurnClient {
  std::uint64_t sessions = 0;
  std::uint64_t failed = 0;
  std::uint64_t wrong = 0;
  std::uint64_t blocks = 0;
  std::uint64_t module_loads = 0;
  std::uint64_t ring_calls = 0;
  std::vector<TimedSample> session_us;  // tagged with the completion time
  std::vector<double> done_s;
};

std::uint32_t IdamaxRef(const std::vector<double>& x) {
  std::uint32_t best = 0;
  double best_abs = 0.0;
  for (std::uint32_t i = 0; i < x.size(); ++i)
    if (std::fabs(x[i]) > best_abs) {
      best_abs = std::fabs(x[i]);
      best = i + 1;
    }
  return best;
}

// One tenant lifecycle. `miss_tag` != 0 also loads the module unique to it.
Status Session(ChurnClient& c, grd::ipc::Channel* channel, OpTimes& ops,
               std::mt19937_64& rng, std::uint32_t miss_tag) {
  Tenant tenant;
  const Status connected = ops.Time(Op::kRegister, [&] {
    return tenant.Connect(channel, kPartitionBytes);
  });
  if (!connected.ok()) {
    c.ring_calls += tenant.transport->calls();
    return connected;
  }
  auto& lib = *tenant;
  Status body = [&]() -> Status {
    GRD_ASSIGN_OR_RETURN(grd::simlibs::Cublas blas,
                         grd::simlibs::Cublas::Create(lib));
    ++c.module_loads;
    std::uniform_int_distribution<int> dist(-100, 100);
    std::vector<double> x(kVector), y(kVector);
    for (auto& v : x) v = dist(rng);
    for (auto& v : y) v = dist(rng);
    DevicePtr dx = 0, dy = 0;
    GRD_RETURN_IF_ERROR(
        ops.Time(Op::kMalloc, [&] { return lib.cudaMalloc(&dx, kVector * 8); }));
    GRD_RETURN_IF_ERROR(
        ops.Time(Op::kMalloc, [&] { return lib.cudaMalloc(&dy, kVector * 8); }));
    GRD_RETURN_IF_ERROR(ops.Time(
        Op::kH2dSmall, [&] { return lib.cudaMemcpyH2D(dx, x.data(), kVector * 8); }));
    GRD_RETURN_IF_ERROR(ops.Time(
        Op::kH2dSmall, [&] { return lib.cudaMemcpyH2D(dy, y.data(), kVector * 8); }));
    GRD_ASSIGN_OR_RETURN(double dot, blas.Ddot(dx, dy, kVector));
    GRD_ASSIGN_OR_RETURN(std::uint32_t imax, blas.Idamax(dx, kVector));
    c.blocks += kBlocksPerSession;
    double want_dot = 0.0;
    for (std::uint32_t i = 0; i < kVector; ++i) want_dot += x[i] * y[i];
    if (dot != want_dot || imax != IdamaxRef(x)) ++c.wrong;

    if (miss_tag != 0) {
      GRD_ASSIGN_OR_RETURN(auto module, ops.Time(Op::kModuleLoadMiss, [&] {
                             return lib.cuModuleLoadData(UniqueMarkPtx(miss_tag));
                           }));
      ++c.module_loads;
      GRD_ASSIGN_OR_RETURN(auto mark, ops.Time(Op::kGetFunction, [&] {
                             return lib.cuModuleGetFunction(module, "bench_mark");
                           }));
      GRD_RETURN_IF_ERROR(ops.Time(Op::kLaunchSync, [&] {
        return lib.cudaLaunchKernel(mark, grd::simcuda::LaunchConfig{},
                                    {KernelArg::U64(dx)});
      }));
      c.blocks += 1;
      std::uint32_t got = 0;
      GRD_RETURN_IF_ERROR(ops.Time(Op::kD2hSmall, [&] {
        return lib.cudaMemcpy(&got, dx, 4, MemcpyKind::kDeviceToHost);
      }));
      if (got != miss_tag) ++c.wrong;
    }
    GRD_RETURN_IF_ERROR(ops.Time(Op::kFree, [&] { return lib.cudaFree(dx); }));
    GRD_RETURN_IF_ERROR(ops.Time(Op::kFree, [&] { return lib.cudaFree(dy); }));
    return grd::OkStatus();
  }();  // the cuBLAS handle is destroyed here, before the disconnect
  if (body.ok())
    body = ops.Time(Op::kDisconnect, [&] { return lib.Disconnect(); });
  c.ring_calls += tenant.transport->calls();
  return body;
}

// Sessions of one client, in blocks of kMissEvery with one seeded miss each.
class SessionPlan {
 public:
  explicit SessionPlan(std::uint64_t seed) : rng_(Rng(seed, 50)) {}

  // Tag of the module unique to session `n`, or 0 for a cache-hit session.
  std::uint32_t MissTag(std::uint64_t n) {
    if (n % kMissEvery == 0)
      miss_at_ = static_cast<std::uint32_t>(rng_() % kMissEvery);
    if (n % kMissEvery != miss_at_) return 0;
    return static_cast<std::uint32_t>((1u << 24) + n + 1);
  }

 private:
  std::mt19937_64 rng_;
  std::uint32_t miss_at_ = 0;
};

}  // namespace

RunResult RunChurn(const Options& options, Clock::time_point process_start) {
  RunResult result;
  grd::guardian::ProcessServerOptions server_options;
  server_options.workers = 1;
  server_options.channels = 1;
  auto created = grd::guardian::ProcessServer::Create(server_options);
  if (!created.ok()) {
    result.Check(false, "churn: pool create: " + created.status().ToString());
    return result;
  }
  std::unique_ptr<grd::guardian::ProcessServer> server = std::move(*created);
  if (!server->Start().ok() || !server->WaitForChannelOwners()) {
    result.Check(false, "churn: pool start failed");
    return result;
  }
  grd::ipc::Channel* channel = &server->channel(0);

  ChurnClient c;
  SessionPlan plan(options.seed);
  std::mt19937_64 rng = Rng(options.seed, 60);
  std::uint64_t next_session = 0;
  // Warm-up: the worker caches the library module, patches a few unique
  // ones and promotes the library kernels to the steady tier.
  OpTimes untimed(false);
  for (std::uint32_t n = 0; n < kWarmupSessions; ++n) {
    const Status s =
        Session(c, channel, untimed, rng, plan.MissTag(next_session++));
    if (!s.ok()) {
      result.Check(false, "churn: warm-up session: " + s.ToString());
      return result;
    }
  }
  const double setup_s = SecondsSince(process_start);

  OpTimes ops(options.trace);
  const Clock::time_point t0 = Clock::now();
  while (SecondsSince(t0) < options.seconds) {
    const Clock::time_point begin = Clock::now();
    ++c.sessions;
    if (!Session(c, channel, ops, rng, plan.MissTag(next_session++)).ok()) {
      ++c.failed;
      break;
    }
    const double done = SecondsSince(t0);
    c.session_us.push_back({done, MicrosSince(begin)});
    c.done_s.push_back(done);
  }
  result.attempted = c.sessions;
  result.failed = c.failed;

  const grd::guardian::ManagerStats& stats = server->state().stats();
  const auto& pool = server->state().counters();
  result.Check(c.wrong == 0, "churn: " + std::to_string(c.wrong) +
                                 " dot/idamax/mark results differ from host");
  for (const std::string& mismatch :
       TotalsMismatches(stats, {c.blocks, c.ring_calls, c.module_loads}))
    result.Check(false, "churn: " + mismatch);
  result.Check(pool.sessions_registered == pool.sessions_released,
               "churn: sessions registered != released");

  const Windows windows(options.seconds);
  const double mean = windows.MedianMean(c.session_us);
  const double p50 = windows.MedianQuantile(c.session_us, 0.50);
  const double p95 = windows.MedianQuantile(c.session_us, 0.95);
  const double p99 = windows.MedianQuantile(c.session_us, 0.99);
  const double sessions_per_s = windows.MedianRate(c.done_s);
  result.end_to_end = {{"setup_s", setup_s, "s"},
                       {"latency_mean_us", mean, "us"},
                       {"throughput_per_s", sessions_per_s, "1/s"}};
  char line[256];
  std::snprintf(line, sizeof line,
                "churn: sessions_per_s=%.2f session_mean_us=%.1f "
                "session_p50_us=%.1f session_p95_us=%.1f session_p99_us=%.1f "
                "(medians of %d windows; sessions=%zu, registered=%llu "
                "released=%llu)",
                sessions_per_s, mean, p50, p95, p99, windows.count(),
                c.session_us.size(),
                static_cast<unsigned long long>(pool.sessions_registered),
                static_cast<unsigned long long>(pool.sessions_released));
  result.notes.push_back(line);

  if (options.trace) {
    AddStatsCounts(stats, &result);
    server.reset();  // the probes fork pools of their own
    AddLayerMetrics(ops, /*process_pool=*/true, &result);
  }
  return result;
}

}  // namespace grdbench
