// Shared pieces of the end-to-end benchmark: run options and results,
// raw-sample percentiles, the output checks, a ring-message counting
// transport and the per-call timers of the traced run.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "guardian/execution.hpp"
#include "guardian/grdlib.hpp"
#include "guardian/transport.hpp"

namespace grdbench {

using Clock = std::chrono::steady_clock;

inline double MicrosSince(Clock::time_point begin) {
  return std::chrono::duration<double, std::micro>(Clock::now() - begin)
      .count();
}
inline double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

// Nearest-rank quantile of raw samples (q in (0, 1]).
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  std::size_t rank = static_cast<std::size_t>(q * samples.size() + 0.999999);
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

// The timed window of a run is cut into equal sub-windows of about
// kWindowSeconds; each end-to-end figure is the median over sub-windows of
// that sub-window's statistic, so one stall of the host (tens of ms, seen
// on shared VMs) moves one sub-window, not the reported value.
inline constexpr double kWindowSeconds = 10.0;

// Samples tagged with the run-relative second they belong to.
struct TimedSample {
  double at_s = 0.0;
  double value = 0.0;
};

class Windows {
 public:
  explicit Windows(double seconds)
      : count_(std::max(1, static_cast<int>(seconds / kWindowSeconds + 1e-9))),
        length_s_(seconds / count_) {}

  int count() const noexcept { return count_; }

  // Median over sub-windows of the q-quantile of the samples in each;
  // samples outside [0, seconds) are ignored. `min_per_window` receives the
  // smallest sub-window sample count.
  double MedianQuantile(const std::vector<TimedSample>& samples, double q,
                        std::size_t* min_per_window = nullptr) const {
    std::vector<std::vector<double>> split(count_);
    for (const TimedSample& s : samples) {
      const int w = Index(s.at_s);
      if (w >= 0) split[w].push_back(s.value);
    }
    std::vector<double> per_window;
    std::size_t fewest = ~std::size_t{0};
    for (const auto& values : split) {
      per_window.push_back(Quantile(values, q));
      fewest = std::min(fewest, values.size());
    }
    if (min_per_window != nullptr) *min_per_window = fewest;
    return Median(per_window);
  }

  // Median over sub-windows of the mean of the samples in each.
  double MedianMean(const std::vector<TimedSample>& samples) const {
    std::vector<double> sums(count_, 0.0), counts(count_, 0.0);
    for (const TimedSample& s : samples) {
      const int w = Index(s.at_s);
      if (w < 0) continue;
      sums[w] += s.value;
      counts[w] += 1.0;
    }
    for (int w = 0; w < count_; ++w)
      sums[w] = counts[w] > 0 ? sums[w] / counts[w] : 0.0;
    return Median(sums);
  }

  // Median over sub-windows of completions per second.
  double MedianRate(const std::vector<double>& completion_s) const {
    std::vector<double> counts(count_, 0.0);
    for (double at : completion_s) {
      const int w = Index(at);
      if (w >= 0) counts[w] += 1.0;
    }
    for (double& c : counts) c /= length_s_;
    return Median(counts);
  }

 private:
  int Index(double at_s) const {
    if (at_s < 0) return -1;
    const int w = static_cast<int>(at_s / length_s_);
    return w < count_ ? w : -1;
  }
  static double Median(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
  }

  int count_;
  double length_s_;
};

// Deterministic per-purpose random stream: the same (seed, stream) pair
// always yields the same inputs.
inline std::mt19937_64 Rng(std::uint64_t seed, std::uint64_t stream) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(stream),
                    static_cast<std::uint32_t>(stream >> 32)};
  return std::mt19937_64(seq);
}

// Small integers as floats: every sum and product the kernels form stays
// exact in f32.
inline std::vector<float> SmallInts(std::mt19937_64& rng, std::size_t n,
                                    int lo, int hi) {
  std::uniform_int_distribution<int> dist(lo, hi);
  std::vector<float> out(n);
  for (float& v : out) v = static_cast<float>(dist(rng));
  return out;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one workload run reports. `attempted`/`failed` count the
// workload's units of work (requests, kernels, steps, sessions).
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> failures;  // output checks that did not hold
  std::vector<std::string> notes;     // human-readable context lines

  void Check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  void Layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---- output checks ---------------------------------------------------------
// Pure functions, so the start-up self-test can feed each of them a
// corrupted input and prove it rejects it.

template <typename T>
bool SameValues(const std::vector<T>& got, const std::vector<T>& want) {
  return got.size() == want.size() &&
         std::memcmp(got.data(), want.data(), got.size() * sizeof(T)) == 0;
}

// What the clients counted themselves, held against the server's totals.
struct ClientTotals {
  std::uint64_t blocks = 0;        // kernel blocks launched
  std::uint64_t ring_calls = 0;    // ring messages sent
  std::uint64_t module_loads = 0;  // cuModuleLoadData calls, library ones too
};

// The server totals that disagree with the clients' own counts, one line
// each: kernel_blocks_executed, ring_messages_read, and cache hits plus
// patches against module loads.
std::vector<std::string> TotalsMismatches(
    const grd::guardian::ManagerStats& stats, const ClientTotals& clients);

// The canary tenant's buffer: word i holds CanaryWord(seed, i).
inline std::uint32_t CanaryWord(std::uint64_t seed, std::uint32_t i) {
  return static_cast<std::uint32_t>(seed * 0x9E3779B97F4A7C15ull >> 32) ^
         (i * 2654435761u) ^ 0xC0FFEEu;
}
inline bool CanaryIntact(const std::vector<std::uint32_t>& words,
                         std::uint64_t seed) {
  for (std::uint32_t i = 0; i < words.size(); ++i)
    if (words[i] != CanaryWord(seed, i)) return false;
  return !words.empty();
}

// Runs every check on a correct input (must accept) and on a corrupted
// one (must reject). Returns the checks that misbehaved.
std::vector<std::string> SelfTestChecks();

// ---- transport -------------------------------------------------------------

// Counts the ring messages a client sends (one per transport call), so the
// manager's ring_messages_read can be checked against an independent count.
class CountingTransport final : public grd::guardian::ClientTransport {
 public:
  CountingTransport(grd::ipc::Channel* channel,
                    std::chrono::nanoseconds call_timeout)
      : inner_(channel, call_timeout) {}

  grd::Result<grd::ipc::Bytes> Call(const grd::ipc::Bytes& request) override {
    ++calls_;
    return inner_.Call(request);
  }
  std::uint64_t calls() const noexcept { return calls_; }

 private:
  grd::guardian::ChannelTransport inner_;
  std::uint64_t calls_ = 0;
};

// Every ring call is bounded, so a wedged manager fails the run with
// kDeadlineExceeded instead of hanging it.
inline constexpr std::chrono::seconds kCallTimeout{30};

// One tenant: a grdLib session over its own counted channel.
struct Tenant {
  std::unique_ptr<CountingTransport> transport;
  std::optional<grd::guardian::GrdLib> lib;

  grd::Status Connect(grd::ipc::Channel* channel,
                      std::uint64_t memory_requirement) {
    transport = std::make_unique<CountingTransport>(channel, kCallTimeout);
    auto connected =
        grd::guardian::GrdLib::Connect(transport.get(), memory_requirement);
    if (!connected.ok()) return connected.status();
    lib.emplace(std::move(*connected));
    return grd::OkStatus();
  }
  grd::guardian::GrdLib& operator*() { return *lib; }
  grd::guardian::GrdLib* operator->() { return &*lib; }
};

// Runs set_up(0) .. set_up(count - 1) each on its own thread, as the tenants
// later run in the timed window, and returns the first error. Set up one
// after another, each call of a lone tenant in a multi-channel pool waits
// out the pump's idle doorbell timeout, so set-up time followed the host's
// wake-up latency: serve's sequential set-up took 40% longer while two busy
// processes shared the VM, the concurrent one the same time.
template <typename F>
grd::Status SetUpConcurrently(std::size_t count, F&& set_up) {
  std::vector<grd::Status> status(count, grd::OkStatus());
  {
    std::vector<std::jthread> threads;
    for (std::size_t i = 0; i < count; ++i)
      threads.emplace_back([&, i] { status[i] = set_up(i); });
  }
  for (const grd::Status& s : status)
    if (!s.ok()) return s;
  return grd::OkStatus();
}

// ---- per-call timers (traced run only) ------------------------------------

enum class Op : std::uint8_t {
  kRegister,
  kModuleLoadHit,
  kModuleLoadMiss,
  kGetFunction,
  kMalloc,
  kFree,
  kH2dSmall,
  kH2dBatch,
  kLaunchSync,
  kD2hSmall,
  kStreamSync,
  kDisconnect,
};
inline constexpr std::size_t kOpCount = 12;
inline constexpr std::array<const char*, kOpCount> kOpNames = {
    "register", "module_load_hit", "module_load_miss", "get_function",
    "malloc",   "free",            "h2d_small",        "h2d_batch",
    "launch_sync", "d2h_small",    "stream_sync",      "disconnect"};

// Raw per-call latency samples of one client thread. Disabled (the
// untraced run), Time() is a plain call with no clock reads.
class OpTimes {
 public:
  explicit OpTimes(bool on) : on_(on) {}

  template <typename F>
  auto Time(Op op, F&& call) {
    if (!on_) return call();
    const Clock::time_point begin = Clock::now();
    auto result = call();
    samples_[static_cast<std::size_t>(op)].push_back(MicrosSince(begin));
    return result;
  }

  void Merge(const OpTimes& other) {
    for (std::size_t i = 0; i < kOpCount; ++i)
      samples_[i].insert(samples_[i].end(), other.samples_[i].begin(),
                         other.samples_[i].end());
  }
  const std::vector<double>& samples(Op op) const {
    return samples_[static_cast<std::size_t>(op)];
  }

 private:
  bool on_;
  std::array<std::vector<double>, kOpCount> samples_;
};

// ---- workloads and layer probes -------------------------------------------

RunResult RunServe(const Options& options, Clock::time_point process_start);
RunResult RunTrain(const Options& options, Clock::time_point process_start);
RunResult RunChurn(const Options& options, Clock::time_point process_start);

// Per-layer counts the workload's server kept (traced run).
void AddStatsCounts(const grd::guardian::ManagerStats& stats,
                    RunResult* result);

// Per-layer timings (traced run): `workload_ops` holds the per-call samples
// the workload itself took; calls it issued fewer than 100 times are taken
// from a probe tenant on a server of the same kind (`process_pool`).
void AddLayerMetrics(const OpTimes& workload_ops, bool process_pool,
                     RunResult* result);

// Shapes shared by the train workload and the layer probes.
inline constexpr std::uint32_t kTrainM = 128;  // batch rows
inline constexpr std::uint32_t kTrainK = 32;   // features
inline constexpr std::uint32_t kTrainN = 32;   // outputs
inline constexpr std::uint32_t kSgemmBlock = 128;

}  // namespace grdbench
