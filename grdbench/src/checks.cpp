// The output checks that hold logic of their own, and their negative test:
// each must accept the correct input and reject the same input with one
// thing wrong.
#include "bench.hpp"
#include "kernels.hpp"

namespace grdbench {

std::vector<std::string> TotalsMismatches(
    const grd::guardian::ManagerStats& stats, const ClientTotals& clients) {
  std::vector<std::string> mismatches;
  const auto compare = [&](std::uint64_t server, std::uint64_t client,
                           const char* what) {
    if (server != client)
      mismatches.push_back(std::string(what) + " (server " +
                           std::to_string(server) + ", clients " +
                           std::to_string(client) + ")");
  };
  compare(stats.kernel_blocks_executed, clients.blocks,
          "kernel_blocks_executed != blocks launched");
  compare(stats.ring_messages_read, clients.ring_calls,
          "ring_messages_read != ring messages sent");
  compare(stats.ptx_cache_hits + stats.ptx_modules_patched,
          clients.module_loads, "cache hits + patches != module loads");
  return mismatches;
}

std::vector<std::string> SelfTestChecks() {
  std::vector<std::string> broken;
  const auto expect = [&](bool accepts_good, bool rejects_bad,
                          const char* what) {
    if (!accepts_good || !rejects_bad) broken.push_back(what);
  };

  // A result with one element changed: a train step's row sums.
  std::mt19937_64 rng = Rng(7, 7);
  const std::vector<float> a = SmallInts(rng, 8 * 4, -2, 2);
  const std::vector<float> b = SmallInts(rng, 4 * 3, -2, 2);
  const std::vector<float> bias = SmallInts(rng, 3, -2, 2);
  const std::vector<float> rows = StepRef(GemmRef(a, b, 8, 3, 4), bias, 8, 3);
  std::vector<float> one_off = rows;
  one_off[5] += 1.0f;
  expect(SameValues(rows, StepRef(GemmRef(a, b, 8, 3, 4), bias, 8, 3)),
         !SameValues(one_off, rows), "element comparison");

  // The same for integer outputs (batch kernels).
  std::vector<std::uint32_t> busy(64);
  for (std::uint32_t g = 0; g < busy.size(); ++g) busy[g] = BusyRef(11, g, 9);
  std::vector<std::uint32_t> busy_bad = busy;
  busy_bad[63] ^= 1u;
  expect(SameValues(busy, busy), !SameValues(busy_bad, busy),
         "integer element comparison");

  // A kernel-block total off by one, through the comparison the workloads
  // make against the server's stats.
  grd::guardian::ManagerStats stats;
  stats.kernel_blocks_executed = 4096;
  stats.ring_messages_read = 900;
  stats.ptx_cache_hits = 7;
  stats.ptx_modules_patched = 1;
  const ClientTotals sent{4096, 900, 8};
  const bool agrees = TotalsMismatches(stats, sent).empty();
  stats.kernel_blocks_executed = 4097;
  expect(agrees, TotalsMismatches(stats, sent).size() == 1, "server totals");

  // A canary with one word overwritten.
  std::vector<std::uint32_t> canary(256);
  for (std::uint32_t i = 0; i < canary.size(); ++i) canary[i] = CanaryWord(3, i);
  std::vector<std::uint32_t> hit = canary;
  hit[17] = 0xBADC0DEu;
  expect(CanaryIntact(canary, 3), !CanaryIntact(hit, 3), "canary");
  return broken;
}

}  // namespace grdbench
