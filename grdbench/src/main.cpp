// grdbench: end-to-end benchmark of the Guardian reproduction.
//
//   grdbench --workload serve|train|churn --seed N --seconds S --trace 0|1
//
// Prints context lines, then as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when an
// output check or a call fails, 2 when the arguments are bad.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using namespace grdbench;

bool ParseArgs(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed") {
      options->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      options->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options->seconds > 0)) return false;
    } else if (flag == "--trace") {
      if (std::string(value) != "0" && std::string(value) != "1") return false;
      options->trace = std::string(value) == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !options->workload.empty();
}

void PrintJson(const RunResult& result, bool correct, bool trace) {
  const auto& metrics = trace ? result.per_layer : result.end_to_end;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value : 0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Clock::time_point process_start = Clock::now();
  Options options;
  if (!ParseArgs(argc, argv, &options)) {
    std::fprintf(stderr,
                 "usage: grdbench --workload serve|train|churn --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }
  // A check that cannot fail proves nothing: every run first shows that
  // each output check rejects a corrupted input.
  for (const std::string& broken : SelfTestChecks()) {
    std::fprintf(stderr, "grdbench: output check self-test failed: %s\n",
                 broken.c_str());
    return 1;
  }

  RunResult result;
  try {
    if (options.workload == "serve") {
      result = RunServe(options, process_start);
    } else if (options.workload == "train") {
      result = RunTrain(options, process_start);
    } else if (options.workload == "churn") {
      result = RunChurn(options, process_start);
    } else {
      std::fprintf(stderr, "grdbench: unknown workload '%s'\n",
                   options.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grdbench: %s\n", e.what());
    return 1;
  }

  for (const std::string& note : result.notes) std::printf("%s\n", note.c_str());
  const auto& shown = options.trace ? result.per_layer : result.end_to_end;
  for (const Metric& m : shown)
    std::printf("  %-32s %14.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  for (const std::string& failure : result.failures)
    std::fprintf(stderr, "grdbench: CHECK FAILED: %s\n", failure.c_str());
  // A failed call stops its tenant early, so its figures would come from a
  // truncated sample set: that run is not a valid measurement either.
  const bool correct =
      result.failures.empty() && result.failed == 0 && result.attempted > 0;
  PrintJson(result, correct, options.trace);
  std::fflush(stdout);
  return correct ? 0 : 1;
}
