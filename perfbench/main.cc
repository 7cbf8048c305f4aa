// End-to-end benchmark entry point (see README.md):
//
//   ct_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                [--scratch <dir>]
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "ct_perfbench: %s\nusage: ct_perfbench --workload <name> "
               "--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace contratopic::perfbench;
  std::string workload;
  long long seed = -1;
  long seconds = 0;
  int trace = -1;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoll(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtol(value, nullptr, 10);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--scratch") {
      options.scratch_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (seed < 0 || seconds < 1 || (trace != 0 && trace != 1)) {
    return Usage("--seed >= 0, --seconds >= 1 and --trace 0|1 are required");
  }
  WorkloadSpec spec;
  if (!LookupWorkload(workload, static_cast<uint64_t>(seed), &spec)) {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = trace == 1;
  options.seed = static_cast<uint64_t>(seed);

  Report report;
  RunWorkload(spec, options, &report);
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
