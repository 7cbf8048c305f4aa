#ifndef CONTRATOPIC_PERFBENCH_WORKLOADS_H_
#define CONTRATOPIC_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads (see README.md for why each exists and what it
// predicts). Every workload runs the same pipeline -- build inputs, train
// ContraTopic at 1 and 2 pool threads, checkpoint and load the trained
// model at fp32/bf16/int8, then interleave offline inference with closed-
// loop serving -- and differs in its corpus, its topic count and how the
// run's seconds are split between training and serving.

#include <cstdint>
#include <string>

#include "bench_util.h"
#include "text/synthetic.h"
#include "topicmodel/topic_model.h"

namespace contratopic {
namespace perfbench {

struct WorkloadSpec {
  std::string name;
  text::SyntheticConfig corpus;
  topicmodel::TrainConfig train;
  // Documents per Train() trial: the first `train_docs` of the training
  // split (0 = all of it). The vocabulary is the full split's either way.
  int train_docs = 0;
  // Share of --seconds spent on Train() trials; the rest goes to the
  // interleaved inference and serving rounds.
  double train_share = 0.5;
};

// Returns false for an unknown workload name.
bool LookupWorkload(const std::string& name, uint64_t seed,
                    WorkloadSpec* spec);

struct RunOptions {
  double seconds = 10.0;
  bool trace = false;
  uint64_t seed = 1;
  // Directory for checkpoints and the span dump (created if missing).
  std::string scratch_dir = ".bench_build/scratch";
};

// Untraced run: fills the end-to-end metrics. Traced run: fills the
// per-layer metrics. Both count correctness checks into `report`.
void RunWorkload(const WorkloadSpec& spec, const RunOptions& options,
                 Report* report);

}  // namespace perfbench
}  // namespace contratopic

#endif  // CONTRATOPIC_PERFBENCH_WORKLOADS_H_
