#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "core/contrastive_loss.h"
#include "core/contratopic.h"
#include "core/subset_sampler.h"
#include "embed/word_embeddings.h"
#include "eval/metrics.h"
#include "eval/npmi.h"
#include "nn/optimizer.h"
#include "serve/checkpoint.h"
#include "serve/engine.h"
#include "tensor/autodiff.h"
#include "tensor/kernels.h"
#include "tensor/quant.h"
#include "text/corpus.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace contratopic {
namespace perfbench {
namespace {

using serve::InferenceEngine;
using tensor::ServePrecision;
using tensor::Tensor;

// Pool size of every timed phase. On a shared 4-vCPU host, phases whose
// compute fans out over a 2-thread pool drifted 30-40% between runs (see
// README.md), while 1-thread phases stayed within a few percent. With one
// worker, ParallelFor runs inline and the serving batcher's dispatcher is
// the single pool worker, so serving still uses one client thread plus one
// pool thread.
constexpr int kPoolThreads = 1;
// The thread count the bitwise thread-invariance check trains at, and the
// traced run's train_docs_per_s_2t.
constexpr int kParallelThreads = 2;
// Setup is repeated this many times per untraced run; setup_s is the
// median.
constexpr int kSetupRepeats = 3;
// Timed Train() trials per run, at least, rotating through kModelSeeds
// model initializations.
constexpr size_t kMinTrials = 6;
constexpr int kModelSeeds = 3;
// Every reported serving/inference metric aggregates at least this much
// timed work per run, in slices of at least kSliceSeconds.
constexpr double kMinPhaseSeconds = 1.0;
constexpr double kSliceSeconds = 0.1;
// p99 needs at least ten samples beyond it.
constexpr size_t kMinSingleSamples = 1000;
// Burst phase: waves of two default-sized batches through
// InferThetaAsync, on an engine with the default options (so the default
// LRU cache). These are synthetic choices, not measured traffic.
const int kWaveSize = 2 * InferenceEngine::Options().max_batch_size;
// Every document is sent twice, as in bench_serve's replay, so half the
// requests hit the cache. The second send comes this many fresh documents
// after the first: half the default cache, so it is still cached.
const int kRepeatLag = InferenceEngine::Options().cache_capacity / 2;
// Documented cross-precision theta bounds (DESIGN.md §15).
constexpr double kBf16Bound = 0.05;
constexpr double kInt8Bound = 0.15;
constexpr ServePrecision kPrecisions[] = {
    ServePrecision::kFp32, ServePrecision::kBf16, ServePrecision::kInt8};

// The paper's contrastive weight on 20NG.
constexpr float kLambda = 40.0f;

constexpr double kMiB = 1024.0 * 1024.0;

// Restricts the calling thread, and every thread it creates from now on,
// to `n` of the CPUs the process may use, starting at the `first`-th of
// them (cyclically), and recreates the global pool with `n` workers there.
// With one CPU, the hand-offs between the client thread and the pool
// worker stay on one core instead of waking an idle vCPU, whose wake-up
// latency on a shared host varies from run to run. The timed rounds move
// to the next CPU every round: on a shared host, how fast the same model
// call runs changes from one vCPU to another and over time (README.md), so
// a run samples every vCPU rather than one.
void UseCpus(int n, int first) {
  static const std::vector<int> allowed = [] {
    std::vector<int> cpus;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (CPU_ISSET(cpu, &set)) cpus.push_back(cpu);
      }
    }
    return cpus;
  }();
  if (!allowed.empty()) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int i = 0; i < n; ++i) {
      CPU_SET(allowed[(first + i) % allowed.size()], &set);
    }
    sched_setaffinity(0, sizeof(set), &set);
  }
  util::ThreadPool::SetGlobalNumThreads(n);
}

double PeakRssMiB() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool BitwiseEqual(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.numel() * sizeof(float)) == 0;
}

bool RowEquals(const Tensor& t, int64_t row, const std::vector<float>& v) {
  return static_cast<int64_t>(v.size()) == t.cols() &&
         std::memcmp(t.row(row), v.data(), v.size() * sizeof(float)) == 0;
}

double MaxAbsDiff(const Tensor& a, const Tensor& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return INFINITY;
  double worst = 0.0;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const double d = std::fabs(static_cast<double>(a.data()[i]) - b.data()[i]);
    if (!(d <= worst)) worst = d;  // NaN propagates as the worst case
  }
  return worst;
}

InferenceEngine::BowDoc ToBowDoc(const text::Document& doc) {
  InferenceEngine::BowDoc bow;
  bow.reserve(doc.entries.size());
  for (const auto& e : doc.entries) bow.emplace_back(e.word_id, e.count);
  return bow;
}

// Everything the program receives: the generated corpus, the reference-
// corpus word embeddings and the test-split NPMI used for evaluation.
struct Inputs {
  text::SyntheticDataset data;
  text::BowCorpus train;  // the Train() trials' documents
  embed::WordEmbeddings embeddings;
  std::unique_ptr<eval::NpmiMatrix> test_npmi;
};

std::unique_ptr<Inputs> BuildInputs(const WorkloadSpec& spec,
                                    SpanRecorder* trace) {
  auto in = std::make_unique<Inputs>();
  text::BowCorpus reference;
  {
    ScopedSpan span(trace, "text.generate");
    in->data = text::GenerateSynthetic(spec.corpus);
    reference =
        text::GenerateReferenceCorpus(spec.corpus, in->data.train.vocab());
  }
  const auto& docs = in->data.train.docs();
  size_t n = docs.size();
  if (spec.train_docs > 0) {
    n = std::min(n, static_cast<size_t>(spec.train_docs));
  }
  in->train = text::BowCorpus(
      in->data.train.vocab(),
      std::vector<text::Document>(docs.begin(), docs.begin() + n),
      in->data.train.label_names());
  {
    ScopedSpan span(trace, "embed.train");
    embed::EmbeddingConfig embed_config;
    embed_config.dimension = 48;
    in->embeddings = embed::WordEmbeddings::Train(reference, embed_config);
  }
  {
    ScopedSpan span(trace, "eval.npmi");
    in->test_npmi = std::make_unique<eval::NpmiMatrix>(
        eval::NpmiMatrix::Compute(in->data.test));
  }
  return in;
}

// ContraTopic with the workload's config; `model_seed` offsets the
// workload's training seed.
std::unique_ptr<core::ContraTopicModel> MakeModel(const WorkloadSpec& spec,
                                                  const Inputs& in,
                                                  int model_seed = 0) {
  core::ContraTopicOptions options;
  options.lambda = kLambda;
  topicmodel::TrainConfig config = spec.train;
  config.seed += static_cast<uint64_t>(model_seed);
  return core::MakeContraTopicEtm(config, in.embeddings, options);
}

// The outputs the thread-count contract pins: beta, test theta and loss.
struct TrainResult {
  Tensor beta;
  Tensor theta;
  double loss = 0.0;
};

bool SameResult(const TrainResult& a, const TrainResult& b) {
  return BitwiseEqual(a.beta, b.beta) && BitwiseEqual(a.theta, b.theta) &&
         std::memcmp(&a.loss, &b.loss, sizeof(double)) == 0;
}

// ---------------------------------------------------------------------------
// Serving fixture: the trained model checkpointed at every precision, the
// engines loaded from those files and offline models restored from them.

struct Served {
  std::vector<std::string> paths;  // one per kPrecisions entry
  std::vector<double> checkpoint_mib;
  std::vector<double> load_seconds;
  std::vector<std::unique_ptr<InferenceEngine>> engines;  // per precision
  std::unique_ptr<InferenceEngine> single;  // fp32, cache off
  std::unique_ptr<InferenceEngine> burst;   // fp32, default options
  std::vector<std::unique_ptr<topicmodel::NeuralTopicModel>> models;
  Tensor reference_theta;  // fp32 offline InferTheta of the test split
  std::vector<InferenceEngine::BowDoc> docs;

  ~Served() {
    engines.clear();
    single.reset();
    burst.reset();
    for (const std::string& path : paths) std::remove(path.c_str());
  }
};

std::unique_ptr<Served> ServeModel(core::ContraTopicModel& model,
                                   const Inputs& in, const RunOptions& options,
                                   const std::string& workload,
                                   SpanRecorder* trace, Report* report) {
  auto served = std::make_unique<Served>();
  const text::BowCorpus& test = in.data.test;
  for (const auto& doc : test.docs()) served->docs.push_back(ToBowDoc(doc));
  for (ServePrecision p : kPrecisions) {
    const std::string path =
        options.scratch_dir + "/" + workload + "-seed" +
        std::to_string(options.seed) + "-pid" + std::to_string(::getpid()) +
        "-" + tensor::ServePrecisionName(p) + ".ckpt";
    served->paths.push_back(path);
    util::Status status;
    {
      ScopedSpan span(trace, "serve.checkpoint");
      status = serve::SaveQuantizedCheckpoint(model, in.data.train.vocab(),
                                              path, p);
    }
    report->Check(status.ok(), "save checkpoint " + path);
    std::error_code ec;
    served->checkpoint_mib.push_back(
        static_cast<double>(std::filesystem::file_size(path, ec)) / kMiB);
  }
  auto load = [&](int i, InferenceEngine::Options engine_options)
      -> std::unique_ptr<InferenceEngine> {
    engine_options.precision = kPrecisions[i];
    auto engine = InferenceEngine::Load(served->paths[i], engine_options);
    report->Check(engine.ok(), "load " + served->paths[i]);
    return engine.ok() ? std::move(engine).value() : nullptr;
  };
  for (int i = 0; i < 3; ++i) {
    ScopedSpan span(trace, "serve.load");
    const double start = NowSeconds();
    served->engines.push_back(load(i, InferenceEngine::Options()));
    served->load_seconds.push_back(NowSeconds() - start);
  }
  InferenceEngine::Options single_options;
  single_options.cache_capacity = 0;
  served->single = load(0, single_options);
  served->burst = load(0, InferenceEngine::Options());

  for (const std::string& path : served->paths) {
    auto checkpoint = serve::ReadCheckpoint(path);
    report->Check(checkpoint.ok(), "read " + path);
    if (!checkpoint.ok()) return nullptr;
    auto restored = serve::RestoreModel(*checkpoint);
    report->Check(restored.ok(), "restore " + path);
    if (!restored.ok()) return nullptr;
    served->models.push_back(std::move(restored).value());
  }
  for (const auto& engine : served->engines) {
    if (engine == nullptr) return nullptr;
  }
  if (served->single == nullptr || served->burst == nullptr) return nullptr;

  // Round trip: the fp32 checkpoint infers bitwise like the trained model.
  served->reference_theta = served->models[0]->InferTheta(test);
  report->Check(BitwiseEqual(served->reference_theta, model.InferTheta(test)),
                "fp32 checkpoint round trip changed theta");
  // Checkpoint round trip of the top-word lists: every engine, whatever
  // its precision, answers TopicTopWords with the trained model's top-10.
  // The lists are stored from the fp32 beta before quantization, so this
  // does not test the quantized weights: after the short training, the
  // top-10 of the beta restored from a bf16 or int8 checkpoint differs
  // from the fp32 one in many topics.
  const Tensor beta = model.Beta();
  const std::vector<std::string>& vocab = in.data.train.vocab().words();
  for (int i = 0; i < 3; ++i) {
    int differing = 0;
    for (int64_t k = 0; k < beta.rows(); ++k) {
      std::vector<std::string> expected;
      for (int w : beta.TopKIndicesOfRow(k, 10)) expected.push_back(vocab[w]);
      auto words = served->engines[i]->TopicTopWords(static_cast<int>(k), 10);
      if (!words.ok() || *words != expected) ++differing;
    }
    report->Check(differing == 0,
                  std::to_string(differing) + " topics' top words differ in " +
                      "the " + tensor::ServePrecisionName(kPrecisions[i]) +
                      " checkpoint");
  }
  return served;
}

// One offline pass over the test split at precision index `i`, checked
// against the fp32 reference (bitwise for fp32, the documented L-inf bound
// otherwise).
void OfflinePass(Served& served, int i, const text::BowCorpus& test,
                 Report* report) {
  tensor::ScopedServePrecision precision(kPrecisions[i]);
  const Tensor theta = served.models[i]->InferTheta(test);
  if (i == 0) {
    report->Check(BitwiseEqual(theta, served.reference_theta),
                  "fp32 offline theta drifted");
  } else {
    const double bound = i == 1 ? kBf16Bound : kInt8Bound;
    report->Check(MaxAbsDiff(theta, served.reference_theta) <= bound,
                  std::string(tensor::ServePrecisionName(kPrecisions[i])) +
                      " theta outside its L-inf bound");
  }
}

// One closed-loop request from the single client; returns its latency in
// seconds. Checks the answer bitwise against offline fp32 InferTheta.
double SingleRequest(Served& served, int64_t doc, int64_t request_id,
                     SpanRecorder* trace, Report* report) {
  const double start = NowSeconds();
  std::optional<InferenceEngine::ThetaResult> answer;
  {
    ScopedSpan span(trace, "serve.request", request_id);
    answer = served.single->InferTheta(served.docs[doc]);
  }
  const InferenceEngine::ThetaResult& theta = *answer;
  const double latency = NowSeconds() - start;
  report->Check(theta.ok() && RowEquals(served.reference_theta, doc, *theta),
                "served theta differs from offline theta");
  return latency;
}

// Burst traffic: waves of kWaveSize requests in flight at once, which the
// batcher groups into batches as they arrive. Request j of the stream is a
// fresh document when j is even; the fresh documents walk the test split
// in order. When j is odd it repeats the fresh document sent kRepeatLag
// fresh documents earlier, which is still in the LRU cache. A fresh
// document was last sent a whole pass over the test split earlier, so it
// misses once the split holds more documents than the cache.
class BurstClient {
 public:
  explicit BurstClient(Served& served) : served_(served) {}

  // Sends one wave and waits for every answer; returns its seconds.
  double Wave(Report* report) {
    std::vector<int64_t> wave(kWaveSize);
    const int64_t n = static_cast<int64_t>(served_.docs.size());
    for (int i = 0; i < kWaveSize; ++i, ++next_) {
      const int64_t fresh = next_ / 2;
      const bool repeat = next_ % 2 == 1 && fresh >= kRepeatLag;
      wave[i] = (repeat ? fresh - kRepeatLag : fresh) % n;
    }
    struct Pending {
      std::mutex mu;
      std::condition_variable cv;
      int outstanding = kWaveSize;
      std::vector<std::optional<InferenceEngine::ThetaResult>> results;
    } pending;
    pending.results.resize(kWaveSize);
    const double start = NowSeconds();
    for (int i = 0; i < kWaveSize; ++i) {
      served_.burst->InferThetaAsync(
          served_.docs[wave[i]], [&pending, i](InferenceEngine::ThetaResult r) {
            std::lock_guard<std::mutex> lock(pending.mu);
            pending.results[i] = std::move(r);
            if (--pending.outstanding == 0) pending.cv.notify_all();
          });
    }
    {
      std::unique_lock<std::mutex> lock(pending.mu);
      pending.cv.wait(lock, [&pending] { return pending.outstanding == 0; });
    }
    const double seconds = NowSeconds() - start;
    int64_t failed = 0;
    for (int i = 0; i < kWaveSize; ++i) {
      const InferenceEngine::ThetaResult& r = *pending.results[i];
      if (!r.ok() || !RowEquals(served_.reference_theta, wave[i], *r)) {
        ++failed;
      }
    }
    report->Attempt(kWaveSize);
    report->Fail(failed, "burst requests failed or differ from offline theta");
    return seconds;
  }

 private:
  Served& served_;
  int64_t next_ = 0;  // position in the request stream
};

// ---------------------------------------------------------------------------
// Untraced run: end-to-end metrics.

struct Trial {
  std::unique_ptr<core::ContraTopicModel> model;
  TrainResult result;
  double seconds = 0.0;
};

// One Train() trial on a fresh model at `threads` pool threads, on CPUs
// from `first_cpu` on; the pool is back at kPoolThreads when it returns.
Trial TrainTrial(const WorkloadSpec& spec, const Inputs& in, int threads,
                 int first_cpu, Report* report, int model_seed = 0) {
  UseCpus(threads, first_cpu);
  Trial trial;
  trial.model = MakeModel(spec, in, model_seed);
  const double start = NowSeconds();
  const topicmodel::TrainStats stats = trial.model->Train(in.train);
  trial.seconds = NowSeconds() - start;
  report->Check(stats.status.ok() && !stats.interrupted,
                "Train() stopped early");
  trial.result = {trial.model->Beta(), trial.model->InferTheta(in.data.test),
                  stats.final_loss};
  UseCpus(kPoolThreads, first_cpu);
  return trial;
}

// Mean test NPMI of each topic's top-10 words, and the unique fraction of
// the top-25 words over all topics.
std::pair<double, double> TopicQuality(const Tensor& beta,
                                       const eval::NpmiMatrix& npmi) {
  const std::vector<double> coherence = eval::PerTopicCoherence(beta, npmi);
  double mean = 0.0;
  for (double c : coherence) mean += c / coherence.size();
  return {mean, eval::DiversityAtProportion(beta, coherence, 1.0)};
}

void RunUntraced(const WorkloadSpec& spec, const RunOptions& options,
                 Report* report) {
  UseCpus(kPoolThreads, 0);
  // Setup, repeated; the last instance's inputs are kept.
  std::vector<double> setup_seconds;
  std::unique_ptr<Inputs> in;
  for (int r = 0; r < kSetupRepeats; ++r) {
    in.reset();
    const double start = NowSeconds();
    in = BuildInputs(spec, nullptr);
    setup_seconds.push_back(NowSeconds() - start);
  }
  const text::BowCorpus& test = in->data.test;
  std::fprintf(stderr,
               "perfbench: %s seed %llu: V=%d, %d trial docs of %.1f tokens, "
               "%d test docs\n",
               spec.name.c_str(), static_cast<unsigned long long>(options.seed),
               in->train.vocab_size(), in->train.num_docs(),
               in->train.AverageDocLength(), test.num_docs());

  // Untimed warm-up pair. The 1-thread model is the bitwise reference for
  // every later trial, and the model that is checkpointed and served.
  const Trial reference = TrainTrial(spec, *in, 1, 0, report);
  report->Check(
      SameResult(TrainTrial(spec, *in, kParallelThreads, 0, report).result,
                 reference.result),
      "Train() at 2 threads is not bitwise identical to 1 thread");
  std::unique_ptr<Served> served =
      ServeModel(*reference.model, *in, options, spec.name, nullptr, report);
  if (served == nullptr) return;

  // Timed rounds. Each round moves to the next CPU and runs one 1-thread
  // Train() trial, then one slice each of the offline fp32/bf16/int8
  // passes, the single client and the burst client, so every metric
  // samples the whole run rather than one stretch of it. Each throughput
  // is its phase's total work over the phase's total time: rounds that
  // ran slower count by their share of the time, instead of deciding a
  // median when the host's speed is bimodal. The trials rotate through
  // kModelSeeds initializations: how much work a ContraTopic step does
  // depends on its candidate-word set, so one initialization alone makes
  // the run's figure depend on the seed.
  const double docs_per_trial =
      static_cast<double>(in->train.num_docs()) * spec.train.epochs;
  std::vector<double> docs_per_s;
  double train_seconds = 0.0;
  TrainResult seed_results[kModelSeeds];
  seed_results[0] = reference.result;
  double offline_docs[3] = {0, 0, 0};
  double phase_seconds[5] = {0, 0, 0, 0, 0};
  std::vector<double> latencies;
  int64_t waves = 0;
  double wave_seconds = 0.0;
  BurstClient burst(*served);
  int64_t single_cursor = 0;
  const double rounds_start = NowSeconds();
  for (int round = 0;; ++round) {
    const double min_phase =
        *std::min_element(std::begin(phase_seconds), std::end(phase_seconds));
    if (NowSeconds() - rounds_start >= options.seconds &&
        min_phase >= kMinPhaseSeconds &&
        docs_per_s.size() >= kMinTrials) {
      break;
    }
    const int model_seed = round % kModelSeeds;
    const Trial trial = TrainTrial(spec, *in, 1, round, report, model_seed);
    docs_per_s.push_back(docs_per_trial / trial.seconds);
    train_seconds += trial.seconds;
    if (round > 0 && round < kModelSeeds) {
      report->Attempt();  // the first trial of this initialization
      seed_results[model_seed] = trial.result;
    } else {
      report->Check(SameResult(trial.result, seed_results[model_seed]),
                    "repeated Train() is not bitwise identical");
    }
    // Slices sized so that training keeps its share of the round.
    const double slice =
        std::max(kSliceSeconds, trial.seconds * (1.0 - spec.train_share) /
                                    spec.train_share / 5.0);
    for (int i = 0; i < 3; ++i) {
      const double start = NowSeconds();
      int passes = 0;
      do {
        OfflinePass(*served, i, test, report);
        ++passes;
      } while (NowSeconds() - start < slice);
      phase_seconds[i] += NowSeconds() - start;
      offline_docs[i] += static_cast<double>(passes) * test.num_docs();
    }
    double start = NowSeconds();
    do {
      const int64_t doc = single_cursor++ % test.num_docs();
      latencies.push_back(SingleRequest(*served, doc, -1, nullptr, report));
    } while (NowSeconds() - start < slice);
    phase_seconds[3] += NowSeconds() - start;
    start = NowSeconds();
    do {
      wave_seconds += burst.Wave(report);
      ++waves;
    } while (NowSeconds() - start < slice);
    phase_seconds[4] += NowSeconds() - start;
  }
  const InferenceEngine::Stats single_stats = served->single->stats();
  const InferenceEngine::Stats burst_stats = served->burst->stats();
  report->Fail(single_stats.shed + burst_stats.shed, "shed requests");
  std::fprintf(stderr,
               "perfbench: burst client: %lld requests, %lld cache hits, "
               "%lld batches\n",
               static_cast<long long>(burst_stats.requests),
               static_cast<long long>(burst_stats.cache_hits),
               static_cast<long long>(burst_stats.batches));
  std::fprintf(stderr,
               "perfbench: %zu timed Train() trials, %zu single-client "
               "requests, %lld burst waves, %.2f s per serving phase\n",
               docs_per_s.size(), latencies.size(),
               static_cast<long long>(waves),
               *std::min_element(std::begin(phase_seconds),
                                 std::end(phase_seconds)));

  std::fprintf(stderr, "perfbench: Train() docs/s:");
  for (double v : docs_per_s) std::fprintf(stderr, " %.0f", v);
  std::fprintf(stderr, "\n");

  report->Add("setup_s", Median(setup_seconds), "s");
  report->Add("train_docs_per_s_1t",
              docs_per_trial * docs_per_s.size() / train_seconds, "docs/s");
  double diversity = 0.0;
  for (const TrainResult& result : seed_results) {
    diversity += TopicQuality(result.beta, *in->test_npmi).second / kModelSeeds;
  }
  report->Add("topic_diversity", diversity, "fraction");
  for (int i = 0; i < 3; ++i) {
    const std::string p = tensor::ServePrecisionName(kPrecisions[i]);
    report->Add("infer_" + p + "_docs_per_s",
                offline_docs[i] / phase_seconds[i], "docs/s");
  }
  report->Add("serve_p50_ms", Median(latencies) * 1e3, "ms");
  report->Add("serve_docs_per_s",
              static_cast<double>(waves) * kWaveSize / wave_seconds, "docs/s");
  report->Add("peak_rss_mb", PeakRssMiB(), "MiB");
}

// ---------------------------------------------------------------------------
// Traced run: per-layer metrics, measured outside-in around public calls.

// One training run replicated step by step from the public API, with a
// span around each layer's call. Mirrors NeuralTopicModel::Train's fixed-
// weighting step: batch, BuildBatch, Backward, ClipGradNorm + Adam::Step.
// The replica cannot advance the model's training progress, so lambda
// stays at its warm-up value of 0; the contrastive graph is still built
// and differentiated, so the work per step is the same.
struct TracedTrainStats {
  int steps = 0;
  double nnz = 0.0;
  double cells = 0.0;
};

TracedTrainStats TracedTrain(core::ContraTopicModel& model,
                             const WorkloadSpec& spec,
                             const text::BowCorpus& corpus,
                             SpanRecorder* trace) {
  TracedTrainStats stats;
  ScopedSpan root(trace, "train");
  {
    ScopedSpan span(trace, "core.prepare");
    model.Prepare(corpus);
  }
  model.SetTraining(true);
  nn::Adam adam(spec.train.learning_rate);
  text::BatchIterator batches(corpus.num_docs(), spec.train.batch_size,
                              model.rng());
  const int steps = spec.train.epochs * batches.batches_per_epoch();
  for (int s = 0; s < steps; ++s) {
    ScopedSpan step(trace, "train.step");
    topicmodel::Batch batch;
    {
      ScopedSpan span(trace, "text.batch");
      batch.indices = batches.Next();
      batch.counts = corpus.DenseBatch(batch.indices);
      batch.normalized = corpus.NormalizedBatch(batch.indices);
      batch.corpus = &corpus;
    }
    for (int d : batch.indices) stats.nnz += corpus.doc(d).NumUniqueWords();
    stats.cells += static_cast<double>(batch.counts.numel());
    topicmodel::NeuralTopicModel::BatchGraph graph;
    {
      ScopedSpan span(trace, "topicmodel.forward");
      graph = model.BuildBatch(batch);
      graph.loss.value();
      graph.beta.value();
    }
    {
      ScopedSpan span(trace, "tensor.backward");
      autodiff::Backward(graph.loss);
    }
    {
      ScopedSpan span(trace, "nn.optimizer");
      auto params = model.Parameters();
      nn::ClipGradNorm(params, spec.train.grad_clip);
      adam.Step(params);
      for (auto& p : params) p.var.ZeroGrad();
    }
  }
  stats.steps = steps;
  return stats;
}

// Median wall time of repeated calls of `fn` under span `name`, at least
// `min_calls` calls and `min_seconds` of work.
template <typename Fn>
double ProbeSeconds(SpanRecorder* trace, const std::string& name,
                    int min_calls, double min_seconds, Fn fn) {
  const double start = NowSeconds();
  for (int i = 0; i < min_calls || NowSeconds() - start < min_seconds; ++i) {
    ScopedSpan span(trace, name);
    fn();
  }
  return Median(trace->Durations(name));
}

Tensor RandomTensor(int64_t rows, int64_t cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.data()[i] = static_cast<float>(rng.Uniform() - 0.5);
  }
  return t;
}

void RunTraced(const WorkloadSpec& spec, const RunOptions& options,
               Report* report) {
  UseCpus(kPoolThreads, 0);
  SpanRecorder trace;
  std::unique_ptr<Inputs> in = BuildInputs(spec, &trace);
  const text::BowCorpus& train = in->train;
  const text::BowCorpus& test = in->data.test;
  const std::map<std::string, double> setup_self = trace.SelfSeconds();

  // Untraced Train() at 1 and 2 threads alternating with the traced
  // 1-thread replica; the first trained model is served below.
  std::vector<double> untraced_seconds;
  std::vector<double> parallel_docs_per_s;
  std::unique_ptr<core::ContraTopicModel> served_model;
  std::unique_ptr<core::ContraTopicModel> traced_model;
  TracedTrainStats traced;
  for (int r = 0; r < 2; ++r) {
    Trial trial = TrainTrial(spec, *in, 1, 0, report);
    untraced_seconds.push_back(trial.seconds);
    const Trial parallel = TrainTrial(spec, *in, kParallelThreads, 0, report);
    parallel_docs_per_s.push_back(train.num_docs() * spec.train.epochs /
                                  parallel.seconds);
    report->Check(SameResult(parallel.result, trial.result),
                  "Train() at 2 threads is not bitwise identical to 1 thread");
    if (served_model == nullptr) served_model = std::move(trial.model);
    traced_model = MakeModel(spec, *in);
    traced = TracedTrain(*traced_model, spec, train, &trace);
    report->Attempt();
  }
  const std::map<std::string, double> train_self = trace.SelfSeconds();
  auto self_of = [&](const std::string& name) {
    auto it = train_self.find(name);
    return it == train_self.end() ? 0.0 : it->second;
  };
  const double runs = 2.0;
  const double step_ms = 1e3 / (runs * traced.steps);
  const char* kTrainLayers[] = {"core.prepare", "text.batch",
                                "topicmodel.forward", "tensor.backward",
                                "nn.optimizer"};
  double layer_seconds = 0.0;
  for (const char* layer : kTrainLayers) layer_seconds += self_of(layer);
  const double untraced = Median(untraced_seconds);
  const double traced_total = Median(trace.Durations("train"));

  // Probes at this workload's shapes: the sampler and the contrastive loss
  // on the trained model's candidate words, and the three GEMMs of a step.
  const Tensor beta = served_model->Beta();
  const int64_t K = beta.rows();
  const int64_t V = beta.cols();
  std::vector<int> words;
  for (int64_t k = 0; k < K; ++k) {
    for (int w : beta.TopKIndicesOfRow(k, 64)) words.push_back(w);
  }
  std::sort(words.begin(), words.end());
  words.erase(std::unique(words.begin(), words.end()), words.end());
  Tensor beta_candidates(K, static_cast<int64_t>(words.size()));
  for (int64_t k = 0; k < K; ++k) {
    for (size_t c = 0; c < words.size(); ++c) {
      beta_candidates.row(k)[c] = beta.row(k)[words[c]];
    }
  }
  Tensor kernel = served_model->kernel()->SubMatrix(words);
  kernel.Apply([](float v) { return v > 0.0f ? v : 0.0f; });
  const core::ContraTopicOptions contra;
  util::Rng rng(options.seed);
  core::SubsetSample sample;
  const double sampler_s =
      ProbeSeconds(&trace, "core.sampler", 10, 0.2, [&] {
        autodiff::Var log_beta = autodiff::Log(
            autodiff::Var::Leaf(beta_candidates, true), 1e-20f);
        sample = core::SampleTopVWithoutReplacement(
            log_beta, contra.v, contra.tau_gumbel, rng);
        sample.v_hot.value();
      });
  const double contrastive_s =
      ProbeSeconds(&trace, "core.contrastive", 10, 0.2, [&] {
        core::TopicContrastiveLoss(sample.steps, kernel,
                                   core::ContrastVariant::kFull,
                                   contra.tau_contrast)
            .value();
      });
  const int64_t B = std::min<int64_t>(spec.train.batch_size, train.num_docs());
  const int64_t H = spec.train.encoder_hidden;
  const int64_t E = in->embeddings.vectors().cols();
  std::vector<int> first_batch(B);
  std::iota(first_batch.begin(), first_batch.end(), 0);
  const Tensor x = train.NormalizedBatch(first_batch);
  const Tensor w_enc = RandomTensor(V, H, rng);
  const Tensor topic_emb = RandomTensor(K, E, rng);
  const Tensor theta = tensor::SoftmaxRows(RandomTensor(B, K, rng));
  struct Gemm {
    const char* name;
    double flops;
    double seconds;
  } gemms[] = {
      {"tensor.gemm_encoder", 2.0 * B * V * H,
       ProbeSeconds(&trace, "tensor.gemm_encoder", 5, 0.2,
                    [&] { tensor::MatMulNew(x, false, w_enc, false); })},
      {"tensor.gemm_beta", 2.0 * K * E * V,
       ProbeSeconds(&trace, "tensor.gemm_beta", 5, 0.2, [&] {
         tensor::MatMulNew(topic_emb, false, in->embeddings.vectors(), true);
       })},
      {"tensor.gemm_recon", 2.0 * B * K * V,
       ProbeSeconds(&trace, "tensor.gemm_recon", 5, 0.2,
                    [&] { tensor::MatMulNew(theta, false, beta, false); })},
  };
  int64_t param_count = 0;
  for (const auto& p : traced_model->Parameters()) {
    param_count += p.var.value().numel();
  }

  // Serving, traced: each request's span and the span of the same
  // document's direct model call share the request id.
  const int64_t failed_before_serving = report->failed();
  std::unique_ptr<Served> served =
      ServeModel(*served_model, *in, options, spec.name, &trace, report);
  if (served == nullptr) return;
  std::vector<double> untraced_latency;
  std::vector<double> traced_latency;
  int64_t request_id = 0;
  // Untraced blocks alternate with traced ones; together they hold enough
  // samples for a p99 with ten beyond it.
  for (int block = 0; block < 4; ++block) {
    const double start = NowSeconds();
    const size_t target = untraced_latency.size() + kMinSingleSamples / 2;
    while (NowSeconds() - start < 0.25 ||
           (block % 2 == 0 && untraced_latency.size() < target)) {
      const int64_t doc = request_id % test.num_docs();
      if (block % 2 == 0) {
        untraced_latency.push_back(
            SingleRequest(*served, doc, request_id, nullptr, report));
      } else {
        traced_latency.push_back(
            SingleRequest(*served, doc, request_id, &trace, report));
        // The same document's model call, on the pool worker that runs
        // the engine's batches (the client waits, so the recorder is never
        // touched by two threads at once).
        const Tensor x = test.NormalizedBatch({static_cast<int>(doc)});
        util::ThreadPool& pool = util::ThreadPool::Global();
        pool.Schedule([&] {
          ScopedSpan span(&trace, "topicmodel.infer_call_b1", request_id);
          served->models[0]->InferThetaBatch(x);
        });
        pool.Wait();
      }
      ++request_id;
    }
  }
  int64_t int8_doc = 0;
  const double b1_int8_s =
      ProbeSeconds(&trace, "topicmodel.infer_call_b1_int8", 50, 0.2, [&] {
        tensor::ScopedServePrecision precision(ServePrecision::kInt8);
        served->models[2]->InferThetaBatch(test.NormalizedBatch(
            {static_cast<int>(int8_doc++ % test.num_docs())}));
      });
  std::vector<int> batch256(std::min(256, test.num_docs()));
  std::iota(batch256.begin(), batch256.end(), 0);
  const Tensor x256 = test.NormalizedBatch(batch256);
  const double b256_s = ProbeSeconds(
      &trace, "topicmodel.infer_call_b256", 5, 0.2,
      [&] { served->models[0]->InferThetaBatch(x256); });
  const double b1_s = Median(trace.Durations("topicmodel.infer_call_b1"));
  BurstClient burst(*served);
  {
    const double start = NowSeconds();
    while (NowSeconds() - start < 0.5) {
      ScopedSpan span(&trace, "serve.burst_wave");
      burst.Wave(report);
    }
  }
  const InferenceEngine::Stats stats = served->burst->stats();
  const InferenceEngine::Stats single_stats = served->single->stats();
  const int64_t model_rows = stats.requests - stats.cache_hits;
  const double overhead_ms = (Median(traced_latency) - b1_s) * 1e3;

  const std::string dump = options.scratch_dir + "/trace-" + spec.name +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  report->Check(trace.WriteJsonl(dump), "write " + dump);

  report->Add("topic_npmi",
              TopicQuality(served_model->Beta(), *in->test_npmi).first,
              "NPMI");
  report->Add("text.generate_s", setup_self.at("text.generate"), "s");
  report->Add("embed.train_s", setup_self.at("embed.train"), "s");
  report->Add("eval.npmi_s", setup_self.at("eval.npmi"), "s");
  report->Add("eval.npmi_mb", in->test_npmi->MemoryBytes() / kMiB, "MiB");
  report->Add("core.prepare_s", self_of("core.prepare") / runs, "s");
  report->Add("text.batch_ms", self_of("text.batch") * step_ms, "ms");
  report->Add("text.batch_density", traced.nnz / traced.cells, "fraction");
  report->Add("text.batch_bytes", 2.0 * sizeof(float) * traced.cells /
                                      traced.steps, "bytes");
  report->Add("topicmodel.forward_ms", self_of("topicmodel.forward") * step_ms,
              "ms");
  report->Add("tensor.backward_ms", self_of("tensor.backward") * step_ms, "ms");
  report->Add("nn.optimizer_ms", self_of("nn.optimizer") * step_ms, "ms");
  report->Add("nn.param_count", static_cast<double>(param_count), "count");
  report->Add("core.sampler_ms", sampler_s * 1e3, "ms");
  report->Add("core.contrastive_ms", contrastive_s * 1e3, "ms");
  for (const Gemm& g : gemms) {
    report->Add(std::string(g.name) + "_ms", g.seconds * 1e3, "ms");
    report->Add(std::string(g.name) + "_gflops", g.flops / g.seconds / 1e9,
                "GFLOP/s");
  }
  report->Add("trace.train_untraced_s", untraced, "s");
  report->Add("train_docs_per_s_2t", Median(parallel_docs_per_s), "docs/s");
  report->Add("trace.train_coverage", layer_seconds / runs / untraced,
              "fraction");
  report->Add("trace.train_overhead_ms",
              (traced_total - untraced) * 1e3 / traced.steps, "ms");
  report->Add("topicmodel.infer_call_ms_b1", b1_s * 1e3, "ms");
  report->Add("topicmodel.infer_call_ms_b1_int8", b1_int8_s * 1e3, "ms");
  report->Add("topicmodel.infer_call_ms_b256", b256_s * 1e3, "ms");
  for (int i = 0; i < 3; ++i) {
    const std::string p = tensor::ServePrecisionName(kPrecisions[i]);
    report->Add("serve.load_s_" + p, served->load_seconds[i], "s");
    report->Add("serve.checkpoint_mb_" + p, served->checkpoint_mib[i], "MiB");
  }
  report->Add("serve.batches", static_cast<double>(stats.batches), "count");
  report->Add("serve.mean_batch_size",
              stats.batches > 0
                  ? static_cast<double>(model_rows) / stats.batches
                  : 0.0,
              "count");
  report->Add("serve.cache_hit_frac",
              stats.requests > 0
                  ? static_cast<double>(stats.cache_hits) / stats.requests
                  : 0.0,
              "fraction");
  const int64_t shed = stats.shed + single_stats.shed;
  report->Fail(shed, "shed requests");
  report->Add("serve.failed",
              static_cast<double>(report->failed() - failed_before_serving),
              "count");
  report->Add("serve.shed", static_cast<double>(shed), "count");
  report->Add("serve.single_samples",
              static_cast<double>(untraced_latency.size()), "count");
  report->Add("serve.request_p50_ms", Median(untraced_latency) * 1e3, "ms");
  report->Add("serve_p99_ms", Quantile(untraced_latency, 0.99) * 1e3, "ms");
  report->Add("serve.overhead_ms", overhead_ms, "ms");
  report->Add("trace.serve_coverage", b1_s / Median(untraced_latency),
              "fraction");
  report->Add("trace.serve_overhead_ms",
              (Median(traced_latency) - Median(untraced_latency)) * 1e3, "ms");
}

}  // namespace

bool LookupWorkload(const std::string& name, uint64_t seed,
                    WorkloadSpec* spec) {
  spec->name = name;
  spec->train.encoder_hidden = 96;
  spec->train.encoder_layers = 2;
  spec->train.batch_size = 256;
  spec->train.epochs = 1;
  if (name == "train-wide-vocab") {
    text::SyntheticConfig& c = spec->corpus;
    c.name = "wide-vocab-sim";
    c.num_themes = 40;
    c.words_per_theme = 70;
    c.num_background_words = 700;
    c.num_docs = 3000;
    c.avg_doc_length = 100.0;
    spec->train.num_topics = 20;
    spec->train_docs = 1024;
    spec->train_share = 0.6;
  } else if (name == "train-many-topics") {
    spec->corpus = text::Preset20NG(0.75);
    spec->train.num_topics = 100;
    spec->train_docs = 512;
    spec->train_share = 0.7;
  } else if (name == "serve-mix") {
    spec->corpus = text::Preset20NG(0.75);
    spec->train.num_topics = 20;
    spec->train_share = 0.3;
  } else {
    return false;
  }
  spec->corpus.seed = 1000003ull * seed + 17;
  spec->train.seed = 7919ull * seed + 7;
  return true;
}

void RunWorkload(const WorkloadSpec& spec, const RunOptions& options,
                 Report* report) {
  std::error_code ec;
  std::filesystem::create_directories(options.scratch_dir, ec);
  if (options.trace) {
    RunTraced(spec, options, report);
  } else {
    RunUntraced(spec, options, report);
  }
}

}  // namespace perfbench
}  // namespace contratopic
