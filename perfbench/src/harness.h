// Shared plumbing of the repository benchmark: arguments, clocks and
// getrusage phases, the result line, the adapted deployment every workload
// starts from, the direct-inference answer checks, and the benchmark's own
// trace spans.
//
// Every workload runs in a fresh process:
//
//   set-up (data, LM pre-train into a run-private cache, model build)
//     -> phase `adapt`: InvGAN+KD (Algorithm 2) on the AB -> WA task
//     -> set-up (checkpoints of F' and the teacher F, service/fleet start)
//     -> the workload's serving phase(s)
//     -> answer checks against core::Predict, determinism fingerprint
//
// Untraced runs (--trace 0) report the end-to-end metrics; traced runs
// (--trace 1) run the same phases with benchmark spans around the calls
// into each layer, then replay the workload's inputs through each layer's
// public entry points, and report the per-layer metrics.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/match_types.h"
#include "util/status.h"

namespace perfbench {

using namespace dader;

/// \brief Command line of one run.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string workdir;       ///< run-private scratch (cache, checkpoints)
  std::string fingerprints;  ///< per-binary determinism records
};

/// \brief Parses --workload/--seed/--seconds/--trace/--workdir/
/// --fingerprints; false (with a message on stderr) on bad input.
bool ParseArgs(int argc, char** argv, Args* args);

/// \brief Steady-clock seconds since an arbitrary epoch.
double NowS();

/// \brief getrusage(RUSAGE_SELF) snapshot.
struct Usage {
  double wall_s = 0.0;
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minflt = 0;
  static Usage Now();
};

/// \brief Wall, CPU and minor faults spent between two snapshots.
struct PhaseUsage {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double sys_s = 0.0;
  int64_t minflt = 0;
};
PhaseUsage Between(const Usage& start, const Usage& end);

/// \brief Linear-interpolated quantile of `values` (q in [0,1]); 0 when
/// empty. Failed operations enter as +inf, so they miss any limit.
double Quantile(std::vector<double> values, double q);

/// \brief Splits `values` by `at` (seconds from the phase start) into
/// whole-second windows and returns the median over windows of each
/// window's q-quantile: a burst of load on the host moves one window, not
/// the result. Windows shorter than a second at the end are dropped.
double WindowedQuantile(const std::vector<double>& values,
                        const std::vector<double>& at, double q);

/// \brief ru_maxrss in MiB.
double PeakRssMb();

/// \brief Collects the metrics, operation counts and check failures of one
/// run, and prints the result line.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records an answer-check failure; the run then reports correct=false
  /// and exits non-zero.
  void Fail(const std::string& what);
  void Attempt(int64_t attempted, int64_t failed);
  bool correct() const { return failures_.empty(); }
  /// \brief Prints the metrics named in `names` (every one must have been
  /// recorded, or the run fails) as the final JSON line.
  void Print(const std::vector<std::string>& names);

 private:
  struct Value {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Value> metrics_;
  std::vector<std::string> failures_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

/// \brief The end-to-end metric names every untraced run prints.
const std::vector<std::string>& EndToEndMetrics();

/// \brief One per-layer metric: its unit, the end-to-end metric it should
/// move, and the workload where it is measured.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* moves;
  const char* workload;
};

/// \brief Every per-layer metric a traced run prints (those that do not
/// apply to the running workload print 0 and are marked n/a in the log).
const std::vector<LayerMetric>& LayerMetrics();

/// \brief Prints the per-layer table (value, unit, what it moves) to stdout.
void PrintLayerTable(const std::string& workload,
                     const std::map<std::string, double>& values);

/// \brief The adapted deployment: AB -> WA task, pre-trained LM teacher F,
/// matcher M, and the InvGAN+KD student F' (held by the trainer).
struct Deployment {
  core::ExperimentScale scale;
  core::DaTask task;
  core::DaModel teacher;
  std::unique_ptr<core::DaTrainer> trainer;
  core::TrainResult train;
  uint64_t model_seed = 0;
  double target_f1 = 0.0;
  int64_t train_pairs = 0;   ///< pairs the adapt phase processed
  double adapt_s = 0.0;      ///< adapt phase wall
  std::vector<double> epoch_end_s;  ///< NowS() at each EpochCallback
  double adapt_start_s = 0.0;
  PhaseUsage adapt_usage;
  std::string ckpt_adapted;  ///< (F', M)
  std::string ckpt_teacher;  ///< (F, M)
};

/// \brief Set-up part 1: generates the task and pre-trains the LM into
/// the run-private cache ($DADER_CACHE_DIR = args.workdir).
Result<std::unique_ptr<Deployment>> PrepareDeployment(const Args& args);

/// \brief Phase `adapt`: InvGAN+KD training, timed; then target_f1 on the
/// target test split (untimed).
Status Adapt(Deployment* deployment);

/// \brief Set-up part 2: writes the (F', M) and (F, M) checkpoints.
Status WriteCheckpoints(Deployment* deployment);

/// \brief A fresh model with the deployment's architecture, restored from
/// a SaveModules checkpoint.
Result<core::DaModel> LoadCheckpoint(const Deployment& deployment,
                                     const std::string& path);

/// \brief core::Predict over `pairs` with the weights of `path`, split over
/// `threads` threads (each with its own model copy; per-pair outputs do not
/// depend on batch composition, so the split does not change any bit).
Result<core::Prediction> DirectPredict(const Deployment& deployment,
                                       const std::string& path,
                                       const data::ERDataset& pairs,
                                       int threads);

/// \brief True when the response carries exactly the prob and label of
/// row `i` of `expected`.
bool SameAnswer(const serve::MatchResponse& response,
                const core::Prediction& expected, size_t i);

/// \brief Pairwise F1 of `labels` against `gold` (1 = match).
double PairF1(const std::vector<int>& labels, const std::vector<int>& gold);

/// \brief Compares this run's quality fingerprint with the one recorded for
/// the same binary, workload, seed and length; records it when absent.
void CheckFingerprint(const Args& args, const std::string& fingerprint,
                      Report* report);

/// \brief The deployment's fingerprint fields (target F1, guard verdict,
/// retries, rollbacks).
std::string AdaptFingerprint(const Deployment& deployment);

/// \brief Adds the adapt-phase end-to-end and proc metrics.
void ReportAdapt(const Deployment& deployment, Report* report,
                 std::map<std::string, double>* layer);

/// \brief proc.<phase>.* metrics of one timed phase over `pairs` pairs.
void ReportProc(const std::string& phase, const PhaseUsage& usage,
                int64_t pairs, std::map<std::string, double>* layer);

/// \brief The benchmark's own span collector (traced runs only).
obs::Tracer& BenchTracer();

/// \brief A span on BenchTracer() when tracing, else nothing.
class Span {
 public:
  Span(bool on, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::unique_ptr<obs::TraceSpan> span_;
};

/// \brief Self time (span minus its direct children) per layer over every
/// benchmark span, the layer being the span name's first dotted component.
std::map<std::string, double> SelfMsByLayer();

/// \brief Share of the first span named `phase_name` (a timed phase) that
/// none of its child spans covers.
double UncoveredShare(const char* phase_name);

/// \brief A registry histogram, or null when the program has not
/// registered it yet (looking it up never registers it).
obs::Histogram* FindHistogram(const std::string& name);
/// \brief Sum of a registry histogram's observations (0 when absent).
double HistogramSum(const std::string& name);
/// \brief Observation count of a registry histogram (0 when absent).
int64_t HistogramCount(const std::string& name);
/// \brief Median of a registry histogram (0 when absent or empty).
double HistogramP50(const std::string& name);
/// \brief Value of a registry counter (0 when absent).
int64_t CounterValue(const std::string& name);
/// \brief Sum of the tensor.gemm.ms histograms over every shape class.
double GemmMs();
/// \brief Sum of tensor.gemm.kernel.calls over every dispatch path.
int64_t GemmCalls();

}  // namespace perfbench
