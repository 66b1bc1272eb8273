#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "core/evaluator.h"
#include "core/guard.h"
#include "obs/metrics.h"

namespace perfbench {

namespace {

// The paper's best method (Finding 3) on the ROADMAP's headline direction:
// labeled source AB (noisy product views), unlabeled target WA (the corpus
// being deduplicated).
constexpr const char* kSource = "AB";
constexpr const char* kTarget = "WA";

bool ParseInt(const std::string& text, long long* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == nullptr || *end != '\0') return false;
  *out = v;
  return true;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    long long n = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseInt(value, &n) || n < 0) {
        std::fprintf(stderr, "--seed must be a non-negative integer\n");
        return false;
      }
      args->seed = static_cast<uint64_t>(n);
    } else if (flag == "--seconds") {
      if (!ParseInt(value, &n) || n < 1 || n > 60) {
        std::fprintf(stderr, "--seconds must be in [1, 60]\n");
        return false;
      }
      args->seconds = static_cast<int>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "--trace must be 0 or 1\n");
        return false;
      }
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--fingerprints") {
      args->fingerprints = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
  }
  if (args->workload.empty() || args->workdir.empty()) {
    std::fprintf(stderr, "--workload and --workdir are required\n");
    return false;
  }
  return true;
}

double NowS() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Usage Usage::Now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.wall_s = NowS();
  u.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
             static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  u.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  u.minflt = static_cast<int64_t>(ru.ru_minflt);
  return u;
}

PhaseUsage Between(const Usage& start, const Usage& end) {
  PhaseUsage p;
  p.wall_s = end.wall_s - start.wall_s;
  p.sys_s = end.sys_s - start.sys_s;
  p.cpu_s = (end.user_s - start.user_s) + p.sys_s;
  p.minflt = end.minflt - start.minflt;
  return p;
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(values.size() - 1, lo + 1);
  if (!std::isfinite(values[hi]) || !std::isfinite(values[lo])) {
    return values[hi];
  }
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double WindowedQuantile(const std::vector<double>& values,
                        const std::vector<double>& at, double q) {
  double span = 0.0;
  for (double t : at) span = std::max(span, t);
  const size_t windows = std::max<size_t>(1, static_cast<size_t>(span));
  std::vector<std::vector<double>> by_window(windows);
  for (size_t i = 0; i < values.size() && i < at.size(); ++i) {
    const size_t w = static_cast<size_t>(at[i]);
    if (w < windows) by_window[w].push_back(values[i]);
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : by_window) {
    if (!w.empty()) per_window.push_back(Quantile(w, q));
  }
  return Quantile(per_window, 0.5);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Result line

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Report::Fail(const std::string& what) {
  std::printf("ANSWER CHECK FAILED: %s\n", what.c_str());
  failures_.push_back(what);
}

void Report::Attempt(int64_t attempted, int64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

void Report::Print(const std::vector<std::string>& names) {
  std::string metrics;
  for (const std::string& name : names) {
    auto it = metrics_.find(name);
    if (it == metrics_.end() || !std::isfinite(it->second.value)) {
      Fail("metric " + name + " was not measured");
      continue;
    }
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " +
               JsonNumber(it->second.value) + ", \"unit\": \"" +
               it->second.unit + "\"}";
  }
  std::fflush(stdout);
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct() ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(attempted_, 1)),
              static_cast<long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

const std::vector<std::string>& EndToEndMetrics() {
  static const std::vector<std::string> kNames = {
      "setup_s",          "peak_rss_mb", "train_pairs_per_s", "target_f1",
      "throughput_per_s", "p50_ms",      "f1"};
  return kNames;
}

const std::vector<LayerMetric>& LayerMetrics() {
  // name, unit, end-to-end metric it should move, workload it is measured on
  static const std::vector<LayerMetric> kMetrics = {
      {"block.generate_ms", "ms", "throughput_per_s (records/s)", "dedup"},
      {"block.candidates", "count", "throughput_per_s, f1", "dedup"},
      {"block.candidate_recall", "ratio", "f1", "dedup"},
      {"block.cluster_ms", "ms", "throughput_per_s", "dedup"},
      {"text.encode_us_per_pair.b32", "us", "throughput_per_s, p50_ms", "all"},
      {"text.encode_us_per_pair.bmean", "us", "throughput_per_s, p50_ms", "all"},
      {"core.extract_us_per_pair.b32", "us", "throughput_per_s, p50_ms", "all"},
      {"core.extract_us_per_pair.bmean", "us", "throughput_per_s, p50_ms", "all"},
      {"core.match_us_per_pair.b32", "us", "throughput_per_s, p50_ms", "all"},
      {"core.match_us_per_pair.bmean", "us", "throughput_per_s, p50_ms", "all"},
      {"tensor.gemm_share", "ratio", "throughput_per_s", "all"},
      {"tensor.gemm_calls_per_pair", "count", "throughput_per_s", "all"},
      {"proc.serve.minflt_per_pair", "count", "throughput_per_s", "all"},
      {"proc.serve.sys_share", "ratio", "throughput_per_s", "all"},
      {"proc.serve.cpu_ms_per_pair", "ms", "throughput_per_s", "all"},
      {"proc.adapt.minflt_per_pair", "count", "train_pairs_per_s", "all"},
      {"proc.adapt.sys_share", "ratio", "train_pairs_per_s", "all"},
      {"proc.adapt.cpu_ms_per_pair", "ms", "train_pairs_per_s", "all"},
      {"serve.batch_size_mean", "pairs", "throughput_per_s, p50_ms", "all"},
      {"serve.queue_ms_p50", "ms", "p50_ms", "all"},
      {"serve.forward_ms_p50", "ms", "p50_ms, throughput_per_s", "all"},
      {"serve.cache_hit_ratio", "ratio", "throughput_per_s, p50_ms", "all"},
      {"serve.overhead_share", "ratio", "throughput_per_s", "dedup"},
      {"serve.reload_ms", "ms", "dist.reload_ms, fleet tail.p99_ms", "all"},
      {"core.epoch_ms", "ms", "train_pairs_per_s", "all"},
      {"core.train_fwd_ms", "ms", "train_pairs_per_s", "all"},
      {"core.aligner_ms", "ms", "train_pairs_per_s", "all"},
      {"tensor.backward_ms", "ms", "train_pairs_per_s", "all"},
      {"tensor.adam_step_ms", "ms", "train_pairs_per_s", "all"},
      {"core.eval_ms", "ms", "train_pairs_per_s", "all"},
      {"dist.wire_ms_p50", "ms", "p50_ms, throughput_per_s", "fleet"},
      {"dist.shed", "count", "fleet failures, tail.p99_ms", "fleet"},
      {"dist.rescued", "count", "fleet failures, tail.p99_ms", "fleet"},
      {"dist.reload_ms", "ms", "fleet tail.p99_ms, throughput_per_s", "fleet"},
      {"load.max_rps", "1/s", "none (host-sensitive knee, README)", "online"},
      {"load.late_ms_p99", "ms", "load.max_rps (step validity)", "online"},
      {"load.backlog", "count", "load.max_rps (step validity)", "online"},
      {"tail.p99_ms", "ms", "none (host-sensitive tail, README)", "all"},
      {"self_ms.block", "ms", "throughput_per_s", "dedup"},
      {"self_ms.serve", "ms", "throughput_per_s, p50_ms", "all"},
      {"self_ms.dist", "ms", "throughput_per_s, p50_ms", "fleet"},
      {"self_ms.core", "ms", "throughput_per_s, train_pairs_per_s", "all"},
      {"self_ms.text", "ms", "throughput_per_s", "all"},
      {"self_ms.tensor", "ms", "train_pairs_per_s", "all"},
      {"trace.uncovered_share.adapt", "ratio", "none (trace validity)", "all"},
      {"trace.uncovered_share.serve", "ratio", "none (trace validity)", "all"},
      {"trace.uncovered_share.replay", "ratio", "none (trace validity)", "all"},
      {"obs.trace_overhead_share", "ratio", "none (trace validity)", "all"},
  };
  return kMetrics;
}

void PrintLayerTable(const std::string& workload,
                     const std::map<std::string, double>& values) {
  std::printf("\n%-34s %14s %-6s %-8s %s\n", "per-layer metric", "value",
              "unit", "measured", "should move");
  for (const LayerMetric& m : LayerMetrics()) {
    auto it = values.find(m.name);
    if (it == values.end()) {
      std::printf("%-34s %14s %-6s %-8s %s\n", m.name, "n/a", m.unit,
                  m.workload, m.moves);
    } else {
      std::printf("%-34s %14.6g %-6s %-8s %s\n", m.name, it->second, m.unit,
                  m.workload, m.moves);
    }
  }
  std::printf("(n/a: not measured on workload %s; printed as 0)\n",
              workload.c_str());
}

// ---------------------------------------------------------------------------
// Deployment

Result<std::unique_ptr<Deployment>> PrepareDeployment(const Args& args) {
  // The pre-trained LM is cached in the run's own directory, so every run
  // pays the same cold pre-train and no two checkouts share a cache file.
  if (setenv("DADER_CACHE_DIR", args.workdir.c_str(), 1) != 0) {
    return Status::Internal("cannot set DADER_CACHE_DIR");
  }
  // The deployment is the same in every run: the repository's default
  // data seed and the benches' default model seed. At smoke scale the
  // adapted model's target F1 swings widely with the training seed (0.28 to
  // 0.71 over seeds 1-5), which is the paper's mean +/- std question
  // (bench_table*), not a serving cost; --seed varies the served traffic.
  auto d = std::make_unique<Deployment>();
  d->scale = core::SmokeScale();
  d->model_seed = 42;
  DADER_ASSIGN_OR_RETURN(d->task,
                         core::BuildDaTask(kSource, kTarget, d->scale));
  DADER_ASSIGN_OR_RETURN(
      d->teacher, core::BuildModel(core::ExtractorKind::kLM, d->scale,
                                   /*pretrained=*/true, d->model_seed));
  d->ckpt_adapted = args.workdir + "/adapted.bin";
  d->ckpt_teacher = args.workdir + "/teacher.bin";
  return d;
}

Status Adapt(Deployment* d) {
  core::DaderConfig config = d->scale.model;
  config.seed = d->model_seed;
  d->trainer = std::make_unique<core::DaTrainer>(
      core::AlignMethod::kInvGANKD, config, d->teacher.extractor.get(),
      d->teacher.matcher.get());
  d->epoch_end_s.clear();
  const Usage start = Usage::Now();
  d->adapt_start_s = start.wall_s;
  DADER_ASSIGN_OR_RETURN(
      d->train, d->trainer->Run(d->task.source, d->task.target_unlabeled,
                                d->task.target_valid, nullptr,
                                [d](const core::EpochStats&) {
                                  d->epoch_end_s.push_back(NowS());
                                }));
  d->adapt_usage = Between(start, Usage::Now());
  d->adapt_s = d->adapt_usage.wall_s;
  // Algorithm 2: source training of F and M (gan_pretrain_epochs over the
  // source), then one pass over source and target per adversarial epoch
  // (every attempt's epochs, retries included).
  const int64_t source = static_cast<int64_t>(d->task.source.size());
  const int64_t target = static_cast<int64_t>(d->task.target_unlabeled.size());
  const int64_t attempts = 1 + d->train.retries;
  d->train_pairs = attempts * source * config.gan_pretrain_epochs +
                   static_cast<int64_t>(d->epoch_end_s.size()) *
                       (source + target);
  Rng eval_rng(config.seed ^ 0x7e57ULL);
  d->target_f1 =
      core::Evaluate(d->trainer->final_extractor(), d->teacher.matcher.get(),
                     d->task.target_test, config.batch_size, &eval_rng)
          .F1();
  std::printf(
      "adapt: InvGAN+KD %s, %zu epochs, %lld pairs in %.3f s, target F1 "
      "%.4f (retries %d, rollbacks %d)\n",
      core::RunVerdictLabel(d->train), d->epoch_end_s.size(),
      static_cast<long long>(d->train_pairs), d->adapt_s, d->target_f1,
      d->train.retries, d->train.rollbacks);
  return Status::OK();
}

Status WriteCheckpoints(Deployment* d) {
  // The served extractor is the adapted student F' — never the teacher —
  // moved through the same checkpoint format a reload uses.
  DADER_RETURN_NOT_OK(core::SaveModules(
      d->ckpt_adapted, {{"F", d->trainer->final_extractor()},
                        {"M", d->teacher.matcher.get()}}));
  return core::SaveModules(d->ckpt_teacher,
                           {{"F", d->teacher.extractor.get()},
                            {"M", d->teacher.matcher.get()}});
}

Result<core::DaModel> LoadCheckpoint(const Deployment& d,
                                     const std::string& path) {
  core::DaderConfig config = d.scale.model;
  config.seed = d.model_seed;
  core::DaModel model;
  model.extractor =
      core::MakeExtractor(core::ExtractorKind::kLM, config, d.model_seed);
  model.matcher = std::make_unique<core::Matcher>(
      model.extractor->feature_dim(), d.model_seed ^ 0x3aULL);
  DADER_RETURN_NOT_OK(core::LoadModules(
      path, {{"F", model.extractor.get()}, {"M", model.matcher.get()}}));
  return model;
}

Result<core::Prediction> DirectPredict(const Deployment& d,
                                       const std::string& path,
                                       const data::ERDataset& pairs,
                                       int threads) {
  const size_t n = pairs.size();
  const size_t parts = std::max<size_t>(
      1, std::min<size_t>(static_cast<size_t>(threads), n / 64 + 1));
  std::vector<core::DaModel> models;
  for (size_t p = 0; p < parts; ++p) {
    DADER_ASSIGN_OR_RETURN(core::DaModel model, LoadCheckpoint(d, path));
    models.push_back(std::move(model));
  }
  std::vector<core::Prediction> partial(parts);
  std::vector<std::thread> workers;
  for (size_t p = 0; p < parts; ++p) {
    workers.emplace_back([&, p] {
      std::vector<size_t> rows;
      for (size_t i = n * p / parts; i < n * (p + 1) / parts; ++i) {
        rows.push_back(i);
      }
      const data::ERDataset slice = pairs.Subset(rows);
      Rng rng(0xc4ecULL + p);
      partial[p] = core::Predict(models[p].extractor.get(),
                                 models[p].matcher.get(), slice,
                                 /*batch_size=*/32, &rng);
    });
  }
  for (std::thread& t : workers) t.join();
  core::Prediction out;
  for (core::Prediction& p : partial) {
    out.labels.insert(out.labels.end(), p.labels.begin(), p.labels.end());
    out.probs.insert(out.probs.end(), p.probs.begin(), p.probs.end());
  }
  return out;
}

bool SameAnswer(const serve::MatchResponse& response,
                const core::Prediction& expected, size_t i) {
  return response.label == expected.labels[i] &&
         std::memcmp(&response.prob, &expected.probs[i], sizeof(float)) == 0;
}

double PairF1(const std::vector<int>& labels, const std::vector<int>& gold) {
  int64_t tp = 0, fp = 0, fn = 0;
  for (size_t i = 0; i < labels.size() && i < gold.size(); ++i) {
    if (labels[i] == 1 && gold[i] == 1) ++tp;
    if (labels[i] == 1 && gold[i] != 1) ++fp;
    if (labels[i] != 1 && gold[i] == 1) ++fn;
  }
  const double p = tp + fp > 0 ? static_cast<double>(tp) / (tp + fp) : 0.0;
  const double r = tp + fn > 0 ? static_cast<double>(tp) / (tp + fn) : 0.0;
  return p + r > 0 ? 2 * p * r / (p + r) : 0.0;
}

std::string AdaptFingerprint(const Deployment& d) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "target_f1=%.17g verdict=%s retries=%d rollbacks=%d "
                "epochs=%zu",
                d.target_f1, core::RunVerdictLabel(d.train), d.train.retries,
                d.train.rollbacks, d.epoch_end_s.size());
  return buf;
}

void CheckFingerprint(const Args& args, const std::string& fingerprint,
                      Report* report) {
  if (args.fingerprints.empty()) return;
  const std::string path = args.fingerprints + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-s" +
                           std::to_string(args.seconds) + ".txt";
  std::ifstream in(path);
  if (in) {
    std::stringstream recorded;
    recorded << in.rdbuf();
    if (recorded.str() != fingerprint + "\n") {
      report->Fail("quality differs from an earlier run at this seed: was [" +
                   recorded.str() + "] now [" + fingerprint + "]");
    }
    return;
  }
  const std::string tmp = path + ".tmp" + std::to_string(::getpid());
  std::ofstream out(tmp);
  out << fingerprint << "\n";
  out.close();
  if (!out || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::printf("note: could not record fingerprint at %s\n", path.c_str());
  }
}

void ReportAdapt(const Deployment& d, Report* report,
                 std::map<std::string, double>* layer) {
  // Epoch 1 also holds Algorithm 2's source-training step; the adversarial
  // epochs 2..n each pass once over source and target. The rate is taken
  // at the median epoch, so a burst of load on the host in one epoch does
  // not move it.
  std::vector<double> epoch_ms;
  for (size_t i = 1; i < d.epoch_end_s.size(); ++i) {
    epoch_ms.push_back((d.epoch_end_s[i] - d.epoch_end_s[i - 1]) * 1e3);
  }
  const double median_ms = Quantile(epoch_ms, 0.5);
  const double epoch_pairs = static_cast<double>(
      d.task.source.size() + d.task.target_unlabeled.size());
  report->Metric("train_pairs_per_s",
                 median_ms > 0 ? epoch_pairs / (median_ms * 1e-3) : 0.0,
                 "pairs/s");
  report->Metric("target_f1", d.target_f1, "ratio");
  ReportProc("adapt", d.adapt_usage, d.train_pairs, layer);
  (*layer)["core.epoch_ms"] = median_ms;
}

void ReportProc(const std::string& phase, const PhaseUsage& usage,
                int64_t pairs, std::map<std::string, double>* layer) {
  const double n = static_cast<double>(std::max<int64_t>(pairs, 1));
  (*layer)["proc." + phase + ".minflt_per_pair"] =
      static_cast<double>(usage.minflt) / n;
  (*layer)["proc." + phase + ".sys_share"] =
      usage.cpu_s > 0 ? usage.sys_s / usage.cpu_s : 0.0;
  (*layer)["proc." + phase + ".cpu_ms_per_pair"] = usage.cpu_s * 1e3 / n;
  std::printf(
      "proc %-6s: wall %.3f s, cpu %.3f s (sys %.1f%%), %lld minor faults "
      "over %lld pairs\n",
      phase.c_str(), usage.wall_s, usage.cpu_s,
      usage.cpu_s > 0 ? 100.0 * usage.sys_s / usage.cpu_s : 0.0,
      static_cast<long long>(usage.minflt), static_cast<long long>(pairs));
}

// ---------------------------------------------------------------------------
// Tracing

obs::Tracer& BenchTracer() {
  static obs::Tracer tracer(1 << 20);
  return tracer;
}

Span::Span(bool on, const char* name) {
  if (on) span_ = std::make_unique<obs::TraceSpan>(name, &BenchTracer());
}

Span::~Span() = default;

namespace {

std::string LayerOf(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot - name);
}

// Every span, each with the summed duration of its direct children (same
// thread, nested inside it, not inside another child).
struct Node {
  obs::SpanRecord span;
  uint64_t child_us = 0;
};

std::vector<Node> Nest() {
  std::vector<Node> nodes;
  for (const obs::SpanRecord& s : BenchTracer().Snapshot()) {
    nodes.push_back({s, 0});
  }
  std::sort(nodes.begin(), nodes.end(), [](const Node& x, const Node& y) {
    if (x.span.thread != y.span.thread) return x.span.thread < y.span.thread;
    if (x.span.start_us != y.span.start_us) {
      return x.span.start_us < y.span.start_us;
    }
    return x.span.end_us > y.span.end_us;
  });
  std::vector<size_t> stack;
  for (size_t i = 0; i < nodes.size(); ++i) {
    while (!stack.empty() &&
           (nodes[stack.back()].span.thread != nodes[i].span.thread ||
            nodes[stack.back()].span.end_us <= nodes[i].span.start_us)) {
      stack.pop_back();
    }
    if (!stack.empty()) {
      nodes[stack.back()].child_us +=
          nodes[i].span.end_us - nodes[i].span.start_us;
    }
    stack.push_back(i);
  }
  return nodes;
}

}  // namespace

std::map<std::string, double> SelfMsByLayer() {
  std::map<std::string, double> out;
  for (const Node& n : Nest()) {
    const std::string layer = LayerOf(n.span.name);
    if (layer == "phase") continue;
    const uint64_t dur = n.span.end_us - n.span.start_us;
    out[layer] += static_cast<double>(dur - std::min(dur, n.child_us)) / 1e3;
  }
  return out;
}

double UncoveredShare(const char* phase_name) {
  for (const Node& n : Nest()) {
    if (std::strcmp(n.span.name, phase_name) != 0) continue;
    const uint64_t dur = n.span.end_us - n.span.start_us;
    if (dur == 0) return 0.0;
    return static_cast<double>(dur - std::min(dur, n.child_us)) /
           static_cast<double>(dur);
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Registry reads

namespace {

bool Registered(const std::string& name) {
  const auto names = obs::MetricsRegistry::Default().Names();
  return std::binary_search(names.begin(), names.end(), name);
}

}  // namespace

obs::Histogram* FindHistogram(const std::string& name) {
  if (!Registered(name)) return nullptr;
  return obs::MetricsRegistry::Default().GetHistogram(name);
}

double HistogramSum(const std::string& name) {
  if (!Registered(name)) return 0.0;
  return obs::MetricsRegistry::Default().GetHistogram(name)->sum();
}

int64_t HistogramCount(const std::string& name) {
  if (!Registered(name)) return 0;
  return obs::MetricsRegistry::Default().GetHistogram(name)->count();
}

double HistogramP50(const std::string& name) {
  if (!Registered(name)) return 0.0;
  obs::Histogram* h = obs::MetricsRegistry::Default().GetHistogram(name);
  return h->count() > 0 ? h->Quantile(0.5) : 0.0;
}

int64_t CounterValue(const std::string& name) {
  if (!Registered(name)) return 0;
  return obs::MetricsRegistry::Default().GetCounter(name)->value();
}

double GemmMs() {
  double total = 0.0;
  for (const std::string& name : obs::MetricsRegistry::Default().Names()) {
    if (name.rfind("tensor.gemm.ms{", 0) == 0) total += HistogramSum(name);
  }
  return total;
}

int64_t GemmCalls() {
  int64_t total = 0;
  for (const std::string& name : obs::MetricsRegistry::Default().Names()) {
    if (name.rfind("tensor.gemm.kernel.calls{", 0) == 0) {
      total += CounterValue(name);
    }
  }
  return total;
}

}  // namespace perfbench
