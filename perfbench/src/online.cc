// `online`: single-pair requests arriving on a seeded Poisson schedule (an
// open loop: independent users who do not wait for each other) into an
// in-process 2-shard ShardedMatchService with the default ServeConfig and
// the feature cache on.
//
// Segments, each on a freshly started service (a service instance's
// speed depends on how the allocator serves its threads, see README.md);
// every schedule is drawn before timing:
//   rounds 1-8  warm-up: the hot set once each at 2000 req/s (fills the
//               cache; answers still checked), then --seconds / 10 at
//               1000 req/s: p50_ms and tail.p99_ms, timed from each
//               request's due time (~1000 samples a round, so ten lie
//               beyond its p99), reported as the median over rounds; then
//               two capacity windows of ~500 x --seconds fresh mix requests
//               each, split by home shard, through a closed loop per shard
//               with 48 in flight, one shard after the other: OK responses
//               per second summed over the shards, median over windows, is
//               throughput_per_s (round 1 first runs one untimed window)
//   ladder      traced runs only: the same warm-up, then rates
//               1500 req/s x 1.2^k, --seconds * 0.03 each, until a rate
//               misses p99 <= 20 ms, fails a request, leaves a backlog or
//               runs the generator late three times in a row (a failing
//               step is retried with a fresh draw), or --seconds have
//               passed; load.max_rps is interpolated between the last
//               passing step and the confirming failure, and latency past
//               the knee is never reported.
//
// Busy threads: the generator (this thread), one collector and one batcher
// per shard = 4; in a capacity window, this thread and one batcher.
// Latency = (submit - due) + the service's own admission -> response time,
// so the collector's lateness never enters it.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "obs/metrics.h"
#include "serve/sharded_service.h"
#include "serve/stream_submit.h"
#include "workloads.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Request mix (shared with `fleet`)

namespace {

constexpr size_t kHotPairs = 2048;  // ~1024 per shard, cache holds 4096
constexpr int64_t kMixEntities = 3000;

uint64_t PairBits(size_t a, size_t b) {
  return (static_cast<uint64_t>(a) << 32) | static_cast<uint64_t>(b);
}

}  // namespace

Result<RequestMix> RequestMix::Create(uint64_t seed) {
  RequestMix mix;
  DADER_ASSIGN_OR_RETURN(
      mix.tables_, data::GenerateTables("WA", kMixEntities, 0x0a11ULL + seed));
  for (const auto& [a, b] : mix.tables_.gold_matches) {
    mix.gold_.push_back(PairBits(a, b));
  }
  std::sort(mix.gold_.begin(), mix.gold_.end());
  mix.pairs_ = data::ERDataset("mix", "WA", mix.tables_.a.schema(),
                               mix.tables_.b.schema());
  mix.rng_ = Rng(0x313ULL ^ (seed * 0x9e3779b97f4a7c15ULL));
  for (size_t i = 0; i < kHotPairs; ++i) mix.AddPair(/*may_match=*/true);
  mix.hot_ = kHotPairs;
  return mix;
}

size_t RequestMix::AddPair(bool may_match) {
  size_t a = 0, b = 0;
  if (may_match && rng_.NextDouble() < 0.5) {
    const auto& g = tables_.gold_matches[rng_.NextBelow(
        tables_.gold_matches.size())];
    a = g.first;
    b = g.second;
  } else {
    a = rng_.NextBelow(tables_.a.size());
    b = rng_.NextBelow(tables_.b.size());
  }
  const int label =
      std::binary_search(gold_.begin(), gold_.end(), PairBits(a, b)) ? 1 : 0;
  pairs_.AddPair({tables_.a.row(a), tables_.b.row(b), label});
  return pairs_.size() - 1;
}

// Fresh pairs are random (a, b) combinations: ~10M of them, so the cold
// half practically never repeats and never hits the cache. Gold matches
// live in the hot set only, where repeats are the point.
size_t RequestMix::Next() {
  if (rng_.NextDouble() < 0.5) return rng_.NextBelow(hot_);
  return AddPair(/*may_match=*/false);
}

serve::MatchRequest RequestMix::Request(size_t i) const {
  serve::MatchRequest request;
  request.a = pairs_.pair(i).a;
  request.b = pairs_.pair(i).b;
  return request;
}

std::vector<int> RequestMix::GoldLabels() const {
  std::vector<int> labels;
  for (const data::LabeledPair& p : pairs_.pairs()) labels.push_back(p.label);
  return labels;
}

// ---------------------------------------------------------------------------
// Open-loop generator

namespace {

constexpr double kNominalRate = 1000.0;
constexpr double kLimitMs = 20.0;
constexpr int kRounds = 8;
constexpr double kFillRate = 2000.0;
constexpr size_t kCapacityWindow = 96;  // 48 per shard < 64 queue slots
constexpr int kCapacityWindows = 2;     // per round
constexpr double kLadderStart = 1500.0;
constexpr double kLadderFactor = 1.2;
constexpr int kLadderSteps = 20;

struct Step {
  std::string name;
  double rate = 0.0;
  bool ran = false;
  std::vector<double> offset_s;  // due time from the step start
  std::vector<size_t> pair;
  std::vector<serve::MatchRequest> requests;
  // outcome
  std::vector<serve::MatchResponse> responses;
  std::vector<double> latency_ms;  // +inf for failed requests
  std::vector<double> late_ms;
  int64_t backlog = 0;
  PhaseUsage usage;
  serve::ServeStats before, after;
  double batch_sum = 0.0;
  int64_t batch_count = 0;
};

// Poisson arrivals at `rate`; each request's pair drawn from `mix`. With
// `fill`, the pairs are instead the hot set once each, in order: the
// warm-up that puts the hot set into the cache.
Step Schedule(const std::string& name, double rate, double seconds,
              RequestMix* mix, Rng* arrivals, bool fill = false) {
  Step step;
  step.name = name;
  step.rate = rate;
  double t = 0.0;
  for (size_t i = 0;; ++i) {
    t += -std::log(1.0 - arrivals->NextDouble()) / rate;
    if (fill ? i >= mix->hot() : t >= seconds) break;
    step.offset_s.push_back(t);
    step.pair.push_back(fill ? i : mix->Next());
  }
  step.responses.resize(step.pair.size());
  step.latency_ms.assign(step.pair.size(), 0.0);
  step.late_ms.assign(step.pair.size(), 0.0);
  return step;
}

std::chrono::steady_clock::time_point AsTimePoint(double s) {
  return std::chrono::steady_clock::time_point(
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(s)));
}

// Resolves response futures in submission order on its own thread.
class Collector {
 public:
  struct Item {
    Step* step;
    size_t index;
    double due;
    double submitted;
    std::future<serve::MatchResponse> future;
  };

  Collector() : thread_([this] { Loop(); }) {}
  ~Collector() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  void Push(Item item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      items_.push_back(std::move(item));
      ++pending_;
    }
    cv_.notify_all();
  }

  void WaitIdle() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return pending_ == 0; });
  }

 private:
  void Loop() {
    for (;;) {
      Item item;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return closed_ || !items_.empty(); });
        if (items_.empty()) return;
        item = std::move(items_.front());
        items_.pop_front();
      }
      serve::MatchResponse response = item.future.get();
      Step& s = *item.step;
      s.late_ms[item.index] = (item.submitted - item.due) * 1e3;
      s.latency_ms[item.index] =
          response.status.ok()
              ? s.late_ms[item.index] + response.total_ms
              : std::numeric_limits<double>::infinity();
      s.responses[item.index] = std::move(response);
      {
        std::lock_guard<std::mutex> lock(mu_);
        --pending_;
      }
      idle_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Item> items_;
  int64_t pending_ = 0;
  bool closed_ = false;
  std::thread thread_;  // last: starts after the members it uses
};

void RunStep(Step* step, const RequestMix& mix,
             serve::ShardedMatchService* service, Collector* collector,
             bool trace) {
  collector->WaitIdle();
  // The schedule was drawn in set-up; the request objects of one step are
  // built here, untimed, so only one step's worth is held at a time.
  for (size_t p : step->pair) step->requests.push_back(mix.Request(p));
  step->before = service->stats();
  const double batch_sum0 = HistogramSum("serve.batch.size");
  const int64_t batch_count0 = HistogramCount("serve.batch.size");
  const Usage start = Usage::Now();
  const double t0 = start.wall_s + 0.001;
  for (size_t i = 0; i < step->requests.size(); ++i) {
    const double due = t0 + step->offset_s[i];
    {
      Span span(trace, "load.wait");
      std::this_thread::sleep_until(AsTimePoint(due));
    }
    const double submitted = NowS();
    std::future<serve::MatchResponse> future;
    {
      Span span(trace, "serve.submit");
      future = service->SubmitAsync(std::move(step->requests[i]));
    }
    collector->Push({step, i, due, submitted, std::move(future)});
  }
  const serve::ServeStats at_end = service->stats();
  step->backlog = at_end.admitted - at_end.completed - at_end.deadline_expired;
  collector->WaitIdle();
  step->usage = Between(start, Usage::Now());
  step->after = service->stats();
  step->batch_sum = HistogramSum("serve.batch.size") - batch_sum0;
  step->batch_count = HistogramCount("serve.batch.size") - batch_count0;
  step->requests = {};
  step->ran = true;
}

// Capacity window: the step's requests, split by home shard, through a
// closed loop per shard that keeps kCapacityWindow / shards requests in
// flight (serve::StreamSubmitter), one shard after the other. Returns OK
// responses per second summed over the shards: the service's capacity when
// each shard's batcher has a core of its own. Run at once, the two busy
// batcher threads are at times left on one vCPU by the host's scheduler
// for a second or more (thousands of involuntary context switches each,
// three vCPUs idle), which halves the wall rate of such a window at random
// (README.md).
double RunCapacity(Step* step, const RequestMix& mix,
                   serve::ShardedMatchService* service, bool trace) {
  const size_t shards = static_cast<size_t>(service->num_shards());
  std::vector<std::vector<size_t>> rows(shards);
  std::vector<std::vector<serve::MatchRequest>> requests(shards);
  for (size_t i = 0; i < step->pair.size(); ++i) {
    serve::MatchRequest request = mix.Request(step->pair[i]);
    const size_t s = static_cast<size_t>(service->ShardFor(request));
    rows[s].push_back(i);
    requests[s].push_back(std::move(request));
  }
  serve::StreamSubmitter::Options options;
  options.max_in_flight = kCapacityWindow / shards;
  double rate = 0.0;
  int64_t ok = 0;
  const Usage start = Usage::Now();
  for (size_t s = 0; s < shards; ++s) {
    const int64_t ok0 = ok;
    const double t0 = NowS();
    {
      serve::StreamSubmitter submitter(
          service, options,
          [&](size_t i, const serve::MatchRequest&,
              const serve::MatchResponse& response) {
            if (response.status.ok()) ++ok;
            step->responses[rows[s][i]] = response;
          });
      for (serve::MatchRequest& request : requests[s]) {
        Span span(trace, "serve.submit");
        submitter.Submit(std::move(request));
      }
      submitter.Drain();
    }
    rate += static_cast<double>(ok - ok0) / (NowS() - t0);
  }
  step->usage = Between(start, Usage::Now());
  step->ran = true;
  std::printf("%-9s closed loop, %zu in flight, shard by shard: %6zu sent, "
              "%4lld failed, %.1f req/s\n",
              step->name.c_str(), options.max_in_flight,
              step->responses.size(),
              static_cast<long long>(
                  static_cast<int64_t>(step->responses.size()) - ok),
              rate);
  return rate;
}

struct StepVerdict {
  int64_t failed = 0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  double late_p99 = 0.0;
  bool pass = false;
};

StepVerdict Judge(const Step& step) {
  StepVerdict v;
  for (const serve::MatchResponse& r : step.responses) {
    if (!r.status.ok()) ++v.failed;
  }
  v.p50 = Quantile(step.latency_ms, 0.50);
  v.p90 = Quantile(step.latency_ms, 0.90);
  v.p99 = Quantile(step.latency_ms, 0.99);
  v.late_p99 = Quantile(step.late_ms, 0.99);
  const double backlog_limit = std::max(16.0, step.rate * kLimitMs * 1e-3);
  // A generator running late by half the latency budget, or a backlog of
  // more than the budget's worth of arrivals, makes the step invalid.
  v.pass = v.failed == 0 && v.p99 <= kLimitMs &&
           static_cast<double>(step.backlog) <= backlog_limit &&
           v.late_p99 <= kLimitMs / 2;
  std::printf(
      "%-9s %7.0f req/s: %6zu sent, %4lld failed, p50 %7.3f ms, p90 %7.3f "
      "ms, p99 %8.3f ms, late p99 %6.3f ms, backlog %4lld -> %s\n",
      step.name.c_str(), step.rate, step.responses.size(),
      static_cast<long long>(v.failed), v.p50, v.p90, v.p99, v.late_p99,
      static_cast<long long>(step.backlog), v.pass ? "pass" : "FAIL");
  return v;
}

}  // namespace

Status RunOnlineWorkload(const Args& args, Deployment* d, double setup_s,
                         Report* report, LayerValues* layer) {
  // --- set-up: request mix and every schedule, checkpoints ---
  const double setup_start = NowS();
  DADER_ASSIGN_OR_RETURN(RequestMix mix, RequestMix::Create(args.seed));
  Rng arrivals(0xa771ULL + args.seed * 31);
  // Segments, each on its own freshly started service and each opened by
  // the cache-fill warm-up: kRounds rounds of a nominal window and then a
  // capacity window, and in traced runs the ladder, whose steps are drawn
  // just before each runs (untimed), so rates past the knee never allocate
  // pairs.
  const size_t ladder_segment = kRounds;
  std::vector<std::vector<Step>> segments(ladder_segment +
                                          (args.trace ? 1 : 0));
  for (size_t g = 0; g < segments.size(); ++g) {
    segments[g].push_back(Schedule("warm-up", kFillRate, 0.0, &mix, &arrivals,
                                   /*fill=*/true));
    if (g < ladder_segment) {
      segments[g].push_back(Schedule("nominal", kNominalRate,
                                     0.1 * args.seconds, &mix, &arrivals));
      // Only the pairs matter here: the capacity window is a closed loop.
      // The process's first full batches grow its heap, and its first
      // capacity window ran 20-90% below the next one in most runs, so
      // round 1 opens with one more window, run and checked but not timed.
      const int windows = kCapacityWindows + (g == 0 ? 1 : 0);
      for (int w = 0; w < windows; ++w) {
        segments[g].push_back(Schedule(w < windows - kCapacityWindows
                                           ? "cap-warm"
                                           : "capacity",
                                       10000.0, 0.05 * args.seconds, &mix,
                                       &arrivals));
      }
    }
  }
  DADER_RETURN_NOT_OK(WriteCheckpoints(d));
  serve::ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.shard.feature_cache_capacity = 4096;
  serve_config.shard.seed = args.seed;
  setup_s += NowS() - setup_start;

  // --- timed phases ---
  std::vector<std::vector<StepVerdict>> verdicts(segments.size());
  // Indices in the ladder segment: the last passing step (0 = its warm-up)
  // and the step that confirmed the knee (kNoKnee when none failed thrice).
  constexpr size_t kNoKnee = ~size_t{0};
  std::vector<double> goodput;  // capacity windows, OK responses/s
  size_t lo = 0;
  size_t knee = kNoKnee;
  for (size_t g = 0; g < segments.size(); ++g) {
    verdicts[g].resize(segments[g].size());
    const double service_start = NowS();
    DADER_ASSIGN_OR_RETURN(core::DaModel served,
                           LoadCheckpoint(*d, d->ckpt_adapted));
    DADER_ASSIGN_OR_RETURN(
        std::unique_ptr<serve::ShardedMatchService> service,
        serve::ShardedMatchService::Create(serve_config,
                                           mix.pairs().schema_a(),
                                           mix.pairs().schema_b(),
                                           std::move(served)));
    setup_s += NowS() - service_start;
    {
      Collector collector;
      Span phase(args.trace, "phase.serve");
      std::vector<Step>& steps = segments[g];
      auto run = [&](size_t s) {
        RunStep(&steps[s], mix, service.get(), &collector, args.trace);
        verdicts[g][s] = Judge(steps[s]);
        return verdicts[g][s].pass;
      };
      if (g < ladder_segment) {
        run(0);
        run(1);
        for (size_t s = 2; s < steps.size(); ++s) {
          const double rate = RunCapacity(&steps[s], mix, service.get(),
                                          args.trace);
          if (steps[s].name == "capacity") goodput.push_back(rate);
        }
      } else {
        // Each ladder rate gets up to three independently drawn steps: a
        // step that fails is run again at the same rate, and only three
        // failures in a row mark the knee, so transient stalls of the
        // host's vCPUs cannot. The ladder also stops after --seconds.
        run(0);
        const double ladder_start = NowS();
        double rate = kLadderStart;
        for (int k = 0; k < kLadderSteps && knee == kNoKnee; ++k) {
          if (NowS() - ladder_start > args.seconds) break;
          for (int attempt = 0; attempt < 3; ++attempt) {
            steps.push_back(Schedule(attempt == 0 ? "ladder" : "retry", rate,
                                     0.03 * args.seconds, &mix, &arrivals));
            verdicts[g].resize(steps.size());
            if (run(steps.size() - 1)) {
              lo = steps.size() - 1;
              break;
            }
            if (attempt == 2) knee = steps.size() - 1;
          }
          rate *= kLadderFactor;
        }
      }
    }
    service->Stop();
  }
  report->Metric("setup_s", setup_s, "s");
  // Peak RSS of the program's set-up and serving, before the answer
  // checks copy the pairs and load their own models.
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");

  std::vector<double> round_p50, round_p99;
  size_t nominal_samples = 0;
  for (int r = 0; r < kRounds; ++r) {
    round_p50.push_back(verdicts[r][1].p50);
    round_p99.push_back(verdicts[r][1].p99);
    nominal_samples += segments[r][1].responses.size();
  }
  const double p50 = Quantile(round_p50, 0.5);
  const double p99 = Quantile(round_p99, 0.5);
  std::printf(
      "nominal latency: medians over %d rounds (%zu samples at %.0f req/s): "
      "p50 %.3f ms, p99 %.3f ms\n",
      kRounds, nominal_samples, kNominalRate, p50, p99);
  report->Metric("p50_ms", p50, "ms");
  (*layer)["tail.p99_ms"] = p99;

  const double capacity = Quantile(goodput, 0.5);
  std::printf("capacity %.1f req/s (median of %zu windows)\n", capacity,
              goodput.size());
  report->Metric("throughput_per_s", capacity, "1/s");
  // --- failure accounting: every round's warm-up, nominal window and
  // capacity windows (48 in flight per shard against 64 queue slots, so
  // none is shed by design). The ladder drives the service into overload
  // on purpose; its refusals are the measurement, and are logged per step
  // above.
  for (int r = 0; r < kRounds; ++r) {
    for (const Step& step : segments[r]) {
      int64_t failed = 0;
      for (const serve::MatchResponse& response : step.responses) {
        if (!response.status.ok()) ++failed;
      }
      report->Attempt(static_cast<int64_t>(step.responses.size()), failed);
    }
  }

  // --- answer check: every OK response equals core::Predict bit for bit,
  // over the distinct pairs that were sent.
  // Pairs to predict: every OK response's, and all warm-up and nominal
  // pairs (f1).
  std::vector<size_t> sent;
  for (size_t g = 0; g < segments.size(); ++g) {
    for (const Step& step : segments[g]) {
      if (!step.ran) continue;
      for (size_t i = 0; i < step.pair.size(); ++i) {
        if (step.name == "warm-up" || step.name == "nominal" ||
            step.responses[i].status.ok()) {
          sent.push_back(step.pair[i]);
        }
      }
    }
  }
  std::sort(sent.begin(), sent.end());
  sent.erase(std::unique(sent.begin(), sent.end()), sent.end());
  DADER_ASSIGN_OR_RETURN(
      core::Prediction expected,
      DirectPredict(*d, d->ckpt_adapted, mix.pairs().Subset(sent), 4));
  auto row_of = [&sent](size_t pair) {
    return static_cast<size_t>(
        std::lower_bound(sent.begin(), sent.end(), pair) - sent.begin());
  };
  int64_t checked = 0, mismatched = 0;
  for (const std::vector<Step>& segment : segments) {
    for (const Step& step : segment) {
      if (!step.ran) continue;
      for (size_t i = 0; i < step.responses.size(); ++i) {
        if (!step.responses[i].status.ok()) continue;
        ++checked;
        if (!SameAnswer(step.responses[i], expected, row_of(step.pair[i]))) {
          ++mismatched;
        }
      }
    }
  }
  std::printf("answer check: %lld OK responses, %lld mismatches\n",
              static_cast<long long>(checked),
              static_cast<long long>(mismatched));
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " online answers differ from core::Predict");
  }
  // Served labels (verified equal to core::Predict above) against gold over
  // the warm-up and nominal pairs, the part of the schedule every run sends.
  std::vector<size_t> quality_pairs;
  for (int r = 0; r < kRounds; ++r) {
    for (size_t s = 0; s < 2; ++s) {
      quality_pairs.insert(quality_pairs.end(), segments[r][s].pair.begin(),
                           segments[r][s].pair.end());
    }
  }
  std::sort(quality_pairs.begin(), quality_pairs.end());
  quality_pairs.erase(std::unique(quality_pairs.begin(), quality_pairs.end()),
                      quality_pairs.end());
  std::vector<int> labels, gold;
  const std::vector<int> all_gold = mix.GoldLabels();
  for (size_t p : quality_pairs) {
    labels.push_back(expected.labels[row_of(p)]);
    gold.push_back(all_gold[p]);
  }
  const double f1 = PairF1(labels, gold);
  report->Metric("f1", f1, "ratio");
  char quality[64];
  std::snprintf(quality, sizeof(quality), " f1=%.17g", f1);
  CheckFingerprint(args, AdaptFingerprint(*d) + quality, report);
  if (!args.trace) return Status::OK();

  // --- traced run: per-layer values (nominal windows of every round) ---
  PhaseUsage usage;
  double batch_sum = 0.0;
  int64_t batch_count = 0;
  double hits = 0.0, misses = 0.0, late = 0.0;
  std::vector<double> queue_ms;
  for (int r = 0; r < kRounds; ++r) {
    const Step& nominal = segments[r][1];
    usage.wall_s += nominal.usage.wall_s;
    usage.cpu_s += nominal.usage.cpu_s;
    usage.sys_s += nominal.usage.sys_s;
    usage.minflt += nominal.usage.minflt;
    batch_sum += nominal.batch_sum;
    batch_count += nominal.batch_count;
    hits += static_cast<double>(nominal.after.cache_hits -
                                nominal.before.cache_hits);
    misses += static_cast<double>(nominal.after.cache_misses -
                                  nominal.before.cache_misses);
    late = std::max(late, verdicts[r][1].late_p99);
    for (const serve::MatchResponse& resp : nominal.responses) {
      if (resp.status.ok()) queue_ms.push_back(resp.queue_ms);
    }
  }
  ReportProc("serve", usage, static_cast<int64_t>(nominal_samples), layer);
  const double mean_batch =
      batch_count > 0 ? batch_sum / static_cast<double>(batch_count) : 1.0;
  (*layer)["serve.batch_size_mean"] = mean_batch;
  (*layer)["serve.queue_ms_p50"] = Quantile(queue_ms, 0.5);
  (*layer)["serve.forward_ms_p50"] = HistogramP50("serve.latency.forward_ms");
  (*layer)["serve.cache_hit_ratio"] =
      hits + misses > 0 ? hits / (hits + misses) : 0.0;
  (*layer)["load.late_ms_p99"] = late;

  // max_rps: log-rate interpolation of where p99 crosses the limit between
  // the last passing step and the confirming failure (a failing step whose
  // p99 is within the limit failed on errors/backlog/lateness; its p99 is
  // then taken as twice the limit, as is any p99 beyond that).
  const std::vector<Step>& ladder = segments[ladder_segment];
  const std::vector<StepVerdict>& lv = verdicts[ladder_segment];
  double max_rps = ladder[lo].rate;
  if (knee != kNoKnee) {
    const double p_lo = lv[lo].p99;
    double p_hi = lv[knee].p99;
    if (!(p_hi > kLimitMs) || p_hi > 2 * kLimitMs) p_hi = 2 * kLimitMs;
    const double frac =
        std::clamp((kLimitMs - p_lo) / std::max(p_hi - p_lo, 1e-9), 0.0, 1.0);
    max_rps = ladder[lo].rate * std::pow(ladder[knee].rate / ladder[lo].rate,
                                         frac);
  } else {
    std::printf("note: ladder top reached without a failing step\n");
  }
  std::printf("max_rps %.1f req/s\n", max_rps);
  (*layer)["load.max_rps"] = max_rps;
  int64_t backlog = 0;
  for (size_t s = 0; s <= lo; ++s) {
    if (ladder[s].ran && lv[s].pass) backlog = std::max(backlog, ladder[s].backlog);
  }
  (*layer)["load.backlog"] = static_cast<double>(backlog);

  const std::vector<size_t>& nominal_pairs = segments[0][1].pair;
  std::vector<size_t> rows(
      nominal_pairs.begin(),
      nominal_pairs.begin() + std::min<size_t>(nominal_pairs.size(), 1024));
  return ReplayLayers(*d, mix.pairs().Subset(rows), mean_batch, layer);
}

}  // namespace perfbench
