// `fleet`: two client threads, each a closed loop (the next call only after
// the previous answer), call dist::Coordinator::Match over loopback TCP
// against 2 in-process WorkerNodes (default ServeConfig, feature cache on)
// with `online`'s request mix. During each stream, two RollingReloads move
// the fleet from the adapted checkpoint (F', M) to the teacher (F, M) and
// back, both written in set-up: writes beside reads.
//
// It is the only workload that crosses the wire and the router. Synchronous
// callers never fill a batch, so the 1 ms batch linger sets the latency
// floor. Busy threads: 2 clients + 1 batcher per worker = 4; the RPC
// connection threads block on their sockets and the heartbeat thread wakes
// every 25 ms.
//
// The stream runs in four rounds, each on a freshly started fleet (a
// service instance's speed depends on how the allocator serves its
// threads, see README.md): a warm-up that sends the hot set once through
// the pipelined MatchBatch (connections up, hot set in the caches; untimed,
// answers still checked), then --seconds / 4 of calls.
// requests/s, p50 and p99 are medians over rounds.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <thread>

#include "dist/coordinator.h"
#include "dist/worker.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kClients = 2;
constexpr int kWorkers = 2;
constexpr int kRounds = 4;
constexpr int kReloadsPerRound = 2;

struct Call {
  size_t pair = 0;
  double start = 0.0;
  double end = 0.0;
  serve::MatchResponse response;
};

struct Reload {
  double start = 0.0;
  double end = 0.0;
  bool ok = false;
  int from = 0;  // checkpoint live before (0 = adapted, 1 = teacher)
  int to = 0;    // checkpoint live after, when ok
};

struct Round {
  std::vector<Call> warm_calls;
  std::vector<std::vector<Call>> calls =
      std::vector<std::vector<Call>>(kClients);
  std::vector<Reload> reloads;
  PhaseUsage usage;
  int64_t shed = 0;
  int64_t rescued = 0;
  int64_t cache_hits = 0;
  int64_t cache_misses = 0;
  double batch_sum = 0.0;
  int64_t batch_count = 0;
};

// Runs the clients until `stop` is set; calls land in per-client vectors.
void RunClients(dist::Coordinator* coordinator, const RequestMix& mix,
                const std::vector<std::vector<size_t>>& plans,
                std::vector<std::vector<Call>>* calls,
                std::atomic<bool>* stop, bool trace) {
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const std::vector<size_t>& plan = plans[c];
      std::vector<Call>& out = (*calls)[c];
      for (size_t i = 0; !stop->load(std::memory_order_relaxed); ++i) {
        Call call;
        call.pair = plan[i % plan.size()];
        serve::MatchRequest request = mix.Request(call.pair);
        call.start = NowS();
        {
          Span span(trace, "dist.match");
          call.response = coordinator->Match(std::move(request));
        }
        call.end = NowS();
        out.push_back(std::move(call));
      }
    });
  }
  for (std::thread& t : clients) t.join();
}

void Sleep(double seconds) {
  std::this_thread::sleep_for(
      std::chrono::duration<double>(std::max(0.0, seconds)));
}

// One round: start a fleet (set-up), warm up, stream with reloads.
Status RunRound(const Args& args, const Deployment& d, const RequestMix& mix,
                const std::vector<std::vector<size_t>>& plans,
                double* setup_s, Round* round) {
  const double setup_start = NowS();
  std::vector<std::unique_ptr<dist::WorkerNode>> workers;
  std::vector<int> ports;
  for (int w = 0; w < kWorkers; ++w) {
    DADER_ASSIGN_OR_RETURN(core::DaModel served,
                           LoadCheckpoint(d, d.ckpt_adapted));
    dist::WorkerNodeConfig config;
    config.node_id = w;
    config.serve.feature_cache_capacity = 4096;
    config.serve.seed = args.seed;
    DADER_ASSIGN_OR_RETURN(
        std::unique_ptr<dist::WorkerNode> worker,
        dist::WorkerNode::Create(config, mix.pairs().schema_a(),
                                 mix.pairs().schema_b(), std::move(served)));
    DADER_RETURN_NOT_OK(worker->Start(0));
    ports.push_back(worker->port());
    workers.push_back(std::move(worker));
  }
  dist::Coordinator coordinator(dist::CoordinatorConfig{}, ports);
  coordinator.Start();
  *setup_s += NowS() - setup_start;

  // Warm-up: the hot set once each through the pipelined MatchBatch,
  // which fills both workers' caches in a fraction of a second.
  {
    std::vector<serve::MatchRequest> requests;
    for (size_t p = 0; p < mix.hot(); ++p) requests.push_back(mix.Request(p));
    Call call;
    call.start = NowS();
    std::vector<serve::MatchResponse> responses =
        coordinator.MatchBatch(std::move(requests));
    call.end = NowS();
    for (size_t p = 0; p < responses.size(); ++p) {
      call.pair = p;
      call.response = std::move(responses[p]);
      round->warm_calls.push_back(call);
    }
  }

  const double length = args.seconds / static_cast<double>(kRounds);
  const double batch_sum0 = HistogramSum("serve.batch.size");
  const int64_t batch_count0 = HistogramCount("serve.batch.size");
  const Usage start = Usage::Now();
  {
    Span phase(args.trace, "phase.serve");
    std::atomic<bool> stop{false};
    std::thread driver([&] {
      RunClients(&coordinator, mix, plans, &round->calls, &stop, args.trace);
    });
    int live = 0;
    for (int r = 0; r < kReloadsPerRound; ++r) {
      {
        Span wait(args.trace, "load.wait");
        Sleep(start.wall_s + length * (r + 1.0) / (kReloadsPerRound + 1) -
              NowS());
      }
      Reload reload;
      reload.from = live;
      reload.to = 1 - live;
      reload.start = NowS();
      {
        Span span(args.trace, "dist.reload");
        reload.ok = coordinator
                        .RollingReload(reload.to == 1 ? d.ckpt_teacher
                                                      : d.ckpt_adapted)
                        .ok();
      }
      reload.end = NowS();
      if (reload.ok) live = reload.to;
      round->reloads.push_back(reload);
    }
    {
      Span wait(args.trace, "load.wait");
      Sleep(start.wall_s + length - NowS());
    }
    stop = true;
    driver.join();
  }
  round->usage = Between(start, Usage::Now());
  round->batch_sum = HistogramSum("serve.batch.size") - batch_sum0;
  round->batch_count = HistogramCount("serve.batch.size") - batch_count0;
  round->shed = coordinator.shed();
  round->rescued = coordinator.rescued();
  coordinator.Stop();
  for (auto& worker : workers) {
    const serve::ServeStats s = worker->service().stats();
    round->cache_hits += s.cache_hits;
    round->cache_misses += s.cache_misses;
    worker->Stop();
  }
  return Status::OK();
}

}  // namespace

Status RunFleetWorkload(const Args& args, Deployment* d, double setup_s,
                        Report* report, LayerValues* layer) {
  // --- set-up: request plans and checkpoints (fleets start per round) ---
  const double setup_start = NowS();
  DADER_ASSIGN_OR_RETURN(RequestMix mix, RequestMix::Create(args.seed));
  // Enough distinct calls per client for ~2x the measured call rate.
  const size_t plan_size = 1000 * static_cast<size_t>(args.seconds + 1);
  std::vector<std::vector<size_t>> plans(kClients);
  for (int c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < plan_size; ++i) plans[c].push_back(mix.Next());
  }
  DADER_RETURN_NOT_OK(WriteCheckpoints(d));
  setup_s += NowS() - setup_start;

  std::vector<Round> rounds(kRounds);
  for (Round& round : rounds) {
    DADER_RETURN_NOT_OK(
        RunRound(args, *d, mix, plans, &setup_s, &round));
  }
  report->Metric("setup_s", setup_s, "s");
  // Peak RSS of the program's set-up and serving, before the answer
  // checks copy the pairs and load their own models.
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");

  // --- per round: requests/s, latency quantiles; failure accounting ---
  std::vector<double> round_rps, round_p50, round_p99, reload_ms, wire_ms,
      queue_ms;
  int64_t total = 0, failed = 0, reload_failed = 0, samples = 0;
  for (size_t r = 0; r < rounds.size(); ++r) {
    const Round& round = rounds[r];
    std::vector<double> latency_ms;
    int64_t ok = 0;
    for (const auto& client : round.calls) {
      for (const Call& call : client) {
        ++total;
        if (!call.response.status.ok()) {
          ++failed;
          latency_ms.push_back(std::numeric_limits<double>::infinity());
          continue;
        }
        ++ok;
        const double ms = (call.end - call.start) * 1e3;
        latency_ms.push_back(ms);
        wire_ms.push_back(ms - call.response.total_ms);
        queue_ms.push_back(call.response.queue_ms);
      }
    }
    for (const Call& call : round.warm_calls) {
      ++total;
      if (!call.response.status.ok()) ++failed;
    }
    std::vector<double> round_reload_ms;
    for (const Reload& reload : round.reloads) {
      round_reload_ms.push_back((reload.end - reload.start) * 1e3);
      if (!reload.ok) ++reload_failed;
    }
    reload_ms.insert(reload_ms.end(), round_reload_ms.begin(),
                     round_reload_ms.end());
    samples += static_cast<int64_t>(latency_ms.size());
    round_rps.push_back(static_cast<double>(ok) / round.usage.wall_s);
    round_p50.push_back(Quantile(latency_ms, 0.50));
    round_p99.push_back(Quantile(latency_ms, 0.99));
    std::printf(
        "round %zu: %lld OK calls in %.3f s = %.1f req/s, p50 %.3f ms, p99 "
        "%.3f ms; reload median %.2f ms\n",
        r + 1, static_cast<long long>(ok), round.usage.wall_s,
        round_rps.back(), round_p50.back(), round_p99.back(),
        Quantile(round_reload_ms, 0.5));
  }
  std::printf(
      "fleet: medians over %d rounds: %.1f req/s, p50 %.3f ms, p99 %.3f ms "
      "(%lld latency samples); %lld of %lld calls failed, %lld of %d "
      "reloads rejected\n",
      kRounds, Quantile(round_rps, 0.5), Quantile(round_p50, 0.5),
      Quantile(round_p99, 0.5), static_cast<long long>(samples),
      static_cast<long long>(failed), static_cast<long long>(total),
      static_cast<long long>(reload_failed), kRounds * kReloadsPerRound);
  report->Metric("throughput_per_s", Quantile(round_rps, 0.5), "1/s");
  report->Metric("p50_ms", Quantile(round_p50, 0.5), "ms");
  (*layer)["tail.p99_ms"] = Quantile(round_p99, 0.5);
  report->Attempt(total + kRounds * kReloadsPerRound, failed + reload_failed);

  // --- answer check: each OK answer equals core::Predict under the
  // checkpoint that was live during the call (either side of a reload the
  // call overlapped, since the roll swaps node by node).
  DADER_ASSIGN_OR_RETURN(core::Prediction adapted,
                         DirectPredict(*d, d->ckpt_adapted, mix.pairs(), 4));
  DADER_ASSIGN_OR_RETURN(core::Prediction teacher,
                         DirectPredict(*d, d->ckpt_teacher, mix.pairs(), 4));
  const core::Prediction* by_ckpt[2] = {&adapted, &teacher};
  int64_t checked = 0, mismatched = 0;
  for (const Round& round : rounds) {
    auto check = [&](const Call& call) {
      if (!call.response.status.ok()) return;
      ++checked;
      int live = 0;
      bool ok = false;
      bool overlapped = false;
      for (const Reload& r : round.reloads) {
        if (call.start < r.end && call.end > r.start) {
          overlapped = true;
          ok = ok || SameAnswer(call.response, *by_ckpt[r.from], call.pair) ||
               SameAnswer(call.response, *by_ckpt[r.to], call.pair);
        }
        if (r.ok && r.end <= call.start) live = r.to;
      }
      if (!overlapped) {
        ok = SameAnswer(call.response, *by_ckpt[live], call.pair);
      }
      if (!ok) ++mismatched;
    };
    for (const Call& call : round.warm_calls) check(call);
    for (const auto& client : round.calls) {
      for (const Call& call : client) check(call);
    }
  }
  std::printf("answer check: %lld OK calls, %lld mismatches\n",
              static_cast<long long>(checked),
              static_cast<long long>(mismatched));
  if (mismatched > 0) {
    report->Fail(std::to_string(mismatched) +
                 " fleet answers match neither live checkpoint");
  }
  const double f1 = PairF1(adapted.labels, mix.GoldLabels());
  report->Metric("f1", f1, "ratio");
  char quality[64];
  std::snprintf(quality, sizeof(quality), " f1=%.17g", f1);
  CheckFingerprint(args, AdaptFingerprint(*d) + quality, report);
  if (!args.trace) return Status::OK();

  // --- traced run: per-layer values (every round) ---
  PhaseUsage usage;
  double batch_sum = 0.0;
  int64_t batch_count = 0, hits = 0, misses = 0, shed = 0, rescued = 0;
  for (const Round& round : rounds) {
    usage.wall_s += round.usage.wall_s;
    usage.cpu_s += round.usage.cpu_s;
    usage.sys_s += round.usage.sys_s;
    usage.minflt += round.usage.minflt;
    batch_sum += round.batch_sum;
    batch_count += round.batch_count;
    hits += round.cache_hits;
    misses += round.cache_misses;
    shed += round.shed;
    rescued += round.rescued;
  }
  ReportProc("serve", usage, samples, layer);
  const double mean_batch =
      batch_count > 0 ? batch_sum / static_cast<double>(batch_count) : 1.0;
  (*layer)["serve.batch_size_mean"] = mean_batch;
  (*layer)["serve.queue_ms_p50"] = Quantile(queue_ms, 0.5);
  (*layer)["serve.forward_ms_p50"] = HistogramP50("serve.latency.forward_ms");
  (*layer)["serve.cache_hit_ratio"] =
      hits + misses > 0 ? static_cast<double>(hits) / (hits + misses) : 0.0;
  (*layer)["dist.wire_ms_p50"] = Quantile(wire_ms, 0.5);
  (*layer)["dist.shed"] = static_cast<double>(shed);
  (*layer)["dist.rescued"] = static_cast<double>(rescued);
  (*layer)["dist.reload_ms"] = Quantile(reload_ms, 0.5);

  std::vector<size_t> rows(plans[0].begin(),
                           plans[0].begin() +
                               std::min<size_t>(plans[0].size(), 1024));
  return ReplayLayers(*d, mix.pairs().Subset(rows), mean_batch, layer);
}

}  // namespace perfbench
