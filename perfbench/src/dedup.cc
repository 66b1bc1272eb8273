// `dedup`: raw records to entity clusters, the ROADMAP's headline number.
//
// Twelve dedup jobs, one after another: each a WA corpus (100 entities per
// --seconds, ~1.7 records per entity) through block::RunDedup: inverted
// index + MinHash/LSH candidates (per-probe budget 8, sequential signing)
// stream through a bounded in-flight window into a freshly started 2-shard
// ShardedMatchService serving the adapted (F', M), and accepted
// matches union into clusters. It is the only workload that blocks, and its
// batches are full of pairs that never repeat, so the feature cache never
// hits while each record recurs in several candidates.
//
// Busy threads: the blocking producer, the submitting consumer (this
// thread) and one batcher per shard = 4. No warm-up: every candidate is new,
// so a user pays the cold path on every run too.

#include <algorithm>
#include <cstdio>

#include "block/pipeline.h"
#include "data/generators.h"
#include "obs/metrics.h"
#include "serve/sharded_service.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Distinct corpora, each a dedup job with its own freshly started service.
// A service's speed depends on how the allocator serves its worker threads
// (minor faults per pair differ by up to 2x between service instances and
// hold for the instance's life, see README.md), so each job gets its own
// instance and the reported figures are medians over jobs.
constexpr int kPasses = 12;

uint64_t PairBits(uint32_t a, uint32_t b) {
  return (static_cast<uint64_t>(a) << 32) | b;
}

}  // namespace

Status RunDedupWorkload(const Args& args, Deployment* d, double setup_s,
                        Report* report, LayerValues* layer) {
  // --- set-up: corpora, checkpoints, service ---
  const double setup_start = NowS();
  const int64_t entities = 100 * static_cast<int64_t>(args.seconds);
  std::vector<data::GeneratedTables> corpora;
  for (int p = 0; p < kPasses; ++p) {
    DADER_ASSIGN_OR_RETURN(
        data::GeneratedTables tables,
        data::GenerateTables("WA", entities,
                             0xd3d0ULL + args.seed * 7919 + p * 104729));
    corpora.push_back(std::move(tables));
  }
  DADER_RETURN_NOT_OK(WriteCheckpoints(d));
  serve::ShardedServeConfig serve_config;
  serve_config.num_shards = 2;
  serve_config.shard.queue_capacity = 256;
  serve_config.shard.max_batch = 32;
  serve_config.shard.batch_wait_ms = 0.2;
  serve_config.shard.default_deadline_ms = 120000.0;
  serve_config.shard.num_workers = 1;
  serve_config.shard.feature_cache_capacity = 4096;
  serve_config.shard.seed = args.seed;
  // Starts one job's service from the adapted checkpoint; the time counts
  // as set-up.
  auto start_service = [&]() -> Result<std::unique_ptr<serve::ShardedMatchService>> {
    const double t = NowS();
    DADER_ASSIGN_OR_RETURN(core::DaModel served,
                           LoadCheckpoint(*d, d->ckpt_adapted));
    auto service = serve::ShardedMatchService::Create(
        serve_config, corpora[0].a.schema(), corpora[0].b.schema(),
        std::move(served));
    setup_s += NowS() - t;
    return service;
  };
  setup_s += NowS() - setup_start;

  block::DedupConfig config;
  config.candidates.index.max_candidates_per_probe = 8;
  config.candidates.sign_threads = 0;
  config.queue_capacity = 2048;
  config.max_in_flight = 256;  // <= 2 shards x 256 queue slots
  config.deadline_ms = 120000.0;

  // --- phase `match`: one RunDedup per corpus, each with its own service ---
  std::vector<block::DedupResult> results;
  std::vector<double> pass_rate, pass_p50, pass_p99;
  serve::ServeStats stats;
  auto add_stats = [&stats](const serve::ServeStats& s) {
    stats.cache_hits += s.cache_hits;
    stats.cache_misses += s.cache_misses;
  };
  PhaseUsage usage;
  // Candidate latency (admission -> response), per pass.
  const std::string kLatency = "serve.latency.total_ms";
  int64_t latency_samples = 0;
  {
    Span phase(args.trace, "phase.serve");
    for (const data::GeneratedTables& tables : corpora) {
      DADER_ASSIGN_OR_RETURN(std::unique_ptr<serve::ShardedMatchService> service,
                             start_service());
      if (obs::Histogram* h = FindHistogram(kLatency)) h->Reset();
      const Usage start = Usage::Now();
      Result<block::DedupResult> run = Status::Internal("not run");
      {
        Span call(args.trace, "block.run_dedup");
        run = block::RunDedup(tables.a, tables.b, &tables.gold_matches,
                              service.get(), config);
      }
      const PhaseUsage pass = Between(start, Usage::Now());
      add_stats(service->stats());
      service->Stop();
      DADER_RETURN_NOT_OK(run.status());
      obs::Histogram* latency = FindHistogram(kLatency);
      if (latency == nullptr) return Status::Internal("no serve latency");
      pass_p50.push_back(latency->Quantile(0.5));
      pass_p99.push_back(latency->Quantile(0.99));
      latency_samples += latency->count();
      results.push_back(std::move(run).ValueOrDie());
      const block::DedupResult& r = results.back();
      const size_t records = tables.a.size() + tables.b.size();
      pass_rate.push_back(static_cast<double>(records) / pass.wall_s);
      usage.wall_s += pass.wall_s;
      usage.cpu_s += pass.cpu_s;
      usage.sys_s += pass.sys_s;
      usage.minflt += pass.minflt;
      std::printf(
          "match pass %zu: %zu records, %lld candidates (recall %.4f), %lld "
          "matches, %zu clusters, F1 %.4f in %.3f s (%.1f records/s, %.1f "
          "minor faults/candidate), %lld failed\n",
          results.size(), records,
          static_cast<long long>(r.candidates.emitted), r.candidate_recall,
          static_cast<long long>(r.matches), r.clusters, r.f1, pass.wall_s,
          pass_rate.back(),
          static_cast<double>(pass.minflt) /
              static_cast<double>(std::max<int64_t>(r.candidates.emitted, 1)),
          static_cast<long long>(r.responses_failed));
    }
  }
  report->Metric("setup_s", setup_s, "s");
  // Peak RSS of the program's set-up and serving, before the answer
  // checks copy the pairs and load their own models.
  report->Metric("peak_rss_mb", PeakRssMb(), "MiB");

  int64_t submitted = 0, failed = 0;
  for (const block::DedupResult& r : results) {
    submitted += r.responses_ok + r.responses_failed;
    failed += r.responses_failed;
  }
  report->Attempt(submitted, failed);
  report->Metric("throughput_per_s", Quantile(pass_rate, 0.5), "1/s");
  const double p50 = Quantile(pass_p50, 0.5);
  const double p99 = Quantile(pass_p99, 0.5);
  std::printf(
      "median over %d jobs: %.1f records/s; candidate latency (admission -> "
      "response) p50 %.3f ms, p99 %.3f ms (%lld samples)\n",
      kPasses, Quantile(pass_rate, 0.5), p50, p99,
      static_cast<long long>(latency_samples));
  report->Metric("p50_ms", p50, "ms");
  (*layer)["tail.p99_ms"] = p99;

  // --- answer check: the same candidate streams, labelled by core::Predict
  // with the served checkpoint, must yield exactly the accepted matches.
  data::ERDataset pairs("dedup", "WA", corpora[0].a.schema(),
                        corpora[0].b.schema());
  std::vector<std::vector<block::Candidate>> candidates;
  double generate_ms = 0.0;
  int64_t emitted = 0, gold = 0, gold_hits = 0, tp = 0, matches = 0;
  for (size_t p = 0; p < corpora.size(); ++p) {
    const data::GeneratedTables& tables = corpora[p];
    block::CandidateStats cand_stats;
    {
      Span span(args.trace, "block.generate");
      const double t = NowS();
      candidates.push_back(block::CollectCandidates(
          tables.a, tables.b, config.candidates, &cand_stats));
      generate_ms += (NowS() - t) * 1e3;
    }
    if (cand_stats.emitted != results[p].candidates.emitted) {
      report->Fail("candidate stream differs between runs of the generator");
    }
    std::vector<uint64_t> gold_bits;
    for (const auto& [a, b] : tables.gold_matches) {
      gold_bits.push_back(PairBits(static_cast<uint32_t>(a),
                                   static_cast<uint32_t>(b)));
    }
    std::sort(gold_bits.begin(), gold_bits.end());
    for (const block::Candidate& c : candidates.back()) {
      pairs.AddPair({tables.a.row(c.a), tables.b.row(c.b), -1});
      gold_hits += std::binary_search(gold_bits.begin(), gold_bits.end(),
                                      PairBits(c.a, c.b));
    }
    for (const block::Candidate& m : results[p].matched_pairs) {
      tp += std::binary_search(gold_bits.begin(), gold_bits.end(),
                               PairBits(m.a, m.b));
    }
    emitted += cand_stats.emitted;
    gold += static_cast<int64_t>(gold_bits.size());
    matches += results[p].matches;
  }
  DADER_ASSIGN_OR_RETURN(core::Prediction expected,
                         DirectPredict(*d, d->ckpt_adapted, pairs, 4));
  size_t row = 0;
  for (size_t p = 0; p < corpora.size(); ++p) {
    std::vector<uint64_t> want, got;
    for (const block::Candidate& c : candidates[p]) {
      if (expected.labels[row++] == 1) want.push_back(PairBits(c.a, c.b));
    }
    for (const block::Candidate& m : results[p].matched_pairs) {
      got.push_back(PairBits(m.a, m.b));
    }
    std::sort(want.begin(), want.end());
    std::sort(got.begin(), got.end());
    const bool same =
        results[p].responses_failed == 0
            ? want == got
            : std::includes(want.begin(), want.end(), got.begin(), got.end());
    if (!same) {
      report->Fail("dedup pass " + std::to_string(p + 1) +
                   " matches differ from core::Predict on its candidates (" +
                   std::to_string(got.size()) + " served vs " +
                   std::to_string(want.size()) + " direct)");
    }
  }
  // Accepted matches vs gold over every pass.
  const double precision =
      matches > 0 ? static_cast<double>(tp) / static_cast<double>(matches) : 0;
  const double recall =
      gold > 0 ? static_cast<double>(tp) / static_cast<double>(gold) : 0;
  const double f1 = precision + recall > 0
                        ? 2 * precision * recall / (precision + recall)
                        : 0.0;
  const double candidate_recall =
      gold > 0 ? static_cast<double>(gold_hits) / static_cast<double>(gold)
               : 0.0;
  std::printf("dedup quality: P %.4f R %.4f F1 %.4f, candidate recall %.4f "
              "over %lld candidates\n",
              precision, recall, f1, candidate_recall,
              static_cast<long long>(emitted));
  report->Metric("f1", f1, "ratio");
  char quality[160];
  std::snprintf(quality, sizeof(quality),
                " f1=%.17g candidate_recall=%.17g matches=%lld", f1,
                candidate_recall, static_cast<long long>(matches));
  CheckFingerprint(args, AdaptFingerprint(*d) + quality, report);
  if (!args.trace) return Status::OK();

  // --- traced run: per-layer values ---
  (*layer)["block.generate_ms"] = generate_ms;
  (*layer)["block.candidates"] = static_cast<double>(emitted);
  (*layer)["block.candidate_recall"] = candidate_recall;
  double cluster_ms = 0.0;
  for (size_t p = 0; p < corpora.size(); ++p) {
    Span span(args.trace, "block.cluster");
    const double t = NowS();
    block::UnionFind uf(corpora[p].a.size() + corpora[p].b.size());
    const uint32_t b_offset = static_cast<uint32_t>(corpora[p].a.size());
    for (const block::Candidate& m : results[p].matched_pairs) {
      uf.Union(m.a, b_offset + m.b);
    }
    const size_t clusters = uf.Clusters(/*min_size=*/2).size();
    cluster_ms += (NowS() - t) * 1e3;
    if (clusters != results[p].clusters) {
      report->Fail("cluster count differs from RunDedup's");
    }
  }
  (*layer)["block.cluster_ms"] = cluster_ms;
  ReportProc("serve", usage, submitted, layer);
  const double batches = static_cast<double>(HistogramCount("serve.batch.size"));
  const double mean_batch =
      batches > 0 ? HistogramSum("serve.batch.size") / batches : 1.0;
  (*layer)["serve.batch_size_mean"] = mean_batch;
  (*layer)["serve.queue_ms_p50"] = HistogramP50("serve.latency.queue_ms");
  (*layer)["serve.forward_ms_p50"] = HistogramP50("serve.latency.forward_ms");
  const double lookups =
      static_cast<double>(stats.cache_hits + stats.cache_misses);
  (*layer)["serve.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(stats.cache_hits) / lookups : 0.0;

  const size_t replay_n = std::min<size_t>(pairs.size(), 1024);
  std::vector<size_t> rows(replay_n);
  for (size_t i = 0; i < replay_n; ++i) rows[i] = i;
  double direct_us = 0.0;
  DADER_RETURN_NOT_OK(ReplayLayers(*d, pairs.Subset(rows), mean_batch, layer,
                                   &direct_us));
  // Direct single-thread compute for every candidate at the served batch
  // size, against the shard-seconds the match phase had.
  (*layer)["serve.overhead_share"] =
      1.0 - direct_us * 1e-6 * static_cast<double>(submitted) /
                (usage.wall_s * serve_config.num_shards);
  return Status::OK();
}

}  // namespace perfbench
