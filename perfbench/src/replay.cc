// Traced replays: the workload's own inputs through each layer's public
// entry points, one call per span, so a layer's cost is read without spans
// inside the program.
//
//   text.encode   FeatureExtractor::EncodePairs
//   core.extract  FeatureExtractor::Forward (nn is measured through it)
//   core.match    Matcher::PredictProbabilities
//   core.train_fwd / core.aligner / tensor.backward / tensor.adam_step
//                 one Algorithm-2-shaped training step through public calls
//   core.eval     core::Evaluate on the target validation split
//   serve.reload  MatchService::ReloadModel on a lone service
//
// The batch-32 inference replay also runs three times without and three
// times with spans, alternating; the ratio of median walls is the tracing
// overhead.

#include <algorithm>
#include <cstdio>

#include "core/evaluator.h"
#include "core/matcher.h"
#include "serve/match_service.h"
#include "tensor/nn_ops.h"
#include "tensor/ops.h"
#include "tensor/optimizer.h"
#include "workloads.h"

namespace perfbench {

namespace {

struct InferenceTimes {
  double encode_s = 0.0;
  double extract_s = 0.0;
  double match_s = 0.0;
  double gemm_ms = 0.0;   // tensor.gemm.ms accrued inside extract calls
  int64_t gemm_calls = 0;
  double wall_s = 0.0;
};

InferenceTimes ReplayInference(core::DaModel& model,
                               const data::ERDataset& pairs, size_t batch,
                               bool traced) {
  InferenceTimes t;
  Rng rng(0x7e91ULL);
  const double start = NowS();
  for (size_t lo = 0; lo < pairs.size(); lo += batch) {
    std::vector<size_t> rows;
    for (size_t i = lo; i < std::min(pairs.size(), lo + batch); ++i) {
      rows.push_back(i);
    }
    double t0 = NowS();
    core::EncodedBatch encoded;
    {
      Span span(traced, "text.encode");
      encoded = model.extractor->EncodePairs(pairs, rows);
    }
    double t1 = NowS();
    const double gemm_before = GemmMs();
    const int64_t calls_before = GemmCalls();
    const double t2 = NowS();
    Tensor features;
    {
      Span span(traced, "core.extract");
      features = model.extractor->Forward(encoded, &rng).Detach();
    }
    const double t3 = NowS();
    t.gemm_ms += GemmMs() - gemm_before;
    t.gemm_calls += GemmCalls() - calls_before;
    {
      Span span(traced, "core.match");
      model.matcher->PredictProbabilities(features, &rng);
    }
    const double t4 = NowS();
    t.encode_s += t1 - t0;
    t.extract_s += t3 - t2;
    t.match_s += t4 - t3;
  }
  t.wall_s = NowS() - start;
  return t;
}

double MedianMs(const std::vector<double>& seconds) {
  std::vector<double> ms;
  for (double s : seconds) ms.push_back(s * 1e3);
  return Quantile(ms, 0.5);
}

}  // namespace

Status ReplayLayers(const Deployment& d, const data::ERDataset& pairs,
                    double mean_batch, LayerValues* layer,
                    double* direct_us_per_pair) {
  Span phase(true, "phase.replay");
  DADER_ASSIGN_OR_RETURN(core::DaModel model,
                         LoadCheckpoint(d, d.ckpt_adapted));
  model.extractor->SetTraining(false);
  model.matcher->SetTraining(false);
  const double n = static_cast<double>(std::max<size_t>(pairs.size(), 1));

  // Batch 32 (dedup's served batch) and the workload's own mean batch.
  const size_t mean = std::max<size_t>(
      1, static_cast<size_t>(mean_batch + 0.5));
  for (auto [batch, suffix] : {std::pair<size_t, const char*>{32, "b32"},
                               std::pair<size_t, const char*>{mean, "bmean"}}) {
    const InferenceTimes t = ReplayInference(model, pairs, batch, true);
    (*layer)[std::string("text.encode_us_per_pair.") + suffix] =
        t.encode_s * 1e6 / n;
    (*layer)[std::string("core.extract_us_per_pair.") + suffix] =
        t.extract_s * 1e6 / n;
    (*layer)[std::string("core.match_us_per_pair.") + suffix] =
        t.match_s * 1e6 / n;
    if (batch == 32) {
      (*layer)["tensor.gemm_share"] =
          t.extract_s > 0 ? t.gemm_ms / (t.extract_s * 1e3) : 0.0;
      (*layer)["tensor.gemm_calls_per_pair"] =
          static_cast<double>(t.gemm_calls) / n;
    }
  }
  // Tracing overhead: the b32 replay alternately without and with spans,
  // median wall of each.
  std::vector<double> plain_s, traced_s;
  for (int rep = 0; rep < 3; ++rep) {
    InferenceTimes plain;
    {
      // One span around the whole untraced pass, so the share of the
      // replay phase no span covers stays meaningful.
      Span span(true, "core.replay_untraced");
      plain = ReplayInference(model, pairs, 32, false);
    }
    plain_s.push_back(plain.wall_s);
    if (direct_us_per_pair != nullptr && rep == 0) {
      *direct_us_per_pair =
          (plain.encode_s + plain.extract_s + plain.match_s) * 1e6 / n;
    }
    traced_s.push_back(ReplayInference(model, pairs, 32, true).wall_s);
  }
  (*layer)["obs.trace_overhead_share"] =
      Quantile(traced_s, 0.5) / Quantile(plain_s, 0.5) - 1.0;

  // One training step, five times, through the public calls Algorithm 2
  // makes: F and M forward with the matching loss, the discriminator with
  // its loss, backward, and an Adam step.
  {
    DADER_ASSIGN_OR_RETURN(core::DaModel train_model,
                           LoadCheckpoint(d, d.ckpt_adapted));
    const core::DaderConfig& config = d.scale.model;
    core::DomainDiscriminator disc(train_model.extractor->feature_dim(),
                                   config.disc_hidden, /*deep=*/true,
                                   d.model_seed ^ 0xd15cULL);
    std::vector<Tensor> params = train_model.extractor->Parameters();
    for (const Tensor& p : train_model.matcher->Parameters()) params.push_back(p);
    for (const Tensor& p : disc.Parameters()) params.push_back(p);
    AdamOptimizer opt(params, config.learning_rate);
    const size_t batch = static_cast<size_t>(config.batch_size);
    std::vector<size_t> src_rows, tgt_rows;
    for (size_t i = 0; i < batch && i < d.task.source.size(); ++i) {
      src_rows.push_back(i);
    }
    for (size_t i = 0; i < batch && i < d.task.target_unlabeled.size(); ++i) {
      tgt_rows.push_back(i);
    }
    std::vector<int64_t> labels;
    for (size_t i : src_rows) {
      labels.push_back(d.task.source.pair(i).label == 1 ? 1 : 0);
    }
    Rng rng(d.model_seed ^ 0x57e9ULL);
    std::vector<double> fwd, aligner, backward, step;
    for (int rep = 0; rep < 5; ++rep) {
      double t0 = NowS();
      Tensor loss_m, feats_t;
      {
        Span span(true, "core.train_fwd");
        const core::EncodedBatch bs =
            train_model.extractor->EncodePairs(d.task.source, src_rows);
        const core::EncodedBatch bt = train_model.extractor->EncodePairs(
            d.task.target_unlabeled, tgt_rows);
        loss_m = ops::CrossEntropyWithLogits(
            train_model.matcher->Forward(
                train_model.extractor->Forward(bs, &rng), &rng),
            labels);
        feats_t = train_model.extractor->Forward(bt, &rng);
      }
      double t1 = NowS();
      Tensor loss;
      {
        Span span(true, "core.aligner");
        const Tensor logits = disc.Forward(feats_t, &rng);
        loss = ops::Add(loss_m, ops::BinaryCrossEntropyWithLogits(
                                    logits, std::vector<float>(
                                                tgt_rows.size(), 1.0f)));
      }
      double t2 = NowS();
      {
        Span span(true, "tensor.backward");
        opt.ZeroGrad();
        loss.Backward();
      }
      double t3 = NowS();
      {
        Span span(true, "tensor.adam_step");
        opt.Step();
      }
      double t4 = NowS();
      fwd.push_back(t1 - t0);
      aligner.push_back(t2 - t1);
      backward.push_back(t3 - t2);
      step.push_back(t4 - t3);
    }
    (*layer)["core.train_fwd_ms"] = MedianMs(fwd);
    (*layer)["core.aligner_ms"] = MedianMs(aligner);
    (*layer)["tensor.backward_ms"] = MedianMs(backward);
    (*layer)["tensor.adam_step_ms"] = MedianMs(step);

    std::vector<double> eval;
    for (int rep = 0; rep < 3; ++rep) {
      Span span(true, "core.eval");
      Rng eval_rng(7);
      const double t = NowS();
      core::Evaluate(model.extractor.get(), model.matcher.get(),
                     d.task.target_valid, config.batch_size, &eval_rng);
      eval.push_back(NowS() - t);
    }
    (*layer)["core.eval_ms"] = MedianMs(eval);
  }

  // A lone reload: stage + validate + canary + swap, alternating weights.
  {
    DADER_ASSIGN_OR_RETURN(core::DaModel served,
                           LoadCheckpoint(d, d.ckpt_adapted));
    serve::MatchService service(serve::ServeConfig{},
                                d.task.source.schema_a(),
                                d.task.source.schema_b(), std::move(served));
    std::vector<double> reload;
    for (int rep = 0; rep < 4; ++rep) {
      Span span(true, "serve.reload");
      const double t = NowS();
      DADER_RETURN_NOT_OK(service.ReloadModel(rep % 2 == 0 ? d.ckpt_teacher
                                                           : d.ckpt_adapted));
      reload.push_back(NowS() - t);
    }
    service.Stop();
    (*layer)["serve.reload_ms"] = MedianMs(reload);
  }
  return Status::OK();
}

void RecordEpochSpans(const Deployment& d) {
  obs::Tracer& tracer = BenchTracer();
  uint32_t thread = 0;
  for (const obs::SpanRecord& s : tracer.Snapshot()) {
    if (std::string(s.name) == "phase.adapt") thread = s.thread;
  }
  double from = d.adapt_start_s;
  for (double end : d.epoch_end_s) {
    obs::SpanRecord record;
    record.name = "core.epoch";
    record.start_us = static_cast<uint64_t>(from * 1e6);
    record.end_us = static_cast<uint64_t>(end * 1e6);
    record.thread = thread;
    record.depth = 1;
    tracer.Record(record);
    from = end;
  }
}

void ReportSpans(LayerValues* layer) {
  for (const auto& [name, ms] : SelfMsByLayer()) {
    (*layer)["self_ms." + name] = ms;
  }
  (*layer)["trace.uncovered_share.adapt"] = UncoveredShare("phase.adapt");
  (*layer)["trace.uncovered_share.serve"] = UncoveredShare("phase.serve");
  (*layer)["trace.uncovered_share.replay"] = UncoveredShare("phase.replay");
  const obs::Tracer& tracer = BenchTracer();
  std::printf("benchmark spans: %lld recorded, %lld dropped\n",
              static_cast<long long>(tracer.recorded()),
              static_cast<long long>(tracer.dropped()));
}

}  // namespace perfbench
