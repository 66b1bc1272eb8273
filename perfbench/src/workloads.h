// The three workloads and the traced replays. Each workload function runs
// after the shared set-up and `adapt` phase (harness.h): it adds its own
// set-up time to `setup_s`, runs its timed serving phase, checks every
// answer, and records its metrics.

#pragma once

#include <map>
#include <string>

#include "data/dataset.h"
#include "data/generators.h"
#include "harness.h"
#include "util/rng.h"

namespace perfbench {

/// \brief Per-layer values gathered by a traced run (name -> value).
using LayerValues = std::map<std::string, double>;

/// \brief The `online`/`fleet` request mix: half the requests draw from a
/// hot set of pairs smaller than the feature cache (half gold matches, half
/// random pairs), half are fresh random pairs that practically never
/// repeat.
class RequestMix {
 public:
  /// \brief Generates a WA table pair and the hot set from `seed`.
  static Result<RequestMix> Create(uint64_t seed);
  /// \brief Index into pairs() of the next request's pair.
  size_t Next();
  /// \brief Pairs [0, hot()) of pairs() are the hot set.
  size_t hot() const { return hot_; }
  /// \brief Every distinct pair handed out so far, gold label attached.
  const data::ERDataset& pairs() const { return pairs_; }
  /// \brief The request for pair `i`.
  serve::MatchRequest Request(size_t i) const;
  /// \brief Gold labels of pairs().
  std::vector<int> GoldLabels() const;

 private:
  size_t AddPair(bool may_match);
  data::GeneratedTables tables_;
  std::vector<uint64_t> gold_;  // sorted (a << 32 | b)
  data::ERDataset pairs_;
  size_t hot_ = 0;
  Rng rng_{1};
};

/// \brief `dedup`: closed loop through block::RunDedup (see README.md).
Status RunDedupWorkload(const Args& args, Deployment* deployment,
                        double setup_s, Report* report, LayerValues* layer);

/// \brief `online`: open-loop Poisson arrivals into a sharded service.
Status RunOnlineWorkload(const Args& args, Deployment* deployment,
                         double setup_s, Report* report, LayerValues* layer);

/// \brief `fleet`: closed-loop clients through dist::Coordinator with
/// rolling reloads.
Status RunFleetWorkload(const Args& args, Deployment* deployment,
                        double setup_s, Report* report, LayerValues* layer);

/// \brief Traced replay shared by every workload: `pairs` (the workload's
/// own inputs) through text/core at batch 32 and at `mean_batch`, once
/// untraced and once traced (trace overhead); a one-step training replay;
/// core::Evaluate; a lone MatchService::ReloadModel. `direct_us_per_pair`,
/// when given, receives the untraced batch-32 encode+extract+match time.
Status ReplayLayers(const Deployment& deployment, const data::ERDataset& pairs,
                    double mean_batch, LayerValues* layer,
                    double* direct_us_per_pair = nullptr);

/// \brief Epoch spans of the adapt phase rebuilt from the EpochCallback
/// stamps (traced runs), nested under the phase.adapt span.
void RecordEpochSpans(const Deployment& deployment);

/// \brief Self time per layer and uncovered phase shares from the
/// benchmark's spans.
void ReportSpans(LayerValues* layer);

}  // namespace perfbench
