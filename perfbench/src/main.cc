// Repository benchmark driver: one workload per process.
//
//   perfbench --workload dedup|online|fleet --seed N --seconds S --trace 0|1
//             --workdir DIR [--fingerprints DIR]
//
// perfbench/run.py builds this binary and supplies --workdir (a directory
// private to the run, removed afterwards) and --fingerprints. The last line
// of stdout is the JSON result; the exit code is non-zero when an answer
// check failed or a metric could not be measured.

#include <cstdio>

#include "harness.h"
#include "workloads.h"

using namespace perfbench;

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 2;
  using WorkloadFn = Status (*)(const Args&, Deployment*, double, Report*,
                                LayerValues*);
  WorkloadFn workload = nullptr;
  if (args.workload == "dedup") workload = &RunDedupWorkload;
  if (args.workload == "online") workload = &RunOnlineWorkload;
  if (args.workload == "fleet") workload = &RunFleetWorkload;
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload %s (dedup|online|fleet)\n",
                 args.workload.c_str());
    return 2;
  }
  std::printf("workload %s, seed %llu, %d s, trace %d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  Report report;
  LayerValues layer;
  const double start = NowS();
  auto prepared = PrepareDeployment(args);
  if (!prepared.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n",
                 prepared.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Deployment> deployment = std::move(prepared).ValueOrDie();
  const double setup_s = NowS() - start;
  std::printf("set-up (data, LM pre-train, model build): %.3f s\n", setup_s);

  Status st;
  {
    Span phase(args.trace, "phase.adapt");
    st = Adapt(deployment.get());
  }
  if (st.ok()) {
    if (args.trace) RecordEpochSpans(*deployment);
    ReportAdapt(*deployment, &report, &layer);
    st = workload(args, deployment.get(), setup_s, &report, &layer);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "workload %s failed: %s\n", args.workload.c_str(),
                 st.ToString().c_str());
    return 1;
  }

  if (!args.trace) {
    report.Print(EndToEndMetrics());
    return report.correct() ? 0 : 1;
  }
  ReportSpans(&layer);
  PrintLayerTable(args.workload, layer);
  std::vector<std::string> names;
  for (const LayerMetric& m : LayerMetrics()) {
    auto it = layer.find(m.name);
    report.Metric(m.name, it == layer.end() ? 0.0 : it->second, m.unit);
    names.push_back(m.name);
  }
  report.Print(names);
  return report.correct() ? 0 : 1;
}
