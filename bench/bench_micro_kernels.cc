// google-benchmark microbenchmarks for the pipeline's hot kernels: edit
// distance, the cex predicate, LIG builds and candidate queries, clique
// enumeration, and the selection heuristics.

#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "graph/generators.h"
#include "lig/length_indexed_grids.h"
#include "repair/candidates.h"
#include "repair/repair_graph.h"
#include "repair/repairer.h"
#include "repair/selectors.h"
#include "sim/edit_distance.h"

namespace idrepair {
namespace {

std::string RandomId(Rng& rng, size_t len) {
  std::string s(len, 'a');
  for (char& c : s) c = rng.LowercaseLetter();
  return s;
}

void BM_EditDistance(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 256; ++i) {
    pairs.emplace_back(RandomId(rng, 8), RandomId(rng, 8));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 255];
    benchmark::DoNotOptimize(EditDistance(a, b));
  }
}
BENCHMARK(BM_EditDistance);

void BM_EditDistanceBounded(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::pair<std::string, std::string>> pairs;
  for (int i = 0; i < 256; ++i) {
    pairs.emplace_back(RandomId(rng, 8), RandomId(rng, 8));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 255];
    benchmark::DoNotOptimize(EditDistanceBounded(a, b, 3));
  }
}
BENCHMARK(BM_EditDistanceBounded);

struct Workload {
  Dataset dataset;
  TrajectorySet set;
  RepairOptions options;

  static const Workload& Get() {
    static Workload* w = [] {
      auto ds = MakeScaledRealLikeDataset(1000);
      auto* out = new Workload{std::move(*ds), {}, {}};
      out->set = out->dataset.BuildObservedTrajectories();
      out->options.theta = 4;
      out->options.eta = 600;
      return out;
    }();
    return *w;
  }
};

void BM_CexPredicate(benchmark::State& state) {
  const Workload& w = Workload::Get();
  PredicateEvaluator pred(w.dataset.graph, 4, 600);
  Rng rng(2);
  std::vector<std::pair<TrajIndex, TrajIndex>> pairs;
  for (int i = 0; i < 1024; ++i) {
    pairs.emplace_back(rng.UniformIndex(w.set.size()),
                       rng.UniformIndex(w.set.size()));
  }
  size_t i = 0;
  for (auto _ : state) {
    const auto& [a, b] = pairs[i++ & 1023];
    benchmark::DoNotOptimize(pred.Cex(w.set.at(a), w.set.at(b)));
  }
}
BENCHMARK(BM_CexPredicate);

/// The LIG arms' input: the 1,000-entity workload above (weeks:0), or the
/// sparse_fleet-shaped one (weeks:8) — 16,000 synthetic trajectories over
/// an eight-week timeline, where the time axis is long and mostly empty.
const TrajectorySet& LigSet(const benchmark::State& state) {
  if (state.range(0) == 0) return Workload::Get().set;
  static const TrajectorySet* weeks = [] {
    SyntheticConfig config;
    config.num_trajectories = 16000;
    config.window_seconds = 8 * 7 * 86400;
    config.max_path_len = 4;
    config.seed = 2025;
    auto ds = GenerateSyntheticDataset(MakeRealLikeGraph(), config);
    return new TrajectorySet(ds->BuildObservedTrajectories());
  }();
  return *weeks;
}

void BM_LigBuild(benchmark::State& state) {
  const TrajectorySet& set = LigSet(state);
  LengthIndexedGrids::Options o{4, 600, 60};
  for (auto _ : state) {
    LengthIndexedGrids lig(set, o);
    benchmark::DoNotOptimize(lig.num_indexed());
  }
}
BENCHMARK(BM_LigBuild)->ArgName("weeks")->Arg(0)->Arg(8);

void BM_LigQuery(benchmark::State& state) {
  const TrajectorySet& set = LigSet(state);
  LengthIndexedGrids::Options o{4, 600, 60};
  LengthIndexedGrids lig(set, o);
  std::vector<TrajIndex> out;
  TrajIndex k = 0;
  for (auto _ : state) {
    out.clear();
    lig.CollectCandidates(k, &out);
    benchmark::DoNotOptimize(out.size());
    k = (k + 1) % set.size();
  }
}
BENCHMARK(BM_LigQuery)->ArgName("weeks")->Arg(0)->Arg(8);

void BM_TrajectoryGraphBuild(benchmark::State& state) {
  const Workload& w = Workload::Get();
  PredicateEvaluator pred(w.dataset.graph, 4, 600);
  for (auto _ : state) {
    TrajectoryGraph gm(w.set, pred, w.options);
    benchmark::DoNotOptimize(gm.num_edges());
  }
}
BENCHMARK(BM_TrajectoryGraphBuild);

void BM_CliqueEnumeration(benchmark::State& state) {
  const Workload& w = Workload::Get();
  PredicateEvaluator pred(w.dataset.graph, 4, 600);
  TrajectoryGraph gm(w.set, pred, w.options);
  for (auto _ : state) {
    CliqueEnumerator enumerator(w.set, gm, pred, w.options);
    size_t count = 0;
    enumerator.Enumerate(
        [&](const std::vector<TrajIndex>&, const std::vector<MergedPoint>&) {
          ++count;
        });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_CliqueEnumeration);

void BM_FullRepair(benchmark::State& state) {
  const Workload& w = Workload::Get();
  IdRepairer repairer(w.dataset.graph, w.options);
  for (auto _ : state) {
    auto result = repairer.Repair(w.set);
    benchmark::DoNotOptimize(result->selected.size());
  }
}
BENCHMARK(BM_FullRepair);

void BM_EmaxSelection(benchmark::State& state) {
  const Workload& w = Workload::Get();
  IdRepairer repairer(w.dataset.graph, w.options);
  auto result = repairer.Repair(w.set);
  SelectionContext ctx;
  ctx.exec = w.options.exec;
  for (auto _ : state) {
    auto selected = SelectEmaxByCover(result->candidates, w.set.size(), ctx);
    benchmark::DoNotOptimize(selected->size());
  }
}
BENCHMARK(BM_EmaxSelection);

}  // namespace
}  // namespace idrepair

BENCHMARK_MAIN();
