// Figure 11: cost-aware example replay ("distillation" of better responses
// via best-of-n regeneration) improves final response quality. Paper (small
// model's average score vs the large model, Gemini pair): Open Orca
// -0.26 -> -0.20, Math Reasoning -0.42 -> -0.19, Code Generation
// -0.66 -> -0.41.
#include <cstdio>

#include "bench/bench_common.h"

namespace iccache {
namespace {

struct ReplayScores {
  double before = 0.0;
  double after = 0.0;
};

ReplayScores Evaluate(DatasetId dataset) {
  benchutil::BundleOptions options;
  options.pool_size = 2000;
  options.warmup_requests = 400;
  options.models = ModelCatalog::GeminiPair();
  options.seed = 0xbb + static_cast<uint64_t>(dataset);
  auto bundle = benchutil::MakeBundle(dataset, options);
  GenerationSimulator& sim = *bundle->sim;
  const ModelProfile& small = bundle->Small();
  const ModelProfile& large = bundle->Large();
  PairwiseJudge judge;
  Rng rng(0xbc);

  auto evaluate_quality = [&](uint64_t base_seed) {
    QueryGenerator eval_gen(bundle->profile, base_seed);
    SideBySideStats scores;
    for (int i = 0; i < 300; ++i) {
      const Request req = eval_gen.Next();
      const auto selected = bundle->service->selector().Select(req, small, 5000.0 + i);
      std::vector<ExampleView> views;
      for (const auto& sel : selected) {
        const Example* example = bundle->service->cache().Get(sel.example_id);
        ExampleView view;
        view.relevance = StructuralRelevance(req, example->request, rng);
        view.quality = example->response_quality;
        view.source_capability = example->source_capability;
        view.tokens = example->PromptTokens();
        views.push_back(view);
      }
      const double small_quality = sim.Generate(small, req, views).latent_quality;
      const double large_quality = sim.Generate(large, req, {}).latent_quality;
      scores.Add(judge.Compare(small_quality, large_quality));
    }
    return scores.mean_score();
  };

  ReplayScores result;
  result.before = evaluate_quality(0xe1);
  // Several off-peak replay passes refine the hottest, lowest-quality
  // examples in place.
  MaintenanceTickSpec replay_tick;
  replay_tick.replay = true;
  for (int pass = 0; pass < 6; ++pass) {
    bundle->service->manager().RunMaintenanceTick(replay_tick, sim.rng());
  }
  result.after = evaluate_quality(0xe1);
  return result;
}

}  // namespace
}  // namespace iccache

int main() {
  using iccache::benchutil::PrintNote;
  using iccache::benchutil::PrintRule;
  using iccache::benchutil::PrintTitle;

  PrintTitle("Figure 11: example replay (distillation) improves response quality");
  std::printf("  %-18s %18s %18s\n", "task", "w/o distillation", "w/ distillation");
  PrintRule();
  const struct {
    iccache::DatasetId dataset;
    const char* label;
  } rows[] = {
      {iccache::DatasetId::kOpenOrca, "Open Orca"},
      {iccache::DatasetId::kMath500, "Math Reasoning"},
      {iccache::DatasetId::kNl2Bash, "Code Generation"},
  };
  for (const auto& row : rows) {
    const iccache::ReplayScores scores = iccache::Evaluate(row.dataset);
    std::printf("  %-18s %18.2f %18.2f\n", row.label, scores.before, scores.after);
  }
  PrintNote("paper: -0.26->-0.20 (Orca), -0.42->-0.19 (math), -0.66->-0.41 (code)");
  return 0;
}
