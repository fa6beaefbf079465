#include "perfbench/layer_pass.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <utility>

#include "src/common/rng.h"
#include "src/core/pipeline.h"
#include "src/llm/generation.h"

namespace perfbench {

using iccache::Request;

namespace {

// Background maintenance as the driver schedules it: at each window boundary
// a pending tick that has aged `maintenance_publish_lag` boundaries (or the
// final boundary) is applied, then the next tick is cut and planned when
// decay is due or the pool is past its byte budget's high watermark. The
// admissions that land between cut and apply are what the apply step's
// budget re-enforcement has to catch up with. (Off-peak replay is left to
// the driver's own runs.)
class Maintenance {
 public:
  Maintenance(iccache::ServingDriver& driver, uint64_t seed, SpanLog& log, LayerCounts* counts)
      : driver_(driver), seed_(seed), log_(log), counts_(counts) {}

  void Boundary(double now, bool final_boundary) {
    const iccache::DriverConfig& config = driver_.config();
    if (pending_ && (++age_ >= std::max<size_t>(1, config.maintenance_publish_lag) ||
                     final_boundary)) {
      Apply();
    }
    iccache::ExampleManager& manager = driver_.manager();
    const bool decay_due = config.lifecycle_maintenance &&
                           now - manager.last_decay_time() >= config.manager.decay_interval_s;
    const int64_t capacity = config.cache.cache.capacity_bytes;
    const bool evict_due =
        decay_due ||
        (capacity > 0 && static_cast<double>(driver_.cache().used_bytes()) >
                             static_cast<double>(capacity) *
                                 std::min(1.0, config.cache.cache.high_watermark));
    if (pending_ || !evict_due) {
      return;
    }
    iccache::MaintenanceTickSpec spec;
    spec.decay = decay_due;
    spec.evict = true;
    spec.now = now;
    spec.epoch = counts_->ticks;
    if (decay_due) {
      manager.set_last_decay_time(now);
    }
    iccache::MaintenanceCut cut;
    {
      SpanLog::Scope span(log_, "maintenance.cut");
      cut = driver_.cache().ExportMaintenanceCut();
    }
    iccache::Rng rng(iccache::Mix64(seed_ ^ 0x3a171ull ^ counts_->ticks));
    {
      SpanLog::Scope span(log_, "maintenance.plan");
      plan_ = manager.PlanMaintenance(cut, spec, rng);
    }
    pending_ = true;
    age_ = 0;
    if (final_boundary) {
      Apply();
    }
  }

 private:
  void Apply() {
    iccache::MaintenanceApplyOutcome outcome;
    {
      SpanLog::Scope span(log_, "maintenance.apply");
      outcome = driver_.manager().ApplyMaintenance(plan_);
    }
    pending_ = false;
    ++counts_->ticks;
    counts_->evicted += outcome.evicted;
  }

  iccache::ServingDriver& driver_;
  const uint64_t seed_;
  SpanLog& log_;
  LayerCounts* counts_;
  iccache::MaintenancePlan plan_;
  bool pending_ = false;
  size_t age_ = 0;
};

}  // namespace

bool RunLayerPass(iccache::ServingDriver& driver, const iccache::ModelCatalog& catalog,
                  const std::vector<Request>& requests, uint64_t seed,
                  const std::string& snapshot_path, const iccache::DriverConfig& restore_config,
                  SpanLog& log, LayerCounts* counts) {
  const iccache::DriverConfig& config = driver.config();
  const iccache::ModelProfile& small = catalog.Get(config.small_model);
  const iccache::ModelProfile& large = catalog.Get(config.large_model);
  const iccache::Embedder& embedder = *driver.cache().embedder();
  const size_t dim = embedder.dim();
  const size_t window = std::max<size_t>(1, config.batch_window);
  const size_t stage1_k = driver.selector().config().stage1_candidates;
  const iccache::GenerationSimulator generator(iccache::Mix64(seed ^ 0x6e4ull));

  counts->requests = requests.size();
  counts->pool_examples = driver.cache().size();

  std::vector<float> embeddings;
  std::vector<double> nows;
  iccache::SearchScratch scratch;
  std::vector<std::optional<iccache::Stage0Probe>> probes;
  std::vector<std::vector<iccache::SearchResult>> stage1;

  Maintenance maintenance(driver, seed, log, counts);
  SpanLog::Scope pass_span(log, "layers.pass");
  for (size_t begin = 0; begin < requests.size(); begin += window) {
    const size_t count = std::min(window, requests.size() - begin);
    const Request* batch = &requests[begin];
    SpanLog::Scope window_span(log, "layers.window");
    driver.router().PrepareSampling();

    embeddings.resize(count * dim);
    for (size_t i = 0; i < count; ++i) {
      SpanLog::Scope span(log, "embedding.embed", batch[i].id);
      embedder.EmbedInto(batch[i].text, embeddings.data() + i * dim);
    }
    probes.assign(count, std::nullopt);
    if (config.stage0.enabled) {
      nows.resize(count);
      for (size_t i = 0; i < count; ++i) {
        nows[i] = batch[i].arrival_time;
      }
      SpanLog::Scope span(log, "stage0.probe", batch[0].id);
      driver.stage0().ProbeBatch(embeddings.data(), count, dim, nows.data(), &scratch, &probes);
    }
    {
      SpanLog::Scope span(log, "retrieval.stage1", batch[0].id);
      driver.cache().FindSimilarBatch(embeddings.data(), count, dim, stage1_k, &scratch,
                                      &stage1);
    }

    driver.cache().set_defer_capacity(true);
    for (size_t i = 0; i < count; ++i) {
      const Request& request = batch[i];
      if (probes[i].has_value() && driver.stage0().Confident(*probes[i])) {
        ++counts->stage0_hits;  // served from the response cache: nothing below runs
        continue;
      }
      std::vector<iccache::SelectorCandidate> candidates;
      {
        SpanLog::Scope span(log, "selector.stage2", request.id);
        candidates = driver.selector().PrepareCandidatesFrom(request, small, stage1[i],
                                                             /*embed_candidates=*/true);
      }
      std::vector<iccache::SelectorCandidate> picked;
      std::vector<uint64_t> accessed;
      {
        SpanLog::Scope span(log, "selector.commit", request.id);
        picked = driver.selector().CommitSelectionFrozen(candidates, small, &accessed);
      }
      counts->candidates += candidates.size();
      counts->kept += picked.size();

      iccache::Rng rng(iccache::Mix64(request.id ^ seed ^ 0x1a9ec0113ull));
      const std::vector<iccache::SelectedExample> selected =
          iccache::ExampleSelector::ToSelected(picked);
      iccache::RouteDecision decision;
      {
        SpanLog::Scope span(log, "router.route", request.id);
        decision = driver.router().RouteWithRng(request, selected, rng);
      }
      ++counts->routed;
      counts->routed_small += decision.uses_examples ? 1 : 0;
      const iccache::ModelProfile& model = decision.uses_examples ? small : large;

      iccache::GenerationResult generation;
      {
        SpanLog::Scope span(log, "llm.generate", request.id);
        std::vector<iccache::ExampleView> views;
        if (decision.uses_examples) {
          views.reserve(picked.size());
          for (const iccache::SelectorCandidate& candidate : picked) {
            views.push_back(iccache::MakeExampleView(request, candidate.example, rng));
          }
        }
        generation = generator.Generate(model, request, views, rng);
      }
      {
        SpanLog::Scope span(log, "cluster.submit", request.id);
        iccache::ServingRequest serving;
        serving.id = request.id;
        serving.arrival_time = request.arrival_time;
        serving.prompt_tokens = generation.prompt_tokens;
        serving.output_tokens = generation.output_tokens;
        driver.cluster().AdvanceTo(request.arrival_time);
        driver.cluster().Submit(model.name, serving);
      }

      const std::vector<float> embedding(embeddings.data() + i * dim,
                                         embeddings.data() + (i + 1) * dim);
      iccache::PreparedLifecycleAdmission admission;
      {
        SpanLog::Scope span(log, "admission.prepare", request.id);
        admission = driver.manager().PrepareAdmission(request, &embedding);
      }
      {
        SpanLog::Scope span(log, "admission.put", request.id);
        const uint64_t id = driver.manager().CommitAdmission(
            request, std::move(admission), generation, model.capability,
            /*from_large_model=*/!decision.uses_examples, request.arrival_time);
        counts->admitted += id != 0 ? 1 : 0;
      }
      ++counts->admit_attempts;
    }
    // Admissions defer watermark eviction to the maintenance tick, as the
    // driver's publish step does.
    driver.cache().set_defer_capacity(false);
    maintenance.Boundary(batch[count - 1].arrival_time,
                         /*final_boundary=*/begin + count == requests.size());
  }
  driver.cluster().RunUntilIdle();

  {
    SpanLog::Scope span(log, "persist.save");
    const iccache::Status saved = driver.SaveSnapshot(snapshot_path);
    if (!saved.ok()) {
      std::fprintf(stderr, "snapshot save failed: %s\n", saved.ToString().c_str());
      return false;
    }
  }
  if (std::FILE* file = std::fopen(snapshot_path.c_str(), "rb")) {
    std::fseek(file, 0, SEEK_END);
    counts->snapshot_bytes = static_cast<size_t>(std::max(0L, std::ftell(file)));
    std::fclose(file);
  }
  iccache::ServingDriver restored(restore_config, &catalog);
  iccache::Status status;
  {
    SpanLog::Scope span(log, "persist.restore");
    status = restored.RestoreSnapshot(snapshot_path);
  }
  std::remove(snapshot_path.c_str());
  if (!status.ok()) {
    std::fprintf(stderr, "snapshot restore failed: %s\n", status.ToString().c_str());
    return false;
  }
  if (restored.cache().size() != driver.cache().size()) {
    std::fprintf(stderr, "restored pool holds %zu examples, saved %zu\n",
                 restored.cache().size(), driver.cache().size());
    return false;
  }
  return true;
}

}  // namespace perfbench
