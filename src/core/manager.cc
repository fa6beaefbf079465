#include "src/core/manager.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/common/mathutil.h"
#include "src/core/example_cache.h"

namespace iccache {

namespace {

// Replay economics: expected savings scale with how often the example is
// reused; once they fall below the one-time replay cost, every lower-ranked
// candidate is below it too.
double ReuseWeight(const Example& example) {
  return 1.0 + std::min<double>(static_cast<double>(example.access_count), 50.0);
}

}  // namespace

ExampleManager::ExampleManager(ExampleStore* store, GenerationSimulator* generator,
                               const ModelProfile& replay_model, ManagerConfig config)
    : store_(store), generator_(generator), replay_model_(replay_model), config_(config) {}

PreparedLifecycleAdmission ExampleManager::PrepareAdmission(
    const Request& request, const std::vector<float>* text_embedding) const {
  PreparedLifecycleAdmission prepared;
  // Exact-duplicate suppression: a near-identical cached request adds tokens
  // to the index without adding coverage. The probe reads the pool as of this
  // call; in a batched driver two duplicates inside one window both pass —
  // an accepted (and deterministic) race of the lookahead design.
  const auto nearest = text_embedding != nullptr ? store_->FindSimilar(*text_embedding, 1)
                                                 : store_->FindSimilar(request, 1);
  if (!nearest.empty() && nearest[0].score >= config_.dedupe_similarity) {
    prepared.duplicate = true;
    return prepared;
  }
  prepared.admission = store_->PrepareAdmission(request, text_embedding);
  return prepared;
}

uint64_t ExampleManager::CommitAdmission(const Request& request,
                                         PreparedLifecycleAdmission prepared,
                                         const GenerationResult& generation,
                                         double source_capability, bool from_large_model,
                                         double now) {
  if (prepared.duplicate || !prepared.admission.admit) {
    return 0;
  }
  if (!from_large_model && generation.latent_quality < config_.small_model_admit_quality) {
    return 0;
  }
  return store_->PutPrepared(request, std::move(prepared.admission), "[cached-response]",
                             generation.latent_quality, source_capability,
                             generation.output_tokens, now);
}

uint64_t ExampleManager::MaybeAdmit(const Request& request, const GenerationResult& generation,
                                    double source_capability, bool from_large_model, double now) {
  if (!from_large_model && generation.latent_quality < config_.small_model_admit_quality) {
    return 0;  // gate first: skip the dedupe probe and scrub/embed entirely
  }
  return CommitAdmission(request, PrepareAdmission(request), generation, source_capability,
                         from_large_model, now);
}

void ExampleManager::RecordUsage(const std::vector<uint64_t>& example_ids,
                                 double response_quality, double normalized_model_cost) {
  const double gain = (1.0 - Clamp(response_quality, 0.0, 1.0)) *
                      Clamp(normalized_model_cost, 0.0, 1.0);
  const double alpha = config_.gain_ema_alpha;
  for (uint64_t id : example_ids) {
    store_->UpdateExample(id, [gain, alpha](Example& example) {
      example.replay_gain_ema = alpha * gain + (1.0 - alpha) * example.replay_gain_ema;
    });
  }
}

MaintenancePlan ExampleManager::PlanMaintenance(const MaintenanceCut& cut,
                                                const MaintenanceTickSpec& spec,
                                                Rng& rng) const {
  MaintenancePlan plan;
  plan.spec = spec;

  // Eviction: one global knapsack over the decayed cut. The decay that the
  // apply step will perform is simulated here (value *= decay_factor when the
  // tick decays) so the keep/evict decision matches the post-decay pool.
  if (spec.evict && cut.capacity_bytes > 0 &&
      static_cast<double>(cut.used_bytes) >
          static_cast<double>(cut.capacity_bytes) * std::min(1.0, cut.high_watermark)) {
    const int64_t target = static_cast<int64_t>(static_cast<double>(cut.capacity_bytes) *
                                                Clamp(cut.low_watermark, 0.1, 1.0));
    std::vector<const Example*> pool;  // the cut is ascending-id
    pool.reserve(cut.examples.size());
    for (const Example& example : cut.examples) {
      pool.push_back(&example);
    }
    plan.evict_ids =
        ChooseKnapsackEvictions(pool, spec.decay ? cut.decay_factor : 1.0, target);
  }

  if (!spec.replay) {
    return plan;
  }
  const std::unordered_set<uint64_t> evicting(plan.evict_ids.begin(), plan.evict_ids.end());

  // Replay: rank by gain EMA, then best-of-n until the cost cutoff.
  struct Ranked {
    const Example* example;
    double gain;
  };
  std::vector<Ranked> ranked;
  for (const Example& example : cut.examples) {
    if (example.replay_count >= config_.max_replays_per_example ||
        evicting.count(example.id) > 0) {
      continue;  // replaying an example this tick evicts would waste the draws
    }
    ranked.push_back(Ranked{&example, example.replay_gain_ema});
  }
  plan.replay_candidates = ranked.size();
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a, const Ranked& b) {
    if (a.gain != b.gain) {
      return a.gain > b.gain;
    }
    return a.example->id < b.example->id;
  });

  for (const Ranked& candidate : ranked) {
    if (plan.replays.size() >= config_.max_replays_per_pass) {
      break;
    }
    if (candidate.gain * ReuseWeight(*candidate.example) <= config_.replay_cost) {
      break;
    }
    MaintenancePlan::PlannedReplay replay;
    replay.id = candidate.example->id;
    replay.best_quality = candidate.example->response_quality;
    replay.best_tokens = candidate.example->response_tokens;
    for (int draw = 0; draw < config_.draws_per_replay; ++draw) {
      const GenerationResult fresh =
          generator_->Generate(replay_model_, candidate.example->request, {}, rng);
      if (fresh.latent_quality > replay.best_quality) {
        replay.best_quality = fresh.latent_quality;
        replay.best_tokens = fresh.output_tokens;
      }
    }
    plan.replays.push_back(replay);
  }
  return plan;
}

MaintenanceApplyOutcome ExampleManager::ApplyMaintenance(const MaintenancePlan& plan) {
  MaintenanceApplyOutcome outcome;
  outcome.replay_candidates = plan.replay_candidates;
  if (plan.spec.decay) {
    store_->DecayTick();
    outcome.decay_ran = true;
  }
  if (plan.spec.evict) {
    for (uint64_t id : plan.evict_ids) {
      if (store_->Remove(id)) {
        ++outcome.evicted;
      }
    }
  }
  if (plan.spec.replay) {
    const double replay_capability = replay_model_.capability;
    for (const MaintenancePlan::PlannedReplay& replay : plan.replays) {
      bool improved = false;
      const bool applied = store_->UpdateExample(replay.id, [&](Example& stored) {
        ++stored.replay_count;
        // Re-check against the LIVE quality: only this tick mutates response
        // quality, so the comparison is deterministic, and a no-op draw still
        // consumes the lifetime replay slot.
        if (replay.best_quality > stored.response_quality) {
          outcome.total_quality_gain += replay.best_quality - stored.response_quality;
          stored.response_quality = replay.best_quality;
          stored.response_tokens = replay.best_tokens;
          stored.source_capability = std::max(stored.source_capability, replay_capability);
          improved = true;
        }
        stored.replay_gain_ema *= (1.0 - stored.response_quality);
      });
      if (applied) {
        ++outcome.replayed;
        if (improved) {
          ++outcome.improved;
        }
      }
    }
    outcome.replay_ran = true;
  }
  // One deterministic budget re-enforcement covers replay token growth AND
  // any admissions that landed between cut and apply (no-op under the
  // watermark); its evictions ride the store's own counter, so only the
  // planned removals are tallied here.
  if (plan.spec.evict || outcome.improved > 0) {
    store_->EnforceCapacity();
  }
  return outcome;
}

MaintenanceApplyOutcome ExampleManager::RunMaintenanceTick(const MaintenanceTickSpec& spec,
                                                           Rng& rng) {
  return ApplyMaintenance(PlanMaintenance(store_->ExportMaintenanceCut(), spec, rng));
}

}  // namespace iccache
