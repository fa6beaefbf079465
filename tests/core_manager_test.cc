#include "src/core/manager.h"

#include <memory>

#include <gtest/gtest.h>

#include "src/core/example_cache.h"
#include "src/workload/query_generator.h"

namespace iccache {
namespace {

class ManagerFixture : public ::testing::Test {
 protected:
  ManagerFixture()
      : gen_(GetDatasetProfile(DatasetId::kNaturalQuestions), 81),
        cache_(std::make_shared<HashingEmbedder>()),
        sim_(82),
        manager_(&cache_, &sim_, catalog_.Get("gemma-2-27b")) {}

  // One synchronous replay tick, drawing from the fixture's generator.
  MaintenanceApplyOutcome ReplayTick(ExampleManager& manager) {
    MaintenanceTickSpec spec;
    spec.replay = true;
    return manager.RunMaintenanceTick(spec, sim_.rng());
  }

  // A decay + eviction tick when the decay interval has elapsed, advancing
  // the cursor the way the service and driver do; true when it ran.
  bool DecayTickIfDue(double now) {
    if (!manager_.DecayDue(now)) {
      return false;
    }
    manager_.set_last_decay_time(now);
    MaintenanceTickSpec spec;
    spec.decay = true;
    spec.evict = true;
    spec.now = now;
    return manager_.RunMaintenanceTick(spec, sim_.rng()).decay_ran;
  }

  GenerationResult FakeGeneration(double quality, int tokens = 120) {
    GenerationResult result;
    result.latent_quality = quality;
    result.output_tokens = tokens;
    return result;
  }

  ModelCatalog catalog_;
  QueryGenerator gen_;
  ExampleCache cache_;
  GenerationSimulator sim_;
  ExampleManager manager_;
};

TEST_F(ManagerFixture, AdmitsLargeModelResponses) {
  const uint64_t id =
      manager_.MaybeAdmit(gen_.Next(), FakeGeneration(0.4), 0.785, /*from_large_model=*/true, 0.0);
  EXPECT_NE(id, 0u);
  EXPECT_EQ(cache_.size(), 1u);
}

TEST_F(ManagerFixture, RejectsLowQualitySmallModelResponses) {
  const uint64_t id = manager_.MaybeAdmit(gen_.Next(), FakeGeneration(0.4), 0.6,
                                          /*from_large_model=*/false, 0.0);
  EXPECT_EQ(id, 0u);
  EXPECT_EQ(cache_.size(), 0u);
}

TEST_F(ManagerFixture, AdmitsHighQualitySmallModelResponses) {
  const uint64_t id = manager_.MaybeAdmit(gen_.Next(), FakeGeneration(0.9), 0.6,
                                          /*from_large_model=*/false, 0.0);
  EXPECT_NE(id, 0u);
}

TEST_F(ManagerFixture, DeduplicatesNearIdenticalRequests) {
  const Request req = gen_.Next();
  EXPECT_NE(manager_.MaybeAdmit(req, FakeGeneration(0.8), 0.785, true, 0.0), 0u);
  EXPECT_EQ(manager_.MaybeAdmit(req, FakeGeneration(0.8), 0.785, true, 1.0), 0u);
  EXPECT_EQ(cache_.size(), 1u);
}

TEST_F(ManagerFixture, RecordUsageFoldsGainIntoEma) {
  const uint64_t id = manager_.MaybeAdmit(gen_.Next(), FakeGeneration(0.8), 0.785, true, 0.0);
  const double before = cache_.Get(id)->replay_gain_ema;
  // Low-quality outcome at full large-model cost: G = (1-0.2)*1.0 = 0.8.
  manager_.RecordUsage({id}, /*response_quality=*/0.2, /*normalized_model_cost=*/1.0);
  const double after = cache_.Get(id)->replay_gain_ema;
  EXPECT_GT(after, before);
  // High-quality cheap outcome shrinks the EMA back down.
  for (int i = 0; i < 20; ++i) {
    manager_.RecordUsage({id}, 0.95, 0.1);
  }
  EXPECT_LT(cache_.Get(id)->replay_gain_ema, after);
}

TEST_F(ManagerFixture, RecordUsageIgnoresUnknownIds) {
  manager_.RecordUsage({12345}, 0.5, 1.0);
  SUCCEED();
}

TEST_F(ManagerFixture, ReplayImprovesLowQualityHotExamples) {
  // A frequently accessed, low-quality example must be replayed and improved.
  const Request req = gen_.Next();
  const uint64_t id = cache_.Put(req, "r", 0.2, 0.785, 100, 0.0);
  Example* example = cache_.GetMutable(id);
  example->replay_gain_ema = 0.9;
  example->access_count = 40;
  const double before = example->response_quality;

  const MaintenanceApplyOutcome report = ReplayTick(manager_);
  EXPECT_EQ(report.replay_candidates, 1u);
  EXPECT_EQ(report.replayed, 1u);
  EXPECT_GE(cache_.Get(id)->response_quality, before);
  EXPECT_EQ(cache_.Get(id)->replay_count, 1);
}

TEST_F(ManagerFixture, ReplayRespectsLifetimeCap) {
  const uint64_t id = cache_.Put(gen_.Next(), "r", 0.2, 0.785, 100, 0.0);
  Example* example = cache_.GetMutable(id);
  example->access_count = 40;
  for (int pass = 0; pass < 10; ++pass) {
    example = cache_.GetMutable(id);
    example->replay_gain_ema = 0.9;  // keep it attractive
    ReplayTick(manager_);
  }
  EXPECT_LE(cache_.Get(id)->replay_count, manager_.config().max_replays_per_example);
}

TEST_F(ManagerFixture, ReplayCutoffSkipsColdLowGainExamples) {
  // Cold example with negligible gain: the cost-aware cutoff must skip it.
  const uint64_t id = cache_.Put(gen_.Next(), "r", 0.9, 0.785, 100, 0.0);
  Example* example = cache_.GetMutable(id);
  example->replay_gain_ema = 0.01;
  example->access_count = 0;
  const MaintenanceApplyOutcome report = ReplayTick(manager_);
  EXPECT_EQ(report.replayed, 0u);
  EXPECT_EQ(cache_.Get(id)->replay_count, 0);
}

TEST_F(ManagerFixture, ReplayOrderedByGainStopsAtCutoff) {
  // Two hot examples above the cutoff, one cold below: exactly two replays.
  for (int i = 0; i < 2; ++i) {
    const uint64_t id = cache_.Put(gen_.Next(), "r", 0.2, 0.785, 100, 0.0);
    Example* example = cache_.GetMutable(id);
    example->replay_gain_ema = 0.8;
    example->access_count = 30;
  }
  const uint64_t cold = cache_.Put(gen_.Next(), "r", 0.9, 0.785, 100, 0.0);
  cache_.GetMutable(cold)->replay_gain_ema = 0.001;
  const MaintenanceApplyOutcome report = ReplayTick(manager_);
  EXPECT_EQ(report.replayed, 2u);
}

TEST_F(ManagerFixture, ReplayBatchBounded) {
  ManagerConfig config;
  config.max_replays_per_pass = 5;
  ExampleManager bounded(&cache_, &sim_, catalog_.Get("gemma-2-27b"), config);
  for (int i = 0; i < 20; ++i) {
    const uint64_t id = cache_.Put(gen_.Next(), "r", 0.2, 0.785, 100, 0.0);
    Example* example = cache_.GetMutable(id);
    example->replay_gain_ema = 0.9;
    example->access_count = 50;
  }
  EXPECT_EQ(ReplayTick(bounded).replayed, 5u);
}

TEST_F(ManagerFixture, MaintenanceDecaysOnlyAfterInterval) {
  const uint64_t id = cache_.Put(gen_.Next(), "r", 0.5, 0.785, 100, 0.0);
  cache_.RecordOffload(id, 10.0);
  EXPECT_FALSE(DecayTickIfDue(100.0));  // within the first hour: no decay
  EXPECT_NEAR(cache_.Get(id)->offload_value, 10.0, 1e-9);
  EXPECT_TRUE(DecayTickIfDue(3700.0));
  EXPECT_NEAR(cache_.Get(id)->offload_value, 9.0, 1e-9);
  // Re-running within the same hour is a no-op.
  EXPECT_FALSE(DecayTickIfDue(3800.0));
  EXPECT_NEAR(cache_.Get(id)->offload_value, 9.0, 1e-9);
}

TEST_F(ManagerFixture, ReplayUpgradesSourceCapability) {
  const uint64_t id = cache_.Put(gen_.Next(), "r", 0.1, 0.3, 100, 0.0);
  Example* example = cache_.GetMutable(id);
  example->replay_gain_ema = 0.9;
  example->access_count = 40;
  ReplayTick(manager_);
  // Replay regenerates on the 27B model; an improved response must carry the
  // replay model's capability.
  if (cache_.Get(id)->response_quality > 0.1) {
    EXPECT_NEAR(cache_.Get(id)->source_capability, catalog_.Get("gemma-2-27b").capability, 1e-9);
  }
}

// The eviction half picks exactly what the store's own capacity knapsack
// would evict from the same (decayed) pool.
TEST_F(ManagerFixture, PlannedEvictionMatchesStoreKnapsack) {
  ExampleCacheConfig config;
  config.high_watermark = 2.0;  // no auto-eviction while the pool is built
  ExampleCache planned(std::make_shared<HashingEmbedder>(), config);
  ExampleCache enforced(std::make_shared<HashingEmbedder>(), config);
  for (int i = 0; i < 30; ++i) {
    const Request request = gen_.Next();
    const uint64_t a = planned.Put(request, "r", 0.5, 0.785, 100 + 7 * i, 0.0);
    const uint64_t b = enforced.Put(request, "r", 0.5, 0.785, 100 + 7 * i, 0.0);
    planned.RecordOffload(a, static_cast<double>((i * 37) % 11));
    enforced.RecordOffload(b, static_cast<double>((i * 37) % 11));
  }
  const int64_t target = planned.used_bytes() / 2;

  MaintenanceCut cut = planned.ExportMaintenanceCut();
  cut.capacity_bytes = target;
  cut.low_watermark = 1.0;
  MaintenanceTickSpec spec;
  spec.decay = true;
  spec.evict = true;
  Rng rng(7);
  const MaintenancePlan plan = manager_.PlanMaintenance(cut, spec, rng);

  enforced.DecayTick();
  const std::vector<uint64_t> expected = enforced.EvictToBytes(target);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(plan.evict_ids, expected);
}

// Pool churn between cut and apply: an id that vanished after the plan was
// made is skipped, and counted neither as evicted nor as replayed.
TEST_F(ManagerFixture, IdsRemovedBetweenCutAndApplyAreSkipped) {
  ExampleCacheConfig config;
  config.high_watermark = 2.0;  // no auto-eviction while the pool is built
  ExampleCache cache(std::make_shared<HashingEmbedder>(), config);
  ExampleManager manager(&cache, &sim_, catalog_.Get("gemma-2-27b"));
  for (int i = 0; i < 12; ++i) {
    const uint64_t id = cache.Put(gen_.Next(), "r", 0.2, 0.785, 100, 0.0);
    cache.RecordOffload(id, static_cast<double>(i));
    Example* example = cache.GetMutable(id);
    example->replay_gain_ema = 0.9;
    example->access_count = 40;
  }

  MaintenanceCut cut = cache.ExportMaintenanceCut();
  cut.capacity_bytes = cache.used_bytes() / 2;
  MaintenanceTickSpec spec;
  spec.evict = true;
  spec.replay = true;
  Rng rng(11);
  const MaintenancePlan plan = manager.PlanMaintenance(cut, spec, rng);
  ASSERT_GE(plan.evict_ids.size(), 2u);
  ASSERT_GE(plan.replays.size(), 2u);

  const uint64_t gone_evict = plan.evict_ids.front();
  const uint64_t gone_replay = plan.replays.front().id;
  ASSERT_TRUE(cache.Remove(gone_evict));
  ASSERT_TRUE(cache.Remove(gone_replay));

  const MaintenanceApplyOutcome outcome = manager.ApplyMaintenance(plan);
  EXPECT_EQ(outcome.evicted, plan.evict_ids.size() - 1);
  EXPECT_EQ(outcome.replayed, plan.replays.size() - 1);
  EXPECT_EQ(outcome.replay_candidates, plan.replay_candidates);
  EXPECT_EQ(cache.Get(gone_evict), nullptr);
  EXPECT_EQ(cache.Get(gone_replay), nullptr);
  for (uint64_t id : plan.evict_ids) {
    EXPECT_EQ(cache.Get(id), nullptr);
  }
  for (const MaintenancePlan::PlannedReplay& replay : plan.replays) {
    if (replay.id != gone_replay) {
      ASSERT_NE(cache.Get(replay.id), nullptr);
      EXPECT_EQ(cache.Get(replay.id)->replay_count, 1);
    }
  }
}

}  // namespace
}  // namespace iccache
