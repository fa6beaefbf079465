// Unified example-lifecycle tests: the store-agnostic ExampleManager
// (admission, gain accounting, replay, maintenance) running over the
// concurrent ShardedExampleCache, sharded-vs-single-shard eviction
// invariants, automatic capacity enforcement on insert, and byte-accounting
// consistency under concurrent mutation.
#include "src/core/manager.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/thread_pool.h"
#include "src/core/example_cache.h"
#include "src/core/sharded_cache.h"
#include "src/workload/query_generator.h"

namespace iccache {
namespace {

Request MakeRequest(uint64_t id, const std::string& text) {
  Request request;
  request.id = id;
  request.text = text;
  request.input_tokens = static_cast<int>(text.size() / 4 + 1);
  return request;
}

GenerationResult FakeGeneration(double quality, int tokens = 120) {
  GenerationResult result;
  result.latent_quality = quality;
  result.output_tokens = tokens;
  return result;
}

class ShardedLifecycleFixture : public ::testing::Test {
 protected:
  ShardedLifecycleFixture()
      : gen_(GetDatasetProfile(DatasetId::kNaturalQuestions), 181),
        embedder_(std::make_shared<HashingEmbedder>()),
        store_(embedder_, MakeShardedConfig()),
        sim_(182),
        manager_(&store_, &sim_, catalog_.Get("gemma-2-27b")) {}

  static ShardedCacheConfig MakeShardedConfig() {
    ShardedCacheConfig config;
    config.num_shards = 4;
    return config;
  }

  // One synchronous replay tick over an immediate all-shard cut.
  MaintenanceApplyOutcome ReplayTick() {
    MaintenanceTickSpec spec;
    spec.replay = true;
    return manager_.RunMaintenanceTick(spec, sim_.rng());
  }

  ModelCatalog catalog_;
  QueryGenerator gen_;
  std::shared_ptr<const Embedder> embedder_;
  ShardedExampleCache store_;
  GenerationSimulator sim_;
  ExampleManager manager_;
};

TEST_F(ShardedLifecycleFixture, AdmitsAndDedupesOverShardedStore) {
  const Request req = gen_.Next();
  const uint64_t id =
      manager_.MaybeAdmit(req, FakeGeneration(0.4), 0.785, /*from_large_model=*/true, 0.0);
  ASSERT_NE(id, 0u);
  EXPECT_EQ(store_.size(), 1u);
  Example example;
  ASSERT_TRUE(store_.Snapshot(id, &example));
  EXPECT_EQ(example.response_text, "[cached-response]");

  // Near-identical request: the dedupe probe must reject it, even though the
  // duplicate lives behind a shard.
  EXPECT_EQ(manager_.MaybeAdmit(req, FakeGeneration(0.8), 0.785, true, 1.0), 0u);
  EXPECT_EQ(store_.size(), 1u);

  // Low-quality small-model response: quality gate.
  EXPECT_EQ(manager_.MaybeAdmit(gen_.Next(), FakeGeneration(0.4), 0.6,
                                /*from_large_model=*/false, 2.0),
            0u);
}

TEST_F(ShardedLifecycleFixture, PrepareCommitSplitMatchesSynchronousAdmit) {
  const Request req = gen_.Next();
  const std::vector<float> embedding = embedder_->Embed(req.text);

  PreparedLifecycleAdmission prepared = manager_.PrepareAdmission(req, &embedding);
  EXPECT_FALSE(prepared.duplicate);
  ASSERT_TRUE(prepared.admission.admit);
  const uint64_t id = manager_.CommitAdmission(req, std::move(prepared), FakeGeneration(0.8),
                                               0.785, /*from_large_model=*/true, 0.0);
  ASSERT_NE(id, 0u);

  // A second prepare now sees the duplicate; commit must refuse it.
  PreparedLifecycleAdmission duplicate = manager_.PrepareAdmission(req, &embedding);
  EXPECT_TRUE(duplicate.duplicate);
  EXPECT_EQ(manager_.CommitAdmission(req, std::move(duplicate), FakeGeneration(0.8), 0.785, true,
                                     1.0),
            0u);

  // The commit-side quality gate also holds on the split path.
  PreparedLifecycleAdmission low = manager_.PrepareAdmission(gen_.Next());
  EXPECT_EQ(manager_.CommitAdmission(gen_.Next(), std::move(low), FakeGeneration(0.3), 0.6,
                                     /*from_large_model=*/false, 2.0),
            0u);
}

TEST_F(ShardedLifecycleFixture, RecordUsageFoldsGainAcrossShards) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < 16; ++i) {  // enough admissions to land on every shard
    const uint64_t id = manager_.MaybeAdmit(gen_.Next(), FakeGeneration(0.8), 0.785, true,
                                            static_cast<double>(i));
    if (id != 0) {
      ids.push_back(id);
    }
  }
  ASSERT_GE(ids.size(), 4u);

  std::vector<double> before;
  for (uint64_t id : ids) {
    Example example;
    ASSERT_TRUE(store_.Snapshot(id, &example));
    before.push_back(example.replay_gain_ema);
  }
  // Low-quality outcome at full large-model cost: G = (1-0.2)*1.0 = 0.8.
  manager_.RecordUsage(ids, /*response_quality=*/0.2, /*normalized_model_cost=*/1.0);
  for (size_t i = 0; i < ids.size(); ++i) {
    Example example;
    ASSERT_TRUE(store_.Snapshot(ids[i], &example));
    EXPECT_GT(example.replay_gain_ema, before[i]) << "example " << ids[i];
  }
}

TEST_F(ShardedLifecycleFixture, ReplayLifetimeCapHonoredAcrossShards) {
  std::vector<uint64_t> ids;
  for (int i = 0; i < 12; ++i) {
    const uint64_t id = store_.Put(gen_.Next(), "r", 0.2, 0.785, 100, 0.0);
    ASSERT_NE(id, 0u);
    ids.push_back(id);
  }
  for (int pass = 0; pass < 10; ++pass) {
    // Keep every example attractive so only the lifetime cap limits replay.
    for (uint64_t id : ids) {
      store_.UpdateExample(id, [](Example& example) {
        example.replay_gain_ema = 0.9;
        example.access_count = 40;
      });
    }
    ReplayTick();
  }
  size_t replayed_at_cap = 0;
  for (uint64_t id : ids) {
    Example example;
    ASSERT_TRUE(store_.Snapshot(id, &example));
    EXPECT_LE(example.replay_count, manager_.config().max_replays_per_example);
    replayed_at_cap += example.replay_count == manager_.config().max_replays_per_example ? 1 : 0;
  }
  EXPECT_GT(replayed_at_cap, 0u);  // replay genuinely ran to the cap
}

TEST_F(ShardedLifecycleFixture, ReplayImprovesHotLowQualityExamplesInShards) {
  const uint64_t id = store_.Put(gen_.Next(), "r", 0.2, 0.3, 100, 0.0);
  ASSERT_NE(id, 0u);
  store_.UpdateExample(id, [](Example& example) {
    example.replay_gain_ema = 0.9;
    example.access_count = 40;
  });
  const MaintenanceApplyOutcome report = ReplayTick();
  EXPECT_EQ(report.replayed, 1u);
  Example example;
  ASSERT_TRUE(store_.Snapshot(id, &example));
  EXPECT_GE(example.response_quality, 0.2);
  EXPECT_EQ(example.replay_count, 1);
}

TEST_F(ShardedLifecycleFixture, MaintenanceDecaysOnInterval) {
  const uint64_t id = store_.Put(gen_.Next(), "r", 0.5, 0.785, 100, 0.0);
  store_.RecordOffload(id, 10.0);
  EXPECT_FALSE(manager_.DecayDue(100.0));  // within the hour
  Example example;
  ASSERT_TRUE(store_.Snapshot(id, &example));
  EXPECT_NEAR(example.offload_value, 10.0, 1e-9);

  ASSERT_TRUE(manager_.DecayDue(3700.0));
  MaintenanceTickSpec spec;
  spec.decay = true;
  spec.evict = true;
  spec.now = 3700.0;
  EXPECT_TRUE(manager_.RunMaintenanceTick(spec, sim_.rng()).decay_ran);
  ASSERT_TRUE(store_.Snapshot(id, &example));
  EXPECT_NEAR(example.offload_value, 9.0, 1e-9);
}

// Same admitted set and same offload-value pattern under the same byte
// budget: the sharded store's per-shard knapsack with global watermark
// accounting must stay within budget and retain survivor utility comparable
// to the single-cache knapsack (it cannot beat the global optimum; it must
// not collapse either).
TEST(ShardedEvictionInvariantsTest, ComparableSurvivorUtilityVsSingleShard) {
  auto embedder = std::make_shared<HashingEmbedder>();
  QueryGenerator gen(GetDatasetProfile(DatasetId::kLmsysChat), 183);
  std::vector<Request> requests;
  for (int i = 0; i < 120; ++i) {
    requests.push_back(gen.Next());
  }

  // Size the budget from an unbounded probe fill: room for roughly half.
  ExampleCache probe(embedder);
  for (const Request& request : requests) {
    probe.Put(request, "response", 0.8, 0.9, 60, 0.0);
  }
  const int64_t budget = probe.used_bytes() / 2;

  ExampleCacheConfig single_config;
  single_config.capacity_bytes = budget;
  single_config.high_watermark = 1e12;  // evict only when asked
  ExampleCache single(embedder, single_config);

  ShardedCacheConfig sharded_config;
  sharded_config.num_shards = 4;
  sharded_config.cache.capacity_bytes = budget;
  sharded_config.cache.high_watermark = 1e12;
  ShardedExampleCache sharded(embedder, sharded_config);

  std::vector<uint64_t> single_ids;
  std::vector<uint64_t> sharded_ids;
  for (const Request& request : requests) {
    single_ids.push_back(single.Put(request, "response", 0.8, 0.9, 60, 0.0));
    sharded_ids.push_back(sharded.Put(request, "response", 0.8, 0.9, 60, 0.0));
  }
  ASSERT_EQ(single.size(), sharded.size());  // same admitted set

  // Long-tailed offload values, identical across the two stores.
  for (size_t i = 0; i < requests.size(); ++i) {
    const double value = (i % 10 == 0) ? 50.0 : (i % 3 == 0 ? 5.0 : 0.2);
    single.RecordOffload(single_ids[i], value);
    sharded.RecordOffload(sharded_ids[i], value);
  }

  EXPECT_FALSE(single.EnforceCapacity().empty());
  EXPECT_FALSE(sharded.EnforceCapacity().empty());
  EXPECT_LE(single.used_bytes(), budget);
  EXPECT_LE(sharded.used_bytes(), budget);

  auto retained_value = [](auto& store) {
    double total = 0.0;
    for (uint64_t id : store.AllIds()) {
      Example example;
      if (store.Snapshot(id, &example)) {
        total += example.offload_value;
      }
    }
    return total;
  };
  const double single_retained = retained_value(single);
  const double sharded_retained = retained_value(sharded);
  ASSERT_GT(single_retained, 0.0);
  // Per-shard knapsack is a partitioned approximation of the global one:
  // survivor utility must be comparable, not collapsed.
  EXPECT_GE(sharded_retained, 0.6 * single_retained);
}

TEST(ShardedEvictionInvariantsTest, InsertPastWatermarkEnforcesAutomatically) {
  ShardedCacheConfig config;
  config.num_shards = 4;
  config.cache.capacity_bytes = 8 * 1024;
  ShardedExampleCache cache(std::make_shared<HashingEmbedder>(), config);
  for (uint64_t i = 1; i <= 300; ++i) {
    cache.Put(MakeRequest(i, "filler entry number " + std::to_string(i) +
                                 " with some padding text"),
              "some response body", 0.8, 0.9, 50, 0.0);
    // No caller-side EnforceCapacity: the insert path must keep the global
    // budget on its own, at every step.
    ASSERT_LE(static_cast<double>(cache.used_bytes()),
              static_cast<double>(config.cache.capacity_bytes) * config.cache.high_watermark)
        << "after insert " << i;
  }
  EXPECT_LT(cache.size(), 300u);
  EXPECT_GT(cache.evicted_total(), 0u);
}

TEST(ShardedEvictionInvariantsTest, UpdateExampleRefreshesByteAccounting) {
  ShardedExampleCache cache(std::make_shared<HashingEmbedder>(), ShardedCacheConfig{});
  const uint64_t id = cache.Put(MakeRequest(9, "byte accounting probe"), "r", 0.5, 0.9, 10, 0.0);
  const int64_t before = cache.used_bytes();
  // Replay can grow the stored response; the byte counter must follow
  // (4 bytes per token in Example::SizeBytes).
  ASSERT_TRUE(cache.UpdateExample(id, [](Example& example) { example.response_tokens += 25; }));
  EXPECT_EQ(cache.used_bytes(), before + 4 * 25);
  ASSERT_TRUE(cache.UpdateExample(id, [](Example& example) { example.response_tokens -= 25; }));
  EXPECT_EQ(cache.used_bytes(), before);
}

// Concurrent churn over the full lifecycle surface: writers admit, updaters
// fold gain EMAs, readers search + snapshot, and a maintenance thread decays
// and evicts — all at once. Afterwards the global byte counter must equal
// the exact sum of the survivors' sizes (no drift), which TSan also uses to
// police the locking of the new UpdateExample/EnforceCapacity paths.
TEST(ShardedLifecycleConcurrencyTest, ByteAccountingExactUnderConcurrentChurn) {
  ShardedCacheConfig config;
  config.num_shards = 8;
  config.cache.capacity_bytes = 64 * 1024;
  auto cache = std::make_shared<ShardedExampleCache>(std::make_shared<HashingEmbedder>(), config);

  ThreadPool pool(8);
  constexpr int kWriters = 4;
  constexpr int kPutsPerWriter = 150;
  for (int w = 0; w < kWriters; ++w) {
    pool.Submit([cache, w] {
      for (int i = 0; i < kPutsPerWriter; ++i) {
        const uint64_t rid = static_cast<uint64_t>(w) * 100000 + static_cast<uint64_t>(i) + 1;
        const uint64_t id = cache->Put(
            MakeRequest(rid, "writer " + std::to_string(w) + " item " + std::to_string(i)),
            "response body text", 0.8, 0.9, 25, 0.0);
        if (id != 0 && i % 3 == 0) {
          cache->UpdateExample(id, [](Example& example) {
            example.replay_gain_ema = 0.5 * example.replay_gain_ema + 0.1;
            example.response_tokens += 2;
          });
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    pool.Submit([cache, r] {
      for (int i = 0; i < 200; ++i) {
        for (const SearchResult& result :
             cache->FindSimilar(MakeRequest(0, "writer 1 item " + std::to_string(i % 40)), 4)) {
          Example example;
          cache->Snapshot(result.id, &example);
        }
        (void)r;
      }
    });
  }
  pool.Submit([cache] {
    for (int i = 0; i < 20; ++i) {
      cache->DecayTick();
      cache->EnforceCapacity();
    }
  });
  pool.Wait();

  int64_t exact = 0;
  for (uint64_t id : cache->AllIds()) {
    Example example;
    ASSERT_TRUE(cache->Snapshot(id, &example));
    exact += example.SizeBytes();
  }
  EXPECT_EQ(cache->used_bytes(), exact);
  EXPECT_LE(cache->used_bytes(), config.cache.capacity_bytes);
}

}  // namespace
}  // namespace iccache
