// Offline maintenance scenario (section 4.3): what the Example Manager does
// during off-peak hours. Shows the cost-aware replay ranking (G(e) EMA), the
// best-of-n refinement of hot low-quality examples, the hourly utility decay,
// and knapsack eviction under a byte budget — then snapshots the improved
// pool and warm-starts a SECOND service from the file, verifying the
// replay-earned quality survives the process boundary (the persistence
// subsystem's whole point: off-peak work is never lost to a restart).
//
//   $ ./examples/offline_replay
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "src/core/service.h"
#include "src/workload/query_generator.h"

int main() {
  using namespace iccache;

  ModelCatalog catalog;
  GenerationSimulator backend(77);
  auto embedder = std::make_shared<HashingEmbedder>();

  ServiceConfig config;
  config.cache.capacity_bytes = 512 * 1024;  // tight on-disk budget
  IcCacheService service(config, &catalog, &backend, embedder);

  DatasetProfile profile = GetDatasetProfile(DatasetId::kOpenOrca);
  profile.num_topics = 300;
  QueryGenerator history(profile, 78);
  for (int i = 0; i < 1500; ++i) {
    service.SeedExample(history.Next(), 0.0);
  }
  service.PretrainProxy(800);

  // A day of traffic accumulates usage statistics on the cache.
  QueryGenerator day(profile, 79);
  for (int i = 0; i < 1000; ++i) {
    service.ServeRequest(day.Next(), static_cast<double>(i));
  }

  // Inspect the replay ranking before the pass.
  ExampleCache& cache = service.cache();
  std::vector<const Example*> examples;
  for (uint64_t id : cache.AllIds()) {
    examples.push_back(cache.Get(id));
  }
  std::sort(examples.begin(), examples.end(), [](const Example* a, const Example* b) {
    return a->replay_gain_ema > b->replay_gain_ema;
  });
  std::printf("cache: %zu examples, %.0f KB used (budget %.0f KB)\n", cache.size(),
              cache.used_bytes() / 1024.0, config.cache.capacity_bytes / 1024.0);
  std::printf("top replay candidates by G(e) EMA:\n");
  for (size_t i = 0; i < 5 && i < examples.size(); ++i) {
    std::printf("  G=%.3f q=%.2f accesses=%llu replays=%d  %.48s\n",
                examples[i]->replay_gain_ema, examples[i]->response_quality,
                static_cast<unsigned long long>(examples[i]->access_count),
                examples[i]->replay_count, examples[i]->request.text.c_str());
  }

  // Off-peak replay passes: best-of-n regeneration of the ranked head.
  double quality_gain_total = 0.0;
  MaintenanceTickSpec replay_tick;
  replay_tick.replay = true;
  for (int pass = 0; pass < 4; ++pass) {
    const MaintenanceApplyOutcome report =
        service.manager().RunMaintenanceTick(replay_tick, backend.rng());
    quality_gain_total += report.total_quality_gain;
    std::printf("replay pass %d: %zu candidates, %zu replayed, %zu improved (+%.2f quality)\n",
                pass, report.replay_candidates, report.replayed, report.improved,
                report.total_quality_gain);
  }
  std::printf("total stored-quality gain from replay: %.2f\n", quality_gain_total);

  // Hourly maintenance: decay + knapsack eviction to the byte budget.
  service.RunMaintenance(3600.0 * 2);
  std::printf("after maintenance: %zu examples, %.0f KB used (within budget: %s)\n",
              cache.size(), cache.used_bytes() / 1024.0,
              cache.used_bytes() <= config.cache.capacity_bytes ? "yes" : "no");

  // Persist the refined pool and warm-start a second service from the file —
  // a restarted off-peak worker must not redo (or lose) tonight's replays.
  const std::string snapshot_path =
      "/tmp/iccache_offline_replay_" + std::to_string(::getpid()) + ".snap";
  const Status saved = service.SaveSnapshot(snapshot_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "snapshot failed: %s\n", saved.ToString().c_str());
    return 1;
  }

  ServiceConfig warm_config = config;
  warm_config.snapshot_path = snapshot_path;
  warm_config.restore_on_start = true;
  GenerationSimulator warm_backend(77);
  IcCacheService warm(warm_config, &catalog, &warm_backend, embedder);
  std::remove(snapshot_path.c_str());
  if (!warm.restored_from_snapshot() || !warm.restore_status().ok()) {
    std::fprintf(stderr, "warm start failed: %s\n", warm.restore_status().ToString().c_str());
    return 1;
  }

  // The replayed gains must survive the round trip: every example the first
  // service refined comes back with the same improved quality and replay
  // budget consumed, and the byte accounting is exact.
  ExampleCache& warm_cache = warm.cache();
  bool round_trip_ok = warm_cache.size() == cache.size() &&
                       warm_cache.used_bytes() == cache.used_bytes();
  size_t replayed_checked = 0;
  for (uint64_t id : cache.AllIds()) {
    const Example* before = cache.Get(id);
    const Example* after = warm_cache.Get(id);
    if (after == nullptr) {
      round_trip_ok = false;
      break;
    }
    if (before->replay_count > 0) {
      ++replayed_checked;
      round_trip_ok = round_trip_ok &&
                      after->response_quality == before->response_quality &&
                      after->replay_count == before->replay_count &&
                      after->replay_gain_ema == before->replay_gain_ema;
    }
  }
  std::printf("warm start from snapshot: %zu examples, %zu replay-refined records verified "
              "bit-identical: %s\n",
              warm_cache.size(), replayed_checked, round_trip_ok ? "yes" : "NO (BUG)");
  return round_trip_ok && replayed_checked > 0 ? 0 : 1;
}
