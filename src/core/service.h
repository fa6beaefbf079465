// IcCacheService: the synchronous Algorithm-1 facade tying the Example
// Selector, Request Router, and Example Manager together in front of the
// model backends. All policy logic is shared with the concurrent
// ServingDriver: selection in ExampleSelector, routing + fault bypass in
// src/core/pipeline.h, and the example lifecycle in ExampleManager over the
// ExampleStore interface — this class only sequences the steps and layers on
// the observed-feedback model, overhead accounting, and metrics.
//
//   ServeRequest:
//     1. RetrieveExamples  — two-stage selection targeting the small model;
//     2. RouteRequest      — bandit + load bias chooses the serving model;
//     3. GenerateResponse  — examples are prepended iff the chosen arm uses
//                            them (offloaded small-model serving);
//     4. ManageExamples    — feedback to router/selector, per-use gain
//                            accounting, admission of the new pair.
//
// Fault tolerance (section 5): when the selector or router component is
// marked failed, the request bypasses it — no examples, or a direct route to
// the default (large) backend — preserving service continuity.
#ifndef SRC_CORE_SERVICE_H_
#define SRC_CORE_SERVICE_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/common/stats.h"
#include "src/common/status.h"
#include "src/core/example_cache.h"
#include "src/core/manager.h"
#include "src/core/metrics.h"
#include "src/core/proxy_model.h"
#include "src/core/router.h"
#include "src/core/selector.h"
#include "src/core/stage0_cache.h"
#include "src/llm/generation.h"
#include "src/llm/model_profile.h"
#include "src/obs/watchdog.h"

namespace iccache {

struct ServiceConfig {
  std::string small_model = "gemma-2-2b";
  std::string large_model = "gemma-2-27b";

  // Stage-0 response tier: probe a bounded semantic response cache before
  // stage-1 retrieval; a confident hit serves the cached response at zero
  // generation cost. Off by default. The learned hit threshold, TTL, and
  // quality-feedback invalidation all live in Stage0Config.
  Stage0Config stage0;

  SelectorConfig selector;
  RouterConfig router;
  ManagerConfig manager;
  ExampleCacheConfig cache;

  // Observed-feedback model: user quality signals are noisy reads of the
  // latent quality, sampled at this rate (production systems sample ~1%; the
  // experiments use 1.0 to keep learning fast at small request counts).
  double feedback_noise = 0.08;
  double feedback_sample_rate = 1.0;
  // Preference comparisons on uncertainty-gated requests (Appendix A.2).
  bool enable_preference_feedback = true;
  // Fraction of offloaded requests probed with a shadow plain generation to
  // measure the examples' true gain (threshold adaptation, section 4.1).
  double selector_probe_rate = 0.08;

  // Component overheads charged per request (section 6.3, Figure 18).
  double selector_stage1_latency_s = 0.020;
  double selector_stage2_latency_s = 0.030;
  double router_latency_s = 0.010;
  double stage0_probe_latency_s = 0.004;  // embed + ANN probe (stage-0 only)

  // Persistence (src/persist): with `snapshot_path` set, `restore_on_start`
  // warm-starts the service from that file at construction (missing file =
  // cold start; other failures surface via restore_status()). SaveSnapshot
  // writes the same pool format the concurrent ServingDriver uses, so
  // snapshots interchange between the two stacks.
  std::string snapshot_path;
  bool restore_on_start = false;

  // Observability: the service snapshots its MetricsHub every
  // `metrics_window` requests (0 disables) and evaluates the SLO watchdog on
  // each snapshot. All watchdog rules default to disabled; note the service
  // exposes stage-0 counters without the `_total` suffix, which the
  // constructor rewires automatically.
  size_t metrics_window = 64;
  WatchdogConfig watchdog;

  uint64_t seed = 0x5e41;
};

struct ServeOutcome {
  GenerationResult generation;
  RouteDecision route;
  std::vector<SelectedExample> examples_used;  // empty when not offloaded
  bool offloaded = false;                      // served by the small model
  double overhead_latency_s = 0.0;             // selector + router overhead
  uint64_t admitted_example_id = 0;
  double observed_quality = 0.0;               // post-noise feedback signal

  // Stage-0 hit: the response was served from the response cache (zero
  // generation cost; generation.output_tokens == 0, no routing happened).
  bool stage0_hit = false;
  double stage0_similarity = 0.0;
};

class IcCacheService {
 public:
  IcCacheService(ServiceConfig config, const ModelCatalog* catalog,
                 GenerationSimulator* generator, std::shared_ptr<const Embedder> embedder);

  // Seeds the example pool with a historical request answered by the large
  // model (the paper's pool-initialization protocol, Appendix A.4).
  uint64_t SeedExample(const Request& request, double now);

  // Offline proxy training (section 4.1): the serving platform samples
  // requests, shadow-generates the small model's response with and without a
  // candidate example, and uses the contrast as the helpfulness label — the
  // reward-model/feedback pipeline the paper trains its TinyBERT proxy on.
  // Half the samples pair a query with a retrieved neighbour (hard
  // positives), half with a random example (negatives).
  void PretrainProxy(size_t num_samples);

  // Full Algorithm-1 serving path.
  ServeOutcome ServeRequest(const Request& request, double now);

  // Current cluster utilization (1.0 == at capacity) from the harness.
  void ObserveLoad(double load);

  // Periodic maintenance on the driver's plan + apply path, run in-line:
  // a decay + knapsack-eviction tick once the decay interval has elapsed,
  // a proxy refresh, then one cost-aware replay tick whose draws come from
  // the generator's own stream.
  void RunMaintenance(double now);

  // Fault injection (section 5).
  void set_selector_failed(bool failed) { selector_failed_ = failed; }
  void set_router_failed(bool failed) { router_failed_ = failed; }

  // --- Persistence ---------------------------------------------------------

  // Atomically writes the full learned state: pool, selector/manager/proxy/
  // router adaptation, the service feedback RNG and baseline-quality EMA,
  // and the (caller-owned) generator's sampling stream.
  Status SaveSnapshot(const std::string& path);

  // Restores into this freshly constructed service (the cache must be
  // empty). A restored service continues byte-identically to the one that
  // wrote the snapshot. Note the generator stream is restored into the
  // caller-owned GenerationSimulator.
  Status RestoreSnapshot(const std::string& path);

  const Status& restore_status() const { return restore_status_; }
  bool restored_from_snapshot() const { return restored_from_snapshot_; }

  ExampleCache& cache() { return cache_; }
  const ExampleCache& cache() const { return cache_; }
  ExampleSelector& selector() { return selector_; }
  RequestRouter& router() { return router_; }
  ExampleManager& manager() { return manager_; }
  Stage0ResponseCache& stage0() { return stage0_; }
  ProxyUtilityModel& proxy() { return proxy_; }
  MetricsRegistry& metrics() { return metrics_; }
  // The hub behind metrics(): histograms, window series, Prometheus export.
  MetricsHub& metrics_hub() { return hub_; }
  const MetricsHub& metrics_hub() const { return hub_; }
  // Anomalies the SLO watchdog has fired so far (empty unless configured).
  const std::vector<WatchdogEvent>& anomalies() const { return watchdog_.events(); }
  const ServiceConfig& config() const { return config_; }
  const ModelProfile& small_model() const { return small_model_; }
  const ModelProfile& large_model() const { return large_model_; }

 private:
  std::vector<ExampleView> BuildExampleViews(const Request& request,
                                             const std::vector<SelectedExample>& selected);

  // Per-request epilogue: e2e histogram observation (with the request id as
  // the bucket exemplar), window-cadence hub snapshots, and watchdog
  // evaluation. Strictly passive — no RNG, no effect on serving decisions.
  void FinishRequest(const ServeOutcome& outcome);

  ServiceConfig config_;
  const ModelCatalog* catalog_;
  GenerationSimulator* generator_;
  ModelProfile small_model_;
  ModelProfile large_model_;

  ExampleCache cache_;
  Stage0ResponseCache stage0_;
  ProxyUtilityModel proxy_;
  ExampleSelector selector_;
  RequestRouter router_;
  ExampleManager manager_;
  MetricsHub hub_;
  MetricsRegistry metrics_{&hub_};  // legacy-name facade over hub_
  SloWatchdog watchdog_;
  Ema baseline_quality_;
  Rng rng_;

  size_t requests_in_window_ = 0;
  uint64_t window_index_ = 0;

  bool selector_failed_ = false;
  bool router_failed_ = false;

  // Latest `now` this service has observed; stamps snapshots so a warm
  // start (service or driver) resumes the maintenance cadence on the same
  // clock as the manager's decay cursor.
  double last_now_ = 0.0;
  Status restore_status_;
  bool restored_from_snapshot_ = false;
};

}  // namespace iccache

#endif  // SRC_CORE_SERVICE_H_
