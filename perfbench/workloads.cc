#include "perfbench/workloads.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "src/common/rng.h"
#include "src/workload/dataset.h"
#include "src/workload/query_generator.h"
#include "src/workload/trace.h"

namespace perfbench {

using iccache::DriverConfig;
using iccache::Request;

namespace {

// LMSys traffic at 3 simulated rps, well below the saturation of the default
// 2 + 2 replica cluster (8 rps builds a growing backlog). Each workload
// stresses a different layer; BENCHMARK.json records why each was chosen.
constexpr WorkloadSpec kWorkloads[] = {
    // Admission, eviction, maintenance and checkpoints beside cheap reads.
    // The 512 KiB budget keeps every maintenance apply re-running the
    // per-shard knapsack: at 1 MiB only the occasional tick whose publish lag
    // admitted more than the low watermark's slack did, and that rare-event
    // count swung host metrics by about 30% from seed to seed (4-core host).
    {"churn_bounded", /*seed_pool=*/2000, /*requests=*/8000, /*mean_rps=*/3.0,
     /*capacity_bytes=*/512 << 10, /*stage0=*/false, /*checkpoint_interval_s=*/120.0,
     /*repeat_fraction=*/0.0},
    // Stage-1 retrieval over a large warm pool; no eviction ever runs.
    {"reads_50k", /*seed_pool=*/50000, /*requests=*/6000, /*mean_rps=*/3.0,
     /*capacity_bytes=*/-1, /*stage0=*/false, /*checkpoint_interval_s=*/0.0,
     /*repeat_fraction=*/0.0},
    // Verbatim repeats for the stage-0 tier: the probe and the serial merge's
    // stage-0 inserts dominate, and hits skip routing and generation. 8k
    // requests let the learned hit threshold settle; at 4k the hit rate
    // ranged 36-58% across seeds.
    {"repeats_stage0", /*seed_pool=*/2000, /*requests=*/8000, /*mean_rps=*/3.0,
     /*capacity_bytes=*/-1, /*stage0=*/true, /*checkpoint_interval_s=*/0.0,
     /*repeat_fraction=*/0.5},
};

// The Table 1 LMSys profile scaled to `pool_size` examples at the full-size
// dataset's examples-per-topic density (the scaling every paper harness
// uses), so retrieval hit characteristics stay comparable across pool sizes.
iccache::DatasetProfile ScaledLmsys(size_t pool_size) {
  iccache::DatasetProfile profile = iccache::GetDatasetProfile(iccache::DatasetId::kLmsysChat);
  pool_size = std::min(pool_size, profile.example_pool_size);
  const double scale =
      static_cast<double>(pool_size) / static_cast<double>(profile.example_pool_size);
  profile.num_topics = std::max<size_t>(
      40, static_cast<size_t>(static_cast<double>(profile.num_topics) *
                              std::min(1.0, scale * 8.0)));
  profile.example_pool_size = pool_size;
  return profile;
}

// Rewrites a `fraction` of the requests after the first `warmup` into
// verbatim repeats of earlier ones; ids and arrival times stay their own.
void MakeRepeats(std::vector<Request>* requests, size_t warmup, double fraction, uint64_t seed) {
  iccache::Rng rng(seed);
  for (size_t i = std::max<size_t>(warmup, 1); i < requests->size(); ++i) {
    if (!rng.Bernoulli(fraction)) {
      continue;
    }
    const Request& source = (*requests)[rng.UniformInt(static_cast<uint64_t>(i))];
    Request& repeat = (*requests)[i];
    const uint64_t id = repeat.id;
    const double arrival = repeat.arrival_time;
    repeat = source;
    repeat.id = id;
    repeat.arrival_time = arrival;
  }
}

}  // namespace

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

std::vector<std::string> WorkloadNames() {
  std::vector<std::string> names;
  for (const WorkloadSpec& spec : kWorkloads) {
    names.emplace_back(spec.name);
  }
  return names;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, size_t tail_requests) {
  const iccache::DatasetProfile profile = ScaledLmsys(spec.seed_pool);
  Inputs inputs;
  iccache::QueryGenerator seeder(profile, iccache::Mix64(seed ^ 0x5eedb));
  inputs.pool = seeder.Generate(spec.seed_pool);

  // Poisson arrivals: draw a long enough window, then cut the stream to
  // exactly the stated input size.
  const size_t total = spec.requests + tail_requests;
  iccache::TraceConfig trace;
  trace.kind = iccache::TraceKind::kPoisson;
  trace.mean_rps = spec.mean_rps;
  trace.seed = iccache::Mix64(seed ^ 0x7ace);
  std::vector<Request> stream;
  for (double duration = 1.25 * static_cast<double>(total) / spec.mean_rps + 60.0;
       stream.size() < total; duration *= 2.0) {
    trace.duration_s = duration;
    stream = iccache::ServingDriver::MakeWorkload(profile, trace, iccache::Mix64(seed ^ 0x9e4));
  }
  stream.resize(total);
  if (spec.repeat_fraction > 0.0) {
    MakeRepeats(&stream, spec.requests / 8, spec.repeat_fraction,
                iccache::Mix64(seed ^ 0xd0b1e));
  }
  inputs.tail.assign(stream.begin() + static_cast<std::ptrdiff_t>(spec.requests), stream.end());
  stream.resize(spec.requests);
  inputs.trace = std::move(stream);
  return inputs;
}

double RepeatShare(const std::vector<Request>& requests) {
  if (requests.empty()) {
    return 0.0;
  }
  std::unordered_set<std::string> seen;
  size_t repeats = 0;
  for (const Request& request : requests) {
    repeats += seen.insert(request.text).second ? 0 : 1;
  }
  return static_cast<double>(repeats) / static_cast<double>(requests.size());
}

DriverConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed, size_t num_threads,
                        const std::string& checkpoint_path) {
  DriverConfig config;
  config.seed = iccache::Mix64(seed ^ 0xd21e5);
  config.num_threads = num_threads;
  config.cache.cache.capacity_bytes = spec.capacity_bytes;
  config.stage0.enabled = spec.stage0;
  if (!checkpoint_path.empty() && spec.checkpoint_interval_s > 0.0) {
    config.snapshot_path = checkpoint_path;
    config.checkpoint_interval_s = spec.checkpoint_interval_s;
  }
  return config;
}

std::unique_ptr<iccache::ServingDriver> BuildDriver(const DriverConfig& config,
                                                    const iccache::ModelCatalog& catalog,
                                                    const Inputs& inputs) {
  auto driver = std::make_unique<iccache::ServingDriver>(config, &catalog);
  for (const Request& request : inputs.pool) {
    driver->SeedExample(request, 0.0);
  }
  return driver;
}

}  // namespace perfbench
