// Benchmark workloads: each sets only traffic and deployment settings (seed,
// pool threads, byte budget, stage-0 on/off, checkpoint cadence); every
// policy and index setting stays at its DriverConfig default, so a change to
// a default is measured the way users get it.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/llm/model_profile.h"
#include "src/serving/driver.h"
#include "src/workload/request.h"

namespace perfbench {

struct WorkloadSpec {
  const char* name;
  size_t seed_pool;              // large-model examples seeded before serving
  size_t requests;               // trace length one Run drains
  double mean_rps;               // simulated Poisson arrival rate
  int64_t capacity_bytes;        // total pool byte budget; <= 0 unbounded
  bool stage0;                   // stage-0 response tier
  double checkpoint_interval_s;  // simulated seconds; 0 disables checkpoints
  double repeat_fraction;        // verbatim repeats after the warm-up eighth
};

// The workload table; nullptr when `name` is unknown.
const WorkloadSpec* FindWorkload(const std::string& name);
std::vector<std::string> WorkloadNames();

// Everything a run serves, generated from the workload seed alone.
struct Inputs {
  std::vector<iccache::Request> pool;   // seed-pool examples
  std::vector<iccache::Request> trace;  // the measured trace (spec.requests)
  // Continuation of the same stream after `trace`, used only by the traced
  // layer pass so it never replays requests the pool has already seen.
  std::vector<iccache::Request> tail;
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed, size_t tail_requests);

// Share of requests whose text equals an earlier request's text.
double RepeatShare(const std::vector<iccache::Request>& requests);

// Driver configuration for the workload. A non-empty `checkpoint_path`
// enables the workload's periodic checkpoints there.
iccache::DriverConfig MakeConfig(const WorkloadSpec& spec, uint64_t seed, size_t num_threads,
                                 const std::string& checkpoint_path);

// Constructs the driver and seeds its example pool (the timed setup).
std::unique_ptr<iccache::ServingDriver> BuildDriver(const iccache::DriverConfig& config,
                                                    const iccache::ModelCatalog& catalog,
                                                    const Inputs& inputs);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
