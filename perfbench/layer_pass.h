// The traced layer pass: after the traced Run, the benchmark drives the
// driver's layers itself through their public functions, one window at a
// time over requests the pool has not seen yet, and records a span around
// every call. Layer state is the driver's own post-run state, so each layer
// works at the workload's steady-state size (pool, stage-0 entries, bandit
// posteriors).
#ifndef PERFBENCH_LAYER_PASS_H_
#define PERFBENCH_LAYER_PASS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/span_log.h"
#include "src/llm/model_profile.h"
#include "src/serving/driver.h"
#include "src/workload/request.h"

namespace perfbench {

// Outcome counts of the pass (the span log holds the times).
struct LayerCounts {
  size_t requests = 0;
  size_t pool_examples = 0;   // stage-1 pool size when the pass starts
  size_t stage0_hits = 0;     // confident stage-0 probes
  size_t candidates = 0;      // stage-2 candidates scored
  size_t kept = 0;            // candidates the frozen selection kept
  size_t routed = 0;
  size_t routed_small = 0;    // routed to the small model with examples
  size_t admit_attempts = 0;  // CommitAdmission calls
  size_t admitted = 0;
  size_t ticks = 0;           // maintenance ticks planned and applied
  size_t evicted = 0;
  size_t snapshot_bytes = 0;
};

// Runs the pass over `requests` (arrival-ordered, after the driver's last
// served request). Mutates the driver the way serving would: admissions,
// maintenance ticks, cluster submissions. Finally saves a snapshot of the
// driver to `snapshot_path` and restores it into a fresh driver built from
// `restore_config`, timing both; the file is removed afterwards.
// Returns false when the save or the restore fails.
bool RunLayerPass(iccache::ServingDriver& driver, const iccache::ModelCatalog& catalog,
                  const std::vector<iccache::Request>& requests, uint64_t seed,
                  const std::string& snapshot_path,
                  const iccache::DriverConfig& restore_config, SpanLog& log,
                  LayerCounts* counts);

}  // namespace perfbench

#endif  // PERFBENCH_LAYER_PASS_H_
