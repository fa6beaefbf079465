// perfbench: the repository benchmark. Drives ServingDriver::Run over one
// seeded workload and prints every metric with its unit, then one JSON
// result line (the last line of standard output):
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//
// (perfbench/run.py builds the program and supplies --work-dir.)
//
// Workloads (perfbench/workloads.cc): churn_bounded, reads_50k,
// repeats_stage0 — LMSys traffic, Poisson arrivals at 3 simulated rps. The
// arrivals are open-loop in SIMULATED time only: on the host one caller
// drains the whole trace through Run (offline), so host throughput is
// reported at the workload's stated input size.
//
// The seed pool is built once per process and snapshotted; every measured
// Run starts from a driver warm-started from that snapshot, so all Runs of a
// seed serve identical state.
//
// --trace 0 (end-to-end): after one untimed warm-up, repeats {warm-start a
// driver, Run(trace)} until --seconds have passed (at least three times) and
// reports:
//   host_rps        requests drained per host-second around Run, from the
//                   fastest repetition
//   cpu_us_per_req  process CPU time (all threads) during Run, per request,
//                   from the repetition that used the least
//   setup_s         constructing the driver and restoring the seeded pool
//                   (median)
//   peak_rss_mb     peak resident memory of the process
//   sim_*           simulated TTFT / end-to-end latency percentiles over the
//                   cluster's completions (exact, nearest rank)
//   mean_quality, offload_frac, gen_tokens_per_req
// The simulated metrics are seed-deterministic; host metrics depend on the
// machine, so the run prints nproc and the SIMD kernel level.
//
// --trace 1 (per-layer): three pairs of an untraced and a traced Run (program
// trace recorder on, benchmark span around Run), then the layer pass
// (perfbench/layer_pass.h) that times each layer's public functions from
// here. Spans are written as Chrome trace-event JSON under
// <work-dir>/traces/.
//
// Correctness, checked on every Run: each request gets exactly one decision,
// in arrival order; completions plus stage-0 hits equal the requests; a
// bounded pool ends within its byte budget; repeated Runs of the same inputs
// give the same decision digest; and the digest of a one-thread Run over a
// prefix equals the benchmark thread count's digest of the same prefix.
// Requests failing a check count in `failed`, and the program exits 1.
#include <sched.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/layer_pass.h"
#include "perfbench/span_log.h"
#include "perfbench/workloads.h"
#include "src/common/simd.h"
#include "src/obs/export.h"
#include "src/obs/trace.h"

namespace perfbench {
namespace {

using iccache::DriverReport;
using iccache::Request;
using iccache::ServingDriver;

constexpr size_t kMinReps = 3;
constexpr size_t kMaxReps = 64;
// Determinism prefix: whole batch windows, so the prefix Run serves exactly
// the windows the full Run opens with.
constexpr size_t kPrefixRequests = 512;
// Requests the traced layer pass drives through the layers.
constexpr size_t kLayerPassRequests = 1024;
// Untraced/traced Run pairs behind bench.trace_overhead_frac.
constexpr size_t kOverheadPairs = 3;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string work_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (end == value || *end != '\0') {
        return false;
      }
    } else if (flag == "--trace") {
      args->trace = std::strcmp(value, "0") == 0 ? 0 : std::strcmp(value, "1") == 0 ? 1 : -1;
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_seed && args->seconds > 0.0 && args->trace >= 0 &&
         !args->work_dir.empty() && FindWorkload(args->workload) != nullptr;
}

double ProcessCpuSeconds() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

size_t Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(std::max(1, CPU_COUNT(&set)));
  }
  return 1;
}

double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

// Nearest-rank percentile of unsorted samples.
double Percentile(std::vector<double> values, double pct) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

// FNV-1a over the first `count` decisions (id, model, offload, examples,
// quality bits): the run's decision identity.
uint64_t DecisionDigest(const DriverReport& report, size_t count) {
  uint64_t hash = 0xcbf29ce484222325ull;
  const auto mix = [&hash](const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash = (hash ^ bytes[i]) * 0x100000001b3ull;
    }
  };
  count = std::min(count, report.decisions.size());
  for (size_t i = 0; i < count; ++i) {
    const iccache::DriverDecision& d = report.decisions[i];
    const uint8_t offloaded = d.offloaded ? 1 : 0;
    const uint64_t examples = d.num_examples;
    mix(&d.request_id, sizeof(d.request_id));
    mix(d.model_name.data(), d.model_name.size());
    mix(&offloaded, 1);
    mix(&examples, sizeof(examples));
    mix(&d.latent_quality, sizeof(d.latent_quality));
  }
  return hash;
}

// Requests of one Run that fail the per-Run checks; reasons go to stdout.
size_t CheckRun(const WorkloadSpec& spec, const std::vector<Request>& requests,
                ServingDriver& driver, const DriverReport& report) {
  size_t failed = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (i >= report.decisions.size() || report.decisions[i].request_id != requests[i].id) {
      ++failed;
    }
  }
  if (failed > 0 || report.decisions.size() != requests.size()) {
    std::printf("  CHECK FAILED: %zu decisions for %zu requests, %zu out of place\n",
                report.decisions.size(), requests.size(), failed);
  }
  const size_t served = report.completions.size() + report.stage0_hits;
  if (served != requests.size()) {
    std::printf("  CHECK FAILED: %zu completions + %zu stage-0 hits != %zu requests\n",
                report.completions.size(), report.stage0_hits, requests.size());
    failed = std::max(failed, served > requests.size() ? served - requests.size()
                                                       : requests.size() - served);
  }
  const int64_t used = driver.cache().used_bytes();
  if (spec.capacity_bytes > 0 && used > spec.capacity_bytes) {
    std::printf("  CHECK FAILED: pool holds %" PRId64 " bytes, budget %" PRId64 "\n", used,
                static_cast<int64_t>(spec.capacity_bytes));
    failed = requests.size();
  }
  return failed;
}

double MeanInflight(const ServingDriver& driver) {
  double sum = 0.0;
  size_t windows = 0;
  for (const iccache::MetricsWindowSample& sample : driver.metrics_hub().series()) {
    for (const auto& [name, value] : sample.values) {
      if (name == "cluster_inflight") {
        sum += value;
        ++windows;
      }
    }
  }
  return windows > 0 ? sum / static_cast<double>(windows) : 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

// The metrics of one run, in print order.
struct Metrics {
  std::vector<Metric> list;

  void Add(const std::string& name, double value, const char* unit) {
    list.push_back({name, std::isfinite(value) ? value : 0.0, unit});
  }
};

// One measured Run: host timings plus the report.
struct Measured {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  size_t pool_start = 0;
  size_t pool_end = 0;
  double mean_inflight = 0.0;
  DriverReport report;
};

class Bench {
 public:
  Bench(const WorkloadSpec& spec, const Args& args)
      : spec_(spec),
        args_(args),
        threads_(std::max<size_t>(1, Nproc() - 1)),
        inputs_(MakeInputs(spec, args.seed, args.trace == 1 ? kLayerPassRequests : 0)),
        checkpoint_path_(args.work_dir + "/" + spec.name + "-" + std::to_string(::getpid()) +
                         ".snap"),
        pool_path_(args.work_dir + "/" + spec.name + "-" + std::to_string(::getpid()) +
                   ".pool.snap") {}

  int Main() {
    std::printf("perfbench workload=%s seed=%" PRIu64 " trace=%d\n", spec_.name, args_.seed,
                args_.trace);
    std::printf("  host: nproc=%zu pool_threads=%zu simd=%s\n", Nproc(), threads_,
                iccache::simd::KernelLevelName(iccache::simd::ActiveKernelLevel()));
    std::printf("  inputs: %zu requests at %.1f simulated rps, %zu seed examples, "
                "budget=%" PRId64 " B, stage0=%s, checkpoint every %.0f s\n",
                inputs_.trace.size(), spec_.mean_rps, inputs_.pool.size(),
                static_cast<int64_t>(spec_.capacity_bytes), spec_.stage0 ? "on" : "off",
                spec_.checkpoint_interval_s);
    // The seeded pool is built once and snapshotted; every measured Run
    // warm-starts from that image.
    const auto seed_start = std::chrono::steady_clock::now();
    const iccache::Status saved =
        BuildDriver(MakeConfig(spec_, args_.seed, threads_, /*checkpoint_path=*/""), catalog_,
                    inputs_)
            ->SaveSnapshot(pool_path_);
    if (!saved.ok()) {
      std::fprintf(stderr, "seeding the pool failed: %s\n", saved.ToString().c_str());
      return 1;
    }
    std::printf("  seeded pool: %.3f s\n", Since(seed_start));
    const Metrics metrics = args_.trace == 1 ? TracedPass() : EndToEnd();
    std::remove(checkpoint_path_.c_str());
    std::remove(pool_path_.c_str());
    return Finish(metrics);
  }

 private:
  // Warm-starts a driver from the seeded pool and drains `requests`. With a
  // span log, Run is traced: the program's trace recorder is on and a
  // driver.run span brackets the call.
  Measured Measure(size_t num_threads, const std::vector<Request>& requests,
                   SpanLog* log = nullptr, std::unique_ptr<ServingDriver>* keep = nullptr) {
    Measured m;
    const auto setup_start = std::chrono::steady_clock::now();
    auto driver = std::make_unique<ServingDriver>(
        MakeConfig(spec_, args_.seed, num_threads, checkpoint_path_), &catalog_);
    const iccache::Status restored = driver->RestoreSnapshot(pool_path_);
    m.setup_s = Since(setup_start);
    if (!restored.ok()) {
      std::printf("  CHECK FAILED: warm start: %s\n", restored.ToString().c_str());
      failed_ += requests.size();
    }
    m.pool_start = driver->cache().size();
    {
      std::optional<SpanLog::Scope> span;
      if (log != nullptr) {
        span.emplace(*log, "driver.run");
        iccache::TraceRecorder::Global().set_enabled(true);
      }
      const double cpu_start = ProcessCpuSeconds();
      const auto wall_start = std::chrono::steady_clock::now();
      m.report = driver->Run(requests);
      m.wall_s = Since(wall_start);
      m.cpu_s = ProcessCpuSeconds() - cpu_start;
      iccache::TraceRecorder::Global().set_enabled(false);
    }
    m.pool_end = driver->cache().size();
    m.mean_inflight = MeanInflight(*driver);
    failed_ += CheckRun(spec_, requests, *driver, m.report);
    attempted_ += requests.size();
    if (keep != nullptr) {
      *keep = std::move(driver);
    }
    return m;
  }

  void PrintProperties(const Measured& m) const {
    std::printf("  workload properties: repeat_share=%.4f pool_start=%zu pool_end=%zu "
                "mean_inflight=%.3f stage0_hits=%zu evicted=%zu checkpoints=%zu\n",
                RepeatShare(inputs_.trace), m.pool_start, m.pool_end, m.mean_inflight,
                m.report.stage0_hits, m.report.evicted_examples, m.report.checkpoints_taken);
  }

  void CheckDigest(const char* what, uint64_t expected, uint64_t actual, size_t requests) {
    const bool same = expected == actual;
    std::printf("  digest %-34s %016" PRIx64 " vs %016" PRIx64 ": %s\n", what, expected, actual,
                same ? "identical" : "MISMATCH");
    if (!same) {
      failed_ += requests;
    }
  }

  Metrics EndToEnd() {
    const size_t n = inputs_.trace.size();
    std::vector<Measured> reps;
    const auto start = std::chrono::steady_clock::now();
    // The process's first Run pays one-off costs (heap growth, first touch of
    // a fresh pool's pages) that later Runs do not: it is checked, not timed.
    const Measured warmup = Measure(threads_, inputs_.trace);
    std::printf("  warm-up: setup %.3f s  run %.3f s (not timed)\n", warmup.setup_s,
                warmup.wall_s);
    while (reps.size() < kMinReps || (Since(start) < args_.seconds && reps.size() < kMaxReps)) {
      reps.push_back(Measure(threads_, inputs_.trace));
      const Measured& m = reps.back();
      std::printf("  rep %2zu: setup %.3f s  run %.3f s (prepare %.3f, serial %.3f, "
                  "maintenance %.3f)  %.1f req/s  cpu %.1f us/req\n",
                  reps.size(), m.setup_s, m.wall_s, m.report.prepare_seconds,
                  m.report.serial_seconds, m.report.maintenance_seconds,
                  static_cast<double>(n) / m.wall_s, 1e6 * m.cpu_s / static_cast<double>(n));
    }
    const DriverReport& first = reps.front().report;
    const uint64_t digest = DecisionDigest(warmup.report, n);
    for (const Measured& m : reps) {
      if (DecisionDigest(m.report, n) != digest) {
        CheckDigest("repeated Run", digest, DecisionDigest(m.report, n), n);
      }
    }
    std::printf("  decision digest (%zu requests, %zu Runs agree unless noted): %016" PRIx64
                "\n",
                n, reps.size() + 1, digest);

    // Determinism contract: one thread over the prefix decides exactly what
    // the benchmark thread count decided for it.
    const size_t prefix = std::min(n, kPrefixRequests);
    const std::vector<Request> head(inputs_.trace.begin(),
                                    inputs_.trace.begin() + static_cast<std::ptrdiff_t>(prefix));
    const Measured single = Measure(1, head);
    CheckDigest(("prefix " + std::to_string(prefix) + " @1 vs @" + std::to_string(threads_) +
                 " threads")
                    .c_str(),
                DecisionDigest(first, prefix), DecisionDigest(single.report, prefix), prefix);
    PrintProperties(reps.front());

    std::vector<double> rps;
    std::vector<double> cpu;
    std::vector<double> setup = {single.setup_s};
    for (const Measured& m : reps) {
      rps.push_back(static_cast<double>(n) / m.wall_s);
      cpu.push_back(1e6 * m.cpu_s / static_cast<double>(n));
      setup.push_back(m.setup_s);
    }
    // Simulated latency over the cluster's completions (stage-0 hits never
    // reach the cluster; they show in offload_frac and gen_tokens_per_req).
    std::vector<double> ttft;
    std::vector<double> e2e;
    for (const iccache::CompletionRecord& record : first.completions) {
      ttft.push_back(record.Ttft());
      e2e.push_back(record.E2eLatency());
    }
    // The host metrics take the best repetition rather than the median. On a
    // shared host, other tenants slow the CPU itself (CPU time per request
    // grows with wall time), by an amount that changes within seconds. That
    // interference only ever adds time, so the least-disturbed repetition is
    // the steadiest estimate of the program's own cost from run to run.
    Metrics result;
    result.Add("host_rps", *std::max_element(rps.begin(), rps.end()), "1/s");
    result.Add("cpu_us_per_req", *std::min_element(cpu.begin(), cpu.end()), "us");
    result.Add("setup_s", Median(setup), "s");
    result.Add("peak_rss_mb", PeakRssMb(), "MB");
    result.Add("sim_ttft_p50_s", Percentile(ttft, 50), "s");
    result.Add("sim_ttft_p99_s", Percentile(ttft, 99), "s");
    result.Add("sim_e2e_p50_s", Percentile(e2e, 50), "s");
    result.Add("sim_e2e_p99_s", Percentile(e2e, 99), "s");
    result.Add("mean_quality", first.mean_quality, "score");
    result.Add("offload_frac",
               static_cast<double>(first.offloaded_requests + first.stage0_hits) /
                   static_cast<double>(n),
               "ratio");
    result.Add("gen_tokens_per_req",
               static_cast<double>(first.generated_tokens) / static_cast<double>(n),
               "tokens");
    return result;
  }

  Metrics TracedPass() {
    const size_t n = inputs_.trace.size();
    iccache::TraceRecorder& recorder = iccache::TraceRecorder::Global();
    recorder.set_ring_capacity(1 << 13);
    SpanLog log;
    // Alternating untraced/traced pairs give the tracing overhead; the last
    // traced Run's driver feeds the layer pass and its trace is exported.
    std::unique_ptr<ServingDriver> driver;
    Measured traced;
    std::vector<double> overhead;
    for (size_t pair = 0; pair < kOverheadPairs; ++pair) {
      const Measured untraced = Measure(threads_, inputs_.trace);
      recorder.Reset();
      traced = Measure(threads_, inputs_.trace, &log, &driver);
      overhead.push_back(traced.wall_s / untraced.wall_s - 1.0);
      CheckDigest("traced vs untraced Run", DecisionDigest(untraced.report, n),
                  DecisionDigest(traced.report, n), n);
    }
    PrintProperties(traced);

    LayerCounts counts;
    const bool layers_ok =
        RunLayerPass(*driver, catalog_, inputs_.tail, args_.seed, checkpoint_path_,
                     MakeConfig(spec_, args_.seed, threads_, /*checkpoint_path=*/""), log,
                     &counts);
    if (!layers_ok) {
      failed_ += counts.requests;
    }
    attempted_ += counts.requests;

    const std::string trace_dir = args_.work_dir + "/traces";
    const std::string layers_path = trace_dir + "/" + spec_.name + ".layers.json";
    const std::string program_path = trace_dir + "/" + spec_.name + ".program.json";
    ::mkdir(trace_dir.c_str(), 0755);  // EEXIST is fine; a real failure shows in the write
    iccache::Status written = log.WriteChromeTrace(layers_path);
    if (written.ok()) {
      written = iccache::WriteChromeTraceFile(program_path, recorder.TakeSnapshot(),
                                              driver->metrics_hub().series());
    }
    recorder.Reset();
    if (!written.ok()) {
      std::printf("  CHECK FAILED: trace export: %s\n", written.ToString().c_str());
      failed_ += counts.requests;
    } else {
      std::printf("  spans: %zu benchmark spans -> %s; program trace -> %s\n",
                  log.spans().size(), layers_path.c_str(), program_path.c_str());
    }

    const std::map<std::string, SpanLog::Total> totals = log.Totals();
    const auto seconds = [&totals](const char* name) {
      const auto it = totals.find(name);
      return it == totals.end() ? 0.0 : it->second.seconds;
    };
    const auto per = [](double value, size_t count) {
      return count > 0 ? value / static_cast<double>(count) : 0.0;
    };
    const size_t p = counts.requests;
    const DriverReport& r = traced.report;
    Metrics result;
    result.Add("embedding.embed_us_per_req", 1e6 * per(seconds("embedding.embed"), p), "us");
    result.Add("stage0.probe_us_per_req", 1e6 * per(seconds("stage0.probe"), p), "us");
    result.Add("stage0.hit_rate", per(static_cast<double>(counts.stage0_hits), p), "ratio");
    result.Add("retrieval.stage1_us_per_req", 1e6 * per(seconds("retrieval.stage1"), p), "us");
    result.Add("retrieval.pool_examples", static_cast<double>(counts.pool_examples), "count");
    result.Add("selector.stage2_us_per_req", 1e6 * per(seconds("selector.stage2"), p), "us");
    result.Add("selector.commit_us_per_req", 1e6 * per(seconds("selector.commit"), p), "us");
    result.Add("selector.kept_per_candidate",
               per(static_cast<double>(counts.kept), counts.candidates), "ratio");
    result.Add("router.route_us_per_req", 1e6 * per(seconds("router.route"), p), "us");
    result.Add("router.small_share", per(static_cast<double>(counts.routed_small), counts.routed),
               "ratio");
    result.Add("llm.generate_us_per_req", 1e6 * per(seconds("llm.generate"), p), "us");
    result.Add("cluster.submit_us_per_req", 1e6 * per(seconds("cluster.submit"), p), "us");
    result.Add("admission.prepare_us_per_req", 1e6 * per(seconds("admission.prepare"), p), "us");
    result.Add("admission.put_us_per_admit", 1e6 * per(seconds("admission.put"), counts.admitted),
               "us");
    result.Add("admission.admit_rate",
               per(static_cast<double>(counts.admitted), counts.admit_attempts), "ratio");
    result.Add("maintenance.cut_ms_per_tick", 1e3 * per(seconds("maintenance.cut"), counts.ticks),
               "ms");
    result.Add("maintenance.plan_ms_per_tick",
               1e3 * per(seconds("maintenance.plan"), counts.ticks), "ms");
    result.Add("maintenance.apply_ms_per_tick",
               1e3 * per(seconds("maintenance.apply"), counts.ticks), "ms");
    result.Add("maintenance.evicted_per_tick",
               per(static_cast<double>(counts.evicted), counts.ticks), "count");
    result.Add("maintenance.ticks", static_cast<double>(counts.ticks), "count");
    result.Add("persist.save_ms", 1e3 * seconds("persist.save"), "ms");
    result.Add("persist.restore_ms", 1e3 * seconds("persist.restore"), "ms");
    result.Add("persist.snapshot_mb", static_cast<double>(counts.snapshot_bytes) / (1 << 20),
               "MB");
    result.Add("driver.prepare_us_per_req", 1e6 * per(r.prepare_seconds, n), "us");
    result.Add("driver.serial_us_per_req", 1e6 * per(r.serial_seconds, n), "us");
    result.Add("driver.maintenance_us_per_req", 1e6 * per(r.maintenance_seconds, n), "us");
    result.Add("driver.stalled_windows", static_cast<double>(r.maintenance_stalled_windows),
               "count");
    result.Add("bench.trace_overhead_frac", Median(overhead), "ratio");
    result.Add("workload.repeat_share", RepeatShare(inputs_.trace), "ratio");
    result.Add("workload.pool_start", static_cast<double>(traced.pool_start), "count");
    result.Add("workload.pool_end", static_cast<double>(traced.pool_end), "count");
    result.Add("workload.mean_inflight", traced.mean_inflight, "count");
    return result;
  }

  int Finish(const Metrics& metrics) const {
    std::printf("  metrics:\n");
    for (const Metric& metric : metrics.list) {
      std::printf("    %-32s %.6g %s\n", metric.name.c_str(), metric.value, metric.unit);
    }
    std::printf("  correctness: %zu of %zu requests failed (failed_frac %.6f)\n", failed_,
                attempted_,
                static_cast<double>(failed_) / static_cast<double>(std::max<size_t>(1, attempted_)));
    std::string json = "{\"correct\": ";
    json += failed_ == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted_);
    json += ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.list.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof(value), "%.17g", metrics.list[i].value);
      json += (i == 0 ? "\"" : ", \"") + metrics.list[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + metrics.list[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return failed_ == 0 ? 0 : 1;
  }

  const WorkloadSpec& spec_;
  const Args args_;
  const size_t threads_;
  const iccache::ModelCatalog catalog_;
  const Inputs inputs_;
  const std::string checkpoint_path_;  // the workload's periodic checkpoints
  const std::string pool_path_;        // the seeded pool every Run starts from
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::string names;
    for (const std::string& name : perfbench::WorkloadNames()) {
      names += (names.empty() ? "" : "|") + name;
    }
    std::fprintf(stderr,
                 "usage: perfbench --workload <%s> --seed <n> --seconds <s> --trace <0|1> "
                 "--work-dir <dir>\n",
                 names.c_str());
    return 2;
  }
  return perfbench::Bench(*perfbench::FindWorkload(args.workload), args).Main();
}
