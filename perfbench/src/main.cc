// pipeline_bench: the repository's end-to-end and per-layer benchmark.
//
//   pipeline_bench --workload NAME --seed N --seconds S --trace 0|1
//                  --server PATH --work DIR
//
// End-to-end mode (--trace 0) drives a `dtdevolve serve` child over
// loopback with the WAL on, from an open-loop generator, and prints the
// end-to-end metrics. Traced mode (--trace 1) runs the same end-to-end
// pass (for the /metrics-derived layer counts) and then the in-process
// traced replay, and prints the per-layer metrics. Either way the last
// stdout line is one JSON object: correct, attempted, failed, metrics.

#include <fcntl.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "loadgen.h"
#include "prom.h"
#include "reference.h"
#include "server_process.h"
#include "trace.h"
#include "workloads.h"
#include "xml/stream_reader.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

/// Empty-state spawns whose median is `setup_s`.
constexpr int kSetupSpawns = 21;
/// Restarts over copies of the killed server's data (each must serve
/// every acked document; their times go to the properties record).
constexpr int kRecoveries = 3;
/// Offered rate of each ladder step over the previous one.
constexpr double kLadderRatio = 1.06;
constexpr int kLadderSteps = 40;
/// Seconds a server gets to come up (or recover) before it counts as
/// failed.
constexpr double kStartTimeout = 60.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string server;
  std::string work;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--server") {
      args->server = value;
    } else if (flag == "--work") {
      args->work = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0.0 &&
         args->trace >= 0 && !args->server.empty() && !args->work.empty();
}

/// The reference step alone: half the run at the workload's reference
/// rate, a fixed amount of work.
LadderPlan ReferencePlan(const WorkloadSpec& spec, double seconds) {
  return {{spec.reference_rate}, {seconds / 2.0}};
}

/// The idle-CPU step: a quarter of the run at the reference rate with
/// no spinners (see HotCpus), for the properties record only.
LadderPlan IdleCpuPlan(const WorkloadSpec& spec, double seconds) {
  return {{spec.reference_rate}, {seconds / 4.0}};
}

/// The climb: the other half of the run split into equal steps, from
/// the reference rate up by kLadderRatio per step.
LadderPlan ClimbPlan(const WorkloadSpec& spec, double seconds) {
  LadderPlan plan;
  for (int k = 0; k < kLadderSteps; ++k) {
    plan.rates.push_back(spec.reference_rate * std::pow(kLadderRatio, k));
    plan.seconds.push_back(seconds / 2.0 / kLadderSteps);
  }
  return plan;
}

/// Documents each tenant needs so that no plan runs out of input.
size_t DocsPerTenant(const WorkloadSpec& spec, double seconds) {
  const double tenants = spec.tenants.empty() ? 1.0 : spec.tenants.size();
  size_t docs = spec.trace_docs_per_tenant;
  for (const LadderPlan& plan :
       {ReferencePlan(spec, seconds), IdleCpuPlan(spec, seconds),
        ClimbPlan(spec, seconds)}) {
    double total = 0.0;
    for (size_t k = 0; k < plan.rates.size(); ++k) {
      total += plan.rates[k] * plan.seconds[k];
    }
    docs = std::max(docs, static_cast<size_t>(total / tenants * 1.05 + 16.0));
  }
  return docs;
}

/// Seed files and the `--tenant-config` naming them.
std::string WriteSeeds(const WorkloadSpec& spec, const std::string& dir) {
  std::string config;
  for (const TenantStream& tenant : spec.tenants) {
    const std::string tenant_dir = dir + "/" + tenant.name;
    fs::create_directories(tenant_dir);
    config += tenant.name;
    for (const SeedDtd& seed : tenant.seeds) {
      const std::string path = tenant_dir + "/" + seed.name + ".dtd";
      std::ofstream(path) << seed.text;
      config += " " + path;
    }
    config += "\n";
  }
  const std::string path = dir + "/tenants.conf";
  std::ofstream(path) << config;
  return path;
}

std::vector<std::string> ServeArgs(const WorkloadSpec& spec, uint16_t port,
                                   const std::string& config,
                                   const std::string& wal_dir) {
  // Sizing: the generator is one thread; the server's scoring pool gets
  // half the cores, leaving the rest to its event loop, shard workers
  // and the generator.
  const long cores = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
  const long jobs = std::max(1L, cores / 2);
  return {"serve",
          "--port", std::to_string(port),
          "--jobs", std::to_string(jobs),
          "--wal-dir", wal_dir,
          "--fsync-policy", spec.fsync_policy,
          "--checkpoint-interval-ms",
          std::to_string(spec.checkpoint_interval_ms),
          "--tau", FormatNumber(spec.tau),
          "--tenant-config", config};
}

/// Keeps every CPU busy at idle priority for its lifetime. The server
/// under this load is bound by thread hand-offs (each tenant has one
/// request in flight), and a CPU that went idle takes a host-dependent
/// time to wake — in a virtual machine that wake time, not the server,
/// set the latencies and throughput from one run to the next. An
/// idle-priority spinner yields to any other thread at once, so the
/// server's threads always land on a running CPU. The reference and
/// climb figures therefore assume CPUs that never idle: the wake-up cost
/// of the server's own hand-offs is not in their latency. The idle-CPU
/// step of each run (properties record, `idle_cpus`) measures it.
class HotCpus {
 public:
  HotCpus() {
    const long cores = std::max(1L, sysconf(_SC_NPROCESSORS_ONLN));
    for (long i = 0; i < cores; ++i) {
      threads_.emplace_back([this] {
        sched_param param{};
        sched_setscheduler(0, SCHED_IDLE, &param);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~HotCpus() {
    stop_.store(true);
    for (std::thread& thread : threads_) thread.join();
  }

  HotCpus(const HotCpus&) = delete;
  HotCpus& operator=(const HotCpus&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

struct Failures {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      notes.push_back(what);
    }
  }
};

/// The median over one-second windows (by scheduled time) of each
/// window's 99th percentile: a tail that every window shows, rather than
/// one stall that happened to land in the run.
double WindowedP99(const std::vector<std::pair<double, double>>& due_and_ms) {
  std::map<long, std::vector<double>> windows;
  for (const auto& [due, ms] : due_and_ms) {
    windows[static_cast<long>(std::floor(due))].push_back(ms);
  }
  std::vector<double> p99s;
  for (const auto& [second, values] : windows) {
    p99s.push_back(Quantile(values, 0.99));
  }
  return Median(p99s);
}

std::string Join(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += FormatNumber(values[i]);
  }
  return out + "]";
}

/// One server's life under one plan, and what it showed.
struct Served {
  LoadResult load;
  std::vector<TenantState> live;
  std::vector<std::vector<size_t>> repository_at_induce;
  PromSnapshot before;
  PromSnapshot after;
  double cpu_seconds = 0.0;  // server CPU over the plan and its drain
  double hwm_mb = 0.0;       // VmHWM at the end
  double rss_first_mb = 0.0;  // VmRSS entering step 1
  double rss_end_mb = 0.0;
  size_t acked_first = 0;
  size_t acked_end = 0;
};

/// Spawns a server on `data`, runs `plan` against it, and checks every
/// tenant's served state against the in-process reference fed the same
/// sequence. The server is left running for the caller.
bool Serve(const Args& args, const WorkloadSpec& spec, const LadderPlan& plan,
           const std::string& config, const std::string& data,
           const std::string& log, ServerProcess& server, Failures& failures,
           Served* out) {
  const uint16_t port = FreePort();
  const bool up =
      server.Spawn(args.server, ServeArgs(spec, port, config, data), log) &&
      WaitFor200(server, port, "/healthz?ready=1", kStartTimeout) >= 0.0;
  failures.Check(up, "server did not start; see " + log);
  if (!up) return false;
  HttpClient admin(port);
  std::string body;
  admin.Get("/metrics", &body);
  out->before = PromSnapshot::Parse(body);
  const double cpu_start = server.CpuSeconds();
  const int steps = static_cast<int>(plan.rates.size());
  out->load = RunOpenLoop(port, spec, plan, [&](int step, size_t acked) {
    if (step == 1 && steps > 1) {
      out->rss_first_mb = server.VmRssMb();
      out->acked_first = acked;
    }
    if (step == steps) {
      out->cpu_seconds = server.CpuSeconds() - cpu_start;
      out->hwm_mb = server.VmHwmMb();
      out->rss_end_mb = server.VmRssMb();
      out->acked_end = acked;
    }
  });
  admin.Get("/metrics", &body);
  out->after = PromSnapshot::Parse(body);

  const LoadResult& load = out->load;
  for (const IngestRecord& record : load.ingests) {
    failures.Check(record.status == 200,
                   "ingest answered " + std::to_string(record.status));
  }
  for (const ReadRecord& record : load.reads) {
    failures.Check(record.status == 200,
                   "read answered " + std::to_string(record.status));
  }
  failures.attempted += load.admin_requests;
  failures.failed += load.admin_failures + load.transport_errors;
  failures.Check(load.drained, "requests still unanswered after the drain");

  out->live.resize(spec.tenants.size());
  for (size_t t = 0; t < spec.tenants.size(); ++t) {
    const std::string& name = spec.tenants[t].name;
    failures.Check(FetchTenantState(admin, name, &out->live[t]),
                   name + ": state fetch failed");
    const ReferenceResult reference =
        ReplayTenant(spec.tenants[t], load.events[t], spec.tau);
    failures.Check(reference.ok, name + ": reference replay failed");
    failures.Check(reference.accept_mismatches == 0,
                   name + ": induce rounds accepted a different count");
    out->repository_at_induce.push_back(reference.repository_at_induce);
    std::vector<std::string> notes;
    failures.attempted += 1;
    failures.failed += CompareStates(name, reference.state, out->live[t],
                                     Compare::kLive, &notes);
    failures.notes.insert(failures.notes.end(), notes.begin(), notes.end());
  }
  return true;
}

/// Flushes every dirty page of the disk that holds `work`, so that the
/// timing that follows does not share the disk with earlier writeback.
void SyncWorkDisk(const std::string& work) {
  const int dir_fd = open(work.c_str(), O_RDONLY | O_DIRECTORY);
  if (dir_fd >= 0) {
    syncfs(dir_fd);
    close(dir_fd);
  }
}

/// Restarts a server over copies of the killed server's `data`, timing
/// spawn to ready, and checks that every acked document is accounted
/// for (the durable part of `live` comes back).
std::vector<double> Recover(const Args& args, const WorkloadSpec& spec,
                            const std::string& config, const std::string& data,
                            const std::string& log,
                            const std::vector<TenantState>& live,
                            Failures& failures) {
  std::vector<double> seconds;
  std::error_code ignored;
  // Every copy is made and flushed before the first restart, so no
  // restart shares the disk with a copy's writeback.
  std::vector<std::string> copies;
  for (int i = 0; i < kRecoveries; ++i) {
    copies.push_back(data + "-recover-" + std::to_string(i));
    fs::copy(data, copies.back(), fs::copy_options::recursive, ignored);
  }
  SyncWorkDisk(args.work);
  for (const std::string& copy : copies) {
    ServerProcess server;
    const uint16_t port = FreePort();
    const double start = NowSeconds();
    const bool up =
        server.Spawn(args.server, ServeArgs(spec, port, config, copy), log) &&
        WaitFor200(server, port, "/healthz?ready=1", kStartTimeout) >= 0.0;
    const double ready = NowSeconds() - start;
    failures.Check(up, "recovery over " + copy + " did not come up");
    if (up) {
      seconds.push_back(ready);
      HttpClient client(port);
      for (size_t t = 0; t < spec.tenants.size(); ++t) {
        TenantState recovered;
        const std::string& name = spec.tenants[t].name;
        failures.Check(FetchTenantState(client, name, &recovered),
                       name + ": recovered state fetch failed");
        std::vector<std::string> notes;
        failures.attempted += 1;
        failures.failed += CompareStates(name + " (recovered)", live[t],
                                         recovered, Compare::kDurable, &notes);
        failures.notes.insert(failures.notes.end(), notes.begin(),
                              notes.end());
      }
    }
    server.Kill();
    fs::remove_all(copy, ignored);
  }
  return seconds;
}

/// What the workload actually was, for later claims to cite by name.
std::string Properties(const Args& args, const WorkloadSpec& spec,
                       const Served& reference, const Served& climb,
                       const std::vector<StepResult>& ladder,
                       const std::vector<double>& setup,
                       const std::vector<double>& recovery,
                       const Served& idle_cpus, double idle_cpus_p50_ms,
                       double sustained_docs_s, double ack_p50_ms,
                       double ack_p99_ms, double read_p99_ms) {
  std::set<std::pair<uint64_t, uint64_t>> fingerprints;
  double doc_bytes = 0.0;
  double elements = 0.0;
  size_t parsed = 0;
  for (size_t t = 0; t < spec.tenants.size(); ++t) {
    for (const TenantEvent& event : reference.load.events[t]) {
      if (event.induce) continue;
      const std::string& text = spec.tenants[t].docs[event.doc];
      auto doc = dtdevolve::xml::ParseArenaDocument(text);
      if (!doc.ok() || !doc->has_root()) continue;
      fingerprints.insert({doc->root().fp_hi, doc->root().fp_lo});
      doc_bytes += static_cast<double>(text.size());
      elements += doc->root().element_count;
      ++parsed;
    }
  }
  const double hits = Delta(reference.before, reference.after,
                            "dtdevolve_classification_memo_hits_total");
  const double misses = Delta(reference.before, reference.after,
                              "dtdevolve_classification_memo_misses_total");
  std::vector<double> lateness_ms;
  for (const Served* served : {&reference, &climb}) {
    for (const IngestRecord& record : served->load.ingests) {
      lateness_ms.push_back((record.sent - record.due) * 1000.0);
    }
  }
  std::vector<double> accept_ms = reference.load.accept_ms;
  accept_ms.insert(accept_ms.end(), climb.load.accept_ms.begin(),
                   climb.load.accept_ms.end());

  std::string out = "{\"workload\":" + JsonString(spec.name) +
                    ",\"seed\":" + std::to_string(args.seed);
  out += ",\"documents\":" + std::to_string(parsed);
  out += ",\"repeat_share\":" +
         FormatNumber(parsed == 0 ? 0.0
                                  : 1.0 - static_cast<double>(
                                              fingerprints.size()) /
                                              static_cast<double>(parsed));
  out += ",\"memo_hit_ratio\":" + FormatNumber(Ratio(hits, hits + misses));
  out += ",\"mean_doc_bytes\":" + FormatNumber(Ratio(doc_bytes, parsed));
  out += ",\"mean_doc_elements\":" + FormatNumber(Ratio(elements, parsed));
  out += ",\"evolutions\":" +
         FormatNumber(Delta(reference.before, reference.after,
                            "dtdevolve_evolutions_total"));
  out += ",\"dtds_per_tenant\":{";
  for (size_t t = 0; t < spec.tenants.size() && t < reference.live.size();
       ++t) {
    if (t > 0) out += ",";
    out += JsonString(spec.tenants[t].name) + ":" +
           std::to_string(reference.live[t].dtd_texts.size());
  }
  out += "},\"repository_at_induce\":{";
  for (size_t t = 0; t < reference.repository_at_induce.size(); ++t) {
    if (t > 0) out += ",";
    const std::vector<size_t>& sizes = reference.repository_at_induce[t];
    out += JsonString(spec.tenants[t].name) + ":" +
           Join(std::vector<double>(sizes.begin(), sizes.end()));
  }
  out += "},\"lateness_ms\":{\"p50\":" +
         FormatNumber(Quantile(lateness_ms, 0.5)) +
         ",\"p99\":" + FormatNumber(Quantile(lateness_ms, 0.99)) +
         ",\"max\":" + FormatNumber(Quantile(lateness_ms, 1.0)) + "}";
  out += ",\"ack_samples\":" + std::to_string(reference.load.ingests.size()) +
         ",\"ack_p50_ms\":" + FormatNumber(ack_p50_ms) +
         ",\"ack_p99_ms\":" + FormatNumber(ack_p99_ms) +
         ",\"read_samples\":" + std::to_string(reference.load.reads.size()) +
         ",\"read_p99_ms\":" + FormatNumber(read_p99_ms);
  out += ",\"accepts\":" + std::to_string(accept_ms.size()) +
         ",\"accept_ms_median\":" + FormatNumber(Median(accept_ms));
  out += ",\"idle_cpus\":{\"ack_samples\":" +
         std::to_string(idle_cpus.load.ingests.size()) +
         ",\"ack_p50_ms\":" + FormatNumber(idle_cpus_p50_ms) +
         ",\"cpu_ms_per_kdoc\":" +
         FormatNumber(Ratio(idle_cpus.cpu_seconds * 1e6,
                            static_cast<double>(idle_cpus.acked_end))) +
         "}";
  out += ",\"sustained_docs_s\":" + FormatNumber(sustained_docs_s);
  out += ",\"setup_s\":" + Join(setup);
  out += ",\"recovery_s\":" + Join(recovery);
  out += ",\"ladder\":[";
  bool first = true;
  for (const StepResult& step : ladder) {
    if (step.samples == 0) continue;
    if (!first) out += ",";
    first = false;
    out += "{\"rate\":" + FormatNumber(step.rate) +
           ",\"samples\":" + std::to_string(step.samples) +
           ",\"p50_ms\":" + FormatNumber(step.p50_ms) +
           ",\"p99_ms\":" + FormatNumber(step.p99_ms) +
           ",\"passed\":" + (step.passed ? "true" : "false") + "}";
  }
  return out + "]}";
}

int Run(const Args& args) {
  WorkloadSpec spec;
  if (!WorkloadSettings(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  BuildWorkload(args.workload, args.seed, 1, &spec);
  BuildWorkload(args.workload, args.seed, DocsPerTenant(spec, args.seconds),
                &spec);
  const LadderPlan reference_plan = ReferencePlan(spec, args.seconds);
  const LadderPlan climb_plan = ClimbPlan(spec, args.seconds);
  const LadderPlan idle_cpu_plan = IdleCpuPlan(spec, args.seconds);

  std::optional<HotCpus> hot_cpus;
  std::error_code ignored;
  const std::string run_dir = args.work + "/run-" + std::to_string(getpid());
  fs::remove_all(run_dir, ignored);
  fs::create_directories(run_dir);
  const std::string config = WriteSeeds(spec, run_dir + "/seeds");
  const std::string log = run_dir + "/server.log";
  Failures failures;

  // setup_s: spawn on empty state to the first /healthz 200.
  SyncWorkDisk(args.work);
  std::vector<double> setup;
  for (int i = 0; i < kSetupSpawns; ++i) {
    ServerProcess server;
    const uint16_t port = FreePort();
    const std::string wal = run_dir + "/setup-" + std::to_string(i);
    const double start = NowSeconds();
    const bool up =
        server.Spawn(args.server, ServeArgs(spec, port, config, wal), log) &&
        WaitFor200(server, port, "/healthz", kStartTimeout) >= 0.0;
    if (up) setup.push_back(NowSeconds() - start);
    failures.Check(up, "setup spawn " + std::to_string(i) + " failed");
  }

  // The spinners start after the setup spawns: with them, spawn times
  // scattered over twice the range.
  hot_cpus.emplace();

  // The reference step on one server (fixed work: latency, CPU, memory,
  // reads), then a crash and recovery over exactly that work.
  ServerProcess server;
  Served reference;
  const std::string reference_data = run_dir + "/reference";
  const bool reference_ok =
      Serve(args, spec, reference_plan, config, reference_data, log, server,
            failures, &reference);
  server.Kill();
  std::vector<double> recovery;
  if (reference_ok) {
    recovery = Recover(args, spec, config, reference_data, log,
                       reference.live, failures);
  }

  // The climb on a fresh server: the highest passing step.
  Served climb;
  Serve(args, spec, climb_plan, config, run_dir + "/climb", log, server,
        failures, &climb);
  server.Kill();

  // The reference rate once more on a fresh server, with the CPUs free
  // to idle.
  hot_cpus.reset();
  Served idle_cpus;
  Serve(args, spec, idle_cpu_plan, config, run_dir + "/idle-cpus", log,
        server, failures, &idle_cpus);
  server.Kill();
  hot_cpus.emplace();

  const std::vector<StepResult> reference_steps =
      EvaluateSteps(reference.load, reference_plan, spec.ack_limit_ms);
  const std::vector<StepResult> climb_steps =
      EvaluateSteps(climb.load, climb_plan, spec.ack_limit_ms);
  const std::vector<StepResult> idle_cpu_steps =
      EvaluateSteps(idle_cpus.load, idle_cpu_plan, spec.ack_limit_ms);
  std::vector<std::pair<double, double>> ack_ms;
  for (const IngestRecord& record : reference.load.ingests) {
    ack_ms.push_back({record.due, record.status == 200 && record.acked >= 0.0
                                      ? (record.acked - record.due) * 1000.0
                                      : 1e9});
  }
  std::vector<std::pair<double, double>> read_ms;
  for (const ReadRecord& record : reference.load.reads) {
    read_ms.push_back({record.due, record.status == 200 && record.acked >= 0.0
                                       ? (record.acked - record.due) * 1000.0
                                       : 1e9});
  }

  std::vector<Metric> metrics;
  if (args.trace == 0) {
    metrics = {
        {"setup_s", Median(setup), "s"},
        {"cpu_ms_per_kdoc",
         Ratio(reference.cpu_seconds * 1e6,
               static_cast<double>(reference.acked_end)),
         "ms"},
        {"peak_rss_mb", reference.hwm_mb, "MB"},
    };
  } else {
    const PromSnapshot& a = reference.before;
    const PromSnapshot& b = reference.after;
    const double ingests = Delta(a, b, "dtdevolve_ingest_seconds_count");
    const double batches = Delta(a, b, "dtdevolve_ingest_batch_seconds_count");
    metrics = {
        {"server.ingest_mean_ms",
         Ratio(Delta(a, b, "dtdevolve_ingest_seconds_sum") * 1e3, ingests),
         "ms"},
        {"server.batch_mean_ms",
         Ratio(Delta(a, b, "dtdevolve_ingest_batch_seconds_sum") * 1e3,
               batches),
         "ms"},
        {"server.docs_per_batch", Ratio(ingests, batches), "count"},
        {"store.fsyncs_per_ack",
         Ratio(Delta(a, b, "dtdevolve_wal_fsyncs_total"), ingests), "count"},
        {"store.wal_bytes_per_doc",
         Ratio(Delta(a, b, "dtdevolve_wal_append_bytes_total"),
               Delta(a, b, "dtdevolve_wal_appends_total")),
         "bytes"},
        {"core.state_bytes_per_doc",
         climb.acked_end > climb.acked_first
             ? Ratio((climb.rss_end_mb - climb.rss_first_mb) * 1048576.0,
                     static_cast<double>(climb.acked_end - climb.acked_first))
             : 0.0,
         "bytes"},
    };
    const std::string trace_dir = args.work + "/traces";
    fs::create_directories(trace_dir, ignored);
    const TraceReport trace =
        RunTraced(spec, run_dir + "/trace",
                  trace_dir + "/" + spec.name + "-seed" +
                      std::to_string(args.seed) + ".spans.tsv");
    metrics.insert(metrics.end(), trace.metrics.begin(), trace.metrics.end());
    failures.attempted += trace.documents;
    failures.failed += trace.mismatches;
    failures.notes.insert(failures.notes.end(), trace.notes.begin(),
                          trace.notes.end());
  }

  const std::string properties =
      Properties(args, spec, reference, climb, climb_steps, setup, recovery,
                 idle_cpus, idle_cpu_steps[0].p50_ms,
                 SustainedRate(climb_steps, climb.load, climb_plan),
                 reference_steps[0].p50_ms, WindowedP99(ack_ms),
                 WindowedP99(read_ms));
  const std::string properties_dir = args.work + "/properties";
  fs::create_directories(properties_dir, ignored);
  std::ofstream(properties_dir + "/" + spec.name + "-seed" +
                std::to_string(args.seed) + ".json")
      << properties << "\n";
  fs::remove_all(run_dir, ignored);

  for (size_t i = 0; i < failures.notes.size() && i < 20; ++i) {
    std::fprintf(stderr, "failure: %s\n", failures.notes[i].c_str());
  }
  std::printf("properties %s\n", properties.c_str());
  for (const Metric& metric : metrics) {
    std::printf("metric %-36s %16.6f %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::string result = "{\"correct\":";
  result += failures.failed == 0 ? "true" : "false";
  result += ",\"attempted\":" +
            std::to_string(std::max<size_t>(1, failures.attempted));
  result += ",\"failed\":" + std::to_string(failures.failed);
  result += ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) result += ",";
    result += JsonString(metrics[i].name) +
              ":{\"value\":" + FormatNumber(metrics[i].value) +
              ",\"unit\":" + JsonString(metrics[i].unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipeline_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --server PATH --work DIR\n");
    return 2;
  }
  return perfbench::Run(args);
}
