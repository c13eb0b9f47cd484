// One run of one benchmark workload, in a process of its own.
//
// Builds the workload several times back to back (timing the Scenario
// constructor, the add_flow calls and the ChurnDriver constructor
// separately), keeps the last build, runs it to its fixed simulated
// length, checks its outputs, and prints one JSON line of raw
// measurements on stdout. perfbench/run.py turns those lines into the
// benchmark's metrics; nothing here aggregates across runs.
//
// A fresh process per run is deliberate: ru_maxrss is a process-lifetime
// high-water mark, so a second run in the same process would report the
// larger of the two peaks instead of its own.
//
// Usage: perfbench_workload --workload=NAME [--seed=N] [--trace=0|1]
// Exit codes: 0 ok, 2 bad usage, 3 a correctness check failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/pcc_sender.h"
#include "harness/churn.h"
#include "harness/scenario.h"
#include "harness/supervisor.h"
#include "telemetry/profiler.h"

namespace proteus {
namespace {

struct Workload {
  const char* name = "";
  double sim_seconds = 0.0;  // fixed simulated length of one run
  bool churn = false;
  ScenarioConfig scenario;
  ChurnConfig churn_cfg;
};

// The Proteus home scenario: 8 primaries and 8 scavengers on one
// 100 Mbps / 30 ms / 375 KB bottleneck, one start every half second.
Workload dumbbell_pcc() {
  Workload w{"dumbbell_pcc", 300.0, false, {}, {}};
  w.scenario.bandwidth_mbps = 100.0;
  w.scenario.rtt_ms = 30.0;
  w.scenario.buffer_bytes = 375'000;
  return w;
}

// Churn-dominated CDN edge: small flows at ~70% core load, so the live
// count stays far below the cap and nearly every arrival re-arms a
// pooled flow.
Workload cdn_churn(const char* name, int shards) {
  Workload w{name, 12.0, true, {}, {}};
  w.scenario.topology.kind = TopologyKind::kCdnEdge;
  w.scenario.topology.arms = 8;
  w.scenario.bandwidth_mbps = 1000.0;
  w.scenario.planned_flows = 20'000;
  w.scenario.shards = shards;
  w.churn_cfg.arrivals_per_sec = 2000.0;
  w.churn_cfg.mean_size_kb = 8.0;
  w.churn_cfg.max_concurrent = 10'000;
  w.churn_cfg.window_slots = 8;
  return w;
}

// The BENCH_shards.json gate config: the cap fills within ~0.5 sim-s and
// the run becomes 10k long-lived flows ticking with cold per-flow state.
Workload cdn_capped() {
  Workload w{"cdn_capped", 6.0, true, {}, {}};
  w.scenario.topology.kind = TopologyKind::kCdnEdge;
  w.scenario.topology.arms = 8;
  w.scenario.bandwidth_mbps = 50.0;
  w.scenario.planned_flows = 20'000;
  w.churn_cfg.arrivals_per_sec = 20'000.0;
  w.churn_cfg.mean_size_kb = 64.0;
  w.churn_cfg.max_concurrent = 10'000;
  w.churn_cfg.window_slots = 8;
  return w;
}

bool find_workload(const std::string& name, Workload* out) {
  const Workload all[] = {dumbbell_pcc(), cdn_churn("cdn_churn", 1),
                          cdn_churn("cdn_churn_sharded", 2), cdn_capped()};
  for (const Workload& w : all) {
    if (name == w.name) {
      *out = w;
      return true;
    }
  }
  return false;
}

constexpr TimeNs kAllStarted = from_sec(8.0);

void add_flows(const Workload& w, Scenario& sc) {
  if (w.churn) return;
  for (int i = 0; i < 16; ++i) {
    sc.add_flow(i % 2 == 0 ? "proteus-p" : "proteus-s", kAllStarted * i / 16);
  }
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

long peak_rss_kb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // KiB on Linux
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Accepts "--key=value"; returns nullptr when `arg` is another flag.
const char* flag_value(const std::string& arg, const char* key) {
  const std::string prefix = std::string("--") + key + "=";
  return arg.rfind(prefix, 0) == 0 ? arg.c_str() + prefix.size() : nullptr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_workload --workload=dumbbell_pcc|cdn_churn|"
               "cdn_churn_sharded|cdn_capped [--seed=N] [--trace=0|1]\n");
  return 2;
}

int run(int argc, char** argv) {
  Workload w;
  bool found = false;
  uint64_t seed = 7;
  bool traced = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (const char* v = flag_value(arg, "workload")) {
      found = find_workload(v, &w);
    } else if (const char* v = flag_value(arg, "seed")) {
      char* end = nullptr;
      seed = std::strtoull(v, &end, 10);
      if (*v == '\0' || *end != '\0') return usage();
    } else if (arg == "--trace=0" || arg == "--trace=1") {
      traced = arg.back() == '1';
    } else {
      return usage();
    }
  }
  if (!found) return usage();
  w.scenario.seed = seed;

  // Set-up, repeated: one cold construction varies ~15% across
  // processes, back-to-back ones agree within a few percent.
  constexpr int kSetupReps = 21;
  std::vector<double> scenario_s, flows_s, churn_s, total_s;
  std::unique_ptr<Scenario> scenario;
  std::unique_ptr<ChurnDriver> churn;  // declared after: destroyed first
  for (int rep = 0; rep < kSetupReps; ++rep) {
    churn.reset();
    scenario.reset();
    const auto t0 = std::chrono::steady_clock::now();
    scenario = std::make_unique<Scenario>(w.scenario);
    const double t_scenario = seconds_since(t0);
    add_flows(w, *scenario);
    const double t_flows = seconds_since(t0);
    if (w.churn) churn = std::make_unique<ChurnDriver>(*scenario, w.churn_cfg);
    const double t_total = seconds_since(t0);
    scenario_s.push_back(t_scenario);
    flows_s.push_back(t_flows - t_scenario);
    churn_s.push_back(t_total - t_flows);
    total_s.push_back(t_total);
  }
  Scenario& sc = *scenario;
  const long rss_setup_kb = peak_rss_kb();

  Profiler prof;
  if (traced) Profiler::install(&prof);
  const double cpu0 = process_cpu_s();
  const auto w0 = std::chrono::steady_clock::now();
  sc.run_until(from_sec(w.sim_seconds));
  const double wall_s = seconds_since(w0);
  const double cpu_s = process_cpu_s() - cpu0;
  if (traced) Profiler::install(nullptr);
  const long rss_peak_kb = peak_rss_kb();

  // Output checks: packet/byte conservation at every flow and link,
  // finite PCC state; churn accounting must balance; on the dumbbell the
  // link stays full and the scavengers yield to the primaries.
  const ChurnStats cs = churn ? churn->stats() : ChurnStats{};
  try {
    check_invariants_or_throw(sc);
    if (!w.churn) {
      double primary_mbps = 0.0, scavenger_mbps = 0.0;
      for (const auto& f : sc.flows()) {
        const double mbps = f->mean_throughput_mbps(kAllStarted,
                                                    from_sec(w.sim_seconds));
        (f->sender().cc().name() == "proteus-s" ? scavenger_mbps
                                                 : primary_mbps) += mbps;
      }
      if (primary_mbps + scavenger_mbps < 0.9 * w.scenario.bandwidth_mbps ||
          scavenger_mbps > 0.5 * primary_mbps) {
        throw std::runtime_error(
            "dumbbell goodput: primaries " + std::to_string(primary_mbps) +
            " Mbps, scavengers " + std::to_string(scavenger_mbps) + " Mbps");
      }
    }
    if (cs.spawned - cs.completed != cs.concurrent ||
        cs.recycled > cs.spawned ||
        cs.peak_concurrent > w.churn_cfg.max_concurrent) {
      throw std::runtime_error("churn accounting does not balance");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s: check failed: %s\n", w.name,
                 e.what());
    return 3;
  }

  int64_t offered = 0, delivered = 0, tail_drops = 0;
  for (const auto& [link, st] : sc.link_stats()) {
    offered += st.offered_packets;
    delivered += st.delivered_packets;
    tail_drops += st.tail_drops;
  }
  int64_t sent = 0, lost = 0, rtt_bytes = 0;
  uint64_t mis = 0;
  for (const auto& f : sc.flows()) {
    sent += f->sender().stats().packets_sent;
    lost += f->sender().stats().packets_lost;
    rtt_bytes += static_cast<int64_t>(f->rtt_samples().raw().capacity() *
                                      sizeof(double));
    if (const auto* pcc = dynamic_cast<const PccSender*>(&f->sender().cc())) {
      mis += pcc->mis_completed();
    }
  }
  const ShardSet::WindowStats ws = sc.shard_window_stats();
  const int threads =
      std::max(1, std::min(sc.config().shards, sc.partition_plan().parts));

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"traced\":%d,"
              "\"sim_s\":%.17g,\"wall_s\":%.17g,\"cpu_s\":%.17g,"
              "\"threads\":%d,\"rss_setup_kb\":%ld,\"rss_peak_kb\":%ld,",
              w.name, static_cast<unsigned long long>(seed), traced ? 1 : 0,
              w.sim_seconds, wall_s, cpu_s, threads, rss_setup_kb,
              rss_peak_kb);
  std::printf("\"setup\":{\"total_s\":%.17g,\"scenario_s\":%.17g,"
              "\"flows_s\":%.17g,\"churn_driver_s\":%.17g},",
              median(total_s), median(scenario_s), median(flows_s),
              median(churn_s));
  std::printf(
      "\"counts\":{\"events\":%llu,\"link_offered\":%lld,"
      "\"link_delivered\":%lld,\"link_tail_drops\":%lld,"
      "\"packets_sent\":%lld,\"packets_lost\":%lld,\"rtt_sample_bytes\":%lld,"
      "\"mis_completed\":%llu,\"barrier_windows\":%llu,"
      "\"windows_fast_forwarded\":%llu,\"churn_spawned\":%lld,"
      "\"churn_completed\":%lld,\"churn_skipped\":%lld,"
      "\"churn_recycled\":%lld,\"churn_peak_live\":%lld},",
      static_cast<unsigned long long>(sc.events_processed()),
      static_cast<long long>(offered), static_cast<long long>(delivered),
      static_cast<long long>(tail_drops), static_cast<long long>(sent),
      static_cast<long long>(lost), static_cast<long long>(rtt_bytes),
      static_cast<unsigned long long>(mis),
      static_cast<unsigned long long>(ws.barrier_windows),
      static_cast<unsigned long long>(ws.windows_fast_forwarded),
      static_cast<long long>(cs.spawned), static_cast<long long>(cs.completed),
      static_cast<long long>(cs.skipped), static_cast<long long>(cs.recycled),
      static_cast<long long>(cs.peak_concurrent));
  std::printf("\"profile\":{");
  for (int i = 0; i < static_cast<int>(ProfilePhase::kCount); ++i) {
    const auto p = static_cast<ProfilePhase>(i);
    const Profiler::PhaseStats s = prof.stats(p);
    std::printf("%s\"%s\":[%llu,%llu]", i > 0 ? "," : "", profile_phase_name(p),
                static_cast<unsigned long long>(s.calls),
                static_cast<unsigned long long>(s.total_ns));
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace proteus

int main(int argc, char** argv) { return proteus::run(argc, argv); }
