// Entry point of the benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--work-dir <dir>]
//
// Runs one workload in this process, checks its outputs, prints each metric
// by name with its unit, and ends stdout with one JSON line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (every name, 0 for a layer not on the workload's path).
// Exits 1 when a correctness gate fails, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "bench.h"
#include "trace.h"

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& LayerMetricNames() {
  static const std::vector<std::pair<std::string, std::string>> kNames = {
      {"client.update_stable_p99_us", "us"},
      {"client.query_p99_us", "us"},
      {"client.query_inconsistency_mean", "count"},
      {"process.rss_mb", "MB"},
      {"process.ets_per_cpu_s", "1/s"},
      {"runtime.transport.msgs_per_update", "count"},
      {"runtime.transport.bytes_per_update", "B"},
      {"runtime.transport.send_us_p50", "us"},
      {"runtime.strand.wait_us_p50", "us"},
      {"runtime.strand.wait_us_p99", "us"},
      {"runtime.strand.busy_frac", "fraction"},
      {"runtime.node.handle_us_p50", "us"},
      {"runtime.node.submit_us_p50", "us"},
      {"runtime.node.commit_us_p50", "us"},
      {"runtime.node.commit_us_p99", "us"},
      {"runtime.node.retransmit_ratio", "ratio"},
      {"runtime.clock.timers_per_update", "count"},
      {"runtime.clock.timer_late_us_p99", "us"},
      {"recovery.wal.append_us_p50", "us"},
      {"recovery.wal.append_us_p99", "us"},
      {"recovery.wal.appends_per_update", "count"},
      {"recovery.wal.bytes_per_update", "B"},
      {"store.read_us_p50", "us"},
      {"store.read_us_p99", "us"},
      {"store.digest_ms", "ms"},
      {"sim.events_per_et", "count"},
      {"sim.cpu_ns_per_event", "ns"},
      {"esr.submit_us_p50", "us"},
      {"esr.read_us_p50", "us"},
      {"esr.commit_us_p50", "us"},
      {"esr.commit_us_p99", "us"},
      {"esr.query_blocked_ratio", "ratio"},
      {"esr.query_restarts_per_query", "count"},
      {"esr.divergence_max", "count"},
      {"esr.stable_lag_p99_us", "us"},
      {"msg.net.msgs_per_update", "count"},
      {"msg.queue.retransmits_per_update", "count"},
      {"msg.seq.batch_size_mean", "count"},
      {"msg.seq.rtt_p50_us", "us"},
      {"shard.cross_shard_fraction", "fraction"},
      {"shard.forwarded_read_fraction", "fraction"},
      {"loadgen.late_us_p99", "us"},
      {"loadgen.late_us_max", "us"},
      {"trace.overhead_frac", "fraction"},
  };
  return kNames;
}

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <tcp-saturate|"
               "sim-commu|sim-ordup-shard> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               why);
  return 2;
}

/// Text that reads back as the same double.
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val);
    } else if (key == "--trace") {
      opt.trace = std::atoi(val) != 0;
    } else if (key == "--work-dir") {
      opt.work_dir = val;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (opt.seconds <= 0) return Usage("--seconds must be positive");
  std::filesystem::create_directories(opt.work_dir + "/" + opt.workload);

  RunResult result;
  if (opt.workload == "tcp-saturate") {
    result = RunTcpSaturate(opt);
  } else if (opt.workload == "sim-commu") {
    result = RunSimCommu(opt);
  } else if (opt.workload == "sim-ordup-shard") {
    result = RunSimOrdupShard(opt);
  } else {
    return Usage("unknown workload");
  }

  std::map<std::string, Metric> metrics = result.e2e;
  if (opt.trace) {
    metrics.clear();
    for (const auto& [name, unit] : LayerMetricNames()) {
      auto it = result.layer.find(name);
      metrics[name] = {it == result.layer.end() ? 0.0 : it->second.value, unit};
    }
    const std::string spans =
        opt.work_dir + "/" + opt.workload + "/spans.jsonl";
    const size_t n = trace::SpanLog::Get().WriteJsonl(spans);
    std::printf("spans written: %zu (%s)\n", n, spans.c_str());
  }
  for (const std::string& why : result.errors) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
  std::printf("%-36s %18s  %s\n", "metric", "value", "unit");
  for (const auto& [name, m] : metrics) {
    std::printf("%-36s %18.4f  %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("attempted %lld, failed %lld, error_rate %.6f\n",
              static_cast<long long>(result.attempted),
              static_cast<long long>(result.failed),
              result.attempted > 0
                  ? static_cast<double>(result.failed) /
                        static_cast<double>(result.attempted)
                  : 0.0);
  std::string json = "{\"correct\": ";
  json += result.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + Num(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
