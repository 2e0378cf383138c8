#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

// Shared pieces of the benchmark program: options, the result record every
// workload fills, seeded input generators, and timing/statistics helpers.
// Nothing here calls into the program except through its public headers.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory (inside the checkout) for the span dump.
  std::string work_dir = ".bench_run";
};

/// One metric as printed: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload run reports. `e2e` holds the end-to-end metrics of an
/// untraced run; `layer` the per-layer metrics of a traced run.
struct RunResult {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> errors;  // failed correctness gates
  std::map<std::string, Metric> e2e;
  std::map<std::string, Metric> layer;

  void Fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

RunResult RunTcpSaturate(const Options& opt);
RunResult RunSimCommu(const Options& opt);
RunResult RunSimOrdupShard(const Options& opt);

/// Every per-layer metric name with its unit. A traced run of any workload
/// prints all of them; a layer that is not on the workload's path reads 0.
const std::vector<std::pair<std::string, std::string>>& LayerMetricNames();

/// --- Seeded input generation ------------------------------------------------

/// SplitMix64: tiny, fast, and fully determined by its seed.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  bool Chance(double p) { return Unit() < p; }
  double Exponential(double mean) { return -mean * std::log(1.0 - Unit()); }

 private:
  uint64_t state_;
};

/// Mixes a base seed with a stream tag so each generator gets its own
/// independent sequence.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Zipf(theta) over [0, n) by Gray et al.'s closed form ("Quickly
/// generating billion-record synthetic databases", the YCSB generator):
/// the normaliser zeta(n, theta) is summed once at construction, so a
/// sample costs one pow() and no table.
class Zipf {
 public:
  Zipf(int64_t n, double theta);
  int64_t Sample(Rng& rng) const;

 private:
  int64_t n_;
  double alpha_;
  double zetan_;
  double eta_;
  double half_pow_theta_;
};

/// --- Time ---------------------------------------------------------------------

int64_t NowNs();                // steady clock
double ProcessCpuSeconds();     // CLOCK_PROCESS_CPUTIME_ID
double PeakRssMb();             // getrusage ru_maxrss
/// Bytes the allocator has handed out and not had back (all arenas and
/// mmapped blocks): what the program retains, to the byte, independent of
/// page-level effects such as transparent huge pages.
double HeapInUseBytes();
/// CPU time the hypervisor gave to others while this machine's CPUs wanted
/// to run ("steal" in /proc/stat), summed over CPUs, in seconds since boot;
/// 0 where the kernel does not report it.
double StealSeconds();
/// Lowers this thread's timer slack to 1 ns so sleeps end on time.
void SetTightTimerSlack();
/// Sleeps until `due_ns` (steady clock): a coarse sleep, then a spin over
/// the last stretch so due-time latency measures the program, not the
/// kernel's wakeup.
void SleepUntilNs(int64_t due_ns);

/// --- Statistics ---------------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 100]) of `v`; sorts `v`.
double Percentile(std::vector<double>& v, double q);
double Mean(const std::vector<double>& v);

/// Lock-free log-linear histogram of non-negative integer samples (ns or
/// counts): 64 linear sub-buckets per power of two, so a quantile is
/// within ~1.6% of the true sample. Safe to record from many threads.
class LatencyHist {
 public:
  void Record(int64_t v);
  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  int64_t max() const { return max_.load(std::memory_order_relaxed); }
  /// q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

 private:
  static constexpr int kSub = 64;
  static constexpr int kBuckets = kSub + 58 * kSub;
  static int Index(int64_t v);
  static double Lower(int index);
  static double Width(int index);

  std::array<std::atomic<int64_t>, kBuckets> counts_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> max_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
