#include <malloc.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  Rng rng(seed ^ (stream * 0xd1b54a32d192ed03ULL));
  rng.Next();
  return rng.Next();
}

Zipf::Zipf(int64_t n, double theta) : n_(n) {
  double zetan = 0;
  for (int64_t i = 1; i <= n; ++i) {
    zetan += 1.0 / std::pow(static_cast<double>(i), theta);
  }
  zetan_ = zetan;
  alpha_ = 1.0 / (1.0 - theta);
  half_pow_theta_ = std::pow(0.5, theta);
  const double zeta2 = 1.0 + half_pow_theta_;
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zetan);
}

int64_t Zipf::Sample(Rng& rng) const {
  const double u = rng.Unit();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + half_pow_theta_) return 1;
  const auto v = static_cast<int64_t>(static_cast<double>(n_) *
                                      std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::clamp<int64_t>(v, 0, n_ - 1);
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

double StealSeconds() {
  FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  if (n != 8) return 0;
  return static_cast<double>(v[7]) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

void SetTightTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

void SleepUntilNs(int64_t due_ns) {
  constexpr int64_t kSpinNs = 12'000;  // covers a 1 ns-slack sleep's overshoot
  const int64_t now = NowNs();
  if (due_ns - now > kSpinNs) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due_ns - now - kSpinNs));
  }
  while (NowNs() < due_ns) {
  }
}

double Percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double rank = q / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double sum = 0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

int LatencyHist::Index(int64_t v) {
  if (v < kSub) return static_cast<int>(std::max<int64_t>(v, 0));
  const int e = 63 - __builtin_clzll(static_cast<uint64_t>(v));
  const int sub = static_cast<int>((v >> (e - 6)) - kSub);
  return kSub + (e - 6) * kSub + sub;
}

double LatencyHist::Lower(int index) {
  if (index < kSub) return index;
  const int e = (index - kSub) / kSub + 6;
  const int sub = (index - kSub) % kSub;
  return std::ldexp(static_cast<double>(kSub + sub), e - 6);
}

double LatencyHist::Width(int index) {
  if (index < kSub) return 1;
  return std::ldexp(1.0, (index - kSub) / kSub);
}

void LatencyHist::Record(int64_t v) {
  v = std::max<int64_t>(v, 0);
  counts_[static_cast<size_t>(Index(v))].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  int64_t prev = max_.load(std::memory_order_relaxed);
  while (v > prev &&
         !max_.compare_exchange_weak(prev, v, std::memory_order_relaxed)) {
  }
}

double LatencyHist::Quantile(double q) const {
  const int64_t n = count();
  if (n == 0) return 0;
  const double rank = q * static_cast<double>(n - 1);
  int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    const int64_t c = counts_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
    if (c == 0) continue;
    if (static_cast<double>(seen + c) > rank) {
      // Spread the bucket's samples evenly across its width.
      const double within = (rank - static_cast<double>(seen) + 0.5) /
                            static_cast<double>(c);
      return std::min(Lower(i) + Width(i) * within, static_cast<double>(max()));
    }
    seen += c;
  }
  return static_cast<double>(max());
}

}  // namespace perfbench
