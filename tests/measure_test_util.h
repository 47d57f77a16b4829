// Shared helpers for the measurement tests: a bitwise fingerprint of a
// protocol run and the scenarios the golden and sampler suites replay.
#ifndef CLOUDIA_TESTS_MEASURE_TEST_UTIL_H_
#define CLOUDIA_TESTS_MEASURE_TEST_UTIL_H_

#include <bit>
#include <cstdint>
#include <string>

#include "common/rng.h"
#include "common/table.h"
#include "measure/protocols.h"
#include "netsim/dynamics.h"

namespace cloudia::measure {

inline uint64_t FoldFingerprint(uint64_t h, uint64_t v) {
  uint64_t s = h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  return SplitMix64(s);
}

inline uint64_t FoldFingerprint(uint64_t h, double v) {
  return FoldFingerprint(h, std::bit_cast<uint64_t>(v));
}

/// Folds every link's count, mean, SD and p99, the sample total and the
/// virtual time into 64 bits: equal fingerprints mean the runs measured the
/// same samples in the same order, bit for bit.
inline uint64_t RunFingerprint(const MeasurementResult& r) {
  uint64_t h = 0;
  const int n = r.num_instances();
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) continue;
      const LinkSamples& link = r.Link(i, j);
      h = FoldFingerprint(h, static_cast<uint64_t>(link.count()));
      h = FoldFingerprint(h, link.mean());
      h = FoldFingerprint(h, link.stddev());
      h = FoldFingerprint(h, link.Percentile(99.0));
    }
  }
  h = FoldFingerprint(h, static_cast<uint64_t>(r.total_samples()));
  return FoldFingerprint(h, r.virtual_time_ms);
}

/// One line pinning a run: fingerprint, sample count, virtual time and the
/// mean and p99 of link 0->1, the floating-point values at %.17g.
inline std::string RunSummary(const MeasurementResult& r) {
  return StrFormat("fp=%016llx samples=%lld vt=%.17g m01=%.17g p01=%.17g",
                   static_cast<unsigned long long>(RunFingerprint(r)),
                   static_cast<long long>(r.total_samples()),
                   r.virtual_time_ms, r.Link(0, 1).mean(),
                   r.Link(0, 1).Percentile(99.0));
}

/// A drift overlay whose relocation windows (2 s) and congestion epochs
/// (3 s) turn over many times inside a 20-second measurement starting at
/// `start_hours`.
inline net::DynamicsConfig FastDynamics(double start_hours, uint64_t seed) {
  net::DynamicsConfig config;
  config.start_hours = start_hours;
  config.epoch_minutes = 0.05;
  config.episode_rate = 0.3;
  config.recovery_per_epoch = 0.35;
  config.relocation_window_hours = 2.0 / 3600.0;
  config.relocation_prob = 0.2;
  config.seed = seed;
  return config;
}

}  // namespace cloudia::measure

#endif  // CLOUDIA_TESTS_MEASURE_TEST_UTIL_H_
