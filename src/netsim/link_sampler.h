// Per-run RTT sampling over a fixed instance list.
//
// CloudSimulator::SampleRtt derives a link's LinkParams (topology class,
// ~15 SplitMix hashes, a Box-Muller normal and an exp) on every call. A
// measurement run samples the same n(n-1) links millions of times, so
// LinkSampler memoizes the three pure functions underneath a sample:
//
//   * LinkParams per ordered pair, keyed on the pair's *effective* hosts
//     (Link is a pure function of (vm, host) endpoints);
//   * each instance's effective host, keyed on the relocation window
//     (relocation is piecewise constant per window);
//   * each link's congestion multiplier, keyed on the congestion epoch
//     (congestion is piecewise constant per epoch).
//
// The memoized values come from the same functions CloudSimulator::SampleRtt
// calls and the sample itself is LatencyModel::SampleRtt, so a run through
// the sampler draws the same RNG stream and produces the same samples, bit
// for bit, as one that calls CloudSimulator::SampleRtt per sample.
//
// A sampler belongs to one run (one protocol run, one drift check): it is
// mutable and not thread-safe, while the CloudSimulator it reads stays
// const and can be shared by concurrent runs. The dynamics overlay attached
// to the cloud when the sampler is built applies for its lifetime.
#ifndef CLOUDIA_NETSIM_LINK_SAMPLER_H_
#define CLOUDIA_NETSIM_LINK_SAMPLER_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "netsim/cloud.h"

namespace cloudia::net {

class LinkSampler {
 public:
  /// Samples links among `instances` (copied; indices below refer to it).
  /// `cloud` must outlive the sampler.
  LinkSampler(const CloudSimulator& cloud,
              const std::vector<Instance>& instances);

  /// Same value and RNG consumption as
  /// cloud.SampleRtt(instances[i], instances[j], msg_bytes, t_hours, rng).
  double SampleRtt(int i, int j, double msg_bytes, double t_hours, Rng& rng);

  int size() const { return n_; }
  const CloudSimulator& cloud() const { return *cloud_; }

  /// LinkParams derived so far: n(n-1) at most on a static network (each
  /// ordered pair once); relocation adds one per pair whose effective hosts
  /// changed since its last sample.
  int64_t derivations() const { return derivations_; }

 private:
  /// Epoch/window key of a memo entry not computed yet (valid keys are
  /// >= -1; see NetworkDynamics::CongestionEpoch/RelocationWindow).
  static constexpr int64_t kUnset = std::numeric_limits<int64_t>::min();

  struct LinkMemo {
    LinkParams params;
    int host_a = -1;  ///< effective hosts `params` was derived for
    int host_b = -1;
    int64_t epoch = kUnset;  ///< congestion epoch `multiplier` belongs to
    double multiplier = 1.0;
  };
  struct HostMemo {
    int64_t window = kUnset;  ///< relocation window `host` belongs to
    int host = -1;
  };

  int EffectiveHost(int i, int64_t window);

  const CloudSimulator* cloud_;
  const NetworkDynamics* dynamics_;
  int n_;
  std::vector<int> vm_;    ///< instance ids
  std::vector<int> home_;  ///< allocation-time hosts
  std::vector<HostMemo> hosts_;
  std::vector<LinkMemo> links_;  ///< n*n, row-major, diagonal unused
  int64_t derivations_ = 0;
};

}  // namespace cloudia::net

#endif  // CLOUDIA_NETSIM_LINK_SAMPLER_H_
