// Time-varying network dynamics: the drift the paper measures but never
// models (Figs. 2/19/21 show pairwise latencies wandering over hours).
//
// NetworkDynamics overlays three slow processes on top of the static
// LatencyModel, all *pure functions of (seed, entity, time)* via the same
// SplitMix64 hash chains the latency model uses -- no mutable state, so
// concurrent observers (measurement protocols, drift monitors, ground-truth
// matrix queries) see one consistent network and whole scenarios replay
// bit-identically from a seed:
//
//   * Congestion episodes: at epoch granularity, an inter-rack path starts a
//     congestion episode with probability `episode_rate`; the episode
//     multiplies every RTT crossing that rack pair by `severity` at onset
//     and then recovers geometrically (`recovery_per_epoch` of the excess
//     removed per epoch). Overlapping episodes compound.
//   * Per-link degradation/recovery falls out of the same machinery: a rack
//     pair's multiplier ramps up at onset and decays back to 1.0, so links
//     degrade and heal on the multi-hour timescale of the paper's
//     stability studies.
//   * Provider-side VM relocation: per relocation window, a VM is live-
//     migrated to a different host with probability `relocation_prob`; all
//     of its links change character at once (the step changes visible in
//     Fig. 2's worst pairs).
//
// Nothing happens before `start_hours`: a baseline measurement taken in
// [0, start_hours) sees the static network, which is what makes "drift
// relative to the deployment-time matrix" well defined for the
// redeploy::DriftMonitor.
#ifndef CLOUDIA_NETSIM_DYNAMICS_H_
#define CLOUDIA_NETSIM_DYNAMICS_H_

#include <cstdint>

#include "common/status.h"
#include "netsim/topology.h"

namespace cloudia::net {

/// Knobs of the drift scenario. Defaults give a mild but clearly
/// detectable network: a few percent of rack pairs congested at any time,
/// episodes lasting a handful of epochs, no relocations.
struct DynamicsConfig {
  /// Virtual hour before which the overlay is inert (multiplier 1, no
  /// relocations). Set this to the end of the baseline measurement so the
  /// cached matrix and the drifting timeline agree at t = start_hours.
  double start_hours = 0.0;

  // --- congestion episodes (per unordered rack pair) ----------------------
  /// Episode onset granularity (one Bernoulli draw per rack pair per epoch).
  double epoch_minutes = 30.0;
  /// Probability a rack pair starts a new episode in a given epoch.
  double episode_rate = 0.03;
  /// Multiplier applied to affected RTTs at episode onset, drawn uniformly
  /// per episode in [severity_lo, severity_hi].
  double severity_lo = 1.4;
  double severity_hi = 2.6;
  /// Fraction of the excess (multiplier - 1) removed per epoch after onset.
  double recovery_per_epoch = 0.35;
  /// Episodes older than this many epochs contribute nothing (lookback
  /// horizon; with the default recovery the excess is < 1% after ~11).
  int max_episode_epochs = 12;

  // --- provider-side VM relocation (per VM) -------------------------------
  /// Length of one relocation window; one Bernoulli draw per VM per window.
  double relocation_window_hours = 6.0;
  /// Probability a VM is live-migrated to a new host within a window.
  /// 0 disables relocation.
  double relocation_prob = 0.0;

  uint64_t seed = 1;

  bool operator==(const DynamicsConfig&) const = default;

  /// OK iff every knob is in range (rates/probabilities in [0, 1],
  /// positive epoch/window lengths, recovery in (0, 1], non-inverted
  /// severity interval >= 1). NetworkDynamics CHECK-fails on invalid
  /// configs, so layers taking caller-supplied configs (the service's
  /// RedeployPolicy) must validate first and fail softly.
  Status Validate() const;
};

/// Deterministic, stateless time-varying overlay for one simulated cloud.
/// Attach to a CloudSimulator (CloudSimulator::AttachDynamics); every
/// ExpectedRtt / SampleRtt query then reflects the overlay at its `t_hours`.
/// Thread-safe: all queries are const and derive everything by hashing.
class NetworkDynamics {
 public:
  NetworkDynamics(DynamicsConfig config, const Topology* topology);

  /// Multiplicative congestion factor of the path between the two hosts at
  /// time `t_hours`; exactly 1.0 before start_hours, on same-host pairs, and
  /// on rack pairs with no live episode.
  double LinkMultiplier(int host_a, int host_b, double t_hours) const {
    return LinkMultiplierAt(host_a, host_b, CongestionEpoch(t_hours));
  }

  /// Where VM `vm_id` (whose allocation-time host is `home_host`) actually
  /// runs at `t_hours`: the target of its most recent relocation, or
  /// `home_host` when it was never relocated.
  int EffectiveHost(int vm_id, int home_host, double t_hours) const {
    return EffectiveHostInWindow(vm_id, home_host, RelocationWindow(t_hours));
  }

  /// Congestion epoch containing `t_hours`, or -1 while the overlay is inert
  /// (no episodes configured, or before start_hours). LinkMultiplier is
  /// constant within one epoch, so per-run samplers key on this index.
  int64_t CongestionEpoch(double t_hours) const;
  /// LinkMultiplier at a given CongestionEpoch (1.0 for epoch -1).
  double LinkMultiplierAt(int host_a, int host_b, int64_t epoch) const;

  /// Relocation window containing `t_hours`, or -1 while relocation is inert
  /// (probability 0, or before start_hours). EffectiveHost is constant
  /// within one window.
  int64_t RelocationWindow(double t_hours) const;
  /// EffectiveHost at a given RelocationWindow (`home_host` for window -1).
  int EffectiveHostInWindow(int vm_id, int home_host, int64_t window) const;

  /// True when the VM no longer runs on its allocation-time host at t.
  bool Relocated(int vm_id, int home_host, double t_hours) const {
    return EffectiveHost(vm_id, home_host, t_hours) != home_host;
  }

  const DynamicsConfig& config() const { return config_; }

 private:
  /// Deterministic uniform in [0,1) from hashing `key` into the seed space.
  double HashUniform(uint64_t key) const;

  DynamicsConfig config_;
  const Topology* topology_;
};

}  // namespace cloudia::net

#endif  // CLOUDIA_NETSIM_DYNAMICS_H_
