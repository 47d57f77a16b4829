#include "netsim/dynamics.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"

namespace cloudia::net {

namespace {

// Domain-separation tags for the hash chains (cf. latency_model.cc).
constexpr uint64_t kTagEpisode = 0x65706973;   // "epis"
constexpr uint64_t kTagSeverity = 0x73657665;  // "seve"
constexpr uint64_t kTagRelocate = 0x72656c6f;  // "relo"
constexpr uint64_t kTagTarget = 0x74617267;    // "targ"

uint64_t Combine(uint64_t a, uint64_t b) {
  uint64_t s = a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
  return SplitMix64(s);
}

}  // namespace

Status DynamicsConfig::Validate() const {
  if (epoch_minutes <= 0) {
    return Status::InvalidArgument("epoch_minutes must be > 0");
  }
  if (relocation_window_hours <= 0) {
    return Status::InvalidArgument("relocation_window_hours must be > 0");
  }
  if (recovery_per_epoch <= 0 || recovery_per_epoch > 1.0) {
    return Status::InvalidArgument("recovery_per_epoch must be in (0, 1]");
  }
  if (episode_rate < 0 || episode_rate > 1.0) {
    return Status::InvalidArgument("episode_rate must be in [0, 1]");
  }
  if (relocation_prob < 0 || relocation_prob > 1.0) {
    return Status::InvalidArgument("relocation_prob must be in [0, 1]");
  }
  if (severity_lo < 1.0 || severity_hi < severity_lo) {
    return Status::InvalidArgument(
        "severity interval must satisfy 1 <= severity_lo <= severity_hi");
  }
  if (max_episode_epochs < 1) {
    return Status::InvalidArgument("max_episode_epochs must be >= 1");
  }
  return Status::OK();
}

NetworkDynamics::NetworkDynamics(DynamicsConfig config,
                                 const Topology* topology)
    : config_(config), topology_(topology) {
  CLOUDIA_CHECK(topology != nullptr);
  CLOUDIA_CHECK(config_.Validate().ok());
}

double NetworkDynamics::HashUniform(uint64_t key) const {
  uint64_t s = Combine(config_.seed, key);
  return static_cast<double>(SplitMix64(s) >> 11) * 0x1.0p-53;
}

int64_t NetworkDynamics::CongestionEpoch(double t_hours) const {
  if (config_.episode_rate <= 0.0) return -1;
  const double since = t_hours - config_.start_hours;
  if (since < 0.0) return -1;
  return static_cast<int64_t>(since * 60.0 / config_.epoch_minutes);
}

double NetworkDynamics::LinkMultiplierAt(int host_a, int host_b,
                                         int64_t epoch) const {
  if (epoch < 0) return 1.0;
  if (host_a == host_b) return 1.0;  // same-host traffic never hits the fabric

  const int rack_a = topology_->RackOf(host_a);
  const int rack_b = topology_->RackOf(host_b);
  const uint64_t r_lo = static_cast<uint64_t>(std::min(rack_a, rack_b));
  const uint64_t r_hi = static_cast<uint64_t>(std::max(rack_a, rack_b));
  const uint64_t pair = Combine(r_lo, Combine(r_hi, 0x7261636bULL));

  const int64_t oldest =
      std::max<int64_t>(0, epoch - config_.max_episode_epochs + 1);
  // Sum the surviving excess of every episode whose onset falls inside the
  // lookback horizon; each decays geometrically from its onset severity.
  double multiplier = 1.0;
  for (int64_t e = oldest; e <= epoch; ++e) {
    const uint64_t episode_key =
        Combine(kTagEpisode, Combine(pair, static_cast<uint64_t>(e)));
    if (HashUniform(episode_key) >= config_.episode_rate) continue;
    const double u = HashUniform(
        Combine(kTagSeverity, Combine(pair, static_cast<uint64_t>(e))));
    const double severity =
        config_.severity_lo + u * (config_.severity_hi - config_.severity_lo);
    const double age = static_cast<double>(epoch - e);
    const double excess = (severity - 1.0) *
                          std::pow(1.0 - config_.recovery_per_epoch, age);
    multiplier += excess;
  }
  return multiplier;
}

int64_t NetworkDynamics::RelocationWindow(double t_hours) const {
  if (config_.relocation_prob <= 0.0) return -1;
  const double since = t_hours - config_.start_hours;
  if (since < 0.0) return -1;
  return static_cast<int64_t>(since / config_.relocation_window_hours);
}

int NetworkDynamics::EffectiveHostInWindow(int vm_id, int home_host,
                                           int64_t window) const {
  // Latest relocation wins; scan back from the current window. The scan is
  // linear in the window index, so the sampling loops memoize its result
  // per VM and window (net::LinkSampler).
  for (int64_t w = window; w >= 0; --w) {
    const uint64_t reloc_key =
        Combine(kTagRelocate, Combine(static_cast<uint64_t>(vm_id),
                                      static_cast<uint64_t>(w)));
    if (HashUniform(reloc_key) >= config_.relocation_prob) continue;
    const uint64_t target_key =
        Combine(kTagTarget, Combine(static_cast<uint64_t>(vm_id),
                                    static_cast<uint64_t>(w)));
    const int hosts = topology_->num_hosts();
    int target = static_cast<int>(HashUniform(target_key) *
                                  static_cast<double>(hosts));
    if (target >= hosts) target = hosts - 1;
    return target;
  }
  return home_host;
}

}  // namespace cloudia::net
