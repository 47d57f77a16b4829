#include "netsim/link_sampler.h"

#include "common/check.h"

namespace cloudia::net {

LinkSampler::LinkSampler(const CloudSimulator& cloud,
                         const std::vector<Instance>& instances)
    : cloud_(&cloud),
      dynamics_(cloud.dynamics()),
      n_(static_cast<int>(instances.size())),
      hosts_(dynamics_ != nullptr ? instances.size() : 0),
      links_(instances.size() * instances.size()) {
  vm_.reserve(instances.size());
  home_.reserve(instances.size());
  for (const Instance& instance : instances) {
    vm_.push_back(instance.id);
    home_.push_back(instance.host);
  }
}

int LinkSampler::EffectiveHost(int i, int64_t window) {
  HostMemo& memo = hosts_[static_cast<size_t>(i)];
  if (memo.window != window) {
    memo.host = dynamics_->EffectiveHostInWindow(
        vm_[static_cast<size_t>(i)], home_[static_cast<size_t>(i)], window);
    memo.window = window;
  }
  return memo.host;
}

double LinkSampler::SampleRtt(int i, int j, double msg_bytes, double t_hours,
                              Rng& rng) {
  CLOUDIA_DCHECK(i >= 0 && i < n_ && j >= 0 && j < n_ && i != j);
  // Same order as CloudSimulator::SampleRtt: relocation first, then the
  // congestion of the path actually traversed.
  int host_a = home_[static_cast<size_t>(i)];
  int host_b = home_[static_cast<size_t>(j)];
  if (dynamics_ != nullptr) {
    const int64_t window = dynamics_->RelocationWindow(t_hours);
    host_a = EffectiveHost(i, window);
    host_b = EffectiveHost(j, window);
  }
  LinkMemo& link = links_[static_cast<size_t>(i) * static_cast<size_t>(n_) +
                          static_cast<size_t>(j)];
  if (link.host_a != host_a || link.host_b != host_b) {
    link.params = cloud_->model().Link(vm_[static_cast<size_t>(i)], host_a,
                                       vm_[static_cast<size_t>(j)], host_b);
    link.host_a = host_a;
    link.host_b = host_b;
    link.epoch = kUnset;
    ++derivations_;
  }
  double multiplier = 1.0;
  if (dynamics_ != nullptr) {
    const int64_t epoch = dynamics_->CongestionEpoch(t_hours);
    if (link.epoch != epoch) {
      link.multiplier = dynamics_->LinkMultiplierAt(host_a, host_b, epoch);
      link.epoch = epoch;
    }
    multiplier = link.multiplier;
  }
  return multiplier *
         cloud_->model().SampleRtt(link.params, msg_bytes, t_hours, rng);
}

}  // namespace cloudia::net
