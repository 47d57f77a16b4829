#include "redeploy/drift_monitor.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/rng.h"
#include "netsim/link_sampler.h"

namespace cloudia::redeploy {

namespace {

uint64_t MonitorSeed(uint64_t seed) {
  uint64_t s = seed ^ 0x6d6f6e69746f72ULL;  // "monitor"
  return SplitMix64(s);
}

// Median of a small sample (copies; n is probes_per_link, single digits).
double Median(std::vector<double> v) {
  CLOUDIA_DCHECK(!v.empty());
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid),
                   v.end());
  if (v.size() % 2 == 1) return v[mid];
  const double hi = v[mid];
  const double lo =
      *std::max_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

}  // namespace

Result<DriftMonitor> DriftMonitor::Create(
    const net::CloudSimulator* cloud,
    const std::vector<net::Instance>* instances,
    const deploy::CostMatrix& baseline, MonitorOptions options) {
  if (cloud == nullptr || instances == nullptr) {
    return Status::InvalidArgument("monitor needs a cloud and a pool");
  }
  const int n = static_cast<int>(instances->size());
  if (n < 2) return Status::InvalidArgument("monitor pool needs >= 2 instances");
  if (baseline.size() != n) {
    return Status::InvalidArgument(
        "baseline matrix covers " + std::to_string(baseline.size()) +
        " instances but the pool has " + std::to_string(n));
  }
  if (options.sampled_links < 1 || options.probes_per_link < 1) {
    return Status::InvalidArgument(
        "sampled_links and probes_per_link must be >= 1");
  }
  if (options.ewma_alpha <= 0.0 || options.ewma_alpha > 1.0) {
    return Status::InvalidArgument("ewma_alpha must be in (0, 1]");
  }
  if (options.cusum_k < 0.0 || options.cusum_h <= 0.0) {
    return Status::InvalidArgument("cusum_k must be >= 0 and cusum_h > 0");
  }
  if (options.warmup_checks < 1 || options.deviation_clip <= 0.0) {
    return Status::InvalidArgument(
        "warmup_checks must be >= 1 and deviation_clip > 0");
  }

  // Draw the fixed sampled subset of ordered links once. Sampling link
  // *indices* without replacement keeps coverage spread over the pool and
  // makes the subset a pure function of (seed, n).
  const int64_t total = static_cast<int64_t>(n) * (n - 1);
  const int64_t want = std::min<int64_t>(options.sampled_links, total);
  Rng rng(MonitorSeed(options.seed));
  std::vector<int> picks = rng.SampleWithoutReplacement(
      static_cast<int>(total), static_cast<int>(want));
  std::sort(picks.begin(), picks.end());  // deterministic probe order
  std::vector<std::pair<int, int>> links;
  links.reserve(picks.size());
  for (int p : picks) {
    const int i = p / (n - 1);
    int j = p % (n - 1);
    if (j >= i) ++j;  // skip the diagonal
    links.push_back({i, j});
  }
  return DriftMonitor(cloud, instances, baseline, std::move(options),
                      std::move(links));
}

DriftMonitor::DriftMonitor(const net::CloudSimulator* cloud,
                           const std::vector<net::Instance>* instances,
                           deploy::CostMatrix baseline, MonitorOptions options,
                           std::vector<std::pair<int, int>> links)
    : cloud_(cloud),
      instances_(instances),
      baseline_(std::move(baseline)),
      options_(std::move(options)),
      links_(std::move(links)),
      ewma_(links_.size(), 0.0),
      cusum_hi_(links_.size(), 0.0),
      cusum_lo_(links_.size(), 0.0),
      reference_(links_.size(), 0.0),
      warmup_samples_(links_.size()) {
  std::vector<int> slot(instances_->size(), -1);
  endpoint_links_.reserve(links_.size());
  for (const auto& [i, j] : links_) {
    for (int v : {i, j}) {
      if (slot[static_cast<size_t>(v)] < 0) {
        slot[static_cast<size_t>(v)] = static_cast<int>(endpoints_.size());
        endpoints_.push_back(v);
      }
    }
    endpoint_links_.push_back(
        {slot[static_cast<size_t>(i)], slot[static_cast<size_t>(j)]});
  }
}

Status DriftMonitor::Rebase(const deploy::CostMatrix& baseline) {
  if (baseline.size() != static_cast<int>(instances_->size())) {
    return Status::InvalidArgument(
        "rebase matrix covers " + std::to_string(baseline.size()) +
        " instances but the pool has " + std::to_string(instances_->size()));
  }
  baseline_ = baseline;
  std::fill(ewma_.begin(), ewma_.end(), 0.0);
  std::fill(cusum_hi_.begin(), cusum_hi_.end(), 0.0);
  std::fill(cusum_lo_.begin(), cusum_lo_.end(), 0.0);
  std::fill(reference_.begin(), reference_.end(), 0.0);
  for (auto& samples : warmup_samples_) samples.clear();
  checks_since_rebase_ = 0;
  return Status::OK();
}

DriftCheck DriftMonitor::Check(double t_hours) {
  DriftCheck check;
  check.t_hours = t_hours;
  check.links_checked = static_cast<int>(links_.size());
  check.warming_up = checks_since_rebase_ < options_.warmup_checks;

  // Each check consumes a stream forked from (seed, check index): two
  // monitors with equal seeds replay bit-identically, and a check's probe
  // noise is independent of how many probes earlier checks ran.
  uint64_t stream = MonitorSeed(options_.seed) ^
                    (0x636865636bULL + static_cast<uint64_t>(checks_run_));
  Rng rng(SplitMix64(stream));

  std::vector<net::Instance> endpoints;
  endpoints.reserve(endpoints_.size());
  for (int v : endpoints_) {
    endpoints.push_back((*instances_)[static_cast<size_t>(v)]);
  }
  net::LinkSampler sampler(*cloud_, endpoints);

  const double spacing_h = options_.probe_spacing_s / 3600.0;
  double abs_dev_sum = 0.0;
  std::vector<double> samples(static_cast<size_t>(options_.probes_per_link));
  for (size_t k = 0; k < links_.size(); ++k) {
    const auto [i, j] = links_[k];
    const auto [ei, ej] = endpoint_links_[k];
    for (int p = 0; p < options_.probes_per_link; ++p) {
      samples[static_cast<size_t>(p)] = sampler.SampleRtt(
          ei, ej, options_.probe_bytes, t_hours + p * spacing_h, rng);
    }
    const double probe = Median(samples);
    const double base = std::max(baseline_.At(i, j), 1e-9);
    const double raw = (probe - base) / base;

    if (check.warming_up) {
      // Calibration: remember the raw deviation; the per-link reference is
      // its median over the warmup window, which absorbs the static bias
      // between a protocol-measured mean and a point-probe median.
      warmup_samples_[k].push_back(raw);
      if (static_cast<int>(warmup_samples_[k].size()) ==
          options_.warmup_checks) {
        reference_[k] = Median(warmup_samples_[k]);
        warmup_samples_[k].clear();
      }
      continue;
    }

    const double centered = std::clamp(raw - reference_[k],
                                       -options_.deviation_clip,
                                       options_.deviation_clip);
    ewma_[k] = options_.ewma_alpha * centered +
               (1.0 - options_.ewma_alpha) * ewma_[k];
    // Two-sided CUSUM on the smoothed deviation: only the part beyond the
    // slack accumulates, so stationary jitter decays the sums back to 0.
    cusum_hi_[k] = std::max(0.0, cusum_hi_[k] + ewma_[k] - options_.cusum_k);
    cusum_lo_[k] = std::max(0.0, cusum_lo_[k] - ewma_[k] - options_.cusum_k);
    const double score = std::max(cusum_hi_[k], cusum_lo_[k]);

    abs_dev_sum += std::fabs(centered);
    check.max_score = std::max(check.max_score, score);
    if (score > options_.cusum_h) ++check.links_drifted;
  }
  check.mean_abs_deviation =
      links_.empty() ? 0.0 : abs_dev_sum / static_cast<double>(links_.size());
  check.escalate =
      !check.warming_up && check.links_drifted >= options_.min_drifted_links;
  ++checks_run_;
  ++checks_since_rebase_;
  return check;
}

}  // namespace cloudia::redeploy
