// Cheap drift detection against a deployment-time cost matrix.
//
// ClouDiA measures the network once and deploys once, but public-cloud
// latencies drift over hours (paper Figs. 2/19/21), so a one-shot deployment
// decays. Re-measuring the full matrix is the expensive, billed step
// (Sect. 6.2) -- doing it on a timer wastes exactly the cost the paper
// optimizes. The DriftMonitor instead re-probes a small *sampled* subset of
// links each check and keeps sequential statistics per sampled link on the
// relative deviation from the baseline matrix. Three layers make the
// statistic robust to the cloud's heavy-tailed per-sample noise:
//
//   * Robust probing: each check takes the *median* of a few RTT samples
//     spaced `probe_spacing_s` apart in virtual time, so one latency-burst
//     window (tens of ms long, magnitudes 10-40x a link's mean; Fig. 10)
//     cannot masquerade as drift, and the residual is clipped at
//     `deviation_clip`.
//   * Self-calibration: a baseline built from a full protocol run averages
//     over bursts that cheap point probes mostly miss, leaving a static
//     per-link bias. The first `warmup_checks` checks estimate that bias
//     (median over the warmup window) and later deviations are centered on
//     it, so only *change since deployment time* accumulates.
//   * EWMA + two-sided CUSUM: the centered deviation is smoothed by an EWMA
//     and fed into a CUSUM with slack `cusum_k`, which stays near zero on a
//     stationary network while ramping linearly once a link's mean truly
//     shifts (degradation *or* improvement both matter: a deployment can
//     become suboptimal either way).
//
// A check escalates -- "the matrix is stale, do a full re-measure" -- only
// when at least `min_drifted_links` sampled links hold a CUSUM score above
// `cusum_h`. One noisy link never triggers the expensive step; a real
// congestion episode or VM relocation moves several links at once and does.
//
// Everything is deterministic for a fixed seed: the sampled subset is drawn
// once at construction and each check's probes consume a stream forked from
// (seed, check index).
#ifndef CLOUDIA_REDEPLOY_DRIFT_MONITOR_H_
#define CLOUDIA_REDEPLOY_DRIFT_MONITOR_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/result.h"
#include "deploy/cost_matrix.h"
#include "netsim/cloud.h"

namespace cloudia::redeploy {

struct MonitorOptions {
  /// Ordered links re-probed per check (capped at the pool's link count).
  int sampled_links = 64;
  /// RTT samples per sampled link per check; the *median* is used, so one
  /// burst-hit sample cannot masquerade as drift.
  int probes_per_link = 5;
  /// Virtual seconds between a link's samples within one check -- far wider
  /// than a burst window, so the samples see independent burst states.
  double probe_spacing_s = 1.0;
  /// Checks spent estimating each link's static probe-vs-baseline bias
  /// before drift can accumulate (escalation is off during warmup).
  int warmup_checks = 3;
  /// Centered deviations are clipped to +-this before smoothing, bounding
  /// the influence any single heavy-tailed check can have.
  double deviation_clip = 0.75;
  /// EWMA smoothing factor on the per-check relative deviation.
  double ewma_alpha = 0.3;
  /// CUSUM slack: relative deviations below this magnitude are absorbed as
  /// noise (0.04 = 4% of the baseline link cost).
  double cusum_k = 0.04;
  /// CUSUM decision threshold per link.
  double cusum_h = 0.35;
  /// Links whose CUSUM must exceed cusum_h before a check escalates.
  int min_drifted_links = 3;
  /// Probe message size (matches the measurement protocols' default).
  double probe_bytes = net::kDefaultProbeBytes;
  uint64_t seed = 1;

  bool operator==(const MonitorOptions&) const = default;
};

/// Outcome of one monitoring check.
struct DriftCheck {
  double t_hours = 0.0;     ///< virtual time the probes ran at
  int links_checked = 0;
  int links_drifted = 0;    ///< sampled links with CUSUM score > cusum_h
  double max_score = 0.0;   ///< largest per-link CUSUM score
  double mean_abs_deviation = 0.0;  ///< mean |centered deviation| this check
  bool warming_up = false;  ///< still calibrating; escalation disabled
  bool escalate = false;    ///< true: do a full re-measure now
};

/// Monitors one measured environment (cloud + instance pool + baseline cost
/// matrix) for drift. Not thread-safe; one monitor per environment.
class DriftMonitor {
 public:
  /// `cloud` and `instances` must outlive the monitor; `baseline` is copied.
  /// Fails when the baseline does not cover the pool or the options are out
  /// of range.
  static Result<DriftMonitor> Create(const net::CloudSimulator* cloud,
                                     const std::vector<net::Instance>* instances,
                                     const deploy::CostMatrix& baseline,
                                     MonitorOptions options);

  /// Probes the sampled links at virtual time `t_hours`, updates the per-
  /// link EWMA/CUSUM state, and decides whether to escalate. Checks must be
  /// called with non-decreasing t_hours.
  DriftCheck Check(double t_hours);

  /// Installs a freshly measured matrix as the new baseline, resets the
  /// per-link statistics, and re-enters warmup (call after the full
  /// re-measure an escalation triggered). Fails on a size mismatch.
  Status Rebase(const deploy::CostMatrix& baseline);

  /// The fixed sampled subset, as ordered (i, j) index pairs into the pool.
  const std::vector<std::pair<int, int>>& sampled_links() const {
    return links_;
  }
  int checks_run() const { return checks_run_; }

 private:
  DriftMonitor(const net::CloudSimulator* cloud,
               const std::vector<net::Instance>* instances,
               deploy::CostMatrix baseline, MonitorOptions options,
               std::vector<std::pair<int, int>> links);

  const net::CloudSimulator* cloud_;
  const std::vector<net::Instance>* instances_;
  deploy::CostMatrix baseline_;
  MonitorOptions options_;
  std::vector<std::pair<int, int>> links_;
  /// Pool indices of the instances links_ touches, and links_ re-indexed
  /// into that list: each check samples through a LinkSampler over just
  /// these endpoints, so its memo is sized by the sample, not the pool.
  std::vector<int> endpoints_;
  std::vector<std::pair<int, int>> endpoint_links_;

  // Per sampled link, indexed like links_.
  std::vector<double> ewma_;
  std::vector<double> cusum_hi_;  ///< accumulates deviations above +k
  std::vector<double> cusum_lo_;  ///< accumulates deviations below -k
  std::vector<double> reference_; ///< calibrated static bias (post-warmup)
  std::vector<std::vector<double>> warmup_samples_;  ///< raw warmup deviations
  int checks_run_ = 0;
  int checks_since_rebase_ = 0;
};

}  // namespace cloudia::redeploy

#endif  // CLOUDIA_REDEPLOY_DRIFT_MONITOR_H_
