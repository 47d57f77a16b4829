// Golden values for the measurement simulator. Each protocol run on each
// provider is pinned by a fingerprint over every link's count, mean, SD and
// p99 plus the sample total and virtual time (see measure_test_util.h),
// together with a few values at %.17g. The values were recorded on the
// implementation that re-derived each link's parameters on every sample, so
// a faster sampler that changes any sample, its RNG draw order or its
// floating-point order fails here.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "deploy/cost_matrix.h"
#include "measure_test_util.h"
#include "netsim/cloud.h"
#include "redeploy/drift_monitor.h"

namespace cloudia::measure {
namespace {

struct Case {
  Protocol protocol;
  const char* provider;
  const char* expected;
};

net::ProviderProfile ProfileNamed(const std::string& name) {
  if (name == "ec2") return net::AmazonEc2Profile();
  if (name == "gce") return net::GoogleComputeEngineProfile();
  return net::RackspaceCloudProfile();
}

constexpr double kStartHours = 1.5;

// 12 instances measured for 20 virtual seconds from t = 1.5 h.
std::string RunCase(const Case& c, bool with_dynamics) {
  net::CloudSimulator cloud(ProfileNamed(c.provider), /*seed=*/31);
  auto pool = cloud.Allocate(12);
  CLOUDIA_CHECK(pool.ok());
  net::NetworkDynamics dynamics(FastDynamics(kStartHours, /*seed=*/5),
                                &cloud.topology());
  if (with_dynamics) cloud.AttachDynamics(&dynamics);
  ProtocolOptions options;
  options.duration_s = 20.0;
  options.start_t_hours = kStartHours;
  options.seed = 77;
  auto r = RunProtocol(cloud, *pool, c.protocol, options);
  CLOUDIA_CHECK(r.ok());
  return RunSummary(*r);
}

const Case kStatic[] = {
    {Protocol::kStaged, "ec2", "fp=e143514cc48c102a samples=185820"
     " vt=20004.539593217127 m01=0.22357857706843784 p01=0.34371821258723412"},
    {Protocol::kStaged, "gce", "fp=b71cec6c60b18c95 samples=239160"
     " vt=20003.479517754749 m01=0.38325311346101654 p01=0.44080735062817766"},
    {Protocol::kStaged, "rackspace", "fp=3ef7e2a5d5400bbd samples=282180"
     " vt=20001.281203214137 m01=0.33530444442783458 p01=0.43255886002245109"},
    {Protocol::kUncoordinated, "ec2", "fp=b59fea148e33c6dd samples=306281"
     " vt=20000 m01=0.54745683830368519 p01=8.8731421743592485"},
    {Protocol::kUncoordinated, "gce", "fp=56446d570f4cbefb samples=420188"
     " vt=20000 m01=0.55412933430165101 p01=2.763125487073415"},
    {Protocol::kUncoordinated, "rackspace",
     "fp=3f57049ab691d08e samples=453068"
     " vt=20000 m01=0.52569752319791585 p01=2.5581028885843358"},
    {Protocol::kTokenPassing, "ec2", "fp=1357c4215376166f samples=29671"
     " vt=20000.379986898464 m01=0.22755907823050228 p01=0.3386456188756764"},
    {Protocol::kTokenPassing, "gce", "fp=56fa905adfce00b1 samples=35977"
     " vt=20000.307916278893 m01=0.4127733236824952 p01=3.1475655484692466"},
    {Protocol::kTokenPassing, "rackspace", "fp=ea47b7f8ad906347 samples=47061"
     " vt=20000.074134627088 m01=0.34155884322898111 p01=0.41395130988519974"},
};

const Case kDynamic[] = {
    {Protocol::kStaged, "ec2", "fp=2fec8553ecc849bc samples=65460"
     " vt=20009.935564894018 m01=1.1737555616097919 p01=2.3199087309889008"},
    {Protocol::kStaged, "gce", "fp=0f581b1f6ddd2981 samples=89340"
     " vt=20016.301515505344 m01=1.239198151086417 p01=2.0483645080136728"},
    {Protocol::kStaged, "rackspace", "fp=bb5e4963059579f6 samples=117840"
     " vt=20006.138071362788 m01=0.76194207075847065 p01=1.22729284037257"},
    {Protocol::kUncoordinated, "ec2", "fp=0ee0e970170acabb samples=211511"
     " vt=20000 m01=1.3078637224464587 p01=6.9892403371132819"},
    {Protocol::kUncoordinated, "gce", "fp=70a2615696ca4596 samples=289342"
     " vt=20000 m01=1.2920372286466009 p01=2.2805945814957069"},
    {Protocol::kUncoordinated, "rackspace",
     "fp=317252a4e0b9f67a samples=351337"
     " vt=20000 m01=0.88755964463489723 p01=1.51865878589757"},
    {Protocol::kTokenPassing, "ec2", "fp=7fc7967ea22a4380 samples=13119"
     " vt=20000.43858316922 m01=1.2023015963588815 p01=2.2329513236597101"},
    {Protocol::kTokenPassing, "gce", "fp=977e417d832d6445 samples=17644"
     " vt=20000.335971223667 m01=1.2621776420939665 p01=2.0551909734559741"},
    {Protocol::kTokenPassing, "rackspace", "fp=1ebd6bd3e3f2f17f samples=23650"
     " vt=20000.294395448207 m01=0.78232877793125344 p01=1.2533438097597565"},
};

TEST(MeasureGoldenTest, StaticNetworkRunsMatchRecordedValues) {
  for (const Case& c : kStatic) {
    EXPECT_EQ(RunCase(c, /*with_dynamics=*/false), c.expected)
        << ProtocolName(c.protocol) << " on " << c.provider;
  }
}

TEST(MeasureGoldenTest, DriftingNetworkRunsMatchRecordedValues) {
  for (const Case& c : kDynamic) {
    EXPECT_EQ(RunCase(c, /*with_dynamics=*/true), c.expected)
        << ProtocolName(c.protocol) << " on " << c.provider
        << " with relocation and congestion";
  }
}

TEST(MeasureGoldenTest, DriftMonitorChecksMatchRecordedValues) {
  net::CloudSimulator cloud(net::AmazonEc2Profile(), /*seed=*/13);
  auto pool = cloud.Allocate(16);
  ASSERT_TRUE(pool.ok());
  deploy::CostMatrix baseline(16);
  const auto truth = cloud.ExpectedRttMatrix(*pool);
  for (int i = 0; i < 16; ++i) {
    for (int j = 0; j < 16; ++j) {
      if (i != j) {
        baseline.At(i, j) =
            truth[static_cast<size_t>(i)][static_cast<size_t>(j)];
      }
    }
  }
  // Congestion epochs and relocation windows short enough that the six
  // checks, half an hour apart, each see a different overlay.
  net::DynamicsConfig drift;
  drift.start_hours = 1.0;
  drift.epoch_minutes = 20.0;
  drift.episode_rate = 0.4;
  drift.relocation_window_hours = 0.75;
  drift.relocation_prob = 0.15;
  drift.seed = 9;
  net::NetworkDynamics dynamics(drift, &cloud.topology());
  cloud.AttachDynamics(&dynamics);

  redeploy::MonitorOptions options;
  options.sampled_links = 40;
  options.warmup_checks = 2;
  options.seed = 3;
  auto monitor =
      redeploy::DriftMonitor::Create(&cloud, &*pool, baseline, options);
  ASSERT_TRUE(monitor.ok());
  uint64_t h = 0;
  std::string last;
  for (int k = 0; k < 6; ++k) {
    const redeploy::DriftCheck check = monitor->Check(0.5 * k);
    h = FoldFingerprint(h, static_cast<uint64_t>(check.links_drifted));
    h = FoldFingerprint(h, check.max_score);
    h = FoldFingerprint(h, check.mean_abs_deviation);
    h = FoldFingerprint(h, static_cast<uint64_t>(check.escalate));
    last = StrFormat("drifted=%d max=%.17g mad=%.17g", check.links_drifted,
                     check.max_score, check.mean_abs_deviation);
  }
  EXPECT_EQ(StrFormat("fp=%016llx %s", static_cast<unsigned long long>(h),
                      last.c_str()),
            "fp=698a51b73aa88307 drifted=33 "
            "max=1.5101749999999998 mad=0.67202241149970388");
}

}  // namespace
}  // namespace cloudia::measure
