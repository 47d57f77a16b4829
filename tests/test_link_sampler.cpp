// net::LinkSampler: its memo is exact (every sample equals the uncached
// CloudSimulator::SampleRtt, in any query order, with relocation and
// congestion), it derives each link's parameters once per effective-host
// pair, and runs sharing one const CloudSimulator stay independent.
#include "netsim/link_sampler.h"

#include <gtest/gtest.h>

#include <set>
#include <thread>
#include <tuple>
#include <vector>

#include "measure_test_util.h"

namespace cloudia::net {
namespace {

using measure::FastDynamics;
using measure::Protocol;
using measure::ProtocolOptions;
using measure::RunFingerprint;

constexpr double kStartHours = 2.0;

TEST(LinkSamplerTest, SamplesEqualTheUncachedPathInAnyOrder) {
  CloudSimulator cloud(GoogleComputeEngineProfile(), 4);
  auto pool = cloud.Allocate(9);
  ASSERT_TRUE(pool.ok());
  const NetworkDynamics dynamics(FastDynamics(kStartHours, 8),
                                 &cloud.topology());
  const NetworkDynamics* overlays[] = {nullptr, &dynamics};
  for (const NetworkDynamics* overlay : overlays) {
    cloud.AttachDynamics(overlay);
    LinkSampler sampler(cloud, *pool);
    Rng cached(99), uncached(99), queries(5);
    for (int k = 0; k < 4000; ++k) {
      const int i = static_cast<int>(queries.Below(9));
      int j = static_cast<int>(queries.Below(8));
      if (j >= i) ++j;
      // Times jump back and forth across windows and epochs, including
      // before the overlay starts.
      const double t = kStartHours + queries.Uniform(-0.002, 0.01);
      const double bytes = queries.Bernoulli(0.5) ? 64.0 : 1024.0;
      const double a = sampler.SampleRtt(i, j, bytes, t, cached);
      const double b = cloud.SampleRtt((*pool)[static_cast<size_t>(i)],
                                       (*pool)[static_cast<size_t>(j)], bytes,
                                       t, uncached);
      ASSERT_EQ(a, b) << "query " << k << " link " << i << "->" << j
                      << " at t=" << t;
    }
  }
}

TEST(LinkSamplerTest, StaticStagedRunDerivesEachLinkOnce) {
  CloudSimulator cloud(AmazonEc2Profile(), 11);
  const int n = 10;
  auto pool = cloud.Allocate(n);
  ASSERT_TRUE(pool.ok());
  LinkSampler sampler(cloud, *pool);
  ProtocolOptions options;
  options.duration_s = 15.0;
  auto r = measure::RunProtocol(sampler, Protocol::kStaged, options);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(sampler.derivations(), n * (n - 1));
  EXPECT_GT(r->total_samples(), 100 * sampler.derivations());
  // The sampler-taking entry point is the same run as the pool-taking one.
  auto direct = measure::RunStaged(cloud, *pool, options);
  ASSERT_TRUE(direct.ok());
  EXPECT_EQ(RunFingerprint(*r), RunFingerprint(*direct));
}

TEST(LinkSamplerTest, RelocationRederivesOnlyWhenAnEffectiveHostChanges) {
  CloudSimulator cloud(RackspaceCloudProfile(), 6);
  const int n = 8;
  auto pool = cloud.Allocate(n);
  ASSERT_TRUE(pool.ok());
  DynamicsConfig config = FastDynamics(kStartHours, 3);
  config.episode_rate = 0.0;  // relocation only
  NetworkDynamics dynamics(config, &cloud.topology());
  cloud.AttachDynamics(&dynamics);

  // Sweep every link at 12 instants, two per relocation window, and
  // count by hand the (link, effective-host pair) changes the memo must see.
  LinkSampler sampler(cloud, *pool);
  Rng rng(1);
  std::vector<std::pair<int, int>> seen(static_cast<size_t>(n * n), {-1, -1});
  int64_t expected = 0;
  bool relocated = false;
  for (int step = 0; step < 12; ++step) {
    const double t = kStartHours + step * (1.0 / 3600.0);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        if (i == j) continue;
        const Instance& a = (*pool)[static_cast<size_t>(i)];
        const Instance& b = (*pool)[static_cast<size_t>(j)];
        const std::pair<int, int> hosts = {
            dynamics.EffectiveHost(a.id, a.host, t),
            dynamics.EffectiveHost(b.id, b.host, t)};
        relocated = relocated || hosts.first != a.host;
        auto& last = seen[static_cast<size_t>(i * n + j)];
        if (last != hosts) ++expected;
        last = hosts;
        sampler.SampleRtt(i, j, kDefaultProbeBytes, t, rng);
      }
    }
  }
  ASSERT_TRUE(relocated) << "scenario never relocates a VM";
  EXPECT_GT(expected, n * (n - 1));
  EXPECT_EQ(sampler.derivations(), expected);

  // A staged run under the same overlay derives at most once per link and
  // window, far fewer than its samples.
  LinkSampler run_sampler(cloud, *pool);
  ProtocolOptions options;
  options.duration_s = 12.0;
  options.start_t_hours = kStartHours;
  auto r = measure::RunProtocol(run_sampler, Protocol::kStaged, options);
  ASSERT_TRUE(r.ok());
  EXPECT_GE(run_sampler.derivations(), n * (n - 1));
  EXPECT_LE(run_sampler.derivations(), 7 * n * (n - 1));
  EXPECT_LT(run_sampler.derivations() * 50, r->total_samples());
}

TEST(LinkSamplerTest, ConcurrentRunsOnOneCloudMatchSerialRuns) {
  CloudSimulator cloud(AmazonEc2Profile(), 21);
  auto pool = cloud.Allocate(10);
  ASSERT_TRUE(pool.ok());
  NetworkDynamics dynamics(FastDynamics(kStartHours, 2), &cloud.topology());
  cloud.AttachDynamics(&dynamics);
  const CloudSimulator& shared = cloud;

  using Job = std::tuple<Protocol, uint64_t>;
  std::vector<Job> jobs;
  for (Protocol p : {Protocol::kStaged, Protocol::kUncoordinated,
                     Protocol::kTokenPassing}) {
    for (uint64_t seed : {1, 2, 3, 4}) jobs.push_back({p, seed});
  }
  auto run = [&](const Job& job) {
    ProtocolOptions options;
    options.duration_s = 4.0;
    options.start_t_hours = kStartHours;
    options.seed = std::get<1>(job);
    auto r = measure::RunProtocol(shared, *pool, std::get<0>(job), options);
    CLOUDIA_CHECK(r.ok());
    return RunFingerprint(*r);
  };
  std::vector<uint64_t> serial;
  for (const Job& job : jobs) serial.push_back(run(job));
  EXPECT_EQ(std::set<uint64_t>(serial.begin(), serial.end()).size(),
            jobs.size());

  std::vector<uint64_t> parallel(jobs.size(), 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = static_cast<size_t>(t); k < jobs.size(); k += 4) {
        parallel[k] = run(jobs[k]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(parallel, serial);
}

}  // namespace
}  // namespace cloudia::net
