#include "common/topology.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

namespace fasted {
namespace {

TEST(Topology, ParseCpulistHandlesRangesAndSingles) {
  const auto cpus = Topology::parse_cpulist("0-3,8,10-11");
  EXPECT_EQ(cpus, (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(Topology::parse_cpulist("5"), std::vector<int>{5});
  EXPECT_TRUE(Topology::parse_cpulist("").empty());
  EXPECT_TRUE(Topology::parse_cpulist("banana").empty());
}

TEST(Topology, ParseSpecAcceptsDxCAndBareD) {
  const auto two_by_two = Topology::parse_spec("2x2");
  ASSERT_TRUE(two_by_two.has_value());
  EXPECT_EQ(two_by_two->domain_count(), 2u);
  EXPECT_TRUE(two_by_two->synthetic_spec());
  EXPECT_EQ(two_by_two->domain(0).cpus, (std::vector<int>{0, 1}));
  EXPECT_EQ(two_by_two->domain(1).cpus, (std::vector<int>{2, 3}));

  const auto bare = Topology::parse_spec("4");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->domain_count(), 4u);
  EXPECT_TRUE(bare->domain(0).cpus.empty());  // bare D never pins

  const auto unpinned = Topology::parse_spec("3x0");
  ASSERT_TRUE(unpinned.has_value());
  EXPECT_EQ(unpinned->domain_count(), 3u);
  EXPECT_TRUE(unpinned->domain(2).cpus.empty());
}

TEST(Topology, ParseSpecRejectsGarbage) {
  EXPECT_FALSE(Topology::parse_spec("").has_value());
  EXPECT_FALSE(Topology::parse_spec("0x2").has_value());
  EXPECT_FALSE(Topology::parse_spec("-1").has_value());
  EXPECT_FALSE(Topology::parse_spec("2x").has_value());
  EXPECT_FALSE(Topology::parse_spec("2y3").has_value());
  EXPECT_FALSE(Topology::parse_spec("2x3z").has_value());
}

TEST(Topology, DetectAlwaysYieldsAtLeastOneDomain) {
  // Whatever the host (bare metal, container without sysfs, restricted
  // cpuset), detection must come back usable.
  const Topology topo = Topology::detect();
  EXPECT_GE(topo.domain_count(), 1u);
}

TEST(Topology, EnvOverrideWinsOverDetection) {
  const char* saved = getenv("FASTED_TOPOLOGY");
  const std::string keep = saved ? saved : "";
  setenv("FASTED_TOPOLOGY", "3x1", 1);
  const Topology topo = Topology::detect();
  EXPECT_EQ(topo.domain_count(), 3u);
  EXPECT_TRUE(topo.synthetic_spec());
  // Malformed overrides fall through to real detection instead of dying.
  setenv("FASTED_TOPOLOGY", "nonsense", 1);
  EXPECT_GE(Topology::detect().domain_count(), 1u);
  if (saved != nullptr) {
    setenv("FASTED_TOPOLOGY", keep.c_str(), 1);
  } else {
    unsetenv("FASTED_TOPOLOGY");
  }
}

TEST(Topology, PinFailureWarnsButNeverAborts) {
  // A domain with no cpus is a no-op pin.
  EXPECT_FALSE(Topology::pin_current_thread(ExecutionDomain{}));
  // Bogus cpu ids (beyond any real machine) must fail gracefully — this is
  // the restricted-cpuset path: the thread keeps running unpinned.
  ExecutionDomain bogus;
  bogus.cpus = {100000, 100001};
  std::thread t([&] {
    const bool pinned = Topology::pin_current_thread(bogus);
    EXPECT_FALSE(pinned);
  });
  t.join();
}

TEST(Topology, PinToCurrentAffinityWorksWhereSupported) {
#if defined(__linux__)
  // Pinning to cpu 0 should succeed on any Linux runner that owns cpu 0
  // (all CI images do); if the cpuset excludes it, false is acceptable —
  // the call must simply not crash.
  ExecutionDomain d;
  d.cpus = {0};
  std::thread t([&] { (void)Topology::pin_current_thread(d); });
  t.join();
#endif
}

}  // namespace
}  // namespace fasted
