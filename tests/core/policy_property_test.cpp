// The execution-policy safety property at the engine: every block-tile
// shape and dispatch order (support/policies.hpp) drives the triangular
// self-join, monolithic and through 3-shard placement, with stealing on
// and off, on one and two execution domains — and must reproduce the
// default config's neighbor lists exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/fasted.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"
#include "support/policies.hpp"
#include "support/scoped_pool.hpp"

namespace fasted {
namespace {

using test_support::ScopedSteal;
using test_support::ScopedTopology;

TEST(ScheduleProperty, SelfJoinBitIdenticalForEverySchedule) {
  const auto data = data::uniform(350, 12, 4050);
  const float eps = data::calibrate_epsilon(data, 20.0).eps;

  JoinOutput expect;
  {
    ScopedTopology flat(1);
    expect = FastedEngine().self_join(data, eps);
  }

  for (const std::size_t domains : {std::size_t{1}, std::size_t{2}}) {
    ScopedTopology topo(domains);
    const PreparedShards set = prepare_shards(data, 3);
    for (const bool steal : {true, false}) {
      ScopedSteal steal_pin(steal);
      for (const FastedConfig& cfg : test_support::execution_policies()) {
        const FastedEngine engine(cfg);
        for (const bool sharded : {false, true}) {
          const std::string label =
              "domains=" + std::to_string(domains) +
              (steal ? " steal " : " no-steal ") + cfg.describe() +
              (sharded ? " sharded" : " mono");
          const JoinOutput got = sharded ? engine.self_join(set.span(), eps)
                                         : engine.self_join(data, eps);
          ASSERT_EQ(got.pair_count, expect.pair_count) << label;
          for (std::size_t i = 0; i < data.rows(); ++i) {
            const auto a = expect.result.neighbors_of(i);
            const auto b = got.result.neighbors_of(i);
            ASSERT_EQ(std::vector<std::uint32_t>(b.begin(), b.end()),
                      std::vector<std::uint32_t>(a.begin(), a.end()))
                << label << " row " << i;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace fasted
