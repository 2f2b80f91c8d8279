// The unified execution layer's contracts:
//  * every rz_dot variant (scalar, AVX2, AVX512 — whichever this CPU runs)
//    is bit-identical to the sequential add_rz chain on randomized
//    dims/strides/tail widths, at every query count and (one-row entry)
//    every panel count, and on adversarial values (sub-ulp cancellation,
//    FP16 subnormals, +-65504, long rows),
//  * pack_panel zero-fills tail lanes,
//  * the three ResultSinks (count-only, CSR, streaming) agree pair-for-pair
//    through the public join APIs, on both kernel paths.

#include "core/kernels/rz_dot.hpp"

#include <gtest/gtest.h>

#include "core/kernels/kernel_context.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/check.hpp"
#include "common/fp16.hpp"
#include "common/rng.hpp"
#include "core/fasted.hpp"
#include "core/kernels/merging_sink.hpp"
#include "core/kernels/mpsc_ring.hpp"
#include "core/kernels/result_sink.hpp"
#include "data/calibrate.hpp"
#include "data/generators.hpp"

namespace fasted {
namespace {

using kernels::kMultiPanel;
using kernels::kPanelWidth;
using kernels::kQueryBlock;

// FP16-exact value streams, like every input the pipeline ever sees.
std::vector<float> fp16_exact_values(Rng& rng, std::size_t count,
                                     double magnitude) {
  std::vector<float> out(count);
  for (auto& v : out) {
    v = quantize_fp16(static_cast<float>(rng.uniform(-magnitude, magnitude)));
  }
  return out;
}

// Packs `nrows` corpus rows and checks every supported kernel, at every
// nq in 1..kQueryBlock, bit for bit against rz_dot_pair — so a kernel that
// special-cases one block size cannot hide a wrong chain in another.
// `queries` holds kQueryBlock rows; a call with nq reads the first nq.
// The one-row entry (dot_row) is checked the same way at every npanels in
// 1..kMultiPanel, for every query row, over the last npanels of
// kMultiPanel panels laid out like PreparedDataset::panels(): full panels
// of the corpus rows (a different rotation per panel), then the `nrows`
// rows themselves as the zero-tailed last panel.
void expect_all_kernels_match_pair_chain(const std::vector<float>& queries,
                                         const std::vector<float>& corpus,
                                         std::size_t stride, std::size_t nrows,
                                         std::size_t dims,
                                         const std::string& label) {
  ASSERT_GE(queries.size(), kQueryBlock * stride);
  std::vector<float> expect(kQueryBlock * kPanelWidth, 0.0f);
  for (std::size_t qi = 0; qi < kQueryBlock; ++qi) {
    for (std::size_t r = 0; r < nrows; ++r) {
      expect[qi * kPanelWidth + r] = kernels::rz_dot_pair(
          queries.data() + qi * stride, corpus.data() + r * stride, dims);
    }
  }
  std::vector<float> panel(dims * kPanelWidth);
  kernels::pack_panel(corpus.data(), stride, nrows, dims, panel.data());

  // The multi-panel corpus: (kMultiPanel - 1) full panels, then `nrows`.
  const std::size_t full = (kMultiPanel - 1) * kPanelWidth;
  std::vector<float> rows((full + nrows) * stride);
  for (std::size_t i = 0; i < full + nrows; ++i) {
    const std::size_t src = i < full ? (i + i / kPanelWidth + 1) % nrows
                                     : i - full;
    std::copy_n(corpus.data() + src * stride, stride,
                rows.data() + i * stride);
  }
  std::vector<float> row_expect(kQueryBlock * kMultiPanel * kPanelWidth, 0.0f);
  for (std::size_t qi = 0; qi < kQueryBlock; ++qi) {
    for (std::size_t i = 0; i < full + nrows; ++i) {
      row_expect[qi * kMultiPanel * kPanelWidth + i] = kernels::rz_dot_pair(
          queries.data() + qi * stride, rows.data() + i * stride, dims);
    }
  }
  std::vector<float> panels(kMultiPanel * dims * kPanelWidth);
  for (std::size_t p = 0; p < kMultiPanel; ++p) {
    kernels::pack_panel(rows.data() + p * kPanelWidth * stride, stride,
                        p + 1 < kMultiPanel ? kPanelWidth : nrows, dims,
                        panels.data() + p * dims * kPanelWidth);
  }

  for (const kernels::RzDotKernel* kern :
       kernels::KernelRegistry::global().supported()) {
    for (std::size_t nq = 1; nq <= kQueryBlock; ++nq) {
      std::vector<float> acc(nq * kPanelWidth, -1.0f);
      kern->dot_panel(queries.data(), stride, nq, panel.data(), dims,
                      acc.data());
      for (std::size_t i = 0; i < acc.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint32_t>(expect[i]),
                  std::bit_cast<std::uint32_t>(acc[i]))
            << label << ": " << kern->name << " nq " << nq << " dims "
            << dims << " stride " << stride << " nrows " << nrows << " q "
            << i / kPanelWidth << " lane " << i % kPanelWidth << " expect "
            << expect[i] << " got " << acc[i];
      }
    }
    for (std::size_t np = 1; np <= kMultiPanel; ++np) {
      const std::size_t first = kMultiPanel - np;
      for (std::size_t qi = 0; qi < kQueryBlock; ++qi) {
        std::vector<float> acc(np * kPanelWidth, -1.0f);
        kern->dot_row(queries.data() + qi * stride,
                      panels.data() + first * dims * kPanelWidth, np, dims,
                      acc.data());
        for (std::size_t i = 0; i < acc.size(); ++i) {
          const float want =
              row_expect[qi * kMultiPanel * kPanelWidth +
                         first * kPanelWidth + i];
          ASSERT_EQ(std::bit_cast<std::uint32_t>(want),
                    std::bit_cast<std::uint32_t>(acc[i]))
              << label << ": " << kern->name << " dot_row npanels " << np
              << " dims " << dims << " stride " << stride << " nrows "
              << nrows << " q " << qi << " panel " << first + i / kPanelWidth
              << " lane " << i % kPanelWidth << " expect " << want
              << " got " << acc[i];
        }
      }
    }
  }
}

TEST(RzDotKernels, AllVariantsMatchScalarChainOnRandomizedShapes) {
  Rng rng(2025);
  ASSERT_GE(kernels::KernelRegistry::global().supported().size(), 1u);

  for (int trial = 0; trial < 200; ++trial) {
    // Mostly short rows; every tenth trial is long (512..1023 dims) so the
    // kernels' dimension chunking and long chains are covered too.
    const std::size_t dims = trial % 10 == 9 ? 512 + rng.next_u64() % 512
                                             : 1 + rng.next_u64() % 130;
    const std::size_t stride = dims + rng.next_u64() % 9;  // padded rows
    const std::size_t nrows = 1 + rng.next_u64() % kPanelWidth;
    // Mostly unit-scale data; occasionally large magnitudes so the RZ
    // truncation is exercised at every exponent in every lane.
    const double mag = trial % 7 == 0 ? 6.0e4 : 2.0;

    const auto corpus = fp16_exact_values(rng, nrows * stride, mag);
    const auto queries = fp16_exact_values(rng, kQueryBlock * stride, mag);
    expect_all_kernels_match_pair_chain(queries, corpus, stride, nrows, dims,
                                        "trial " + std::to_string(trial));
    if (HasFatalFailure()) return;
  }
}

// Corner cases of the contract RZ_f(RN_d(acc + p)) (common/rounding.hpp)
// that random data almost never reaches.
TEST(RzDotKernels, AllVariantsMatchScalarChainOnAdversarialValues) {
  const float two_m24 = std::ldexp(1.0f, -24);  // smallest FP16 subnormal
  const float fp16_max = 65504.0f;

  // A 2^26 accumulator (8192 * 8192) followed by a -2^-24 * 2^-8 product:
  // RN_d(2^26 - 2^-32) is 2^26, so the chain returns 2^26 where IEEE RZ of
  // the exact sum would give 2^26 - 4.  Every lane and query row carries
  // the same case.
  {
    const std::size_t dims = 2;
    std::vector<float> queries, corpus;
    for (std::size_t i = 0; i < kQueryBlock; ++i) {
      queries.insert(queries.end(), {8192.0f, -two_m24});
    }
    for (std::size_t i = 0; i < kPanelWidth; ++i) {
      corpus.insert(corpus.end(), {8192.0f, std::ldexp(1.0f, -8)});
    }
    const float pair =
        kernels::rz_dot_pair(queries.data(), corpus.data(), dims);
    EXPECT_EQ(pair, std::ldexp(1.0f, 26));
    expect_all_kernels_match_pair_chain(queries, corpus, dims, kPanelWidth,
                                        dims, "2^26 then -2^-32");
  }

  // FP16 subnormal x subnormal: products down to 2^-48, the bottom of the
  // double-domain chain's validity range, with mixed signs so partial sums
  // cancel.
  {
    const std::size_t dims = 37;
    const std::size_t rows = std::max(kQueryBlock, kPanelWidth);
    std::vector<float> values(rows * dims);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const float mant = static_cast<float>(1 + (i * 389) % 1023);
      values[i] = (i % 3 == 0 ? -1.0f : 1.0f) * mant * two_m24;
      ASSERT_EQ(quantize_fp16(values[i]), values[i]);
    }
    EXPECT_EQ(kernels::rz_dot_pair(values.data(), values.data(), 1),
              two_m24 * two_m24);
    expect_all_kernels_match_pair_chain(values, values, dims, kPanelWidth,
                                        dims, "subnormal x subnormal");
  }

  // +-65504 extremes: mixed-sign products near +-2^32, interleaved with
  // tiny products (down to 2^-24 * 2^-14) far below the accumulator's ulp.
  {
    const std::size_t dims = 96;
    const std::size_t rows = std::max(kQueryBlock, kPanelWidth);
    std::vector<float> values(rows * dims);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const std::size_t pattern = (i * 7 + i / dims) % 5;
      values[i] = pattern == 0   ? fp16_max
                  : pattern == 1 ? -fp16_max
                  : pattern == 2 ? two_m24
                  : pattern == 3 ? -1024.0f * two_m24
                                 : 1.0f;
    }
    expect_all_kernels_match_pair_chain(values, values, dims, kPanelWidth,
                                        dims, "+-65504 extremes");
  }

  // Long chains: mixed scales over dims up to 4096.
  Rng rng(4096);
  for (const std::size_t dims : {1000u, 2048u, 4096u}) {
    const std::size_t rows = std::max(kQueryBlock, kPanelWidth);
    std::vector<float> values(rows * dims);
    for (std::size_t i = 0; i < values.size(); ++i) {
      const double scale = i % 4 == 0 ? 6.0e4 : i % 4 == 1 ? 1.0e-6 : 1.0;
      values[i] =
          quantize_fp16(static_cast<float>(rng.uniform(-scale, scale)));
    }
    expect_all_kernels_match_pair_chain(values, values, dims, kPanelWidth,
                                        dims,
                                        "dims " + std::to_string(dims));
  }
}

TEST(RzDotKernels, PackPanelZeroFillsTailLanes) {
  const std::size_t dims = 5;
  std::vector<float> rows(3 * dims);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<float>(i + 1);
  }
  std::vector<float> panel(dims * kPanelWidth, -7.0f);
  kernels::pack_panel(rows.data(), dims, 3, dims, panel.data());
  for (std::size_t k = 0; k < dims; ++k) {
    for (std::size_t r = 0; r < kPanelWidth; ++r) {
      const float v = panel[k * kPanelWidth + r];
      if (r < 3) {
        EXPECT_EQ(v, rows[r * dims + k]);
      } else {
        EXPECT_EQ(v, 0.0f);
      }
    }
  }
}

TEST(RzDotKernels, RegistryResolvesKnownVariantsOnly) {
  const kernels::KernelRegistry& reg = kernels::KernelRegistry::global();
  // best() is a member of the supported list and every supported name
  // resolves back to its own kernel through find().
  bool best_found = false;
  for (const kernels::RzDotKernel* s : reg.supported()) {
    EXPECT_EQ(reg.find(s->name), s) << s->name;
    EXPECT_TRUE(kernels::KernelRegistry::known_name(s->name)) << s->name;
    if (s == &reg.best()) best_found = true;
  }
  EXPECT_TRUE(best_found) << reg.best().name;
  EXPECT_EQ(reg.find("no-such-kernel"), nullptr);
  EXPECT_FALSE(kernels::KernelRegistry::known_name("no-such-kernel"));
  // Selection strings: names, "auto", and comma lists of them.
  EXPECT_TRUE(kernels::kernel_selection_known("auto"));
  EXPECT_TRUE(kernels::kernel_selection_known("scalar"));
  EXPECT_TRUE(kernels::kernel_selection_known("scalar,auto"));
  EXPECT_FALSE(kernels::kernel_selection_known("scalar,bogus"));
}

TEST(RzDotKernels, RetiredFp16VariantNameIsRejectedAtLoad) {
  // The AVX-512 FP16 variant was retired when the double-domain chain
  // superseded it.  A config that still names it must fail validation, not
  // silently run whichever kernel auto selection picks.
  // (The name is assembled so that no live reference to it remains.)
  const std::string retired = std::string("avx512") + "fp16";
  EXPECT_FALSE(kernels::KernelRegistry::known_name(retired));
  EXPECT_FALSE(kernels::kernel_selection_known(retired));
  EXPECT_FALSE(kernels::kernel_selection_known("scalar," + retired));
  EXPECT_EQ(kernels::KernelRegistry::global().find(retired), nullptr);

  FastedConfig cfg = FastedConfig::paper_defaults();
  cfg.rz_kernel = retired;
  EXPECT_THROW(cfg.validate(), CheckError);
  EXPECT_THROW(FastedEngine{cfg}, CheckError);
}

TEST(RzDotKernels, ScalarConfigReproducesAutoSelectedJoinExactly) {
  // End-to-end scalar-vs-SIMD equivalence: the whole self-join result set
  // must be identical whichever variant runs.  The pin goes through the
  // config (no ambient override exists anymore).
  const auto data = data::uniform(400, 40, 77);
  FastedEngine engine;
  const auto dispatched = engine.self_join(data, 1.1f);
  FastedConfig scalar_cfg = FastedConfig::paper_defaults();
  scalar_cfg.rz_kernel = "scalar";
  FastedEngine scalar_engine(scalar_cfg);
  const auto scalar = scalar_engine.self_join(data, 1.1f);
  ASSERT_EQ(dispatched.pair_count, scalar.pair_count);
  EXPECT_EQ(dispatched.result.offsets(), scalar.result.offsets());
  EXPECT_EQ(dispatched.result.neighbors(), scalar.result.neighbors());
}

TEST(ResultSinks, CountCsrAndStreamingAgreePairForPair) {
  const auto corpus_data = data::uniform(700, 24, 91);
  const auto query_data = data::uniform(233, 24, 92);
  const float eps = data::calibrate_epsilon(corpus_data, 24.0).eps;
  FastedEngine engine;
  const PreparedDataset corpus(corpus_data);
  const PreparedDataset queries(query_data);

  // CSR sink (build_result) vs count-only sink.
  JoinOptions count_only;
  count_only.build_result = false;
  const auto csr = engine.query_join(queries, corpus, eps);
  const auto counted = engine.query_join(queries, corpus, eps, count_only);
  EXPECT_EQ(csr.pair_count, counted.pair_count);
  EXPECT_EQ(counted.result.num_queries(), 0u);

  // Streaming sink: every query delivered exactly once, matches identical
  // to the CSR rows (ids and distances).
  std::map<std::size_t, std::vector<QueryMatch>> streamed;
  kernels::StreamingSink sink(
      [&](std::size_t q, std::span<const QueryMatch> matches) {
        ASSERT_EQ(streamed.count(q), 0u) << "query delivered twice";
        streamed[q].assign(matches.begin(), matches.end());
      });
  const CorpusShardView whole{&corpus, 0};
  const std::uint64_t stream_pairs = engine.query_join_into(
      queries, std::span<const CorpusShardView>(&whole, 1), eps, sink);
  sink.finish();
  EXPECT_EQ(stream_pairs, csr.pair_count);
  ASSERT_EQ(streamed.size(), queries.rows());
  for (std::size_t q = 0; q < queries.rows(); ++q) {
    const auto expect = csr.result.matches_of(q);
    const auto& got = streamed[q];
    ASSERT_EQ(got.size(), expect.size()) << q;
    for (std::size_t r = 0; r < expect.size(); ++r) {
      EXPECT_EQ(got[r].id, expect[r].id) << q;
      EXPECT_EQ(got[r].dist2, expect[r].dist2) << q;
    }
  }
}

TEST(ResultSinks, SelfJoinCountMatchesCsrOnBothPaths) {
  const auto data = data::uniform(300, 32, 93);
  FastedEngine engine;
  for (const ExecutionPath path :
       {ExecutionPath::kFast, ExecutionPath::kEmulated}) {
    JoinOptions with_result;
    with_result.path = path;
    JoinOptions count_only = with_result;
    count_only.build_result = false;
    const auto a = engine.self_join(data, 1.0f, with_result);
    const auto b = engine.self_join(data, 1.0f, count_only);
    EXPECT_EQ(a.pair_count, b.pair_count);
    EXPECT_EQ(a.result.pair_count(), a.pair_count);
    EXPECT_EQ(b.result.num_points(), 0u);
  }
}

// --- sharded executor + merging sinks ---------------------------------------

TEST(ShardedExecutor, SelfJoinBitIdenticalForAnyShardCount) {
  const auto data = data::uniform(431, 24, 94);  // prime-ish: uneven splits
  const float eps = data::calibrate_epsilon(data, 24.0).eps;
  FastedEngine engine;
  const PreparedDataset whole(data);
  const auto expect = engine.self_join(whole, eps);

  for (const std::size_t shards : {2u, 3u, 7u}) {
    const PreparedShards split = prepare_shards(data, shards);
    const auto got = engine.self_join(
        split.span(), eps);
    ASSERT_EQ(got.pair_count, expect.pair_count) << shards;
    EXPECT_EQ(got.result.offsets(), expect.result.offsets()) << shards;
    EXPECT_EQ(got.result.neighbors(), expect.result.neighbors()) << shards;
  }
}

TEST(ShardedExecutor, SelfJoinEmulatedPathMatchesFastWhenSharded) {
  const auto data = data::uniform(150, 8, 95);
  FastedEngine engine;
  const PreparedShards split = prepare_shards(data, 3);
  const std::span<const CorpusShardView> views(split.views);

  JoinOptions emulated;
  emulated.path = ExecutionPath::kEmulated;
  const auto fast = engine.self_join(views, 0.8f);
  const auto emu = engine.self_join(views, 0.8f, emulated);
  ASSERT_EQ(fast.pair_count, emu.pair_count);
  EXPECT_EQ(fast.result.offsets(), emu.result.offsets());
  EXPECT_EQ(fast.result.neighbors(), emu.result.neighbors());
}

TEST(ShardedExecutor, QueryJoinBitIdenticalWithPerShardCounts) {
  const auto corpus_data = data::uniform(500, 16, 96);
  const auto query_data = data::uniform(170, 16, 97);
  const float eps = data::calibrate_epsilon(corpus_data, 16.0).eps;
  FastedEngine engine;
  const PreparedDataset corpus(corpus_data);
  const PreparedDataset queries(query_data);
  const auto expect = engine.query_join(queries, corpus, eps);

  for (const std::size_t shards : {2u, 3u, 7u}) {
    const PreparedShards split = prepare_shards(corpus_data, shards);
    const auto got = engine.query_join(
        queries, split.span(), eps);
    ASSERT_EQ(got.pair_count, expect.pair_count) << shards;
    ASSERT_EQ(got.shard_pairs.size(), split.views.size()) << shards;
    std::uint64_t sum = 0;
    for (const std::uint64_t p : got.shard_pairs) sum += p;
    EXPECT_EQ(sum, got.pair_count) << shards;
    ASSERT_EQ(got.result.offsets(), expect.result.offsets()) << shards;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto a = expect.result.matches_of(q);
      const auto b = got.result.matches_of(q);
      for (std::size_t r = 0; r < a.size(); ++r) {
        ASSERT_EQ(b[r].id, a[r].id) << shards << " q " << q;
        ASSERT_EQ(b[r].dist2, a[r].dist2) << shards << " q " << q;
      }
    }
  }
}

TEST(ShardedExecutor, RejectsNonContiguousShards) {
  const auto data = data::uniform(100, 8, 98);
  FastedEngine engine;
  const PreparedShards split = prepare_shards(data, 2);
  std::vector<CorpusShardView> bad = split.views;
  bad[1].base += 3;  // hole in the global row space
  EXPECT_THROW(engine.self_join(std::span<const CorpusShardView>(bad), 0.5f),
               CheckError);
}

// --- streaming delivery: bounded MPSC ring ----------------------------------

TEST(MpscRing, StressedProducersDeliverEveryItemExactlyOnce) {
  kernels::BoundedMpscRing<std::uint64_t> ring(16);
  ASSERT_EQ(ring.capacity(), 16u);
  constexpr std::size_t kProducers = 4;
  constexpr std::size_t kPerProducer = 20000;

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (std::size_t i = 0; i < kPerProducer; ++i) {
        ring.push(p * kPerProducer + i + 1);  // 0 is the empty payload
      }
    });
  }
  std::vector<std::uint32_t> seen(kProducers * kPerProducer, 0);
  std::size_t received = 0;
  std::uint64_t item = 0;
  while (received < kProducers * kPerProducer) {
    if (ring.try_pop(item)) {
      ASSERT_GE(item, 1u);
      ASSERT_LE(item, seen.size());
      ++seen[item - 1];
      ++received;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : producers) t.join();
  EXPECT_FALSE(ring.try_pop(item));  // drained
  for (std::size_t i = 0; i < seen.size(); ++i) {
    ASSERT_EQ(seen[i], 1u) << i;
  }
}

TEST(ResultSinks, StreamingSinkRejectsTileShardBeyondItsShardCount) {
  // A tile tagged with a shard the sink was not built for would leave a
  // strip that can never complete (or fire a query twice); the sink must
  // refuse it, not half-deliver.
  const auto ignore = [](std::size_t, std::span<const QueryMatch>) {};
  for (const std::size_t shards : {1u, 2u}) {
    kernels::StreamingSink sink(ignore, shards);
    kernels::TileRange tile;
    tile.q0 = 0;
    tile.q1 = 4;
    tile.shard = shards;
    EXPECT_THROW(sink.consume(tile, {}), CheckError) << shards;
    sink.finish();
  }
}

TEST(ResultSinks, MergingStreamingSinkReassemblesShardsPerQuery) {
  const auto corpus_data = data::uniform(450, 12, 101);
  const auto query_data = data::uniform(130, 12, 102);
  const float eps = data::calibrate_epsilon(corpus_data, 16.0).eps;
  FastedEngine engine;
  const PreparedDataset corpus(corpus_data);
  const PreparedDataset queries(query_data);
  const auto expect = engine.query_join(queries, corpus, eps);

  // One shard is the degenerate merge (strips go straight to the ring).
  for (const std::size_t shards : {1u, 2u, 5u}) {
    const PreparedShards split = prepare_shards(corpus_data, shards);
    std::map<std::size_t, std::vector<QueryMatch>> rows;
    // Small ring (4 strips) so the workers actually hit backpressure.
    kernels::StreamingSink sink(
        [&](std::size_t q, std::span<const QueryMatch> matches) {
          ASSERT_EQ(rows.count(q), 0u) << "query delivered twice";
          rows[q].assign(matches.begin(), matches.end());
        },
        split.views.size(), /*ring_capacity=*/4);
    const std::uint64_t pairs =
        engine.query_join_into(queries, split.span(), eps, sink);
    sink.finish();

    EXPECT_EQ(pairs, expect.pair_count) << shards;
    ASSERT_EQ(rows.size(), queries.rows()) << shards;
    for (std::size_t q = 0; q < queries.rows(); ++q) {
      const auto want = expect.result.matches_of(q);
      const auto& got = rows[q];
      ASSERT_EQ(got.size(), want.size()) << shards << " q " << q;
      for (std::size_t r = 0; r < want.size(); ++r) {
        ASSERT_EQ(got[r].id, want[r].id) << shards << " q " << q;
        ASSERT_EQ(got[r].dist2, want[r].dist2) << shards << " q " << q;
      }
    }
  }
}

}  // namespace
}  // namespace fasted
