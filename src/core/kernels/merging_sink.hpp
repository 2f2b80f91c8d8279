// The merging-sink family: result consumers for sharded joins, plus the
// one streaming sink, which delivers per-query matches through a bounded
// ring.
//
// A sharded join runs one plan per shard (see join_executor.hpp) and emits
// hits with GLOBAL row ids, so merging is mostly a property of the sink:
//
//   count-merge      CountSink + the executor's per-entry hit counters; the
//                    total is the sum, per-shard counts fall out for free.
//   CSR-merge        SelfJoinCsrSink / QueryJoinCsrSink over the global row
//                    space.  Hits from any shard land in their global row;
//                    finalize() canonicalizes each row to ascending corpus
//                    ids, so the merged CSR is bit-identical to the 1-shard
//                    result.  For self-joins, the per-shard triangular plans
//                    plus shard-pair rectangular plans cover exactly the
//                    global strict upper triangle, and the sink's mirror
//                    mode reflects it across shard boundaries like any other
//                    pair.
//   streaming-merge  StreamingSink (below): a query's matches arrive in one
//                    tile per shard; the sink holds a strip until all shards
//                    have reported it, then delivers each query's merged
//                    matches (ascending global corpus id) exactly once.  A
//                    single shard is the degenerate merge: its strip goes
//                    straight to delivery.
//
// Delivery: completed strips go through a bounded MPSC ring to a dedicated
// consumer thread that runs the callback.  Workers only block when the ring
// is full — bounded memory, and a slow consumer backpressures the kernel
// instead of throttling it one lock hold at a time.
//
// Tombstone filtering (ResultSink::filter_tombstones) happens in the
// per-tile regroup, BEFORE strips are assembled or merged: delivered rows
// only ever hold surviving matches, and dropped() tallies the dead ones
// for the caller's pair-count correction.
//
// The callback contract is kernels::QueryMatchCallback: once per query,
// ascending query order within a strip, strips in any order, span valid
// only for the duration of the call, always on the sink's consumer thread.
// The callback must not issue further joins or other ThreadPool-using
// calls: it can deadlock against the producers it is backpressuring.  An
// exception it throws stops delivery and is rethrown by finish().

#pragma once

#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/kernels/mpsc_ring.hpp"
#include "core/kernels/result_sink.hpp"

namespace fasted::kernels {

// One completed query strip, regrouped by query: queries [q0, q0 + n) with
// matches of query q0 + i in matches[offsets[i], offsets[i + 1]).
struct QueryStrip {
  std::size_t q0 = 0;
  std::vector<std::size_t> offsets;  // n + 1 entries
  std::vector<QueryMatch> matches;
};

inline constexpr std::size_t kDefaultStripRingCapacity = 64;

// Streaming sink for query_strip plans over `num_shards` corpus shards:
// every shard's plan produces one tile per strip of queries, so a strip is
// complete once all `num_shards` tiles with the same global q0 have
// arrived.  Each tile is regrouped by the worker into a QueryStrip with no
// shared state; completed strips are merged in shard order — shard bases
// ascend, and hits within a shard tile already ascend per query, so the
// merged row is in ascending global corpus id, bit-identical to the
// 1-shard order.  All shard plans must share the same strip height (they
// do: it is the config's block_tile_m).  Call finish() after the join
// returns — the join's hit count is complete then, but callbacks may still
// be in flight until finish() has drained the ring.  One join per sink.
class StreamingSink final : public ResultSink {
 public:
  explicit StreamingSink(QueryMatchCallback callback,
                         std::size_t num_shards = 1,
                         std::size_t ring_capacity = kDefaultStripRingCapacity);
  ~StreamingSink() override;

  StreamingSink(const StreamingSink&) = delete;
  StreamingSink& operator=(const StreamingSink&) = delete;

  bool per_tile() const override { return true; }
  void consume(const TileRange& range, std::span<const PairHit> hits) override;

  // Checks that no strip is left partially assembled, then drains the ring
  // and joins the consumer thread.  After finish() returns, every strip's
  // callbacks have run.  If a callback threw, the rest of the join's
  // strips were dropped undelivered and finish() rethrows the first
  // exception.
  void finish();

 private:
  struct PendingStrip {
    std::size_t arrived = 0;
    std::size_t queries = 0;
    // per_shard[shard]: the shard's regrouped strip (empty until arrival).
    std::vector<QueryStrip> per_shard;
  };

  void dispatch(const QueryStrip& strip);
  // Drains the ring and joins the consumer thread (idempotent).
  void stop();

  QueryMatchCallback callback_;
  std::size_t num_shards_;
  std::mutex mutex_;  // guards pending_
  std::unordered_map<std::size_t, PendingStrip> pending_;  // keyed by q0
  BoundedMpscRing<QueryStrip> ring_;
  std::atomic<bool> done_{false};
  std::exception_ptr failure_;  // written by the consumer thread only
  std::thread consumer_;
};

}  // namespace fasted::kernels
