#include "core/kernels/join_executor.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/check.hpp"
#include "common/parallel.hpp"
#include "core/block_tile.hpp"
#include "core/kernels/kernel_context.hpp"
#include "core/kernels/rz_dot.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fasted::kernels {

namespace {

// Flush the worker-local hit buffer into the sink once it holds this many
// matches, bounding peak memory to ~one buffer per worker instead of a
// second copy of the whole result set.
constexpr std::size_t kFlushThreshold = 1 << 16;

// Cross-domain stealing: FASTED_STEAL decides (on unless it says
// 0/off/false), read once per join so the topology property tests can flip
// it between joins, and operators can demand strict placement when
// profiling per-domain bandwidth.
bool steal_enabled() {
  const char* env = std::getenv("FASTED_STEAL");
  if (env == nullptr) return true;
  return !(std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "false") == 0);
}

}  // namespace

std::uint64_t execute_join(const FastedConfig& cfg,
                           std::span<ShardJoin> entries, float eps2,
                           bool emulated, ResultSink& sink,
                           std::uint64_t* per_entry_hits) {
  FASTED_CHECK_MSG(!entries.empty(), "join executor needs at least one plan");
  for (const ShardJoin& e : entries) {
    FASTED_CHECK_MSG(e.plan != nullptr, "null plan in sharded join");
    FASTED_CHECK_MSG(e.in.q_values->stride() == e.in.c_values->stride(),
                     "query/corpus stride mismatch in join executor");
    if (emulated) {
      FASTED_CHECK_MSG(e.in.q_quant != nullptr && e.in.c_quant != nullptr,
                       "emulated path needs quantized inputs");
    } else {
      FASTED_CHECK_MSG(e.in.c_panels != nullptr &&
                           e.in.c_panels->size() ==
                               (e.in.c_values->rows() + kPanelWidth - 1) /
                                   kPanelWidth * kPanelWidth *
                                   e.in.c_values->stride(),
                       "fast path needs the corpus's resident panels");
    }
  }
  const bool collect = sink.wants_hits();
  const bool per_tile = collect && sink.per_tile();
  ThreadPool& pool = ThreadPool::global();
  const KernelContext ctx = KernelContext::resolve(cfg.rz_kernel, pool);
  // Confined dispatch (a DomainGuard on this thread, or a nested call from
  // inside a pool job) runs every body with the same home domain — treat
  // the drain as flat so no partition is orphaned when stealing is off.
  const std::size_t ndom =
      ThreadPool::dispatch_confined() ? 1 : pool.domain_count();
  const bool steal = ndom > 1 && steal_enabled();

  // Route each entry to the domain owning its corpus-side shard.  On the
  // flat single-domain pool everything lands in one list and the loop below
  // is exactly the historical in-order drain.
  std::vector<std::vector<std::size_t>> domain_entries(ndom);
  for (std::size_t ei = 0; ei < entries.size(); ++ei) {
    domain_entries[entries[ei].domain % ndom].push_back(ei);
  }

  std::atomic<std::uint64_t> total{0};
  std::vector<std::atomic<std::uint64_t>> entry_hits(
      per_entry_hits != nullptr ? entries.size() : 0);

  // Tiles-per-kernel counters, resolved once per join (registry lookups
  // take a mutex): index d holds the counter for the kernel serving domain
  // d, attributed like the domain loads — to the entry's OWNER.  They flow
  // into stats_json()'s registry section.
  const std::size_t dcount = pool.domain_count();
  std::vector<obs::ConcurrentCounter*> kernel_tiles(dcount);
  for (std::size_t d = 0; d < dcount; ++d) {
    kernel_tiles[d] = &obs::Registry::global().counter(
        std::string("kernel.tiles.") + ctx.kernel(d).name);
  }

  parallel_for(0, pool.size(), [&](std::size_t, std::size_t) {
    // Clamped so a confined (flat) drain from a non-zero-domain worker
    // still indexes the single entry list.
    const std::size_t home = ThreadPool::current_domain() % ndom;
    std::optional<BlockTileEngine> engine;
    if (emulated) engine.emplace(cfg);
    // Per-worker scratch: the kernel's accumulator block and the hit
    // buffer.  Corpus panels are resident (JoinInputs::c_panels), shared
    // read-only by every worker: nothing is packed per tile.
    float acc[std::max(kQueryBlock, kMultiPanel) * kPanelWidth];
    std::vector<PairHit> hits;
    std::uint64_t worker_total = 0;
    // Per-domain drain/steal tile tallies, attributed to the domain OWNING
    // the entry (not the executing worker) and flushed to the pool once per
    // worker — the rebalancing policy's load signal.
    std::vector<std::uint64_t> tiles_drained(dcount, 0);
    std::vector<std::uint64_t> tiles_stolen(dcount, 0);
    std::vector<std::uint64_t> drain_ns(dcount, 0);
    std::vector<std::uint64_t> steal_ns(dcount, 0);

    // Drains one entry's plan — from the head for the owning domain, from
    // the tail when stealing — and emits its hits.
    const auto drain_entry = [&](std::size_t ei, bool from_tail) {
      const ShardJoin& entry = entries[ei];
      // The entry's owning domain picks the kernel — per-domain dispatch,
      // not per-process and not per-executing-worker (see header).
      const RzDotKernel& kern = ctx.kernel(entry.domain);
      JoinPlan& plan = *entry.plan;
      const MatrixF32& q = *entry.in.q_values;
      const std::vector<float>& sq = *entry.in.q_norms;
      const std::vector<float>& sc = *entry.in.c_norms;
      const std::size_t dims = entry.in.c_values->stride();
      const float* panels = emulated ? nullptr : entry.in.c_panels->data();
      const std::size_t panel_floats = dims * kPanelWidth;
      const std::size_t qoff = entry.query_offset;
      const std::size_t coff = entry.corpus_offset;
      std::uint64_t local = 0;

      const auto emit = [&](std::size_t i, std::size_t j, float d2) {
        if (d2 <= eps2) {
          ++local;
          if (collect) {
            hits.push_back(PairHit{static_cast<std::uint32_t>(i + qoff),
                                   static_cast<std::uint32_t>(j + coff), d2});
          }
        }
      };

      const std::uint64_t t_start = obs::now_ns();
      std::uint64_t tiles = 0;
      TileRange t;
      while (from_tail ? plan.steal_next(t) : plan.next(t)) {
        ++tiles;
        // Per-tile sinks (streaming) rely on each query completing within
        // one tile — only full-corpus-width plans (query_strip) qualify.
        if (per_tile) {
          FASTED_CHECK_MSG(t.c0 == 0 && t.c1 == plan.corpus_rows(),
                           "per-tile sinks need a full-corpus-width plan");
        }
        // Tiles start on a panel boundary: FastedConfig::validate() makes
        // every block tile a multiple of 8 rows (warp_tile_n % 8 == 0 and
        // block_tile_* % warp_tile_* == 0), so plans cut c0 at multiples of
        // kPanelWidth and panel c0 / kPanelWidth is the tile's first.
        FASTED_CHECK_MSG(t.c0 % kPanelWidth == 0,
                         "tile column start is not on a panel boundary");
        if (emulated) {
          engine->compute(*entry.in.q_quant, *entry.in.c_quant, t.q0, t.c0);
          for (std::size_t i = t.q0; i < t.q1; ++i) {
            for (std::size_t j = t.c0; j < t.c1; ++j) {
              if (t.diagonal && j <= i) continue;
              const float a = engine->acc(static_cast<int>(i - t.q0),
                                          static_cast<int>(j - t.c0));
              emit(i, j, epilogue_dist2(a, sq[i], sc[j]));
            }
          }
        } else if (t.q1 - t.q0 == 1) {
          // One query row (point queries, 1-row windows, batch and diagonal
          // tails): run it against kMultiPanel resident panels per call, one
          // chain per panel in flight.
          const std::size_t i = t.q0;
          const float si = sq[i];
          for (std::size_t c0 = t.c0; c0 < t.c1;
               c0 += kMultiPanel * kPanelWidth) {
            const std::size_t width =
                std::min(kMultiPanel * kPanelWidth, t.c1 - c0);
            kern.dot_row(q.row(i), panels + c0 / kPanelWidth * panel_floats,
                         (width + kPanelWidth - 1) / kPanelWidth, dims, acc);
            for (std::size_t r = 0; r < width; ++r) {
              const std::size_t j = c0 + r;
              if (t.diagonal && j <= i) continue;
              emit(i, j, epilogue_dist2(acc[r], si, sc[j]));
            }
          }
        } else {
          for (std::size_t c0 = t.c0; c0 < t.c1; c0 += kPanelWidth) {
            const std::size_t width = std::min(kPanelWidth, t.c1 - c0);
            const float* panel = panels + c0 / kPanelWidth * panel_floats;
            for (std::size_t i0 = t.q0; i0 < t.q1; i0 += kQueryBlock) {
              const std::size_t nq = std::min(kQueryBlock, t.q1 - i0);
              kern.dot_panel(q.row(i0), q.stride(), nq, panel, dims, acc);
              for (std::size_t qi = 0; qi < nq; ++qi) {
                const std::size_t i = i0 + qi;
                const float si = sq[i];
                const float* a = acc + qi * kPanelWidth;
                for (std::size_t r = 0; r < width; ++r) {
                  const std::size_t j = c0 + r;
                  if (t.diagonal && j <= i) continue;
                  emit(i, j, epilogue_dist2(a[r], si, sc[j]));
                }
              }
            }
          }
        }
        if (per_tile) {
          // Merging sinks need the tile's global coordinates and shard tag.
          TileRange global = t;
          global.q0 += qoff;
          global.q1 += qoff;
          global.c0 += coff;
          global.c1 += coff;
          global.shard = entry.shard;
          sink.consume(global, std::span<const PairHit>(hits));
          hits.clear();
        } else if (collect && hits.size() >= kFlushThreshold) {
          sink.consume(t, std::span<const PairHit>(hits));
          hits.clear();
        }
      }
      if (!entry_hits.empty() && local != 0) {
        entry_hits[ei].fetch_add(local, std::memory_order_relaxed);
      }
      const std::size_t owner = entry.domain % dcount;
      (from_tail ? tiles_stolen : tiles_drained)[owner] += tiles;
      if (tiles != 0) {
        // Time is attributed only when the pass actually ran tiles — a
        // steal sweep over an already-exhausted plan costs two clock reads
        // and should not pollute the steal timing (or the trace).
        const std::uint64_t t_end = obs::now_ns();
        (from_tail ? steal_ns : drain_ns)[owner] += t_end - t_start;
        if (obs::trace_enabled()) {
          obs::trace_complete(from_tail ? "steal" : "drain", "executor",
                              t_start, t_end, static_cast<int>(entry.domain),
                              static_cast<int>(entry.shard));
        }
      }
      worker_total += local;
    };

    // Own domain first, in composition order: a worker exhausts entry k's
    // queue, then rolls into entry k+1 alongside its domain peers — one
    // fork-join, no barrier at shard boundaries.
    for (const std::size_t ei : domain_entries[home]) {
      drain_entry(ei, /*from_tail=*/false);
    }
    // Then help the other domains, farthest-from-their-cursor first: victim
    // lists are walked back-to-front and their plans drained from the tail,
    // so owners keep streaming the head's L2 squares.
    if (steal) {
      for (std::size_t hop = 1; hop < ndom; ++hop) {
        const auto& victim = domain_entries[(home + hop) % ndom];
        for (auto it = victim.rbegin(); it != victim.rend(); ++it) {
          drain_entry(*it, /*from_tail=*/true);
        }
      }
    }

    if (collect && !hits.empty()) {
      sink.consume(TileRange{}, std::span<const PairHit>(hits));
    }
    for (std::size_t d = 0; d < dcount; ++d) {
      if (tiles_drained[d] != 0 || tiles_stolen[d] != 0) {
        pool.add_domain_load(d, tiles_drained[d], tiles_stolen[d], drain_ns[d],
                             steal_ns[d]);
        kernel_tiles[d]->add(tiles_drained[d] + tiles_stolen[d]);
      }
    }
    total.fetch_add(worker_total, std::memory_order_relaxed);
  });

  if (per_entry_hits != nullptr) {
    for (std::size_t ei = 0; ei < entries.size(); ++ei) {
      per_entry_hits[ei] = entry_hits[ei].load();
    }
  }
  return total.load();
}

}  // namespace fasted::kernels
