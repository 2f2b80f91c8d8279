// Layer probes shared by every workload's traced run: the rz_dot kernel
// ceilings (kernels layer) and the executor's point and strip shapes
// (executor layer), measured on the workload's own corpus rows.

#pragma once

#include <span>
#include <string>

#include "common.hpp"
#include "core/fasted.hpp"
#include "core/kernels/rz_dot.hpp"

namespace perfbench {

struct KernelCeilings {
  std::string kernel;   // the kernel the run resolved
  double nqB = 0;       // dot_panel, kQueryBlock rows: evals/s on one core
  double nq1 = 0;       // dot_panel, 1 row: evals/s on one core
  double scalar = 0;    // the scalar reference, kQueryBlock rows
  double pack_ns = 0;   // pack_panel: ns per kPanelWidth-row panel
};

// Single-threaded dot_panel / pack_panel loops over panels packed from the
// first rows of `data` (FP16-exact values, so every variant's chain is the
// real one).
KernelCeilings probe_kernels(const fasted::PreparedDataset& data,
                             const fasted::kernels::RzDotKernel& kern);

struct ExecutorShapes {
  double point_us = 0;   // median count-only query_join of 1 row
  double strip8_us = 0;  // same with the 8 rows of a full gateway window
};

// Count-only FastedEngine::query_join over `views`, with query rows taken
// from `queries`.  `seconds` bounds the time spent per shape.
ExecutorShapes probe_executor(const fasted::FastedEngine& engine,
                              std::span<const fasted::CorpusShardView> views,
                              const fasted::PreparedDataset& queries,
                              float eps,
                              const fasted::kernels::TombstoneFilter* tombs,
                              double seconds);

// The kernel the engine's config resolves to on the global pool (domain 0),
// honouring FASTED_RZ_KERNEL.
const fasted::kernels::RzDotKernel& resolved_kernel(
    const fasted::FastedEngine& engine);

// Adds the kernels.* and executor.point* / executor.strip8_us entries to the
// ledger.  `corpus_rows` is what one point query evaluates; efficiencies
// divide achieved evals/s/core by the matching kernel ceiling.
void add_probe_layers(Report& layers, const KernelCeilings& k,
                      const ExecutorShapes& e, double corpus_rows,
                      std::size_t pool_slots);

}  // namespace perfbench
