#include "apps/knn.hpp"

#include <memory>
#include <span>

#include "common/check.hpp"
#include "service/join_service.hpp"
#include "service/sharded_corpus.hpp"

namespace fasted::apps {

// All-points kNN is a kNN query batch whose query set is the corpus: ask
// the join service for k+1 matches per query (the self match rides along at
// distance 0) and strip the query's own id from each row.
KnnResult knn_all(const FastedEngine& engine, const MatrixF32& data,
                  std::size_t k, const KnnOptions& options) {
  const std::size_t n = data.rows();
  FASTED_CHECK_MSG(k >= 1 && k < n, "need 1 <= k < |D|");

  service::ShardedCorpusOptions copts;
  copts.shards = std::max<std::size_t>(1, options.shards);
  copts.placement_domains = options.domains;
  auto corpus =
      std::make_shared<service::ShardedCorpus>(MatrixF32(data), copts);
  if (!options.tombstones.empty()) {
    corpus->erase(std::span<const std::uint32_t>(options.tombstones));
    // The k+1 request below needs that many ALIVE rows (duplicate ids in
    // `tombstones` would make this check conservative, which is fine).
    FASTED_CHECK_MSG(k + 1 <= corpus->alive(),
                     "need k < alive rows after tombstoning");
  }
  service::JoinService svc(std::move(corpus), engine);

  service::KnnOptions sopts;
  sopts.initial_growth = options.initial_growth;
  sopts.radius_growth = options.radius_growth;
  sopts.max_rounds = options.max_rounds;
  // knn_corpus reuses the backend's prepared corpus as the query batch —
  // no second copy or quantization pass.
  const service::KnnBatchResult batch = svc.knn_corpus(k + 1, sopts);

  KnnResult result;
  result.k = k;
  result.rounds = batch.rounds;
  result.ids.assign(n * k, 0);
  result.distances.assign(n * k, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    // Drop the self match if it made the k+1 cut; when >= k+1 zero-distance
    // duplicates with smaller ids crowd it out, the first k entries already
    // exclude i.
    std::size_t w = 0;
    for (std::size_t r = 0; r < k + 1 && w < k; ++r) {
      if (batch.id(i, r) == static_cast<std::uint32_t>(i)) continue;
      result.ids[i * k + w] = batch.id(i, r);
      result.distances[i * k + w] = batch.distance(i, r);
      ++w;
    }
  }
  return result;
}

}  // namespace fasted::apps
