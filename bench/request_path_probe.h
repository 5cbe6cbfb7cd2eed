#ifndef SIGMUND_BENCH_REQUEST_PATH_PROBE_H_
#define SIGMUND_BENCH_REQUEST_PATH_PROBE_H_

// The serving request path as deployed, sized to count what one request
// costs: a one-replica ReplicatedStoreGroup and a Frontend, both with the
// metrics registry attached, over one retailer whose materialized lists
// hold 10 items each. Shared by e25_compute (serving.allocs_per_request,
// serving.handle_ns) and serving_alloc_test, so the bench and the test
// count the same thing.

#include <stdint.h>

#include <vector>

#include "bench/alloc_counter.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "serving/frontend.h"
#include "serving/replicated_store.h"

namespace sigmund::bench {

class RequestPathProbe {
 public:
  static constexpr data::RetailerId kRetailer = 1;
  static constexpr int kItems = 64;
  static constexpr int kListSize = 10;

  RequestPathProbe() : group_({}, &metrics_), frontend_(&group_, nullptr,
                                                        &metrics_) {
    std::vector<core::ItemRecommendations> batch(kItems);
    for (int q = 0; q < kItems; ++q) {
      core::ItemRecommendations& recs = batch[q];
      recs.query = q;
      for (int r = 0; r < kListSize; ++r) {
        const double score = 1.0 - 0.05 * r;
        recs.view_based.push_back({(q + 1 + r) % kItems, score});
        recs.purchase_based.push_back({(q + 11 + r) % kItems, score});
        recs.view_based_late.push_back({(q + 21 + r) % kItems, score});
      }
    }
    group_.LoadRetailer(kRetailer, batch);
  }

  // An early-funnel browse: three distinct views.
  static serving::RecommendationRequest Browse() {
    return Request({{3, data::ActionType::kView},
                    {5, data::ActionType::kView},
                    {7, data::ActionType::kView}});
  }
  // A post-purchase request: the latest event is a cart.
  static serving::RecommendationRequest Cart() {
    return Request({{3, data::ActionType::kView},
                    {7, data::ActionType::kCart}});
  }

  // Serves `request` `warmup` times, then returns the heap allocations
  // each of the next `requests` Handle() calls made (every thread counts;
  // call it with no other thread running).
  std::vector<int64_t> AllocationsPerRequest(
      const serving::RecommendationRequest& request, int warmup,
      int requests) const {
    for (int i = 0; i < warmup; ++i) SIGCHECK(frontend_.Handle(request).ok());
    std::vector<int64_t> allocations;
    allocations.reserve(requests);
    for (int i = 0; i < requests; ++i) {
      const int64_t before = HeapAllocations();
      const bool ok = frontend_.Handle(request).ok();
      allocations.push_back(HeapAllocations() - before);
      SIGCHECK(ok);
    }
    return allocations;
  }

  const serving::Frontend& frontend() const { return frontend_; }
  const obs::MetricRegistry& metrics() const { return metrics_; }

 private:
  static serving::RecommendationRequest Request(core::Context context) {
    serving::RecommendationRequest request;
    request.retailer = kRetailer;
    request.context = std::move(context);
    request.max_results = kListSize;
    return request;
  }

  obs::MetricRegistry metrics_;
  serving::ReplicatedStoreGroup group_;
  serving::Frontend frontend_;
};

}  // namespace sigmund::bench

#endif  // SIGMUND_BENCH_REQUEST_PATH_PROBE_H_
