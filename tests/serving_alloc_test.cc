// Heap allocations on the serving request path. Own binary: it links the
// operator-new counter (sigmund_alloc_counter), which replaces global
// operator new for the whole process.

#include <gtest/gtest.h>

#include <algorithm>

#include "bench/request_path_probe.h"

namespace sigmund {
namespace {

// After warm-up, a materialized Handle() allocates only the replica
// preference order, the store's copy of the list and the response's items:
// counter lookups, the funnel classifier and trace annotations take none.
constexpr int64_t kMaxAllocationsPerRequest = 3;

TEST(ServingAllocTest, BrowseRequestStaysWithinThreeAllocations) {
  bench::RequestPathProbe probe;
  const std::vector<int64_t> allocations = probe.AllocationsPerRequest(
      bench::RequestPathProbe::Browse(), /*warmup=*/20, /*requests=*/200);
  EXPECT_LE(*std::max_element(allocations.begin(), allocations.end()),
            kMaxAllocationsPerRequest);
}

TEST(ServingAllocTest, CartRequestStaysWithinThreeAllocations) {
  bench::RequestPathProbe probe;
  const std::vector<int64_t> allocations = probe.AllocationsPerRequest(
      bench::RequestPathProbe::Cart(), /*warmup=*/20, /*requests=*/200);
  EXPECT_LE(*std::max_element(allocations.begin(), allocations.end()),
            kMaxAllocationsPerRequest);
}

TEST(ServingAllocTest, CountsStayExactAndUncountedSeriesStayAbsent) {
  bench::RequestPathProbe probe;
  probe.AllocationsPerRequest(bench::RequestPathProbe::Browse(), 5, 100);
  probe.AllocationsPerRequest(bench::RequestPathProbe::Cart(), 5, 50);
  const obs::RegistrySnapshot snapshot = probe.metrics().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("serving_requests_total",
                                  {{"outcome", "ok"},
                                   {"path", "materialized"},
                                   {"version", "1"}}),
            160);
  EXPECT_EQ(snapshot.CounterValue("serving_requests_total"), 160);
  const obs::HistogramSnapshot* reads =
      snapshot.FindHistogram("serving_replica_read_micros");
  ASSERT_NE(reads, nullptr);
  EXPECT_EQ(reads->count, 160);
  // Series that nothing counted stay out of the snapshot.
  for (const obs::MetricSnapshot& metric : snapshot.metrics) {
    EXPECT_NE(metric.name, "serving_replica_failovers_total");
    EXPECT_NE(metric.name, "serving_fallbacks_total");
    EXPECT_NE(metric.name, "serving_brownout_total");
  }
}

}  // namespace
}  // namespace sigmund
