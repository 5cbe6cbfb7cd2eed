// E25: the BPR compute kernel, the layer that owns nearly all of a daily
// run's wall time (training is ~98% of a full-sweep day), and the serving
// request path. Four questions:
//
//  1. Throughput — single-threaded SGD steps/s at d = 8, 32 and 128 on a
//     fixed seeded retailer, with the pipeline's own sampler stack
//     (uniform negatives behind co-occurrence exclusion). Wall-clock on
//     shared hardware: banded with a floor only.
//  2. Allocations — heap allocations per SGD step after a warm-up epoch,
//     counted by a replaced global operator new (sigmund_alloc_counter).
//     Deterministic; banded exactly at 0.
//  3. Fingerprint — FNV-1a (folded to 32 bits) of the serialized bytes of a
//     same-seed, single-threaded trained model with every feature on and
//     the adaptive sampler. Any change to the kernel's arithmetic moves it;
//     banded exactly.
//  4. Serving request path — heap allocations of one materialized
//     Frontend::Handle after warm-up, over a one-replica store group with
//     the registry attached (bench::RequestPathProbe, the harness
//     serving_alloc_test checks; deterministic, banded exactly), and
//     single-thread ns per Handle (wall clock, banded loosely).
//
// Results land in BENCH_compute.json; bench/baselines/compute_quick.json
// gates them in CI via check_trajectory.
//
//   ./bench/e25_compute [--quick]

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/alloc_counter.h"
#include "bench/bench_util.h"
#include "bench/request_path_probe.h"
#include "common/clock.h"
#include "common/hash.h"
#include "common/string_util.h"
#include "core/cooccurrence.h"
#include "core/negative_sampler.h"
#include "core/trainer.h"
#include "core/training_data.h"

using namespace sigmund;

namespace {

struct Retailer {
  data::RetailerWorld world = bench::MakeWorld(71, 600, 4.0);
  data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  core::TrainingData data{&split.train, world.data.num_items()};
  core::CooccurrenceModel cooccurrence = core::CooccurrenceModel::Build(
      split.train, world.data.num_items(), {});
};

// A freshly initialized model with its trainer inputs.
struct Setup {
  core::BprModel model;
  std::unique_ptr<core::NegativeSampler> sampler;
  core::BprTrainer trainer;

  Setup(const Retailer& r, const core::HyperParams& params)
      : model(&r.world.data.catalog, params),
        sampler(core::MakeNegativeSampler(params, &r.world.data.catalog,
                                          &r.data, &model, &r.cooccurrence)),
        trainer(&model, &r.data, sampler.get()) {
    Rng rng(params.seed);
    model.InitRandom(&rng);
  }
};

core::BprTrainer::Options SingleThread(int epochs, int64_t steps) {
  core::BprTrainer::Options options;
  options.num_threads = 1;
  options.num_epochs = epochs;
  options.steps_per_epoch = steps;
  return options;
}

// Median steps/s of `reps` single-threaded epochs of `steps` steps, after
// one warm-up epoch.
double StepsPerSecond(const Retailer& r, int dim, int64_t steps, int reps) {
  Setup s(r, bench::DefaultParams(dim, 1));
  s.trainer.Train(SingleThread(1, steps));
  RealClock* clock = RealClock::Get();
  std::vector<double> rates;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = clock->NowMicros();
    const core::TrainStats stats = s.trainer.Train(SingleThread(1, steps));
    const double seconds = static_cast<double>(clock->NowMicros() - t0) / 1e6;
    rates.push_back(
        static_cast<double>(stats.sgd_steps + stats.skipped_steps) /
        std::max(seconds, 1e-9));
  }
  std::sort(rates.begin(), rates.end());
  return rates[rates.size() / 2];
}

// Heap allocations per step over the second of two epochs.
double AllocationsPerStep(const Retailer& r, int64_t steps) {
  Setup s(r, bench::DefaultParams(32, 1));
  int64_t at_epoch_1 = 0, allocations = -1, counted_steps = 0;
  core::BprTrainer::Options options = SingleThread(2, steps);
  options.epoch_callback = [&](int epoch, const core::TrainStats& stats) {
    const int64_t all_steps = stats.sgd_steps + stats.skipped_steps;
    if (epoch == 0) {
      at_epoch_1 = bench::HeapAllocations();
      counted_steps = -all_steps;
    } else {
      allocations = bench::HeapAllocations() - at_epoch_1;
      counted_steps += all_steps;
    }
    return true;
  };
  s.trainer.Train(options);
  SIGCHECK(counted_steps == steps);
  return static_cast<double>(allocations) / static_cast<double>(steps);
}

uint32_t ModelFingerprint(const Retailer& r) {
  core::HyperParams params = bench::DefaultParams(16, 1);
  params.use_brand = params.use_price = true;
  params.sampler = core::NegativeSamplerKind::kAdaptive;
  params.seed = 25;
  Setup s(r, params);
  s.trainer.Train(SingleThread(2, 20000));
  const uint64_t h = Fnv1a64(s.model.Serialize());
  return static_cast<uint32_t>(h ^ (h >> 32));
}

// Mean heap allocations per Handle() over browse and cart requests.
double ServingAllocationsPerRequest() {
  const bench::RequestPathProbe probe;
  int64_t allocations = 0, requests = 0;
  for (const serving::RecommendationRequest& request :
       {bench::RequestPathProbe::Browse(), bench::RequestPathProbe::Cart()}) {
    for (int64_t n : probe.AllocationsPerRequest(request, 20, 500)) {
      allocations += n;
      ++requests;
    }
  }
  return static_cast<double>(allocations) / static_cast<double>(requests);
}

// Median single-thread ns per Handle() over `reps` runs of `requests`
// requests alternating browse and cart, after a warm-up run.
double HandleNanos(int requests, int reps) {
  const bench::RequestPathProbe probe;
  const serving::RecommendationRequest browse =
      bench::RequestPathProbe::Browse();
  const serving::RecommendationRequest cart = bench::RequestPathProbe::Cart();
  RealClock* clock = RealClock::Get();
  std::vector<double> nanos;
  for (int rep = 0; rep <= reps; ++rep) {
    const int64_t t0 = clock->NowMicros();
    for (int i = 0; i < requests; ++i) {
      SIGCHECK(probe.frontend().Handle(i % 2 == 0 ? browse : cart).ok());
    }
    const double elapsed = static_cast<double>(clock->NowMicros() - t0);
    if (rep > 0) nanos.push_back(elapsed * 1e3 / requests);
  }
  std::sort(nanos.begin(), nanos.end());
  return nanos[nanos.size() / 2];
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }
  const int64_t steps = quick ? 30000 : 200000;
  const int reps = quick ? 3 : 5;
  std::printf("e25_compute: BPR kernel throughput / allocations / "
              "fingerprint / request path (%s run)\n",
              quick ? "quick" : "full");

  const Retailer retailer;
  std::string kernel_json;
  for (int dim : {8, 32, 128}) {
    const double rate = StepsPerSecond(retailer, dim, steps, reps);
    std::printf("single-thread SGD: d=%-3d %10.0f steps/s (%.2f us/step)\n",
                dim, rate, 1e6 / rate);
    kernel_json += StrFormat("%s\"steps_per_s_d%d\": %.0f",
                             kernel_json.empty() ? "" : ", ", dim, rate);
  }
  const double allocs = AllocationsPerStep(retailer, 10000);
  std::printf("heap allocations per SGD step after warm-up: %.4f\n", allocs);
  const uint32_t fingerprint = ModelFingerprint(retailer);
  std::printf("trained-model fingerprint: %u\n", fingerprint);
  const double serving_allocs = ServingAllocationsPerRequest();
  std::printf("heap allocations per materialized request: %.4f\n",
              serving_allocs);
  const double handle_ns = HandleNanos(quick ? 100000 : 500000, reps);
  std::printf("single-thread materialized Handle: %.0f ns/request\n",
              handle_ns);

  std::string json = "{\n  \"bench\": \"e25_compute\",\n";
  json += StrFormat("  \"quick\": %s,\n", quick ? "true" : "false");
  json += "  \"kernel\": {" + kernel_json + "},\n";
  json += StrFormat("  \"work\": {\"allocs_per_sgd_step\": %.6f},\n", allocs);
  json += StrFormat("  \"model\": {\"fingerprint\": %u},\n", fingerprint);
  json += StrFormat(
      "  \"serving\": {\"allocs_per_request\": %.4f, \"handle_ns\": %.1f}\n}\n",
      serving_allocs, handle_ns);

  std::FILE* out = std::fopen("BENCH_compute.json", "w");
  SIGCHECK(out != nullptr);
  std::fputs(json.c_str(), out);
  std::fclose(out);
  std::printf("wrote BENCH_compute.json\n");
  return 0;
}
