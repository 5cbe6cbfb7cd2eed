// End-to-end benchmark of the Sigmund pipeline and its serving plane.
//
//   e2ebench --workload <full_sweep_day|incremental_day|serve_mixed>
//            --seed <n> --seconds <s> --trace <0|1>
//
// Every repetition of a workload sets up a seeded world, runs one
// `SigmundService::RunDaily` (timed, except on serve_mixed where the day
// is part of set-up) and then drives the real serving path: two caller
// threads in a closed loop of `Frontend::Handle` while one writer thread
// re-stages and activates retailer batches from their SFS files. The
// outputs are checked against the benchmark's own recomputation. The
// last line of standard output is one JSON object with the end-to-end
// metrics (--trace 0) or the per-layer metrics (--trace 1). See README.md.

#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/trace.h"
#include "core/candidate_selector.h"
#include "core/cooccurrence.h"
#include "core/model.h"
#include "data/catalog.h"
#include "data/world_generator.h"
#include "pipeline/config_record.h"
#include "pipeline/service.h"
#include "retrieval/artifact.h"
#include "serving/frontend.h"
#include "sfs/mem_filesystem.h"
#include "sfs/reliable_io.h"
#include "timing_fs.h"

namespace e2ebench {
namespace {

using sigmund::StatusOr;
using sigmund::core::Context;
using sigmund::core::ScoredItem;
using sigmund::data::ActionType;
using sigmund::data::RetailerId;
using sigmund::pipeline::DailyReport;
using sigmund::pipeline::SigmundService;

// ---------------------------------------------------------------------------
// Workloads.

struct Workload {
  std::string name;
  // Catalog sizes follow a bounded Pareto law over [min_items, max_items];
  // retailer i gets the size at quantile (i + 0.5) / num_retailers, so the
  // make-up is fixed and only the generated content depends on the seed.
  int num_retailers = 0;
  int min_items = 0;
  int max_items = 0;
  // Sweep grid; `sweep_features` sweeps taxonomy and brand features on/off.
  std::vector<int> factors;
  std::vector<double> lambdas_v;
  std::vector<double> lambdas_vc;
  bool sweep_features = false;
  int num_epochs = 0;
  // Set-up runs day 0 and the timed day is the incremental day after it,
  // with the ledger and the data sentry on.
  bool incremental = false;
  // Set-up runs the one day of the workload; nothing pipeline-side is
  // timed (serve_mixed).
  bool day_in_setup = false;
  // Serving: requests per caller thread per window, and windows per
  // repetition.
  int requests_per_caller = 0;
  int windows_per_rep = 0;
};

// Seed of the fixed retailer population every workload starts from.
constexpr uint64_t kWorldSeed = 20180416;
// New catalog items per retailer per generated day, as a share of the
// catalog.
constexpr double kNewItemShare = 0.01;
// Materialized recommendations per query item, and per served answer.
constexpr int kTopK = 10;
// Caller threads of the serving phase. With the writer that is three busy
// threads, so one of the four cores stays free for whatever else the
// machine runs, and the latency tails do not measure the scheduler.
constexpr int kCallers = 2;

Workload MakeWorkload(const std::string& name) {
  Workload w;
  w.name = name;
  if (name == "full_sweep_day") {
    w.num_retailers = 12;
    w.min_items = 40;
    w.max_items = 400;
    w.factors = {8, 16};
    w.lambdas_v = {0.1, 0.01};
    w.lambdas_vc = {0.01, 0.001};
    w.sweep_features = true;
    w.num_epochs = 4;
    w.requests_per_caller = 40000;
    w.windows_per_rep = 2;
  } else if (name == "incremental_day") {
    w.num_retailers = 3;
    w.min_items = 2000;
    w.max_items = 2000;
    w.factors = {16};
    w.lambdas_v = {0.01};
    w.lambdas_vc = {0.01};
    w.num_epochs = 8;
    w.incremental = true;
    w.requests_per_caller = 20000;
    w.windows_per_rep = 1;
  } else if (name == "serve_mixed") {
    w.num_retailers = 8;
    w.min_items = 100;
    w.max_items = 1500;
    w.factors = {16};
    w.lambdas_v = {0.01};
    w.lambdas_vc = {0.01};
    w.num_epochs = 6;
    w.day_in_setup = true;
    w.requests_per_caller = 40000;
    w.windows_per_rep = 2;
  }
  return w;
}

int CatalogSize(const Workload& w, int i) {
  if (w.min_items == w.max_items) return w.min_items;
  const double alpha = 1.1;
  const double lo = w.min_items, hi = w.max_items;
  const double u = (i + 0.5) / w.num_retailers;
  const double ratio = std::pow(lo / hi, alpha);
  return static_cast<int>(
      std::lround(lo / std::pow(1.0 - u * (1.0 - ratio), 1.0 / alpha)));
}

// ---------------------------------------------------------------------------
// Small helpers.

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

template <typename T>
double Quantile(std::vector<T> values, double q) {
  if (values.empty()) return 0.0;
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  std::nth_element(values.begin(), values.begin() + lo, values.end());
  const double low = values[lo];
  if (lo + 1 == values.size()) return low;
  const double high = *std::min_element(values.begin() + lo + 1, values.end());
  return low + (pos - static_cast<double>(lo)) * (high - low);
}
double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

constexpr double kMb = 1024.0 * 1024.0;

// Failed checks are printed to stderr and make the run incorrect.
struct Checks {
  int64_t passed = 0;
  int64_t failed = 0;
  void Expect(bool ok, const std::string& what) {
    if (ok) {
      ++passed;
      return;
    }
    if (failed < 20) fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    ++failed;
  }
};

// Operations the workload attempted and how many of them failed.
struct Ops {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Count(bool ok) { Count(1, ok ? 0 : 1); }
  void Count(int64_t n, int64_t n_failed) {
    attempted += n;
    failed += n_failed;
  }
};

// ---------------------------------------------------------------------------
// Independent scoring: the benchmark's own phi(i) and context vector,
// computed straight from a trained model's raw embedding tables.

std::vector<double> Phi(const sigmund::core::BprModel& model, int item) {
  const int d = model.dim();
  const sigmund::data::Catalog& catalog = model.catalog();
  const sigmund::core::HyperParams& p = model.params();
  std::vector<double> phi(d);
  const float* v = model.item_embeddings().row(item);
  for (int k = 0; k < d; ++k) phi[k] = v[k];
  const sigmund::data::Item& meta = catalog.item(item);
  if (p.use_taxonomy && model.taxonomy_embeddings().rows() > 0) {
    // The category, each ancestor, and the root (whose parent is itself).
    sigmund::data::CategoryId c = meta.category;
    while (true) {
      const float* t = model.taxonomy_embeddings().row(c);
      for (int k = 0; k < d; ++k) phi[k] += t[k];
      const sigmund::data::CategoryId parent = catalog.taxonomy().parent(c);
      if (parent == c) break;
      c = parent;
    }
  }
  if (p.use_brand && meta.brand != sigmund::data::kUnknownBrand &&
      meta.brand < model.brand_embeddings().rows()) {
    const float* b = model.brand_embeddings().row(meta.brand);
    for (int k = 0; k < d; ++k) phi[k] += b[k];
  }
  if (p.use_price) {
    const int bucket = sigmund::data::PriceBucket(
        meta.price, sigmund::data::kDefaultPriceBuckets);
    if (bucket >= 0) {
      const float* pb = model.price_embeddings().row(bucket);
      for (int k = 0; k < d; ++k) phi[k] += pb[k];
    }
  }
  return phi;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (size_t k = 0; k < a.size(); ++k) s += a[k] * b[k];
  return s;
}

// Normalized geometric-decay context vector over `rows` (one row of `dim`
// floats per item), newest entry weighted 1 before normalization.
std::vector<double> ContextVector(const Context& context, int window,
                                  double decay, const float* rows,
                                  int num_rows, int dim) {
  std::vector<double> u(dim, 0.0);
  const int n = std::min<int>(window, static_cast<int>(context.size()));
  const int start = static_cast<int>(context.size()) - n;
  double total = 0.0;
  for (int j = 0; j < n; ++j) total += std::pow(decay, n - 1 - j);
  for (int j = 0; j < n; ++j) {
    const int item = context[start + j].item;
    if (item < 0 || item >= num_rows) continue;
    const double w = std::pow(decay, n - 1 - j) / total;
    const float* row = rows + static_cast<size_t>(item) * dim;
    for (int k = 0; k < dim; ++k) u[k] += w * row[k];
  }
  return u;
}

// A list the serving plane returned: catalog items only, no duplicates,
// scores non-increasing.
bool WellFormed(const std::vector<ScoredItem>& list, int num_items,
                std::string* why) {
  std::set<int> seen;
  for (size_t i = 0; i < list.size(); ++i) {
    if (list[i].item < 0 || list[i].item >= num_items) {
      *why = "item outside the catalog";
      return false;
    }
    if (!seen.insert(list[i].item).second) {
      *why = "duplicate item";
      return false;
    }
    if (i > 0 && list[i].score > list[i - 1].score) {
      *why = "scores increase";
      return false;
    }
  }
  return true;
}

// Batches store scores as text with 6 significant digits.
bool ScoreMatches(double served, double expected) {
  return std::fabs(served - expected) <=
         1e-5 * std::fabs(expected) + 1e-6;
}

// ---------------------------------------------------------------------------
// One repetition's world and service.

struct Metrics {
  // name -> samples (one per repetition or serving window).
  std::map<std::string, std::vector<double>> samples;
  void Add(const std::string& name, double value) {
    samples[name].push_back(value);
  }
};

struct Instance {
  const Workload* workload = nullptr;
  bool traced = false;
  bool frontend_registry = true;
  uint64_t seed = 0;
  std::unique_ptr<sigmund::data::WorldGenerator> generator;
  std::vector<sigmund::data::RetailerWorld> worlds;
  sigmund::sfs::MemFileSystem mem;
  std::unique_ptr<TimingFileSystem> timing;  // traced runs only
  sigmund::sfs::SharedFileSystem* fs = nullptr;
  sigmund::obs::MetricRegistry metrics;
  sigmund::obs::Tracer tracer;  // RealClock
  std::unique_ptr<SigmundService> service;
};

SigmundService::Options ServiceOptions(const Workload& w, Instance* inst) {
  SigmundService::Options o;
  o.sweep.grid.factors = w.factors;
  o.sweep.grid.lambdas_v = w.lambdas_v;
  o.sweep.grid.lambdas_vc = w.lambdas_vc;
  o.sweep.grid.sweep_taxonomy = w.sweep_features;
  o.sweep.grid.sweep_brand = w.sweep_features;
  o.sweep.grid.num_epochs = w.num_epochs;
  o.sweep.incremental_top_k = 1;
  // At most three busy slots and one thread per model, so MAP@10 is
  // deterministic and the process stays within four cores.
  o.training.num_map_tasks = 12;
  o.training.max_parallel_tasks = 3;
  o.training.threads_per_model = 1;
  o.training.checkpoint_interval_seconds = 120.0;
  o.training.simulated_seconds_per_step = 1e-2;
  o.inference.num_cells = 1;
  o.inference.map_tasks_per_cell = 6;
  o.inference.max_parallel_tasks = 3;
  o.inference.inference.num_threads = 1;
  o.inference.inference.top_k = kTopK;
  o.retrieval.enabled = true;
  o.dataqual.enabled = w.incremental;
  o.ledger.enabled = w.incremental;
  o.metrics = &inst->metrics;
  o.tracer = &inst->tracer;
  return o;
}

// One more day of seeded events and catalog growth for every retailer.
void AdvanceWorld(Instance* inst, int day) {
  for (auto& world : inst->worlds) {
    const int new_items = std::max(
        1, static_cast<int>(world.data.num_items() * kNewItemShare));
    sigmund::data::AdvanceOneDay(
        *inst->generator, &world, new_items,
        sigmund::SplitMix64(inst->seed * 1000 + day) + world.data.id);
    if (inst->service != nullptr) inst->service->UpsertRetailer(&world.data);
  }
}

std::unique_ptr<Instance> Setup(const Workload& w, uint64_t seed,
                                bool traced) {
  auto inst = std::make_unique<Instance>();
  inst->workload = &w;
  inst->traced = traced;
  inst->seed = seed;
  // The retailer population (catalogs, hidden tastes, 28 days of history)
  // is a fixed fixture; the seed drives the latest day of data on top of
  // it, the serving request streams and the sampled output checks. So
  // every seed is a different day for the same shops, and the amount of
  // work per run stays comparable across seeds.
  sigmund::data::WorldConfig config;
  config.num_retailers = w.num_retailers;
  config.seed = kWorldSeed;
  inst->generator = std::make_unique<sigmund::data::WorldGenerator>(config);
  for (int r = 0; r < w.num_retailers; ++r) {
    inst->worlds.push_back(
        inst->generator->GenerateRetailer(r, CatalogSize(w, r)));
  }
  AdvanceWorld(inst.get(), /*day=*/0);
  if (traced) {
    inst->timing = std::make_unique<TimingFileSystem>(&inst->mem);
    inst->fs = inst->timing.get();
  } else {
    inst->fs = &inst->mem;
  }
  inst->service =
      std::make_unique<SigmundService>(inst->fs, ServiceOptions(w, inst.get()));
  for (const auto& world : inst->worlds) {
    inst->service->UpsertRetailer(&world.data);
  }
  return inst;
}

// Every retailer's active store version.
std::map<RetailerId, int64_t> StoreVersions(const Instance& inst) {
  std::map<RetailerId, int64_t> versions;
  for (const auto& world : inst.worlds) {
    versions[world.data.id] = inst.service->store().RetailerVersion(world.data.id);
  }
  return versions;
}

// ---------------------------------------------------------------------------
// The day.

struct DayResult {
  bool ok = false;
  double wall_s = 0.0;
  DailyReport report;
};

// Runs one RunDaily and counts one operation per retailer: it fails when
// the day errors, when the retailer is left without a fresh active batch,
// or when its winning model is marked degraded.
DayResult RunDay(Instance* inst, Ops* ops) {
  DayResult day;
  const std::map<RetailerId, int64_t> before = StoreVersions(*inst);
  const double start = NowSeconds();
  StatusOr<DailyReport> report = inst->service->RunDaily();
  day.wall_s = NowSeconds() - start;
  day.ok = report.ok();
  if (!report.ok()) {
    fprintf(stderr, "RunDaily failed: %s\n", report.status().ToString().c_str());
  } else {
    day.report = *report;
  }
  std::set<RetailerId> degraded;
  for (const auto& record : inst->service->latest_results()) {
    if (record.degraded) degraded.insert(record.retailer);
  }
  const std::map<RetailerId, int64_t> after = StoreVersions(*inst);
  for (const auto& [retailer, version] : after) {
    const bool fresh = version > before.at(retailer);
    const bool ok = day.ok && fresh && degraded.count(retailer) == 0;
    if (!ok) {
      fprintf(stderr, "retailer %d: day_ok=%d fresh=%d degraded=%d\n",
              retailer, day.ok, fresh,
              static_cast<int>(degraded.count(retailer)));
    }
    ops->Count(ok);
  }
  return day;
}

StatusOr<sigmund::core::BprModel> LoadBestModel(const Instance& inst,
                                                const sigmund::data::RetailerData& data) {
  StatusOr<std::string> bytes = sigmund::sfs::ReadChecksummedFile(
      inst.fs, sigmund::pipeline::BestModelPath(data.id));
  if (!bytes.ok()) return bytes.status();
  return sigmund::core::BprModel::Deserialize(*bytes, &data.catalog);
}

// The benchmark's own top-k of `candidates` for the context vector `u`:
// (recomputed score, item), highest score first, ties to the lower item.
std::vector<std::pair<double, int>> ExactTopK(
    const sigmund::core::BprModel& model, const std::vector<double>& u,
    const std::vector<sigmund::data::ItemIndex>& candidates) {
  std::vector<std::pair<double, int>> scored;
  for (sigmund::data::ItemIndex item : candidates) {
    scored.push_back({Dot(u, Phi(model, item)), item});
  }
  const size_t k = std::min<size_t>(kTopK, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    [](const auto& x, const auto& y) {
                      return x.first > y.first ||
                             (x.first == y.first && x.second < y.second);
                    });
  scored.resize(k);
  return scored;
}

// Output checks on the materialized batches after a day. The candidate
// sets are rebuilt with the repo's CandidateSelector over the retailer's
// histories, as the inference job builds them; the ranking is the
// benchmark's own.
//  - every served list holds catalog items, no duplicates, and
//    non-increasing scores, and has min(top-k, |candidates|) entries;
//  - for a seeded sample of query items, the served list is the
//    benchmark's own top-k of the candidates: the same length, every item
//    a candidate, each served score equal to <vC_q, phi(i)> recomputed
//    from the best model's raw tables, and the recomputed scores equal to
//    the exact top-k scores rank by rank (an item may differ only where
//    two candidates tie within the batches' printed precision).
void CheckBatches(const Instance& inst, Checks* checks) {
  using sigmund::serving::RecommendationKind;
  sigmund::Rng rng(sigmund::SplitMix64(inst.seed) ^ 0xba7c4ULL);
  const sigmund::core::CandidateSelector::Options options;
  for (const auto& world : inst.worlds) {
    const sigmund::data::RetailerData& data = world.data;
    const std::string retailer = "retailer " + std::to_string(data.id);
    const int n = data.num_items();
    StatusOr<sigmund::core::BprModel> model = LoadBestModel(inst, data);
    checks->Expect(model.ok(), "best model of " + retailer + " loads");
    if (!model.ok()) continue;
    const sigmund::core::CooccurrenceModel cooccurrence =
        sigmund::core::CooccurrenceModel::Build(data.histories, n, {});
    const sigmund::core::RepurchaseEstimator repurchase =
        sigmund::core::RepurchaseEstimator::Build(data.histories,
                                                  data.catalog, {});
    const sigmund::core::CandidateSelector selector(&data.catalog,
                                                    &cooccurrence, &repurchase);
    std::set<int> sample;
    while (static_cast<int>(sample.size()) < std::min(8, n)) {
      sample.insert(static_cast<int>(rng.Uniform(n)));
    }
    for (int q = 0; q < n; ++q) {
      for (RecommendationKind kind : {RecommendationKind::kViewBased,
                                      RecommendationKind::kPurchaseBased}) {
        const bool view = kind == RecommendationKind::kViewBased;
        const std::string what = retailer + " item " + std::to_string(q) +
                                 (view ? " view" : " purchase");
        StatusOr<std::vector<ScoredItem>> list =
            inst.service->store().Lookup(data.id, q, kind);
        checks->Expect(list.ok(), "lookup of " + what);
        if (!list.ok()) continue;
        std::string why;
        checks->Expect(WellFormed(*list, n, &why), what + ": " + why);
        const std::vector<sigmund::data::ItemIndex> candidates =
            view ? selector.ViewBased(q, options)
                 : selector.PurchaseBased(q, options);
        const size_t k = std::min<size_t>(kTopK, candidates.size());
        checks->Expect(list->size() == k,
                       what + ": " + std::to_string(list->size()) +
                           " items served, " + std::to_string(k) + " expected");
        if (sample.count(q) == 0) continue;
        const Context context = {{q, ActionType::kView}};
        const std::vector<double> u = ContextVector(
            context, model->params().context_window,
            model->params().context_decay,
            model->context_embeddings().values().data(),
            model->context_embeddings().rows(), model->dim());
        const std::vector<std::pair<double, int>> exact =
            ExactTopK(*model, u, candidates);
        const std::set<int> candidate_set(candidates.begin(), candidates.end());
        std::vector<double> recomputed;
        for (const ScoredItem& item : *list) {
          checks->Expect(candidate_set.count(item.item) > 0,
                         what + ": served item " + std::to_string(item.item) +
                             " is not a candidate");
          const double expected = Dot(u, Phi(*model, item.item));
          recomputed.push_back(expected);
          char buf[200];
          snprintf(buf, sizeof(buf),
                   "score of %s, item %d: served %.9g, recomputed %.9g",
                   what.c_str(), item.item, item.score, expected);
          checks->Expect(ScoreMatches(item.score, expected), buf);
        }
        std::sort(recomputed.rbegin(), recomputed.rend());
        for (size_t r = 0; r < std::min(recomputed.size(), exact.size()); ++r) {
          char buf[200];
          snprintf(buf, sizeof(buf),
                   "%s: rank %zu recomputed %.9g, exact top-k %.9g (item %d)",
                   what.c_str(), r, recomputed[r], exact[r].first,
                   exact[r].second);
          checks->Expect(ScoreMatches(recomputed[r], exact[r].first), buf);
        }
      }
    }
  }
}

// Per-layer figures of one day, measured from outside each layer.
void RecordDayLayers(const Instance& inst, const DayResult& day,
                     const sigmund::obs::RegistrySnapshot& before,
                     const SfsTraffic& sfs_before,
                     const AllocTimeline* allocs, Metrics* out) {
  const DailyReport& report = day.report;
  std::map<std::string, double> stage_s;
  for (const auto& [stage, micros] : report.stage_wall_micros) {
    stage_s[stage] += micros / 1e6;
  }
  const double total = report.total_wall_micros / 1e6;
  const double train_s = stage_s["train"];
  const double inference_s = stage_s["inference"];
  const double store_s = stage_s["store_load"];
  double named = 0.0;
  for (const char* stage :
       {"train", "inference", "store_load", "retrieval_index", "dataqual"}) {
    named += stage_s[stage];
  }
  out->Add("pipeline.train_s", train_s);
  out->Add("pipeline.inference_s", inference_s);
  out->Add("pipeline.store_load_s", store_s);
  out->Add("pipeline.retrieval_index_s", stage_s["retrieval_index"]);
  out->Add("pipeline.dataqual_s", stage_s["dataqual"]);
  out->Add("pipeline.other_s", std::max(0.0, total - named));
  out->Add("pipeline.ledger_appends", static_cast<double>(report.ledger_appends));

  // Spans of this day only (the tracer was cleared before it).
  const std::vector<sigmund::obs::SpanRecord> spans = inst.tracer.Spans();
  int64_t train_start = 0, train_end = 0;
  double model_busy_s = 0.0;
  for (const auto& span : spans) {
    if (span.name == "train") {
      train_start = span.start_micros;
      train_end = span.end_micros;
    } else if (span.name.rfind("train/retailer", 0) == 0) {
      model_busy_s += span.DurationMicros() / 1e6;
    }
  }
  // SGD steps from the persisted sweep records of this day.
  int64_t steps = 0;
  for (const auto& world : inst.worlds) {
    StatusOr<std::string> text =
        inst.mem.Read(sigmund::pipeline::SweepResultPath(world.data.id));
    if (!text.ok()) continue;
    size_t pos = 0;
    while (pos < text->size()) {
      size_t end = text->find('\n', pos);
      if (end == std::string::npos) end = text->size();
      if (end > pos) {
        auto record = sigmund::pipeline::ConfigRecord::Deserialize(
            text->substr(pos, end - pos));
        if (record.ok()) steps += record->sgd_steps;
      }
      pos = end + 1;
    }
  }
  out->Add("core.sgd_steps", static_cast<double>(steps));
  out->Add("core.sgd_steps_per_busy_s",
           model_busy_s > 0 ? steps / model_busy_s : 0.0);
  if (allocs != nullptr && steps > 0) {
    out->Add("core.allocs_per_sgd_step",
             allocs->AllocsBetween(train_start, train_end) / steps);
  }
  out->Add("core.items_scored", static_cast<double>(report.items_scored));
  out->Add("core.items_per_s",
           inference_s > 0 ? report.items_scored / inference_s : 0.0);

  // MapReduce: task attempts of every job, and the busy share of the
  // training job's slots (map-task time over train wall x 3 slots).
  // {samples, summed micros} of mapreduce_task_micros in a snapshot.
  auto task_micros = [](const sigmund::obs::RegistrySnapshot& snap,
                        bool training_map_only) {
    std::pair<double, double> total{0.0, 0.0};
    for (const auto& m : snap.metrics) {
      if (m.name != "mapreduce_task_micros") continue;
      std::string job, phase;
      for (const auto& [k, v] : m.labels) {
        if (k == "job") job = v;
        if (k == "phase") phase = v;
      }
      if (training_map_only &&
          (phase != "map" || job.rfind("training", 0) != 0)) {
        continue;
      }
      total.first += static_cast<double>(m.histogram.count);
      total.second += m.histogram.sum;
    }
    return total;
  };
  const sigmund::obs::RegistrySnapshot now = inst.metrics.Snapshot();
  out->Add("mapreduce.task_attempts",
           task_micros(now, false).first - task_micros(before, false).first);
  const double train_busy_s =
      (task_micros(now, true).second - task_micros(before, true).second) / 1e6;
  out->Add("mapreduce.train_slot_busy_share",
           train_s > 0 ? train_busy_s / (train_s * 3) : 0.0);

  if (inst.timing != nullptr) {
    const SfsTraffic traffic = inst.timing->Snapshot().Minus(sfs_before);
    const SfsTraffic::Class all = traffic.Total();
    out->Add("sfs.ops", static_cast<double>(all.ops));
    out->Add("sfs.read_mb", all.read_bytes / kMb);
    out->Add("sfs.write_mb", all.write_bytes / kMb);
    out->Add("sfs.busy_s", all.busy_micros / 1e6);
    for (int c = 0; c < static_cast<int>(PathClass::kCount); ++c) {
      const SfsTraffic::Class& cls = traffic.by_class[c];
      const std::string name = PathClassName(static_cast<PathClass>(c));
      out->Add("sfs." + name + "_write_mb", cls.write_bytes / kMb);
      out->Add("sfs." + name + "_read_mb", cls.read_bytes / kMb);
    }
  }

  double batch_bytes = 0.0;
  for (const auto& world : inst.worlds) {
    StatusOr<int64_t> size = inst.mem.FileSize(
        sigmund::pipeline::RecommendationPath(world.data.id));
    if (size.ok()) batch_bytes += static_cast<double>(*size);
  }
  out->Add("serving.batch_mb", batch_bytes / kMb);
  if (!inst.workload->day_in_setup) {
    out->Add("serving.load_mb_per_s",
             store_s > 0 ? batch_bytes / kMb / store_s : 0.0);
  }
}

// ---------------------------------------------------------------------------
// Serving.

// Per-thread latency sinks for the timing reader wrappers (traced runs).
struct ThreadSink {
  std::vector<double> store_us;
  std::vector<double> retrieval_us;
  double last_inner_us = 0.0;
};
thread_local ThreadSink* t_sink = nullptr;

// Times every lookup into another serving reader.
class TimingReader : public sigmund::serving::ServingReader {
 public:
  TimingReader(const sigmund::serving::ServingReader* inner, bool retrieval)
      : inner_(inner), retrieval_(retrieval) {}

  StatusOr<std::vector<ScoredItem>> ServeContext(
      RetailerId retailer, const Context& context) const override {
    return ServeContext(retailer, context, sigmund::obs::TraceContext{});
  }
  StatusOr<std::vector<ScoredItem>> ServeContext(
      RetailerId retailer, const Context& context,
      sigmund::obs::TraceContext trace) const override {
    const auto start = std::chrono::steady_clock::now();
    StatusOr<std::vector<ScoredItem>> result =
        inner_->ServeContext(retailer, context, trace);
    const double us = std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    if (t_sink != nullptr) {
      (retrieval_ ? t_sink->retrieval_us : t_sink->store_us).push_back(us);
      t_sink->last_inner_us += us;
    }
    return result;
  }
  int64_t RetailerVersion(RetailerId retailer) const override {
    return inner_->RetailerVersion(retailer);
  }

 private:
  const sigmund::serving::ServingReader* inner_;
  bool retrieval_;
};

// Where requests come from: the world's own recorded shopper traffic.
// A request picks a retailer by Zipf (s = 1) and then one recorded event
// of that retailer uniformly at random, so items, users and actions
// follow the generated popularity bias, sessions and view -> search ->
// cart -> conversion funnel. The context is the 1-5 events of that
// user's session ending at the chosen event.
struct Traffic {
  const Instance* inst = nullptr;
  // Cumulative Zipf weights over retailers, in world order.
  std::vector<double> retailer_cdf;
  // Per retailer: events[u] = recorded events of users 0..u.
  std::vector<std::vector<int64_t>> events;
};

// Events further apart than this start a new session (the co-occurrence
// model's default session gap).
constexpr int64_t kSessionGapSeconds = 1800;

Traffic MakeTraffic(const Instance& inst) {
  Traffic t;
  t.inst = &inst;
  double total = 0.0;
  for (size_t r = 0; r < inst.worlds.size(); ++r) {
    total += 1.0 / static_cast<double>(r + 1);
    t.retailer_cdf.push_back(total);
    std::vector<int64_t> cumulative;
    int64_t events = 0;
    for (const auto& history : inst.worlds[r].data.histories) {
      events += static_cast<int64_t>(history.size());
      cumulative.push_back(events);
    }
    t.events.push_back(std::move(cumulative));
  }
  return t;
}

// One caller's seeded request stream, built on the fly. `request` is
// reused so the stream itself allocates nothing once warm.
class RequestStream {
 public:
  RequestStream(const Traffic* traffic, uint64_t seed)
      : traffic_(traffic), rng_(sigmund::SplitMix64(seed)) {}

  void Next(sigmund::serving::RecommendationRequest* request) {
    const std::vector<double>& cdf = traffic_->retailer_cdf;
    const double x = rng_.UniformDouble() * cdf.back();
    const size_t r = std::min<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), x) - cdf.begin(),
        cdf.size() - 1);
    const sigmund::data::RetailerData& data = traffic_->inst->worlds[r].data;
    const std::vector<int64_t>& events = traffic_->events[r];
    const int64_t e = static_cast<int64_t>(rng_.Uniform(events.back()));
    const size_t user =
        std::upper_bound(events.begin(), events.end(), e) - events.begin();
    const auto& history = data.histories[user];
    const int64_t end = e - (user > 0 ? events[user - 1] : 0);
    const int64_t length = 1 + static_cast<int64_t>(rng_.Uniform(5));
    int64_t first = end;
    while (end - first + 1 < length && first > 0 &&
           history[first].timestamp - history[first - 1].timestamp <=
               kSessionGapSeconds) {
      --first;
    }
    request->retailer = data.id;
    request->user = static_cast<int>(user);
    request->max_results = kTopK;
    request->context.clear();
    for (int64_t j = first; j <= end; ++j) {
      request->context.push_back({history[j].item, history[j].action});
    }
  }

 private:
  const Traffic* traffic_;
  sigmund::Rng rng_;
};

struct Serving {
  Instance* inst = nullptr;
  std::unique_ptr<TimingReader> store_timer;
  std::unique_ptr<TimingReader> retrieval_timer;
  std::unique_ptr<sigmund::serving::Frontend> frontend;
  Traffic traffic;
  // One stream per caller thread, continued across windows.
  std::vector<RequestStream> streams;
};

std::unique_ptr<Serving> MakeServing(Instance* inst) {
  auto s = std::make_unique<Serving>();
  s->inst = inst;
  const sigmund::serving::ServingReader* store = inst->service->store_group();
  const sigmund::serving::ServingReader* retrieval =
      inst->service->retrieval_reader();
  if (inst->traced) {
    s->store_timer = std::make_unique<TimingReader>(store, false);
    s->retrieval_timer = std::make_unique<TimingReader>(retrieval, true);
    store = s->store_timer.get();
    retrieval = s->retrieval_timer.get();
  }
  sigmund::serving::Frontend::Options options;
  options.retrieval_store = retrieval;
  options.retrieval_ab_fraction = 0.5;
  // The service's registry, wired as deployed (detachable to measure
  // what the per-request counters cost).
  s->frontend = std::make_unique<sigmund::serving::Frontend>(
      store, /*calibrator=*/nullptr,
      inst->frontend_registry ? inst->service->metrics() : nullptr,
      /*clock=*/nullptr, options);
  s->traffic = MakeTraffic(*inst);
  for (int c = 0; c < kCallers; ++c) {
    s->streams.emplace_back(&s->traffic, inst->seed * 31 + c + 7);
  }
  return s;
}

// Serving figures of the whole run, pooled over every window of every
// repetition, so that a slow stretch of a few seconds moves them in
// proportion to its length instead of deciding a median of a few windows.
struct ServingRun {
  // Stage + activate times per retailer (world order).
  std::vector<std::vector<double>> swap_ms;
  // Handle latency of every request, by the arm that answered.
  std::vector<float> store_us, ann_us;
  int64_t requests = 0;
  double wall_s = 0.0;

  double Rps() const { return wall_s > 0 ? requests / wall_s : 0.0; }
  // The median of each arm, averaged over the two arms. The A/B split
  // sends about half the requests to each arm, so the median of all
  // requests falls in the gap between the fast materialized arm and the
  // slower ANN arm and jumps with the share each arm gets.
  double P50() const {
    if (store_us.empty() || ann_us.empty()) return Quantile(All(), 0.5);
    return (Quantile(store_us, 0.5) + Quantile(ann_us, 0.5)) / 2;
  }
  double P99() const { return Quantile(All(), 0.99); }
  // Each retailer's median swap time, averaged over retailers. Catalog
  // sizes differ up to 15-fold on serve_mixed, so a median over all
  // reloads together would sit on the edge between two retailers' sizes
  // and jump between them with small timing noise.
  double SwapMs() const {
    double sum = 0.0;
    int n = 0;
    for (const std::vector<double>& samples : swap_ms) {
      if (samples.empty()) continue;
      sum += Median(samples);
      ++n;
    }
    return n > 0 ? sum / n : 0.0;
  }
  std::vector<float> All() const {
    std::vector<float> all(store_us);
    all.insert(all.end(), ann_us.begin(), ann_us.end());
    return all;
  }
};

// One serving window: every caller sends the workload's number of
// requests from its stream while the writer re-stages and activates
// retailer batches round-robin, back to back, until the callers are done.
// Reads fail on a non-OK or degraded response; reloads fail when staging
// or activation is not OK.
void ServeWindow(Serving* s, Ops* ops, ServingRun* run, Metrics* layers) {
  Instance* inst = s->inst;
  const bool traced = inst->traced;
  std::vector<std::vector<double>> latency(kCallers);
  std::vector<ThreadSink> sinks(kCallers);
  std::vector<std::vector<double>> self_us(kCallers);
  std::vector<int64_t> failed(kCallers, 0), retrieval_served(kCallers, 0),
      allocs(kCallers, 0);
  // Which plane answered each request (1 = the ANN arm).
  std::vector<std::vector<char>> on_ann(kCallers);
  run->swap_ms.resize(inst->worlds.size());
  double swap_s = 0.0;
  double reload_bytes = 0.0;
  int64_t reloads = 0, reload_failures = 0;
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  const sigmund::obs::RegistrySnapshot before = inst->metrics.Snapshot();

  auto caller = [&](int c) {
    const int count = inst->workload->requests_per_caller;
    RequestStream& stream = s->streams[c];
    sigmund::serving::RecommendationRequest request;
    latency[c].reserve(count);
    on_ann[c].reserve(count);
    if (traced) {
      t_sink = &sinks[c];
      sinks[c].store_us.reserve(count);
      sinks[c].retrieval_us.reserve(count);
      self_us[c].reserve(count);
    }
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    const int64_t allocs_start = ThreadAllocs();
    for (int i = 0; i < count; ++i) {
      stream.Next(&request);
      if (traced) sinks[c].last_inner_us = 0.0;
      const auto start = std::chrono::steady_clock::now();
      StatusOr<sigmund::serving::RecommendationResponse> response =
          s->frontend->Handle(request);
      const double us = std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      latency[c].push_back(us);
      if (!response.ok() || response->degraded) ++failed[c];
      const bool ann =
          response.ok() &&
          response->source == sigmund::serving::ServingSource::kOnlineRetrieval;
      on_ann[c].push_back(ann);
      retrieval_served[c] += ann;
      if (traced) self_us[c].push_back(us - sinks[c].last_inner_us);
    }
    allocs[c] = ThreadAllocs() - allocs_start;
    t_sink = nullptr;
    done.fetch_add(1);
  };
  auto writer = [&] {
    sigmund::serving::RecommendationStore* store = inst->service->mutable_store();
    size_t next = 0;
    ready.fetch_add(1);
    while (!go.load()) std::this_thread::yield();
    do {
      const size_t r = next++ % inst->worlds.size();
      const sigmund::data::RetailerData& data = inst->worlds[r].data;
      const std::string path = sigmund::pipeline::RecommendationPath(data.id);
      const auto start = std::chrono::steady_clock::now();
      StatusOr<int64_t> version =
          store->StageRetailerFromFile(data.id, *inst->fs, path);
      sigmund::Status activated =
          version.ok() ? store->ActivateVersion(data.id, *version)
                       : version.status();
      const double ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - start)
                            .count();
      run->swap_ms[r].push_back(ms);
      swap_s += ms / 1e3;
      ++reloads;
      if (!activated.ok()) ++reload_failures;
      StatusOr<int64_t> size = inst->mem.FileSize(path);
      if (size.ok()) reload_bytes += static_cast<double>(*size);
    } while (done.load() < kCallers);
  };

  std::vector<std::thread> threads;
  for (int c = 0; c < kCallers; ++c) threads.emplace_back(caller, c);
  threads.emplace_back(writer);
  while (ready.load() < kCallers + 1) std::this_thread::yield();
  const double start = NowSeconds();
  go.store(true);
  for (int c = 0; c < kCallers; ++c) threads[c].join();
  const double wall = NowSeconds() - start;
  threads.back().join();

  int64_t requests = 0, retrieval_total = 0, alloc_total = 0;
  for (int c = 0; c < kCallers; ++c) {
    for (size_t i = 0; i < latency[c].size(); ++i) {
      (on_ann[c][i] ? run->ann_us : run->store_us)
          .push_back(static_cast<float>(latency[c][i]));
    }
    requests += static_cast<int64_t>(latency[c].size());
    ops->Count(static_cast<int64_t>(latency[c].size()), failed[c]);
    retrieval_total += retrieval_served[c];
    alloc_total += allocs[c];
  }
  ops->Count(reloads, reload_failures);
  run->requests += requests;
  run->wall_s += wall;
  if (!traced) return;

  std::vector<double> store_us, retrieval_us, self;
  for (int c = 0; c < kCallers; ++c) {
    store_us.insert(store_us.end(), sinks[c].store_us.begin(),
                    sinks[c].store_us.end());
    retrieval_us.insert(retrieval_us.end(), sinks[c].retrieval_us.begin(),
                        sinks[c].retrieval_us.end());
    self.insert(self.end(), self_us[c].begin(), self_us[c].end());
  }
  layers->Add("serving.store_lookup_p50_us", Quantile(store_us, 0.5));
  layers->Add("serving.store_lookup_p99_us", Quantile(store_us, 0.99));
  layers->Add("serving.frontend_self_us", Median(self));
  layers->Add("serving.allocs_per_request",
              static_cast<double>(alloc_total) / requests);
  layers->Add("retrieval.search_p50_us", Quantile(retrieval_us, 0.5));
  layers->Add("retrieval.search_p99_us", Quantile(retrieval_us, 0.99));
  layers->Add("retrieval.arm_share",
              static_cast<double>(retrieval_total) / requests);
  const sigmund::obs::RegistrySnapshot after = inst->metrics.Snapshot();
  const auto* h_after = after.FindHistogram("retrieval_candidates_scanned");
  const auto* h_before = before.FindHistogram("retrieval_candidates_scanned");
  if (h_after != nullptr) {
    const double count = h_after->count - (h_before ? h_before->count : 0);
    const double sum = h_after->sum - (h_before ? h_before->sum : 0.0);
    layers->Add("retrieval.candidates_scanned_per_query",
                count > 0 ? sum / count : 0.0);
  }
  if (inst->workload->day_in_setup) {
    layers->Add("serving.load_mb_per_s",
                swap_s > 0 ? reload_bytes / kMb / swap_s : 0.0);
  }
}

// Output checks on the serving path, with the writer stopped:
// materialized answers are a prefix of the store's active list, and ANN
// answers are scored against the benchmark's brute-force top-10 over the
// vectors the index was built from. Returns mean recall@10.
double CheckServing(Serving* s, Checks* checks) {
  Instance* inst = s->inst;
  std::map<RetailerId, std::unique_ptr<sigmund::core::BprModel>> models;
  std::map<RetailerId, std::unique_ptr<sigmund::retrieval::IndexArtifact>>
      artifacts;
  std::map<RetailerId, std::vector<std::vector<double>>> phis;
  for (const auto& world : inst->worlds) {
    StatusOr<sigmund::core::BprModel> model = LoadBestModel(*inst, world.data);
    // Ledger mode publishes each index version under its own path.
    const int64_t version =
        inst->service->retrieval_reader()->RetailerVersion(world.data.id);
    const std::string versioned =
        sigmund::retrieval::IndexArtifactVersionPath(world.data.id, version);
    StatusOr<std::string> bytes = sigmund::sfs::ReadChecksummedFile(
        inst->fs, inst->mem.Exists(versioned)
                      ? versioned
                      : sigmund::retrieval::IndexArtifactPath(world.data.id));
    checks->Expect(model.ok() && bytes.ok(),
                   "model and index artifact of retailer " +
                       std::to_string(world.data.id) + " load");
    if (!model.ok() || !bytes.ok()) continue;
    StatusOr<sigmund::retrieval::IndexArtifact> artifact =
        sigmund::retrieval::IndexArtifact::Deserialize(*bytes);
    checks->Expect(artifact.ok(), "index artifact decodes");
    if (!artifact.ok()) continue;
    auto& phi = phis[world.data.id];
    for (int i = 0; i < world.data.num_items(); ++i) {
      phi.push_back(Phi(*model, i));
    }
    models[world.data.id] =
        std::make_unique<sigmund::core::BprModel>(std::move(*model));
    artifacts[world.data.id] =
        std::make_unique<sigmund::retrieval::IndexArtifact>(std::move(*artifact));
  }

  double recall_sum = 0.0;
  int recall_n = 0;
  // A stream of its own, so the check sees the same requests whatever
  // the windows served.
  RequestStream stream(&s->traffic, inst->seed * 31 + 3);
  sigmund::serving::RecommendationRequest request;
  for (int i = 0; i < 2000; ++i) {
    stream.Next(&request);
    StatusOr<sigmund::serving::RecommendationResponse> response =
        s->frontend->Handle(request);
    checks->Expect(response.ok() && !response->degraded,
                   "serving check request answered");
    if (!response.ok()) continue;
    const int n = inst->worlds[request.retailer].data.num_items();
    std::string why;
    checks->Expect(WellFormed(response->items, n, &why),
                   "served response: " + why);
    if (response->source == sigmund::serving::ServingSource::kStore) {
      StatusOr<std::vector<ScoredItem>> list =
          inst->service->store().ServeContext(request.retailer,
                                              request.context);
      bool prefix = list.ok() && response->items.size() <= list->size();
      for (size_t k = 0; prefix && k < response->items.size(); ++k) {
        prefix = response->items[k].item == (*list)[k].item &&
                 response->items[k].score == (*list)[k].score;
      }
      checks->Expect(prefix && response->items.size() ==
                                   std::min<size_t>(request.max_results,
                                                    list.ok() ? list->size() : 0),
                     "materialized answer is a prefix of the active list");
    } else if (response->source ==
               sigmund::serving::ServingSource::kOnlineRetrieval) {
      const auto it = artifacts.find(request.retailer);
      if (it == artifacts.end()) continue;
      const sigmund::retrieval::IndexArtifact& artifact = *it->second;
      const std::vector<double> u = ContextVector(
          request.context, artifact.context_window, artifact.context_decay,
          artifact.context_vectors.data(), artifact.num_context_rows,
          artifact.dim);
      std::set<int> in_context;
      for (const auto& entry : request.context) in_context.insert(entry.item);
      const auto& phi = phis[request.retailer];
      std::vector<std::pair<double, int>> scored;
      for (int item = 0; item < static_cast<int>(phi.size()); ++item) {
        if (in_context.count(item) == 0) {
          scored.push_back({Dot(u, phi[item]), item});
        }
      }
      const size_t k = std::min<size_t>(10, scored.size());
      std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                        [](const auto& a, const auto& b) {
                          return a.first > b.first ||
                                 (a.first == b.first && a.second < b.second);
                        });
      std::set<int> exact;
      for (size_t j = 0; j < k; ++j) exact.insert(scored[j].second);
      int hits = 0;
      for (const ScoredItem& item : response->items) {
        hits += static_cast<int>(exact.count(item.item));
      }
      recall_sum += k > 0 ? static_cast<double>(hits) / k : 1.0;
      ++recall_n;
    }
  }
  checks->Expect(recall_n > 0, "the retrieval arm answered some requests");
  return recall_n > 0 ? recall_sum / recall_n : 0.0;
}

// ---------------------------------------------------------------------------
// Main loop.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  // Extra flag of the binary, not passed by run.py: 0 detaches the registry
  // from the Frontend, for the reference figure in README.md.
  bool frontend_registry = true;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = atof(value);
    } else if (key == "--trace") {
      args->trace = atoi(value) != 0;
    } else if (key == "--frontend-registry") {
      args->frontend_registry = atoi(value) != 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 &&
         (args->workload == "full_sweep_day" ||
          args->workload == "incremental_day" ||
          args->workload == "serve_mixed");
}

struct Unit {
  const char* name;
  const char* unit;
};

// Printed end-to-end metrics, in BENCHMARK.json order.
const Unit kEndToEnd[] = {
    {"setup_s", "s"},          {"day_wall_s", "s"},
    {"map_at_10", "ratio"},    {"peak_rss_mb", "MB"},
    {"serve_rps", "1/s"},      {"serve_p50_us", "us"},
    {"serve_p99_us", "us"},    {"batch_swap_ms", "ms"},
    {"ann_recall_at_10", "ratio"},
};

const char* LayerUnit(const std::string& name) {
  auto ends = [&](const char* suffix) {
    const size_t n = strlen(suffix);
    return name.size() >= n && name.compare(name.size() - n, n, suffix) == 0;
  };
  if (ends("_mb_per_s")) return "MB/s";
  if (ends("_per_busy_s") || ends("_per_s")) return "1/s";
  if (ends("_s")) return "s";
  if (ends("_us")) return "us";
  if (ends("_mb")) return "MB";
  if (ends("_share")) return "ratio";
  return "count";
}

int Run(const Args& args) {
  const Workload w = MakeWorkload(args.workload);
  std::unique_ptr<AllocTimeline> timeline;
  if (args.trace) {
    EnableAllocCounting(true);
    timeline = std::make_unique<AllocTimeline>();
  }
  Metrics e2e, layers;
  ServingRun serving_run;
  Ops ops;
  Checks checks;
  double recall = 0.0;
  double peak_rss_mb = 0.0;
  const double begin = NowSeconds();
  double last_rep_s = 0.0;
  int reps = 0;
  std::unique_ptr<Instance> inst;
  // Whole repetitions until the next one would overrun the budget; at
  // least two, so set-up is always measured more than once.
  while (reps < 2 || NowSeconds() - begin + last_rep_s <= args.seconds) {
    // The previous repetition's instance is freed, untimed, only once the
    // new world and service exist, so they are built on fresh memory, as
    // in a new process. Freeing it first made a 15 ms set-up read 9 or
    // 16 ms, depending on whether the allocator had returned that memory
    // to the system. It is freed before any set-up day runs. Peak memory
    // is read in the first repetition, before any second instance exists.
    std::unique_ptr<Instance> previous = std::move(inst);
    const double rep_start = NowSeconds();
    inst = Setup(w, args.seed, args.trace);
    double setup_s = NowSeconds() - rep_start;
    previous.reset();
    inst->frontend_registry = args.frontend_registry;
    const double day0_start = NowSeconds();
    DayResult day;
    if (w.incremental || w.day_in_setup) {
      day = RunDay(inst.get(), &ops);
    }
    if (w.incremental) AdvanceWorld(inst.get(), /*day=*/1);
    setup_s += NowSeconds() - day0_start;
    if (!w.day_in_setup) {
      const sigmund::obs::RegistrySnapshot before = inst->metrics.Snapshot();
      const SfsTraffic sfs_before =
          inst->timing ? inst->timing->Snapshot() : SfsTraffic{};
      inst->tracer.Clear();
      day = RunDay(inst.get(), &ops);
      if (args.trace) {
        RecordDayLayers(*inst, day, before, sfs_before, timeline.get(), &layers);
      }
    } else if (args.trace) {
      RecordDayLayers(*inst, day, sigmund::obs::RegistrySnapshot{},
                      SfsTraffic{}, timeline.get(), &layers);
    }
    e2e.Add("setup_s", setup_s);
    e2e.Add("day_wall_s", day.wall_s);
    e2e.Add("map_at_10", day.report.mean_best_map);

    std::unique_ptr<Serving> serving = MakeServing(inst.get());
    for (int window = 0; window < w.windows_per_rep; ++window) {
      ServeWindow(serving.get(), &ops, &serving_run, &layers);
    }
    if (reps == 0) {
      // Peak memory of one set-up, day and serving phase, read before the
      // checks and before a second instance has ever been built. The
      // writer reloaded the same batch files, so the checks still see
      // the day's output.
      peak_rss_mb = PeakRssMb();
      CheckBatches(*inst, &checks);
      recall = CheckServing(serving.get(), &checks);
    }
    last_rep_s = NowSeconds() - rep_start;
    fprintf(stderr,
            "rep %d: setup %.3fs day %.3fs map@10 %.4f, so far: serve "
            "%.0f rps swap %.3fms (rep %.2fs)\n",
            reps, setup_s, day.wall_s, day.report.mean_best_map,
            serving_run.Rps(), serving_run.SwapMs(), last_rep_s);
    ++reps;
  }
  e2e.Add("peak_rss_mb", peak_rss_mb);
  e2e.Add("serve_rps", serving_run.Rps());
  e2e.Add("serve_p50_us", serving_run.P50());
  e2e.Add("serve_p99_us", serving_run.P99());
  e2e.Add("batch_swap_ms", serving_run.SwapMs());
  e2e.Add("ann_recall_at_10", recall);

  const bool correct = checks.failed == 0 && recall >= 0.9;
  fprintf(stderr,
          "%s: %d reps, %lld ops (%lld failed), %lld checks (%lld failed), "
          "%lld latency samples, recall@10 %.4f\n",
          w.name.c_str(), reps, static_cast<long long>(ops.attempted),
          static_cast<long long>(ops.failed),
          static_cast<long long>(checks.passed + checks.failed),
          static_cast<long long>(checks.failed),
          static_cast<long long>(serving_run.requests), recall);
  fprintf(stderr,
          "per-arm Handle latency (whole run): materialized "
          "p50 %.2fus p99 %.2fus, ANN p50 %.2fus p99 %.2fus\n",
          Quantile(serving_run.store_us, 0.5),
          Quantile(serving_run.store_us, 0.99),
          Quantile(serving_run.ann_us, 0.5),
          Quantile(serving_run.ann_us, 0.99));

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ops.attempted);
  json += ", \"failed\": " + std::to_string(ops.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, const char* unit, double value) {
    char buf[256];
    snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
             first ? "" : ", ", name.c_str(), value, unit);
    json += buf;
    first = false;
  };
  if (!args.trace) {
    for (const Unit& m : kEndToEnd) emit(m.name, m.unit, Median(e2e.samples[m.name]));
  } else {
    for (const auto& [name, values] : layers.samples) {
      emit(name, LayerUnit(name), Median(values));
    }
  }
  json += "}}";
  printf("%s\n", json.c_str());
  fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  e2ebench::Args args;
  if (!e2ebench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: e2ebench --workload <full_sweep_day|incremental_day|"
            "serve_mixed> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  return e2ebench::Run(args);
}
