// The BPR compute kernel against a slow reference oracle.
//
// BprTrainer walks precomputed per-item feature rows, keeps per-worker
// scratch buffers and computes each row's gradient once. None of that may
// change a trained bit. The oracle below is the plain scalar kernel: it
// rebuilds the taxonomy path, the context weights and every scratch vector
// on each step and computes each row's gradient twice, reading the model
// only through its public accessors. Both train side by side,
// single-threaded, from the same bytes, and the serialized models must be
// identical.
//
// This binary also replaces global operator new (sigmund_alloc_counter) to
// check that a training step makes no heap allocation.

#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "bench/alloc_counter.h"
#include "common/logging.h"
#include "core/cooccurrence.h"
#include "core/model.h"
#include "core/negative_sampler.h"
#include "core/trainer.h"
#include "core/training_data.h"
#include "data/world_generator.h"
#include "retrieval/artifact.h"

namespace sigmund::core {
namespace {

// --- Reference oracle -----------------------------------------------------

std::vector<data::CategoryId> PathToRoot(const data::Taxonomy& taxonomy,
                                         data::CategoryId c) {
  std::vector<data::CategoryId> path;
  path.push_back(c);
  while (c != 0) {
    c = taxonomy.parent(c);
    path.push_back(c);
  }
  return path;
}

double Softplus(double z) {
  if (z > 30.0) return z;
  if (z < -30.0) return 0.0;
  return std::log1p(std::exp(z));
}

class OracleKernel {
 public:
  OracleKernel(BprModel* model, const TrainingData* data,
               const NegativeSampler* sampler)
      : model_(model), data_(data), sampler_(sampler) {}

  void set_sampler(const NegativeSampler* sampler) { sampler_ = sampler; }

  void ItemRepresentation(data::ItemIndex i, float* out) const {
    // Aliases for the model's members, so the body below stays verbatim.
    const HyperParams& params_ = model_->params();
    const data::Catalog* catalog_ = &model_->catalog();
    const EmbeddingMatrix& item_emb_ = model_->item_embeddings();
    const EmbeddingMatrix& taxonomy_emb_ = model_->taxonomy_embeddings();
    const EmbeddingMatrix& brand_emb_ = model_->brand_embeddings();
    const EmbeddingMatrix& price_emb_ = model_->price_embeddings();
    const int d = model_->dim();
    const float* v = item_emb_.row(i);
    for (int k = 0; k < d; ++k) out[k] = v[k];

    const data::Item& item = catalog_->item(i);
    if (params_.use_taxonomy && taxonomy_emb_.rows() > 0) {
      for (data::CategoryId a :
           PathToRoot(catalog_->taxonomy(), item.category)) {
        const float* t = taxonomy_emb_.row(a);
        for (int k = 0; k < d; ++k) out[k] += t[k];
      }
    }
    if (params_.use_brand && item.brand != data::kUnknownBrand &&
        item.brand < brand_emb_.rows()) {
      const float* b = brand_emb_.row(item.brand);
      for (int k = 0; k < d; ++k) out[k] += b[k];
    }
    if (params_.use_price) {
      int bucket = data::PriceBucket(item.price, data::kDefaultPriceBuckets);
      if (bucket >= 0) {
        const float* p = price_emb_.row(bucket);
        for (int k = 0; k < d; ++k) out[k] += p[k];
      }
    }
  }

  std::vector<float> ContextWeights(int n) const {
    std::vector<float> weights(n);
    double total = 0.0;
    for (int j = 0; j < n; ++j) {
      double w = std::pow(model_->params().context_decay, n - 1 - j);
      weights[j] = static_cast<float>(w);
      total += w;
    }
    if (total > 0.0) {
      for (float& w : weights) w = static_cast<float>(w / total);
    }
    return weights;
  }

  void UserEmbedding(const Context& context, float* out) const {
    const int d = model_->dim();
    for (int k = 0; k < d; ++k) out[k] = 0.0f;
    if (context.empty()) return;

    const int window = model_->params().context_window;
    const int n = std::min<int>(window, static_cast<int>(context.size()));
    const int start = static_cast<int>(context.size()) - n;
    std::vector<float> weights = ContextWeights(n);
    for (int j = 0; j < n; ++j) {
      const float* vc = model_->context_embeddings().row(context[start + j].item);
      const float w = weights[j];
      for (int k = 0; k < d; ++k) out[k] += w * vc[k];
    }
  }

  double Score(const float* user_vec, data::ItemIndex i) const {
    std::vector<float> phi(model_->dim());
    ItemRepresentation(i, phi.data());
    double sum = 0.0;
    for (int k = 0; k < model_->dim(); ++k) {
      sum += static_cast<double>(user_vec[k]) * phi[k];
    }
    return sum;
  }

  void UpdateRow(EmbeddingMatrix* table, int row, const float* dir,
                 double scale_grad, double lambda) {
    const int d = model_->dim();
    const double eta = model_->params().learning_rate;
    float* w = table->row(row);

    double lr = eta;
    if (model_->params().use_adagrad) {
      double norm_sq = 0.0;
      for (int k = 0; k < d; ++k) {
        double g = scale_grad * dir[k] - lambda * w[k];
        norm_sq += g * g;
      }
      float& acc = table->adagrad(row);
      acc += static_cast<float>(norm_sq);
      lr = eta / std::sqrt(1e-6 + acc);
    }
    for (int k = 0; k < d; ++k) {
      double g = scale_grad * dir[k] - lambda * w[k];
      w[k] += static_cast<float>(lr * g);
    }
  }

  double ApplyUpdate(const Context& context, data::ItemIndex positive,
                     data::ItemIndex negative) {
    const int d = model_->dim();
    const HyperParams& params = model_->params();

    std::vector<float> u(d), phi_i(d), phi_j(d), diff(d);
    UserEmbedding(context, u.data());
    ItemRepresentation(positive, phi_i.data());
    ItemRepresentation(negative, phi_j.data());

    double x = 0.0;
    for (int k = 0; k < d; ++k) {
      diff[k] = phi_i[k] - phi_j[k];
      x += static_cast<double>(u[k]) * diff[k];
    }
    const double loss = Softplus(-x);
    const double s = 1.0 / (1.0 + std::exp(x));

    auto update_item_side = [&](data::ItemIndex item, double sign) {
      UpdateRow(&model_->item_embeddings(), item, u.data(), sign * s,
                params.lambda_v);
      const data::Item& meta = model_->catalog().item(item);
      if (params.use_taxonomy) {
        for (data::CategoryId a :
             PathToRoot(model_->catalog().taxonomy(), meta.category)) {
          UpdateRow(&model_->taxonomy_embeddings(), a, u.data(), sign * s,
                    params.lambda_v);
        }
      }
      if (params.use_brand && meta.brand != data::kUnknownBrand &&
          meta.brand < model_->brand_embeddings().rows()) {
        UpdateRow(&model_->brand_embeddings(), meta.brand, u.data(),
                  sign * s, params.lambda_v);
      }
      if (params.use_price) {
        int bucket = data::PriceBucket(meta.price, data::kDefaultPriceBuckets);
        if (bucket >= 0) {
          UpdateRow(&model_->price_embeddings(), bucket, u.data(), sign * s,
                    params.lambda_v);
        }
      }
    };
    update_item_side(positive, +1.0);
    update_item_side(negative, -1.0);

    const int window = params.context_window;
    const int n = std::min<int>(window, static_cast<int>(context.size()));
    const int start = static_cast<int>(context.size()) - n;
    std::vector<float> weights = ContextWeights(n);
    for (int m = 0; m < n; ++m) {
      UpdateRow(&model_->context_embeddings(), context[start + m].item,
                diff.data(), s * weights[m], params.lambda_vc);
    }
    return loss;
  }

  double SampleAndStep(Rng* rng) {
    const HyperParams& params = model_->params();
    TrainingData::Position pos = data_->SamplePosition(rng);
    const data::Interaction& event = data_->EventAt(pos);
    Context context = data_->ContextAt(pos, params.context_window);
    if (context.empty()) return -1.0;

    data::ItemIndex negative = data::kInvalidItem;
    if (data::ActionStrength(event.action) > 0 &&
        rng->Bernoulli(params.tier_constraint_fraction)) {
      negative = data_->SampleLowerTierItem(pos.user, event.action, rng);
      if (negative == event.item) negative = data::kInvalidItem;
    }
    if (negative == data::kInvalidItem) {
      std::vector<float> u(model_->dim());
      UserEmbedding(context, u.data());
      negative = sampler_->Sample(*data_, pos.user, u.data(), event.item, rng);
    }
    if (negative == data::kInvalidItem || negative == event.item) return -1.0;
    return ApplyUpdate(context, event.item, negative);
  }

  // BprTrainer::Train's schedule for one thread: four chunks per epoch,
  // each with its own (seed, epoch, chunk) RNG, run in chunk order.
  TrainStats Train(int num_epochs, int64_t steps_per_epoch) {
    TrainStats stats;
    const int64_t chunks = 4;
    for (int epoch = 0; epoch < num_epochs; ++epoch) {
      double loss_sum = 0.0;
      int64_t done = 0, skipped = 0;
      for (int64_t c = 0; c < chunks; ++c) {
        Rng rng(SplitMix64(model_->params().seed + 1) ^
                SplitMix64(static_cast<uint64_t>(epoch) * 1000003ULL + c));
        int64_t my_steps =
            steps_per_epoch / chunks + (c < steps_per_epoch % chunks ? 1 : 0);
        double local_loss = 0.0;
        int64_t local_done = 0, local_skipped = 0;
        for (int64_t i = 0; i < my_steps; ++i) {
          double loss = SampleAndStep(&rng);
          if (loss < 0.0) {
            ++local_skipped;
          } else {
            local_loss += loss;
            ++local_done;
          }
        }
        loss_sum += local_loss;
        done += local_done;
        skipped += local_skipped;
      }
      stats.epochs_run = epoch + 1;
      stats.sgd_steps += done;
      stats.skipped_steps += skipped;
      stats.last_epoch_loss = done > 0 ? loss_sum / done : 0.0;
    }
    return stats;
  }

 private:
  BprModel* model_;
  const TrainingData* data_;
  const NegativeSampler* sampler_;
};

// AdaptiveSampler, scoring with the oracle's phi(i).
class OracleAdaptiveSampler : public NegativeSampler {
 public:
  explicit OracleAdaptiveSampler(const OracleKernel* oracle)
      : oracle_(oracle) {}

  data::ItemIndex Sample(const TrainingData& data, data::UserIndex u,
                         const float* user_vec, data::ItemIndex positive,
                         Rng* rng) const override {
    data::ItemIndex best = data::kInvalidItem;
    double best_score = -1e30;
    for (int c = 0; c < 4; ++c) {
      data::ItemIndex j = base_.Sample(data, u, user_vec, positive, rng);
      if (j == data::kInvalidItem) continue;
      if (user_vec == nullptr) return j;
      double score = oracle_->Score(user_vec, j);
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
    return best;
  }

 private:
  const OracleKernel* oracle_;
  UniformSampler base_;
};

// --- Fixtures -------------------------------------------------------------

data::RetailerWorld MakeWorld(int items = 200) {
  data::WorldConfig config;
  config.seed = 17;
  config.mean_sessions_per_user = 4.0;
  config.brand_coverage_lo = 0.6;
  config.brand_coverage_hi = 0.6;
  data::WorldGenerator generator(config);
  return generator.GenerateRetailer(0, items);
}

struct KernelCase {
  const char* name;
  int dim;
  bool taxonomy, brand, price, adagrad;
  NegativeSamplerKind sampler;
  double tier_fraction;
  bool exclusion;   // wrap the sampler in co-occurrence exclusion
  bool warm_start;  // start from a smaller catalog's model, then resize
  int context_window = 25;
};

std::string CaseName(const ::testing::TestParamInfo<KernelCase>& info) {
  return info.param.name;
}
void PrintTo(const KernelCase& c, std::ostream* os) { *os << c.name; }

HyperParams ParamsFor(const KernelCase& c) {
  HyperParams params;
  params.num_factors = c.dim;
  params.use_taxonomy = c.taxonomy;
  params.use_brand = c.brand;
  params.use_price = c.price;
  params.use_adagrad = c.adagrad;
  params.sampler = c.sampler;
  params.tier_constraint_fraction = c.tier_fraction;
  params.context_window = c.context_window;
  params.learning_rate = 0.08;
  params.seed = 5 + c.dim;
  return params;
}

// A model's starting bytes: random init, or (warm start) a model of the
// catalog minus its last 15 items, deserialized against the full catalog
// and grown with ResizeForCatalog — the daily incremental path.
std::string InitialModelBytes(const KernelCase& c,
                              const data::Catalog& catalog) {
  const HyperParams params = ParamsFor(c);
  Rng rng(params.seed);
  if (!c.warm_start) {
    BprModel model(&catalog, params);
    model.InitRandom(&rng);
    return model.Serialize();
  }
  data::Catalog smaller(catalog.taxonomy());
  for (data::ItemIndex i = 0; i + 15 < catalog.num_items(); ++i) {
    smaller.AddItem(catalog.item(i));
  }
  smaller.Finalize();
  BprModel old_model(&smaller, params);
  old_model.InitRandom(&rng);
  StatusOr<BprModel> model =
      BprModel::Deserialize(old_model.Serialize(), &catalog);
  SIGCHECK(model.ok());
  EXPECT_EQ(model->ResizeForCatalog(&rng), 15);
  return model->Serialize();
}

class TrainerKernelOracleTest : public ::testing::TestWithParam<KernelCase> {};

TEST_P(TrainerKernelOracleTest, SerializedModelsAreByteIdentical) {
  const KernelCase& c = GetParam();
  const data::RetailerWorld world = MakeWorld();
  const data::Catalog& catalog = world.data.catalog;
  const data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  const TrainingData data(&split.train, catalog.num_items());
  const CooccurrenceModel cooccurrence =
      CooccurrenceModel::Build(split.train, catalog.num_items(), {});
  const CooccurrenceModel* exclusion = c.exclusion ? &cooccurrence : nullptr;
  const std::string initial = InitialModelBytes(c, catalog);

  StatusOr<BprModel> fast = BprModel::Deserialize(initial, &catalog);
  StatusOr<BprModel> slow = BprModel::Deserialize(initial, &catalog);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(fast->num_items(), catalog.num_items());

  const std::unique_ptr<NegativeSampler> fast_sampler = MakeNegativeSampler(
      fast->params(), &catalog, &data, &*fast, exclusion);
  OracleKernel oracle(&*slow, &data, nullptr);
  std::unique_ptr<NegativeSampler> slow_sampler;
  if (c.sampler == NegativeSamplerKind::kAdaptive) {
    slow_sampler = std::make_unique<OracleAdaptiveSampler>(&oracle);
    if (exclusion != nullptr) {
      slow_sampler = std::make_unique<ExclusionSampler>(
          std::move(slow_sampler), exclusion, /*max_co_count=*/2);
    }
  } else {
    slow_sampler = MakeNegativeSampler(slow->params(), &catalog, &data,
                                       &*slow, exclusion);
  }
  oracle.set_sampler(slow_sampler.get());

  const int epochs = 2;
  const int64_t steps = c.dim >= 128 ? 1500 : 4000;
  BprTrainer trainer(&*fast, &data, fast_sampler.get());
  BprTrainer::Options options;
  options.num_threads = 1;
  options.num_epochs = epochs;
  options.steps_per_epoch = steps;
  const TrainStats fast_stats = trainer.Train(options);
  const TrainStats slow_stats = oracle.Train(epochs, steps);

  EXPECT_GT(fast_stats.sgd_steps, steps);
  EXPECT_EQ(fast_stats.sgd_steps, slow_stats.sgd_steps);
  EXPECT_EQ(fast_stats.skipped_steps, slow_stats.skipped_steps);
  EXPECT_EQ(std::memcmp(&fast_stats.last_epoch_loss,
                        &slow_stats.last_epoch_loss, sizeof(double)),
            0);
  const std::string fast_bytes = fast->Serialize();
  const std::string slow_bytes = slow->Serialize();
  ASSERT_EQ(fast_bytes.size(), slow_bytes.size());
  EXPECT_EQ(std::memcmp(fast_bytes.data(), slow_bytes.data(),
                        fast_bytes.size()),
            0);
  // Training moved the model, so the comparison is not vacuous.
  EXPECT_NE(fast_bytes, initial);
}

using Kind = NegativeSamplerKind;
INSTANTIATE_TEST_SUITE_P(
    Configs, TrainerKernelOracleTest,
    ::testing::Values(
        KernelCase{"d8_all_adagrad_uniform", 8, true, true, true, true,
                   Kind::kUniform, 0.25, false, false},
        KernelCase{"d8_bare_adagrad_uniform", 8, false, false, false, true,
                   Kind::kUniform, 0.25, false, false},
        KernelCase{"d8_all_sgd_popularity_exclusion", 8, true, true, true,
                   false, Kind::kPopularity, 0.25, true, false},
        KernelCase{"d16_taxonomy_sgd_popularity", 16, true, false, false,
                   false, Kind::kPopularity, 0.25, false, false},
        KernelCase{"d16_brand_price_adagrad_taxonomy", 16, false, true, true,
                   true, Kind::kTaxonomy, 0.25, false, false},
        KernelCase{"d16_all_adagrad_adaptive", 16, true, true, true, true,
                   Kind::kAdaptive, 0.25, false, false},
        KernelCase{"d16_price_sgd_adaptive_exclusion", 16, false, false, true,
                   false, Kind::kAdaptive, 0.0, true, false},
        KernelCase{"d16_all_adagrad_tier_only", 16, true, true, true, true,
                   Kind::kUniform, 1.0, false, false},
        KernelCase{"d16_all_adagrad_warm_start", 16, true, true, true, true,
                   Kind::kUniform, 0.25, false, true},
        KernelCase{"d16_taxonomy_adagrad_window1", 16, true, false, false,
                   true, Kind::kTaxonomy, 0.25, false, false, 1},
        KernelCase{"d128_all_adagrad_uniform", 128, true, true, true, true,
                   Kind::kUniform, 0.25, false, false},
        KernelCase{"d128_bare_sgd_adaptive", 128, false, false, false, false,
                   Kind::kAdaptive, 0.25, false, false}),
    CaseName);

TEST(TrainerKernelTest, WorldExercisesEveryFeatureRow) {
  // The oracle cases above only mean something if items actually carry
  // brand and price rows and multi-level taxonomy paths.
  const data::RetailerWorld world = MakeWorld();
  HyperParams params;
  params.use_brand = params.use_price = params.use_taxonomy = true;
  const BprModel model(&world.data.catalog, params);
  int with_brand = 0, with_price = 0, deep = 0;
  for (data::ItemIndex i = 0; i < model.num_items(); ++i) {
    int taxonomy_rows = 0;
    for (const BprModel::FeatureRow& r : model.FeatureRows(i)) {
      with_brand += r.table == BprModel::FeatureTable::kBrand;
      with_price += r.table == BprModel::FeatureTable::kPrice;
      taxonomy_rows += r.table == BprModel::FeatureTable::kTaxonomy;
    }
    deep += taxonomy_rows >= 3;
  }
  EXPECT_GT(with_brand, 0);
  EXPECT_LT(with_brand, model.num_items());
  EXPECT_GT(with_price, 0);
  EXPECT_GT(deep, 0);
}

TEST(TrainerKernelTest, LongContextsMatchTheOracleBeyondTheWeightTable) {
  // Contexts longer than ContextWeightTable::kMaxTabulated take the
  // computed-weights path; it must give the same bits.
  const data::RetailerWorld world = MakeWorld();
  HyperParams params;
  params.num_factors = 8;
  params.context_window = ContextWeightTable::kMaxTabulated + 40;
  BprModel model(&world.data.catalog, params);
  Rng rng(3);
  model.InitRandom(&rng);
  const OracleKernel oracle(&model, nullptr, nullptr);
  Context context;
  for (int j = 0; j < params.context_window + 10; ++j) {
    context.push_back({static_cast<data::ItemIndex>(
                           rng.Uniform(world.data.catalog.num_items())),
                       data::ActionType::kView});
  }
  for (int n : {0, 1, 7, ContextWeightTable::kMaxTabulated,
                ContextWeightTable::kMaxTabulated + 1,
                params.context_window}) {
    const std::vector<float> fast = model.ContextWeights(n);
    const std::vector<float> slow = oracle.ContextWeights(n);
    ASSERT_EQ(fast.size(), slow.size());
    EXPECT_EQ(std::memcmp(fast.data(), slow.data(), n * sizeof(float)), 0)
        << "n=" << n;
  }
  std::vector<float> fast(8), slow(8);
  model.UserEmbedding(context, fast.data());
  oracle.UserEmbedding(context, slow.data());
  EXPECT_EQ(std::memcmp(fast.data(), slow.data(), sizeof(float) * 8), 0);
}

// --- Zero heap allocations per step -------------------------------------

class TrainerKernelAllocTest
    : public ::testing::TestWithParam<NegativeSamplerKind> {};

TEST_P(TrainerKernelAllocTest, StepsAllocateNothingAfterWarmUp) {
  const data::RetailerWorld world = MakeWorld();
  const data::Catalog& catalog = world.data.catalog;
  const data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  const TrainingData data(&split.train, catalog.num_items());
  const CooccurrenceModel cooccurrence =
      CooccurrenceModel::Build(split.train, catalog.num_items(), {});
  HyperParams params;
  params.num_factors = 16;
  params.use_taxonomy = params.use_brand = params.use_price = true;
  params.sampler = GetParam();
  BprModel model(&catalog, params);
  Rng rng(9);
  model.InitRandom(&rng);
  const std::unique_ptr<NegativeSampler> sampler =
      MakeNegativeSampler(params, &catalog, &data, &model, &cooccurrence);
  BprTrainer trainer(&model, &data, sampler.get());

  // Epoch 0 warms up; epoch 1's 10,000 steps are counted.
  int64_t at_warm_up_end = -1, during_epoch_1 = -1, steps_before = 0;
  int64_t counted_steps = 0;
  BprTrainer::Options options;
  options.num_threads = 1;
  options.num_epochs = 2;
  options.steps_per_epoch = 10000;
  options.epoch_callback = [&](int epoch, const TrainStats& stats) {
    if (epoch == 0) {
      steps_before = stats.sgd_steps + stats.skipped_steps;
      at_warm_up_end = bench::HeapAllocations();
    } else {
      during_epoch_1 = bench::HeapAllocations() - at_warm_up_end;
      counted_steps = stats.sgd_steps + stats.skipped_steps - steps_before;
    }
    return true;
  };
  const TrainStats stats = trainer.Train(options);
  EXPECT_EQ(counted_steps, 10000);
  EXPECT_GT(stats.sgd_steps, 10000);
  EXPECT_EQ(during_epoch_1, 0);
}

INSTANTIATE_TEST_SUITE_P(
    Samplers, TrainerKernelAllocTest,
    ::testing::Values(NegativeSamplerKind::kUniform,
                      NegativeSamplerKind::kPopularity,
                      NegativeSamplerKind::kTaxonomy,
                      NegativeSamplerKind::kAdaptive),
    [](const ::testing::TestParamInfo<NegativeSamplerKind>& info) {
      return std::string(NegativeSamplerKindName(info.param));
    });

// --- PhiTable --------------------------------------------------------------

void ExpectPhiTableMatches(BprModel& model) {
  const PhiTable phi(model);
  const OracleKernel oracle(&model, nullptr, nullptr);
  ASSERT_EQ(phi.num_items(), model.num_items());
  ASSERT_EQ(phi.dim(), model.dim());
  std::vector<float> fast(model.dim()), slow(model.dim());
  const size_t bytes = sizeof(float) * model.dim();
  for (data::ItemIndex i = 0; i < model.num_items(); ++i) {
    model.ItemRepresentation(i, fast.data());
    oracle.ItemRepresentation(i, slow.data());
    ASSERT_EQ(std::memcmp(phi.row(i), fast.data(), bytes), 0) << "item " << i;
    ASSERT_EQ(std::memcmp(phi.row(i), slow.data(), bytes), 0) << "item " << i;
  }
  // Scores through the table are the model's scores, bit for bit.
  std::vector<float> u(model.dim());
  for (int k = 0; k < model.dim(); ++k) u[k] = 0.1f * (k % 7) - 0.3f;
  for (data::ItemIndex i = 0; i < model.num_items(); ++i) {
    const double a = phi.Score(u.data(), i);
    const double b = model.Score(u.data(), i);
    ASSERT_EQ(std::memcmp(&a, &b, sizeof(double)), 0) << "item " << i;
  }
}

TEST(PhiTableTest, RowsEqualItemRepresentation) {
  const data::RetailerWorld world = MakeWorld();
  for (bool features : {false, true}) {
    HyperParams params;
    params.num_factors = 12;
    params.use_taxonomy = params.use_brand = params.use_price = features;
    BprModel model(&world.data.catalog, params);
    Rng rng(4);
    model.InitRandom(&rng);
    ExpectPhiTableMatches(model);
  }
}

TEST(PhiTableTest, RowsEqualItemRepresentationAfterResizeForCatalog) {
  data::RetailerWorld world = MakeWorld();
  data::Catalog& catalog = world.data.catalog;
  HyperParams params;
  params.num_factors = 8;
  params.use_taxonomy = params.use_brand = params.use_price = true;
  BprModel model(&catalog, params);
  Rng rng(4);
  model.InitRandom(&rng);
  // Daily catalog growth: new items, one of them under a brand the model
  // has no row for yet.
  const int brands = catalog.num_brands();
  catalog.AddItem(data::Item{catalog.item(0).category, brands, 49.0, -1});
  catalog.AddItem(data::Item{catalog.item(1).category, data::kUnknownBrand,
                             0.0, -1});
  ASSERT_EQ(model.ResizeForCatalog(&rng), 2);
  ASSERT_EQ(model.brand_embeddings().rows(), brands + 1);
  ExpectPhiTableMatches(model);
}

TEST(PhiTableTest, RowsEqualItemRepresentationAfterDeserialize) {
  const data::RetailerWorld world = MakeWorld();
  HyperParams params;
  params.num_factors = 8;
  params.use_taxonomy = params.use_brand = params.use_price = true;
  BprModel model(&world.data.catalog, params);
  Rng rng(4);
  model.InitRandom(&rng);
  StatusOr<BprModel> restored =
      BprModel::Deserialize(model.Serialize(), &world.data.catalog);
  ASSERT_TRUE(restored.ok());
  ExpectPhiTableMatches(*restored);
  const PhiTable a(model), b(*restored);
  EXPECT_EQ(a.values(), b.values());
}

// --- Satellites of the kernel: seen sets and query weights ----------------

TEST(TrainerKernelTest, SeenMatchesHashSetOfTrainingHistories) {
  const data::RetailerWorld world = MakeWorld();
  const data::TrainTestSplit split = data::SplitLeaveLastOut(world.data);
  const TrainingData data(&split.train, world.data.num_items());
  int64_t seen_pairs = 0;
  for (data::UserIndex u = 0; u < data.num_users(); ++u) {
    std::unordered_set<data::ItemIndex> seen;
    for (const data::Interaction& event : split.train[u]) {
      seen.insert(event.item);
    }
    for (data::ItemIndex i = 0; i < data.num_items(); ++i) {
      ASSERT_EQ(data.Seen(u, i), seen.count(i) > 0) << u << "," << i;
    }
    seen_pairs += static_cast<int64_t>(seen.size());
  }
  EXPECT_GT(seen_pairs, data.num_users());
}

TEST(TrainerKernelTest, ArtifactQueryEmbeddingEqualsUserEmbedding) {
  const data::RetailerWorld world = MakeWorld();
  HyperParams params;
  params.num_factors = 8;
  params.context_decay = 0.7;
  params.context_window = 6;
  BprModel model(&world.data.catalog, params);
  Rng rng(4);
  model.InitRandom(&rng);
  const retrieval::IndexArtifact built =
      retrieval::BuildArtifactFromModel(0, model, {});
  StatusOr<retrieval::IndexArtifact> decoded =
      retrieval::IndexArtifact::Deserialize(built.Serialize());
  ASSERT_TRUE(decoded.ok());
  const OracleKernel oracle(&model, nullptr, nullptr);
  Context context;
  for (int len = 1; len <= 9; ++len) {
    context.push_back({static_cast<data::ItemIndex>(len * 7),
                       data::ActionType::kView});
    std::vector<float> expected(8), from_built(8), from_decoded(8);
    oracle.UserEmbedding(context, expected.data());
    built.QueryEmbedding(context, from_built.data());
    decoded->QueryEmbedding(context, from_decoded.data());
    EXPECT_EQ(std::memcmp(expected.data(), from_built.data(), 32), 0);
    EXPECT_EQ(std::memcmp(expected.data(), from_decoded.data(), 32), 0);
  }
  // The indexed vectors are the model's PhiTable.
  EXPECT_EQ(decoded->index.num_items(), model.num_items());
}

}  // namespace
}  // namespace sigmund::core
