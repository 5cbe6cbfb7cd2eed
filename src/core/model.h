#ifndef SIGMUND_CORE_MODEL_H_
#define SIGMUND_CORE_MODEL_H_

#include <stdint.h>

#include <span>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/hyperparams.h"
#include "data/catalog.h"
#include "data/types.h"

namespace sigmund::core {

// One (action, item) pair of a user's recent history; a Context is the
// sequence of the user's last K actions, oldest first (§III-B2).
struct ContextEntry {
  data::ItemIndex item = data::kInvalidItem;
  data::ActionType action = data::ActionType::kView;
};
using Context = std::vector<ContextEntry>;

// Writes the n normalized geometric-decay weights of a length-n context
// into out[n], oldest first: the newest entry weighs 1 before
// normalization, each older one `decay` times the next (§III-B2). The one
// implementation behind BprModel's user embedding and the retrieval
// artifact's query embedding.
void ComputeContextWeights(double decay, int n, float* out);

// ComputeContextWeights for every context length n = 0..window (up to
// kMaxTabulated), built once per model or artifact so an embedding needs
// neither std::pow nor a heap allocation. Stored triangularly: length n's
// weights start at n(n-1)/2.
class ContextWeightTable {
 public:
  // Bounds the table (~130 KB) whatever window a model or a decoded
  // artifact declares; longer contexts are computed on demand.
  static constexpr int kMaxTabulated = 256;

  ContextWeightTable() = default;
  ContextWeightTable(double decay, int window);

  // The n weights of a length-n context (n >= 0). Tabulated lengths are
  // read from the table; longer ones are computed into `*spill`.
  const float* Weights(int n, std::vector<float>* spill) const {
    if (n <= tabulated_) {
      return weights_.data() + static_cast<size_t>(n * (n - 1) / 2);
    }
    spill->resize(n);
    ComputeContextWeights(decay_, n, spill->data());
    return spill->data();
  }

 private:
  double decay_ = 0.0;
  int tabulated_ = 0;
  std::vector<float> weights_;
};

// Dense row-major float matrix holding one embedding per row, plus a
// per-row Adagrad accumulator (sum of squared gradient norms). Rows are
// updated lock-free by Hogwild threads.
class EmbeddingMatrix {
 public:
  EmbeddingMatrix() = default;
  EmbeddingMatrix(int rows, int dim) { Resize(rows, dim); }

  void Resize(int rows, int dim);
  // Grows to `rows`, Gaussian-initializing the new rows.
  void GrowRows(int rows, double stddev, Rng* rng);
  void InitRandom(double stddev, Rng* rng);

  int rows() const { return rows_; }
  int dim() const { return dim_; }
  float* row(int r) { return values_.data() + static_cast<size_t>(r) * dim_; }
  const float* row(int r) const {
    return values_.data() + static_cast<size_t>(r) * dim_;
  }
  float& adagrad(int r) { return adagrad_[r]; }
  float adagrad(int r) const { return adagrad_[r]; }
  void ResetAdagrad();

  int64_t MemoryBytes() const {
    return static_cast<int64_t>(values_.capacity() * sizeof(float) +
                                adagrad_.capacity() * sizeof(float));
  }

  const std::vector<float>& values() const { return values_; }
  std::vector<float>* mutable_values() { return &values_; }
  std::vector<float>* mutable_adagrad() { return &adagrad_; }
  const std::vector<float>& adagrad_values() const { return adagrad_; }

 private:
  int rows_ = 0;
  int dim_ = 0;
  std::vector<float> values_;
  std::vector<float> adagrad_;
};

// The BPR factorization model with Sigmund's extensions: separate context
// embeddings (§III-B2) and hierarchical additive side features — taxonomy,
// brand, log-price bucket (§III-B4).
//
//   phi(i) = v_i [+ sum_{a in path(cat(i))} t_a] [+ b_brand(i)] [+ p_bucket(i)]
//   u      = sum_j w_j * vC_{I_j}          (w_j geometric decay, normalized)
//   x_ui   = <u, phi(i)>
//
// phi(i) is a sum of embedding rows fixed by the catalog, so the model
// keeps, per item, the list of those rows in summation order (CSR form,
// rebuilt whenever the tables are resized). ItemRepresentation and the
// trainer's item-side update both walk that list.
//
// The model does NOT own the catalog; the caller keeps it alive.
class BprModel {
 public:
  // The tables an item's feature rows come from.
  enum class FeatureTable : uint8_t { kItem, kTaxonomy, kBrand, kPrice };
  struct FeatureRow {
    FeatureTable table = FeatureTable::kItem;
    int32_t row = 0;
  };

  BprModel(const data::Catalog* catalog, const HyperParams& params);

  // Gaussian-initializes all embedding tables from params().seed-derived
  // randomness.
  void InitRandom(Rng* rng);

  const HyperParams& params() const { return params_; }
  const data::Catalog& catalog() const { return *catalog_; }
  int dim() const { return params_.num_factors; }
  int num_items() const { return item_emb_.rows(); }

  // Writes phi(i) into out[dim()].
  void ItemRepresentation(data::ItemIndex i, float* out) const;

  // The rows whose sum is phi(i), in summation order: the item row, the
  // taxonomy path from leaf to root, the brand, the price bucket (each
  // feature only when enabled and known for the item).
  std::span<const FeatureRow> FeatureRows(data::ItemIndex i) const {
    return {feature_rows_.data() + feature_offsets_[i],
            feature_rows_.data() + feature_offsets_[i + 1]};
  }
  EmbeddingMatrix& feature_table(FeatureTable table) {
    return this->*kFeatureTables[static_cast<int>(table)];
  }
  const EmbeddingMatrix& feature_table(FeatureTable table) const {
    return this->*kFeatureTables[static_cast<int>(table)];
  }

  // Writes the context-derived user embedding (Eq. 1) into out[dim()].
  // Uses the last params().context_window entries of `context`. A user
  // with empty context gets the zero vector.
  void UserEmbedding(const Context& context, float* out) const;

  // Affinity x_ui given a precomputed user vector.
  double Score(const float* user_vec, data::ItemIndex i) const;

  // Mutable tables for the trainer.
  EmbeddingMatrix& item_embeddings() { return item_emb_; }
  EmbeddingMatrix& context_embeddings() { return context_emb_; }
  EmbeddingMatrix& taxonomy_embeddings() { return taxonomy_emb_; }
  EmbeddingMatrix& brand_embeddings() { return brand_emb_; }
  EmbeddingMatrix& price_embeddings() { return price_emb_; }
  const EmbeddingMatrix& item_embeddings() const { return item_emb_; }
  const EmbeddingMatrix& context_embeddings() const { return context_emb_; }
  const EmbeddingMatrix& taxonomy_embeddings() const { return taxonomy_emb_; }
  const EmbeddingMatrix& brand_embeddings() const { return brand_emb_; }
  const EmbeddingMatrix& price_embeddings() const { return price_emb_; }

  // Context weights for a context of length n (normalized, oldest first).
  std::vector<float> ContextWeights(int n) const;
  // The precomputed weights of params().context_decay.
  const ContextWeightTable& context_weights() const {
    return context_weights_;
  }

  // Grows the item/context tables after catalog growth (daily new items,
  // §III-C3), Gaussian-initializing new rows. Returns #items added.
  int ResizeForCatalog(Rng* rng);

  // Resets every Adagrad accumulator to 0 — done at the start of each
  // incremental run (§III-C3).
  void ResetAdagrad();

  // Total parameter memory (drives the one-retailer-per-machine policy).
  int64_t MemoryBytes() const;

  // Binary (de)serialization of all tables + accumulators. The catalog is
  // NOT serialized; Deserialize validates dimensions against it.
  std::string Serialize() const;
  static StatusOr<BprModel> Deserialize(const std::string& bytes,
                                        const data::Catalog* catalog);

 private:
  // Rebuilds the per-item feature-row lists from the catalog and the
  // current table sizes.
  void BuildFeatureRows();

  const data::Catalog* catalog_;
  HyperParams params_;
  ContextWeightTable context_weights_;
  EmbeddingMatrix item_emb_;      // v_i
  EmbeddingMatrix context_emb_;   // vC_i
  EmbeddingMatrix taxonomy_emb_;  // t_a, one per category
  EmbeddingMatrix brand_emb_;     // b_b, one per brand
  EmbeddingMatrix price_emb_;     // p_k, one per price bucket
  // Item i's feature rows are feature_rows_[feature_offsets_[i] ..
  // feature_offsets_[i + 1]).
  std::vector<int32_t> feature_offsets_;
  std::vector<FeatureRow> feature_rows_;

  // Indexed by FeatureTable.
  static constexpr EmbeddingMatrix BprModel::*kFeatureTables[] = {
      &BprModel::item_emb_, &BprModel::taxonomy_emb_, &BprModel::brand_emb_,
      &BprModel::price_emb_};
};

// A frozen snapshot of phi(i) for every item of a model: one contiguous
// row-major f32 matrix (num_items x dim), bit-identical to
// BprModel::ItemRepresentation. Built once per trained model for
// inference, evaluation and retrieval export; it does not follow later
// training.
class PhiTable {
 public:
  PhiTable() = default;
  explicit PhiTable(const BprModel& model);

  int num_items() const { return num_items_; }
  int dim() const { return dim_; }
  const float* row(data::ItemIndex i) const {
    return values_.data() + static_cast<size_t>(i) * dim_;
  }
  const std::vector<float>& values() const { return values_; }

  // x_ui given a precomputed user vector; same arithmetic as
  // BprModel::Score.
  double Score(const float* user_vec, data::ItemIndex i) const;

 private:
  int num_items_ = 0;
  int dim_ = 0;
  std::vector<float> values_;
};

}  // namespace sigmund::core

#endif  // SIGMUND_CORE_MODEL_H_
