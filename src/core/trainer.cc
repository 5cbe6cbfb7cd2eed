#include "core/trainer.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace sigmund::core {

namespace {

double Softplus(double z) {
  // Numerically stable log(1 + exp(z)).
  if (z > 30.0) return z;
  if (z < -30.0) return 0.0;
  return std::log1p(std::exp(z));
}

}  // namespace

BprTrainer::BprTrainer(BprModel* model, const TrainingData* data,
                       const NegativeSampler* sampler)
    : model_(model), data_(data), sampler_(sampler) {
  SIGCHECK(model != nullptr);
  SIGCHECK(data != nullptr);
  SIGCHECK(sampler != nullptr);
}

BprTrainer::Scratch::Scratch(int dim, int window)
    : u(dim), phi_i(dim), phi_j(dim), diff(dim), grad(dim) {
  context.reserve(std::max(0, window));
}

void BprTrainer::UpdateRow(EmbeddingMatrix* table, int row, const float* dir,
                           double scale_grad, double lambda, double* grad) {
  const int d = model_->dim();
  const double eta = model_->params().learning_rate;
  float* w = table->row(row);

  double norm_sq = 0.0;
  for (int k = 0; k < d; ++k) {
    grad[k] = scale_grad * dir[k] - lambda * w[k];
    norm_sq += grad[k] * grad[k];
  }
  double lr = eta;
  if (model_->params().use_adagrad) {
    // Row-wise Adagrad: accumulate the squared norm of this row's gradient
    // ("the sum of the norms of its updates", §III-C1), damping frequently
    // updated rows. Benign race under Hogwild.
    float& acc = table->adagrad(row);
    acc += static_cast<float>(norm_sq);
    lr = eta / std::sqrt(1e-6 + acc);
  }
  for (int k = 0; k < d; ++k) w[k] += static_cast<float>(lr * grad[k]);
}

double BprTrainer::ApplyUpdate(const Context& context,
                               data::ItemIndex positive,
                               data::ItemIndex negative, Scratch* scratch) {
  const int d = model_->dim();
  const HyperParams& params = model_->params();
  const float* u = scratch->u.data();
  float* diff = scratch->diff.data();
  double* grad = scratch->grad.data();

  model_->ItemRepresentation(positive, scratch->phi_i.data());
  model_->ItemRepresentation(negative, scratch->phi_j.data());
  double x = 0.0;
  for (int k = 0; k < d; ++k) {
    diff[k] = scratch->phi_i[k] - scratch->phi_j[k];
    x += static_cast<double>(u[k]) * diff[k];
  }
  const double loss = Softplus(-x);
  const double s = 1.0 / (1.0 + std::exp(x));  // sigma(-x)

  // --- Item-side updates: every additive component of phi gets the same
  // gradient direction (hierarchical additive model). The positive's rows
  // go first; rows it shares with the negative are then updated again.
  for (const auto& [item, scale] : {std::pair{positive, s},
                                    std::pair{negative, -s}}) {
    for (const BprModel::FeatureRow& r : model_->FeatureRows(item)) {
      UpdateRow(&model_->feature_table(r.table), r.row, u, scale,
                params.lambda_v, grad);
    }
  }

  // --- Context-side updates: vC of each context item, weighted by its
  // decay weight (gradient of u = sum_m w_m vC_m w.r.t. vC_m is w_m).
  const int n =
      std::min<int>(params.context_window, static_cast<int>(context.size()));
  const int start = static_cast<int>(context.size()) - n;
  const float* weights =
      model_->context_weights().Weights(n, &scratch->weights);
  for (int m = 0; m < n; ++m) {
    UpdateRow(&model_->context_embeddings(), context[start + m].item, diff,
              s * weights[m], params.lambda_vc, grad);
  }
  return loss;
}

double BprTrainer::Step(const Context& context, data::ItemIndex positive,
                        data::ItemIndex negative, Rng* /*rng*/) {
  SIGCHECK(!context.empty());
  Scratch scratch(model_->dim(), 0);
  model_->UserEmbedding(context, scratch.u.data());
  return ApplyUpdate(context, positive, negative, &scratch);
}

double BprTrainer::SampleAndStep(Rng* rng, Scratch* scratch) {
  const HyperParams& params = model_->params();
  TrainingData::Position pos = data_->SamplePosition(rng);
  const data::Interaction& event = data_->EventAt(pos);
  data_->ContextAt(pos, params.context_window, &scratch->context);
  if (scratch->context.empty()) return -1.0;
  // One user vector per step, shared by the negative sampler and the
  // update.
  model_->UserEmbedding(scratch->context, scratch->u.data());

  data::ItemIndex negative = data::kInvalidItem;
  // Tier constraint: with some probability, and when the positive action
  // is above the weakest tier, contrast against one of the user's own
  // lower-tier items (search > view, cart > search, conversion > cart).
  if (data::ActionStrength(event.action) > 0 &&
      rng->Bernoulli(params.tier_constraint_fraction)) {
    negative = data_->SampleLowerTierItem(pos.user, event.action, rng);
    if (negative == event.item) negative = data::kInvalidItem;
  }
  if (negative == data::kInvalidItem) {
    negative = sampler_->Sample(*data_, pos.user, scratch->u.data(),
                                event.item, rng);
  }
  if (negative == data::kInvalidItem || negative == event.item) return -1.0;
  return ApplyUpdate(scratch->context, event.item, negative, scratch);
}

TrainStats BprTrainer::Train(const Options& options) {
  TrainStats stats;
  const HyperParams& params = model_->params();
  const int64_t default_steps = data_->num_positions();
  const int64_t steps_per_epoch =
      options.steps_per_epoch > 0 ? options.steps_per_epoch : default_steps;
  if (steps_per_epoch == 0) return stats;

  const int threads = std::max(1, options.num_threads);
  const int64_t chunks = static_cast<int64_t>(threads) * 4;
  const int num_epochs =
      options.num_epochs > 0 ? options.num_epochs : params.num_epochs;
  std::vector<Scratch> scratch(
      threads, Scratch(model_->dim(), params.context_window));
  // A single-threaded run stays on the calling thread.
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);

  for (int epoch = 0; epoch < num_epochs; ++epoch) {
    std::atomic<double> loss_sum{0.0};
    std::atomic<int64_t> done{0}, skipped{0}, next_chunk{0};
    // Worker `w` owns scratch[w] and claims chunks in index order.
    auto worker = [&](int64_t w) {
      for (int64_t c = next_chunk.fetch_add(1); c < chunks;
           c = next_chunk.fetch_add(1)) {
        // Per-chunk RNG: deterministic in (seed, epoch, chunk) for
        // single-threaded runs; Hogwild interleaving is inherently
        // nondeterministic across threads.
        Rng rng(SplitMix64(params.seed + 1) ^
                SplitMix64(static_cast<uint64_t>(epoch) * 1000003ULL + c));
        const int64_t steps =
            steps_per_epoch / chunks + (c < steps_per_epoch % chunks ? 1 : 0);
        double local_loss = 0.0;
        int64_t local_done = 0, local_skipped = 0;
        for (int64_t i = 0; i < steps; ++i) {
          const double loss = SampleAndStep(&rng, &scratch[w]);
          if (loss < 0.0) {
            ++local_skipped;
          } else {
            local_loss += loss;
            ++local_done;
          }
        }
        loss_sum.fetch_add(local_loss);
        done.fetch_add(local_done);
        skipped.fetch_add(local_skipped);
      }
    };
    if (pool != nullptr) {
      pool->ParallelFor(threads, worker);
    } else {
      worker(0);
    }

    stats.epochs_run = epoch + 1;
    stats.sgd_steps += done.load();
    stats.skipped_steps += skipped.load();
    stats.last_epoch_loss =
        done.load() > 0 ? loss_sum.load() / done.load() : 0.0;
    if (options.epoch_callback && !options.epoch_callback(epoch, stats)) {
      break;
    }
  }
  return stats;
}

}  // namespace sigmund::core
