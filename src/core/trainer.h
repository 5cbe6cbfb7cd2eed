#ifndef SIGMUND_CORE_TRAINER_H_
#define SIGMUND_CORE_TRAINER_H_

#include <functional>
#include <vector>

#include "core/model.h"
#include "core/negative_sampler.h"
#include "core/training_data.h"

namespace sigmund::core {

// Progress of a training run.
struct TrainStats {
  int epochs_run = 0;
  int64_t sgd_steps = 0;
  int64_t skipped_steps = 0;   // no valid negative / empty context
  double last_epoch_loss = 0.0;  // mean BPR loss over the last epoch
};

// Multi-threaded (Hogwild [26]) SGD trainer for BprModel (§III-B1,
// §IV-B2). All threads update the shared parameter arrays without locks;
// conflicting writes are benign races, as in the original Hogwild scheme.
//
// Per SGD step, with probability params.tier_constraint_fraction the
// negative comes from the user's own lower-tier items (the tier
// constraints of §III-B1); otherwise from the configured NegativeSampler.
class BprTrainer {
 public:
  struct Options {
    int num_threads = 1;
    // Epochs to run; <= 0 means model->params().num_epochs. Used by the
    // pipeline to run only the epochs remaining after a checkpoint
    // restore.
    int num_epochs = 0;
    // Steps per epoch; <= 0 means one step per training position.
    int64_t steps_per_epoch = 0;
    // Invoked after every epoch (from the coordinating thread). Return
    // false to stop early. Used by the pipeline for time-based
    // checkpointing and by early-convergence experiments.
    std::function<bool(int epoch, const TrainStats& stats)> epoch_callback;
  };

  // Does not take ownership; all pointers must outlive the trainer.
  BprTrainer(BprModel* model, const TrainingData* data,
             const NegativeSampler* sampler);

  // Runs model->params().num_epochs epochs (or until the callback stops
  // it) and returns aggregate stats.
  TrainStats Train(const Options& options);

  // Runs one SGD step on the given example triple (context, positive,
  // negative); exposed for unit tests of the update rule. Returns the BPR
  // loss of the example *before* the update.
  double Step(const Context& context, data::ItemIndex positive,
              data::ItemIndex negative, Rng* rng);

 private:
  // One thread's working memory, sized once per Train call so that an SGD
  // step makes no heap allocation.
  struct Scratch {
    Scratch(int dim, int window);
    Context context;
    std::vector<float> u, phi_i, phi_j, diff;
    std::vector<double> grad;  // one row's gradient
    std::vector<float> weights;  // context weights beyond the table
  };

  // One SGD step sampled from the data; returns loss or -1 if skipped.
  double SampleAndStep(Rng* rng, Scratch* scratch);

  // Applies the pairwise update; scratch->u must hold the user embedding
  // of `context`.
  double ApplyUpdate(const Context& context, data::ItemIndex positive,
                     data::ItemIndex negative, Scratch* scratch);

  // Steps one row along scale_grad * dir minus its L2 term, with an
  // Adagrad-scaled learning rate; `grad` is dim() doubles of scratch.
  void UpdateRow(EmbeddingMatrix* table, int row, const float* dir,
                 double scale_grad, double lambda, double* grad);

  BprModel* model_;
  const TrainingData* data_;
  const NegativeSampler* sampler_;
};

}  // namespace sigmund::core

#endif  // SIGMUND_CORE_TRAINER_H_
