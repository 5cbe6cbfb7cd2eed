#include "core/training_data.h"

#include <algorithm>
#include <unordered_map>

#include "common/logging.h"

namespace sigmund::core {

TrainingData::TrainingData(
    const std::vector<std::vector<data::Interaction>>* histories,
    int num_items)
    : histories_(histories), num_items_(num_items) {
  SIGCHECK(histories != nullptr);
  const int users = static_cast<int>(histories->size());
  seen_offsets_.reserve(users + 1);
  seen_offsets_.push_back(0);
  tier_buckets_.resize(users);
  item_counts_.assign(num_items, 0);

  for (data::UserIndex u = 0; u < users; ++u) {
    const auto& history = (*histories)[u];
    // Max observed strength per item for this user.
    std::unordered_map<data::ItemIndex, int> max_strength;
    for (int idx = 0; idx < static_cast<int>(history.size()); ++idx) {
      const data::Interaction& event = history[idx];
      SIGCHECK_GE(event.item, 0);
      SIGCHECK_LT(event.item, num_items);
      if (idx >= 1) positions_.push_back(Position{u, idx});
      seen_items_.push_back(event.item);
      ++item_counts_[event.item];
      int strength = data::ActionStrength(event.action);
      auto [it, inserted] = max_strength.emplace(event.item, strength);
      if (!inserted) it->second = std::max(it->second, strength);
    }
    const auto user_seen = seen_items_.begin() + seen_offsets_.back();
    std::sort(user_seen, seen_items_.end());
    seen_items_.erase(std::unique(user_seen, seen_items_.end()),
                      seen_items_.end());
    seen_offsets_.push_back(static_cast<int64_t>(seen_items_.size()));
    tier_buckets_[u].assign(data::kNumActionTypes, {});
    for (const auto& [item, strength] : max_strength) {
      tier_buckets_[u][strength].push_back(item);
    }
    // Deterministic bucket order regardless of hash-map iteration.
    for (auto& bucket : tier_buckets_[u]) {
      std::sort(bucket.begin(), bucket.end());
    }
  }
}

TrainingData::Position TrainingData::SamplePosition(Rng* rng) const {
  SIGCHECK(!positions_.empty());
  return positions_[rng->Uniform(positions_.size())];
}

Context TrainingData::ContextAt(Position p, int window) const {
  Context context;
  ContextAt(p, window, &context);
  return context;
}

void TrainingData::ContextAt(Position p, int window, Context* out) const {
  const auto& history = (*histories_)[p.user];
  const int start = std::max(0, p.index - window);
  out->clear();
  out->reserve(p.index - start);
  for (int idx = start; idx < p.index; ++idx) {
    out->push_back(ContextEntry{history[idx].item, history[idx].action});
  }
}

Context TrainingData::FullContext(data::UserIndex user, int window) const {
  const auto& history = (*histories_)[user];
  return ContextAt(Position{user, static_cast<int>(history.size())}, window);
}

bool TrainingData::Seen(data::UserIndex user, data::ItemIndex item) const {
  return std::binary_search(seen_items_.begin() + seen_offsets_[user],
                            seen_items_.begin() + seen_offsets_[user + 1],
                            item);
}

const std::vector<data::ItemIndex>& TrainingData::TierBucket(
    data::UserIndex user, int strength) const {
  SIGCHECK_GE(strength, 0);
  SIGCHECK_LT(strength, data::kNumActionTypes);
  return tier_buckets_[user][strength];
}

data::ItemIndex TrainingData::SampleLowerTierItem(data::UserIndex user,
                                                  data::ActionType action,
                                                  Rng* rng) const {
  // Prefer exactly one tier below ("for every searched item, we sample a
  // negative item that is viewed but not searched"), fall back further.
  for (int strength = data::ActionStrength(action) - 1; strength >= 0;
       --strength) {
    const auto& bucket = tier_buckets_[user][strength];
    if (!bucket.empty()) return bucket[rng->Uniform(bucket.size())];
  }
  return data::kInvalidItem;
}

}  // namespace sigmund::core
