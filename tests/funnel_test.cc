#include <gtest/gtest.h>

#include <unordered_map>

#include "common/random.h"
#include "core/funnel.h"
#include "core/inference.h"
#include "data/world_generator.h"
#include "serving/store.h"

namespace sigmund::core {
namespace {

using data::ActionType;

Context Views(std::initializer_list<data::ItemIndex> items) {
  Context context;
  for (data::ItemIndex item : items) {
    context.push_back({item, ActionType::kView});
  }
  return context;
}

TEST(FunnelTest, EmptyAndShortContextsAreEarly) {
  EXPECT_EQ(ClassifyFunnelStage({}, nullptr, {}), FunnelStage::kEarly);
  EXPECT_EQ(ClassifyFunnelStage(Views({1}), nullptr, {}),
            FunnelStage::kEarly);
  EXPECT_EQ(ClassifyFunnelStage(Views({1, 2, 3, 4}), nullptr, {}),
            FunnelStage::kEarly);
}

TEST(FunnelTest, RepeatViewsOfSameItemAreLate) {
  EXPECT_EQ(ClassifyFunnelStage(Views({7, 3, 7}), nullptr, {}),
            FunnelStage::kLate);
}

TEST(FunnelTest, CartOrConversionIsLate) {
  Context cart = {{1, ActionType::kView}, {2, ActionType::kCart}};
  EXPECT_EQ(ClassifyFunnelStage(cart, nullptr, {}), FunnelStage::kLate);
  Context bought = {{2, ActionType::kConversion}};
  EXPECT_EQ(ClassifyFunnelStage(bought, nullptr, {}), FunnelStage::kLate);
}

TEST(FunnelTest, WindowForgetsOldSignals) {
  // The repeat views are outside the window of 3.
  Context context = Views({9, 9, 1, 2, 3});
  FunnelOptions options;
  options.window = 3;
  EXPECT_EQ(ClassifyFunnelStage(context, nullptr, options),
            FunnelStage::kEarly);
  options.window = 5;
  EXPECT_EQ(ClassifyFunnelStage(context, nullptr, options),
            FunnelStage::kLate);
}

TEST(FunnelTest, CategoryFocusRequiresCatalog) {
  data::Taxonomy taxonomy;
  data::CategoryId couches = taxonomy.AddCategory("couches", taxonomy.root());
  data::Catalog catalog(std::move(taxonomy));
  for (int i = 0; i < 6; ++i) {
    catalog.AddItem(data::Item{couches, data::kUnknownBrand, 0, 0});
  }
  catalog.Finalize();
  // Six distinct items, all couches: focused shopper.
  Context context = Views({0, 1, 2, 3, 4, 5});
  EXPECT_EQ(ClassifyFunnelStage(context, nullptr, {}), FunnelStage::kEarly);
  EXPECT_EQ(ClassifyFunnelStage(context, &catalog, {}), FunnelStage::kLate);
}

// The hash-map classifier the window scan replaced, kept verbatim as the
// oracle for the scan.
FunnelStage HashMapClassifyFunnelStage(const Context& context,
                                       const data::Catalog* catalog,
                                       const FunnelOptions& options) {
  const int n = static_cast<int>(context.size());
  const int start = std::max(0, n - options.window);

  std::unordered_map<data::ItemIndex, int> item_views;
  std::unordered_map<data::CategoryId, int> category_events;
  for (int j = start; j < n; ++j) {
    const ContextEntry& entry = context[j];
    // A cart (or conversion) means the purchase decision is essentially
    // made: late funnel by definition.
    if (entry.action == data::ActionType::kCart ||
        entry.action == data::ActionType::kConversion) {
      return FunnelStage::kLate;
    }
    if (++item_views[entry.item] >= options.min_repeat_views) {
      return FunnelStage::kLate;
    }
    if (catalog != nullptr) {
      data::CategoryId category = catalog->item(entry.item).category;
      if (++category_events[category] >= options.min_category_focus) {
        return FunnelStage::kLate;
      }
    }
  }
  return FunnelStage::kEarly;
}

TEST(FunnelTest, WindowScanMatchesHashMapClassifier) {
  // 16 items over 4 leaf categories, so repeats of both kinds occur.
  data::Taxonomy taxonomy;
  std::vector<data::CategoryId> leaves;
  for (int c = 0; c < 4; ++c) {
    leaves.push_back(
        taxonomy.AddCategory("c" + std::to_string(c), taxonomy.root()));
  }
  data::Catalog catalog(std::move(taxonomy));
  for (int i = 0; i < 16; ++i) {
    catalog.AddItem(data::Item{leaves[(i * 7) % 4], data::kUnknownBrand, 0, 0});
  }
  catalog.Finalize();

  auto check = [&](const Context& context, const FunnelOptions& options) {
    const data::Catalog* catalogs[] = {nullptr, &catalog};
    for (const data::Catalog* with : catalogs) {
      ASSERT_EQ(ClassifyFunnelStage(context, with, options),
                HashMapClassifyFunnelStage(context, with, options))
          << "length " << context.size() << " window " << options.window
          << " catalog " << (with != nullptr);
    }
  };

  // A cart and a conversion at every position of every length, among
  // distinct views, for windows shorter and longer than the context.
  for (int length = 1; length <= 20; ++length) {
    for (int at = 0; at < length; ++at) {
      for (data::ActionType action :
           {data::ActionType::kCart, data::ActionType::kConversion}) {
        Context context;
        for (int j = 0; j < length; ++j) {
          context.push_back({j % 16, j == at ? action : ActionType::kView});
        }
        for (int window : {1, 3, 8, 25}) {
          FunnelOptions options;
          options.window = window;
          check(context, options);
        }
      }
    }
  }

  // Seeded contexts: lengths 0-20 over a small item pool (repeats), mostly
  // views and searches with occasional carts and conversions, and random
  // windows and thresholds.
  Rng rng(0xf0ee1);
  int late = 0;
  constexpr int kContexts = 12000;
  for (int trial = 0; trial < kContexts; ++trial) {
    Context context;
    const int length = static_cast<int>(rng.UniformInt(0, 20));
    const int pool = static_cast<int>(rng.UniformInt(1, 16));
    for (int j = 0; j < length; ++j) {
      const int roll = static_cast<int>(rng.Uniform(40));
      const ActionType action = roll == 0   ? ActionType::kCart
                                : roll == 1 ? ActionType::kConversion
                                : roll < 8  ? ActionType::kSearch
                                            : ActionType::kView;
      context.push_back(
          {static_cast<data::ItemIndex>(rng.Uniform(pool)), action});
    }
    FunnelOptions options;
    options.window = static_cast<int>(rng.UniformInt(0, 24));
    options.min_repeat_views = static_cast<int>(rng.UniformInt(1, 4));
    options.min_category_focus = static_cast<int>(rng.UniformInt(1, 6));
    check(context, options);
    late += ClassifyFunnelStage(context, &catalog, options) ==
            FunnelStage::kLate;
  }
  // Both verdicts are well represented.
  EXPECT_GT(late, kContexts / 10);
  EXPECT_LT(late, kContexts * 9 / 10);
}

TEST(FunnelTest, StageNames) {
  EXPECT_STREQ(FunnelStageName(FunnelStage::kEarly), "early");
  EXPECT_STREQ(FunnelStageName(FunnelStage::kLate), "late");
}

// --- late-funnel materialization + serving ---------------------------------

TEST(LateFunnelServingTest, SerializationCarriesLateList) {
  ItemRecommendations recs;
  recs.query = 5;
  recs.view_based = {{1, 0.9}};
  recs.purchase_based = {{2, 0.8}};
  recs.view_based_late = {{3, 0.7}};
  StatusOr<ItemRecommendations> parsed =
      ItemRecommendations::Deserialize(recs.Serialize());
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed->view_based_late.size(), 1u);
  EXPECT_EQ(parsed->view_based_late[0].item, 3);
  // Legacy 3-part records still parse (empty late list).
  StatusOr<ItemRecommendations> legacy =
      ItemRecommendations::Deserialize("5|1:0.9|2:0.8");
  ASSERT_TRUE(legacy.ok());
  EXPECT_TRUE(legacy->view_based_late.empty());
}

TEST(LateFunnelServingTest, MaterializedLateListsRespectFacets) {
  data::WorldConfig config;
  config.seed = 3;
  data::WorldGenerator generator(config);
  data::RetailerWorld world = generator.GenerateRetailer(0, 150);
  CooccurrenceModel cooccurrence = CooccurrenceModel::Build(
      world.data.histories, world.data.num_items(), {});
  RepurchaseEstimator repurchase = RepurchaseEstimator::Build(
      world.data.histories, world.data.catalog, {});
  CandidateSelector selector(&world.data.catalog, &cooccurrence,
                             &repurchase);
  HyperParams params;
  params.num_factors = 8;
  BprModel model(&world.data.catalog, params);
  Rng rng(7);
  model.InitRandom(&rng);
  InferenceEngine engine(&model, &selector);

  InferenceEngine::Options options;
  options.top_k = 5;
  options.materialize_late_funnel = true;
  for (data::ItemIndex i = 0; i < 20; ++i) {
    ItemRecommendations recs = engine.RecommendForItem(i, options);
    int32_t facet = world.data.catalog.item(i).facet;
    for (const ScoredItem& item : recs.view_based_late) {
      EXPECT_EQ(world.data.catalog.item(item.item).facet, facet);
    }
  }
}

TEST(LateFunnelServingTest, StorePicksVariantByFunnelStage) {
  serving::RecommendationStore store;
  ItemRecommendations recs;
  recs.query = 0;
  recs.view_based = {{1, 0.9}, {2, 0.8}};
  recs.view_based_late = {{3, 0.7}};
  recs.purchase_based = {{4, 0.6}};
  store.LoadRetailer(1, {recs});

  // Early funnel (single view) -> broad substitutes.
  auto early = store.ServeContext(1, Views({0}));
  ASSERT_TRUE(early.ok());
  EXPECT_EQ((*early)[0].item, 1);
  // Late funnel (repeat views) -> facet-constrained list.
  auto late = store.ServeContext(1, Views({0, 5, 0}));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ((*late)[0].item, 3);
  // Post-purchase still wins over funnel logic.
  Context bought = {{0, ActionType::kConversion}};
  auto post = store.ServeContext(1, bought);
  ASSERT_TRUE(post.ok());
  EXPECT_EQ((*post)[0].item, 4);
}

TEST(LateFunnelServingTest, FallsBackWhenNoLateVariant) {
  serving::RecommendationStore store;
  ItemRecommendations recs;
  recs.query = 0;
  recs.view_based = {{1, 0.9}};
  store.LoadRetailer(1, {recs});
  auto late = store.ServeContext(1, Views({0, 0}));
  ASSERT_TRUE(late.ok());
  EXPECT_EQ((*late)[0].item, 1);  // regular view-based fallback
}

}  // namespace
}  // namespace sigmund::core
