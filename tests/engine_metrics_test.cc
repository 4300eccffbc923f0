// RegisterEngineMetrics: the bridge from a QueryEngine into a
// MetricRegistry. Rendering must work with no engine behind the resolver,
// with an unsharded engine (no per-shard series) and with a sharded one
// (one labeled series per shard in every per-shard family). A render that
// throws would take a daemon down on its first /metrics scrape.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "koios/serve/engine_metrics.h"
#include "koios/serve/query_engine.h"
#include "koios/util/metric_registry.h"
#include "test_util.h"

namespace koios::serve {
namespace {

const char* const kShardFamilies[] = {
    "koios_shard_latency_ewma_seconds", "koios_shard_latency_p99_seconds",
    "koios_shard_queries_total", "koios_shard_stream_tuples_produced_total"};

size_t CountOf(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = text.find(needle); pos != std::string::npos;
       pos = text.find(needle, pos + 1)) {
    ++count;
  }
  return count;
}

// Runs `n` queries to completion so the counters have something to show.
void RunQueries(QueryEngine* engine, const testing::RandomWorkload& w,
                size_t n) {
  core::SearchParams params;
  params.k = 5;
  for (size_t i = 0; i < n; ++i) {
    const auto tokens = w.corpus.sets.Tokens(static_cast<SetId>(i * 7));
    ASSERT_TRUE(engine->Submit({tokens.begin(), tokens.end()}, params)
                    .get()
                    .ok());
  }
}

TEST(EngineMetricsTest, NullResolverRendersZeros) {
  util::MetricRegistry registry;
  RegisterEngineMetrics(&registry,
                        []() -> std::shared_ptr<const QueryEngine> {
                          return nullptr;
                        });
  std::string text;
  for (int render = 0; render < 2; ++render) {
    ASSERT_NO_THROW(text = registry.RenderText());
  }
  EXPECT_NE(text.find("koios_queries_submitted_total 0"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("koios_shard_"), std::string::npos) << text;
}

TEST(EngineMetricsTest, UnshardedEngineHasNoShardSeries) {
  const testing::RandomWorkload w =
      testing::MakeRandomWorkload(120, 500, 5, 20, 31001);
  EngineOptions options;
  options.num_threads = 1;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  RunQueries(&engine, w, 3);

  util::MetricRegistry registry;
  RegisterEngineMetrics(&registry, &engine);
  std::string text;
  ASSERT_NO_THROW(text = registry.RenderText());
  EXPECT_NE(text.find("koios_queries_completed_total 3"), std::string::npos)
      << text;
  EXPECT_EQ(text.find("koios_shard_"), std::string::npos) << text;
}

TEST(EngineMetricsTest, TwoShardEngineHasTwoSeriesPerShardFamily) {
  const testing::RandomWorkload w =
      testing::MakeRandomWorkload(120, 500, 5, 20, 31002);
  EngineOptions options;
  options.num_threads = 1;
  options.num_shards = 2;
  QueryEngine engine(&w.corpus.sets, w.index.get(), options);
  ASSERT_EQ(engine.num_shards(), 2u);
  RunQueries(&engine, w, 3);

  util::MetricRegistry registry;
  RegisterEngineMetrics(&registry, &engine);
  std::string text;
  for (int render = 0; render < 2; ++render) {
    ASSERT_NO_THROW(text = registry.RenderText());
  }
  EXPECT_NE(text.find("koios_queries_completed_total 3"), std::string::npos)
      << text;
  for (const char* family : kShardFamilies) {
    const std::string name(family);
    EXPECT_EQ(CountOf(text, name + "{shard=\"0\"} "), 1u) << name << "\n"
                                                          << text;
    EXPECT_EQ(CountOf(text, name + "{shard=\"1\"} "), 1u) << name;
    EXPECT_EQ(CountOf(text, name + "{"), 2u) << name;
  }
  EXPECT_NE(text.find("koios_shard_queries_total{shard=\"0\"} 3"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("koios_shard_queries_total{shard=\"1\"} 3"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace koios::serve
