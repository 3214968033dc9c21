// Tests for the structure queue (KOOZA's time-dependencies model).
#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "core/structure.hpp"
#include "sim/rng.hpp"
#include "trace/span.hpp"

namespace {

using kooza::core::StructureQueue;
using kooza::sim::Rng;
using kooza::trace::Span;
using kooza::trace::SpanTracer;
using kooza::trace::TraceId;

// Build spans for `n` traces: 80% A->B->C, 20% A->C.
std::vector<Span> make_spans(std::size_t n) {
    SpanTracer t(1);
    for (TraceId id = 0; id < n; ++id) {
        const double base = double(id);
        const auto root = t.start_span(id, 0, "request", base);
        const auto a = t.start_span(id, root, "A", base + 0.0);
        t.end_span(a, base + 0.1);
        if (id % 5 != 0) {
            const auto b = t.start_span(id, root, "B", base + 0.1);
            t.end_span(b, base + 0.3);
        }
        const auto c = t.start_span(id, root, "C", base + 0.3);
        t.end_span(c, base + 0.4);
        t.end_span(root, base + 0.4);
    }
    return t.spans();
}

std::vector<TraceId> all_ids(std::size_t n) {
    std::vector<TraceId> ids(n);
    for (std::size_t i = 0; i < n; ++i) ids[i] = i;
    return ids;
}

TEST(StructureQueue, LearnsVariantsWithProbabilities) {
    const auto spans = make_spans(100);
    const auto q = StructureQueue::fit(spans, all_ids(100));
    ASSERT_EQ(q.variants().size(), 2u);
    EXPECT_EQ(q.dominant(), (std::vector<std::string>{"A", "B", "C"}));
    EXPECT_NEAR(q.variants()[0].probability, 0.8, 1e-9);
    EXPECT_NEAR(q.variants()[1].probability, 0.2, 1e-9);
    EXPECT_EQ(q.training_traces(), 100u);
}

TEST(StructureQueue, ExcludesRootSpan) {
    const auto q = StructureQueue::fit(make_spans(10), all_ids(10));
    for (const auto& v : q.variants())
        for (const auto& p : v.phases) EXPECT_NE(p, "request");
}

TEST(StructureQueue, SampleMatchesProbabilities) {
    const auto q = StructureQueue::fit(make_spans(100), all_ids(100));
    Rng rng(1);
    std::size_t with_b = 0;
    const std::size_t n = 5000;
    for (std::size_t i = 0; i < n; ++i)
        if (q.sample(rng).size() == 3) ++with_b;
    EXPECT_NEAR(double(with_b) / double(n), 0.8, 0.03);
}

TEST(StructureQueue, PhaseDurationsLearned) {
    const auto q = StructureQueue::fit(make_spans(100), all_ids(100));
    EXPECT_NEAR(q.phase_duration("A").mean(), 0.1, 0.01);
    EXPECT_NEAR(q.phase_duration("B").mean(), 0.2, 0.01);
    EXPECT_TRUE(q.has_phase("C"));
    EXPECT_FALSE(q.has_phase("Z"));
    EXPECT_THROW((void)q.phase_duration("Z"), std::out_of_range);
    EXPECT_EQ(q.phase_names().size(), 3u);
}

TEST(StructureQueue, FilterByTraceIds) {
    const auto spans = make_spans(100);
    // Only the A->C traces (ids divisible by 5).
    std::vector<TraceId> ids;
    for (TraceId id = 0; id < 100; id += 5) ids.push_back(id);
    const auto q = StructureQueue::fit(spans, ids);
    ASSERT_EQ(q.variants().size(), 1u);
    EXPECT_EQ(q.dominant(), (std::vector<std::string>{"A", "C"}));
}

TEST(StructureQueue, NoUsableTracesThrows) {
    const auto spans = make_spans(10);
    const std::vector<TraceId> none{999};
    EXPECT_THROW(StructureQueue::fit(spans, none), std::invalid_argument);
}

TEST(StructureQueue, CanonicalFallback) {
    const auto q = StructureQueue::canonical({"x", "y"});
    EXPECT_EQ(q.dominant(), (std::vector<std::string>{"x", "y"}));
    EXPECT_EQ(q.training_traces(), 0u);
    EXPECT_DOUBLE_EQ(q.phase_duration("x").mean(), 0.0);
    EXPECT_THROW(StructureQueue::canonical({}), std::invalid_argument);
}

/// Mixed-variant spans with tied start times (a child opened at its
/// parent's instant) and a phase repeated within a trace.
std::vector<Span> make_mixed_spans(std::size_t n) {
    SpanTracer t(1);
    Rng rng(3);
    for (TraceId id = 0; id < n; ++id) {
        const double base = double(id) * 0.5;
        const auto root = t.start_span(id, 0, "request", base);
        double now = base;
        const std::size_t phases = 2 + std::size_t(rng.uniform_int(0, 3));
        for (std::size_t p = 0; p < phases; ++p) {
            const char* name = p % 2 == 0 ? "disk.io" : (id % 3 == 0 ? "net.rx" : "cpu");
            const auto s = t.start_span(id, root, name, now);
            now += rng.uniform(0.001, 0.01);
            t.end_span(s, now);
        }
        t.end_span(root, now);
    }
    return t.spans();
}

void expect_same_queue(const StructureQueue& a, const StructureQueue& b) {
    ASSERT_EQ(a.variants().size(), b.variants().size());
    for (std::size_t i = 0; i < a.variants().size(); ++i) {
        EXPECT_EQ(a.variants()[i].phases, b.variants()[i].phases);
        EXPECT_EQ(a.variants()[i].count, b.variants()[i].count);
        EXPECT_EQ(a.variants()[i].probability, b.variants()[i].probability);
    }
    EXPECT_EQ(a.training_traces(), b.training_traces());
    ASSERT_EQ(a.phase_names(), b.phase_names());
    for (const auto& p : a.phase_names()) {
        EXPECT_EQ(a.phase_duration(p).describe(), b.phase_duration(p).describe());
        EXPECT_EQ(a.phase_duration(p).mean(), b.phase_duration(p).mean()) << p;
        EXPECT_EQ(a.phase_duration(p).variance(), b.phase_duration(p).variance()) << p;
    }
}

TEST(StructureAccumulator, ShuffledAndMergedMatchesOneShot) {
    const auto spans = make_mixed_spans(400);
    std::vector<TraceId> ids;
    for (TraceId id = 0; id < 400; id += 2) ids.push_back(id);  // every other trace
    const auto one_shot = StructureQueue::fit(spans, ids);

    auto shuffled = spans;
    std::mt19937_64 gen(17);
    std::shuffle(shuffled.begin(), shuffled.end(), gen);
    // Split across three accumulators fed in chunks, merged out of order.
    kooza::core::StructureAccumulator parts[3];
    for (std::size_t i = 0; i < shuffled.size(); ++i) parts[i % 3].observe(shuffled[i]);
    parts[2].merge(std::move(parts[0]));
    parts[2].merge(std::move(parts[1]));
    auto ids_shuffled = ids;
    std::shuffle(ids_shuffled.begin(), ids_shuffled.end(), gen);
    expect_same_queue(one_shot, parts[2].fit(ids_shuffled));
}

TEST(StructureAccumulator, PlanRequiresSeal) {
    kooza::core::StructureAccumulator acc;
    acc.observe(make_spans(10));
    EXPECT_THROW((void)acc.plan(all_ids(10)), std::logic_error);
    acc.seal();
    const auto plan = acc.plan(all_ids(10));
    EXPECT_EQ(plan.samples(), 3u);  // A, B and C durations
    acc.observe(make_spans(1));     // new spans unseal the buffer
    EXPECT_THROW((void)acc.plan(all_ids(10)), std::logic_error);
}

TEST(StructureAccumulator, RootlessTraceThrows) {
    auto spans = make_spans(5);
    std::erase_if(spans, [](const Span& s) { return s.trace_id == 2 && s.parent_id == 0; });
    EXPECT_THROW(StructureQueue::fit(spans, all_ids(5)), std::invalid_argument);
    // A rootless trace outside the wanted ids is ignored.
    const std::vector<TraceId> others{0, 1, 3, 4};
    EXPECT_EQ(StructureQueue::fit(spans, others).training_traces(), 4u);
}

TEST(StructureQueue, ParameterCountAndDescribe) {
    const auto q = StructureQueue::fit(make_spans(50), all_ids(50));
    EXPECT_GT(q.parameter_count(), 0u);
    EXPECT_NE(q.describe().find("variants"), std::string::npos);
}

}  // namespace
