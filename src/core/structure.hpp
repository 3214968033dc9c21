// The structure queue — KOOZA's time-dependencies model.
//
// "a queue, configurable for each workload, that demonstrates the
// structure of the application, i.e. the order in which each model becomes
// active" (paper, Section 4). It is trained from Dapper-style span trees:
// each sampled request contributes its phase sequence; the queue stores
// the observed sequence variants with probabilities plus a duration
// distribution per phase name.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "stats/distributions.hpp"
#include "trace/span.hpp"

namespace kooza::core {

class StructureQueue {
public:
    /// One observed phase ordering and how often it occurred.
    struct Variant {
        std::vector<std::string> phases;
        double probability = 0.0;
        std::size_t count = 0;
    };

    /// Fit from span records, using only traces whose ids are in
    /// `trace_ids` (callers partition by request type). Root spans
    /// ("request") are excluded; phases are ordered by span start time.
    /// Throws if no usable trace is found.
    static StructureQueue fit(const std::vector<trace::Span>& spans,
                              std::span<const trace::TraceId> trace_ids,
                              double ks_threshold = 0.08);

    /// Build a single-variant queue from a known phase order (used as a
    /// fallback when span sampling recorded no trace of a request type).
    /// Phase durations are point masses at 0 — structure only.
    static StructureQueue canonical(std::vector<std::string> phases);

    /// Reassemble from previously-fitted parts (deserialization). Variant
    /// probabilities are renormalized from counts.
    static StructureQueue from_parts(
        std::vector<Variant> variants,
        std::map<std::string, std::unique_ptr<stats::Distribution>> durations,
        std::size_t trained_on);

    /// Variants sorted most-frequent first.
    [[nodiscard]] const std::vector<Variant>& variants() const noexcept {
        return variants_;
    }

    /// Most frequent phase ordering.
    [[nodiscard]] const std::vector<std::string>& dominant() const;

    /// Sample a phase ordering.
    [[nodiscard]] const std::vector<std::string>& sample(sim::Rng& rng) const;

    /// Duration distribution of a phase (over all variants). Throws on an
    /// unknown phase name.
    [[nodiscard]] const stats::Distribution& phase_duration(
        const std::string& phase) const;

    [[nodiscard]] bool has_phase(const std::string& phase) const noexcept;
    [[nodiscard]] std::vector<std::string> phase_names() const;

    /// Number of traces the queue was trained on.
    [[nodiscard]] std::size_t training_traces() const noexcept { return trained_on_; }

    /// Model size: variant entries + 2 params per phase-duration fit.
    [[nodiscard]] std::size_t parameter_count() const noexcept;

    [[nodiscard]] std::string describe() const;

private:
    StructureQueue() = default;

    std::vector<Variant> variants_;
    std::vector<double> weights_;  ///< aligned with variants_, for sampling
    std::map<std::string, std::unique_ptr<stats::Distribution>> durations_;
    std::size_t trained_on_ = 0;
};

/// StructureAccumulator::fit split at its parallel seam (like
/// markov::AnnotatedFitPlan): the variants are counted up front and each
/// phase's duration sample waits for a distribution fit that a caller may
/// run in any order and on any thread; finish() assembles the queue.
class StructureFitPlan {
public:
    /// Phase-duration samples awaiting a distribution fit.
    [[nodiscard]] std::size_t samples() const noexcept { return durations_.size(); }
    [[nodiscard]] std::span<const double> sample(std::size_t i) const {
        return durations_.at(i);
    }

    /// Assemble the queue; `fitted[i]` is the distribution of sample(i).
    [[nodiscard]] StructureQueue finish(
        std::vector<std::unique_ptr<stats::Distribution>> fitted) &&;

private:
    friend class StructureAccumulator;

    std::vector<StructureQueue::Variant> variants_;
    std::vector<std::string> phases_;             ///< aligned with durations_
    std::vector<std::vector<double>> durations_;
    std::size_t used_ = 0;
};

/// Chunk-feedable span collector behind StructureQueue::fit. Spans arrive
/// in any order, one record or one chunk at a time, and are buffered as
/// compact records in one flat vector. Each record's phase is a dense
/// local id, remapped from the span's PhaseName id and numbered in
/// first-seen order. seal() orders them once by (trace id, start, span
/// id) — the trace order SpanTree::trace_ids yields and the span order
/// SpanTree builds, ties kept in arrival order — so a queue fitted from
/// chunked reads is identical to one fitted from the full span vector.
/// Memory is O(buffered spans): captures bound it with span sampling
/// (GfsConfig::span_sample_every), not with record caps.
class StructureAccumulator {
public:
    void observe(const trace::Span& s);
    void observe(const std::vector<trace::Span>& spans);
    void merge(StructureAccumulator&& other);

    /// Order the buffer for plan(). A later observe() or merge() needs
    /// another seal().
    void seal();

    /// Count the variants of the buffered trees whose ids are in
    /// `trace_ids` and collect their per-phase durations. Const on a
    /// sealed buffer, so plans for disjoint id sets may run concurrently.
    /// Throws std::logic_error if the buffer is not sealed, and
    /// std::invalid_argument when no such tree has a phase or one has no
    /// root span.
    [[nodiscard]] StructureFitPlan plan(std::span<const trace::TraceId> trace_ids) const;

    /// seal(), plan(), every sample fitted with stats::fit_or_empirical,
    /// finish(). Same semantics and failure mode as StructureQueue::fit.
    [[nodiscard]] StructureQueue fit(std::span<const trace::TraceId> trace_ids,
                                     double ks_threshold = 0.08);

private:
    struct Record {
        trace::TraceId trace_id = 0;
        double start = 0.0;
        trace::SpanId span_id = 0;
        double duration = 0.0;
        std::uint32_t phase = 0;  ///< index into phase_names_
        bool root = false;
    };

    /// Local id of `name`, numbering it on first sight.
    std::uint32_t local_id(trace::PhaseName name);

    std::vector<Record> spans_;
    bool sorted_ = true;
    std::vector<trace::PhaseName> phase_names_;  ///< by local id
    std::vector<std::uint32_t> local_ids_;       ///< PhaseName id -> local id
};

}  // namespace kooza::core
