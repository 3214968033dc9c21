// Dapper-style request tracing: trees of nested spans with annotations and
// 1-in-N sampling.
//
// The paper describes Dapper (Sigelman '10): "trees of nested RPCs, spans
// (i.e. tree nodes) and annotations", with "sampling 1 out of 1000
// requests" for low overhead. SpanTracer reproduces that data model; the
// KOOZA trainer consumes span trees to learn the structure queue, and
// ablation A2 sweeps the sampling rate.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace kooza::obs {
class Histogram;
}

namespace kooza::trace {

class Sink;
enum class StreamId : std::uint8_t;

using TraceId = std::uint64_t;  ///< global request identifier
using SpanId = std::uint64_t;   ///< unique within the tracer

/// Thrown when a name table is asked to intern past its capacity.
class NameTableFull : public std::length_error {
public:
    using std::length_error::length_error;
};

/// Append-only string interner: each distinct name gets the next dense
/// id, starting from "" at id 0. Interning takes a mutex; looking a name
/// up by id is lock-free, and the returned reference stays valid for the
/// table's lifetime. The capacity is fixed at construction, so the id
/// slots never move under a concurrent reader.
class NameTable {
public:
    explicit NameTable(std::size_t capacity);
    NameTable(const NameTable&) = delete;
    NameTable& operator=(const NameTable&) = delete;

    /// Id of `name`, interning it on first sight. Throws NameTableFull
    /// when a new name would exceed the capacity.
    [[nodiscard]] std::uint32_t intern(std::string_view name);

    /// The name behind an id this table returned.
    [[nodiscard]] const std::string& str(std::uint32_t id) const noexcept {
        return *slots_[id].load(std::memory_order_acquire);
    }

    /// Names interned so far, "" included.
    [[nodiscard]] std::size_t size() const;

private:
    std::size_t capacity_;
    std::unique_ptr<std::atomic<const std::string*>[]> slots_;
    mutable std::mutex mu_;
    std::deque<std::string> names_;  ///< deque: push_back keeps references
    std::unordered_map<std::string_view, std::uint32_t> ids_;
};

/// A span's phase name as a 4-byte handle into one process-wide
/// NameTable (capacity kCapacity), so spans are fixed-size records and
/// every layer from the tracer to the trainer compares and indexes
/// phases by id. Converts implicitly from strings (interning them);
/// hot paths hold PhaseName constants instead (gfs::phase::k*). A
/// default PhaseName is "".
class PhaseName {
public:
    static constexpr std::size_t kCapacity = 65536;

    constexpr PhaseName() noexcept = default;
    PhaseName(std::string_view name);
    PhaseName(const char* name) : PhaseName(std::string_view(name)) {}
    PhaseName(const std::string& name) : PhaseName(std::string_view(name)) {}

    /// Dense id, < table().size().
    [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
    [[nodiscard]] const std::string& str() const noexcept { return table().str(id_); }

    /// The process-wide table behind every PhaseName.
    [[nodiscard]] static NameTable& table();

    friend bool operator==(PhaseName a, PhaseName b) noexcept { return a.id_ == b.id_; }

private:
    std::uint32_t id_ = 0;
};

std::ostream& operator<<(std::ostream& os, PhaseName name);

/// One node of a request's RPC/phase tree: a fixed-size record, so span
/// buffers copy, sort and spill as plain bytes.
struct Span {
    TraceId trace_id = 0;
    SpanId span_id = 0;
    SpanId parent_id = 0;  ///< 0 = root span
    PhaseName name;        ///< e.g. "net.rx", "cpu.verify", "disk.io"
    double start = 0.0;
    double end = 0.0;

    [[nodiscard]] double duration() const noexcept { return end - start; }
};

static_assert(std::is_trivially_copyable_v<Span> && sizeof(Span) <= 48);

/// Timestamped note on a span (Dapper annotations). The tracer keeps
/// these beside its spans; no trace format persists them.
struct Annotation {
    SpanId span_id = 0;
    double time = 0.0;
    std::string message;
};

/// Collects spans with deterministic 1-in-N head sampling (a trace is
/// either fully recorded or fully dropped, as in Dapper).
class SpanTracer {
public:
    /// @param sample_every record 1 out of `sample_every` traces (>= 1)
    explicit SpanTracer(std::uint64_t sample_every = 1);

    /// Head-sampling decision for a trace id (deterministic: id % N == 0).
    [[nodiscard]] bool sampled(TraceId trace) const noexcept;

    /// Open a span; returns its id (0 if the trace is not sampled, which
    /// the other calls treat as a no-op handle). Sampled spans are
    /// numbered 1, 2, 3, ... in start order.
    SpanId start_span(TraceId trace, SpanId parent, PhaseName name, double now);

    /// Attach an annotation to an open span. No-op for handle 0. Throws
    /// std::logic_error on an unknown/closed non-zero handle.
    void annotate(SpanId span, double now, std::string message);

    /// Close a span. No-op for handle 0. Throws std::logic_error on an
    /// unknown/closed non-zero handle.
    void end_span(SpanId span, double now);

    /// Route closed spans into `sink` (spans stream, held from start to
    /// close per the sink hold protocol) instead of retaining them in
    /// spans() — the streaming-capture mode, where span memory must stay
    /// bounded by the in-flight set. Pass nullptr to restore collection.
    void set_sink(Sink* sink) noexcept { sink_ = sink; }

    /// All closed spans, in completion order (empty while a sink is set).
    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return done_; }

    /// Move the closed spans out (the tracer keeps running but starts
    /// empty) — lets one-shot captures avoid a full copy.
    [[nodiscard]] std::vector<Span> take_spans() noexcept {
        return std::move(done_);
    }

    /// Every recorded annotation, in call order.
    [[nodiscard]] const std::vector<Annotation>& annotations() const noexcept {
        return notes_;
    }

    /// Bookkeeping for the overhead ablation: how many span operations
    /// were requested vs actually recorded.
    [[nodiscard]] std::uint64_t operations_requested() const noexcept { return ops_req_; }
    [[nodiscard]] std::uint64_t operations_recorded() const noexcept { return ops_rec_; }

    /// Distinct sampled trace ids with at least one closed span.
    [[nodiscard]] std::size_t sampled_trace_count() const;

    void clear();

private:
    /// The open span behind a non-zero handle; throws std::logic_error
    /// (naming `op`) when the handle is unknown or already closed.
    Span& open_span(SpanId span, const char* op);

    /// Per-phase duration histogram ("trace.phase.<name>.duration_ns"),
    /// fed at every end_span so p50/p95/p99 per phase are first-class in
    /// the metrics export even when spans are sampled out of the trace.
    [[nodiscard]] obs::Histogram& phase_histogram(PhaseName name);

    std::uint64_t every_;
    SpanId next_id_ = 1;
    Sink* sink_ = nullptr;
    std::vector<obs::Histogram*> phase_hist_;  ///< by phase id, lazily
    /// Spans base_ .. next_id_-1 in id order; a closed slot has span_id
    /// 0 and leaves from the front once every older span has closed.
    std::deque<Span> window_;
    SpanId base_ = 1;
    std::vector<Span> done_;
    std::vector<Annotation> notes_;
    std::uint64_t ops_req_ = 0;
    std::uint64_t ops_rec_ = 0;
};

/// A reassembled request tree.
class SpanTree {
public:
    /// Build the tree for one trace id from a span collection. Throws if
    /// the trace has no spans or no root.
    SpanTree(const std::vector<Span>& all, TraceId trace);

    [[nodiscard]] TraceId trace_id() const noexcept { return trace_; }
    [[nodiscard]] const Span& root() const;
    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }
    [[nodiscard]] std::vector<const Span*> children_of(SpanId parent) const;

    /// Names of all spans in start-time order — the phase sequence the
    /// KOOZA structure queue is trained on.
    [[nodiscard]] std::vector<std::string> phase_sequence() const;

    /// Durations matching phase_sequence().
    [[nodiscard]] std::vector<double> phase_durations() const;

    /// End-to-end duration (root span).
    [[nodiscard]] double total_duration() const;

    /// Indented one-line-per-span rendering (for Fig. 1 reproduction).
    [[nodiscard]] std::string render() const;

    /// All trace ids present in a span collection.
    [[nodiscard]] static std::vector<TraceId> trace_ids(const std::vector<Span>& all);

private:
    void render_node(const Span& s, int depth, std::string& out) const;

    TraceId trace_;
    std::vector<Span> spans_;  ///< sorted by start time
};

}  // namespace kooza::trace
