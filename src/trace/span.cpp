#include "trace/span.hpp"

#include <algorithm>
#include <ostream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "trace/sink.hpp"

namespace kooza::trace {

NameTable::NameTable(std::size_t capacity)
    : capacity_(capacity),
      slots_(std::make_unique<std::atomic<const std::string*>[]>(capacity)) {
    if (capacity == 0)
        throw std::invalid_argument("NameTable: capacity must be >= 1");
    (void)intern("");
}

std::uint32_t NameTable::intern(std::string_view name) {
    const std::lock_guard lock(mu_);
    if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
    const auto id = std::uint32_t(names_.size());
    if (id >= capacity_)
        throw NameTableFull("NameTable: more than " + std::to_string(capacity_) +
                            " distinct names (interning '" + std::string(name) +
                            "')");
    const std::string& stored = names_.emplace_back(name);
    ids_.emplace(stored, id);
    slots_[id].store(&stored, std::memory_order_release);
    return id;
}

std::size_t NameTable::size() const {
    const std::lock_guard lock(mu_);
    return names_.size();
}

NameTable& PhaseName::table() {
    // Never destroyed, so str() references outlive static destructors.
    static NameTable* const t = new NameTable(kCapacity);
    return *t;
}

PhaseName::PhaseName(std::string_view name) : id_(table().intern(name)) {}

std::ostream& operator<<(std::ostream& os, PhaseName name) { return os << name.str(); }

SpanTracer::SpanTracer(std::uint64_t sample_every) : every_(sample_every) {
    if (sample_every == 0)
        throw std::invalid_argument("SpanTracer: sample_every must be >= 1");
}

bool SpanTracer::sampled(TraceId trace) const noexcept { return trace % every_ == 0; }

SpanId SpanTracer::start_span(TraceId trace, SpanId parent, PhaseName name, double now) {
    ++ops_req_;
    if (!sampled(trace)) return 0;
    ++ops_rec_;
    const SpanId id = next_id_++;
    window_.push_back(Span{trace, id, parent, name, now, now});
    // Streaming mode: the span is keyed at its start but only appended
    // when it closes, so hold the spans stream until then.
    if (sink_) sink_->open_hold(StreamId::kSpans, now);
    return id;
}

Span& SpanTracer::open_span(SpanId span, const char* op) {
    if (span < base_ || span >= next_id_ || window_[span - base_].span_id == 0)
        throw std::logic_error(std::string("SpanTracer::") + op + ": unknown span");
    return window_[span - base_];
}

void SpanTracer::annotate(SpanId span, double now, std::string message) {
    ++ops_req_;
    if (span == 0) return;
    (void)open_span(span, "annotate");
    ++ops_rec_;
    notes_.push_back(Annotation{span, now, std::move(message)});
}

void SpanTracer::end_span(SpanId span, double now) {
    ++ops_req_;
    if (span == 0) return;
    Span& slot = open_span(span, "end_span");
    ++ops_rec_;
    Span s = slot;
    s.end = now;
    slot.span_id = 0;
    phase_histogram(s.name).observe_seconds(now - s.start);
    if (sink_) {
        sink_->append(s);
        sink_->close_hold(StreamId::kSpans, s.start);
    } else {
        done_.push_back(s);
    }
    while (!window_.empty() && window_.front().span_id == 0) {
        window_.pop_front();
        ++base_;
    }
}

obs::Histogram& SpanTracer::phase_histogram(PhaseName name) {
    if (name.id() >= phase_hist_.size()) phase_hist_.resize(name.id() + 1, nullptr);
    auto& h = phase_hist_[name.id()];
    if (h == nullptr)
        h = &obs::histogram("trace.phase." + name.str() + ".duration_ns",
                            obs::Unit::kNanoseconds);
    return *h;
}

std::size_t SpanTracer::sampled_trace_count() const {
    std::set<TraceId> ids;
    for (const auto& s : done_) ids.insert(s.trace_id);
    return ids.size();
}

void SpanTracer::clear() {
    window_.clear();
    base_ = next_id_;
    done_.clear();
    notes_.clear();
    ops_req_ = ops_rec_ = 0;
}

SpanTree::SpanTree(const std::vector<Span>& all, TraceId trace) : trace_(trace) {
    for (const auto& s : all)
        if (s.trace_id == trace) spans_.push_back(s);
    if (spans_.empty()) throw std::invalid_argument("SpanTree: no spans for trace");
    // Order by start time; ties break on creation order (span id), which
    // puts a parent before children opened at the same instant.
    std::stable_sort(spans_.begin(), spans_.end(), [](const Span& a, const Span& b) {
        if (a.start != b.start) return a.start < b.start;
        return a.span_id < b.span_id;
    });
    // Validate there is exactly one root.
    std::size_t roots = 0;
    for (const auto& s : spans_)
        if (s.parent_id == 0) ++roots;
    if (roots == 0) throw std::invalid_argument("SpanTree: no root span");
}

const Span& SpanTree::root() const {
    for (const auto& s : spans_)
        if (s.parent_id == 0) return s;
    throw std::logic_error("SpanTree::root: unreachable");
}

std::vector<const Span*> SpanTree::children_of(SpanId parent) const {
    std::vector<const Span*> out;
    for (const auto& s : spans_)
        if (s.parent_id == parent) out.push_back(&s);
    return out;
}

std::vector<std::string> SpanTree::phase_sequence() const {
    std::vector<std::string> out;
    out.reserve(spans_.size());
    for (const auto& s : spans_) out.push_back(s.name.str());
    return out;
}

std::vector<double> SpanTree::phase_durations() const {
    std::vector<double> out;
    out.reserve(spans_.size());
    for (const auto& s : spans_) out.push_back(s.duration());
    return out;
}

double SpanTree::total_duration() const { return root().duration(); }

void SpanTree::render_node(const Span& s, int depth, std::string& out) const {
    std::ostringstream os;
    os << std::string(std::size_t(depth) * 2, ' ') << s.name << " ["
       << s.duration() * 1e3 << " ms]\n";
    out += os.str();
    for (const Span* c : children_of(s.span_id)) render_node(*c, depth + 1, out);
}

std::string SpanTree::render() const {
    std::string out;
    render_node(root(), 0, out);
    return out;
}

std::vector<TraceId> SpanTree::trace_ids(const std::vector<Span>& all) {
    std::set<TraceId> ids;
    for (const auto& s : all) ids.insert(s.trace_id);
    return {ids.begin(), ids.end()};
}

}  // namespace kooza::trace
