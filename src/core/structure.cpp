#include "core/structure.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

#include "stats/fitting.hpp"

namespace kooza::core {

StructureQueue StructureQueue::fit(const std::vector<trace::Span>& spans,
                                   std::span<const trace::TraceId> trace_ids,
                                   double ks_threshold) {
    StructureAccumulator acc;
    acc.observe(spans);
    return acc.fit(trace_ids, ks_threshold);
}

namespace {

/// Stable sort by (trace id, start, span id) — equal keys keep arrival
/// order, as SpanTree's stable_sort over a per-trace bucket did. Spans
/// arrive in completion order: a root lands a few places after its
/// children and a trace a few places after later-starting ones. On the
/// 200k-request websearch capture (1.4M spans) 81% are already in place
/// and the insertion sort makes 0.43 moves per span, 10 ms against
/// std::stable_sort's 240 ms. Many long overlapping requests (a flash
/// crowd on one server: 238 moves per span) exhaust the move budget, and
/// the sort finishes with std::stable_sort, at most 16n moves later.
template <typename Record>
void sort_spans(std::vector<Record>& v) {
    const auto less = [](const Record& a, const Record& b) {
        if (a.trace_id != b.trace_id) return a.trace_id < b.trace_id;
        if (a.start != b.start) return a.start < b.start;
        return a.span_id < b.span_id;
    };
    std::size_t budget = 16 * v.size();
    for (std::size_t i = 1; i < v.size(); ++i) {
        if (!less(v[i], v[i - 1])) continue;
        const Record r = v[i];
        std::size_t j = i;
        do {
            v[j] = v[j - 1];
            --j;
        } while (j > 0 && less(r, v[j - 1]));
        v[j] = r;
        // The sorted prefix keeps equal keys in arrival order, so
        // finishing with stable_sort gives the same result.
        if (i - j >= budget) {
            std::stable_sort(v.begin(), v.end(), less);
            return;
        }
        budget -= i - j;
    }
}

}  // namespace

std::uint32_t StructureAccumulator::local_id(trace::PhaseName name) {
    constexpr auto kUnseen = ~std::uint32_t{0};
    if (name.id() >= local_ids_.size()) local_ids_.resize(name.id() + 1, kUnseen);
    auto& id = local_ids_[name.id()];
    if (id == kUnseen) {
        id = std::uint32_t(phase_names_.size());
        phase_names_.push_back(name);
    }
    return id;
}

void StructureAccumulator::observe(const trace::Span& s) {
    spans_.push_back(Record{s.trace_id, s.start, s.span_id, s.duration(),
                            local_id(s.name), s.parent_id == 0});
    sorted_ = false;
}

void StructureAccumulator::observe(const std::vector<trace::Span>& spans) {
    spans_.reserve(spans_.size() + spans.size());
    for (const auto& s : spans) observe(s);
}

void StructureAccumulator::merge(StructureAccumulator&& other) {
    std::vector<std::uint32_t> remap;
    remap.reserve(other.phase_names_.size());
    for (const auto name : other.phase_names_) remap.push_back(local_id(name));
    spans_.reserve(spans_.size() + other.spans_.size());
    for (Record r : other.spans_) {
        r.phase = remap[r.phase];
        spans_.push_back(r);
    }
    if (!other.spans_.empty()) sorted_ = false;
    other = StructureAccumulator{};
}

void StructureAccumulator::seal() {
    if (sorted_) return;
    sort_spans(spans_);
    sorted_ = true;
}

StructureFitPlan StructureAccumulator::plan(
    std::span<const trace::TraceId> trace_ids) const {
    if (!sorted_) throw std::logic_error("StructureAccumulator::plan: buffer not sealed");
    std::vector<trace::TraceId> wanted(trace_ids.begin(), trace_ids.end());
    std::sort(wanted.begin(), wanted.end());

    // Sequence -> count (distinct sequences, kept sorted); phase ->
    // durations, walking the trees in ascending trace-id order against
    // the sorted wanted ids.
    std::vector<std::pair<std::vector<std::uint32_t>, std::size_t>> counts;
    std::vector<std::vector<double>> durations(phase_names_.size());
    std::vector<std::uint32_t> seq;
    std::size_t used = 0;
    auto want = wanted.begin();
    for (std::size_t lo = 0, hi = 0; lo < spans_.size(); lo = hi) {
        const trace::TraceId id = spans_[lo].trace_id;
        hi = lo;
        while (hi < spans_.size() && spans_[hi].trace_id == id) ++hi;
        while (want != wanted.end() && *want < id) ++want;
        if (want == wanted.end()) break;
        if (*want != id) continue;
        if (std::none_of(spans_.begin() + std::ptrdiff_t(lo),
                         spans_.begin() + std::ptrdiff_t(hi),
                         [](const Record& r) { return r.root; }))
            throw std::invalid_argument("SpanTree: no root span");
        seq.clear();
        for (std::size_t i = lo; i < hi; ++i) {
            if (spans_[i].root) continue;  // skip the root "request" span
            seq.push_back(spans_[i].phase);
            durations[spans_[i].phase].push_back(spans_[i].duration);
        }
        if (seq.empty()) continue;
        const auto it = std::lower_bound(
            counts.begin(), counts.end(), seq,
            [](const auto& entry, const auto& s) { return entry.first < s; });
        if (it == counts.end() || it->first != seq)
            counts.emplace(it, seq, 1);
        else
            ++it->second;
        ++used;
    }
    if (used == 0)
        throw std::invalid_argument("StructureQueue::fit: no usable span trees");

    StructureFitPlan p;
    p.used_ = used;
    for (const auto& [ids, n] : counts) {
        StructureQueue::Variant v;
        for (std::uint32_t id : ids) v.phases.push_back(phase_names_[id].str());
        v.count = n;
        p.variants_.push_back(std::move(v));
    }
    // from_parts breaks count ties by input position; feed it the
    // variants in name order, as the historical string-keyed count map
    // did, so tied variants keep their order.
    std::sort(p.variants_.begin(), p.variants_.end(),
              [](const StructureQueue::Variant& a, const StructureQueue::Variant& b) {
                  return a.phases < b.phases;
              });
    for (std::size_t id = 0; id < durations.size(); ++id) {
        if (durations[id].empty()) continue;
        p.phases_.push_back(phase_names_[id].str());
        p.durations_.push_back(std::move(durations[id]));
    }
    return p;
}

StructureQueue StructureAccumulator::fit(std::span<const trace::TraceId> trace_ids,
                                         double ks_threshold) {
    seal();
    auto p = plan(trace_ids);
    std::vector<std::unique_ptr<stats::Distribution>> fitted(p.samples());
    for (std::size_t i = 0; i < fitted.size(); ++i)
        fitted[i] = stats::fit_or_empirical(p.sample(i), ks_threshold);
    return std::move(p).finish(std::move(fitted));
}

StructureQueue StructureFitPlan::finish(
    std::vector<std::unique_ptr<stats::Distribution>> fitted) && {
    if (fitted.size() != durations_.size())
        throw std::invalid_argument("StructureFitPlan::finish: sample count mismatch");
    std::map<std::string, std::unique_ptr<stats::Distribution>> by_phase;
    for (std::size_t i = 0; i < fitted.size(); ++i) {
        if (!fitted[i])
            throw std::invalid_argument("StructureFitPlan::finish: null distribution");
        by_phase[phases_[i]] = std::move(fitted[i]);
    }
    return StructureQueue::from_parts(std::move(variants_), std::move(by_phase), used_);
}

StructureQueue StructureQueue::from_parts(
    std::vector<Variant> variants,
    std::map<std::string, std::unique_ptr<stats::Distribution>> durations,
    std::size_t trained_on) {
    if (variants.empty())
        throw std::invalid_argument("StructureQueue::from_parts: no variants");
    std::size_t total = 0;
    for (const auto& v : variants) {
        if (v.phases.empty())
            throw std::invalid_argument("StructureQueue::from_parts: empty variant");
        total += v.count;
    }
    if (total == 0)
        throw std::invalid_argument("StructureQueue::from_parts: zero counts");
    StructureQueue q;
    q.trained_on_ = trained_on;
    q.variants_ = std::move(variants);
    std::sort(q.variants_.begin(), q.variants_.end(),
              [](const Variant& a, const Variant& b) { return a.count > b.count; });
    for (auto& v : q.variants_) {
        v.probability = double(v.count) / double(total);
        q.weights_.push_back(double(v.count));
    }
    q.durations_ = std::move(durations);
    for (const auto& v : q.variants_)
        for (const auto& p : v.phases)
            if (q.durations_.find(p) == q.durations_.end())
                q.durations_.emplace(p, std::make_unique<stats::Deterministic>(0.0));
    return q;
}

StructureQueue StructureQueue::canonical(std::vector<std::string> phases) {
    if (phases.empty())
        throw std::invalid_argument("StructureQueue::canonical: empty phase list");
    StructureQueue q;
    q.trained_on_ = 0;
    Variant v;
    v.phases = phases;
    v.count = 1;
    v.probability = 1.0;
    q.variants_.push_back(std::move(v));
    q.weights_.push_back(1.0);
    for (const auto& p : phases)
        q.durations_.emplace(p, std::make_unique<stats::Deterministic>(0.0));
    return q;
}

const std::vector<std::string>& StructureQueue::dominant() const {
    if (variants_.empty()) throw std::logic_error("StructureQueue: untrained");
    return variants_.front().phases;
}

const std::vector<std::string>& StructureQueue::sample(sim::Rng& rng) const {
    if (variants_.empty()) throw std::logic_error("StructureQueue: untrained");
    return variants_[rng.weighted_index(weights_)].phases;
}

const stats::Distribution& StructureQueue::phase_duration(
    const std::string& phase) const {
    auto it = durations_.find(phase);
    if (it == durations_.end())
        throw std::out_of_range("StructureQueue::phase_duration: " + phase);
    return *it->second;
}

bool StructureQueue::has_phase(const std::string& phase) const noexcept {
    return durations_.find(phase) != durations_.end();
}

std::vector<std::string> StructureQueue::phase_names() const {
    std::vector<std::string> out;
    for (const auto& [name, d] : durations_) out.push_back(name);
    return out;
}

std::size_t StructureQueue::parameter_count() const noexcept {
    std::size_t n = 0;
    for (const auto& v : variants_) n += v.phases.size() + 1;
    n += 2 * durations_.size();
    return n;
}

std::string StructureQueue::describe() const {
    std::ostringstream os;
    os << "StructureQueue(" << trained_on_ << " traces, " << variants_.size()
       << " variants)\n";
    for (const auto& v : variants_) {
        os << "  p=" << v.probability << " :";
        for (const auto& p : v.phases) os << " " << p;
        os << "\n";
    }
    return os.str();
}

}  // namespace kooza::core
