#include "markov/annotated.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "stats/empirical.hpp"
#include "stats/fitting.hpp"

namespace kooza::markov {

AnnotatedMarkovChain::AnnotatedMarkovChain(
    MarkovChain chain,
    std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>> per_state)
    : chain_(std::move(chain)), per_state_(std::move(per_state)) {}

AnnotatedMarkovChain AnnotatedMarkovChain::from_parts(
    MarkovChain chain,
    std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>>
        per_state) {
    if (per_state.size() != chain.n_states())
        throw std::invalid_argument(
            "AnnotatedMarkovChain::from_parts: state count mismatch");
    for (const auto& feats : per_state)
        for (const auto& [name, dist] : feats)
            if (!dist)
                throw std::invalid_argument(
                    "AnnotatedMarkovChain::from_parts: null distribution for " + name);
    return AnnotatedMarkovChain(std::move(chain), std::move(per_state));
}

AnnotatedMarkovChain AnnotatedMarkovChain::fit(
    std::span<const AnnotatedSequence> sequences, std::size_t n_states, double alpha,
    double ks_threshold, std::size_t max_state_samples) {
    auto p = plan(sequences, n_states, alpha, max_state_samples);
    std::vector<std::unique_ptr<stats::Distribution>> fitted(p.samples());
    for (std::size_t i = 0; i < fitted.size(); ++i)
        fitted[i] = stats::fit_or_empirical(p.sample(i), ks_threshold);
    return std::move(p).finish(std::move(fitted));
}

AnnotatedFitPlan AnnotatedMarkovChain::plan(
    std::span<const AnnotatedSequence> sequences, std::size_t n_states, double alpha,
    std::size_t max_state_samples) {
    const std::size_t cap = max_state_samples == 0
                                ? std::numeric_limits<std::size_t>::max()
                                : max_state_samples;
    // Validate alignment, collect the feature-name universe, and count
    // transitions — sufficient statistics instead of copied sequences.
    std::set<std::string> names;
    ChainSuffStats chain_stats(n_states);
    for (const auto& seq : sequences) {
        for (const auto& [name, vals] : seq.features) {
            if (vals.size() != seq.states.size())
                throw std::invalid_argument(
                    "AnnotatedMarkovChain::fit: feature '" + name +
                    "' not aligned with states");
            names.insert(name);
        }
        chain_stats.observe(seq.states);
    }
    AnnotatedFitPlan p(MarkovChain::fit_counts(chain_stats, alpha));
    p.names_.assign(names.begin(), names.end());
    const std::size_t nf = p.names_.size();

    // Bucket feature values by state (first-`cap` retained per bucket).
    p.cells_.assign((n_states + 1) * nf, stats::CappedSample(cap));
    const std::size_t global_row = n_states * nf;
    for (const auto& seq : sequences)
        for (const auto& [name, vals] : seq.features) {
            const std::size_t k = std::size_t(
                std::lower_bound(p.names_.begin(), p.names_.end(), name) -
                p.names_.begin());
            for (std::size_t i = 0; i < vals.size(); ++i) {
                p.cells_[seq.states[i] * nf + k].observe(vals[i]);
                p.cells_[global_row + k].observe(vals[i]);
            }
        }

    // One sample per distinct bucket in use: a state that never saw a
    // feature falls back to the feature's global sample.
    std::vector<std::size_t> job_of_cell(p.cells_.size(), SIZE_MAX);
    p.slot_job_.resize(n_states * nf);
    for (std::size_t s = 0; s < n_states; ++s)
        for (std::size_t k = 0; k < nf; ++k) {
            std::size_t cell = s * nf + k;
            if (p.cells_[cell].empty()) cell = global_row + k;
            if (p.cells_[cell].empty())
                throw std::invalid_argument("AnnotatedMarkovChain::fit: feature '" +
                                            p.names_[k] + "' has no data");
            if (job_of_cell[cell] == SIZE_MAX) {
                job_of_cell[cell] = p.jobs_.size();
                p.jobs_.push_back(cell);
            }
            p.slot_job_[s * nf + k] = job_of_cell[cell];
        }
    return p;
}

AnnotatedMarkovChain AnnotatedFitPlan::finish(
    std::vector<std::unique_ptr<stats::Distribution>> fitted) && {
    if (fitted.size() != jobs_.size())
        throw std::invalid_argument("AnnotatedFitPlan::finish: sample count mismatch");
    // A shared global sample is cloned into every state but the last
    // that uses it, which takes the fitted object itself.
    std::vector<std::size_t> uses(jobs_.size(), 0);
    for (std::size_t j : slot_job_) ++uses[j];
    const std::size_t nf = names_.size();
    const std::size_t n_states = chain_.n_states();
    std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>> per_state(
        n_states);
    for (std::size_t s = 0; s < n_states; ++s)
        for (std::size_t k = 0; k < nf; ++k) {
            const std::size_t j = slot_job_[s * nf + k];
            if (!fitted[j])
                throw std::invalid_argument("AnnotatedFitPlan::finish: null distribution");
            per_state[s][names_[k]] =
                --uses[j] == 0 ? std::move(fitted[j]) : fitted[j]->clone();
        }
    return AnnotatedMarkovChain(std::move(chain_), std::move(per_state));
}

std::vector<std::string> AnnotatedMarkovChain::feature_names() const {
    std::vector<std::string> out;
    if (per_state_.empty()) return out;
    for (const auto& [name, dist] : per_state_.front()) out.push_back(name);
    return out;
}

const stats::Distribution& AnnotatedMarkovChain::feature(std::size_t state,
                                                         const std::string& name) const {
    if (state >= per_state_.size())
        throw std::out_of_range("AnnotatedMarkovChain::feature: state");
    auto it = per_state_[state].find(name);
    if (it == per_state_[state].end())
        throw std::out_of_range("AnnotatedMarkovChain::feature: unknown feature " + name);
    return *it->second;
}

AnnotatedStep AnnotatedMarkovChain::annotate(std::size_t state, sim::Rng& rng) const {
    if (state >= per_state_.size())
        throw std::out_of_range("AnnotatedMarkovChain::annotate: state");
    AnnotatedStep step;
    step.state = state;
    for (const auto& [name, dist] : per_state_[state])
        step.features[name] = dist->sample(rng);
    return step;
}

AnnotatedStep AnnotatedMarkovChain::step_from(std::size_t state, sim::Rng& rng) const {
    return annotate(chain_.next_state(state, rng), rng);
}

std::vector<AnnotatedStep> AnnotatedMarkovChain::generate(std::size_t length,
                                                          sim::Rng& rng) const {
    if (length == 0)
        throw std::invalid_argument("AnnotatedMarkovChain::generate: length 0");
    std::vector<AnnotatedStep> out;
    out.reserve(length);
    out.push_back(annotate(chain_.sample_initial(rng), rng));
    for (std::size_t i = 1; i < length; ++i)
        out.push_back(step_from(out.back().state, rng));
    return out;
}

std::size_t AnnotatedMarkovChain::parameter_count() const {
    const std::size_t n = chain_.n_states();
    std::size_t params = n * n + n;  // transition matrix + initial distribution
    for (const auto& feats : per_state_)
        for (const auto& [name, dist] : feats) {
            if (auto* emp = dynamic_cast<const stats::Empirical*>(dist.get()))
                params += emp->size();
            else
                params += 2;  // typical parametric family
        }
    return params;
}

std::string AnnotatedMarkovChain::describe() const {
    std::ostringstream os;
    os << "AnnotatedMarkovChain: " << chain_.n_states() << " states, features {";
    bool first = true;
    for (const auto& name : feature_names()) {
        os << (first ? "" : ", ") << name;
        first = false;
    }
    os << "}, ~" << parameter_count() << " params";
    return os.str();
}

}  // namespace kooza::markov
