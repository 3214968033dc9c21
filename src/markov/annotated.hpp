// Markov chains whose states carry request-feature distributions.
//
// In KOOZA the storage model does not just walk LBN ranges — each visit
// also reflects "the type of requests (block size, type, randomness,
// inter-arrival times)" (paper, Section 4). AnnotatedMarkovChain attaches
// named per-state feature distributions to a MarkovChain so a sampled path
// yields full synthetic records, not just state ids.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "markov/chain.hpp"
#include "stats/distributions.hpp"
#include "stats/sample.hpp"

namespace kooza::markov {

/// One training sequence: aligned state ids and per-feature observations.
struct AnnotatedSequence {
    std::vector<std::size_t> states;
    /// feature name -> values; every vector must match states.size().
    std::map<std::string, std::vector<double>> features;
};

/// One generated step: a state id plus sampled feature values.
struct AnnotatedStep {
    std::size_t state = 0;
    std::map<std::string, double> features;
};

class AnnotatedMarkovChain;

/// AnnotatedMarkovChain::fit split at its parallel seam. plan() does the
/// serial part — transition counts and per-state feature bucketing — and
/// leaves the (state, feature) distribution fits as independent samples a
/// caller may fit in any order and on any thread; finish() assembles the
/// chain from them. States that never saw a feature share that feature's
/// global sample, so it is fitted once.
class AnnotatedFitPlan {
public:
    /// Distinct samples awaiting a distribution fit.
    [[nodiscard]] std::size_t samples() const noexcept { return jobs_.size(); }
    [[nodiscard]] std::span<const double> sample(std::size_t i) const {
        return cells_[jobs_.at(i)].values();
    }

    /// Assemble the chain; `fitted[i]` is the distribution of sample(i).
    [[nodiscard]] AnnotatedMarkovChain finish(
        std::vector<std::unique_ptr<stats::Distribution>> fitted) &&;

private:
    friend class AnnotatedMarkovChain;
    explicit AnnotatedFitPlan(MarkovChain chain) : chain_(std::move(chain)) {}

    MarkovChain chain_;
    std::vector<std::string> names_;  ///< feature names, ascending
    /// Row-major [state][feature] buckets; row n_states holds the global
    /// (all-state) sample of each feature.
    std::vector<stats::CappedSample> cells_;
    std::vector<std::size_t> jobs_;       ///< cell index of each sample
    std::vector<std::size_t> slot_job_;   ///< [state][feature] -> sample
};

class AnnotatedMarkovChain {
public:
    /// Fit the transition structure and, for every (state, feature) pair,
    /// a distribution over the values observed while in that state
    /// (parametric if a family passes the KS threshold, else empirical).
    /// States never observed fall back to the feature's global fit.
    /// The transition counts go through markov::ChainSuffStats and the
    /// feature buckets through stats::CappedSample, so the fit memory for
    /// huge captures is bounded by `max_state_samples` values per
    /// (state, feature) pair — 0 keeps every observation, in which case
    /// the result is byte-identical to the historical unbounded fit.
    static AnnotatedMarkovChain fit(std::span<const AnnotatedSequence> sequences,
                                    std::size_t n_states, double alpha = 0.5,
                                    double ks_threshold = 0.08,
                                    std::size_t max_state_samples = 0);

    /// The serial half of fit(): validation, transition counts and
    /// bucketing, with the same failure modes. Fitting every sample of
    /// the plan with stats::fit_or_empirical(sample, ks_threshold) and
    /// calling finish() is exactly fit().
    static AnnotatedFitPlan plan(std::span<const AnnotatedSequence> sequences,
                                 std::size_t n_states, double alpha = 0.5,
                                 std::size_t max_state_samples = 0);

    /// Reassemble from previously-fitted parts (deserialization).
    /// `per_state` must have chain.n_states() entries.
    static AnnotatedMarkovChain from_parts(
        MarkovChain chain,
        std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>>
            per_state);

    [[nodiscard]] const MarkovChain& chain() const noexcept { return chain_; }
    [[nodiscard]] std::vector<std::string> feature_names() const;

    /// Distribution of `feature` while in `state`.
    [[nodiscard]] const stats::Distribution& feature(std::size_t state,
                                                     const std::string& name) const;

    /// Sample a path of `length` steps with features.
    [[nodiscard]] std::vector<AnnotatedStep> generate(std::size_t length,
                                                      sim::Rng& rng) const;

    /// Continue from a given state (for incremental generation).
    [[nodiscard]] AnnotatedStep step_from(std::size_t state, sim::Rng& rng) const;

    /// Sample features for a known state (no transition).
    [[nodiscard]] AnnotatedStep annotate(std::size_t state, sim::Rng& rng) const;

    /// Rough model size: transition entries + per-state feature params
    /// (2 per parametric feature, sample size for empirical). Used by the
    /// Table 1 complexity axis.
    [[nodiscard]] std::size_t parameter_count() const;

    [[nodiscard]] std::string describe() const;

private:
    friend class AnnotatedFitPlan;
    AnnotatedMarkovChain(MarkovChain chain,
                         std::vector<std::map<std::string,
                                              std::unique_ptr<stats::Distribution>>>
                             per_state);

    MarkovChain chain_;
    /// per_state_[s][feature] -> distribution
    std::vector<std::map<std::string, std::unique_ptr<stats::Distribution>>> per_state_;
};

}  // namespace kooza::markov
