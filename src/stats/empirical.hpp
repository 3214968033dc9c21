// Empirical (sample-backed) distribution.
//
// Markov states carry per-state feature distributions; when no parametric
// family fits well (KS distance above threshold) the trainer falls back to
// the empirical distribution of the observed values.
#pragma once

#include <span>
#include <vector>

#include "stats/distributions.hpp"

namespace kooza::stats {

/// Distribution backed by a sorted sample. cdf() is the step ECDF;
/// sample() draws with smoothed inverse-transform (linear interpolation
/// between order statistics) so generated values are not restricted to the
/// exact observed set unless the sample is a single point.
class Empirical final : public Distribution {
public:
    explicit Empirical(std::span<const double> xs);

    /// Adopt a sample the caller has already sorted ascending (the fitter
    /// sorts once for KS scoring and hands the same vector over).
    [[nodiscard]] static std::unique_ptr<Empirical> from_sorted(
        std::vector<double> sorted);

    [[nodiscard]] double cdf(double x) const override;
    [[nodiscard]] double quantile(double p) const override;
    [[nodiscard]] double mean() const override;
    [[nodiscard]] double variance() const override;
    [[nodiscard]] double sample(sim::Rng& rng) const override;
    [[nodiscard]] std::string name() const override { return "empirical"; }
    [[nodiscard]] std::string describe() const override;
    [[nodiscard]] std::unique_ptr<Distribution> clone() const override {
        return std::make_unique<Empirical>(*this);
    }

    [[nodiscard]] std::size_t size() const noexcept { return xs_.size(); }
    [[nodiscard]] const std::vector<double>& sorted() const noexcept { return xs_; }

private:
    struct Sorted {};
    Empirical(Sorted, std::vector<double> sorted);

    std::vector<double> xs_;  // sorted ascending
};

}  // namespace kooza::stats
