// Goodness-of-fit tests: Kolmogorov-Smirnov (one- and two-sample) and the
// chi-square test. KS is the selection criterion the paper's survey
// (Feitelson '02) prescribes for identifying the arrival-distribution
// family.
#pragma once

#include <span>

#include "stats/distributions.hpp"

namespace kooza::stats {

/// Result of a goodness-of-fit test.
struct TestResult {
    double statistic = 0.0;  ///< KS D or chi-square X^2
    double p_value = 1.0;    ///< asymptotic p-value
    /// Convenience: reject H0 at significance alpha?
    [[nodiscard]] bool reject(double alpha = 0.05) const noexcept {
        return p_value < alpha;
    }
};

/// One-sample KS statistic D = sup |F_n(x) - F(x)|. Throws on empty sample.
[[nodiscard]] double ks_statistic(std::span<const double> xs, const Distribution& dist);

/// ks_statistic over a sample already sorted ascending — no copy, no
/// sort, so one sorted sample can be scored against many candidates.
[[nodiscard]] double ks_statistic_sorted(std::span<const double> sorted,
                                         const Distribution& dist);

/// One-sample KS test against a fully-specified distribution.
[[nodiscard]] TestResult ks_test(std::span<const double> xs, const Distribution& dist);

/// Two-sample KS statistic D = sup |F_n(x) - G_m(x)|.
[[nodiscard]] double ks_statistic_two_sample(std::span<const double> xs,
                                             std::span<const double> ys);

/// Two-sample KS test.
[[nodiscard]] TestResult ks_test_two_sample(std::span<const double> xs,
                                            std::span<const double> ys);

/// Chi-square goodness-of-fit of a sample against a distribution, using
/// `bins` equiprobable bins (expected count n/bins each). `fitted_params`
/// reduces the degrees of freedom (dof = bins - 1 - fitted_params).
[[nodiscard]] TestResult chi_square_test(std::span<const double> xs,
                                         const Distribution& dist,
                                         std::size_t bins = 10,
                                         std::size_t fitted_params = 0);

}  // namespace kooza::stats
