#include "stats/hypothesis.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "stats/special.hpp"

namespace kooza::stats {

double ks_statistic(std::span<const double> xs, const Distribution& dist) {
    if (xs.empty()) throw std::invalid_argument("ks_statistic: empty sample");
    std::vector<double> s(xs.begin(), xs.end());
    std::sort(s.begin(), s.end());
    return ks_statistic_sorted(s, dist);
}

double ks_statistic_sorted(std::span<const double> sorted, const Distribution& dist) {
    if (sorted.empty()) throw std::invalid_argument("ks_statistic: empty sample");
    const double n = double(sorted.size());
    double d = 0.0;
    double f = 0.0;
    for (std::size_t i = 0; i < sorted.size(); ++i) {
        // Tied values share one cdf evaluation.
        if (i == 0 || sorted[i] != sorted[i - 1]) f = dist.cdf(sorted[i]);
        d = std::max(d, std::fabs(double(i + 1) / n - f));
        d = std::max(d, std::fabs(f - double(i) / n));
    }
    return d;
}

TestResult ks_test(std::span<const double> xs, const Distribution& dist) {
    const double d = ks_statistic(xs, dist);
    const double n = double(xs.size());
    const double lambda = (std::sqrt(n) + 0.12 + 0.11 / std::sqrt(n)) * d;
    return TestResult{d, kolmogorov_survival(lambda)};
}

double ks_statistic_two_sample(std::span<const double> xs, std::span<const double> ys) {
    if (xs.empty() || ys.empty())
        throw std::invalid_argument("ks_statistic_two_sample: empty sample");
    std::vector<double> a(xs.begin(), xs.end()), b(ys.begin(), ys.end());
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    std::size_t i = 0, j = 0;
    double d = 0.0;
    while (i < a.size() && j < b.size()) {
        const double v = std::min(a[i], b[j]);
        while (i < a.size() && a[i] <= v) ++i;
        while (j < b.size() && b[j] <= v) ++j;
        d = std::max(d, std::fabs(double(i) / double(a.size()) -
                                  double(j) / double(b.size())));
    }
    return d;
}

TestResult ks_test_two_sample(std::span<const double> xs, std::span<const double> ys) {
    const double d = ks_statistic_two_sample(xs, ys);
    const double n = double(xs.size()), m = double(ys.size());
    const double ne = n * m / (n + m);
    const double lambda = (std::sqrt(ne) + 0.12 + 0.11 / std::sqrt(ne)) * d;
    return TestResult{d, kolmogorov_survival(lambda)};
}

TestResult chi_square_test(std::span<const double> xs, const Distribution& dist,
                           std::size_t bins, std::size_t fitted_params) {
    if (xs.empty()) throw std::invalid_argument("chi_square_test: empty sample");
    if (bins < 2) throw std::invalid_argument("chi_square_test: need >= 2 bins");
    if (bins <= fitted_params + 1)
        throw std::invalid_argument("chi_square_test: dof would be <= 0");
    // Equiprobable bin edges from the model's quantile function.
    std::vector<double> edges(bins - 1);
    for (std::size_t k = 1; k < bins; ++k)
        edges[k - 1] = dist.quantile(double(k) / double(bins));
    std::vector<std::size_t> observed(bins, 0);
    for (double x : xs) {
        auto it = std::upper_bound(edges.begin(), edges.end(), x);
        ++observed[std::size_t(it - edges.begin())];
    }
    const double expected = double(xs.size()) / double(bins);
    double x2 = 0.0;
    for (std::size_t k = 0; k < bins; ++k) {
        const double diff = double(observed[k]) - expected;
        x2 += diff * diff / expected;
    }
    const double dof = double(bins - 1 - fitted_params);
    return TestResult{x2, chi_square_survival(x2, dof)};
}

}  // namespace kooza::stats
