#include "stats/fitting.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "stats/descriptive.hpp"
#include "stats/empirical.hpp"
#include "stats/hypothesis.hpp"

namespace kooza::stats {

namespace {

void require_nonempty(std::span<const double> xs, const char* who) {
    if (xs.empty()) throw std::invalid_argument(std::string(who) + ": empty sample");
}

bool all_positive(std::span<const double> xs) {
    return std::all_of(xs.begin(), xs.end(), [](double x) { return x > 0.0; });
}

bool is_constant(std::span<const double> xs) {
    return std::all_of(xs.begin(), xs.end(), [&](double x) { return x == xs.front(); });
}

std::vector<double> sorted_copy(std::span<const double> xs) {
    std::vector<double> s(xs.begin(), xs.end());
    std::sort(s.begin(), s.end());
    return s;
}

}  // namespace

std::string family_name(Family f) {
    switch (f) {
        case Family::kDeterministic: return "deterministic";
        case Family::kUniform: return "uniform";
        case Family::kExponential: return "exponential";
        case Family::kNormal: return "normal";
        case Family::kLogNormal: return "lognormal";
        case Family::kPareto: return "pareto";
        case Family::kWeibull: return "weibull";
        case Family::kGamma: return "gamma";
    }
    return "unknown";
}

std::unique_ptr<Exponential> fit_exponential(std::span<const double> xs) {
    require_nonempty(xs, "fit_exponential");
    const double m = mean(xs);
    if (!(m > 0.0)) throw std::invalid_argument("fit_exponential: mean must be > 0");
    return std::make_unique<Exponential>(1.0 / m);
}

std::unique_ptr<Normal> fit_normal(std::span<const double> xs) {
    require_nonempty(xs, "fit_normal");
    const double sd = stddev(xs);
    if (!(sd > 0.0)) throw std::invalid_argument("fit_normal: zero variance");
    return std::make_unique<Normal>(mean(xs), sd);
}

std::unique_ptr<LogNormal> fit_lognormal(std::span<const double> xs) {
    require_nonempty(xs, "fit_lognormal");
    if (!all_positive(xs))
        throw std::invalid_argument("fit_lognormal: data must be positive");
    std::vector<double> logs;
    logs.reserve(xs.size());
    for (double x : xs) logs.push_back(std::log(x));
    const double sd = stddev(logs);
    if (!(sd > 0.0)) throw std::invalid_argument("fit_lognormal: zero log-variance");
    return std::make_unique<LogNormal>(mean(logs), sd);
}

std::unique_ptr<Pareto> fit_pareto(std::span<const double> xs) {
    require_nonempty(xs, "fit_pareto");
    if (!all_positive(xs)) throw std::invalid_argument("fit_pareto: data must be positive");
    const double xm = *std::min_element(xs.begin(), xs.end());
    double s = 0.0;
    for (double x : xs) s += std::log(x / xm);
    if (!(s > 0.0)) throw std::invalid_argument("fit_pareto: degenerate sample");
    return std::make_unique<Pareto>(xm, double(xs.size()) / s);
}

std::unique_ptr<Weibull> fit_weibull(std::span<const double> xs) {
    require_nonempty(xs, "fit_weibull");
    if (!all_positive(xs))
        throw std::invalid_argument("fit_weibull: data must be positive");
    if (is_constant(xs)) throw std::invalid_argument("fit_weibull: constant sample");
    // Newton iteration on the MLE shape equation:
    // 1/k = sum(x^k ln x)/sum(x^k) - mean(ln x)
    std::vector<double> lx;
    lx.reserve(xs.size());
    for (double x : xs) lx.push_back(std::log(x));
    const double mean_lx = mean(lx);
    double k = 1.0;
    for (int iter = 0; iter < 100; ++iter) {
        double s0 = 0.0, s1 = 0.0, s2 = 0.0;
        for (std::size_t i = 0; i < xs.size(); ++i) {
            const double xk = std::pow(xs[i], k);
            s0 += xk;
            s1 += xk * lx[i];
            s2 += xk * lx[i] * lx[i];
        }
        const double f = s1 / s0 - 1.0 / k - mean_lx;
        const double fp = (s2 * s0 - s1 * s1) / (s0 * s0) + 1.0 / (k * k);
        const double step = f / fp;
        k -= step;
        if (!(k > 0.0)) k = 1e-3;
        if (std::fabs(step) < 1e-10 * std::max(1.0, k)) break;
    }
    double s0 = 0.0;
    for (double x : xs) s0 += std::pow(x, k);
    const double scale = std::pow(s0 / double(xs.size()), 1.0 / k);
    return std::make_unique<Weibull>(k, scale);
}

std::unique_ptr<Gamma> fit_gamma(std::span<const double> xs) {
    require_nonempty(xs, "fit_gamma");
    if (!all_positive(xs)) throw std::invalid_argument("fit_gamma: data must be positive");
    const double m = mean(xs), v = variance(xs);
    if (!(v > 0.0)) throw std::invalid_argument("fit_gamma: zero variance");
    return std::make_unique<Gamma>(m * m / v, v / m);
}

std::unique_ptr<Uniform> fit_uniform(std::span<const double> xs) {
    require_nonempty(xs, "fit_uniform");
    const auto [mn, mx] = std::minmax_element(xs.begin(), xs.end());
    if (*mn == *mx) throw std::invalid_argument("fit_uniform: constant sample");
    // Widen by the mean gap so the extreme order statistics are interior.
    const double margin = (*mx - *mn) / double(xs.size());
    return std::make_unique<Uniform>(*mn - margin, *mx + margin);
}

namespace {

const Family kDefaultFamilies[] = {Family::kExponential, Family::kNormal,
                                   Family::kLogNormal,   Family::kPareto,
                                   Family::kWeibull,     Family::kGamma,
                                   Family::kUniform};

/// fit_all's body for a non-constant sample whose ascending copy is
/// `sorted`. Parameters are estimated on `xs` in its original order —
/// mean/variance summation order decides their last bits — and every
/// family's KS distance is scored on the one sorted copy.
std::vector<Fit> fit_families(std::span<const double> xs,
                              std::span<const double> sorted,
                              std::span<const Family> families) {
    std::vector<Fit> fits;
    for (Family f : families) {
        std::unique_ptr<Distribution> d;
        try {
            switch (f) {
                case Family::kDeterministic: continue;  // only for constant data
                case Family::kUniform: d = fit_uniform(xs); break;
                case Family::kExponential: d = fit_exponential(xs); break;
                case Family::kNormal: d = fit_normal(xs); break;
                case Family::kLogNormal: d = fit_lognormal(xs); break;
                case Family::kPareto: d = fit_pareto(xs); break;
                case Family::kWeibull: d = fit_weibull(xs); break;
                case Family::kGamma: d = fit_gamma(xs); break;
            }
        } catch (const std::invalid_argument&) {
            continue;  // family's preconditions not met by this sample
        }
        const double ks = ks_statistic_sorted(sorted, *d);
        fits.push_back(Fit{std::move(d), ks});
    }
    std::sort(fits.begin(), fits.end(),
              [](const Fit& a, const Fit& b) { return a.ks < b.ks; });
    return fits;
}

}  // namespace

std::vector<Fit> fit_all(std::span<const double> xs, std::span<const Family> families) {
    require_nonempty(xs, "fit_all");
    if (is_constant(xs)) {
        std::vector<Fit> out;
        out.push_back(Fit{std::make_unique<Deterministic>(xs.front()), 0.0});
        return out;
    }
    return fit_families(xs, sorted_copy(xs), families);
}

Fit fit_best(std::span<const double> xs) {
    auto fits = fit_all(xs, kDefaultFamilies);
    if (fits.empty()) throw std::runtime_error("fit_best: no family fit the sample");
    return std::move(fits.front());
}

std::unique_ptr<Distribution> fit_or_empirical(std::span<const double> xs,
                                               double ks_threshold) {
    require_nonempty(xs, "fit_or_empirical");
    if (is_constant(xs)) return std::make_unique<Deterministic>(xs.front());
    // One sorted copy serves every family's KS and, on fallback, becomes
    // the Empirical's storage.
    auto sorted = sorted_copy(xs);
    auto fits = fit_families(xs, sorted, kDefaultFamilies);
    if (fits.empty()) throw std::runtime_error("fit_best: no family fit the sample");
    if (fits.front().ks <= ks_threshold) return std::move(fits.front().dist);
    return Empirical::from_sorted(std::move(sorted));
}

}  // namespace kooza::stats
