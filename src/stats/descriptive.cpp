#include "stats/descriptive.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

namespace kooza::stats {

double mean(std::span<const double> xs) noexcept {
    if (xs.empty()) return 0.0;
    double s = 0.0;
    for (double x : xs) s += x;
    return s / double(xs.size());
}

double variance(std::span<const double> xs) noexcept {
    if (xs.size() < 2) return 0.0;
    const double m = mean(xs);
    double s = 0.0;
    for (double x : xs) s += (x - m) * (x - m);
    return s / double(xs.size() - 1);
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

double quantile(std::span<const double> xs, double q) {
    if (xs.empty()) throw std::invalid_argument("quantile: empty sample");
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
    std::vector<double> s(xs.begin(), xs.end());
    std::sort(s.begin(), s.end());
    return quantile_sorted(s, q);
}

double quantile_sorted(std::span<const double> s, double q) {
    if (s.empty()) throw std::invalid_argument("quantile: empty sample");
    if (q < 0.0 || q > 1.0) throw std::invalid_argument("quantile: q outside [0,1]");
    if (s.size() == 1) return s[0];
    const double pos = q * double(s.size() - 1);
    const std::size_t lo = std::size_t(pos);
    const std::size_t hi = std::min(lo + 1, s.size() - 1);
    const double frac = pos - double(lo);
    return s[lo] * (1.0 - frac) + s[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

Summary summarize(std::span<const double> xs) {
    Summary out;
    out.count = xs.size();
    if (xs.empty()) return out;
    out.mean = mean(xs);
    out.variance = variance(xs);
    out.stddev = std::sqrt(out.variance);
    if (xs.size() >= 3 && out.stddev > 0.0) {
        double m3 = 0.0;
        for (double x : xs) m3 += std::pow(x - out.mean, 3.0);
        m3 /= double(xs.size());
        out.skewness = m3 / std::pow(out.stddev, 3.0);
    }
    std::vector<double> s(xs.begin(), xs.end());
    std::sort(s.begin(), s.end());
    out.min = s.front();
    out.max = s.back();
    out.median = quantile_sorted(s, 0.5);
    out.p25 = quantile_sorted(s, 0.25);
    out.p75 = quantile_sorted(s, 0.75);
    out.p95 = quantile_sorted(s, 0.95);
    out.p99 = quantile_sorted(s, 0.99);
    return out;
}

double correlation(std::span<const double> xs, std::span<const double> ys) {
    if (xs.size() != ys.size())
        throw std::invalid_argument("correlation: length mismatch");
    if (xs.size() < 2) return 0.0;
    const double mx = mean(xs), my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
        const double dx = xs[i] - mx, dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0) return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

Variation variation(double measured, double baseline) noexcept {
    Variation v;
    if (baseline == 0.0) {
        // The old code returned |measured| * 100 here — a 16 KB synthetic
        // size against a 0-byte original printed as 1,638,400%. There is
        // no meaningful relative deviation from zero, so report the
        // absolute difference in the quantity's own unit instead.
        if (measured == 0.0) return v;
        v.value = std::abs(measured);
        v.absolute = true;
        return v;
    }
    v.value = std::abs(measured - baseline) / std::abs(baseline) * 100.0;
    return v;
}

double variation_pct(double measured, double baseline) noexcept {
    return variation(measured, baseline).value;
}

std::string Summary::to_string() const {
    std::ostringstream os;
    os << "n=" << count << " mean=" << mean << " sd=" << stddev << " min=" << min
       << " p50=" << median << " p95=" << p95 << " p99=" << p99 << " max=" << max;
    return os.str();
}

}  // namespace kooza::stats
