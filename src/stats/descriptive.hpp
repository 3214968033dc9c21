// Descriptive statistics over samples.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace kooza::stats {

/// Summary of a sample: moments and order statistics.
struct Summary {
    std::size_t count = 0;
    double mean = 0.0;
    double variance = 0.0;   ///< unbiased (n-1) sample variance
    double stddev = 0.0;
    double skewness = 0.0;   ///< standardized third moment (0 if n < 3)
    double min = 0.0;
    double max = 0.0;
    double median = 0.0;
    double p25 = 0.0;
    double p75 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;

    /// Coefficient of variation (stddev / mean); 0 when mean == 0.
    [[nodiscard]] double cv() const noexcept { return mean != 0.0 ? stddev / mean : 0.0; }

    [[nodiscard]] std::string to_string() const;
};

/// Arithmetic mean. Returns 0 for an empty sample.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Unbiased sample variance. Returns 0 for fewer than two points.
[[nodiscard]] double variance(std::span<const double> xs) noexcept;

[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Linear-interpolated quantile, q in [0,1]. Throws on empty input or q
/// outside [0,1].
[[nodiscard]] double quantile(std::span<const double> xs, double q);

/// quantile() over a sample already sorted ascending: no copy, no sort,
/// the same interpolation, so a caller reading several quantiles of one
/// sample sorts it once.
[[nodiscard]] double quantile_sorted(std::span<const double> sorted, double q);

[[nodiscard]] double median(std::span<const double> xs);

/// Full summary in one pass (plus a sort for the order statistics).
[[nodiscard]] Summary summarize(std::span<const double> xs);

/// Pearson correlation of two equal-length samples. Returns 0 when either
/// side has zero variance. Throws on length mismatch.
[[nodiscard]] double correlation(std::span<const double> xs, std::span<const double> ys);

/// Deviation of `measured` from a `baseline`, the metric Table 2 of the
/// paper reports ("Variation"). With a nonzero baseline the deviation is
/// relative: `value` is |measured-baseline| / |baseline| as a percentage
/// and `absolute` is false. A zero baseline makes a relative measure
/// meaningless, so the deviation is then the absolute difference
/// |measured| in the quantity's own unit and `absolute` is true; 0 vs 0
/// is no deviation (0%, relative).
struct Variation {
    double value = 0.0;
    bool absolute = false;
};

[[nodiscard]] Variation variation(double measured, double baseline) noexcept;

/// Shim over variation(): returns just `.value` — a percentage for
/// nonzero baselines, the absolute deviation for zero baselines. Callers
/// that can meet a zero baseline should use variation() and check
/// `.absolute` instead of interpreting this as a percentage.
[[nodiscard]] double variation_pct(double measured, double baseline) noexcept;

}  // namespace kooza::stats
