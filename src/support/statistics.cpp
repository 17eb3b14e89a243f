#include "support/statistics.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include <math.h>  // lgamma_r (POSIX)

namespace jat {

void RunningStat::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

void RunningStat::merge(const RunningStat& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

RunningStat RunningStat::from_moments(std::size_t n, double mean, double m2) {
  RunningStat s;
  if (n == 0) return s;
  s.n_ = n;
  s.mean_ = mean;
  s.m2_ = std::max(0.0, m2);
  s.min_ = mean;
  s.max_ = mean;
  return s;
}

double RunningStat::variance() const {
  if (n_ < 2) return 0.0;
  return m2_ / static_cast<double>(n_ - 1);
}

double RunningStat::stddev() const { return std::sqrt(variance()); }

double RunningStat::sem() const {
  if (n_ < 2) return 0.0;
  return stddev() / std::sqrt(static_cast<double>(n_));
}

double median_of(std::vector<double> sample) {
  if (sample.empty()) return 0.0;
  const std::size_t mid = sample.size() / 2;
  std::nth_element(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(mid),
                   sample.end());
  double hi = sample[mid];
  if (sample.size() % 2 == 1) return hi;
  const double lo =
      *std::max_element(sample.begin(), sample.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lo + hi);
}

SampleSummary summarize(const std::vector<double>& sample) {
  SampleSummary s;
  s.count = sample.size();
  if (sample.empty()) return s;

  RunningStat rs;
  for (double x : sample) rs.add(x);
  s.mean = rs.mean();
  s.stddev = rs.stddev();
  s.min = rs.min();
  s.max = rs.max();
  s.median = median_of(sample);

  std::vector<double> dev;
  dev.reserve(sample.size());
  for (double x : sample) dev.push_back(std::abs(x - s.median));
  s.mad = median_of(std::move(dev));

  if (sample.size() >= 2) {
    const double dof = static_cast<double>(sample.size() - 1);
    s.ci95_half = t_critical_95(dof) * rs.sem();
  }
  return s;
}

namespace {

// Coarse 95% t table, kept as the fast seed for the exact inversion below:
// it brackets the root, so the bisection starts within a factor of two of
// the answer instead of from scratch.
double t_critical_95_seed(double dof) {
  struct Entry {
    double dof;
    double t;
  };
  static constexpr Entry kTable[] = {
      {1, 12.706}, {2, 4.303}, {3, 3.182}, {4, 2.776}, {5, 2.571},
      {6, 2.447},  {7, 2.365}, {8, 2.306}, {9, 2.262}, {10, 2.228},
      {12, 2.179}, {15, 2.131}, {20, 2.086}, {25, 2.060}, {30, 2.042},
  };
  if (dof <= 1.0) return kTable[0].t;
  for (std::size_t i = 1; i < std::size(kTable); ++i) {
    if (dof <= kTable[i].dof) {
      const auto& lo = kTable[i - 1];
      const auto& hi = kTable[i];
      const double frac = (dof - lo.dof) / (hi.dof - lo.dof);
      return lo.t + frac * (hi.t - lo.t);
    }
  }
  // Tail toward the normal quantile.
  return 1.96 + (2.042 - 1.96) * (30.0 / dof);
}

// Exact two-sided 95% critical value: the root of
// student_t_two_sided_p(t, dof) = 0.05, which is strictly decreasing in t.
double t_critical_95_exact(double dof) {
  constexpr double kAlpha = 0.05;
  double lo = 0.0;
  double hi = std::max(2.0, 2.0 * t_critical_95_seed(dof));
  while (student_t_two_sided_p(hi, dof) > kAlpha) hi *= 2.0;
  for (int i = 0; i < 200 && hi - lo > 1e-12 * hi; ++i) {
    const double mid = 0.5 * (lo + hi);
    if (student_t_two_sided_p(mid, dof) > kAlpha) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace

double t_critical_95(double dof) {
  if (!(dof >= 1.0)) dof = 1.0;
  // The adaptive stop rule and summarize() evaluate this once per
  // repetition, always at small integer dof; cache those.
  constexpr int kCachedDofs = 64;
  static const auto kCache = [] {
    std::array<double, kCachedDofs + 1> cache{};
    for (int d = 1; d <= kCachedDofs; ++d) {
      cache[static_cast<std::size_t>(d)] = t_critical_95_exact(d);
    }
    return cache;
  }();
  const int idof = static_cast<int>(dof);
  if (static_cast<double>(idof) == dof && idof <= kCachedDofs) {
    return kCache[static_cast<std::size_t>(idof)];
  }
  return t_critical_95_exact(dof);
}

namespace {

// Continued-fraction evaluation of the regularized incomplete beta function
// I_x(a, b) (Lentz's method; cf. Numerical Recipes betacf). Valid for
// x < (a + 1) / (a + b + 2), which the caller guarantees.
double beta_continued_fraction(double a, double b, double x) {
  constexpr int kMaxIterations = 200;
  constexpr double kEpsilon = 1e-14;
  constexpr double kTiny = 1e-300;

  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= kMaxIterations; ++m) {
    const double m2 = 2.0 * m;
    double aa = m * (b - m) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double delta = d * c;
    h *= delta;
    if (std::abs(delta - 1.0) < kEpsilon) break;
  }
  return h;
}

// ln|Γ(x)| without std::lgamma's write to the global `signgam`, which
// races when Welch tests run on several evaluation threads at once.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

// Regularized incomplete beta I_x(a, b) for x in [0, 1].
double regularized_incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double log_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                           a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(log_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

}  // namespace

double student_t_two_sided_p(double t, double dof) {
  if (!(dof > 0.0) || !std::isfinite(t)) return std::isfinite(t) ? 1.0 : 0.0;
  // P(|T| >= |t|) = I_x(dof/2, 1/2) with x = dof / (dof + t^2).
  const double x = dof / (dof + t * t);
  return std::clamp(regularized_incomplete_beta(dof / 2.0, 0.5, x), 0.0, 1.0);
}

WelchResult welch_t_test(const RunningStat& a, const RunningStat& b) {
  WelchResult r;
  if (a.count() < 2 || b.count() < 2) return r;
  const double va = a.variance() / static_cast<double>(a.count());
  const double vb = b.variance() / static_cast<double>(b.count());
  const double denom = std::sqrt(va + vb);
  if (denom <= 0.0) {
    // Zero variance in both samples: means either equal or trivially apart.
    // A genuine infinity (not a large sentinel) keeps downstream output
    // honest: the trace/CSV writers already render non-finite doubles via
    // the "inf"/"-inf" JSONL convention, and student_t_two_sided_p(±inf)
    // agrees that p = 0.
    r.t = (a.mean() == b.mean())
              ? 0.0
              : std::copysign(std::numeric_limits<double>::infinity(),
                              a.mean() - b.mean());
    r.dof = static_cast<double>(a.count() + b.count() - 2);
    r.p_value = (a.mean() == b.mean()) ? 1.0 : 0.0;
    r.significant_at_05 = a.mean() != b.mean();
    return r;
  }
  r.t = (a.mean() - b.mean()) / denom;
  const double na = static_cast<double>(a.count());
  const double nb = static_cast<double>(b.count());
  const double num = (va + vb) * (va + vb);
  const double den = va * va / (na - 1.0) + vb * vb / (nb - 1.0);
  r.dof = den > 0.0 ? num / den : na + nb - 2.0;
  // dof-aware p-value; deciding significance from it keeps the flag and the
  // p-value consistent at small dof, where the normal approximation and the
  // t critical value used to disagree (e.g. |t| = 3 at n = 3).
  r.p_value = student_t_two_sided_p(r.t, r.dof);
  r.significant_at_05 = r.p_value < 0.05;
  return r;
}

double geometric_mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double log_sum = 0.0;
  for (double v : values) {
    // A single non-positive value (a crashed benchmark's speedup is 0)
    // zeroes the whole geometric mean; skipping it would silently inflate
    // the summary.
    if (!(v > 0.0)) return 0.0;
    log_sum += std::log(v);
  }
  return std::exp(log_sum / static_cast<double>(values.size()));
}

}  // namespace jat
