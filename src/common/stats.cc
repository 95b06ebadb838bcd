#include "common/stats.hh"

#include <algorithm>

#include "common/logging.hh"

namespace thermctl
{

// ---------------------------------------------------------------- Accumulator

void
Accumulator::add(double x)
{
    ++count_;
    mean_ += (x - mean_) / static_cast<double>(count_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
}

void
Accumulator::reset()
{
    *this = Accumulator();
}

double
Accumulator::min() const
{
    return count_ ? min_ : 0.0;
}

double
Accumulator::max() const
{
    return count_ ? max_ : 0.0;
}

// -------------------------------------------------------------- BoxcarAverage

BoxcarAverage::BoxcarAverage(std::size_t window)
{
    if (window == 0)
        fatal("BoxcarAverage window must be positive");
    buf_.assign(window, 0.0);
}

void
BoxcarAverage::add(double x)
{
    if (filled_ == buf_.size()) {
        sum_ -= buf_[head_];
    } else {
        ++filled_;
    }
    buf_[head_] = x;
    head_ = (head_ + 1) % buf_.size();
    sum_ += x;
    if (++adds_since_resum_ >= (1u << 20)) {
        resum();
        adds_since_resum_ = 0;
    }
}

void
BoxcarAverage::resum()
{
    double s = 0.0;
    for (std::size_t i = 0; i < filled_; ++i)
        s += buf_[(head_ + buf_.size() - 1 - i) % buf_.size()];
    sum_ = s;
}

double
BoxcarAverage::average() const
{
    if (filled_ == 0)
        return 0.0;
    return sum_ / static_cast<double>(filled_);
}

void
BoxcarAverage::reset()
{
    std::fill(buf_.begin(), buf_.end(), 0.0);
    head_ = 0;
    filled_ = 0;
    sum_ = 0.0;
    adds_since_resum_ = 0;
}

// ------------------------------------------------------------------ Histogram

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), counts_(bins, 0)
{
    if (!(hi > lo))
        fatal("Histogram range must satisfy hi > lo");
    if (bins == 0)
        fatal("Histogram needs at least one bin");
}

void
Histogram::add(double x)
{
    ++total_;
    if (x < lo_) {
        ++underflow_;
        return;
    }
    if (x >= hi_) {
        ++overflow_;
        return;
    }
    auto bin = static_cast<std::size_t>(
        (x - lo_) / (hi_ - lo_) * static_cast<double>(counts_.size()));
    bin = std::min(bin, counts_.size() - 1);
    ++counts_[bin];
}

double
Histogram::binLow(std::size_t bin) const
{
    return lo_ + (hi_ - lo_) * static_cast<double>(bin)
        / static_cast<double>(counts_.size());
}

double
Histogram::quantile(double q) const
{
    if (total_ == 0)
        return lo_;
    q = std::clamp(q, 0.0, 1.0);
    const double target = q * static_cast<double>(total_);
    double running = static_cast<double>(underflow_);
    if (running >= target && underflow_ > 0)
        return lo_;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        const double next = running + static_cast<double>(counts_[i]);
        if (next >= target && counts_[i] > 0) {
            const double frac =
                (target - running) / static_cast<double>(counts_[i]);
            return binLow(i) + frac * (binLow(i + 1) - binLow(i));
        }
        running = next;
    }
    return hi_;
}

} // namespace thermctl
