#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <functional>

namespace nvdimmc
{

int
Histogram::bucketFor(Tick sample)
{
    if (sample == 0)
        return 0;
    return 64 - __builtin_clzll(sample) - 1;
}

void
Histogram::record(Tick sample)
{
    ++buckets_[static_cast<std::size_t>(bucketFor(sample))];
    ++count_;
    min_ = std::min(min_, sample);
    max_ = std::max(max_, sample);
    sum_ += sample;
}

double
Histogram::mean() const
{
    return count_ ? static_cast<double>(sum_) / static_cast<double>(count_)
                  : 0.0;
}

Tick
Histogram::percentile(double p) const
{
    if (count_ == 0)
        return 0;
    p = std::clamp(p, 0.0, 100.0);
    auto target = static_cast<std::uint64_t>(
        p / 100.0 * static_cast<double>(count_ - 1));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
        if (buckets_[b] == 0)
            continue;
        if (seen + buckets_[b] > target) {
            // Interpolate linearly inside the bucket [2^b, 2^(b+1)).
            // The top bucket's upper edge would be 2^64 — a UB shift
            // on 64-bit Tick — and no recorded sample exceeds max_
            // anyway, so clamp the bucket to it.
            Tick lo = b == 0 ? 0 : (Tick{1} << b);
            Tick hi = b + 1 >= buckets_.size() ? max_
                                               : (Tick{1} << (b + 1));
            hi = std::min(hi, max_);
            double frac = static_cast<double>(target - seen) /
                          static_cast<double>(buckets_[b]);
            auto v = static_cast<Tick>(
                static_cast<double>(lo) +
                frac * static_cast<double>(hi - lo));
            return std::clamp(v, min_, max_);
        }
        seen += buckets_[b];
    }
    return max_;
}

void
Histogram::reset()
{
    buckets_.fill(0);
    count_ = 0;
    min_ = std::numeric_limits<Tick>::max();
    max_ = 0;
    sum_ = 0;
}

void
Histogram::merge(const Histogram& other)
{
    for (std::size_t b = 0; b < buckets_.size(); ++b)
        buckets_[b] += other.buckets_[b];
    count_ += other.count_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    sum_ += other.sum_;
}

void
StatRegistry::add(std::string name, Getter getter)
{
    entries_.emplace_back(std::move(name), std::move(getter));
}

void
StatRegistry::addCounter(std::string name, const Counter& c)
{
    add(std::move(name),
        [&c] { return static_cast<double>(c.value()); });
}

void
StatRegistry::addHistogram(const std::string& name, const Histogram& h)
{
    add(name + ".count",
        [&h] { return static_cast<double>(h.count()); });
    add(name + ".mean", [&h] { return h.mean(); });
    add(name + ".p50",
        [&h] { return static_cast<double>(h.percentile(50)); });
    add(name + ".p99",
        [&h] { return static_cast<double>(h.percentile(99)); });
    add(name + ".max",
        [&h] { return static_cast<double>(h.max()); });
}

void
StatRegistry::dump(std::ostream& os) const
{
    for (const auto& [name, getter] : entries_)
        os << name << " = " << getter() << "\n";
}

void
StatRegistry::dumpJson(std::ostream& os) const
{
    auto prec = os.precision(17);
    os << "{";
    bool first = true;
    for (const auto& [name, getter] : entries_) {
        os << (first ? "\"" : ",\"") << name << "\":";
        // JSON has no NaN/Inf literal; emit null for non-finite.
        double v = getter();
        if (std::isfinite(v))
            os << v;
        else
            os << "null";
        first = false;
    }
    os << "}";
    os.precision(prec);
}

std::vector<std::pair<std::string, double>>
StatRegistry::collect() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(entries_.size());
    for (const auto& [name, getter] : entries_)
        out.emplace_back(name, getter());
    return out;
}

std::string
channelStatName(std::uint32_t ch, std::uint32_t channels,
                const std::string& name)
{
    if (channels == 1)
        return name;
    return "ch" + std::to_string(ch) + "." + name;
}

} // namespace nvdimmc
