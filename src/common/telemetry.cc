#include "common/telemetry.hh"

#include <deque>
#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "common/logging.hh"
#include "common/trace.hh"

namespace nvdimmc::telemetry
{

void
enable()
{
    detail::gEnabled = true;
}

void
disable()
{
    detail::gEnabled = false;
}

Tick
defaultInterval(Tick trefi)
{
    return trefi > 0 ? trefi * 4 : nsToTicks(7800) * 4;
}

namespace
{

/** The tracer stores event names as raw `const char*`, so dynamic
 *  probe names must outlive the capture: intern them for the life of
 *  the thread, which owns the capture too. */
const char*
internedName(const std::string& s)
{
    thread_local std::set<std::string> pool;
    return pool.insert(s).first->c_str();
}

} // namespace

// ---------------------------------------------------------- collector

struct Collector::Probe
{
    enum class Kind : std::uint8_t
    {
        Gauge,
        Delta,
        RatioPermille,
    };

    Kind kind;
    std::function<std::uint64_t()> get;
    std::function<std::uint64_t()> den; ///< RatioPermille only.
    std::uint64_t last = 0;             ///< Delta/ratio numerator.
    std::uint64_t lastDen = 0;          ///< Ratio denominator.
};

class Collector::SampleEvent final : public Event
{
  public:
    explicit SampleEvent(Collector& c) : c_(c) {}

    void process() override
    {
        c_.sample();
        if (c_.running_)
            c_.eq_.schedule(*this, c_.eq_.now() + c_.interval_);
    }

    const char* name() const override { return "telemetry.sample"; }

  private:
    Collector& c_;
};

Collector::Collector(EventQueue& eq, Tick interval)
    : eq_(eq), interval_(interval),
      event_(std::make_unique<SampleEvent>(*this))
{
    NVDC_ASSERT(interval_ > 0, "telemetry interval must be positive");
}

Collector::~Collector()
{
    stop();
}

void
Collector::addGauge(std::string name, std::function<std::uint64_t()> get)
{
    names_.push_back(std::move(name));
    probes_.push_back({Probe::Kind::Gauge, std::move(get), {}, 0, 0});
}

void
Collector::addDelta(std::string name, std::function<std::uint64_t()> get)
{
    names_.push_back(std::move(name));
    probes_.push_back({Probe::Kind::Delta, std::move(get), {}, 0, 0});
}

void
Collector::addRatioPermille(std::string name,
                            std::function<std::uint64_t()> num,
                            std::function<std::uint64_t()> den)
{
    names_.push_back(std::move(name));
    probes_.push_back({Probe::Kind::RatioPermille, std::move(num),
                       std::move(den), 0, 0});
}

void
Collector::start()
{
    if (running_)
        return;
    running_ = true;
    // Baseline cumulative counters so the first interval's deltas
    // cover [now, now + interval) and not all of history.
    for (auto& p : probes_) {
        if (p.kind == Probe::Kind::Gauge)
            continue;
        p.last = p.get();
        if (p.kind == Probe::Kind::RatioPermille)
            p.lastDen = p.den();
    }
    eq_.schedule(*event_, eq_.now() + interval_);
}

void
Collector::stop()
{
    running_ = false;
    if (event_ && event_->scheduled())
        eq_.deschedule(*event_);
}

void
Collector::sample()
{
    const Tick now = eq_.now();
    IntervalRecord rec;
    rec.at = now;
    rec.index = records_.size() + 1;
    rec.values.reserve(probes_.size());
    for (auto& p : probes_) {
        std::uint64_t v = 0;
        switch (p.kind) {
          case Probe::Kind::Gauge:
            v = p.get();
            break;
          case Probe::Kind::Delta: {
            std::uint64_t cur = p.get();
            v = cur - p.last;
            p.last = cur;
            break;
          }
          case Probe::Kind::RatioPermille: {
            std::uint64_t num = p.get();
            std::uint64_t den = p.den();
            std::uint64_t dn = num - p.last;
            std::uint64_t dd = den - p.lastDen;
            p.last = num;
            p.lastDen = den;
            v = dd == 0 ? 0 : dn * 1000 / dd;
            break;
          }
        }
        rec.values.push_back(v);
    }

    std::array<Histogram, span::kClassCount> hist;
    span::drainWindow(hist);
    for (std::uint32_t c = 0; c < span::kClassCount; ++c) {
        WindowDigest& d = rec.window[c];
        const Histogram& h = hist[c];
        d.count = h.count();
        d.sumPs = h.sum();
        if (d.count > 0) {
            d.p50 = h.percentile(50.0);
            d.p95 = h.percentile(95.0);
            d.p99 = h.percentile(99.0);
            d.p999 = h.percentile(99.9);
            d.max = h.max();
        }
    }
    rec.spansClosed = span::closedCount();

    if (trace::enabled()) {
        for (std::size_t i = 0; i < probes_.size(); ++i)
            trace::counter("telemetry", internedName(names_[i]), now,
                           static_cast<double>(rec.values[i]));
        for (std::uint32_t c = 0; c < span::kClassCount; ++c) {
            const WindowDigest& d = rec.window[c];
            if (d.count == 0)
                continue;
            const char* cls =
                span::toString(static_cast<span::OpClass>(c));
            trace::counter(
                "slo", internedName(std::string(cls) + ".p99_us"),
                now, static_cast<double>(d.p99) / kUs);
            trace::counter(
                "slo", internedName(std::string(cls) + ".count"),
                now, static_cast<double>(d.count));
        }
    }

    if (flightArmed()) {
        std::ostringstream line;
        writeRecord(line, rec);
        flightRecordInterval(line.str());
    }

    records_.push_back(std::move(rec));
}

void
Collector::writeRecord(std::ostream& os,
                       const IntervalRecord& rec) const
{
    os << "{\"t\":" << rec.at << ",\"i\":" << rec.index
       << ",\"spans\":" << rec.spansClosed << ",\"v\":{";
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (i)
            os << ',';
        os << '"' << names_[i] << "\":" << rec.values[i];
    }
    os << "},\"win\":{";
    for (std::uint32_t c = 0; c < span::kClassCount; ++c) {
        const WindowDigest& d = rec.window[c];
        if (c)
            os << ',';
        os << '"' << span::toString(static_cast<span::OpClass>(c))
           << "\":{\"n\":" << d.count << ",\"p50\":" << d.p50
           << ",\"p95\":" << d.p95 << ",\"p99\":" << d.p99
           << ",\"p999\":" << d.p999 << ",\"max\":" << d.max
           << ",\"sum_ps\":" << d.sumPs << '}';
    }
    os << "}}";
}

void
Collector::writeJsonl(std::ostream& os,
                      const std::string& label) const
{
    os << "{\"bench\":\"" << label
       << "\",\"_meta\":{\"schema_version\":" << kSchemaVersion
       << ",\"interval_ps\":" << interval_ << ",\"probes\":[";
    for (std::size_t i = 0; i < names_.size(); ++i) {
        if (i)
            os << ',';
        os << '"' << names_[i] << '"';
    }
    os << "]}}\n";
    for (const auto& rec : records_) {
        writeRecord(os, rec);
        os << '\n';
    }
}

// ----------------------------------------------------- flight recorder

namespace
{

struct FlightState
{
    bool armed = false;
    std::string path;
    std::size_t spanCap = 0;
    std::size_t intervalCap = 0;
    std::deque<FlightSpan> spans;
    std::deque<std::string> intervals;
    std::uint64_t dumps = 0;
};

FlightState&
flight()
{
    thread_local FlightState f;
    return f;
}

} // namespace

void
flightArm(std::string path, std::size_t spanCap,
          std::size_t intervalCap)
{
    flight() = {true, std::move(path), spanCap, intervalCap, {}, {}, 0};
}

void
flightDisarm()
{
    FlightState& f = flight();
    f.armed = false;
    f.spans.clear();
    f.intervals.clear();
}

bool
flightArmed()
{
    return flight().armed;
}

void
flightRecordSpan(std::uint8_t cls, std::uint32_t channel,
                 Tick openedAt, Tick closedAt, Tick e2ePs)
{
    FlightState& f = flight();
    if (!f.armed)
        return;
    f.spans.push_back({cls, channel, openedAt, closedAt, e2ePs});
    if (f.spans.size() > f.spanCap)
        f.spans.pop_front();
}

void
flightRecordInterval(const std::string& jsonLine)
{
    FlightState& f = flight();
    if (!f.armed)
        return;
    f.intervals.push_back(jsonLine);
    if (f.intervals.size() > f.intervalCap)
        f.intervals.pop_front();
}

bool
flightDump(const std::string& reason)
{
    FlightState& f = flight();
    if (!f.armed)
        return false;
    std::ofstream os(f.path);
    if (!os) {
        warn("flight recorder: cannot write ", f.path);
        return false;
    }
    os << "{\"reason\":\"" << reason
       << "\",\"_meta\":{\"schema_version\":" << kSchemaVersion
       << ",\"span_cap\":" << f.spanCap
       << ",\"interval_cap\":" << f.intervalCap << "},\"spans\":[";
    bool first = true;
    for (const auto& s : f.spans) {
        if (!first)
            os << ',';
        first = false;
        os << "{\"cls\":\""
           << span::toString(static_cast<span::OpClass>(s.cls))
           << "\",\"ch\":" << s.channel << ",\"open\":" << s.openedAt
           << ",\"close\":" << s.closedAt << ",\"e2e_ps\":" << s.e2ePs
           << '}';
    }
    os << "],\"intervals\":[";
    first = true;
    for (const auto& line : f.intervals) {
        if (!first)
            os << ',';
        first = false;
        os << line;
    }
    os << "]}\n";
    ++f.dumps;
    return true;
}

std::uint64_t
flightDumpCount()
{
    return flight().dumps;
}

std::vector<FlightSpan>
flightSpans()
{
    return {flight().spans.begin(), flight().spans.end()};
}

} // namespace nvdimmc::telemetry
