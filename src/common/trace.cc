#include "common/trace.hh"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace nvdimmc::trace
{

namespace detail
{

namespace
{

enum class Kind : std::uint8_t
{
    Duration,
    Instant,
    Counter,
    AsyncBegin, ///< ph "b" — overlapping span lane, paired by id.
    AsyncEnd,   ///< ph "e".
    FlowStart,  ///< ph "s" — arrow chain start, paired by id.
    FlowStep,   ///< ph "t".
    FlowEnd,    ///< ph "f".
};

struct Rec
{
    Kind kind;
    std::uint32_t track;
    const char* name;
    Tick start;
    Tick end;         ///< Duration events only.
    double value;     ///< Counter events only.
    std::uint64_t id; ///< Async/flow pairing id.
};

struct Capture
{
    std::string path;
    std::vector<Rec> recs;
    /** Track name -> tid (1-based; 0 is the metadata pseudo-track). */
    std::unordered_map<std::string, std::uint32_t> tracks;
    std::vector<std::string> trackNames;
    std::uint64_t dropped = 0;
    std::uint64_t maxEvents = kDefaultMaxEvents;
};

thread_local std::unique_ptr<Capture> gCapture;

std::uint32_t
trackId(Capture& cap, const char* name)
{
    auto it = cap.tracks.find(name);
    if (it != cap.tracks.end())
        return it->second;
    auto id = static_cast<std::uint32_t>(cap.trackNames.size() + 1);
    cap.tracks.emplace(name, id);
    cap.trackNames.emplace_back(name);
    return id;
}

bool
push(Capture& cap, Rec rec)
{
    if (cap.recs.size() >= cap.maxEvents) {
        ++cap.dropped;
        return false;
    }
    cap.recs.push_back(rec);
    return true;
}

/** Picosecond ticks as fractional Chrome microseconds ("123.000456"). */
void
writeTs(std::ostream& os, Tick t)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%llu.%06llu",
                  static_cast<unsigned long long>(t / kUs),
                  static_cast<unsigned long long>(t % kUs));
    os << buf;
}

void
writeEscaped(std::ostream& os, const char* s)
{
    for (; *s; ++s) {
        if (*s == '"' || *s == '\\')
            os << '\\';
        os << *s;
    }
}

} // namespace

// The record calls run only while enabled(), which start() and stop()
// keep in step with this thread's capture.

void
recordDuration(const char* track, const char* name, Tick start,
               Tick end)
{
    push(*gCapture, {Kind::Duration, trackId(*gCapture, track), name,
                     start, std::max(start, end), 0.0, 0});
}

void
recordInstant(const char* track, const char* name, Tick at)
{
    push(*gCapture, {Kind::Instant, trackId(*gCapture, track), name,
                     at, at, 0.0, 0});
}

void
recordCounter(const char* track, const char* series, Tick at,
              double value)
{
    push(*gCapture, {Kind::Counter, trackId(*gCapture, track), series,
                     at, at, value, 0});
}

void
recordAsync(const char* track, const char* name, Tick at,
            std::uint64_t id, bool begin)
{
    push(*gCapture, {begin ? Kind::AsyncBegin : Kind::AsyncEnd,
                     trackId(*gCapture, track), name, at, at, 0.0,
                     id});
}

void
recordFlow(const char* track, const char* name, Tick at,
           std::uint64_t id, int step)
{
    Kind kind = step == 0   ? Kind::FlowStart
                : step == 1 ? Kind::FlowStep
                            : Kind::FlowEnd;
    push(*gCapture,
         {kind, trackId(*gCapture, track), name, at, at, 0.0, id});
}

} // namespace detail

void
start(std::string path, std::uint64_t maxEvents)
{
    detail::gCapture = std::make_unique<detail::Capture>();
    detail::gCapture->path = std::move(path);
    detail::gCapture->maxEvents =
        maxEvents > 0 ? maxEvents : kDefaultMaxEvents;
    detail::gEnabled = true;
}

bool
stop()
{
    detail::gEnabled = false;
    std::unique_ptr<detail::Capture> cap = std::move(detail::gCapture);
    if (!cap)
        return false;

    std::ofstream os(cap->path);
    if (!os) {
        warn("trace: cannot write ", cap->path);
        return false;
    }
    os.precision(17);

    os << "[\n"
          "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,"
          "\"tid\":0,\"args\":{\"name\":\"nvdimmc-sim\"}}";
    for (std::size_t i = 0; i < cap->trackNames.size(); ++i) {
        os << ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
              "\"tid\":"
           << (i + 1) << ",\"args\":{\"name\":\"";
        detail::writeEscaped(os, cap->trackNames[i].c_str());
        os << "\"}}";
        // Keep Perfetto's track order stable by track id.
        os << ",\n{\"name\":\"thread_sort_index\",\"ph\":\"M\","
              "\"pid\":0,\"tid\":"
           << (i + 1) << ",\"args\":{\"sort_index\":" << (i + 1)
           << "}}";
    }

    for (const detail::Rec& r : cap->recs) {
        os << ",\n{\"name\":\"";
        if (r.kind == detail::Kind::Counter) {
            // Counter series attach per (pid, name): qualify with the
            // track so e.g. "imc.rdq" and "nvmc.dma.bytes" stay apart.
            detail::writeEscaped(os, cap->trackNames[r.track - 1].c_str());
            os << '.';
        }
        detail::writeEscaped(os, r.name);
        os << "\",\"pid\":0,\"tid\":" << r.track << ",\"ts\":";
        detail::writeTs(os, r.start);
        switch (r.kind) {
          case detail::Kind::Duration:
            os << ",\"ph\":\"X\",\"dur\":";
            detail::writeTs(os, r.end - r.start);
            break;
          case detail::Kind::Instant:
            os << ",\"ph\":\"i\",\"s\":\"t\"";
            break;
          case detail::Kind::Counter:
            os << ",\"ph\":\"C\",\"args\":{\"value\":" << r.value
               << '}';
            break;
          case detail::Kind::AsyncBegin:
          case detail::Kind::AsyncEnd:
            os << ",\"ph\":\""
               << (r.kind == detail::Kind::AsyncBegin ? 'b' : 'e')
               << "\",\"cat\":\"span\",\"id\":\"0x" << std::hex
               << r.id << std::dec << '"';
            break;
          case detail::Kind::FlowStart:
          case detail::Kind::FlowStep:
          case detail::Kind::FlowEnd:
            os << ",\"ph\":\""
               << (r.kind == detail::Kind::FlowStart   ? 's'
                   : r.kind == detail::Kind::FlowStep ? 't'
                                                      : 'f')
               << "\",\"cat\":\"spanflow\",\"id\":\"0x" << std::hex
               << r.id << std::dec << '"';
            if (r.kind == detail::Kind::FlowEnd)
                os << ",\"bp\":\"e\"";
            break;
        }
        os << '}';
    }
    os << "\n]\n";

    if (cap->dropped > 0) {
        warn("trace: capture hit the ", cap->maxEvents,
             "-event cap; dropped ", cap->dropped,
             " events (the written trace is truncated; raise it via"
             " --trace-max-events=)");
    }
    return static_cast<bool>(os);
}

std::uint64_t
eventCount()
{
    return detail::gCapture ? detail::gCapture->recs.size() : 0;
}

std::uint64_t
droppedCount()
{
    return detail::gCapture ? detail::gCapture->dropped : 0;
}

std::uint64_t
maxEvents()
{
    return detail::gCapture ? detail::gCapture->maxEvents : 0;
}

} // namespace nvdimmc::trace
