#include "nvmc/refresh_detector.hh"

#include "common/trace.hh"

namespace nvdimmc::nvmc
{

RefreshDetector::RefreshDetector(EventQueue& eq, Tick tCK,
                                 const Params& p,
                                 RefreshCallback on_refresh)
    : eq_(eq), tCK_(tCK), params_(p), onRefresh_(std::move(on_refresh)),
      rng_(kSeed)
{
}

void
RefreshDetector::observeFrame(const dram::CaFrame& frame, Tick now)
{
    stats_.framesObserved.inc();

    dram::Ddr4Command cmd = dram::decodeFrame(frame);

    bool is_ref = cmd.op == dram::Ddr4Op::Refresh;
    if (cmd.op == dram::Ddr4Op::SelfRefreshEnter ||
        cmd.op == dram::Ddr4Op::SelfRefreshExit) {
        stats_.selfRefreshIgnored.inc();
    }

    // Electrical fault injection.
    if (is_ref && params_.missRate > 0.0 &&
        rng_.chance(params_.missRate)) {
        stats_.injectedMisses.inc();
        trace::instant("nvmc.detector", "miss", now);
        is_ref = false;
    } else if (!is_ref && params_.falseRate > 0.0 &&
               rng_.chance(params_.falseRate)) {
        stats_.injectedFalsePositives.inc();
        trace::instant("nvmc.detector", "false-positive", now);
        is_ref = true;
    }

    if (!is_ref)
        return;

    stats_.refreshesDetected.inc();
    trace::instant("nvmc.detector", "detected", now);
    // The decoded result becomes available after the deserializer
    // pipeline; the window math is relative to the command tick.
    eq_.schedule(now + detectionLatency(), [this, now] {
        if (onRefresh_)
            onRefresh_(now);
    });
}

} // namespace nvdimmc::nvmc
