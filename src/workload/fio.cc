#include "workload/fio.hh"

#include "common/logging.hh"

namespace nvdimmc::workload
{

FioJob::FioJob(EventQueue& eq, AccessFn access, const FioConfig& cfg)
    : eq_(eq), access_(std::move(access)), cfg_(cfg)
{
    // Offsets are whole blocks and devices move 64 B lines.
    if (cfg.blockSize == 0 || cfg.blockSize % 64 != 0) {
        fatal("FioJob: blockSize ", cfg.blockSize,
              " must be a non-zero multiple of 64");
    }
    NVDC_ASSERT(cfg.regionBytes >= cfg.blockSize,
                "FIO region smaller than one block");
    NVDC_ASSERT(cfg.threads >= 1, "FIO needs at least one thread");
}

Addr
FioJob::pickOffset(unsigned t)
{
    const std::uint64_t blocks = cfg_.regionBytes / cfg_.blockSize;
    switch (cfg_.pattern) {
      case FioConfig::Pattern::RandRead:
      case FioConfig::Pattern::RandWrite:
        return cfg_.regionOffset +
               rngs_[t]->below(blocks) * cfg_.blockSize;
      case FioConfig::Pattern::SeqRead:
      case FioConfig::Pattern::SeqWrite: {
        // Partition the region among threads; wrap within the share.
        std::uint64_t share = cfg_.regionBytes / cfg_.threads;
        share = share / cfg_.blockSize * cfg_.blockSize;
        if (share == 0)
            share = cfg_.blockSize;
        Addr base = cfg_.regionOffset + t * share;
        Addr off = base + seqCursor_[t];
        seqCursor_[t] += cfg_.blockSize;
        if (seqCursor_[t] >= share)
            seqCursor_[t] = 0;
        return off;
      }
    }
    return cfg_.regionOffset;
}

FioResult
FioJob::run()
{
    const bool is_write =
        cfg_.pattern == FioConfig::Pattern::RandWrite ||
        cfg_.pattern == FioConfig::Pattern::SeqWrite;

    rngs_.clear();
    seqCursor_.assign(cfg_.threads, 0);
    opDone_.assign(cfg_.threads, nullptr);
    workers_.clear();
    for (unsigned t = 0; t < cfg_.threads; ++t) {
        rngs_.push_back(std::make_unique<Rng>(cfg_.seed + 17 * t + 1,
                                              0x9e3779b9 + t));
        auto op = [this, t, is_write](
                      std::function<void(std::uint64_t)> op_done) {
            Addr off = pickOffset(t);
            // The worker's op completion waits in its slot, so the
            // access completion is small enough to allocate nothing.
            opDone_[t] = std::move(op_done);
            access_(off, cfg_.blockSize, is_write, [this, t] {
                auto done = std::move(opDone_[t]);
                done(cfg_.blockSize);
            });
        };
        workers_.push_back(std::make_unique<cpu::WorkerThread>(
            eq_, "fio-" + std::to_string(t), std::move(op)));
    }

    for (auto& w : workers_)
        w->start();

    eq_.runFor(cfg_.rampTime);
    for (auto& w : workers_)
        w->resetStats();

    Tick window_start = eq_.now();
    eq_.runFor(cfg_.runTime);
    Tick window = eq_.now() - window_start;

    // Collect before draining so in-flight ops don't pollute the
    // window.
    FioResult res;
    Histogram merged;
    std::uint64_t bytes = 0;
    for (auto& w : workers_) {
        res.ops += w->opsCompleted();
        bytes += w->bytesMoved();
        merged.merge(w->opLatency());
    }
    res.mbps = bytesPerTickToMBps(bytes, window);
    res.kiops = opsPerTickToKiops(res.ops, window);
    res.meanLatency = static_cast<Tick>(merged.mean());
    res.p50 = merged.percentile(50);
    res.p99 = merged.percentile(99);

    // Wind the workers down cleanly.
    for (auto& w : workers_)
        w->stop();
    for (int guard = 0; guard < 10'000'000; ++guard) {
        bool any = false;
        for (auto& w : workers_) {
            if (w->running())
                any = true;
        }
        if (!any)
            break;
        if (!eq_.runOne())
            break;
    }
    workers_.clear();
    return res;
}

} // namespace nvdimmc::workload
