/**
 * @file
 * Media-transport backend conformance suite: every backend behind the
 * MediaBackend seam must satisfy the same contract — miss fills round
 * trip actual bytes, a completed writeback is power-fail durable, and
 * request spans tile exactly into the backend's own phase vocabulary.
 * Runs the same scenarios against the NVDIMM-C CP transport, the
 * CXL.mem hybrid device, and (where the contract applies) the pmem
 * baseline.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "backend/media_backend.hh"
#include "common/span.hh"
#include "core/power.hh"
#include "core/system.hh"
#include "workload/fio.hh"

namespace nvdimmc
{
namespace
{

using core::NvdimmcSystem;
using core::SystemConfig;

SystemConfig
testConfig(backend::BackendKind kind)
{
    SystemConfig cfg = SystemConfig::scaledTest();
    if (kind == backend::BackendKind::CxlHybrid)
        cfg.applyCxlBackend();
    return cfg;
}

void
syncWrite(NvdimmcSystem& sys, Addr off, std::uint32_t len,
          const std::uint8_t* data)
{
    bool done = false;
    sys.driver().write(off, len, data, [&] { done = true; });
    while (!done && sys.eq().runOne()) {
    }
    ASSERT_TRUE(done);
}

void
syncRead(NvdimmcSystem& sys, Addr off, std::uint32_t len,
         std::uint8_t* buf)
{
    bool done = false;
    sys.driver().read(off, len, buf, [&] { done = true; });
    while (!done && sys.eq().runOne()) {
    }
    ASSERT_TRUE(done);
}

class BackendConformance
    : public ::testing::TestWithParam<backend::BackendKind>
{
};

INSTANTIATE_TEST_SUITE_P(
    AllTransports, BackendConformance,
    ::testing::Values(backend::BackendKind::Nvdimmc,
                      backend::BackendKind::CxlHybrid),
    [](const auto& info) {
        return std::string(backend::toString(info.param));
    });

TEST_P(BackendConformance, TraitsMatchTheArchitecture)
{
    NvdimmcSystem sys(testConfig(GetParam()));
    const backend::BackendTraits& t = sys.transport().traits();
    EXPECT_EQ(t.kind, GetParam());
    EXPECT_TRUE(t.hasMissTransport);
    // Both hybrid transports ack a writeback once the device captured
    // the bytes into a power-safe buffer.
    EXPECT_TRUE(t.durableOnAck);
    if (GetParam() == backend::BackendKind::Nvdimmc) {
        EXPECT_TRUE(t.usesRefreshWindows);
        EXPECT_EQ(t.interleaveGranule, 4096u);
        EXPECT_NE(sys.nvmc(), nullptr);
    } else {
        EXPECT_FALSE(t.usesRefreshWindows);
        EXPECT_EQ(t.interleaveGranule, 256u);
        // No CP page to poll: the module-side controller is not built.
        EXPECT_EQ(sys.nvmc(), nullptr);
    }
}

TEST_P(BackendConformance, MissFillRoundTripsThroughTheMedia)
{
    // Working set larger than the cache so every page is written back
    // to the media and filled again through the transport under test.
    NvdimmcSystem sys(testConfig(GetParam()));
    const std::uint32_t slots = sys.layout().slotCount();
    const std::uint64_t pages = slots + 32;
    std::vector<std::uint8_t> buf(4096);

    for (std::uint64_t p = 0; p < pages; ++p) {
        std::fill(buf.begin(), buf.end(),
                  static_cast<std::uint8_t>(p * 7 + 3));
        syncWrite(sys, p * 4096, 4096, buf.data());
    }
    for (std::uint64_t p = 0; p < 64; ++p) {
        std::fill(buf.begin(), buf.end(), 0xEE);
        syncRead(sys, p * 4096, 4096, buf.data());
        auto expect = static_cast<std::uint8_t>(p * 7 + 3);
        ASSERT_EQ(buf[0], expect) << "page " << p;
        ASSERT_EQ(buf[2048], expect) << "page " << p;
        ASSERT_EQ(buf[4095], expect) << "page " << p;
    }
    EXPECT_TRUE(sys.hardwareClean());
}

TEST_P(BackendConformance, CompletedWritebackSurvivesPowerFailure)
{
    // The durableOnAck contract: once the driver's transport op
    // completed, a power failure (with ADR) must not lose the page.
    NvdimmcSystem sys(testConfig(GetParam()));
    std::vector<std::uint8_t> buf(4096, 0x77);
    syncWrite(sys, 5 * 4096, 4096, buf.data());
    sys.eq().runFor(100 * kUs);

    auto report =
        core::simulatePowerFailure(sys, core::PowerFailureScenario{});
    EXPECT_GE(report.pagesDumped, 1u);

    std::vector<std::uint8_t> r(4096, 0);
    bool done = false;
    sys.backend().readPage(5, r.data(), [&] { done = true; });
    while (!done && sys.eq().runOne()) {
    }
    EXPECT_EQ(r[0], 0x77);
    EXPECT_EQ(r[4095], 0x77);
}

TEST_P(BackendConformance, SpanPhasesTileTheEndToEndLatency)
{
    span::enable();
    span::reset();
    {
        NvdimmcSystem sys(testConfig(GetParam()));
        const std::uint32_t slots = sys.layout().slotCount();
        std::vector<std::uint8_t> buf(4096, 0x42);
        // Dirty sweep past the cache size: every class of transport
        // op (fill, writeback, merged) gets exercised and spanned.
        for (std::uint64_t p = 0; p < slots + 16; ++p)
            syncWrite(sys, p * 4096, 4096, buf.data());
        syncRead(sys, 0, 4096, buf.data());
    }
    span::AuditResult a = span::audit();
    EXPECT_TRUE(a.ok()) << "leaked=" << a.leaked
                        << " unattributed=" << a.unattributedSpans
                        << " order=" << a.orderViolations;
    EXPECT_GT(a.closed, 0u);

    std::ostringstream os;
    span::writeBreakdownJson(os);
    std::string json = os.str();
    if (GetParam() == backend::BackendKind::Nvdimmc) {
        // CP transport: ack polling and window DMA, no link phases.
        EXPECT_NE(json.find("\"cp_write\":"), std::string::npos);
        EXPECT_EQ(json.find("\"link_req\":"), std::string::npos);
    } else {
        // CXL transport: link phases appear, the refresh-window wait
        // vanishes (there are no windows to wait for).
        EXPECT_NE(json.find("\"link_req\":"), std::string::npos);
        EXPECT_NE(json.find("\"link_resp\":"), std::string::npos);
        EXPECT_NE(json.find("\"dev_copy\":"), std::string::npos);
        EXPECT_EQ(json.find("\"window_wait\":"), std::string::npos);
        EXPECT_EQ(json.find("\"cp_write\":"), std::string::npos);
    }
    span::reset();
    span::disable();
}

TEST(NvdimmcBackend, ConcurrentCpIndicesCompleteOnceWithTheirOwnPhase)
{
    // Queue depth 2 on one module: two transactions poll their acks on
    // the two CP indices at once, each through the record of its index.
    SystemConfig cfg = testConfig(backend::BackendKind::Nvdimmc);
    cfg.driver.cpQueueDepth = 2;
    NvdimmcSystem sys(cfg);
    backend::TransportOp op;
    op.kind = backend::TransportOp::Kind::Cachefill;

    // A transaction takes a few refresh windows; a lost one must fail
    // the test rather than spin on refresh events forever.
    const Tick limit = sys.eq().now() + 1 * kMs;
    auto run_while = [&sys, limit](auto pending) {
        while (pending() && sys.eq().now() < limit && sys.eq().runOne()) {
        }
    };

    // One transaction alone leaves its index at phase 1.
    std::vector<int> done(3, 0);
    op.dramSlot = 0;
    sys.transport().submit(0, op, [&done] { ++done[0]; });
    run_while([&done] { return !done[0]; });

    // Two at once: one index moves to phase 2, the other to phase 1.
    op.dramSlot = 1;
    sys.transport().submit(0, op, [&done] { ++done[1]; });
    op.dramSlot = 2;
    sys.transport().submit(0, op, [&done] { ++done[2]; });
    run_while([&done] { return !(done[1] && done[2]); });
    sys.run(20 * kUs);
    EXPECT_EQ(done, (std::vector<int>{1, 1, 1}));
    EXPECT_EQ(sys.nvmc()->firmware().stats().commandsAccepted.value(),
              3u);

    // In DRAM, each index holds its own last command, and its ack
    // echoes that command's phase.
    dram::DramDevice& dram = sys.dramDevice();
    std::map<std::uint32_t, std::uint8_t> phase_of_slot;
    for (std::uint32_t i = 0; i < 2; ++i) {
        std::uint8_t cmd_line[64], ack_line[64];
        dram.readBurst(dram.addressMap().decompose(
                           sys.layout().commandAddr(i)),
                       cmd_line);
        dram.readBurst(
            dram.addressMap().decompose(sys.layout().ackAddr(i)),
            ack_line);
        nvmc::CpCommand cmd = nvmc::decodeCpCommand(cmd_line);
        nvmc::CpAck ack = nvmc::decodeCpAck(ack_line);
        EXPECT_EQ(ack.phase, cmd.phase) << "index " << i;
        EXPECT_EQ(ack.status, 1) << "index " << i;
        phase_of_slot[cmd.dramSlot] = cmd.phase;
    }
    EXPECT_EQ(phase_of_slot.size(), 2u);
    EXPECT_EQ(phase_of_slot.count(0), 0u)
        << "slot 0's command was not replaced";
    std::set<std::uint8_t> phases;
    for (auto [slot, phase] : phase_of_slot)
        phases.insert(phase);
    EXPECT_EQ(phases, (std::set<std::uint8_t>{1, 2}));
}

TEST(CxlBackend, FillsAndWritebacksAreCounted)
{
    SystemConfig cfg = testConfig(backend::BackendKind::CxlHybrid);
    NvdimmcSystem sys(cfg);
    const std::uint32_t slots = sys.layout().slotCount();
    std::vector<std::uint8_t> buf(4096, 0x11);
    for (std::uint64_t p = 0; p < slots + 8; ++p)
        syncWrite(sys, p * 4096, 4096, buf.data());
    syncRead(sys, 0, 4096, buf.data());

    std::ostringstream os;
    sys.dumpStats(os);
    std::string stats = os.str();
    EXPECT_NE(stats.find("nvdc.cxl.cachefills"), std::string::npos);
    EXPECT_NE(stats.find("nvdc.cxl.writebacks"), std::string::npos);
    // The CP ack-poll counter belongs to the NVDIMM-C transport only.
    EXPECT_EQ(stats.find("nvdc.ack_polls"), std::string::npos);
}

TEST(CxlBackend, FineInterleaveMultiChannelIntegrity)
{
    // 256 B striping across 2 channels: a 4 KiB slot is spread over
    // both modules' DRAM — only legal because the CXL device copies
    // pages internally. Bytes must still round trip exactly.
    SystemConfig cfg = testConfig(backend::BackendKind::CxlHybrid);
    cfg.channels = 2;
    NvdimmcSystem sys(cfg);
    ASSERT_EQ(sys.hostPort().interleave().granule(), 256u);

    std::map<std::uint64_t, std::uint8_t> model;
    Rng rng(7);
    std::vector<std::uint8_t> buf(4096);
    const std::uint64_t pages = sys.totalSlotCount() + 24;
    for (int op = 0; op < 200; ++op) {
        std::uint64_t page = rng.below(pages);
        if (rng.chance(0.6)) {
            auto fill = static_cast<std::uint8_t>(rng.next() | 1);
            std::fill(buf.begin(), buf.end(), fill);
            syncWrite(sys, page * 4096, 4096, buf.data());
            model[page] = fill;
        } else {
            std::fill(buf.begin(), buf.end(), 0xEE);
            syncRead(sys, page * 4096, 4096, buf.data());
            auto it = model.find(page);
            std::uint8_t expect = it == model.end() ? 0 : it->second;
            ASSERT_EQ(buf[1], expect) << "page " << page;
            ASSERT_EQ(buf[257], expect) << "page " << page;
            ASSERT_EQ(buf[4095], expect) << "page " << page;
        }
    }
    EXPECT_TRUE(sys.hardwareClean());
}

/** One short 2-channel CXL fio run; returns the result line plus the
 *  full text stats dump. */
std::string
cxlRun()
{
    constexpr std::uint32_t channels = 2;
    SystemConfig cfg = testConfig(backend::BackendKind::CxlHybrid);
    cfg.channels = channels;
    NvdimmcSystem sys(cfg);
    const std::uint32_t slots = sys.totalSlotCount();
    const std::uint32_t pages = slots - 64 * channels;
    sys.precondition(0, pages, true);

    workload::FioConfig fio;
    fio.pattern = workload::FioConfig::Pattern::RandWrite;
    fio.blockSize = 4096;
    fio.threads = 2;
    fio.regionBytes = std::uint64_t{pages} * 4096;
    fio.rampTime = 50 * kUs;
    fio.runTime = 500 * kUs;
    fio.seed = 42;
    workload::AccessFn fn = [&sys](Addr off, std::uint32_t len,
                                   bool is_write,
                                   std::function<void()> done) {
        if (is_write)
            sys.driver().write(off, len, nullptr, std::move(done));
        else
            sys.driver().read(off, len, nullptr, std::move(done));
    };
    workload::FioJob job(sys.eq(), fn, fio);
    workload::FioResult res = job.run();

    EXPECT_TRUE(sys.hardwareClean());
    std::ostringstream os;
    os.precision(17);
    os << res.mbps << " " << res.kiops << " " << res.ops << "\n";
    sys.dumpStats(os);
    return os.str();
}

TEST(CxlBackend, ByteIdenticalOnRerun)
{
    std::string first = cxlRun();
    EXPECT_EQ(first, cxlRun());
    EXPECT_NE(first.find("nvdc.cxl.cachefills"), std::string::npos);
}

} // namespace
} // namespace nvdimmc
