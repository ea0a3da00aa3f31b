/**
 * @file
 * Host iMC tests: scheduling, data integrity, WPQ semantics, refresh
 * generation with programmable registers, and the bulk model.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <functional>
#include <numeric>
#include <string>
#include <vector>

#include "bus/memory_bus.hh"
#include "common/event_queue.hh"
#include "imc/host_port.hh"
#include "imc/imc.hh"
#include "imc/scheduler.hh"

namespace nvdimmc::imc
{
namespace
{

using dram::Ddr4Op;

/** A lone iMC's schedule: @p regs on @p dev at phase 0. */
dram::RefreshSchedule
loneSchedule(const dram::DramDevice& dev,
             dram::RefreshRegisters regs = dram::RefreshRegisters::standard())
{
    return dram::RefreshSchedule::make(regs, dev.timing().tRFC, 0);
}

struct ImcFixture : public ::testing::Test
{
    ImcFixture()
        : map(16 * kMiB),
          dev(map, dram::Ddr4Timing::ddr4_1600(), true, false),
          bus(eq, dev, false)
    {
    }

    Imc&
    makeImc(ImcConfig cfg = {},
            dram::RefreshRegisters regs = dram::RefreshRegisters::standard())
    {
        imc = std::make_unique<Imc>(eq, bus, cfg, loneSchedule(dev, regs));
        return *imc;
    }

    /** The array's bytes at @p line, bypassing the controller. */
    std::array<std::uint8_t, 64>
    arrayLine(Addr line) const
    {
        std::array<std::uint8_t, 64> b{};
        dev.readBurst(map.decompose(line), b.data());
        return b;
    }

    /**
     * Post a write of @p first bytes, then one of @p second bytes, to
     * @p line, and step events until both write CAS have issued but
     * neither burst has landed: both stores then live only in the
     * controller's in-flight bursts.
     */
    void
    issueTwoWritesToOneLine(Imc& m, Addr line, std::uint8_t first,
                            std::uint8_t second)
    {
        const std::array<std::uint8_t, 64> before = arrayLine(line);
        const std::uint64_t cas_before = dev.stats().writes.value();
        std::array<std::uint8_t, 64> a{}, b{};
        a.fill(first);
        b.fill(second);
        ASSERT_TRUE(m.writeLine(line, a.data(), nullptr));
        ASSERT_TRUE(m.writeLine(line, b.data(), nullptr));
        while (dev.stats().writes.value() < cas_before + 2 &&
               eq.runOne()) {
        }
        ASSERT_EQ(dev.stats().writes.value(), cas_before + 2);
        ASSERT_EQ(m.wpqDepth(), 0u);
        ASSERT_EQ(arrayLine(line), before) << "a burst already landed";
    }

    EventQueue eq;
    dram::AddressMap map;
    dram::DramDevice dev;
    bus::MemoryBus bus;
    std::unique_ptr<Imc> imc;
};

TEST_F(ImcFixture, WriteThenReadReturnsData)
{
    Imc& m = makeImc();
    std::array<std::uint8_t, 64> w{}, r{};
    for (int i = 0; i < 64; ++i)
        w[static_cast<std::size_t>(i)] = static_cast<std::uint8_t>(i + 1);

    bool read_done = false;
    ASSERT_TRUE(m.writeLine(0x1000, w.data(), nullptr));
    // Drain the WPQ before reading so we exercise the array path, not
    // just forwarding.
    eq.runFor(5 * kUs);
    ASSERT_TRUE(m.readLine(0x1000, r.data(), [&] { read_done = true; }));
    eq.runFor(5 * kUs);
    ASSERT_TRUE(read_done);
    EXPECT_EQ(std::memcmp(w.data(), r.data(), 64), 0);
}

TEST_F(ImcFixture, WpqForwardsYoungestData)
{
    Imc& m = makeImc();
    std::array<std::uint8_t, 64> w1{}, w2{}, r{};
    w1.fill(0x11);
    w2.fill(0x22);
    ASSERT_TRUE(m.writeLine(0x2000, w1.data(), nullptr));
    ASSERT_TRUE(m.writeLine(0x2000, w2.data(), nullptr));
    bool done = false;
    ASSERT_TRUE(m.readLine(0x2000, r.data(), [&] { done = true; }));
    EXPECT_GE(m.stats().wpqForwards.value(), 1u);
    eq.runFor(1 * kUs);
    ASSERT_TRUE(done);
    EXPECT_EQ(r[0], 0x22);
}

TEST_F(ImcFixture, PostedWritesCompleteImmediately)
{
    Imc& m = makeImc();
    bool posted = false;
    ASSERT_TRUE(m.writeLine(0x3000, nullptr, [&] { posted = true; }));
    EXPECT_TRUE(posted) << "writes are posted at WPQ acceptance";
}

TEST_F(ImcFixture, ReadLatencyIsRealistic)
{
    Imc& m = makeImc();
    bool done = false;
    Tick start = eq.now();
    Tick finish = 0;
    ASSERT_TRUE(m.readLine(0x4000, nullptr, [&] {
        done = true;
        finish = eq.now();
    }));
    eq.runFor(2 * kUs);
    ASSERT_TRUE(done);
    Tick lat = finish - start;
    const auto& t = dev.timing();
    // At least ACT + tRCD + tCL + burst; at most a microsecond idle.
    EXPECT_GE(lat, t.tRCD + t.tCL);
    EXPECT_LE(lat, 1 * kUs);
}

TEST_F(ImcFixture, RefreshCadenceFollowsTrefi)
{
    Imc& m = makeImc({}, dram::RefreshRegisters::nvdimmc());
    eq.runFor(10 * m.refresh().tREFI() + kUs);
    // ~10 refreshes in 10 tREFI.
    EXPECT_GE(dev.refreshCount(), 9u);
    EXPECT_LE(dev.refreshCount(), 11u);
}

TEST_F(ImcFixture, RefreshIssuesPreaWhenBanksOpen)
{
    Imc& m = makeImc();
    // Generate some open-bank traffic right before the refresh due.
    for (int i = 0; i < 8; ++i)
        m.readLine(static_cast<Addr>(i) * 8192 * 16, nullptr, nullptr);
    eq.runFor(m.refresh().tREFI() + kUs);
    EXPECT_GE(dev.stats().prechargeAlls.value(), 1u);
    EXPECT_GE(dev.refreshCount(), 1u);
    EXPECT_EQ(dev.stats().violations.value(), 0u);
}

TEST_F(ImcFixture, ProgrammedTrfcBlocksHost)
{
    Imc& m = makeImc({}, dram::RefreshRegisters::nvdimmc()); // 1250 ns.
    eq.runFor(m.refresh().tREFI() + 10 * kNs);
    ASSERT_GE(dev.refreshCount(), 1u);
    Tick ref_at = m.lastRefreshAt();
    EXPECT_EQ(m.blockedUntil(), ref_at + 1250 * kNs);

    // A read submitted during the blackout completes only after it.
    bool done = false;
    Tick finish = 0;
    m.readLine(0, nullptr, [&] {
        done = true;
        finish = eq.now();
    });
    eq.runFor(5 * kUs);
    ASSERT_TRUE(done);
    EXPECT_GE(finish, m.blockedUntil());
}

TEST_F(ImcFixture, QueueBackpressure)
{
    ImcConfig cfg;
    cfg.readQueueCap = 4;
    Imc& m = makeImc(cfg);
    int accepted = 0;
    for (int i = 0; i < 10; ++i) {
        if (m.readLine(static_cast<Addr>(i) * 64, nullptr, nullptr))
            ++accepted;
    }
    EXPECT_LE(accepted, 5); // Cap + possibly one issued immediately.
    bool space_seen = false;
    m.whenSpace(SpaceFor::Read, [&] { space_seen = true; });
    eq.runFor(2 * kUs);
    EXPECT_TRUE(space_seen);
}

TEST_F(ImcFixture, ParkedWritersRetryOnceInParkOrderOnlyWithRoom)
{
    ImcConfig cfg;
    cfg.wpqCap = 4;
    cfg.wpqWatermark = 4;
    Imc& m = makeImc(cfg);
    for (Addr i = 0; i < cfg.wpqCap; ++i)
        ASSERT_TRUE(m.writeLine(i * 64, nullptr, nullptr));

    // A retry the WPQ rejects re-parks, so it would be logged twice.
    const int n = 12;
    std::vector<int> order;
    int rejected = 0;
    std::function<void(int)> park = [&](int i) {
        m.whenSpace(SpaceFor::Write, [&, i] {
            order.push_back(i);
            if (!m.writeLine(0x10000 + static_cast<Addr>(i) * 64, nullptr,
                             nullptr)) {
                ++rejected;
                park(i);
            }
        });
    };
    for (int i = 0; i < n; ++i)
        park(i);
    eq.runFor(5 * kUs);

    std::vector<int> expected(n);
    std::iota(expected.begin(), expected.end(), 0);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(rejected, 0) << "a writer was retried on a full WPQ";
    EXPECT_EQ(m.stats().writesAccepted.value(), cfg.wpqCap + n);
}

TEST_F(ImcFixture, WriterThatParksAgainKeepsItsPlace)
{
    // A copy's retry stores lines until the WPQ rejects one, then
    // parks again. It is still the oldest waiter, so the one-line
    // writers parked behind it are not called until it has finished.
    ImcConfig cfg;
    cfg.wpqCap = 2;
    cfg.wpqWatermark = 2;
    Imc& m = makeImc(cfg);
    ASSERT_TRUE(m.writeLine(0x0, nullptr, nullptr));
    ASSERT_TRUE(m.writeLine(0x40, nullptr, nullptr));

    std::string log;
    Addr copy_next = 0x10000;
    const Addr copy_end = copy_next + 6 * 64;
    std::function<void()> copy = [&] {
        m.whenSpace(SpaceFor::Write, [&] {
            log += "C";
            while (copy_next < copy_end &&
                   m.writeLine(copy_next, nullptr, nullptr))
                copy_next += 64;
            if (copy_next < copy_end)
                copy();
        });
    };
    copy();
    for (int id = 1; id <= 2; ++id) {
        m.whenSpace(SpaceFor::Write, [&, id] {
            log += std::to_string(id);
            EXPECT_TRUE(m.writeLine(0x20000 + static_cast<Addr>(id) * 64,
                                    nullptr, nullptr));
        });
    }
    eq.runFor(5 * kUs);

    EXPECT_EQ(copy_next, copy_end);
    ASSERT_GE(log.size(), 4u) << "the copy should have parked again";
    EXPECT_EQ(log, std::string(log.size() - 2, 'C') + "12");
}

TEST_F(ImcFixture, ReadAndWriteWaitersKeepTheirParkOrder)
{
    ImcConfig cfg;
    cfg.readQueueCap = 1;
    cfg.wpqCap = 1;
    cfg.wpqWatermark = 1;
    Imc& m = makeImc(cfg);
    ASSERT_TRUE(m.readLine(0x0, nullptr, nullptr));
    ASSERT_TRUE(m.writeLine(0x40, nullptr, nullptr));

    // Every retry call is logged: "R2-" is reader 2 re-parking, "W1+"
    // writer 1 accepted. Reader 2 re-parks on its first retry even if
    // the read queue has room.
    std::string log;
    int r2_calls = 0;
    std::function<void(int, SpaceFor)> park = [&](int id, SpaceFor q) {
        m.whenSpace(q, [&, id, q] {
            Addr line = 0x1000 + static_cast<Addr>(id) * 64;
            bool ok;
            if (q == SpaceFor::Read)
                ok = !(id == 2 && r2_calls++ == 0) &&
                     m.readLine(line, nullptr, nullptr);
            else
                ok = m.writeLine(line, nullptr, nullptr);
            log += (q == SpaceFor::Read ? "R" : "W") +
                   std::to_string(id) + (ok ? "+ " : "- ");
            if (!ok)
                park(id, q);
        });
    };
    for (int id = 0; id < 6; ++id)
        park(id, id % 2 == 0 ? SpaceFor::Read : SpaceFor::Write);
    eq.runFor(5 * kUs);
    // Three frees. Each walks the waiters in park order; a re-parked
    // reader keeps its place ahead of later ones, and writers 3 and 5
    // are passed over, not called, while the WPQ is full.
    EXPECT_EQ(log, "R0+ W1+ R2- R4- "
                   "R2+ W3+ R4- "
                   "R4+ W5+ ");
}

TEST_F(ImcFixture, ParkedReaderForwardsFromWpqWhileReadQueueIsFull)
{
    ImcConfig cfg;
    cfg.readQueueCap = 1;
    cfg.wpqWatermark = 2;
    Imc& m = makeImc(cfg);
    // Open a row with one drained write; later writes to it are row
    // hits, which a draining scheduler serves before a row-miss read.
    const dram::DramCoord open{0, 0, 0, 0};
    ASSERT_TRUE(m.writeLine(map.compose(open), nullptr, nullptr));
    eq.runFor(1 * kUs);
    ASSERT_EQ(m.wpqDepth(), 0u);

    // The read queue's one entry misses the open row, so it waits.
    dram::DramCoord miss = open;
    miss.row = 1;
    ASSERT_TRUE(m.readLine(map.compose(miss), nullptr, nullptr));

    const Addr line = map.compose({1, 0, 0, 0});
    std::array<std::uint8_t, 64> w{}, r{};
    w.fill(0x6b);
    int retries = 0;
    std::size_t rdq_at_retry = 0;
    bool delivered = false;
    std::function<void()> read_line = [&] {
        if (m.readLine(line, r.data(), [&] { delivered = true; }))
            return;
        m.whenSpace(SpaceFor::Read, [&] {
            ++retries;
            rdq_at_retry = m.readQueueDepth();
            read_line();
        });
    };
    read_line(); // Rejected: the queue is full, the line not yet written.
    ASSERT_TRUE(m.writeLine(line, w.data(), nullptr));
    for (std::uint32_t col = 1; col <= 3; ++col) {
        dram::DramCoord hit = open;
        hit.col = col;
        ASSERT_TRUE(m.writeLine(map.compose(hit), nullptr, nullptr));
    }
    eq.runFor(2 * kUs);

    EXPECT_EQ(retries, 1);
    EXPECT_EQ(rdq_at_retry, 1u) << "the read queue should still be full";
    EXPECT_TRUE(delivered);
    EXPECT_EQ(r, w);
    EXPECT_EQ(m.stats().wpqForwards.value(), 1u);
}

TEST_F(ImcFixture, ParkedReaderIsRetriedWhileTheWpqIsFull)
{
    // A store stream that never parks refills the WPQ as soon as a CAS
    // frees its entry, so every free finds the WPQ full. A reader
    // parked on the full read queue must still be retried then.
    ImcConfig cfg;
    cfg.readQueueCap = 1;
    cfg.wpqCap = 1;
    cfg.wpqWatermark = 1;
    Imc& m = makeImc(cfg);
    ASSERT_TRUE(m.readLine(0x0, nullptr, nullptr));

    const Addr line = 0x40;
    Tick first_retry = kTickNever;
    std::size_t wpq_at_first_retry = 0;
    std::function<void()> read_line = [&] {
        if (m.readLine(line, nullptr, nullptr))
            return;
        m.whenSpace(SpaceFor::Read, [&] {
            if (first_retry == kTickNever) {
                first_retry = eq.now();
                wpq_at_first_retry = m.wpqDepth();
            }
            read_line();
        });
    };
    read_line();
    ASSERT_EQ(first_retry, kTickNever);

    const Tick stream_end = 1 * kUs;
    Addr next = 0x100000;
    std::function<void()> stream = [&] {
        if (m.writeLine(next, nullptr, nullptr))
            next += 64;
        if (eq.now() < stream_end)
            eq.scheduleAfter(1 * kNs, stream);
    };
    stream();
    eq.runFor(2 * kUs);

    ASSERT_GT(next, 0x100000 + 4 * 64) << "the stream should keep writing";
    EXPECT_LT(first_retry, stream_end);
    EXPECT_EQ(wpq_at_first_retry, cfg.wpqCap)
        << "the first retry should find the WPQ full";
}

TEST(HostPortSpace, FreesOnOneChannelNeverWakeAnother)
{
    EventQueue eq;
    dram::AddressMap map(16 * kMiB);
    dram::DramDevice dev0(map, dram::Ddr4Timing::ddr4_1600(), true, false);
    dram::DramDevice dev1(map, dram::Ddr4Timing::ddr4_1600(), true, false);
    bus::MemoryBus bus0(eq, dev0, false);
    bus::MemoryBus bus1(eq, dev1, false);
    ImcConfig cfg;
    cfg.readQueueCap = 1;
    cfg.wpqCap = 1;
    cfg.wpqWatermark = 1;
    Imc imc0(eq, bus0, cfg, loneSchedule(dev0));
    cfg.name = "ch1.imc";
    Imc imc1(eq, bus1, cfg, loneSchedule(dev1));
    HostPort port({&imc0, &imc1},
                  dram::ChannelInterleave(
                      2, dram::ChannelInterleave::kPageGranule));
    const Addr ch0 = 0;
    const Addr ch1 = 4096;
    ASSERT_EQ(port.channelOf(ch0), 0u);
    ASSERT_EQ(port.channelOf(ch1), 1u);

    // Channel 1: one read fills its queue; the next line's reader
    // parks until that read completes, its channel's first free.
    Tick ch1_freed_at = kTickNever;
    ASSERT_TRUE(port.readLine(ch1, nullptr,
                              [&] { ch1_freed_at = eq.now(); }));
    ASSERT_FALSE(port.readLine(ch1 + 64, nullptr, nullptr));
    std::vector<Tick> ch1_wakes;
    port.whenSpace(ch1 + 64, SpaceFor::Read, [&] {
        ch1_wakes.push_back(eq.now());
        EXPECT_TRUE(port.readLine(ch1 + 64, nullptr, nullptr));
    });

    // Channel 0: a writer streams eight lines through its one-entry
    // WPQ, freeing it again and again meanwhile.
    std::vector<Tick> ch0_wakes;
    Addr next = 0;
    std::function<void()> pump = [&] {
        while (next < 8 && port.writeLine(ch0 + next * 64, nullptr, nullptr))
            ++next;
        if (next < 8)
            port.whenSpace(ch0 + next * 64, SpaceFor::Write, [&] {
                ch0_wakes.push_back(eq.now());
                pump();
            });
    };
    pump();
    eq.runFor(2 * kUs);

    EXPECT_EQ(next, 8u);
    ASSERT_NE(ch1_freed_at, kTickNever);
    ASSERT_FALSE(ch0_wakes.empty());
    ASSERT_LT(ch0_wakes.front(), ch1_freed_at)
        << "channel 0 must free before channel 1 for this to test anything";
    ASSERT_EQ(ch1_wakes.size(), 1u);
    EXPECT_EQ(ch1_wakes.front(), ch1_freed_at);
}

TEST_F(ImcFixture, WpqDrainsToArray)
{
    Imc& m = makeImc();
    std::array<std::uint8_t, 64> w{};
    w.fill(0x5a);
    ASSERT_TRUE(m.writeLine(0x8000, w.data(), nullptr));
    eq.runFor(10 * kUs);
    EXPECT_EQ(m.wpqDepth(), 0u);
    std::array<std::uint8_t, 64> r{};
    dev.readBurst(map.decompose(0x8000), r.data());
    EXPECT_EQ(r[0], 0x5a);
}

TEST_F(ImcFixture, AdrFlushCommitsWpq)
{
    Imc& m = makeImc();
    std::array<std::uint8_t, 64> w{};
    w.fill(0x77);
    ASSERT_TRUE(m.writeLine(0x9000, w.data(), nullptr));
    // Flush before the scheduler drains it.
    std::size_t flushed = m.adrFlushWpq();
    EXPECT_GE(flushed, 0u);
    std::array<std::uint8_t, 64> r{};
    dev.readBurst(map.decompose(0x9000), r.data());
    EXPECT_EQ(r[0], 0x77);
}

TEST_F(ImcFixture, DropWpqLosesStores)
{
    ImcConfig cfg;
    cfg.wpqWatermark = 64; // Never drain eagerly.
    Imc& m = makeImc(cfg);
    std::array<std::uint8_t, 64> w{};
    w.fill(0x99);
    ASSERT_TRUE(m.writeLine(0xa000, w.data(), nullptr));
    std::size_t lost = m.dropWpq();
    EXPECT_EQ(lost, 1u);
    std::array<std::uint8_t, 64> r{};
    dev.readBurst(map.decompose(0xa000), r.data());
    EXPECT_EQ(r[0], 0x00) << "store must have died in the WPQ";
}

TEST_F(ImcFixture, ThroughputSaturatesNearChannelPeak)
{
    // Stream reads with high parallelism; expect a large fraction of
    // the 12.8 GB/s channel.
    Imc& m = makeImc();
    std::uint64_t completed = 0;
    unsigned in_flight = 0;
    Addr next = 0;
    std::function<void()> pump = [&] {
        while (in_flight < 32) {
            bool ok = m.readLine(next % (8 * kMiB), nullptr, [&] {
                --in_flight;
                ++completed;
                pump();
            });
            if (!ok)
                break;
            next += 64;
            ++in_flight;
        }
    };
    pump();
    Tick window = 200 * kUs;
    eq.runFor(window);
    double mbps = bytesPerTickToMBps(completed * 64, window);
    EXPECT_GT(mbps, 6000.0);
    EXPECT_LT(mbps, 12800.0);
    EXPECT_EQ(dev.stats().violations.value(), 0u);
}

TEST_F(ImcFixture, BulkTransferRatesAndRefreshStalls)
{
    ImcConfig cfg;
    Imc& m = makeImc(cfg, dram::RefreshRegisters::nvdimmc());

    // Single 4 KB bulk read takes about 4096B / streamRead rate.
    bool done = false;
    Tick finish = 0;
    m.bulkTransfer(4096, false, [&] {
        done = true;
        finish = eq.now();
    });
    eq.runFor(10 * kUs);
    ASSERT_TRUE(done);
    double expect_us =
        4096.0 / (cfg.streamReadMBps * 1e6) * 1e6; // ~1.1 us.
    EXPECT_NEAR(ticksToUs(finish), expect_us, 0.5);
}

TEST_F(ImcFixture, BulkThroughputDropsWithFasterRefresh)
{
    auto measure = [&](Tick trefi) {
        EventQueue local_eq;
        dram::DramDevice local_dev(map, dram::Ddr4Timing::ddr4_1600(),
                                   false, false);
        bus::MemoryBus local_bus(local_eq, local_dev, false);
        Imc local(local_eq, local_bus, ImcConfig{},
                  loneSchedule(local_dev, {1250 * kNs, trefi}));
        std::uint64_t ops = 0;
        std::function<void()> next = [&] {
            ++ops;
            local.bulkTransfer(4096, false, next);
        };
        local.bulkTransfer(4096, false, next);
        Tick window = 5 * kMs;
        local_eq.runFor(window);
        return bytesPerTickToMBps(ops * 4096, window);
    };

    double normal = measure(7800 * kNs);
    double trefi2 = measure(3900 * kNs);
    double trefi4 = measure(1950 * kNs);
    EXPECT_GT(normal, trefi2);
    EXPECT_GT(trefi2, trefi4);
    // Raw DRAM throughput scales with channel availability
    // (1 - tRFC/tREFI); the paper's smaller Fig 13 drops (8%/17%)
    // come from per-op software hiding part of the blackout, which
    // the full-stack bench reproduces.
    double avail_norm = 1.0 - 1.25 / 7.8;
    EXPECT_NEAR(trefi2 / normal, (1.0 - 1.25 / 3.9) / avail_norm, 0.1);
    EXPECT_NEAR(trefi4 / normal, (1.0 - 1.25 / 1.95) / avail_norm,
                0.12);
}

TEST_F(ImcFixture, BulkReadWaitsOutBlackoutsUpToTheTrefiLimit)
{
    // At tRFC = 7000 of 7800 ns the channel is free 800 ns a lap, so
    // a 64 KB read (16.4 us of streaming) started as a blackout ends
    // spans 20 laps. Past tREFI the walk's gap would wrap and the
    // read end within two laps; the schedule rejects that programming.
    Imc& m = makeImc({}, {7000 * kNs, 7800 * kNs});
    const Tick trefi = m.refresh().tREFI();
    eq.runFor(trefi + 10 * kNs);
    ASSERT_EQ(dev.refreshCount(), 1u);
    eq.runUntil(m.blockedUntil());
    const Tick start = eq.now();
    Tick done_at = 0;
    m.bulkTransfer(65536, false, [&] { done_at = eq.now(); });
    eq.runFor(300 * kUs);
    EXPECT_GT(done_at - start, 20 * trefi);
    EXPECT_LT(done_at - start, 21 * trefi);
}

TEST_F(ImcFixture, AdrFlushCommitsInFlightBurstsInIssueOrder)
{
    Imc& m = makeImc();
    const Addr line = 0x5000;
    ASSERT_NO_FATAL_FAILURE(issueTwoWritesToOneLine(m, line, 0x11, 0x22));

    EXPECT_EQ(m.adrFlushWpq(), 2u);
    std::array<std::uint8_t, 64> second{};
    second.fill(0x22);
    EXPECT_EQ(arrayLine(line), second) << "the newer store must land last";

    // The bursts' own landing events find nothing left to commit.
    eq.runFor(5 * kUs);
    EXPECT_EQ(arrayLine(line), second);
    EXPECT_EQ(dev.stats().writes.value(), 2u);
    EXPECT_EQ(m.adrFlushWpq(), 0u);
}

TEST_F(ImcFixture, DropWpqLosesInFlightBursts)
{
    Imc& m = makeImc();
    const Addr line = 0x5000;
    std::array<std::uint8_t, 64> old{};
    old.fill(0x0a);
    ASSERT_TRUE(m.writeLine(line, old.data(), nullptr));
    eq.runFor(5 * kUs);
    ASSERT_EQ(arrayLine(line), old);
    ASSERT_NO_FATAL_FAILURE(issueTwoWritesToOneLine(m, line, 0x11, 0x22));

    EXPECT_EQ(m.dropWpq(), 2u);
    eq.runFor(5 * kUs);
    EXPECT_EQ(arrayLine(line), old) << "a dropped burst still landed";
}

TEST(SchedulerUnit, FrFcfsPrefersRowHits)
{
    dram::AddressMap map(16 * kMiB);
    dram::Ddr4Timing t = dram::Ddr4Timing::ddr4_1600();
    TimingShadow shadow(map, t);

    // Open row 5 of bank 0.
    shadow.onActivate(0, 0, 5, 0);

    RequestQueue rq(4);
    rq.push(MemRequest::Kind::Read, 0, {0, 0, 9, 0}, 0); // Row miss.
    rq.push(MemRequest::Kind::Read, 0, {0, 0, 5, 3}, 0); // Row hit.

    RequestQueue wq(4);
    SchedDecision d = pickNext(rq, wq, false, shadow, map);
    EXPECT_EQ(d.action, SchedDecision::Action::Read);
    EXPECT_EQ(d.queueIndex, 1u);
}

TEST(SchedulerUnit, OldestFirstWithoutRowHits)
{
    dram::AddressMap map(16 * kMiB);
    dram::Ddr4Timing t = dram::Ddr4Timing::ddr4_1600();
    TimingShadow shadow(map, t);

    RequestQueue rq(4);
    for (std::uint32_t r = 0; r < 3; ++r)
        rq.push(MemRequest::Kind::Read, 0, {0, 0, r + 1, 0}, 0);
    RequestQueue wq(4);
    SchedDecision d = pickNext(rq, wq, false, shadow, map);
    EXPECT_EQ(d.queueIndex, 0u);
    EXPECT_EQ(d.action, SchedDecision::Action::Activate);
}

TEST(SchedulerUnit, WritesWaitUnlessDrainingOrNoReads)
{
    dram::AddressMap map(16 * kMiB);
    dram::Ddr4Timing t = dram::Ddr4Timing::ddr4_1600();
    TimingShadow shadow(map, t);

    RequestQueue rq(4);
    rq.push(MemRequest::Kind::Read, 0, {0, 0, 1, 0}, 0);

    RequestQueue wq(4);
    const dram::DramCoord wr{1, 0, 2, 0};
    wq.push(MemRequest::Kind::Write, 0, wr, 0);

    SchedDecision d = pickNext(rq, wq, false, shadow, map);
    EXPECT_FALSE(d.fromWriteQueue);

    // Draining mode with a write row hit prefers the write.
    shadow.onActivate(map.flatBank(wr), 1, 2, 0);
    d = pickNext(rq, wq, true, shadow, map);
    EXPECT_TRUE(d.fromWriteQueue);

    // No reads at all: writes are eligible regardless.
    rq.clear();
    d = pickNext(rq, wq, false, shadow, map);
    EXPECT_TRUE(d.fromWriteQueue);
}

} // namespace
} // namespace nvdimmc::imc
