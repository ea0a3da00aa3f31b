/**
 * @file
 * Channel-topology tests.
 *
 * Covers the multi-channel refactor:
 *  - channels=1 bit-identity: a fig8-style run through the new
 *    ChannelTopology must produce byte-identical stats JSON to the
 *    pre-refactor golden dump committed under tests/golden/.  The
 *    golden file was generated by this very test (run with
 *    NVDIMMC_WRITE_GOLDEN=1) on the single-channel simulator *before*
 *    the topology refactor landed, so any drift in event ordering,
 *    stat naming or stat values shows up as a byte diff.
 *  - interleave round-trip properties at both granularities;
 *  - refresh phase staggering (no two channels' tRFC blackouts line
 *    up);
 *  - multi-channel determinism, data integrity, stats naming and the
 *    metadata lines preconditioning writes on every channel.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "core/system.hh"
#include "dram/channel_interleave.hh"
#include "workload/fio.hh"

#ifndef NVDIMMC_SOURCE_DIR
#define NVDIMMC_SOURCE_DIR "."
#endif

namespace nvdimmc
{
namespace
{

std::string
goldenPath()
{
    return std::string(NVDIMMC_SOURCE_DIR) +
           "/tests/golden/fig8_ch1_stats.json";
}

/** One fig8-style FIO pass (random 4K, QD1, one thread) over a
 *  preconditioned cached system; returns the full stats JSON line. */
std::string
fig8StyleStatsLine(workload::FioConfig::Pattern pattern)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    core::NvdimmcSystem sys(cfg);
    const std::uint32_t slots = sys.layout().slotCount();
    sys.precondition(0, slots - 64, true);

    workload::FioConfig fio;
    fio.pattern = pattern;
    fio.blockSize = 4096;
    fio.threads = 1;
    fio.regionBytes = std::uint64_t{slots - 64} * 4096;
    fio.rampTime = 200 * kUs;
    fio.runTime = 2 * kMs;
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
    job.run();

    std::ostringstream os;
    sys.dumpStatsJson(os);
    return os.str();
}

/** The golden payload: one stats line per fig8 pattern. */
std::string
goldenPayload()
{
    std::string out;
    out += fig8StyleStatsLine(workload::FioConfig::Pattern::RandRead);
    out += '\n';
    out += fig8StyleStatsLine(workload::FioConfig::Pattern::RandWrite);
    out += '\n';
    return out;
}

TEST(ChannelGolden, SingleChannelStatsJsonIsByteIdentical)
{
    const std::string payload = goldenPayload();

    if (std::getenv("NVDIMMC_WRITE_GOLDEN") != nullptr) {
        std::ofstream os(goldenPath(), std::ios::binary);
        ASSERT_TRUE(os) << "cannot write " << goldenPath();
        os << payload;
        GTEST_SKIP() << "golden regenerated at " << goldenPath();
    }

    std::ifstream is(goldenPath(), std::ios::binary);
    ASSERT_TRUE(is) << "missing golden file " << goldenPath()
                    << " (run with NVDIMMC_WRITE_GOLDEN=1 to create)";
    std::ostringstream want;
    want << is.rdbuf();
    EXPECT_EQ(payload, want.str())
        << "channels=1 run drifted from the pre-refactor golden dump";
}

/** A 4-channel scaled-test system config. */
core::SystemConfig
fourChannelConfig()
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = 4;
    return cfg;
}

TEST(Interleave, RoundTripBothGranularities)
{
    using dram::ChannelInterleave;
    for (std::uint32_t n : {1u, 2u, 4u, 6u}) {
        for (std::uint32_t g : {ChannelInterleave::kPageGranule,
                                ChannelInterleave::kLineGranule}) {
            ChannelInterleave il(n, g);
            // flatten(route(a)) == a over a window spanning several
            // granules per channel, plus odd intra-granule offsets.
            for (Addr base = 0; base < Addr{n} * g * 3; base += g) {
                for (Addr off : {Addr{0}, Addr{64}, Addr{g - 1}}) {
                    Addr a = base + off;
                    auto t = il.route(a);
                    ASSERT_LT(t.channel, n);
                    EXPECT_EQ(il.flatten(t.channel, t.local), a)
                        << "n=" << n << " g=" << g << " a=" << a;
                }
            }
            // route(flatten(ch, local)) == (ch, local).
            for (std::uint32_t ch = 0; ch < n; ++ch) {
                for (Addr local : {Addr{0}, Addr{g + 7},
                                   Addr{5} * g + 63}) {
                    auto t = il.route(il.flatten(ch, local));
                    EXPECT_EQ(t.channel, ch);
                    EXPECT_EQ(t.local, local);
                }
            }
        }
    }
}

TEST(Interleave, EveryDevicePageOwnsExactlyOneChannel)
{
    using dram::ChannelInterleave;
    // Page ownership is granularity-independent: an NVDIMM-C cache
    // slot lives whole on one module whatever the host stream granule.
    for (std::uint32_t n : {1u, 2u, 4u, 6u}) {
        for (std::uint32_t g : {ChannelInterleave::kPageGranule,
                                ChannelInterleave::kLineGranule}) {
            ChannelInterleave il(n, g);
            std::vector<std::uint64_t> per_channel(n, 0);
            const std::uint64_t pages = 6 * n + 5;
            for (std::uint64_t p = 0; p < pages; ++p) {
                std::uint32_t ch = il.pageChannel(p);
                ASSERT_LT(ch, n);
                ++per_channel[ch];
                EXPECT_EQ(il.flattenPage(ch, il.localPage(p)), p);
            }
            // Round-robin: ownership spreads evenly.
            for (std::uint32_t ch = 0; ch < n; ++ch)
                EXPECT_GE(per_channel[ch], pages / n);
        }
    }
}

TEST(Refresh, PhasesStaggerAcrossChannels)
{
    core::NvdimmcSystem sys(fourChannelConfig());
    const std::uint32_t n = sys.channelCount();
    ASSERT_EQ(n, 4u);

    const Tick trefi = sys.config().refresh.tREFI;
    const Tick trfc = sys.config().refresh.tRFC;
    std::vector<Tick> phases;
    for (std::uint32_t i = 0; i < n; ++i) {
        const dram::RefreshSchedule& r = sys.channel(i).imc().refresh();
        EXPECT_EQ(r.tREFI(), trefi);
        EXPECT_EQ(r.tRFC(), trfc);
        phases.push_back(r.phase());
    }

    EXPECT_EQ(phases[0], 0u) << "channel 0 must keep the legacy clock";
    for (std::uint32_t i = 0; i < n; ++i) {
        for (std::uint32_t j = i + 1; j < n; ++j) {
            // No two channels' programmed-tRFC blackout windows may
            // fully overlap: their phase offsets must differ (mod
            // tREFI), and with the even i*tREFI/N spacing the gap is
            // at least tREFI/N.
            Tick gap = (phases[j] - phases[i]) % trefi;
            EXPECT_NE(gap, 0u) << "channels " << i << "," << j;
            EXPECT_GE(gap, trefi / n);
        }
    }
    // The spacing leaves clear air between blackouts (tRFC 1250 ns
    // vs tREFI/4 = 1950 ns).
    EXPECT_GT(trefi / n, trfc);
}

TEST(Refresh, SingleChannelKeepsZeroPhase)
{
    core::NvdimmcSystem sys(core::SystemConfig::scaledTest());
    EXPECT_EQ(sys.channel(0).imc().refresh().phase(), 0u);
    EXPECT_EQ(sys.channel(0).imc().config().name, "imc");
}

TEST(Refresh, BaselineKeepsZeroPhaseOnEveryChannel)
{
    // Plain DRAM has no NVMC windows to spread out;
    // backends/pmem/fig8/cached_4ch depends on this timeline.
    core::SystemConfig cfg = core::SystemConfig::scaledPmem();
    cfg.channels = 4;
    cfg.dramCacheBytes = 64 * kMiB;
    core::NvdimmcSystem sys(cfg);
    for (std::uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(sys.channel(i).imc().refresh().phase(), 0u)
            << "channel " << i;
}

/** The FatalError message NvdimmcSystem's constructor throws for
 *  @p cfg, or "" if it builds. */
std::string
constructionError(const core::SystemConfig& cfg)
{
    try {
        core::NvdimmcSystem sys(cfg);
    } catch (const FatalError& e) {
        return e.what();
    }
    return "";
}

TEST(Refresh, PaperCxlAndFig13ProgrammingsBuild)
{
    core::SystemConfig poc = core::SystemConfig::scaledTest();
    EXPECT_EQ(constructionError(poc), "");
    core::SystemConfig cxl = core::SystemConfig::scaledTest();
    cxl.applyCxlBackend(); // Standard registers, no NVMC.
    EXPECT_EQ(constructionError(cxl), "");
    core::SystemConfig fig13 = core::SystemConfig::scaledTest();
    fig13.refresh.tREFI = 1950 * kNs;
    EXPECT_EQ(constructionError(fig13), "");
}

TEST(Refresh, TrfcEqualToTrefiIsRejectedAtConstruction)
{
    // The iMC would block from each REF straight into the next, and
    // the run would never end.
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.refresh.tRFC = cfg.refresh.tREFI;
    std::string what = constructionError(cfg);
    EXPECT_NE(what.find("refresh.tREFI"), std::string::npos) << what;
}

TEST(Refresh, NvmcRejectsAScheduleWithoutAWindow)
{
    // tRFC at the device's own 350 ns: the guard leaves nothing.
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.refresh = dram::RefreshRegisters::standard();
    std::string what = constructionError(cfg);
    EXPECT_NE(what.find("refresh.tRFC"), std::string::npos) << what;
    EXPECT_NE(what.find("no DMA window"), std::string::npos) << what;
}

/** Run a small FIO pass on an N-channel system; return stats JSON. */
std::string
multiChannelStatsLine(std::uint32_t channels, std::uint64_t seed)
{
    core::SystemConfig cfg = core::SystemConfig::scaledTest();
    cfg.channels = channels;
    core::NvdimmcSystem sys(cfg);
    const std::uint32_t slots = sys.totalSlotCount();
    sys.precondition(0, slots - 64 * channels, true);

    workload::FioConfig fio;
    fio.pattern = workload::FioConfig::Pattern::RandRead;
    fio.blockSize = 4096;
    fio.threads = 4;
    fio.regionBytes = std::uint64_t{slots - 64 * channels} * 4096;
    fio.rampTime = 100 * kUs;
    fio.runTime = 1 * kMs;
    fio.seed = seed;

    workload::AccessFn fn = [&sys](Addr off, std::uint32_t len,
                                   bool is_write,
                                   std::function<void()> done) {
        if (is_write)
            sys.driver().write(off, len, nullptr, std::move(done));
        else
            sys.driver().read(off, len, nullptr, std::move(done));
    };
    workload::FioJob job(sys.eq(), fn, fio);
    job.run();

    std::ostringstream os;
    sys.dumpStatsJson(os);
    return os.str();
}

TEST(ChannelTopology, FourChannelRunsAreDeterministic)
{
    EXPECT_EQ(multiChannelStatsLine(4, 7), multiChannelStatsLine(4, 7));
    EXPECT_NE(multiChannelStatsLine(4, 7), multiChannelStatsLine(4, 8));
}

TEST(ChannelTopology, PerChannelStatsArePresent)
{
    const std::string json = multiChannelStatsLine(4, 3);
    for (const char* key :
         {"\"ch0.imc.reads_accepted\"", "\"ch1.imc.reads_accepted\"",
          "\"ch2.imc.reads_accepted\"", "\"ch3.imc.reads_accepted\"",
          "\"ch0.dram.refreshes\"", "\"ch3.bus.",
          "\"nvdc.ch0.cache.hits\"", "\"nvdc.ch3.cache.hits\"",
          "\"cache.hit_rate\"", "\"imc.refresh.overhead_pct\"",
          "\"dram.refreshes\""}) {
        EXPECT_NE(json.find(key), std::string::npos)
            << "missing stat " << key;
    }
}

TEST(ChannelTopology, DataIntegrityAcrossChannels)
{
    core::SystemConfig cfg = fourChannelConfig();
    core::NvdimmcSystem sys(cfg);

    // Write a distinct pattern to pages owned by every channel (the
    // device pages round-robin: p % 4), read each back and compare.
    const std::uint32_t kPages = 12;
    std::vector<std::vector<std::uint8_t>> wrote(kPages);
    for (std::uint32_t p = 0; p < kPages; ++p) {
        wrote[p].assign(4096, 0);
        for (std::uint32_t b = 0; b < 4096; ++b)
            wrote[p][b] =
                static_cast<std::uint8_t>((p * 131 + b * 7) & 0xff);
        bool done = false;
        sys.driver().write(Addr{p} * 4096, 4096, wrote[p].data(),
                           [&done] { done = true; });
        // The firmwares poll the CP area forever, so a full drain()
        // never goes quiet — advance in slices until the op lands.
        for (int spin = 0; !done && spin < 1000; ++spin)
            sys.run(100 * kUs);
        ASSERT_TRUE(done) << "write of page " << p << " stalled";
    }
    for (std::uint32_t p = 0; p < kPages; ++p) {
        std::vector<std::uint8_t> got(4096, 0xaa);
        bool done = false;
        sys.driver().read(Addr{p} * 4096, 4096, got.data(),
                          [&done] { done = true; });
        for (int spin = 0; !done && spin < 1000; ++spin)
            sys.run(100 * kUs);
        ASSERT_TRUE(done) << "read of page " << p << " stalled";
        EXPECT_EQ(0, std::memcmp(got.data(), wrote[p].data(), 4096))
            << "data corrupted on page " << p << " (channel "
            << (p % 4) << ")";
    }
    EXPECT_TRUE(sys.hardwareClean());
}

TEST(ChannelTopology, PreconditionRoutesPagesToOwningChannel)
{
    core::NvdimmcSystem sys(fourChannelConfig());
    const std::uint32_t per = 8;
    sys.precondition(0, per * 4, true);
    for (std::uint32_t c = 0; c < 4; ++c)
        EXPECT_EQ(sys.driver().cache(c).usedSlots(), per)
            << "channel " << c;
}

TEST(ChannelTopology, PreconditionWritesEveryChannelsMetadata)
{
    core::NvdimmcSystem sys(fourChannelConfig());
    // Pages 5..42: channels 1 and 2 get 10 pages, channels 0 and 3
    // get 9, so every channel's last 4-slot metadata group is partial.
    const std::uint64_t first = 5;
    const std::uint32_t pages = 38;
    sys.precondition(first, pages, true);

    for (std::uint32_t c = 0; c < 4; ++c) {
        const driver::DramCache& cache = sys.driver().cache(c);
        core::Channel& chan = sys.channel(c);
        ASSERT_NE(cache.usedSlots() % 4, 0u) << "channel " << c;

        // Decode every metadata line that covers a used slot.
        std::vector<nvmc::SlotMetadata> meta(cache.slotCount());
        std::vector<bool> decoded(cache.slotCount(), false);
        std::uint32_t valid = 0;
        for (std::uint32_t s = 0; s < cache.slotCount(); ++s) {
            if (cache.slot(s).state == driver::CacheSlot::State::Free)
                continue;
            std::uint32_t line_first = s / 4 * 4;
            if (decoded[line_first])
                continue;
            std::uint8_t line[64];
            chan.dram().readBurst(
                chan.map().decompose(
                    chan.layout().metadataAddr(line_first)),
                line);
            for (std::uint32_t j = 0; j < 4; ++j) {
                std::uint32_t e = line_first + j;
                if (e >= cache.slotCount())
                    break;
                decoded[e] = true;
                meta[e] = nvmc::decodeSlotMetadata(line + j * 16);
                bool used = cache.slot(e).state !=
                            driver::CacheSlot::State::Free;
                EXPECT_EQ(meta[e].valid, used)
                    << "channel " << c << " slot " << e;
                if (used) {
                    EXPECT_TRUE(meta[e].dirty)
                        << "channel " << c << " slot " << e;
                    ++valid;
                }
            }
        }
        EXPECT_EQ(valid, cache.usedSlots()) << "channel " << c;

        // Each preconditioned page of this channel sits in the slot
        // whose entry names its module-local page.
        std::uint32_t owned = 0;
        for (std::uint64_t p = first; p < first + pages; ++p) {
            if (p % 4 != c)
                continue;
            ++owned;
            auto slot = cache.peek(p / 4);
            ASSERT_TRUE(slot.has_value()) << "page " << p;
            ASSERT_TRUE(decoded[*slot]) << "page " << p;
            EXPECT_TRUE(meta[*slot].valid) << "page " << p;
            EXPECT_EQ(meta[*slot].nandPage, p / 4) << "page " << p;
        }
        EXPECT_EQ(owned, cache.usedSlots()) << "channel " << c;
    }
}

} // namespace
} // namespace nvdimmc
