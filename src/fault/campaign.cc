#include "fault/campaign.hh"

#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"
#include "common/telemetry.hh"
#include "core/power.hh"
#include "core/system.hh"
#include "core/system_config.hh"
#include "dram/channel_interleave.hh"
#include "fault/checkpoint.hh"
#include "workload/mixedload.hh"

namespace nvdimmc::fault
{

namespace
{

/** FNV-1a over simulation content — the campaign fingerprints. */
struct Fingerprint
{
    std::uint64_t h = 0xcbf29ce484222325ull;

    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }

    void
    addBytes(const std::vector<std::uint8_t>& bytes)
    {
        for (std::uint8_t b : bytes) {
            h ^= b;
            h *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        std::ostringstream os;
        os << std::hex << h;
        return os.str();
    }
};

constexpr std::uint32_t kRecordBytes = 4096;

/** The standalone FTL rig config shared by the media/ageing runs. */
ftl::FtlConfig
rigFtlConfig(std::uint32_t read_retries, std::uint32_t ecc_bits)
{
    ftl::FtlConfig fc;
    fc.exposedFraction = 100.0 / 128.0; // GC slack for hostile runs.
    fc.gcLowWaterBlocks = 2;
    fc.gcHighWaterBlocks = 4;
    fc.readRetries = read_retries;
    fc.ecc.correctableBits = ecc_bits;
    return fc;
}

} // namespace

PowerFailCampaignResult
runPowerFailCampaign(const PowerFailCampaignConfig& cfg)
{
    core::SystemConfig sc = core::SystemConfig::scaledTest();
    sc.channels = cfg.channels;
    core::NvdimmcSystem sys(sc);

    workload::MixedLoadConfig ml;
    ml.users = cfg.users;
    ml.transactionsPerUser = cfg.transactionsPerUser;
    ml.recordsPerTxn = cfg.recordsPerTxn;
    ml.recordBytes = kRecordBytes;
    ml.seed = cfg.seed;
    ml.haltAtTick = cfg.haltAtTick;
    ml.regionOffset = 0;
    ml.regionBytes =
        std::min<std::uint64_t>(sys.driver().capacityBytes(),
                                std::uint64_t{cfg.users} *
                                    cfg.regionSlotsPerUser *
                                    kRecordBytes);

    workload::DataDevice dev;
    dev.capacityBytes = sys.driver().capacityBytes();
    dev.read = [&sys](Addr a, std::uint32_t len, std::uint8_t* buf,
                      std::function<void()> cb) {
        sys.driver().read(a, len, buf, std::move(cb));
    };
    dev.write = [&sys](Addr a, std::uint32_t len,
                       const std::uint8_t* data,
                       std::function<void()> cb) {
        sys.driver().write(a, len, data, std::move(cb));
    };

    workload::MixedLoadResult mlres =
        workload::runMixedLoad(sys.eq(), dev, ml);

    core::PowerFailureScenario scenario;
    scenario.adrWorks = cfg.adrWorks;
    scenario.raceWindow = cfg.raceWindow;
    core::PowerFailureReport report =
        core::simulatePowerFailure(sys, scenario);

    // Recovery replay: the DRAM is gone; every committed record must
    // be reconstructible from the NVM backends alone. Reads go
    // post-mortem straight into each module's backend (the media
    // model copies page data at call time), so no stale workload
    // events are resumed.
    dram::ChannelInterleave il(cfg.channels,
                               dram::ChannelInterleave::kPageGranule);
    const workload::RecordPattern pattern(kRecordBytes);
    std::vector<std::uint8_t> buf(kRecordBytes);
    Fingerprint fp;
    PowerFailCampaignResult res;
    for (const workload::CommittedRecord& rec : mlres.committed) {
        std::uint64_t page = rec.addr / kRecordBytes;
        std::uint32_t ch = il.pageChannel(page);
        std::uint64_t local = il.localPage(page);
        sys.channel(ch).backend().readPage(local, buf.data(), [] {});
        bool ok = pattern.check(buf.data(), rec.seed);
        if (!ok)
            res.corruptRecords += 1;
        fp.add(rec.addr);
        fp.add(rec.seed);
        fp.add(ok ? 1 : 0);
    }

    res.halted = mlres.halted;
    res.workloadElapsed = mlres.elapsed;
    res.transactions = mlres.transactions;
    res.liveValidationFailures = mlres.validationFailures;
    res.committedRecords = mlres.committed.size();
    res.inFlightWrites = mlres.inFlightWrites;
    res.wpqFlushed = report.wpqFlushed;
    res.wpqLost = report.wpqLost;
    res.pagesDumped = report.pagesDumped;

    // The super-caps must power each dumped page's channel transfer +
    // program; that is the module's flush-on-fail energy/latency bill.
    Tick per_page =
        sc.znand.tPROG +
        nsToTicks(static_cast<double>(sc.znand.pageBytes) * 1000.0 /
                  sc.znand.channelMBps);
    res.recoveryTicks = static_cast<Tick>(res.pagesDumped) * per_page;

    fp.add(res.transactions);
    fp.add(res.workloadElapsed);
    fp.add(res.committedRecords);
    fp.add(res.inFlightWrites);
    fp.add(res.corruptRecords);
    fp.add(res.pagesDumped);
    fp.add(res.wpqFlushed);
    fp.add(res.wpqLost);
    res.fingerprint = fp.hex();
    // Corrupt committed records after recovery are the black-box
    // moment: dump the flight recorder before the harness reports.
    if (res.corruptRecords > 0 && telemetry::flightArmed())
        telemetry::flightDump("fault-corruption");
    return res;
}

MediaFaultCampaignResult
runMediaFaultCampaign(const MediaFaultCampaignConfig& cfg)
{
    EventQueue eq;
    nvm::ZNand nand(eq, nvm::ZNandParams::tiny());
    ftl::Ftl ftl(eq, nand,
                 rigFtlConfig(cfg.readRetries, cfg.eccCorrectableBits));
    MediaFaultInjector inj(cfg.faults);
    inj.attach(0, ftl, nand);

    Rng op_rng(cfg.seed, 0x4d454449ull); // "MEDI" stream.
    std::uint64_t working_set =
        std::min<std::uint64_t>(cfg.workingSetPages, ftl.pageCount());
    std::unordered_map<std::uint64_t, std::uint64_t> oracle;
    const workload::RecordPattern pattern(kRecordBytes);
    std::vector<std::uint8_t> buf(kRecordBytes);

    MediaFaultCampaignResult res;
    for (unsigned i = 0; i < cfg.ops; ++i) {
        std::uint64_t lpn = op_rng.below(working_set);
        if (op_rng.uniform() < cfg.writeFraction) {
            std::uint64_t seed = op_rng.next64() | 1;
            pattern.fill(buf.data(), seed);
            auto done = std::make_shared<bool>(false);
            ftl.writePage(lpn, buf.data(), [done] { *done = true; });
            eq.runAll();
            if (*done) {
                oracle[lpn] = seed;
                res.writes += 1;
            }
        } else {
            std::uint64_t uncorr_before =
                ftl.stats().uncorrectableReads.value();
            auto done = std::make_shared<bool>(false);
            ftl.readPage(lpn, buf.data(), [done] { *done = true; });
            eq.runAll();
            res.reads += 1;
            auto it = oracle.find(lpn);
            if (*done && it != oracle.end() &&
                !pattern.check(buf.data(), it->second)) {
                res.oracleMismatches += 1;
                if (ftl.stats().uncorrectableReads.value() ==
                    uncorr_before) {
                    // Bytes are wrong but nothing reported a failure:
                    // an integrity bug, not a modeled media error.
                    res.silentCorruptions += 1;
                }
            }
        }
    }
    eq.runAll();

    res.readErrorsInjected = inj.readErrorsInjected();
    res.programFailsInjected = inj.programFailsInjected();
    res.readRetries = ftl.stats().readRetries.value();
    res.readRetrySuccesses = ftl.stats().readRetrySuccesses.value();
    res.uncorrectableReads = ftl.stats().uncorrectableReads.value();
    res.grownBadBlocks = ftl.stats().grownBadBlocks.value();
    res.gcRelocations = ftl.stats().gcRelocations.value();
    res.invariantsOk = ftl.checkInvariants(&res.invariantWhy);

    Fingerprint fp;
    fp.add(res.reads);
    fp.add(res.writes);
    fp.add(res.readErrorsInjected);
    fp.add(res.programFailsInjected);
    fp.add(res.readRetries);
    fp.add(res.readRetrySuccesses);
    fp.add(res.uncorrectableReads);
    fp.add(res.grownBadBlocks);
    fp.add(res.gcRelocations);
    fp.add(res.oracleMismatches);
    fp.add(res.silentCorruptions);
    for (std::uint64_t b = 0; b < nand.params().totalBlocks(); ++b)
        fp.add(nand.eraseCount(b));
    res.fingerprint = fp.hex();
    if (res.silentCorruptions > 0 && telemetry::flightArmed())
        telemetry::flightDump("fault-corruption");
    return res;
}

namespace
{

/** One standalone device + workload state for the ageing campaign;
 *  two rigs (original and checkpoint-restored) must replay
 *  identically. */
struct AgeingRig
{
    EventQueue eq;
    nvm::ZNand nand;
    ftl::Ftl ftl;
    MediaFaultInjector inj;
    Rng rng;
    const workload::RecordPattern pattern{kRecordBytes};
    /** Ordered so sampling by index is deterministic. */
    std::map<std::uint64_t, std::uint64_t> oracle;
    std::uint64_t writesAcked = 0;
    std::uint64_t mismatches = 0;
    std::uint64_t silent = 0;

    explicit AgeingRig(const AgeingCampaignConfig& cfg)
        : nand(eq, nvm::ZNandParams::tiny()),
          ftl(eq, nand, rigFtlConfig(cfg.readRetries,
                                     cfg.eccCorrectableBits)),
          inj(cfg.faults),
          rng(cfg.seed, 0x41474531ull) // "AGE1" stream.
    {
        inj.attach(0, ftl, nand);
    }

    void
    runRound(const AgeingCampaignConfig& cfg)
    {
        std::uint64_t working_set =
            std::min<std::uint64_t>(cfg.workingSetPages,
                                    ftl.pageCount());
        std::vector<std::uint8_t> buf(kRecordBytes);
        for (unsigned w = 0; w < cfg.writesPerRound; ++w) {
            std::uint64_t lpn = rng.below(working_set);
            std::uint64_t seed = rng.next64() | 1;
            pattern.fill(buf.data(), seed);
            auto done = std::make_shared<bool>(false);
            ftl.writePage(lpn, buf.data(), [done] { *done = true; });
            eq.runAll();
            if (*done) {
                oracle[lpn] = seed;
                writesAcked += 1;
            }
        }
        // Spot-check a deterministic sample of the oracle each round
        // (retention under accumulated wear).
        unsigned checks =
            static_cast<unsigned>(std::min<std::uint64_t>(
                12, oracle.size()));
        for (unsigned c = 0; c < checks; ++c) {
            auto it = oracle.begin();
            std::advance(it, static_cast<long>(
                                 rng.below(oracle.size())));
            std::uint64_t uncorr_before =
                ftl.stats().uncorrectableReads.value();
            auto done = std::make_shared<bool>(false);
            ftl.readPage(it->first, buf.data(),
                         [done] { *done = true; });
            eq.runAll();
            if (*done && !pattern.check(buf.data(), it->second)) {
                mismatches += 1;
                if (ftl.stats().uncorrectableReads.value() ==
                    uncorr_before)
                    silent += 1;
            }
        }
    }
};

} // namespace

AgeingCampaignResult
runAgeingCampaign(const AgeingCampaignConfig& cfg)
{
    AgeingRig rig(cfg);
    AgeingCampaignResult res;

    unsigned mid = cfg.rounds / 2;
    std::vector<std::uint8_t> device_image;
    std::vector<std::uint8_t> inj_image;
    std::uint64_t rng_state = 0;
    std::uint64_t rng_inc = 0;
    std::map<std::uint64_t, std::uint64_t> oracle_mid;
    std::uint64_t writes_mid = 0, mismatches_mid = 0, silent_mid = 0;
    bool snapshotted = false;

    for (unsigned r = 0; r < cfg.rounds; ++r) {
        if (cfg.verifyCheckpoint && r == mid) {
            rig.eq.runAll();
            device_image = checkpointDevice(rig.nand, rig.ftl);
            ByteWriter w;
            rig.inj.saveState(w);
            inj_image = w.take();
            rng_state = rig.rng.rawState();
            rng_inc = rig.rng.rawInc();
            oracle_mid = rig.oracle;
            writes_mid = rig.writesAcked;
            mismatches_mid = rig.mismatches;
            silent_mid = rig.silent;
            snapshotted = true;
            res.checkpointBytes = device_image.size();
        }
        rig.runRound(cfg);
        if (!rig.ftl.checkInvariants(&res.invariantWhy)) {
            res.invariantsOk = false;
            break;
        }
    }
    rig.eq.runAll();
    std::vector<std::uint8_t> final_a =
        checkpointDevice(rig.nand, rig.ftl);

    if (snapshotted && res.invariantsOk) {
        // Replay the second half from the restored image: content
        // must come out bit-for-bit identical (the checkpoint streams
        // carry no ticks or stats, only device state).
        AgeingRig replay(cfg);
        restoreDevice(device_image, replay.nand, replay.ftl);
        ByteReader ir(inj_image);
        replay.inj.loadState(ir);
        replay.rng.setRaw(rng_state, rng_inc);
        replay.oracle = oracle_mid;
        replay.writesAcked = writes_mid;
        replay.mismatches = mismatches_mid;
        replay.silent = silent_mid;
        for (unsigned r = mid; r < cfg.rounds; ++r)
            replay.runRound(cfg);
        replay.eq.runAll();
        std::vector<std::uint8_t> final_b =
            checkpointDevice(replay.nand, replay.ftl);
        res.checkpointDeterministic =
            final_a == final_b &&
            replay.writesAcked == rig.writesAcked &&
            replay.mismatches == rig.mismatches &&
            replay.silent == rig.silent;
    }

    res.writes = rig.writesAcked;
    res.gcErases = rig.ftl.stats().gcErases.value();
    res.gcRelocations = rig.ftl.stats().gcRelocations.value();
    res.grownBadBlocks = rig.ftl.stats().grownBadBlocks.value();
    res.wearSpread = rig.ftl.wearSpread();
    res.maxEraseCount = rig.nand.maxEraseCount();
    res.oracleMismatches = rig.mismatches;
    res.silentCorruptions = rig.silent;

    Fingerprint fp;
    fp.addBytes(final_a);
    fp.add(res.writes);
    fp.add(res.oracleMismatches);
    fp.add(res.silentCorruptions);
    fp.add(res.checkpointDeterministic ? 1 : 0);
    res.fingerprint = fp.hex();
    if ((res.silentCorruptions > 0 || !res.checkpointDeterministic) &&
        telemetry::flightArmed())
        telemetry::flightDump("fault-corruption");
    return res;
}

} // namespace nvdimmc::fault
