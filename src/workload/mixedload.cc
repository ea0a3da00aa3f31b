#include "workload/mixedload.hh"

#include <algorithm>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"

namespace nvdimmc::workload
{

namespace
{

constexpr std::uint64_t kSeedMul = 0x9e3779b97f4a7c15ull;

/** One xorshift64 (13, 7, 17) step, of one state or a lane pair. */
template <typename T>
T
xorshift(T x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

struct UserState
{
    unsigned id = 0;
    Addr base = 0;
    std::uint64_t slots = 0;
    unsigned txnsLeft = 0;
    Rng rng{1};
    /** slot -> seed of the last committed write. */
    std::unordered_map<std::uint64_t, std::uint64_t> committed;
    /** Slots with a write issued but not yet acked. */
    std::unordered_set<std::uint64_t> inflight;
    std::vector<std::uint8_t> buf;
};

} // namespace

RecordPattern::RecordPattern(std::uint32_t len)
    : len_(len), lane_(len / kLanes)
{
    if (lane_ == 0)
        return;
    // Column k of the jump matrix is unit vector k stepped lane_ times.
    std::array<std::uint64_t, 64> cols;
    for (unsigned k = 0; k < 64; ++k)
        cols[k] = std::uint64_t{1} << k;
    for (std::uint32_t t = 0; t < lane_; ++t) {
        for (std::uint64_t& c : cols)
            c = xorshift(c);
    }
    for (unsigned n = 0; n < 16; ++n) {
        for (unsigned v = 0; v < 16; ++v) {
            std::uint64_t col_sum = 0;
            for (unsigned b = 0; b < 4; ++b) {
                if (v >> b & 1)
                    col_sum ^= cols[4 * n + b];
            }
            jump_[n][v] = col_sum;
        }
    }
}

std::uint64_t
RecordPattern::jump(std::uint64_t x) const
{
    std::uint64_t r = 0;
    for (unsigned n = 0; n < 16; ++n)
        r ^= jump_[n][(x >> (4 * n)) & 15];
    return r;
}

void
RecordPattern::startLanes(std::uint64_t x, LanePair* pairs) const
{
    for (unsigned k = 0; k < kLanes / 2; ++k) {
        std::uint64_t odd = jump(x);
        pairs[k] = LanePair{x, odd};
        x = jump(odd);
    }
}

void
RecordPattern::fill(std::uint8_t* buf, std::uint64_t seed) const
{
    std::uint64_t x = seed * kSeedMul + 1;
    std::uint32_t i = 0;
    if (lane_ > 0) {
        LanePair s[kLanes / 2];
        startLanes(x, s);
        const std::uint32_t l = lane_;
        for (std::uint32_t t = 0; t < l; ++t) {
            std::uint8_t* p = buf + t;
#pragma GCC unroll 8
            for (unsigned k = 0; k < kLanes / 2; ++k) {
                s[k] = xorshift(s[k]);
                p[2 * k * l] = static_cast<std::uint8_t>(s[k][0]);
                p[(2 * k + 1) * l] = static_cast<std::uint8_t>(s[k][1]);
            }
        }
        // The last lane ends on the state before the tail's first.
        x = s[kLanes / 2 - 1][1];
        i = kLanes * l;
    }
    for (; i < len_; ++i) {
        x = xorshift(x);
        buf[i] = static_cast<std::uint8_t>(x);
    }
}

bool
RecordPattern::check(const std::uint8_t* buf, std::uint64_t seed) const
{
    std::uint64_t x = seed * kSeedMul + 1;
    std::uint32_t i = 0;
    // Low bytes of (expected ^ found), ORed: 0 only if all match.
    std::uint64_t diff = 0;
    if (lane_ > 0) {
        LanePair s[kLanes / 2];
        startLanes(x, s);
        const std::uint32_t l = lane_;
        for (std::uint32_t t = 0; t < l; ++t) {
            const std::uint8_t* p = buf + t;
#pragma GCC unroll 8
            for (unsigned k = 0; k < kLanes / 2; ++k) {
                s[k] = xorshift(s[k]);
                diff |= static_cast<std::uint8_t>(s[k][0] ^ p[2 * k * l]) |
                        static_cast<std::uint8_t>(s[k][1] ^
                                                  p[(2 * k + 1) * l]);
            }
        }
        x = s[kLanes / 2 - 1][1];
        i = kLanes * l;
    }
    for (; i < len_; ++i) {
        x = xorshift(x);
        diff |= static_cast<std::uint8_t>(x ^ buf[i]);
    }
    return diff == 0;
}

MixedLoadResult
runMixedLoad(EventQueue& eq, const DataDevice& dev,
             const MixedLoadConfig& cfg)
{
    NVDC_ASSERT(cfg.users > 0 && cfg.regionBytes >= cfg.recordBytes,
                "mixed-load configuration invalid");

    MixedLoadResult res;
    Tick start = eq.now();

    std::uint64_t per_user =
        cfg.regionBytes / cfg.users / cfg.recordBytes;
    NVDC_ASSERT(per_user >= 1, "region too small for the user count");

    auto users = std::make_shared<std::vector<UserState>>(cfg.users);
    auto alive = std::make_shared<unsigned>(cfg.users);

    for (unsigned u = 0; u < cfg.users; ++u) {
        UserState& st = (*users)[u];
        st.id = u;
        st.base = cfg.regionOffset +
                  std::uint64_t{u} * per_user * cfg.recordBytes;
        st.slots = per_user;
        st.txnsLeft = cfg.transactionsPerUser;
        st.rng = Rng(cfg.seed + u * 977 + 3);
        st.buf.resize(cfg.recordBytes);
    }

    // One transaction: write recordsPerTxn records, then read each
    // back (plus one earlier record) and validate.
    struct Driver
    {
        EventQueue& eq;
        const DataDevice& dev;
        const MixedLoadConfig& cfg;
        MixedLoadResult& res;
        std::shared_ptr<std::vector<UserState>> users;
        std::shared_ptr<unsigned> alive;
        const RecordPattern pattern;

        void
        runTxn(unsigned u)
        {
            UserState& st = (*users)[u];
            if (st.txnsLeft == 0) {
                --*alive;
                return;
            }
            st.txnsLeft -= 1;
            auto written =
                std::make_shared<std::vector<
                    std::pair<std::uint64_t, std::uint64_t>>>();
            writeNext(u, 0, written);
        }

        void
        writeNext(unsigned u, unsigned r,
                  std::shared_ptr<std::vector<
                      std::pair<std::uint64_t, std::uint64_t>>> written)
        {
            UserState& st = (*users)[u];
            if (r >= cfg.recordsPerTxn) {
                validateNext(u, 0, written);
                return;
            }
            // Pick a slot not already written by this transaction (a
            // transaction updates distinct records).
            std::uint64_t slot = st.rng.below(st.slots);
            for (int tries = 0; tries < 64; ++tries) {
                bool clash = false;
                for (const auto& [s, unused] : *written) {
                    if (s == slot)
                        clash = true;
                }
                if (!clash)
                    break;
                slot = st.rng.below(st.slots);
            }
            std::uint64_t seed =
                (std::uint64_t{st.id} << 40) ^
                (st.rng.next64() | 1);
            pattern.fill(st.buf.data(), seed);
            Addr addr = st.base + slot * cfg.recordBytes;
            st.inflight.insert(slot);
            dev.write(addr, cfg.recordBytes, st.buf.data(),
                      [this, u, r, slot, seed, written] {
                          UserState& stx = (*users)[u];
                          stx.inflight.erase(slot);
                          stx.committed[slot] = seed;
                          written->push_back({slot, seed});
                          writeNext(u, r + 1, written);
                      });
        }

        void
        validateNext(unsigned u, unsigned idx,
                     std::shared_ptr<std::vector<
                         std::pair<std::uint64_t, std::uint64_t>>>
                         written)
        {
            UserState& st = (*users)[u];
            if (idx >= written->size()) {
                // Also validate one random earlier record.
                if (!st.committed.empty()) {
                    auto it = st.committed.begin();
                    std::advance(
                        it, static_cast<long>(
                                st.rng.below(st.committed.size())));
                    std::uint64_t slot = it->first;
                    std::uint64_t seed = it->second;
                    Addr addr = st.base + slot * cfg.recordBytes;
                    dev.read(addr, cfg.recordBytes, st.buf.data(),
                             [this, u, seed, slot] {
                                 UserState& stx = (*users)[u];
                                 if (!pattern.check(stx.buf.data(),
                                                    seed)) {
                                     res.validationFailures += 1;
                                     warn("mixedload: user ", u,
                                          " slot ", slot,
                                          " earlier-record mismatch,",
                                          " got[0]=",
                                          int(stx.buf[0]));
                                 }
                                 res.transactions += 1;
                                 runTxn(u);
                             });
                    return;
                }
                res.transactions += 1;
                runTxn(u);
                return;
            }
            auto [slot, seed] = (*written)[idx];
            Addr addr = st.base + slot * cfg.recordBytes;
            dev.read(addr, cfg.recordBytes, st.buf.data(),
                     [this, u, idx, seed, slot, written] {
                         UserState& stx = (*users)[u];
                         if (!pattern.check(stx.buf.data(), seed)) {
                             res.validationFailures += 1;
                             warn("mixedload: user ", u, " slot ",
                                  slot, " immediate readback ",
                                  "mismatch, got[0]=",
                                  int(stx.buf[0]));
                         }
                         validateNext(u, idx + 1, written);
                     });
        }
    };

    auto drv = std::make_shared<Driver>(
        Driver{eq, dev, cfg, res, users, alive,
               RecordPattern(cfg.recordBytes)});
    for (unsigned u = 0; u < cfg.users; ++u)
        drv->runTxn(u);

    while (*alive > 0 &&
           (cfg.haltAtTick == 0 || eq.now() < cfg.haltAtTick) &&
           eq.runOne()) {
    }
    res.halted = *alive > 0;

    // Export the committed-record oracle. Slots with a newer write
    // still in flight are excluded: after a power cut they may hold
    // the old bytes, the new bytes, or a torn mix — all legitimate.
    for (const UserState& st : *users) {
        res.inFlightWrites += st.inflight.size();
        std::vector<std::uint64_t> slots;
        slots.reserve(st.committed.size());
        for (const auto& [slot, unused] : st.committed) {
            if (!st.inflight.count(slot))
                slots.push_back(slot);
        }
        std::sort(slots.begin(), slots.end());
        for (std::uint64_t slot : slots) {
            res.committed.push_back(
                {st.base + slot * cfg.recordBytes,
                 st.committed.at(slot)});
        }
    }

    res.elapsed = eq.now() - start;
    return res;
}

} // namespace nvdimmc::workload
