/**
 * @file
 * Fleet-layer property tests (tier1, small fleets):
 *
 *  - shard partitioning: shardOf/shardRange are a proper partition of
 *    the host range for any (hosts, shards) combination
 *  - shard-partition invariance: the run digest is byte-identical at
 *    1/4/16 shards x 1/8 pool threads over 32 derived seeds
 *  - VM conservation: per-epoch alive counts obey
 *    alive_e = alive_{e-1} + arrivals_e - departures_e and the
 *    residency audit passes after every epoch, under fault churn too
 *  - epoch-clock monotonicity under fault churn
 *  - ragged stream blocks: a host/tenant count that is no multiple of
 *    the eight-stream derivation block keeps its recorded digest at
 *    1/5/7 shards x 1/8 pool threads
 *  - prepared stream prefixes: a heavy-churn fleet whose host-epochs
 *    mostly draw past the prepared churn prefix keeps its recorded
 *    digest, and more concurrent runs than pool workers, nested in a
 *    parallelFor, neither hang nor change a digest
 *  - pipelined epochs: the per-epoch roll-up, read from the snapshot
 *    the execution plane works on, keeps its recorded rows and
 *    telemetry export, and a decision that throws while the previous
 *    epoch's execution plane is in flight joins it before run()
 *    rethrows
 *
 * The 100k-host scale lives in test_fleet_sweep (SLOW) and
 * bench/perf_fleet_scaling; nothing here should take more than a few
 * hundred milliseconds.
 */
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/timeseries.h"
#include "sim/shard.h"
#include "util/digest.h"
#include "util/seeds.h"
#include "util/thread_pool.h"

using namespace bolt;
using sim::FleetCluster;
using sim::FleetConfig;
using sim::FleetResult;

namespace {

/** Small-but-churny config the invariance properties sweep. */
FleetConfig
smallFleet(uint64_t seed)
{
    FleetConfig cfg;
    cfg.hosts = 48;
    cfg.tenants = 200;
    cfg.epochs = 4;
    cfg.arrivalsPerHostEpoch = 0.5;
    cfg.departureProb = 0.08;
    cfg.migrationProb = 0.05;
    cfg.hostFaultProb = 0.03;
    cfg.seed = seed;
    return cfg;
}

/** Run with a given shard count under a given pool width. */
FleetResult
runWith(FleetConfig cfg, size_t shards, unsigned threads)
{
    cfg.shards = shards;
    util::ThreadPool::setGlobalThreads(threads);
    FleetResult r = FleetCluster(cfg).run();
    util::ThreadPool::setGlobalThreads(0);
    return r;
}

} // namespace

TEST(FleetShard, ShardMapIsAPartition)
{
    for (size_t hosts : {1u, 2u, 7u, 16u, 33u, 100u}) {
        for (size_t shards : {1u, 2u, 3u, 5u, 16u, 64u}) {
            FleetConfig cfg;
            cfg.hosts = hosts;
            cfg.tenants = 0;
            cfg.shards = shards;
            FleetCluster fleet(cfg);
            // Requested shard counts above the host count clamp.
            EXPECT_GE(fleet.shards(), 1u);
            EXPECT_LE(fleet.shards(), hosts);
            size_t covered = 0;
            for (size_t s = 0; s < fleet.shards(); ++s) {
                auto [begin, end] = fleet.shardRange(s);
                EXPECT_EQ(begin, covered)
                    << "gap/overlap at shard " << s;
                EXPECT_GT(end, begin) << "empty shard " << s;
                for (size_t h = begin; h < end; ++h)
                    EXPECT_EQ(fleet.shardOf(h), s) << "host " << h;
                covered = end;
            }
            EXPECT_EQ(covered, hosts);
        }
    }
}

TEST(FleetShard, ShardSizesDifferByAtMostOne)
{
    FleetConfig cfg;
    cfg.hosts = 101;
    cfg.tenants = 0;
    cfg.shards = 7;
    FleetCluster fleet(cfg);
    size_t lo = cfg.hosts, hi = 0;
    for (size_t s = 0; s < fleet.shards(); ++s) {
        auto [begin, end] = fleet.shardRange(s);
        lo = std::min(lo, end - begin);
        hi = std::max(hi, end - begin);
    }
    EXPECT_LE(hi - lo, 1u);
}

TEST(FleetInvariance, DigestIdenticalAcrossShardAndThreadCounts)
{
    // The tentpole property: over 32 derived seeds, every shard count x
    // thread count combination reproduces the 1-shard/1-thread digest
    // byte for byte. Only crossShard counts may differ.
    using util::seeds::derivedSeed;
    for (uint64_t i = 0; i < 32; ++i) {
        uint64_t seed = derivedSeed(2017, 0xF1EE7E57, i);
        FleetConfig cfg = smallFleet(seed);
        FleetResult base = runWith(cfg, 1, 1);
        ASSERT_FALSE(base.epochs.empty());
        for (size_t shards : {4u, 16u}) {
            for (unsigned threads : {1u, 8u}) {
                FleetResult r = runWith(cfg, shards, threads);
                ASSERT_EQ(r.digest, base.digest)
                    << "seed " << seed << " shards " << shards
                    << " threads " << threads;
                ASSERT_EQ(r.epochs.size(), base.epochs.size());
                for (size_t e = 0; e < r.epochs.size(); ++e) {
                    EXPECT_EQ(r.epochs[e].digest,
                              base.epochs[e].digest)
                        << "epoch " << e;
                    EXPECT_EQ(r.epochs[e].alive, base.epochs[e].alive);
                    EXPECT_EQ(r.epochs[e].migrations,
                              base.epochs[e].migrations);
                }
                EXPECT_EQ(r.vmsAlive, base.vmsAlive);
                EXPECT_EQ(r.migrations, base.migrations);
            }
        }
    }
}

TEST(FleetPlacement, DefaultPolicyPreservesHistoricalDigest)
{
    // The pluggable-placement refactor must not move a single bit of
    // the default run: this digest was captured from the pre-hook
    // FleetCluster (hard-coded ring first-fit) for this exact config.
    FleetResult r = runWith(smallFleet(2017), 1, 1);
    EXPECT_EQ(r.digest, 0x733ff1b2f17e6d09ull);

    // An explicit RingFirstFitPlacement is the same policy by
    // construction, not just by digest accident.
    sim::RingFirstFitPlacement ring;
    FleetConfig cfg = smallFleet(2017);
    cfg.placement = &ring;
    EXPECT_EQ(runWith(cfg, 1, 1).digest, r.digest);
}

TEST(FleetInvariance, PartialStreamBlocksKeepRecordedDigest)
{
    // Both planes derive their per-item streams in blocks of eight. 53
    // hosts and 211 tenants are not multiples of eight, so every pass
    // ends on a partial block; 5 and 7 shards make profile-plane blocks
    // straddle shard ends, and 10% host faults punch holes into them.
    // The digest was recorded before the planes derived in blocks.
    FleetConfig cfg = smallFleet(53211);
    cfg.hosts = 53;
    cfg.tenants = 211;
    cfg.epochs = 5;
    cfg.arrivalsPerHostEpoch = 0.7;
    cfg.hostFaultProb = 0.1;
    for (size_t shards : {1u, 5u, 7u}) {
        for (unsigned threads : {1u, 8u}) {
            FleetResult r = runWith(cfg, shards, threads);
            EXPECT_EQ(r.digest, 0x8eda355d0a64e966ull)
                << "shards " << shards << " threads " << threads;
            EXPECT_GT(r.hostFaults, 0u);
        }
    }
}

TEST(FleetInvariance, PrefixOverflowKeepsRecordedDigest)
{
    // The churn plane prepares the first 24 engine words of each
    // host-epoch's stream. With 64-slot hosts, VMs of 1-8 vCPUs, 4.5
    // arrivals per host-epoch and heavy departure and migration, about
    // 90% of host-epochs draw past those words and go on from a rebuilt
    // seeding chain. 1100 hosts and 9000 tenants end on ragged prefix
    // chunks. The digest was recorded before the decision planes used
    // prepared prefixes.
    FleetConfig cfg;
    cfg.hosts = 1100;
    cfg.tenants = 9000;
    cfg.epochs = 4;
    cfg.cores = 32;
    cfg.threadsPerCore = 2;
    cfg.maxVcpus = 8;
    cfg.arrivalsPerHostEpoch = 4.5;
    cfg.departureProb = 0.25;
    cfg.migrationProb = 0.45;
    cfg.hostFaultProb = 0.05;
    cfg.seed = 8128;
    for (size_t shards : {1u, 3u}) {
        for (unsigned threads : {1u, 2u, 8u}) {
            FleetResult r = runWith(cfg, shards, threads);
            EXPECT_EQ(r.digest, 0xd921820369625e83ull)
                << "shards " << shards << " threads " << threads;
            EXPECT_EQ(r.migrations, 28581u);
            EXPECT_GT(r.hostFaults, 0u);
        }
    }
}

TEST(FleetInvariance, NestedRunsMatchTheirSerialDigests)
{
    // run() prepares stream prefixes on the global pool, and may itself
    // run inside a pool task. More concurrent runs than pool workers,
    // each spanning several prefix chunks, must neither hang nor move a
    // digest, at any pool width.
    using util::seeds::derivedSeed;
    constexpr size_t kRuns = 17;
    auto config = [](size_t i) {
        FleetConfig cfg = smallFleet(derivedSeed(2017, 0x4E57ED, i));
        cfg.hosts = 1500 + 97 * i;
        cfg.tenants = 3 * cfg.hosts;
        cfg.epochs = 3;
        cfg.shards = 1 + i % 4;
        return cfg;
    };
    util::ThreadPool::setGlobalThreads(1);
    std::vector<uint64_t> serial(kRuns);
    for (size_t i = 0; i < kRuns; ++i)
        serial[i] = FleetCluster(config(i)).run().digest;
    for (unsigned threads : {1u, 2u, 8u}) {
        util::ThreadPool::setGlobalThreads(threads);
        std::vector<uint64_t> nested(kRuns, 0);
        util::parallelFor(
            0, kRuns,
            [&](size_t i) { nested[i] = FleetCluster(config(i)).run().digest; },
            1);
        for (size_t i = 0; i < kRuns; ++i)
            EXPECT_EQ(nested[i], serial[i])
                << "run " << i << " threads " << threads;
    }
    util::ThreadPool::setGlobalThreads(0);
}

namespace {

/** Trivial alternative policy: most-free host, ring tie-break. */
struct MostFreePlacement : sim::FleetPlacementPolicy
{
    size_t
    pickHost(const FleetCluster& fleet, uint8_t vcpus, size_t start,
             size_t exclude) override
    {
        const size_t H = fleet.hosts();
        size_t best = kNoHost;
        uint32_t best_used = 0;
        for (size_t k = 0; k < H; ++k) {
            size_t h = start + k;
            if (h >= H)
                h -= H;
            if (h == exclude || fleet.hostDown(h))
                continue;
            if (fleet.hostUsed(h) + vcpus >
                static_cast<uint32_t>(fleet.slotsPerHost()))
                continue;
            if (best == kNoHost || fleet.hostUsed(h) < best_used) {
                best = h;
                best_used = fleet.hostUsed(h);
            }
        }
        return best;
    }
    const char* name() const override { return "most-free"; }
};

} // namespace

TEST(FleetRollup, EpochRowsAndTelemetryKeepRecordedValues)
{
    // The per-epoch roll-up (epoch digest, meanUtil, anomalyRate and
    // the fleet telemetry) reads a snapshot of the decision state taken
    // before the next epoch is decided. A packed, faulted fleet flags
    // anomalous hosts and fires every churn kind. All values here were
    // recorded while the roll-up still read the live hosts after each
    // epoch's profile barrier.
    FleetConfig cfg = smallFleet(6061);
    cfg.hosts = 61;
    cfg.tenants = 700;
    cfg.epochs = 5;
    cfg.hostFaultProb = 0.08;
    cfg.validateEpochs = true;
    struct Row
    {
        double meanUtil;
        double anomalyRate;
        uint64_t digest;
    };
    const Row rows[] = {
        {50.409836065573771, 0.14754098360655737, 0x746f35c27e94078aull},
        {47.33606557377049, 0.16393442622950818, 0xfe69b05aa3abbd0eull},
        {45.594262295081968, 0.16393442622950818, 0xff7b34aae58c8fcfull},
        {44.057377049180324, 0.14754098360655737, 0x078b55460a9a37caull},
        {43.391393442622949, 0.13114754098360656, 0xf59f91d9bf35a5fcull},
    };
    auto& telemetry = obs::TimeSeriesRecorder::global();
    obs::TelemetryConfig tcfg;
    tcfg.windowSec = cfg.epochSec;
    // The shard_util series is labeled by shard, so its export depends
    // on the shard count (and on nothing else).
    for (auto [shards, exported] : {std::pair{1u, 0xfbd6690241fcbbe2ull},
                                    std::pair{5u, 0x37047c0d17f41c27ull}}) {
        for (unsigned threads : {1u, 8u}) {
            SCOPED_TRACE("shards " + std::to_string(shards) + " threads " +
                         std::to_string(threads));
            telemetry.configure(tcfg);
            telemetry.setEnabled(true);
            FleetResult r = runWith(cfg, shards, threads);
            telemetry.setEnabled(false);
            ASSERT_TRUE(r.consistent) << r.inconsistency;
            EXPECT_EQ(r.digest, 0x70c3d0d857998d15ull);
            ASSERT_EQ(r.epochs.size(), std::size(rows));
            for (size_t e = 0; e < r.epochs.size(); ++e) {
                EXPECT_EQ(r.epochs[e].meanUtil, rows[e].meanUtil)
                    << "epoch " << e;
                EXPECT_EQ(r.epochs[e].anomalyRate, rows[e].anomalyRate)
                    << "epoch " << e;
                EXPECT_EQ(r.epochs[e].digest, rows[e].digest)
                    << "epoch " << e;
            }
            obs::TelemetrySnapshot snap = telemetry.snapshot();
            size_t shardPoints = 0;
            for (const obs::SeriesPoint& p : snap.points)
                if (p.id == obs::SeriesId::kFleetShardUtil)
                    ++shardPoints;
            EXPECT_EQ(shardPoints, shards * r.epochs.size());
            std::ostringstream os;
            obs::writeTelemetryJsonl(os, snap);
            util::Fnv1a d;
            d.str(os.str());
            EXPECT_EQ(d.h, exported);
        }
    }
    telemetry.configure(obs::TelemetryConfig{});
}

TEST(FleetPlacement, CustomPolicyChangesOutcomeButStaysShardInvariant)
{
    // A different policy must actually steer placement (different
    // digest) while inheriting the two-plane determinism guarantee:
    // digests identical across shard x thread combinations.
    MostFreePlacement mostFreeA;
    FleetConfig cfg = smallFleet(2017);
    cfg.placement = &mostFreeA;
    FleetResult base = runWith(cfg, 1, 1);
    EXPECT_NE(base.digest, 0x733ff1b2f17e6d09ull);
    for (size_t shards : {4u, 16u}) {
        MostFreePlacement mostFreeB; // fresh state per run
        FleetConfig c2 = smallFleet(2017);
        c2.placement = &mostFreeB;
        FleetResult r = runWith(c2, shards, 8);
        EXPECT_EQ(r.digest, base.digest) << "shards " << shards;
    }
}

namespace {

/** Ring first-fit that counts its calls and throws on call `throwAt`. */
struct ThrowingPlacement : sim::FleetPlacementPolicy
{
    explicit ThrowingPlacement(uint64_t throwAt) : throwAt(throwAt) {}

    size_t
    pickHost(const FleetCluster& fleet, uint8_t vcpus, size_t start,
             size_t exclude) override
    {
        if (calls++ == throwAt)
            throw std::runtime_error("placement failed");
        return ring.pickHost(fleet, vcpus, start, exclude);
    }
    const char* name() const override { return "throwing"; }

    uint64_t throwAt;
    uint64_t calls = 0;
    sim::RingFirstFitPlacement ring;
};

} // namespace

TEST(FleetPipeline, DecisionExceptionJoinsTheInFlightEpoch)
{
    // A placement policy that throws while epoch e >= 1 is decided
    // unwinds run() while epoch e - 1's execution plane is in flight on
    // the pool. run() must finish that epoch's shards before it
    // rethrows, so no task touches the cluster once it is destroyed
    // (ASan and TSan report it if one does), and the pool must stay
    // usable. One that throws mid-boot unwinds while the next chunk's
    // stream preparation is in flight: 6000 tenants make 6 chunks of
    // 1024, and the throw lands in chunk 2, so no prep task may touch
    // the stream buffer once it is freed.
    FleetConfig cfg = smallFleet(77);
    cfg.hosts = 2000;
    cfg.tenants = 6000;
    cfg.shards = 8;
    // Placement calls through boot (callsThrough[0]) and through the
    // end of epoch e (callsThrough[e + 1]), from dry runs of 0 to 3
    // epochs: no decision depends on the epoch count.
    std::vector<uint64_t> callsThrough;
    for (int epochs = 0; epochs <= 3; ++epochs) {
        ThrowingPlacement counter(UINT64_MAX);
        FleetConfig c = cfg;
        c.epochs = epochs;
        c.placement = &counter;
        FleetCluster(c).run();
        callsThrough.push_back(counter.calls);
    }
    ASSERT_EQ(callsThrough[0], cfg.tenants);
    cfg.epochs = 3;
    const uint64_t clean = runWith(cfg, cfg.shards, 1).digest;
    for (unsigned threads : {1u, 4u}) {
        // Stage -1 is boot, stage e >= 0 is epoch e.
        for (int e : {-1, 1, 2}) {
            const uint64_t from = e < 0 ? 0 : callsThrough[e];
            const uint64_t to = callsThrough[e + 1];
            ASSERT_GT(to, from + 1);
            ThrowingPlacement thrower((from + to) / 2);
            FleetConfig c = cfg;
            c.placement = &thrower;
            util::ThreadPool::setGlobalThreads(threads);
            auto fleet = std::make_unique<FleetCluster>(c);
            EXPECT_THROW(fleet->run(), std::runtime_error)
                << "stage " << e << " threads " << threads;
            EXPECT_EQ(thrower.calls, thrower.throwAt + 1);
            fleet.reset();
            EXPECT_EQ(FleetCluster(cfg).run().digest, clean)
                << "stage " << e << " threads " << threads;
            util::ThreadPool::setGlobalThreads(0);
        }
    }
}

TEST(FleetInvariance, DifferentSeedsProduceDifferentDigests)
{
    FleetResult a = runWith(smallFleet(1), 1, 1);
    FleetResult b = runWith(smallFleet(2), 1, 1);
    EXPECT_NE(a.digest, b.digest);
}

TEST(FleetConservation, AliveCountsBalanceEveryEpoch)
{
    // Migration moves VMs, never creates or destroys them: across
    // every epoch, alive_e - alive_{e-1} == arrivals_e - departures_e,
    // and the end-to-end totals reconcile against the boot count. The
    // per-epoch residency audit (validateEpochs) additionally proves
    // no VM is lost or duplicated across shard boundaries.
    for (uint64_t seed : {3u, 17u, 4242u}) {
        FleetConfig cfg = smallFleet(seed);
        cfg.validateEpochs = true;
        cfg.shards = 5;
        FleetResult r = FleetCluster(cfg).run();
        ASSERT_TRUE(r.consistent) << r.inconsistency;
        uint64_t prev = r.vmsBooted;
        for (size_t e = 0; e < r.epochs.size(); ++e) {
            const sim::FleetEpoch& ep = r.epochs[e];
            EXPECT_EQ(ep.alive,
                      prev + ep.arrivals - ep.departures)
                << "epoch " << e << " seed " << seed;
            EXPECT_LE(ep.crossShard, ep.migrations);
            prev = ep.alive;
        }
        EXPECT_EQ(r.vmsAlive, prev);
        EXPECT_EQ(r.vmsAlive,
                  r.vmsBooted + r.arrivals - r.departures);
    }
}

TEST(FleetConservation, EndStateAuditPasses)
{
    FleetConfig cfg = smallFleet(9);
    cfg.shards = 3;
    FleetCluster fleet(cfg);
    fleet.run();
    std::string why;
    EXPECT_TRUE(fleet.validate(&why)) << why;
    EXPECT_EQ(fleet.hosts(), cfg.hosts);
}

TEST(FleetClock, EpochClockIsMonotoneUnderFaultChurn)
{
    FleetConfig cfg = smallFleet(31);
    cfg.hostFaultProb = 0.25; // Heavy fault churn.
    cfg.epochs = 8;
    FleetResult r = FleetCluster(cfg).run();
    ASSERT_EQ(r.epochs.size(), 8u);
    double prev = 0.0;
    uint64_t faults = 0;
    for (const sim::FleetEpoch& ep : r.epochs) {
        EXPECT_GT(ep.t, prev) << "clock must strictly advance";
        EXPECT_NEAR(ep.t - prev, cfg.epochSec, 1e-9);
        prev = ep.t;
        faults += ep.hostFaults;
    }
    EXPECT_EQ(r.simSeconds, prev);
    EXPECT_GT(faults, 0u) << "fault churn should actually fire at 25%";
    EXPECT_EQ(r.hostFaults, faults);
}

TEST(FleetEdge, ZeroTenantsAndSingleHost)
{
    FleetConfig cfg;
    cfg.hosts = 1;
    cfg.tenants = 0;
    cfg.epochs = 2;
    cfg.arrivalsPerHostEpoch = 0.0;
    FleetResult r = FleetCluster(cfg).run();
    EXPECT_EQ(r.vmsBooted, 0u);
    EXPECT_EQ(r.vmsAlive, 0u);
    EXPECT_TRUE(r.consistent);
    EXPECT_EQ(r.epochs.size(), 2u);
}

TEST(FleetEdge, OverfullFleetReportsPlacementFailures)
{
    // More boot tenants than the fleet can hold: the surplus must land
    // in placementFailures, never silently vanish.
    FleetConfig cfg;
    cfg.hosts = 2;
    cfg.cores = 2;
    cfg.threadsPerCore = 1; // 2 slots per host, 4 total.
    cfg.maxVcpus = 1;
    cfg.tenants = 10;
    cfg.epochs = 1;
    cfg.arrivalsPerHostEpoch = 0.0;
    cfg.departureProb = 0.0;
    cfg.migrationProb = 0.0;
    FleetResult r = FleetCluster(cfg).run();
    EXPECT_EQ(r.vmsBooted, 4u);
    EXPECT_EQ(r.placementFailures, 6u);
    EXPECT_TRUE(r.consistent);
}
