#include "sim/shard.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <functional>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/seeds.h"
#include "util/thread_pool.h"

namespace bolt {
namespace sim {

namespace {

constexpr size_t kNone = static_cast<size_t>(-1);

/// Probes the execution-plane profiler draws per host per epoch.
constexpr int kProfileProbes = 4;
/// Profile score above which a host is flagged anomalous.
constexpr double kAnomalyThreshold = 75.0;

using util::seeds::kFleetBoot;
using util::seeds::kFleetChurn;
using util::seeds::kFleetProfile;

/**
 * Call body(i, rng) for each item i in [begin, end) that want(i)
 * accepts, in item order, with rng == derive(i). The streams are
 * derived and primed util::Rng::kPrimeWidth at a time, which hides the
 * latency of their seeding chains and changes no draw, so where the
 * block boundaries fall never reaches the output. want and derive
 * must not depend on what body does to earlier items.
 */
template <typename Want, typename Derive, typename Body>
void
forEachStream(size_t begin, size_t end, Want want, Derive derive, Body body)
{
    std::array<util::Rng, util::Rng::kPrimeWidth> block;
    std::array<size_t, util::Rng::kPrimeWidth> item;
    size_t n = 0;
    auto flush = [&] {
        util::Rng::prime(std::span(block.data(), n));
        for (size_t j = 0; j < n; ++j)
            body(item[j], block[j]);
        n = 0;
    };
    for (size_t i = begin; i < end; ++i) {
        if (!want(i))
            continue;
        item[n] = i;
        block[n] = derive(i);
        if (++n == block.size())
            flush();
    }
    flush();
}

/// Items per chunk of a prepared plane: the decision thread draws from
/// chunk c while a pool job prepares chunk c + 1. Two churn chunks take
/// 400 KB; smaller chunks cost more task submits per item.
constexpr size_t kChunkItems = 1024;
/// Items one job item prepares: whole lockstep priming blocks.
constexpr size_t kBlockItems = 64;

/// Engine words prepared per boot stream: a boot tenant draws its size
/// and its start host, one word each.
constexpr size_t kBootPrefix = 2;
/// Engine words prepared per churn stream. A host-epoch draws 10-11
/// words at the median of the perfbench fleet; the few that draw more
/// run on past the prefix, unchanged but slower.
constexpr size_t kChurnPrefix = 24;

constexpr auto kEveryItem = [](size_t) { return true; };

/**
 * Runs item(i) for every i in [0, n), n >= 1, then done() once, on
 * the pool while the caller goes on with other work; join() and the
 * destructor return once done() has run.
 *
 * Items are claimed through one counter. min(workers, n) chains each
 * run one item and then, while unclaimed items remain, submit their
 * successor, so at most one task per chain waits in a queue and other
 * pool work interleaves with the items. join() claims and runs every
 * item no task has started, so it waits only on items that running
 * tasks hold: it is safe inside a pool task, and a one-thread pool
 * submits nothing and runs every item in join(). done() runs on
 * whichever thread finishes the last item. The state is shared with
 * the tasks, so a task that starts after the job is complete finds
 * nothing to claim and exits without calling item. item and done must
 * not throw.
 */
class BackgroundJob
{
  public:
    BackgroundJob(size_t n, std::function<void(size_t)> item,
                  std::function<void()> done)
        : state_(std::make_shared<State>(n, std::move(item), std::move(done)))
    {
        util::ThreadPool& pool = util::ThreadPool::global();
        // Like parallelFor, a one-thread pool runs nothing on the side.
        const size_t workers =
            pool.threadCount() > 1 ? pool.threadCount() : 0;
        for (size_t t = std::min(workers, n); t > 0; --t)
            chain(pool, state_);
    }

    ~BackgroundJob() { join(); }

    BackgroundJob(const BackgroundJob&) = delete;
    BackgroundJob& operator=(const BackgroundJob&) = delete;

    void
    join()
    {
        while (state_->runNext()) {
        }
        while (!state_->complete.load(std::memory_order_acquire))
            std::this_thread::yield();
    }

  private:
    struct State
    {
        State(size_t n, std::function<void(size_t)> item,
              std::function<void()> done)
            : n(n), item(std::move(item)), done(std::move(done))
        {
        }

        /** Claim and run one item; false when none was left. */
        bool
        runNext()
        {
            size_t i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return false;
            item(i);
            if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == n) {
                done();
                complete.store(true, std::memory_order_release);
            }
            return true;
        }

        bool
        unclaimed() const
        {
            return next.load(std::memory_order_relaxed) < n;
        }

        const size_t n;
        const std::function<void(size_t)> item;
        const std::function<void()> done;
        std::atomic<size_t> next{0};
        std::atomic<size_t> finished{0};
        std::atomic<bool> complete{false};
    };

    static void
    chain(util::ThreadPool& pool, std::shared_ptr<State> state)
    {
        pool.submit([&pool, state] {
            if (state->runNext() && state->unclaimed())
                chain(pool, state);
        });
    }

    std::shared_ptr<State> state_;
};

/**
 * Call body(i, rng) for each item i in [0, n), in item order on the
 * calling thread, with rng == derive(i). A BackgroundJob per chunk
 * prepares the first `words` engine words of each stream of the next
 * chunk on the pool, one 64-item block per job item, so the caller
 * mostly rebuilds streams from words instead of seeding and twisting.
 *
 * At chunk c the caller joins chunk c's job, which runs every block
 * no task has started, so it never waits on a task that has not
 * started. It then launches chunk c + 1 into the buffer slot of chunk
 * c - 1, which it has finished reading. The buffer is declared before
 * the jobs, whose destructors join, so no task writes to it once it is
 * gone, even when body throws. derive must be safe to call from any
 * thread. A one-thread pool would run every block in the join, so it
 * derives in place instead.
 */
template <typename Derive, typename Body>
void
forEachPrepared(size_t n, size_t words, Derive derive, Body body)
{
    if (util::ThreadPool::global().threadCount() <= 1) {
        forEachStream(0, n, kEveryItem, derive, body);
        return;
    }
    // (seed, words) per item, in two alternating chunk slots.
    auto buf = std::make_unique_for_overwrite<uint64_t[]>(
        std::min(n, 2 * kChunkItems) * (words + 1));
    auto row = [&](size_t i) {
        size_t slot = (i / kChunkItems) % 2 * kChunkItems + i % kChunkItems;
        return buf.get() + slot * (words + 1);
    };
    auto prepare = [&](size_t c) {
        size_t begin = c * kChunkItems;
        size_t end = std::min(n, begin + kChunkItems);
        if (begin >= end)
            return std::unique_ptr<BackgroundJob>();
        return std::make_unique<BackgroundJob>(
            (end - begin + kBlockItems - 1) / kBlockItems,
            [&, begin, end](size_t b) {
                size_t lo = begin + b * kBlockItems;
                forEachStream(lo, std::min(end, lo + kBlockItems),
                              kEveryItem, derive,
                              [&](size_t i, util::Rng& rng) {
                                  uint64_t* w = row(i);
                                  w[0] = rng.seed();
                                  rng.twistPrefix(std::span(w + 1, words));
                              });
            },
            [] {});
    };
    auto job = prepare(0);
    for (size_t c = 0; job; ++c) {
        job->join();
        auto next = prepare(c + 1);
        for (size_t i = c * kChunkItems;
             i < std::min(n, (c + 1) * kChunkItems); ++i) {
            const uint64_t* w = row(i);
            util::Rng rng =
                util::Rng::fromPrefix(w[0], std::span(w + 1, words));
            body(i, rng);
        }
        job = std::move(next);
    }
}

} // namespace

FleetCluster::FleetCluster(const FleetConfig& cfg) : cfg_(cfg)
{
    placement_ = cfg_.placement ? cfg_.placement : &ringPlacement_;
    if (cfg_.hosts == 0)
        cfg_.hosts = 1;
    if (cfg_.epochs < 0)
        cfg_.epochs = 0;
    if (cfg_.maxVcpus < 1)
        cfg_.maxVcpus = 1;
    shards_ = std::clamp<size_t>(cfg_.shards, 1, cfg_.hosts);
    slots_per_host_ = static_cast<size_t>(
        std::max(1, cfg_.cores) * std::max(1, cfg_.threadsPerCore));
    hosts_.resize(cfg_.hosts);
    scores_.assign(cfg_.hosts, 0.0);
    anomaly_.assign(cfg_.hosts, 0);
    vms_.reserve(cfg_.tenants);
}

size_t
FleetCluster::shardOf(size_t h) const
{
    // Contiguous partition: the first `rem` shards get base + 1 hosts.
    size_t base = hosts_.size() / shards_;
    size_t rem = hosts_.size() % shards_;
    size_t wide = rem * (base + 1);
    if (h < wide)
        return h / (base + 1);
    return rem + (h - wide) / base;
}

std::pair<size_t, size_t>
FleetCluster::shardRange(size_t s) const
{
    size_t base = hosts_.size() / shards_;
    size_t rem = hosts_.size() % shards_;
    size_t begin = s * base + std::min(s, rem);
    size_t end = begin + base + (s < rem ? 1 : 0);
    return {begin, end};
}

bool
FleetCluster::validate(std::string* why) const
{
    auto fail = [&](const std::string& msg) {
        if (why)
            *why = msg;
        return false;
    };
    uint64_t alive = 0;
    std::vector<uint8_t> seen(vms_.size(), 0);
    for (size_t h = 0; h < hosts_.size(); ++h) {
        const Host& host = hosts_[h];
        uint64_t used = 0;
        for (uint32_t vm : host.residents) {
            if (vm >= vms_.size())
                return fail("host " + std::to_string(h) +
                            " lists unknown vm " + std::to_string(vm));
            if (seen[vm])
                return fail("vm " + std::to_string(vm) +
                            " resident on two hosts");
            seen[vm] = 1;
            if (!vms_[vm].alive)
                return fail("vm " + std::to_string(vm) +
                            " resident but not alive");
            if (vms_[vm].host != h)
                return fail("vm " + std::to_string(vm) +
                            " resident on host " + std::to_string(h) +
                            " but placed on " +
                            std::to_string(vms_[vm].host));
            used += vms_[vm].vcpus;
            ++alive;
        }
        if (used != host.used)
            return fail("host " + std::to_string(h) + " used slots " +
                        std::to_string(host.used) + " != resident sum " +
                        std::to_string(used));
    }
    for (size_t v = 0; v < vms_.size(); ++v)
        if (vms_[v].alive && !seen[v])
            return fail("vm " + std::to_string(v) +
                        " alive but resident nowhere");
    if (alive != alive_)
        return fail("alive count " + std::to_string(alive_) +
                    " != resident total " + std::to_string(alive));
    return true;
}

size_t
RingFirstFitPlacement::pickHost(const FleetCluster& fleet, uint8_t vcpus,
                                size_t start, size_t exclude)
{
    const size_t H = fleet.hosts();
    for (size_t k = 0; k < H; ++k) {
        size_t h = start + k;
        if (h >= H)
            h -= H;
        if (h == exclude)
            continue;
        if (fleet.hostDown(h) ||
            fleet.hostUsed(h) + vcpus >
                static_cast<uint32_t>(fleet.slotsPerHost()))
            continue;
        return h;
    }
    return kNoHost;
}

bool
FleetCluster::place(uint32_t vm, size_t start, size_t exclude,
                    bool migration, FleetEpoch* ep)
{
    // Host *selection* is delegated to the pluggable policy; slot
    // accounting and migration bookkeeping stay here so every policy
    // shares one correct mutation path.
    size_t h = placement_->pickHost(*this, vms_[vm].vcpus, start, exclude);
    if (h == FleetPlacementPolicy::kNoHost)
        return false;
    Host& host = hosts_[h];
    host.used += vms_[vm].vcpus;
    host.residents.push_back(vm);
    vms_[vm].host = static_cast<uint32_t>(h);
    if (migration && ep) {
        ++ep->migrations;
        if (shardOf(exclude) != shardOf(h))
            ++ep->crossShard;
    }
    return true;
}

void
FleetCluster::bootFleet(FleetResult* out)
{
    // Boot placement is decision-plane work: one stream per tenant,
    // ring first-fit from a drawn start host.
    forEachPrepared(
        cfg_.tenants, kBootPrefix,
        [seed = cfg_.seed](size_t i) {
            return util::Rng::stream(seed, {kFleetBoot, i});
        },
        [&](size_t, util::Rng& rng) {
            Vm vm;
            vm.vcpus =
                static_cast<uint8_t>(rng.uniformInt(1, cfg_.maxVcpus));
            vm.alive = true;
            uint32_t id = static_cast<uint32_t>(vms_.size());
            vms_.push_back(vm);
            if (place(id, rng.index(hosts_.size()), kNone, false,
                      nullptr)) {
                ++alive_;
                ++out->vmsBooted;
            } else {
                vms_[id].alive = false;
                ++out->placementFailures;
            }
        });
    out->vmsAlive = alive_;
}

void
FleetCluster::decideEpoch(int epoch, FleetEpoch* ep)
{
    const size_t H = hosts_.size();
    const uint64_t e = static_cast<uint64_t>(epoch);
    for (size_t h = 0; h < H; ++h)
        hosts_[h].down = false;

    forEachPrepared(
        H, kChurnPrefix,
        [seed = cfg_.seed, e](size_t h) {
            return util::Rng::stream(seed, {kFleetChurn, h, e});
        },
        [&](size_t h, util::Rng& rng) {
            Host& host = hosts_[h];

            // Host fault: the host drops for this epoch and the master
            // evacuates every resident VM (a migration when a home is
            // found, a departure when the fleet has no room).
            if (cfg_.hostFaultProb > 0.0 &&
                rng.bernoulli(cfg_.hostFaultProb)) {
                host.down = true;
                ++ep->hostFaults;
                while (!host.residents.empty()) {
                    uint32_t vm = host.residents.back();
                    host.residents.pop_back();
                    host.used -= vms_[vm].vcpus;
                    if (!place(vm, rng.index(H), h, true, ep)) {
                        vms_[vm].alive = false;
                        --alive_;
                        ++ep->departures;
                    }
                }
                return; // no churn draws or arrivals on a down host
            }

            // Per-VM churn: one uniform draw decides depart / migrate /
            // stay. Swap-removal keeps the pass O(residents); the
            // swapped-in VM gets its own draw at the same index.
            for (size_t i = 0; i < host.residents.size();) {
                uint32_t vm = host.residents[i];
                double u = rng.uniform();
                if (u < cfg_.departureProb) {
                    host.residents[i] = host.residents.back();
                    host.residents.pop_back();
                    host.used -= vms_[vm].vcpus;
                    vms_[vm].alive = false;
                    --alive_;
                    ++ep->departures;
                    continue;
                }
                if (u < cfg_.departureProb + cfg_.migrationProb) {
                    if (place(vm, rng.index(H), h, true, ep)) {
                        host.residents[i] = host.residents.back();
                        host.residents.pop_back();
                        host.used -= vms_[vm].vcpus;
                        continue;
                    }
                }
                ++i;
            }

            // Arrivals: floor(rate) guaranteed, fractional part Bernoulli.
            int n = static_cast<int>(cfg_.arrivalsPerHostEpoch);
            double frac = cfg_.arrivalsPerHostEpoch - n;
            if (frac > 0.0 && rng.bernoulli(frac))
                ++n;
            for (int a = 0; a < n; ++a) {
                Vm vm;
                vm.vcpus =
                    static_cast<uint8_t>(rng.uniformInt(1, cfg_.maxVcpus));
                vm.alive = true;
                uint32_t id = static_cast<uint32_t>(vms_.size());
                vms_.push_back(vm);
                if (place(id, rng.index(H), kNone, false, nullptr)) {
                    ++alive_;
                    ++ep->arrivals;
                } else {
                    vms_[id].alive = false;
                    ++ep->placementFailures;
                }
            }
        });
    ep->alive = alive_;
}

void
FleetCluster::takeSnapshot(HostSnapshot* snap) const
{
    for (size_t h = 0; h < hosts_.size(); ++h) {
        const Host& host = hosts_[h];
        snap->used[h] = host.used;
        snap->residents[h] = static_cast<uint32_t>(host.residents.size());
        snap->down[h] = host.down ? 1 : 0;
    }
}

void
FleetCluster::profileShard(size_t shard, int epoch,
                           const HostSnapshot& snap)
{
    // A node tracker scans only its own hosts and writes only their
    // slots, on streams keyed by (host, epoch) — so neither the shard
    // count nor the thread count can change a slot.
    const uint64_t e = static_cast<uint64_t>(epoch);
    auto [begin, end] = shardRange(shard);
    // A down host scores zero and derives no stream.
    for (size_t h = begin; h < end; ++h) {
        if (snap.down[h]) {
            scores_[h] = 0.0;
            anomaly_[h] = 0;
        }
    }
    forEachStream(
        begin, end, [&](size_t h) { return !snap.down[h]; },
        [&](size_t h) {
            return util::Rng::stream(cfg_.seed, {kFleetProfile, h, e});
        },
        [&](size_t h, util::Rng& rng) {
            double load = 100.0 * static_cast<double>(snap.used[h]) /
                          static_cast<double>(slots_per_host_);
            double score = 0.0;
            for (int k = 0; k < kProfileProbes; ++k)
                score += rng.clampedGaussian(load, 6.0, 0.0, 100.0);
            score /= kProfileProbes;
            scores_[h] = score;
            anomaly_[h] = score > kAnomalyThreshold ? 1 : 0;
        });
}

uint64_t
FleetCluster::epochDigest(int epoch, const FleetEpoch& ep,
                          const HostSnapshot& snap) const
{
    // Folded sequentially in global host order over decision-plane
    // state and execution-plane output slots. crossShard stays out:
    // it is the one statistic that depends on where the partition
    // boundaries fall.
    util::Fnv1a d;
    d.u64(static_cast<uint64_t>(epoch));
    d.u64(ep.alive);
    d.u64(ep.arrivals);
    d.u64(ep.departures);
    d.u64(ep.migrations);
    d.u64(ep.hostFaults);
    d.u64(ep.placementFailures);
    for (size_t h = 0; h < hosts_.size(); ++h) {
        d.u64(snap.used[h]);
        d.u64(snap.residents[h]);
        d.u8(snap.down[h]);
        d.f64(scores_[h]);
        d.u8(anomaly_[h]);
    }
    return d.h;
}

FleetResult
FleetCluster::run()
{
    auto& metrics = obs::MetricsRegistry::global();
    auto& telemetry = obs::TimeSeriesRecorder::global();

    FleetResult out;
    util::Fnv1a d;
    d.u64(hosts_.size());
    d.u64(cfg_.tenants);
    d.u64(static_cast<uint64_t>(cfg_.epochs));
    d.u64(cfg_.seed);

    bootFleet(&out);
    d.u64(out.vmsBooted);
    for (const Host& host : hosts_) {
        d.u64(host.used);
        d.u64(host.residents.size());
    }
    if (cfg_.validateEpochs) {
        std::string why;
        if (!validate(&why)) {
            out.consistent = false;
            out.inconsistency = "boot: " + why;
        }
    }

    // Rolls an epoch up once its execution plane has joined. Everything
    // it reads of the hosts comes from the snapshot, which still holds
    // that epoch while the next one is being decided.
    const size_t H = hosts_.size();
    HostSnapshot snap{std::vector<uint32_t>(H), std::vector<uint32_t>(H),
                      std::vector<uint8_t>(H)};
    auto rollUp = [&](FleetEpoch ep) {
        uint64_t used =
            std::accumulate(snap.used.begin(), snap.used.end(), uint64_t{0});
        uint64_t anomalies = std::accumulate(anomaly_.begin(), anomaly_.end(),
                                             uint64_t{0});
        ep.meanUtil = 100.0 * static_cast<double>(used) /
                      (static_cast<double>(H) *
                       static_cast<double>(slots_per_host_));
        ep.anomalyRate =
            static_cast<double>(anomalies) / static_cast<double>(H);
        d.u64(ep.digest);

        out.arrivals += ep.arrivals;
        out.departures += ep.departures;
        out.migrations += ep.migrations;
        out.crossShardMigrations += ep.crossShard;
        out.hostFaults += ep.hostFaults;
        out.placementFailures += ep.placementFailures;

        // Decision-plane telemetry: the global epoch roll-up plus the
        // per-shard occupancy series (labeled s<shard>).
        telemetry.sample(obs::SeriesId::kFleetUtil, ep.t, ep.meanUtil);
        if (telemetry.enabled()) {
            for (size_t s = 0; s < shards_; ++s) {
                auto [begin, end] = shardRange(s);
                uint64_t shard_used =
                    std::accumulate(snap.used.begin() + begin,
                                    snap.used.begin() + end, uint64_t{0});
                double shard_util =
                    end == begin
                        ? 0.0
                        : 100.0 * static_cast<double>(shard_used) /
                              (static_cast<double>(end - begin) *
                               static_cast<double>(slots_per_host_));
                telemetry.sample(obs::SeriesId::kFleetShardUtil,
                                 "s" + std::to_string(s), ep.t,
                                 shard_util);
            }
            if (ep.arrivals)
                telemetry.count(obs::SeriesId::kFleetChurnEvents,
                                "arrival", ep.t, ep.arrivals);
            if (ep.departures)
                telemetry.count(obs::SeriesId::kFleetChurnEvents,
                                "departure", ep.t, ep.departures);
            if (ep.migrations)
                telemetry.count(obs::SeriesId::kFleetChurnEvents,
                                "migration", ep.t, ep.migrations);
            if (ep.hostFaults)
                telemetry.count(obs::SeriesId::kFleetChurnEvents,
                                "host-fault", ep.t, ep.hostFaults);
        }
        metrics.observe(obs::MetricId::kFleetEpochUtilPct, ep.meanUtil);
        metrics.gaugeMax(obs::MetricId::kFleetVmsAlivePeak,
                         static_cast<double>(ep.alive));

        out.epochs.push_back(ep);
    };

    double t = 0.0;
    out.epochs.reserve(static_cast<size_t>(cfg_.epochs));
    // The epoch whose execution plane is in flight. The job reads the
    // snapshot and writes inflight.digest; both outlive it, so a
    // decision that throws unwinds through the job's join first.
    FleetEpoch inflight;
    std::unique_ptr<BackgroundJob> job;
    auto land = [&] {
        if (!job)
            return;
        job.reset();
        rollUp(inflight);
    };
    for (int e = 0; e < cfg_.epochs; ++e) {
        FleetEpoch ep;
        decideEpoch(e, &ep);
        t += cfg_.epochSec;
        ep.t = t;
        if (cfg_.validateEpochs && out.consistent) {
            std::string why;
            if (!validate(&why)) {
                out.consistent = false;
                out.inconsistency =
                    "epoch " + std::to_string(e) + ": " + why;
            }
        }

        land();
        takeSnapshot(&snap);
        inflight = ep;
        job = std::make_unique<BackgroundJob>(
            shards_,
            [this, e, &snap](size_t s) { profileShard(s, e, snap); },
            [this, e, &snap, &inflight] {
                inflight.digest = epochDigest(e, inflight, snap);
            });
    }
    land();

    out.digest = d.h;
    out.simSeconds = t;
    out.vmsAlive = alive_;

    metrics.add(obs::MetricId::kFleetEpochsRun,
                static_cast<uint64_t>(cfg_.epochs));
    metrics.add(obs::MetricId::kFleetVmArrivals, out.arrivals);
    metrics.add(obs::MetricId::kFleetVmDepartures, out.departures);
    metrics.add(obs::MetricId::kFleetVmMigrations, out.migrations);
    metrics.add(obs::MetricId::kFleetCrossShardMigrations,
                out.crossShardMigrations);
    metrics.add(obs::MetricId::kFleetHostFaults, out.hostFaults);
    return out;
}

} // namespace sim
} // namespace bolt
