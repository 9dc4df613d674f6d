/**
 * @file
 * Timing driver of the repository benchmark. `perfbench/run.py` builds
 * and runs it; README.md in this directory explains the workloads, the
 * metrics and which per-layer number should move which end-to-end one.
 *
 *   bolt_perfbench --workload detect|serve|fleet --seed N --seconds S
 *                  --threads T --trace 0|1 [--spans-out FILE]
 *
 * The driver only calls the library's public entry points and times
 * them from outside. It prints one JSON object of raw measurements on
 * stdout (per-pass wall times, set-up samples, correctness checks,
 * failure counts and, with --trace 1, per-layer counts and samples);
 * run.py reduces them to the reported metrics. With --trace 1 the
 * process-wide obs::MetricsRegistry is enabled for the traced passes
 * only, and the benchmark's own spans (one per public call it makes)
 * are kept in memory and written to --spans-out when the run ends.
 */
#include <sys/resource.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/recommender.h"
#include "core/training.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/loadgen.h"
#include "sim/shard.h"
#include "util/digest.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads/generators.h"

using namespace bolt;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Workload settings. Each is chosen so that one layer dominates; the
// reasons are in README.md.
// ---------------------------------------------------------------------

/** Set-up repetitions at the start and after each pass (setup_s: median). */
constexpr int kSetupReps = 10;
/** Timed passes per run at least, however long they take. */
constexpr int kMinPasses = 3;

/** detect: experiment seeds per pass, each run under both policies. */
constexpr uint64_t kDetectSeeds = 4;

/** serve: analyze-only open loop below the 4-lane capacity. */
constexpr size_t kServeRequests = 8000;
constexpr double kServeOfferedQps = 2800.0;
/** Requests replayed through analyze()/analyzeBatch() when traced. */
constexpr size_t kReplayQueries = 2000;

/** fleet: perf_fleet_scaling's churn rates at 32k hosts. */
constexpr size_t kFleetHosts = 32000;
constexpr int kFleetEpochs = 8;

/** Rng::stream derivations per micro-timing sample, on their own path. */
constexpr size_t kRngStreamsPerSample = 20000;
constexpr uint64_t kRngBenchPath = 0x62656e6368ull; // "bench"
constexpr int kRngSamples = 7;

core::ExperimentConfig
detectConfig(uint64_t seed, core::ExperimentConfig::Policy policy)
{
    core::ExperimentConfig cfg; // Table 1: 40 servers, 108 victims
    cfg.seed = seed;
    cfg.policy = policy;
    return cfg;
}

serve::ServeConfig
serveConfig(uint64_t seed)
{
    serve::ServeConfig cfg;
    cfg.workers = 4;
    cfg.queueCapacity = 256;
    cfg.maxBatch = 8;
    cfg.load.requests = kServeRequests;
    cfg.load.offeredQps = kServeOfferedQps;
    cfg.load.sloMs = 50.0;
    cfg.load.decomposeFraction = 0.0;
    cfg.load.seed = seed;
    return cfg;
}

sim::FleetConfig
fleetConfig(uint64_t seed)
{
    sim::FleetConfig cfg;
    cfg.hosts = kFleetHosts;
    cfg.tenants = kFleetHosts * 8;
    cfg.shards = std::max<size_t>(1, kFleetHosts / 512);
    cfg.epochs = kFleetEpochs;
    cfg.arrivalsPerHostEpoch = 0.3;
    cfg.departureProb = 0.05;
    cfg.migrationProb = 0.03;
    cfg.hostFaultProb = 0.01;
    cfg.seed = seed;
    return cfg;
}

// ---------------------------------------------------------------------
// JSON output helpers.
// ---------------------------------------------------------------------

std::string
jnum(double v)
{
    std::ostringstream os;
    os << std::setprecision(17) << v;
    return os.str();
}

std::string
jstr(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jarr(const std::vector<double>& xs)
{
    std::string out = "[";
    for (size_t i = 0; i < xs.size(); ++i) {
        if (i)
            out += ',';
        out += jnum(xs[i]);
    }
    return out + "]";
}

std::string
jobj(const std::vector<std::pair<std::string, std::string>>& fields)
{
    std::string out = "{";
    for (size_t i = 0; i < fields.size(); ++i) {
        if (i)
            out += ',';
        out += jstr(fields[i].first);
        out += ':';
        out += fields[i].second;
    }
    return out + "}";
}

std::string
hex64(uint64_t v)
{
    std::ostringstream os;
    os << std::hex << std::setw(16) << std::setfill('0') << v;
    return os.str();
}

// ---------------------------------------------------------------------
// Spans: name, start, end, parent and request id of every public call
// the benchmark makes while tracing. Recorded from the main thread
// only, kept in memory, written once at the end.
// ---------------------------------------------------------------------

struct Span
{
    std::string name;
    double startUs = 0.0;
    double endUs = 0.0;
    int64_t parent = -1;
    int64_t request = -1;
};

class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    void setEnabled(bool on) { enabled_ = on; }

    int64_t begin(const std::string& name, int64_t request = -1)
    {
        if (!enabled_)
            return -1;
        Span s;
        s.name = name;
        s.startUs = nowUs();
        s.parent = open_.empty() ? -1 : open_.back();
        s.request = request;
        spans_.push_back(std::move(s));
        int64_t id = static_cast<int64_t>(spans_.size()) - 1;
        open_.push_back(id);
        return id;
    }

    void end(int64_t id)
    {
        if (id < 0)
            return;
        spans_[static_cast<size_t>(id)].endUs = nowUs();
        open_.pop_back();
    }

    size_t size() const { return spans_.size(); }

    void writeJsonl(std::ostream& os) const
    {
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span& s = spans_[i];
            os << jobj({{"id", std::to_string(i)},
                        {"name", jstr(s.name)},
                        {"start_us", jnum(s.startUs)},
                        {"end_us", jnum(s.endUs)},
                        {"parent", std::to_string(s.parent)},
                        {"request", std::to_string(s.request)}})
               << "\n";
        }
    }

  private:
    double nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    Clock::time_point origin_;
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int64_t> open_;
};

/** RAII span; a no-op while the log is disabled. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog& log, const std::string& name, int64_t request = -1)
        : log_(log), id_(log.begin(name, request))
    {
    }
    ~ScopedSpan() { log_.end(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    SpanLog& log_;
    int64_t id_;
};

// ---------------------------------------------------------------------
// Run state shared by the workloads.
// ---------------------------------------------------------------------

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    unsigned threads = 1;
    bool trace = false;
    std::string spansOut;
};

struct Pass
{
    double wallS = 0.0;
    double items = 0.0;
};

struct Run
{
    explicit Run(Args a) : args(std::move(a)), spans(Clock::now()) {}

    Args args;
    SpanLog spans;
    std::vector<double> setupS;
    std::vector<Pass> passes;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    struct CheckTally
    {
        uint64_t runs = 0;
        uint64_t failures = 0;
        std::string firstFailure;
    };
    std::map<std::string, CheckTally> checks;
    bool allChecksOk = true;
    /** Exact per-layer values (counts, Sim-class outcomes). */
    std::map<std::string, double> layer;
    /** Per-layer samples; run.py reports their median. */
    std::map<std::string, std::vector<double>> layerSamples;
    /** Latency samples; run.py applies the percentile rule. */
    std::map<std::string, std::vector<double>> latencySamples;
    /** Tracing overhead: untraced vs traced pass wall times. */
    std::vector<double> untracedS;
    std::vector<double> tracedS;
    /** Output digest of the warm-up pass; every other pass must match. */
    uint64_t digest = 0;

    void check(const std::string& name, bool ok,
               const std::string& detail = "")
    {
        CheckTally& t = checks[name];
        ++t.runs;
        if (!ok) {
            if (t.failures++ == 0)
                t.firstFailure = detail;
            allChecksOk = false;
            std::cerr << "perfbench: check failed: " << name << " "
                      << detail << "\n";
        }
    }
};

obs::MetricsRegistry&
registry()
{
    return obs::MetricsRegistry::global();
}

/** Enable the registry from a clean slate for one traced pass. */
void
beginObs()
{
    registry().reset();
    registry().setEnabled(true);
}

obs::Snapshot
endObs()
{
    registry().setEnabled(false);
    return registry().snapshot();
}

double
counter(const obs::Snapshot& s, obs::MetricId id)
{
    return static_cast<double>(s.counter(id).value);
}

/**
 * Per-layer values every workload reports from the registry. Layers a
 * workload does not reach read 0, which is itself the prediction.
 */
void
recordRegistryLayers(Run& run, const obs::Snapshot& s)
{
    using obs::MetricId;
    const auto& analyze = s.histogram(MetricId::kRecommenderAnalyzeWallUs);
    const auto& decompose =
        s.histogram(MetricId::kRecommenderDecomposeWallUs);
    const auto& iters =
        s.histogram(MetricId::kDetectorIterationsToConvergence);
    double skipped = counter(s, MetricId::kRecommenderPruneSkipped);
    double evaluated = counter(s, MetricId::kRecommenderPruneEvaluated);

    auto& L = run.layer;
    L["core.recommender.analyze.calls"] =
        counter(s, MetricId::kRecommenderAnalyzeCalls);
    L["core.recommender.analyze.busy_s"] = analyze.sum / 1e6;
    L["core.recommender.decompose.calls"] =
        counter(s, MetricId::kRecommenderDecomposeCalls);
    L["core.recommender.decompose.busy_s"] = decompose.sum / 1e6;
    L["core.recommender.prune_hit_rate"] =
        skipped + evaluated > 0.0 ? skipped / (skipped + evaluated) : 0.0;
    L["core.detector.rounds"] = counter(s, MetricId::kDetectorRounds);
    L["core.detector.decomposed_guesses"] =
        counter(s, MetricId::kDetectorDecomposedGuesses);
    L["core.detector.iterations_mean"] = iters.mean();
    L["core.profiler.benchmarks_run"] =
        counter(s, MetricId::kProfilerBenchmarksRun);
    L["sched.picks"] = counter(s, MetricId::kSchedPicks);
    L["sched.placement_failures"] =
        counter(s, MetricId::kSchedPlacementFailures);
    L["util.thread_pool.tasks_executed"] =
        counter(s, MetricId::kPoolTasksExecuted);
    L["util.thread_pool.steals"] = counter(s, MetricId::kPoolSteals);
    L["util.thread_pool.helper_tasks"] =
        counter(s, MetricId::kPoolHelperTasks);
}

/** Median wall time of one Rng::stream derivation (plus one draw). */
void
timeRngStreams(Run& run)
{
    ScopedSpan span(run.spans, "util.rng.stream_microbench");
    auto& samples = run.layerSamples["util.rng.stream_ns"];
    double sink = 0.0;
    for (int rep = 0; rep < kRngSamples; ++rep) {
        auto t0 = Clock::now();
        for (size_t i = 0; i < kRngStreamsPerSample; ++i) {
            util::Rng rng = util::Rng::stream(
                run.args.seed,
                {kRngBenchPath, static_cast<uint64_t>(rep), i});
            sink += rng.uniform();
        }
        samples.push_back(secondsSince(t0) * 1e9 / kRngStreamsPerSample);
    }
    if (sink < 0.0) // keeps the draws observable
        std::cerr << sink;
}

/** The recommender and the training set it references. */
struct Model
{
    std::unique_ptr<core::TrainingSet> training;
    std::unique_ptr<core::HybridRecommender> recommender;
};

/**
 * Offline training exactly as ControlledExperiment::run() performs it
 * for the same seed: the 120-app training set profiled through the
 * plain-VM channel, then the recommender built over it.
 */
Model
buildModel(Run& run, uint64_t seed)
{
    ScopedSpan span(run.spans, "setup");
    core::ExperimentConfig cfg;
    Model m;
    auto t0 = Clock::now();
    {
        ScopedSpan s(run.spans, "workloads.training.build");
        util::Rng root(seed);
        util::Rng train_rng = root.substream("training");
        auto specs = workloads::trainingSet(train_rng, cfg.trainingApps);
        m.training = std::make_unique<core::TrainingSet>(
            core::TrainingSet::fromSpecs(
                specs, train_rng, 2.0,
                sim::IsolationConfig::none(cfg.isolation.platform)));
    }
    double build_s = secondsSince(t0);
    auto t1 = Clock::now();
    {
        ScopedSpan s(run.spans, "core.recommender.ctor");
        m.recommender = std::make_unique<core::HybridRecommender>(
            *m.training, cfg.recommender);
    }
    double ctor_s = secondsSince(t1);
    run.setupS.push_back(secondsSince(t0));
    run.layerSamples["workloads.training.build_s"].push_back(build_s);
    run.layerSamples["core.recommender.ctor_s"].push_back(ctor_s);
    return m;
}

/**
 * Time passes of a workload until --seconds have passed (at least
 * kMinPasses), with `setupReps` after each so that set-up is sampled
 * across the whole run. A traced run follows every untraced pass with a
 * traced one (at least two pairs): the registry on, spans on. Returns
 * the registry snapshot of the last traced pass.
 */
obs::Snapshot
timePasses(Run& run, const std::function<Pass(bool traced)>& pass,
           const std::function<void()>& setupReps)
{
    obs::Snapshot snap;
    auto start = Clock::now();
    while (run.passes.size() < static_cast<size_t>(kMinPasses) ||
           secondsSince(start) < run.args.seconds ||
           (run.args.trace && run.tracedS.size() < 2)) {
        run.spans.setEnabled(false);
        Pass p = pass(false);
        run.passes.push_back(p);
        setupReps();
        run.spans.setEnabled(run.args.trace);
        if (!run.args.trace)
            continue;
        run.untracedS.push_back(p.wallS);
        ScopedSpan span(run.spans, "pass.traced");
        beginObs();
        run.tracedS.push_back(pass(true).wallS);
        snap = endObs();
    }
    return snap;
}

/** Run `body` on a 1-thread pool, then restore --threads. */
template <typename F>
auto
onOneThread(Run& run, F body)
{
    ScopedSpan span(run.spans, "pass.1_thread");
    util::ThreadPool::setGlobalThreads(1);
    auto out = body();
    util::ThreadPool::setGlobalThreads(run.args.threads);
    return out;
}

// ---------------------------------------------------------------------
// detect: the Table 1 controlled experiment under both placements.
// ---------------------------------------------------------------------

struct DetectPass
{
    double wallS[2] = {0.0, 0.0}; ///< least-loaded, Quasar
    std::vector<uint64_t> digests; ///< Per (experiment seed, policy).
    size_t scheduled = 0;
    size_t victims = 0;
    size_t classCorrect = 0;
    size_t charCorrect = 0;
};

/**
 * One pass: the Table 1 experiment for kDetectSeeds experiment seeds
 * derived from the workload seed, each under both placements. Several
 * experiment seeds per pass keep one unlucky victim mix from setting
 * a run's figure.
 */
DetectPass
detectPass(Run& run)
{
    using Policy = core::ExperimentConfig::Policy;
    const Policy policies[2] = {Policy::LeastLoaded, Policy::Quasar};
    const char* names[2] = {"core.experiment.run.ll",
                            "core.experiment.run.quasar"};
    DetectPass p;
    for (uint64_t k = 0; k < kDetectSeeds; ++k) {
        for (int i = 0; i < 2; ++i) {
            core::ControlledExperiment exp(detectConfig(
                run.args.seed * kDetectSeeds + k, policies[i]));
            auto t0 = Clock::now();
            core::ExperimentResult r;
            {
                ScopedSpan span(run.spans, names[i]);
                r = exp.run();
            }
            p.wallS[i] += secondsSince(t0);
            p.digests.push_back(r.digest());
            p.scheduled += r.outcomes.size();
            p.victims += exp.victims().size();
            for (const auto& o : r.outcomes) {
                p.classCorrect += o.classCorrect ? 1 : 0;
                p.charCorrect += o.charCorrect ? 1 : 0;
            }
        }
    }
    return p;
}

void
runDetect(Run& run)
{
    // Set-up is the offline training run() repeats internally; timing it
    // alone shows work moved into or out of it.
    auto setupReps = [&] {
        for (int i = 0; i < kSetupReps; ++i)
            buildModel(run, run.args.seed);
    };
    setupReps();
    DetectPass ref;
    {
        ScopedSpan span(run.spans, "pass.warmup");
        ref = detectPass(run); // reference digests
    }
    util::Fnv1a all;
    for (uint64_t d : ref.digests)
        all.u64(d);
    run.digest = all.h;
    auto checkPass = [&](const DetectPass& p, const char* what) {
        run.attempted += p.scheduled;
        run.check(std::string("detect.digest_same.") + what,
                  p.digests == ref.digests,
                  hex64(p.digests.front()) + " vs " +
                      hex64(ref.digests.front()));
    };
    checkPass(ref, "warmup");

    std::vector<double> ll_s, quasar_s;
    obs::Snapshot snap = timePasses(
        run,
        [&](bool traced) {
            DetectPass p = detectPass(run);
            checkPass(p, traced ? "traced" : "repeat");
            if (!traced) {
                ll_s.push_back(p.wallS[0] / kDetectSeeds);
                quasar_s.push_back(p.wallS[1] / kDetectSeeds);
            }
            return Pass{p.wallS[0] + p.wallS[1],
                        static_cast<double>(p.scheduled)};
        },
        setupReps);
    if (!run.args.trace)
        return;

    recordRegistryLayers(run, snap);
    run.layerSamples["core.experiment.run_s.ll"] = ll_s;
    run.layerSamples["core.experiment.run_s.quasar"] = quasar_s;

    DetectPass one = onOneThread(run, [&] { return detectPass(run); });
    checkPass(one, "1_thread");
    run.layer["core.experiment.speedup_4t"] =
        (one.wallS[0] + one.wallS[1]) / run.untracedS.back();

    double scheduled = static_cast<double>(ref.scheduled);
    run.layer["detect.class_accuracy"] =
        static_cast<double>(ref.classCorrect) / scheduled;
    run.layer["detect.char_accuracy"] =
        static_cast<double>(ref.charCorrect) / scheduled;
    // Victims the placement left unscheduled (the cluster is full by
    // design) are Table 1 outcomes, not benchmark failures.
    run.layer["detect.unscheduled_share"] =
        static_cast<double>(ref.victims - ref.scheduled) /
        static_cast<double>(ref.victims);
}

// ---------------------------------------------------------------------
// serve: the query-serving engine on an analyze-only open loop.
// ---------------------------------------------------------------------

bool
sameResult(const core::SimilarityResult& a, const core::SimilarityResult& b)
{
    if (a.ranking != b.ranking || a.distribution != b.distribution ||
        a.conceptsKept != b.conceptsKept || a.margin != b.margin ||
        a.topFittedLevel != b.topFittedLevel ||
        a.confidence != b.confidence)
        return false;
    for (size_t c = 0; c < sim::kNumResources; ++c)
        if (a.reconstructed.at(c) != b.reconstructed.at(c))
            return false;
    return true;
}

/** Every offered request ends in exactly one terminal outcome. */
void
checkServeResult(Run& run, const serve::ServeResult& r)
{
    const auto& st = r.stats;
    uint64_t by_kind[4] = {0, 0, 0, 0};
    uint64_t completed_without_digest = 0;
    bool kinds_valid = true;
    for (const auto& o : r.outcomes) {
        auto k = static_cast<size_t>(o.outcome);
        if (k >= 4) {
            kinds_valid = false;
            continue;
        }
        ++by_kind[k];
        if (o.outcome == serve::Outcome::Completed && o.resultDigest == 0)
            ++completed_without_digest;
    }
    bool terminal = kinds_valid && r.outcomes.size() == st.offered &&
                    by_kind[0] == st.completed &&
                    by_kind[1] == st.rejectedQueueFull &&
                    by_kind[2] == st.rejectedSloInfeasible &&
                    by_kind[3] == st.shedDeadline &&
                    st.offered == kServeRequests;
    run.check("serve.one_terminal_outcome_each", terminal,
              std::to_string(r.outcomes.size()) + " outcomes, " +
                  std::to_string(st.offered) + " offered");
    run.check("serve.completed_have_result_digest",
              completed_without_digest == 0,
              std::to_string(completed_without_digest) + " without");
    run.check("serve.digest_same", r.digest() == run.digest,
              hex64(r.digest()) + " vs " + hex64(run.digest));
    run.attempted += st.offered;
    run.failed +=
        st.rejectedQueueFull + st.rejectedSloInfeasible + st.shedDeadline;
}

/**
 * Replay the engine's own batches through analyze() one query at a time
 * and through analyzeBatch(), on the calling thread only.
 */
void
replayServeBatches(Run& run, const core::HybridRecommender& rec,
                   const serve::ServeConfig& cfg,
                   const serve::ServeResult& served)
{
    serve::LoadGen gen(rec.training(), cfg.load);
    std::vector<serve::Request> requests = gen.openLoopTrace();

    std::map<uint32_t, std::vector<uint64_t>> batches;
    for (uint64_t id = 0; id < served.outcomes.size(); ++id) {
        const auto& o = served.outcomes[id];
        if (o.outcome == serve::Outcome::Completed)
            batches[o.batchId].push_back(id);
    }

    auto& analyze_us = run.latencySamples["core.recommender.analyze_us"];
    double single_s = 0.0;
    double batch_s = 0.0;
    size_t queries = 0;
    size_t mismatches = 0;
    ScopedSpan replay(run.spans, "replay");
    for (const auto& [batch_id, ids] : batches) {
        if (queries >= kReplayQueries)
            break;
        std::vector<core::SimilarityResult> singles;
        std::vector<core::SparseObservation> obs;
        for (uint64_t id : ids) {
            obs.push_back(requests[id].query);
            auto t0 = Clock::now();
            {
                ScopedSpan s(run.spans, "core.recommender.analyze",
                             static_cast<int64_t>(id));
                singles.push_back(rec.analyze(requests[id].query));
            }
            double dt = secondsSince(t0);
            single_s += dt;
            analyze_us.push_back(dt * 1e6);
        }
        auto t0 = Clock::now();
        std::vector<core::SimilarityResult> batched;
        {
            ScopedSpan s(run.spans, "core.recommender.analyzeBatch",
                         static_cast<int64_t>(batch_id));
            batched = rec.analyzeBatch(obs);
        }
        batch_s += secondsSince(t0);
        for (size_t i = 0; i < ids.size(); ++i)
            if (batched.size() != ids.size() ||
                !sameResult(singles[i], batched[i]))
                ++mismatches;
        queries += ids.size();
    }
    run.check("serve.analyze_batch_equals_analyze", mismatches == 0,
              std::to_string(mismatches) + " of " +
                  std::to_string(queries) + " differ");
    run.layer["core.recommender.analyze_batch_us_per_query"] =
        batch_s * 1e6 / static_cast<double>(queries);
    run.layer["core.recommender.batch_gain"] = single_s / batch_s;
}

void
runServe(Run& run)
{
    auto setupReps = [&] {
        for (int i = 0; i < kSetupReps; ++i)
            buildModel(run, run.args.seed);
    };
    Model model = buildModel(run, run.args.seed);
    setupReps();
    const serve::ServeConfig cfg = serveConfig(run.args.seed);
    const serve::ServeEngine engine(*model.recommender, cfg);

    serve::ServeResult last;
    double last_wall = 0.0;
    auto servePass = [&](bool warmup) {
        auto t0 = Clock::now();
        {
            ScopedSpan span(run.spans, "serve.engine.run");
            last = engine.run();
        }
        last_wall = secondsSince(t0);
        if (warmup)
            run.digest = last.digest();
        checkServeResult(run, last);
        return Pass{last_wall, static_cast<double>(last.stats.completed)};
    };
    {
        ScopedSpan span(run.spans, "pass.warmup");
        servePass(true);
    }

    obs::Snapshot snap = timePasses(
        run, [&](bool) { return servePass(false); }, setupReps);
    if (!run.args.trace)
        return;

    // `last` and `last_wall` are the final traced pass's.
    recordRegistryLayers(run, snap);
    run.layerSamples["serve.engine.run_s"] = run.untracedS;
    const auto& st = last.stats;
    const auto& exec = snap.histogram(obs::MetricId::kServeExecWallUs);
    run.layer["serve.engine.batches"] = static_cast<double>(st.batches);
    run.layer["serve.engine.mean_batch"] = st.batchSizes.mean();
    run.layer["serve.engine.queue_depth_peak"] =
        static_cast<double>(st.queueDepthPeak);
    run.layer["serve.engine.recommender_share"] =
        exec.sum / 1e6 / (last_wall * static_cast<double>(run.args.threads));
    run.layer["serve.sim.achieved_qps"] = st.achievedQps;
    run.layer["serve.sim.latency_p99_ms"] = st.latencyMs.percentile(99.0);

    replayServeBatches(run, *model.recommender, cfg, last);
}

// ---------------------------------------------------------------------
// fleet: the sharded fleet simulator.
// ---------------------------------------------------------------------

/** Ring first-fit with every pickHost() call counted and timed. */
class TimedPlacement : public sim::FleetPlacementPolicy
{
  public:
    size_t pickHost(const sim::FleetCluster& fleet, uint8_t vcpus,
                    size_t start, size_t exclude) override
    {
        auto t0 = Clock::now();
        size_t h = inner_.pickHost(fleet, vcpus, start, exclude);
        busyS += secondsSince(t0);
        ++calls;
        return h;
    }
    const char* name() const override { return inner_.name(); }

    uint64_t calls = 0;
    double busyS = 0.0;

  private:
    sim::RingFirstFitPlacement inner_;
};

struct FleetPass
{
    double wallS = 0.0;
    sim::FleetResult result;
};

/** One fleet run, its invariants checked and its digest compared. */
FleetPass
fleetPass(Run& run, const std::string& what,
          sim::FleetPlacementPolicy* placement = nullptr)
{
    sim::FleetConfig cfg = fleetConfig(run.args.seed);
    cfg.placement = placement;
    std::unique_ptr<sim::FleetCluster> fleet;
    {
        ScopedSpan span(run.spans, "sim.fleet.ctor");
        fleet = std::make_unique<sim::FleetCluster>(cfg);
    }

    FleetPass p;
    auto t0 = Clock::now();
    {
        ScopedSpan span(run.spans, "sim.fleet.run");
        p.result = fleet->run();
    }
    p.wallS = secondsSince(t0);

    const sim::FleetResult& r = p.result;
    std::string why;
    run.check("fleet.validate", fleet->validate(&why), why);
    run.check("fleet.alive_balance",
              r.vmsBooted + r.arrivals - r.departures == r.vmsAlive,
              std::to_string(r.vmsBooted) + "+" +
                  std::to_string(r.arrivals) + "-" +
                  std::to_string(r.departures) +
                  " vs " + std::to_string(r.vmsAlive));
    if (what == "warmup")
        run.digest = r.digest;
    run.check("fleet.digest_same." + what, r.digest == run.digest,
              hex64(r.digest) + " vs " + hex64(run.digest));
    uint64_t epoch_failures = 0;
    for (const auto& ep : r.epochs)
        epoch_failures += ep.placementFailures;
    run.attempted += cfg.tenants + r.arrivals + epoch_failures;
    run.failed += r.placementFailures;
    return p;
}

void
runFleet(Run& run)
{
    // Set-up is the cluster's construction; run() boots and simulates.
    auto setupReps = [&] {
        for (int i = 0; i < kSetupReps; ++i) {
            ScopedSpan span(run.spans, "setup");
            auto t0 = Clock::now();
            sim::FleetCluster fleet(fleetConfig(run.args.seed));
            run.setupS.push_back(secondsSince(t0));
        }
    };
    setupReps();
    FleetPass ref;
    {
        ScopedSpan span(run.spans, "pass.warmup");
        ref = fleetPass(run, "warmup");
    }

    const double items = static_cast<double>(kFleetHosts) * kFleetEpochs;
    obs::Snapshot snap = timePasses(
        run,
        [&](bool traced) {
            return Pass{fleetPass(run, traced ? "traced" : "repeat").wallS,
                        items};
        },
        setupReps);
    if (!run.args.trace)
        return;

    recordRegistryLayers(run, snap);
    run.layerSamples["sim.fleet.run_s"] = run.untracedS;

    TimedPlacement timed;
    {
        ScopedSpan span(run.spans, "pass.timed_placement");
        fleetPass(run, "timed_placement", &timed);
    }
    run.layer["sim.fleet.place.calls"] = static_cast<double>(timed.calls);
    run.layer["sim.fleet.place_s"] = timed.busyS;

    FleetPass one =
        onOneThread(run, [&] { return fleetPass(run, "1_thread"); });
    run.layer["sim.fleet.speedup_4t"] = one.wallS / run.untracedS.back();

    const sim::FleetResult& r = ref.result;
    const sim::FleetConfig cfg = fleetConfig(run.args.seed);
    uint64_t epoch_failures = 0;
    uint64_t profiled = 0;
    for (const auto& ep : r.epochs) {
        epoch_failures += ep.placementFailures;
        profiled += cfg.hosts - ep.hostFaults;
    }
    run.layer["sim.fleet.placement_fail_rate"] =
        static_cast<double>(r.placementFailures) /
        static_cast<double>(cfg.tenants + r.arrivals + epoch_failures);
    run.layer["sim.fleet.vm_events"] = static_cast<double>(
        r.vmsBooted + r.arrivals + r.departures + r.migrations);
    // One stream per boot tenant, one churn stream per host-epoch and
    // one profile stream per host-epoch whose host is up.
    run.layer["util.rng.streams"] = static_cast<double>(
        cfg.tenants + cfg.hosts * static_cast<size_t>(cfg.epochs) +
        profiled);
}

// ---------------------------------------------------------------------
// Environment stamp and output.
// ---------------------------------------------------------------------

std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    unsigned max_ext = __get_cpuid_max(0x80000000u, nullptr);
    if (max_ext >= 0x80000004u) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        size_t b = s.find_first_not_of(' ');
        return b == std::string::npos ? "unknown" : s.substr(b);
    }
#endif
    return "unknown";
}

bool
simdBuild()
{
#ifdef BOLT_SIMD
    return true;
#else
    return false;
#endif
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
samplesJson(const std::map<std::string, std::vector<double>>& m)
{
    std::vector<std::pair<std::string, std::string>> f;
    for (const auto& [k, v] : m)
        f.push_back({k, jarr(v)});
    return jobj(f);
}

void
printResult(const Run& run)
{
    std::vector<double> pass_wall, pass_items;
    for (const auto& p : run.passes) {
        pass_wall.push_back(p.wallS);
        pass_items.push_back(p.items);
    }
    std::vector<std::pair<std::string, std::string>> layer;
    for (const auto& [k, v] : run.layer)
        layer.push_back({k, jnum(v)});
    std::vector<std::pair<std::string, std::string>> checks;
    for (const auto& [name, t] : run.checks)
        checks.push_back({name, jobj({{"runs", std::to_string(t.runs)},
                                      {"failures", std::to_string(t.failures)},
                                      {"first_failure",
                                       jstr(t.firstFailure)}})});

    unsigned nproc = std::thread::hardware_concurrency();
    std::string env = jobj({
        {"workload", jstr(run.args.workload)},
        {"seed", std::to_string(run.args.seed)},
        {"threads", std::to_string(run.args.threads)},
        {"nproc", std::to_string(nproc)},
        {"build_type", jstr(PERFBENCH_BUILD_TYPE)},
        {"bolt_simd", simdBuild() ? "true" : "false"},
        {"cpu", jstr(cpuModel())},
    });
    std::cout << jobj({
                     {"env", env},
                     {"setup_s", jarr(run.setupS)},
                     {"pass_wall_s", jarr(pass_wall)},
                     {"pass_items", jarr(pass_items)},
                     {"peak_rss_mb", jnum(peakRssMb())},
                     {"attempted", std::to_string(run.attempted)},
                     {"failed", std::to_string(run.failed)},
                     {"checks_ok", run.allChecksOk ? "true" : "false"},
                     {"digest", jstr(hex64(run.digest))},
                     {"checks", jobj(checks)},
                     {"layer", jobj(layer)},
                     {"layer_samples", samplesJson(run.layerSamples)},
                     {"latency_samples", samplesJson(run.latencySamples)},
                     {"untraced_s", jarr(run.untracedS)},
                     {"traced_s", jarr(run.tracedS)},
                     {"spans", std::to_string(run.spans.size())},
                 })
              << std::endl;
}

[[noreturn]] void
usage(const std::string& why)
{
    std::cerr << "bolt_perfbench: " << why
              << "\nusage: bolt_perfbench --workload detect|serve|fleet "
                 "--seed N --seconds S --threads T --trace 0|1 "
                 "[--spans-out FILE]\n";
    std::exit(2);
}

uint64_t
parseUnsigned(const std::string& flag, const std::string& v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos ||
        v.size() > 18)
        usage("bad value for " + flag + ": '" + v + "'");
    return std::stoull(v);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    bool have[5] = {};
    for (int i = 1; i < argc; i += 2) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        std::string v = argv[i + 1];
        if (flag == "--workload") {
            a.workload = v;
            have[0] = true;
        } else if (flag == "--seed") {
            a.seed = parseUnsigned(flag, v);
            have[1] = true;
        } else if (flag == "--seconds") {
            a.seconds = static_cast<double>(parseUnsigned(flag, v));
            have[2] = true;
        } else if (flag == "--threads") {
            a.threads = static_cast<unsigned>(parseUnsigned(flag, v));
            have[3] = true;
        } else if (flag == "--trace") {
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            a.trace = v == "1";
            have[4] = true;
        } else if (flag == "--spans-out") {
            a.spansOut = v;
        } else {
            usage("unknown flag " + flag);
        }
    }
    for (bool h : have)
        if (!h)
            usage("missing a required flag");
    if (a.workload != "detect" && a.workload != "serve" &&
        a.workload != "fleet")
        usage("unknown workload '" + a.workload + "'");
    if (a.threads < 1 || a.threads > 256 || a.seconds < 1 ||
        a.seconds > 600)
        usage("--threads or --seconds out of range");
    if (a.trace && a.spansOut.empty())
        usage("--trace 1 needs --spans-out");
    return a;
}

} // namespace

int
main(int argc, char** argv)
{
    Run run(parseArgs(argc, argv));
    obs::setLogLevel(obs::LogLevel::Error);
    util::ThreadPool::setGlobalThreads(run.args.threads);

    if (run.args.trace) {
        run.spans.setEnabled(true);
        timeRngStreams(run);
        // Layers a workload does not reach report 0; the workload below
        // overwrites the ones it measures.
        for (const char* name :
             {"core.recommender.analyze_batch_us_per_query",
              "core.recommender.batch_gain", "core.experiment.speedup_4t",
              "detect.class_accuracy", "detect.char_accuracy",
              "detect.unscheduled_share",
              "serve.engine.batches", "serve.engine.mean_batch",
              "serve.engine.queue_depth_peak",
              "serve.engine.recommender_share", "serve.sim.achieved_qps",
              "serve.sim.latency_p99_ms", "sim.fleet.speedup_4t",
              "sim.fleet.place.calls", "sim.fleet.place_s",
              "sim.fleet.placement_fail_rate", "sim.fleet.vm_events",
              "util.rng.streams", "workloads.training.build_s",
              "core.recommender.ctor_s", "core.experiment.run_s.ll",
              "core.experiment.run_s.quasar", "serve.engine.run_s",
              "sim.fleet.run_s"})
            run.layer[name] = 0.0;
    }

    if (run.args.workload == "detect")
        runDetect(run);
    else if (run.args.workload == "serve")
        runServe(run);
    else
        runFleet(run);

    if (run.args.trace) {
        std::ofstream os(run.args.spansOut);
        run.spans.writeJsonl(os);
        if (!os) {
            std::cerr << "bolt_perfbench: cannot write "
                      << run.args.spansOut << "\n";
            return 1;
        }
    }
    printResult(run);
    return 0;
}
