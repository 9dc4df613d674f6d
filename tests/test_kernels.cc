/**
 * @file
 * Bit-equality suite for the batched serve-path kernels
 * (src/linalg/kernels.h).
 *
 * Two layers of evidence:
 *
 *  - Reference equality: pearsonBatch must reproduce the scalar
 *    linalg::weightedPearson per (query, entry) bit for bit, and
 *    analyzeBatch must reproduce per-query analyze() field for field.
 *    These run in every build.
 *  - Backend equality: every kernel must produce byte-identical output
 *    lanes under the Scalar and Avx2 backends across randomized shapes
 *    (ragged tails, degenerate counts); and the callers that chain
 *    the kernels — a whole ControlledExperiment (its digest),
 *    analyzeBatch over a perf_recommender-style query mix and
 *    decompose() on blended aggregates — must give bit-identical
 *    results when run under Scalar and then Avx2 in one process. The
 *    SGD epoch kernel is held to the same standard: sgdFactorize and
 *    sgdFactorizeWarm must give bit-identical factors, RMSE and epoch
 *    counts under both backends at ranks 1..9, and must match the
 *    generic-loop oracle (sgd_oracle.h) under each. These skip when
 *    the AVX2 backend is not compiled in (non-x86-64 targets) or the
 *    CPU lacks AVX2.
 *
 * Comparisons go through the raw IEEE-754 bit pattern, never through
 * an epsilon: the kernels promise bit-exactness, so the tests demand
 * it.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/recommender.h"
#include "core/training.h"
#include "linalg/kernels.h"
#include "linalg/matrix.h"
#include "linalg/sgd.h"
#include "workloads/app.h"
#include "workloads/generators.h"

#include "sgd_oracle.h"

using namespace bolt;
using namespace bolt::linalg;

namespace {

uint64_t
bits(double v)
{
    return std::bit_cast<uint64_t>(v);
}

/** Restore the process-wide kernel backend on scope exit. */
struct BackendGuard
{
    KernelBackend saved = activeKernelBackend();
    ~BackendGuard() { setKernelBackend(saved); }
};

/** Fill [0, n) of a padded column; the tail stays zero. */
AlignedVector
randomColumn(std::mt19937_64& rng, size_t n, double lo, double hi)
{
    std::uniform_real_distribution<double> dist(lo, hi);
    AlignedVector col(paddedCount(n), 0.0);
    for (size_t i = 0; i < n; ++i)
        col[i] = dist(rng);
    return col;
}

/** Entry counts covering aligned, ragged and degenerate shapes. */
const size_t kEntryCounts[] = {1, 2, 3, 4, 5, 7, 8, 13, 16, 33};

SoaMatrix
randomRows(std::mt19937_64& rng, size_t entries, size_t lanes)
{
    std::uniform_real_distribution<double> dist(0.0, 100.0);
    SoaMatrix m(entries, lanes);
    for (size_t e = 0; e < entries; ++e)
        for (size_t l = 0; l < lanes; ++l)
            m.at(e, l) = dist(rng);
    return m;
}

} // namespace

TEST(KernelShapes, PaddedCountRoundsUpToWholeBlocks)
{
    EXPECT_EQ(paddedCount(0), 0u);
    EXPECT_EQ(paddedCount(1), kKernelBlock);
    EXPECT_EQ(paddedCount(kKernelBlock), kKernelBlock);
    EXPECT_EQ(paddedCount(kKernelBlock + 1), 2 * kKernelBlock);
}

TEST(KernelShapes, SoaMatrixAppendRowRepadsWithZeroTail)
{
    SoaMatrix m(0, 3);
    std::vector<double> row = {1.0, 2.0, 3.0};
    for (size_t r = 0; r < 2 * kKernelBlock + 1; ++r) {
        row[0] = static_cast<double>(r);
        m.appendRow(row);
        ASSERT_EQ(m.rows(), r + 1);
        ASSERT_EQ(m.paddedRows(), paddedCount(r + 1));
        // Every logical row survives the re-pad; the tail is zero.
        for (size_t e = 0; e <= r; ++e) {
            EXPECT_EQ(m.at(e, 0), static_cast<double>(e));
            EXPECT_EQ(m.at(e, 1), 2.0);
            EXPECT_EQ(m.at(e, 2), 3.0);
        }
        for (size_t c = 0; c < m.cols(); ++c)
            for (size_t e = m.rows(); e < m.paddedRows(); ++e)
                EXPECT_EQ(m.col(c)[e], 0.0);
    }
}

TEST(PearsonBatch, MatchesScalarWeightedPearsonBitForBit)
{
    std::mt19937_64 rng(0x5eed0001);
    std::uniform_real_distribution<double> wdist(0.05, 1.0);
    for (size_t entries : kEntryCounts) {
        const size_t lanes = 10;
        SoaMatrix rows = randomRows(rng, entries, lanes);
        std::vector<double> weights(lanes);
        for (double& w : weights)
            w = wdist(rng);
        PearsonTable table = buildPearsonTable(rows, weights);

        for (size_t q_count : {size_t(1), size_t(3), size_t(8)}) {
            std::vector<double> queries(q_count * lanes);
            std::uniform_real_distribution<double> qdist(0.0, 100.0);
            for (double& v : queries)
                v = qdist(rng);
            AlignedVector out(q_count * rows.paddedRows(), -1.0);
            pearsonBatch(table, queries.data(), q_count, out.data());

            for (size_t q = 0; q < q_count; ++q) {
                std::span<const double> qrow(queries.data() + q * lanes,
                                             lanes);
                for (size_t e = 0; e < entries; ++e) {
                    std::vector<double> row(lanes);
                    for (size_t l = 0; l < lanes; ++l)
                        row[l] = rows.at(e, l);
                    double ref = weightedPearson(qrow, row, weights);
                    double got = out[q * rows.paddedRows() + e];
                    EXPECT_EQ(bits(got), bits(ref))
                        << "entries=" << entries << " q=" << q
                        << " e=" << e;
                }
            }
        }
    }
}

TEST(PearsonBatch, EmptyQueryBatchWritesNothing)
{
    std::mt19937_64 rng(0x5eed0002);
    SoaMatrix rows = randomRows(rng, 5, 4);
    std::vector<double> weights = {0.4, 0.3, 0.2, 0.1};
    PearsonTable table = buildPearsonTable(rows, weights);
    AlignedVector out(rows.paddedRows(), -7.0);
    pearsonBatch(table, nullptr, 0, out.data());
    for (double v : out)
        EXPECT_EQ(v, -7.0);
}

TEST(PearsonBatch, ZeroVarianceEntryCorrelatesToZero)
{
    SoaMatrix rows(2, 3);
    // Entry 0 is flat (zero weighted variance); entry 1 ramps.
    for (size_t l = 0; l < 3; ++l) {
        rows.at(0, l) = 42.0;
        rows.at(1, l) = static_cast<double>(l) * 10.0;
    }
    std::vector<double> weights = {1.0, 1.0, 1.0};
    PearsonTable table = buildPearsonTable(rows, weights);
    std::vector<double> query = {1.0, 2.0, 3.0};
    AlignedVector out(rows.paddedRows(), -1.0);
    pearsonBatch(table, query.data(), 1, out.data());
    EXPECT_EQ(out[0], 0.0);
    EXPECT_GT(out[1], 0.9);
}

TEST(FitKernel, NonPositiveWsumYieldsSentinelScore)
{
    AlignedVector base = {50.0, 60.0, 70.0, 80.0};
    FitCoord coord{base.data(), 1.0, 55.0, DevMode::Abs, false};
    FitSpec spec;
    spec.coords = &coord;
    spec.coordCount = 1;
    spec.fitWsum = 0.0;
    spec.scoreWsum = 0.0;
    AlignedVector levels(kKernelBlock), scores(kKernelBlock);
    fitLevelsAndScore(spec, 4, levels.data(), scores.data());
    for (size_t e = 0; e < 4; ++e)
        EXPECT_EQ(scores[e], 1e9);
}

// ---------------------------------------------------------------------
// Scalar-vs-AVX2 backend equality (skipped where AVX2 cannot run).
// ---------------------------------------------------------------------

namespace {

#define SKIP_WITHOUT_AVX2()                                              \
    do {                                                                 \
        if (!kernelBackendAvailable(KernelBackend::Avx2))                \
            GTEST_SKIP() << "AVX2 backend not available on this "        \
                            "CPU or compiler";                           \
    } while (0)

void
expectLanesEqual(const AlignedVector& a, const AlignedVector& b,
                 size_t lanes, const char* what)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < lanes; ++i)
        EXPECT_EQ(bits(a[i]), bits(b[i]))
            << what << " lane " << i << " diverges: " << a[i]
            << " vs " << b[i];
}

} // namespace

TEST(BackendEquality, PearsonBatchRandomizedShapes)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    std::mt19937_64 rng(0xa5d2);
    std::uniform_real_distribution<double> wdist(0.05, 1.0);
    for (size_t entries : kEntryCounts) {
        const size_t lanes = 10;
        SoaMatrix rows = randomRows(rng, entries, lanes);
        std::vector<double> weights(lanes);
        for (double& w : weights)
            w = wdist(rng);
        PearsonTable table = buildPearsonTable(rows, weights);
        const size_t q_count = 5;
        std::vector<double> queries(q_count * lanes);
        std::uniform_real_distribution<double> qdist(0.0, 100.0);
        for (double& v : queries)
            v = qdist(rng);

        size_t out_size = q_count * rows.paddedRows();
        AlignedVector scalar_out(out_size, 0.0), simd_out(out_size, 0.0);
        ASSERT_TRUE(setKernelBackend(KernelBackend::Scalar));
        pearsonBatch(table, queries.data(), q_count, scalar_out.data());
        ASSERT_TRUE(setKernelBackend(KernelBackend::Avx2));
        pearsonBatch(table, queries.data(), q_count, simd_out.data());
        for (size_t q = 0; q < q_count; ++q)
            for (size_t e = 0; e < entries; ++e) {
                size_t i = q * rows.paddedRows() + e;
                EXPECT_EQ(bits(scalar_out[i]), bits(simd_out[i]))
                    << "entries=" << entries << " q=" << q << " e=" << e;
            }
    }
}

TEST(BackendEquality, FitLevelsAndScoreRandomizedShapes)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    std::mt19937_64 rng(0xf17);
    std::uniform_real_distribution<double> wdist(0.05, 1.0);
    std::uniform_real_distribution<double> tdist(0.0, 100.0);
    std::uniform_int_distribution<int> mdist(0, 2);
    std::uniform_int_distribution<int> bdist(0, 1);
    for (size_t entries : kEntryCounts) {
        for (size_t coords : {size_t(1), size_t(5), kMaxFitCoords}) {
            std::vector<AlignedVector> bases;
            std::vector<FitCoord> fc(coords);
            bool any_exact = false;
            double wsum_all = 0.0, wsum_exact = 0.0;
            for (size_t i = 0; i < coords; ++i) {
                bases.push_back(randomColumn(rng, entries, 0.0, 100.0));
                fc[i].base = bases.back().data();
                fc[i].weight = wdist(rng);
                fc[i].target = tdist(rng);
                fc[i].mode = static_cast<DevMode>(mdist(rng));
                fc[i].capacity = bdist(rng) == 1;
                wsum_all += fc[i].weight;
                if (fc[i].mode != DevMode::Upper) {
                    any_exact = true;
                    wsum_exact += fc[i].weight;
                }
            }
            FitSpec spec;
            spec.coords = fc.data();
            spec.coordCount = coords;
            spec.iters = 14;
            spec.skipUpperInFit = any_exact;
            spec.fitWsum = any_exact ? wsum_exact : wsum_all;
            spec.scoreWsum = wsum_all;

            size_t padded = paddedCount(entries);
            AlignedVector l1(padded), s1(padded), l2(padded), s2(padded);
            ASSERT_TRUE(setKernelBackend(KernelBackend::Scalar));
            fitLevelsAndScore(spec, entries, l1.data(), s1.data());
            ASSERT_TRUE(setKernelBackend(KernelBackend::Avx2));
            fitLevelsAndScore(spec, entries, l2.data(), s2.data());
            expectLanesEqual(l1, l2, entries, "fit level");
            expectLanesEqual(s1, s2, entries, "fit score");
        }
    }
}

TEST(BackendEquality, PruneBoundsRandomizedShapes)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    std::mt19937_64 rng(0x9c0de);
    std::uniform_real_distribution<double> wdist(0.05, 1.0);
    std::uniform_real_distribution<double> tdist(0.0, 100.0);
    std::uniform_int_distribution<int> bdist(0, 1);
    for (size_t entries : kEntryCounts) {
        const size_t coords = 8;
        std::vector<AlignedVector> lo_cols, hi_cols;
        std::vector<PruneCoord> pc(coords);
        for (size_t i = 0; i < coords; ++i) {
            lo_cols.push_back(randomColumn(rng, entries, 0.0, 50.0));
            hi_cols.push_back(randomColumn(rng, entries, 50.0, 100.0));
            pc[i].additive = bdist(rng) == 1;
            pc[i].candLo = pc[i].additive ? lo_cols.back().data() : nullptr;
            pc[i].candHi = pc[i].additive ? hi_cols.back().data() : nullptr;
            pc[i].baseLo = tdist(rng) * 0.3;
            pc[i].baseHi = pc[i].baseLo + tdist(rng) * 0.5;
            pc[i].weight = wdist(rng);
            pc[i].target = tdist(rng);
        }
        size_t padded = paddedCount(entries);
        AlignedVector b1(padded), b2(padded);
        ASSERT_TRUE(setKernelBackend(KernelBackend::Scalar));
        pruneBounds(pc.data(), coords, entries, b1.data());
        ASSERT_TRUE(setKernelBackend(KernelBackend::Avx2));
        pruneBounds(pc.data(), coords, entries, b2.data());
        expectLanesEqual(b1, b2, entries, "prune bound");
    }
}

namespace {

/** Which coordinates of a widening problem are core coordinates. */
enum class CoreLayout { Mixed, AllCore, NoCore };

/** A random widening problem: coordinates, bases and init levels. */
struct WidenProblem
{
    std::vector<WidenCoord> coords;
    std::vector<AlignedVector> candCols;
    std::vector<const double*> candPtrs;
    std::vector<double> fixedBase;
    std::vector<double> fixedLevels;
    WidenSpec spec;

    /**
     * tiny_part1: part 1's bases are at the rounding scale of the other
     * parts' sum, so its refit probes differ only in the last bits and
     * the ternary comparisons expose any change of summation order.
     */
    WidenProblem(std::mt19937_64& rng, size_t cands, size_t coord_count,
                 size_t parts, CoreLayout layout, bool core_shared,
                 bool tiny_part1 = false)
        : coords(coord_count), candPtrs(coord_count),
          fixedBase((parts - 1) * coord_count),
          fixedLevels(parts - 1, 0.7)
    {
        std::uniform_real_distribution<double> wdist(0.05, 1.0);
        std::uniform_real_distribution<double> tdist(0.0, 100.0);
        std::uniform_int_distribution<int> bdist(0, 1);
        double wsum = 0.0;
        for (size_t i = 0; i < coord_count; ++i) {
            coords[i].weight = wdist(rng);
            coords[i].target = tdist(rng);
            // Mixed: at 10 coordinates, 4 core ones (the detect shape).
            coords[i].core = layout == CoreLayout::AllCore ||
                             (layout == CoreLayout::Mixed && i % 5 < 2);
            coords[i].capacity = bdist(rng) == 1;
            wsum += coords[i].weight;
            candCols.push_back(randomColumn(rng, cands, 0.0, 100.0));
            candPtrs[i] = candCols.back().data();
            for (size_t p = 0; p + 1 < parts; ++p)
                fixedBase[p * coord_count + i] =
                    tdist(rng) * (tiny_part1 && p == 1 ? 1e-15 : 1.0);
        }
        spec.coords = coords.data();
        spec.coordCount = coord_count;
        spec.partCount = parts;
        spec.fixedBase = fixedBase.data();
        spec.candBase = candPtrs.data();
        spec.fixedInitLevels = fixedLevels.data();
        spec.coreShared = core_shared;
        spec.wsum = wsum;
    }
    // spec points into the members.
    WidenProblem(const WidenProblem&) = delete;
    WidenProblem& operator=(const WidenProblem&) = delete;
};

/** widenFit outputs of one backend. */
struct WidenOut
{
    AlignedVector dist;
    AlignedVector levels;
};

WidenOut
runWiden(KernelBackend backend, const WidenSpec& spec, size_t cands)
{
    EXPECT_TRUE(setKernelBackend(backend));
    size_t padded = paddedCount(cands);
    WidenOut out{AlignedVector(padded),
                 AlignedVector(padded * spec.partCount)};
    widenFit(spec, cands, out.dist.data(), out.levels.data());
    return out;
}

void
expectWidenEqual(const WidenOut& a, const WidenOut& b, size_t cands,
                 size_t parts, const std::string& where)
{
    SCOPED_TRACE(where);
    expectLanesEqual(a.dist, b.dist, cands, "widen distance");
    for (size_t e = 0; e < cands; ++e)
        for (size_t p = 0; p < parts; ++p) {
            size_t i = e * parts + p;
            EXPECT_EQ(bits(a.levels[i]), bits(b.levels[i]))
                << "widen level e=" << e << " p=" << p;
        }
}

} // namespace

TEST(BackendEquality, WidenFitRandomizedShapes)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    std::mt19937_64 rng(0x31de);
    struct Layout
    {
        size_t coords;
        CoreLayout core;
    };
    const Layout layouts[] = {
        {1, CoreLayout::Mixed},    {4, CoreLayout::Mixed},
        {10, CoreLayout::Mixed},   {16, CoreLayout::Mixed},
        {4, CoreLayout::AllCore},  {10, CoreLayout::NoCore},
    };
    // Entry counts up to 33 reach the 4-, 2- and 1-block groups of the
    // AVX2 kernel and its padded tails.
    for (size_t cands : kEntryCounts)
        for (const Layout& layout : layouts)
            for (size_t parts = 2; parts <= kMaxWidenParts; ++parts)
                for (int variant = 0; variant < 4; ++variant) {
                    bool core_shared = variant & 1;
                    bool tiny = variant & 2;
                    WidenProblem prob(rng, cands, layout.coords, parts,
                                      layout.core, core_shared, tiny);
                    WidenOut ref =
                        runWiden(KernelBackend::Scalar, prob.spec, cands);
                    WidenOut avx =
                        runWiden(KernelBackend::Avx2, prob.spec, cands);
                    expectWidenEqual(
                        ref, avx, cands, parts,
                        "cands=" + std::to_string(cands) +
                            " coords=" + std::to_string(layout.coords) +
                            " layout=" +
                            std::to_string(static_cast<int>(layout.core)) +
                            " parts=" + std::to_string(parts) +
                            " coreShared=" + std::to_string(core_shared) +
                            " tiny=" + std::to_string(tiny));
                }
}

TEST(BackendEquality, WidenFitZeroWeightSumSentinel)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    std::mt19937_64 rng(0x5e71);
    for (size_t cands : kEntryCounts) {
        WidenProblem prob(rng, cands, 10, 3, CoreLayout::Mixed, true);
        prob.spec.wsum = 0.0;
        WidenOut ref = runWiden(KernelBackend::Scalar, prob.spec, cands);
        WidenOut avx = runWiden(KernelBackend::Avx2, prob.spec, cands);
        for (size_t e = 0; e < cands; ++e) {
            EXPECT_EQ(1e9, ref.dist[e]) << "scalar lane " << e;
            EXPECT_EQ(1e9, avx.dist[e]) << "avx2 lane " << e;
        }
        expectWidenEqual(ref, avx, cands, 3,
                         "cands=" + std::to_string(cands));
    }
}

// ---------------------------------------------------------------------
// analyzeBatch vs per-query analyze (end-to-end bit equality).
// ---------------------------------------------------------------------

namespace {

/** Shared trained recommender (expensive, built once per suite). */
class BatchedAnalyze : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        util::Rng rng(4242);
        util::Rng tr = rng.substream("train");
        auto specs = workloads::trainingSet(tr);
        training_ = new core::TrainingSet(
            core::TrainingSet::fromSpecs(specs, tr));
        recommender_ = new core::HybridRecommender(*training_);
    }
    static void
    TearDownTestSuite()
    {
        delete recommender_;
        delete training_;
        recommender_ = nullptr;
        training_ = nullptr;
    }

    static core::TrainingSet* training_;
    static core::HybridRecommender* recommender_;
};

core::TrainingSet* BatchedAnalyze::training_ = nullptr;
core::HybridRecommender* BatchedAnalyze::recommender_ = nullptr;

void
expectResultsBitEqual(const core::SimilarityResult& a,
                      const core::SimilarityResult& b)
{
    ASSERT_EQ(a.ranking.size(), b.ranking.size());
    for (size_t i = 0; i < a.ranking.size(); ++i) {
        EXPECT_EQ(a.ranking[i].first, b.ranking[i].first);
        EXPECT_EQ(bits(a.ranking[i].second), bits(b.ranking[i].second));
    }
    ASSERT_EQ(a.distribution.size(), b.distribution.size());
    for (size_t i = 0; i < a.distribution.size(); ++i) {
        EXPECT_EQ(a.distribution[i].first, b.distribution[i].first);
        EXPECT_EQ(bits(a.distribution[i].second),
                  bits(b.distribution[i].second));
    }
    for (size_t c = 0; c < sim::kNumResources; ++c)
        EXPECT_EQ(bits(a.reconstructed.at(c)), bits(b.reconstructed.at(c)));
    EXPECT_EQ(a.conceptsKept, b.conceptsKept);
    EXPECT_EQ(bits(a.margin), bits(b.margin));
    EXPECT_EQ(bits(a.topFittedLevel), bits(b.topFittedLevel));
    EXPECT_EQ(bits(a.confidence), bits(b.confidence));
}

} // namespace

TEST_F(BatchedAnalyze, MatchesPerQueryAnalyzeBitForBit)
{
    // A mixed batch: sparse and full observations, Exact and Upper
    // bounds, varying load levels — the shapes the serve path batches.
    util::Rng rng(77);
    std::vector<core::SparseObservation> batch;
    for (size_t q = 0; q < 9; ++q) {
        const auto& entry = training_->entry((q * 5 + 2) %
                                             training_->size());
        core::SparseObservation obs;
        size_t observed = 2 + q % 9;
        size_t n = 0;
        for (sim::Resource r : sim::kAllResources) {
            if (n++ >= observed)
                break;
            double v = std::clamp(
                entry.profile[r] + rng.gaussian(0.0, 1.0), 0.0, 100.0);
            bool upper = (q % 3 == 1) && !sim::isCoreResource(r);
            obs.set(r, v,
                    upper ? core::SparseObservation::Bound::Upper
                          : core::SparseObservation::Bound::Exact);
        }
        batch.push_back(std::move(obs));
    }

    auto batched = recommender_->analyzeBatch(batch);
    ASSERT_EQ(batched.size(), batch.size());
    for (size_t q = 0; q < batch.size(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        expectResultsBitEqual(batched[q], recommender_->analyze(batch[q]));
    }
}

TEST_F(BatchedAnalyze, EmptyBatchReturnsEmpty)
{
    EXPECT_TRUE(
        recommender_->analyzeBatch(
                        std::span<const core::SparseObservation>())
            .empty());
}

TEST_F(BatchedAnalyze, SingleQueryBatchMatchesAnalyze)
{
    core::SparseObservation obs;
    obs.set(sim::Resource::CPU, 40.0);
    obs.set(sim::Resource::L2, 25.0);
    obs.set(sim::Resource::MemBw, 60.0);
    auto batched = recommender_->analyzeBatch(
        std::span<const core::SparseObservation>(&obs, 1));
    ASSERT_EQ(batched.size(), 1u);
    expectResultsBitEqual(batched[0], recommender_->analyze(obs));
}

// ---------------------------------------------------------------------
// Scalar-vs-AVX2 end to end: the kernels' callers, in one process.
// ---------------------------------------------------------------------

namespace {

/** Runs `work` under Scalar, then under Avx2; restores the backend. */
template <typename Work>
auto
underBothBackends(Work&& work)
{
    BackendGuard guard;
    EXPECT_TRUE(setKernelBackend(KernelBackend::Scalar));
    auto scalar = work();
    EXPECT_TRUE(setKernelBackend(KernelBackend::Avx2));
    auto simd = work();
    return std::make_pair(std::move(scalar), std::move(simd));
}

/** Same trained recommender as BatchedAnalyze. */
class BackendEquivalence : public BatchedAnalyze
{
};

} // namespace

TEST(BackendEquivalenceExperiment, ControlledExperimentDigestMatches)
{
    SKIP_WITHOUT_AVX2();
    core::ExperimentConfig cfg;
    cfg.servers = 8;
    cfg.victims = 20;
    cfg.trainingApps = 60;
    cfg.seed = 31;
    auto [scalar, simd] = underBothBackends(
        [&] { return core::ControlledExperiment(cfg).run(); });
    ASSERT_EQ(scalar.outcomes.size(), simd.outcomes.size());
    EXPECT_EQ(scalar.digest(), simd.digest());
    EXPECT_EQ(bits(scalar.aggregateAccuracy()),
              bits(simd.aggregateAccuracy()));
}

TEST_F(BackendEquivalence, AnalyzeBatchOverQueryMixMatches)
{
    SKIP_WITHOUT_AVX2();
    // perf_recommender's analyze mix: 2-10 observed resources at
    // varying victim load, every third query reading uncore resources
    // as Upper-bound aggregates.
    util::Rng rng(20260806);
    const size_t m = training_->size();
    const size_t observed_counts[] = {2, 3, 5, 6, 10};
    std::vector<core::SparseObservation> mix;
    for (size_t q = 0; q < 40; ++q) {
        const auto& entry = training_->entry((q * 7 + 3) % m);
        double level = 0.30 + 0.05 * static_cast<double>(q % 13);
        sim::ResourceVector p =
            workloads::scaledPressure(entry.fullLoadBase, level);
        size_t observed = observed_counts[q % 5];
        core::SparseObservation obs;
        size_t n = 0;
        for (sim::Resource r : sim::kAllResources) {
            if (n++ >= observed)
                break;
            double noisy =
                std::clamp(p[r] + rng.gaussian(0.0, 1.0), 0.0, 100.0);
            bool upper = (q % 3 == 0) && !sim::isCoreResource(r);
            obs.set(r, noisy,
                    upper ? core::SparseObservation::Bound::Upper
                          : core::SparseObservation::Bound::Exact);
        }
        mix.push_back(std::move(obs));
    }

    auto [scalar, simd] =
        underBothBackends([&] { return recommender_->analyzeBatch(mix); });
    ASSERT_EQ(scalar.size(), mix.size());
    ASSERT_EQ(simd.size(), mix.size());
    for (size_t q = 0; q < mix.size(); ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        expectResultsBitEqual(scalar[q], simd[q]);
    }
}

TEST_F(BackendEquivalence, DecomposeOutputsMatch)
{
    SKIP_WITHOUT_AVX2();
    // perf_recommender's decompose mix: two blended training entries,
    // alternating shared-core attribution and 2- or 3-part caps.
    util::Rng rng(7);
    const size_t m = training_->size();
    for (size_t q = 0; q < 12; ++q) {
        SCOPED_TRACE("query " + std::to_string(q));
        const auto& a = training_->entry((q * 11 + 5) % m);
        const auto& b = training_->entry((q * 17 + 29) % m);
        sim::ResourceVector pa = workloads::scaledPressure(
            a.fullLoadBase, 0.5 + 0.1 * static_cast<double>(q % 5));
        sim::ResourceVector pb = workloads::scaledPressure(
            b.fullLoadBase, 0.4 + 0.1 * static_cast<double>(q % 7));
        core::SparseObservation obs;
        for (sim::Resource r : sim::kAllResources) {
            double v = sim::isCoreResource(r)
                           ? pa[r]
                           : std::min(pa[r] + pb[r], 100.0);
            obs.set(r, std::clamp(v + rng.gaussian(0.0, 1.0), 0.0, 100.0));
        }
        const bool core_shared = q % 2 == 0;
        const size_t max_parts = 2 + q % 2;

        auto [scalar, simd] = underBothBackends([&] {
            return recommender_->decompose(obs, core_shared, max_parts);
        });
        ASSERT_EQ(scalar.parts.size(), simd.parts.size());
        for (size_t i = 0; i < scalar.parts.size(); ++i) {
            EXPECT_EQ(scalar.parts[i].index, simd.parts[i].index);
            EXPECT_EQ(bits(scalar.parts[i].level),
                      bits(simd.parts[i].level));
        }
        EXPECT_EQ(bits(scalar.distance), bits(simd.distance));
        EXPECT_EQ(bits(scalar.score), bits(simd.score));
    }
}

// ---------------------------------------------------------------------
// SGD epoch kernel (dispatched in linalg/sgd.cc): Scalar vs AVX2.
// ---------------------------------------------------------------------

namespace {

SgdConfig
sgdConfig(size_t rank, size_t epochs, uint64_t seed)
{
    SgdConfig cfg;
    cfg.rank = rank;
    cfg.epochs = epochs;
    cfg.seed = seed;
    return cfg;
}

/** Solves on one scratch, one per warm-start pair, in order. */
std::vector<SgdResult>
warmSolvesOnOneScratch(const SgdConfig& cfg, const SparseMatrix& data,
                const std::vector<Matrix>& warm_p,
                const std::vector<Matrix>& warm_q)
{
    SgdScratch scratch;
    scratch.entries = test::observedEntries(data);
    std::vector<SgdResult> out;
    for (size_t call = 0; call < warm_p.size(); ++call)
        out.push_back(
            sgdFactorizeWarm(cfg, warm_p[call], warm_q[call], scratch));
    return out;
}

} // namespace

TEST(BackendEquality, SgdColdAndWarmStartsAtEveryRank)
{
    SKIP_WITHOUT_AVX2();
    // Ranks 1..3 are all scalar tail, 4 and 8 whole vectors, 5..7 a
    // vector plus a tail, 9 the runtime-rank loop.
    for (size_t rank = 1; rank <= 9; ++rank) {
        SCOPED_TRACE("rank " + std::to_string(rank));
        util::Rng rng(500 + rank);
        SparseMatrix data = test::maskedProblem(rank, rng);
        SgdConfig cfg = sgdConfig(rank, 30, 61 + rank);
        auto [cold_s, cold_v] =
            underBothBackends([&] { return sgdFactorize(data, cfg); });
        test::expectSgdBitEqual(cold_s, cold_v);

        Matrix warm_p = test::randomFactors(data.rows(), rank, rng);
        Matrix warm_q = test::randomFactors(data.cols(), rank, rng);
        auto [warm_s, warm_v] = underBothBackends(
            [&] { return sgdFactorize(data, cfg, warm_p, warm_q); });
        test::expectSgdBitEqual(warm_s, warm_v);
    }
}

TEST(BackendEquality, SgdRepeatedWarmSolvesOnOneScratch)
{
    SKIP_WITHOUT_AVX2();
    for (size_t rank = 1; rank <= 9; ++rank) {
        SCOPED_TRACE("rank " + std::to_string(rank));
        util::Rng rng(1500 + rank);
        SparseMatrix data = test::maskedProblem(rank, rng);
        SgdConfig cfg = sgdConfig(rank, 20, 42);
        std::vector<Matrix> warm_p, warm_q;
        for (int call = 0; call < 3; ++call) {
            warm_p.push_back(test::randomFactors(data.rows(), rank, rng));
            warm_q.push_back(test::randomFactors(data.cols(), rank, rng));
        }
        auto [scalar, simd] = underBothBackends([&] {
            return warmSolvesOnOneScratch(cfg, data, warm_p, warm_q);
        });
        ASSERT_EQ(scalar.size(), simd.size());
        for (size_t call = 0; call < scalar.size(); ++call) {
            SCOPED_TRACE("call " + std::to_string(call));
            test::expectSgdBitEqual(scalar[call], simd[call]);
        }
    }
}

TEST(BackendEquality, SgdToleranceEarlyExit)
{
    SKIP_WITHOUT_AVX2();
    for (size_t rank = 1; rank <= 9; ++rank) {
        SCOPED_TRACE("rank " + std::to_string(rank));
        util::Rng rng(2500 + rank);
        SparseMatrix data = test::maskedProblem(rank, rng);
        SgdConfig cfg = sgdConfig(rank, 400, 5 + rank);
        cfg.tolerance = 1e-3;
        auto [cold_s, cold_v] =
            underBothBackends([&] { return sgdFactorize(data, cfg); });
        ASSERT_LT(cold_s.epochsRun, cfg.epochs) << "tolerance never hit";
        test::expectSgdBitEqual(cold_s, cold_v);

        std::vector<Matrix> warm_p{
            test::randomFactors(data.rows(), rank, rng)};
        std::vector<Matrix> warm_q{
            test::randomFactors(data.cols(), rank, rng)};
        auto [warm_s, warm_v] = underBothBackends([&] {
            return warmSolvesOnOneScratch(cfg, data, warm_p, warm_q);
        });
        ASSERT_LT(warm_s[0].epochsRun, cfg.epochs) << "tolerance never hit";
        test::expectSgdBitEqual(warm_s[0], warm_v[0]);
    }
}

TEST(BackendEquality, SgdMatchesGenericLoopOracleUnderEachBackend)
{
    SKIP_WITHOUT_AVX2();
    BackendGuard guard;
    for (KernelBackend b : {KernelBackend::Scalar, KernelBackend::Avx2}) {
        SCOPED_TRACE(b == KernelBackend::Scalar ? "Scalar" : "Avx2");
        ASSERT_TRUE(setKernelBackend(b));
        test::expectColdAndWarmStartsMatchOracle();
        test::expectRepeatedWarmSolvesMatchOracle();
        test::expectToleranceEarlyExitMatchesOracle();
    }
}
