/**
 * @file
 * Unit and property tests for the linalg library: dense matrices,
 * one-sided Jacobi SVD, SGD PQ-reconstruction, and weighted Pearson.
 */
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/sgd.h"
#include "linalg/svd.h"
#include "util/rng.h"

using namespace bolt::linalg;
using bolt::util::Rng;

namespace {

/** Random m x n matrix with entries in [lo, hi]. */
Matrix
randomMatrix(size_t m, size_t n, Rng& rng, double lo = 0.0,
             double hi = 100.0)
{
    Matrix out(m, n);
    for (size_t r = 0; r < m; ++r)
        for (size_t c = 0; c < n; ++c)
            out(r, c) = rng.uniform(lo, hi);
    return out;
}

/** Random rank-r matrix (product of two factors). */
Matrix
lowRankMatrix(size_t m, size_t n, size_t rank, Rng& rng)
{
    Matrix p = randomMatrix(m, rank, rng, 0.0, 1.0);
    Matrix q = randomMatrix(rank, n, rng, 0.0, 1.0);
    return p.multiply(q);
}

} // namespace

TEST(Matrix, ConstructionAndAccess)
{
    Matrix m = {{1, 2, 3}, {4, 5, 6}};
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_DOUBLE_EQ(m(1, 2), 6);
    EXPECT_DOUBLE_EQ(m.at(0, 1), 2);
    EXPECT_THROW(m.at(2, 0), std::out_of_range);
    EXPECT_THROW(Matrix({{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, RowColSetAppend)
{
    Matrix m(2, 3);
    m.setRow(0, {1, 2, 3});
    EXPECT_EQ(m.row(0), (std::vector<double>{1, 2, 3}));
    EXPECT_EQ(m.col(1), (std::vector<double>{2, 0}));
    m.appendRow({7, 8, 9});
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_DOUBLE_EQ(m(2, 2), 9);
    EXPECT_THROW(m.appendRow({1}), std::invalid_argument);
}

TEST(Matrix, TransposeAndMultiply)
{
    Matrix a = {{1, 2}, {3, 4}};
    Matrix b = {{5, 6}, {7, 8}};
    Matrix c = a.multiply(b);
    EXPECT_DOUBLE_EQ(c(0, 0), 19);
    EXPECT_DOUBLE_EQ(c(1, 1), 50);
    Matrix at = a.transposed();
    EXPECT_DOUBLE_EQ(at(0, 1), 3);
    EXPECT_THROW(a.multiply(Matrix(3, 3)), std::invalid_argument);
}

TEST(Matrix, IdentityAndNorm)
{
    Matrix i3 = Matrix::identity(3);
    EXPECT_DOUBLE_EQ(i3.frobeniusNorm(), std::sqrt(3.0));
    Matrix a = {{3, 4}};
    EXPECT_DOUBLE_EQ(a.frobeniusNorm(), 5.0);
}

TEST(VectorOps, DotAndNorm)
{
    EXPECT_DOUBLE_EQ(dot({1, 2, 3}, {4, 5, 6}), 32.0);
    EXPECT_DOUBLE_EQ(norm({3, 4}), 5.0);
    EXPECT_THROW(dot({1}, {1, 2}), std::invalid_argument);
}

TEST(WeightedPearson, PerfectCorrelation)
{
    std::vector<double> w(4, 1.0);
    std::vector<double> up = {1, 2, 3, 4};
    std::vector<double> doubled = {2, 4, 6, 8};
    std::vector<double> down = {8, 6, 4, 2};
    EXPECT_NEAR(weightedPearson(up, doubled, w), 1.0, 1e-12);
    EXPECT_NEAR(weightedPearson(up, down, w), -1.0, 1e-12);
}

TEST(WeightedPearson, ZeroVarianceIsZero)
{
    std::vector<double> w(3, 1.0);
    std::vector<double> flat = {5, 5, 5};
    std::vector<double> ramp = {1, 2, 3};
    std::vector<double> zero_w = {0, 0, 0};
    EXPECT_DOUBLE_EQ(weightedPearson(flat, ramp, w), 0.0);
    EXPECT_DOUBLE_EQ(weightedPearson(ramp, ramp, zero_w), 0.0);
}

TEST(WeightedPearson, WeightsChangeResult)
{
    // Heavily weighting the coordinates where the vectors agree must
    // raise the correlation.
    std::vector<double> a = {1, 2, 10};
    std::vector<double> b = {1, 2, -10};
    std::vector<double> w_uniform = {1, 1, 1};
    std::vector<double> w_skewed = {10, 10, 0.01};
    double uniform = weightedPearson(a, b, w_uniform);
    double skewed = weightedPearson(a, b, w_skewed);
    EXPECT_GT(skewed, uniform);
}

TEST(Svd, ReconstructsInput)
{
    Rng rng(101);
    std::vector<std::pair<size_t, size_t>> shapes = {
        {6, 4}, {10, 10}, {120, 10}, {3, 5}};
    for (auto [m, n] : shapes) {
        Matrix a = randomMatrix(m, n, rng);
        auto result = svd(a);
        EXPECT_LT(Matrix::maxAbsDiff(a, result.reconstruct()), 1e-6)
            << m << "x" << n;
    }
}

TEST(Svd, SingularValuesDecreasingAndNonNegative)
{
    Rng rng(102);
    Matrix a = randomMatrix(30, 8, rng);
    auto result = svd(a);
    for (size_t i = 0; i + 1 < result.s.size(); ++i) {
        EXPECT_GE(result.s[i], result.s[i + 1]);
        EXPECT_GE(result.s[i + 1], 0.0);
    }
}

TEST(Svd, OrthonormalFactors)
{
    Rng rng(103);
    Matrix a = randomMatrix(20, 6, rng);
    auto result = svd(a);
    Matrix utu = result.u.transposed().multiply(result.u);
    Matrix vtv = result.v.transposed().multiply(result.v);
    EXPECT_LT(Matrix::maxAbsDiff(utu, Matrix::identity(6)), 1e-8);
    EXPECT_LT(Matrix::maxAbsDiff(vtv, Matrix::identity(6)), 1e-8);
}

TEST(Svd, RankForEnergy)
{
    // A rank-2 matrix concentrates all energy in two singular values.
    Rng rng(104);
    Matrix a = lowRankMatrix(20, 8, 2, rng);
    auto result = svd(a);
    EXPECT_LE(result.rankForEnergy(0.999), 2u);
    EXPECT_EQ(result.rankForEnergy(1e-9), 1u);
}

TEST(Svd, TruncatedReconstructionErrorShrinks)
{
    Rng rng(105);
    Matrix a = randomMatrix(16, 6, rng);
    auto result = svd(a);
    double prev = 1e18;
    for (size_t r = 1; r <= 6; ++r) {
        Matrix approx = result.reconstructRank(r);
        double err = 0.0;
        for (size_t i = 0; i < a.rows(); ++i)
            for (size_t j = 0; j < a.cols(); ++j)
                err += std::pow(a(i, j) - approx(i, j), 2);
        EXPECT_LE(err, prev + 1e-9);
        prev = err;
    }
    EXPECT_NEAR(prev, 0.0, 1e-9);
}

TEST(Svd, ThrowsOnEmpty)
{
    EXPECT_THROW(svd(Matrix()), std::invalid_argument);
}

TEST(Sgd, FitsFullyObservedMatrix)
{
    Rng rng(201);
    Matrix a = lowRankMatrix(15, 8, 3, rng);
    SgdConfig cfg;
    cfg.rank = 3;
    cfg.epochs = 600;
    cfg.learningRate = 0.05;
    cfg.regularization = 0.001;
    auto result = sgdFactorize(SparseMatrix::dense(a), cfg);
    EXPECT_LT(result.trainRmse, 0.05);
}

TEST(Sgd, RecoversMissingEntriesOfLowRankMatrix)
{
    Rng rng(202);
    Matrix a = lowRankMatrix(20, 8, 2, rng);
    SparseMatrix sparse = SparseMatrix::dense(a);
    // Hide 20% of the entries.
    std::vector<std::pair<size_t, size_t>> hidden;
    for (size_t r = 0; r < a.rows(); ++r)
        for (size_t c = 0; c < a.cols(); ++c)
            if (rng.bernoulli(0.2)) {
                sparse.mask[r][c] = false;
                hidden.push_back({r, c});
            }
    SgdConfig cfg;
    cfg.rank = 2;
    cfg.epochs = 800;
    cfg.learningRate = 0.05;
    cfg.regularization = 0.002;
    auto result = sgdFactorize(sparse, cfg);
    double err = 0.0;
    for (auto [r, c] : hidden)
        err += std::abs(result.predict(r, c) - a(r, c));
    err /= static_cast<double>(hidden.size());
    EXPECT_LT(err, 0.25) << "mean abs error on held-out entries";
}

TEST(Sgd, WarmStartConverges)
{
    Rng rng(203);
    Matrix a = lowRankMatrix(12, 6, 2, rng);
    auto s = svd(a);
    SgdConfig cfg;
    cfg.rank = 2;
    cfg.epochs = 50;
    cfg.regularization = 0.0005;
    Matrix warm_p(a.rows(), 2), warm_q(a.cols(), 2);
    for (size_t k = 0; k < 2; ++k) {
        double root = std::sqrt(s.s[k]);
        for (size_t r = 0; r < a.rows(); ++r)
            warm_p(r, k) = s.u(r, k) * root;
        for (size_t c = 0; c < a.cols(); ++c)
            warm_q(c, k) = s.v(c, k) * root;
    }
    auto result =
        sgdFactorize(SparseMatrix::dense(a), cfg, warm_p, warm_q);
    EXPECT_LT(result.trainRmse, 0.01);
    EXPECT_LE(result.epochsRun, 50u);
}

TEST(Sgd, ReconstructRowMatchesPredict)
{
    Rng rng(204);
    Matrix a = lowRankMatrix(8, 5, 2, rng);
    SgdConfig cfg;
    cfg.rank = 2;
    cfg.epochs = 100;
    auto result = sgdFactorize(SparseMatrix::dense(a), cfg);
    auto row = result.reconstructRow(3);
    for (size_t c = 0; c < 5; ++c)
        EXPECT_DOUBLE_EQ(row[c], result.predict(3, c));
}

TEST(Sgd, RejectsDegenerateInput)
{
    SgdConfig cfg;
    EXPECT_THROW(sgdFactorize(SparseMatrix{}, cfg),
                 std::invalid_argument);
    SparseMatrix no_entries;
    no_entries.values = Matrix(2, 2);
    no_entries.mask.assign(2, std::vector<bool>(2, false));
    EXPECT_THROW(sgdFactorize(no_entries, cfg), std::invalid_argument);
}

/** Property sweep: SVD must reconstruct matrices of many shapes. */
class SvdShapeTest
    : public ::testing::TestWithParam<std::pair<size_t, size_t>>
{
};

TEST_P(SvdShapeTest, Reconstructs)
{
    auto [m, n] = GetParam();
    Rng rng(m * 100 + n);
    Matrix a = randomMatrix(m, n, rng, -50.0, 50.0);
    auto result = svd(a);
    EXPECT_LT(Matrix::maxAbsDiff(a, result.reconstruct()), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapeTest,
    ::testing::Values(std::pair<size_t, size_t>{1, 1},
                      std::pair<size_t, size_t>{1, 5},
                      std::pair<size_t, size_t>{5, 1},
                      std::pair<size_t, size_t>{2, 2},
                      std::pair<size_t, size_t>{7, 3},
                      std::pair<size_t, size_t>{3, 7},
                      std::pair<size_t, size_t>{40, 10},
                      std::pair<size_t, size_t>{64, 8}));

TEST(Matrix, RowSpanAndRowPtrAliasRowData)
{
    Matrix m = {{1, 2, 3}, {4, 5, 6}};
    auto span = m.rowSpan(1);
    ASSERT_EQ(3u, span.size());
    EXPECT_EQ(4.0, span[0]);
    EXPECT_EQ(6.0, span[2]);
    // The span is a view, not a copy.
    m(1, 0) = 40.0;
    EXPECT_EQ(40.0, span[0]);
    EXPECT_EQ(m.rowPtr(1), span.data());
    auto copy = m.row(1);
    for (size_t c = 0; c < copy.size(); ++c)
        EXPECT_EQ(copy[c], span[c]);
}

TEST(WeightedPearson, SpanOverloadMatchesVectorOverload)
{
    Rng rng(311);
    Matrix m = randomMatrix(4, 10, rng);
    std::vector<double> w(10);
    for (auto& x : w)
        x = rng.uniform(0.1, 1.0);
    for (size_t r = 1; r < m.rows(); ++r) {
        double via_vectors = weightedPearson(m.row(0), m.row(r), w);
        double via_spans = weightedPearson(
            m.rowSpan(0), m.rowSpan(r), std::span<const double>(w));
        EXPECT_EQ(via_vectors, via_spans) << r;
    }
}

TEST(Svd, ReconstructRankMatchesNaiveTripleLoop)
{
    Rng rng(312);
    Matrix a = randomMatrix(12, 10, rng, -50.0, 50.0);
    auto s = svd(a);
    for (size_t rank : {size_t{1}, size_t{3}, s.s.size()}) {
        Matrix fast = s.reconstructRank(rank);
        // The pre-optimization accumulation: per-cell k-inner sums.
        Matrix naive(s.u.rows(), s.v.rows());
        for (size_t r = 0; r < s.u.rows(); ++r)
            for (size_t c = 0; c < s.v.rows(); ++c) {
                double acc = 0.0;
                for (size_t k = 0; k < rank; ++k)
                    acc += s.u(r, k) * s.s[k] * s.v(c, k);
                naive(r, c) = acc;
            }
        EXPECT_EQ(0.0, Matrix::maxAbsDiff(naive, fast)) << rank;
    }
}

TEST(Sgd, WarmEntryPathMatchesSgdFactorize)
{
    Rng rng(313);
    Matrix a = lowRankMatrix(14, 8, 3, rng);
    auto data = SparseMatrix::dense(a);
    for (size_t i = 0; i < data.rows(); ++i)
        for (size_t j = 0; j < data.cols(); ++j)
            if ((i * 5 + j) % 4 == 0)
                data.mask[i][j] = false;

    auto s = svd(a);
    SgdConfig cfg;
    cfg.rank = 3;
    cfg.epochs = 30;
    Matrix warm_p(a.rows(), 3), warm_q(a.cols(), 3);
    for (size_t k = 0; k < 3; ++k) {
        double root = std::sqrt(s.s[k]);
        for (size_t r = 0; r < a.rows(); ++r)
            warm_p(r, k) = s.u(r, k) * root;
        for (size_t c = 0; c < a.cols(); ++c)
            warm_q(c, k) = s.v(c, k) * root;
    }
    auto classic = sgdFactorize(data, cfg, warm_p, warm_q);

    SgdScratch scratch;
    for (size_t i = 0; i < data.rows(); ++i)
        for (size_t j = 0; j < data.cols(); ++j)
            if (data.known(i, j))
                scratch.entries.push_back({i, j, data.values(i, j)});
    const SgdResult& warm = sgdFactorizeWarm(cfg, warm_p, warm_q, scratch);

    EXPECT_EQ(0.0, Matrix::maxAbsDiff(classic.p, warm.p));
    EXPECT_EQ(0.0, Matrix::maxAbsDiff(classic.q, warm.q));
    EXPECT_EQ(classic.trainRmse, warm.trainRmse);
    EXPECT_EQ(classic.epochsRun, warm.epochsRun);

    // A second solve on the same scratch replays the cached shuffle
    // orders and reuses the factor storage: still bit-identical.
    const SgdResult& again = sgdFactorizeWarm(cfg, warm_p, warm_q, scratch);
    EXPECT_EQ(0.0, Matrix::maxAbsDiff(classic.p, again.p));
    EXPECT_EQ(0.0, Matrix::maxAbsDiff(classic.q, again.q));
    EXPECT_EQ(classic.trainRmse, again.trainRmse);
}

TEST(Sgd, WarmEntryPathValidatesInput)
{
    SgdConfig cfg;
    cfg.rank = 2;
    SgdScratch scratch;
    Matrix warm_p(3, 2), warm_q(4, 2);
    // No observed entries.
    EXPECT_THROW(sgdFactorizeWarm(cfg, warm_p, warm_q, scratch),
                 std::invalid_argument);
    // Warm-start rank mismatch.
    scratch.entries.push_back({0, 0, 1.0});
    Matrix bad_p(3, 1);
    EXPECT_THROW(sgdFactorizeWarm(cfg, bad_p, warm_q, scratch),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// Fixed-rank SGD epoch kernels vs the generic loop they replaced.
// ---------------------------------------------------------------------

namespace {

/**
 * Oracle: the generic runtime-rank sequential epoch loop that the
 * fixed-rank kernels in sgd.cc replaced, its statements kept as they
 * were (error from the pre-update rows, then each factor pair updated
 * in k order). Every solver output must match it bit for bit at every
 * rank.
 */
template <typename OrderFn>
void
oracleSgdEpochs(SgdResult& res, const std::vector<SgdEntry>& entries,
                const SgdConfig& config, OrderFn&& order_for)
{
    const size_t r = config.rank;
    double prev_rmse = std::numeric_limits<double>::infinity();
    for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
        const std::vector<size_t>& order = order_for(epoch);
        double sq_err = 0.0;
        for (size_t base = 0; base < order.size(); ++base) {
            const SgdEntry& e = entries[order[base]];
            double err;
            {
                const double* pr = res.p.rowPtr(e.row);
                const double* qr = res.q.rowPtr(e.col);
                double acc = 0.0;
                for (size_t k = 0; k < r; ++k)
                    acc += pr[k] * qr[k];
                err = e.value - acc;
            }
            sq_err += err * err;
            double* pr = res.p.rowPtr(e.row);
            double* qr = res.q.rowPtr(e.col);
            for (size_t k = 0; k < r; ++k) {
                double pk = pr[k];
                double qk = qr[k];
                pr[k] += config.learningRate *
                         (err * qk - config.regularization * pk);
                qr[k] += config.learningRate *
                         (err * pk - config.regularization * qk);
            }
        }
        res.trainRmse =
            std::sqrt(sq_err / static_cast<double>(entries.size()));
        res.epochsRun = epoch + 1;
        if (std::abs(prev_rmse - res.trainRmse) < config.tolerance)
            break;
        prev_rmse = res.trainRmse;
    }
}

std::vector<SgdEntry>
observedEntries(const SparseMatrix& data)
{
    std::vector<SgdEntry> entries;
    for (size_t i = 0; i < data.rows(); ++i)
        for (size_t j = 0; j < data.cols(); ++j)
            if (data.known(i, j))
                entries.push_back({i, j, data.values(i, j)});
    return entries;
}

/**
 * sgdFactorize through the oracle loop: the same Gaussian cold start
 * (P then Q, row-major) and the same live shuffle draws.
 */
SgdResult
oracleFactorize(const SparseMatrix& data, const SgdConfig& config,
                const Matrix* warm_p, const Matrix* warm_q)
{
    std::vector<SgdEntry> entries = observedEntries(data);
    Rng rng(config.seed);
    SgdResult res;
    res.p = warm_p ? *warm_p : Matrix(data.rows(), config.rank);
    res.q = warm_q ? *warm_q : Matrix(data.cols(), config.rank);
    if (!warm_p)
        for (size_t i = 0; i < res.p.rows(); ++i)
            for (size_t k = 0; k < config.rank; ++k)
                res.p(i, k) = rng.gaussian(0.0, 0.1);
    if (!warm_q)
        for (size_t j = 0; j < res.q.rows(); ++j)
            for (size_t k = 0; k < config.rank; ++k)
                res.q(j, k) = rng.gaussian(0.0, 0.1);
    std::vector<size_t> order;
    oracleSgdEpochs(res, entries, config,
                    [&](size_t) -> const std::vector<size_t>& {
                        order = rng.permutation(entries.size());
                        return order;
                    });
    return res;
}

/** A rank-`rank` completion problem with a quarter of entries hidden. */
SparseMatrix
maskedProblem(size_t rank, Rng& rng)
{
    auto data = SparseMatrix::dense(lowRankMatrix(13, 9, rank, rng));
    for (size_t i = 0; i < data.rows(); ++i)
        for (size_t j = 0; j < data.cols(); ++j)
            if ((i * 3 + j) % 4 == 1)
                data.mask[i][j] = false;
    return data;
}

Matrix
randomFactors(size_t rows, size_t rank, Rng& rng)
{
    Matrix out(rows, rank);
    for (size_t i = 0; i < rows; ++i)
        for (size_t k = 0; k < rank; ++k)
            out(i, k) = rng.gaussian(0.3, 0.2);
    return out;
}

void
expectSgdBitEqual(const SgdResult& want, const SgdResult& got)
{
    ASSERT_EQ(want.p.rows(), got.p.rows());
    ASSERT_EQ(want.p.cols(), got.p.cols());
    ASSERT_EQ(want.q.rows(), got.q.rows());
    ASSERT_EQ(want.q.cols(), got.q.cols());
    for (size_t i = 0; i < want.p.rows(); ++i)
        for (size_t k = 0; k < want.p.cols(); ++k)
            EXPECT_EQ(std::bit_cast<uint64_t>(want.p(i, k)),
                      std::bit_cast<uint64_t>(got.p(i, k)))
                << "P(" << i << ", " << k << ")";
    for (size_t j = 0; j < want.q.rows(); ++j)
        for (size_t k = 0; k < want.q.cols(); ++k)
            EXPECT_EQ(std::bit_cast<uint64_t>(want.q(j, k)),
                      std::bit_cast<uint64_t>(got.q(j, k)))
                << "Q(" << j << ", " << k << ")";
    EXPECT_EQ(std::bit_cast<uint64_t>(want.trainRmse),
              std::bit_cast<uint64_t>(got.trainRmse));
    EXPECT_EQ(want.epochsRun, got.epochsRun);
}

} // namespace

TEST(SgdOracle, ColdAndWarmStartsMatchGenericLoopAtEveryRank)
{
    // Ranks 1..8 run the fixed-rank kernels, 9 the generic fallback.
    for (size_t rank = 1; rank <= 9; ++rank) {
        SCOPED_TRACE("rank " + std::to_string(rank));
        Rng rng(900 + rank);
        SparseMatrix data = maskedProblem(rank, rng);
        SgdConfig cfg;
        cfg.rank = rank;
        cfg.epochs = 25;
        cfg.seed = 17 + rank;

        expectSgdBitEqual(oracleFactorize(data, cfg, nullptr, nullptr),
                          sgdFactorize(data, cfg));

        Matrix warm_p = randomFactors(data.rows(), rank, rng);
        Matrix warm_q = randomFactors(data.cols(), rank, rng);
        expectSgdBitEqual(oracleFactorize(data, cfg, &warm_p, &warm_q),
                          sgdFactorize(data, cfg, warm_p, warm_q));
    }
}

TEST(SgdOracle, RepeatedWarmSolvesOnOneScratchMatchGenericLoop)
{
    for (size_t rank = 1; rank <= 9; ++rank) {
        SCOPED_TRACE("rank " + std::to_string(rank));
        Rng rng(1900 + rank);
        SparseMatrix data = maskedProblem(rank, rng);
        SgdConfig cfg;
        cfg.rank = rank;
        cfg.epochs = 20;
        SgdScratch scratch;
        scratch.entries = observedEntries(data);
        // Fresh warm starts per call on the same scratch: the cached
        // shuffle orders and reused factor storage must not leak state.
        for (int call = 0; call < 3; ++call) {
            SCOPED_TRACE("call " + std::to_string(call));
            Matrix warm_p = randomFactors(data.rows(), rank, rng);
            Matrix warm_q = randomFactors(data.cols(), rank, rng);
            SgdResult want = oracleFactorize(data, cfg, &warm_p, &warm_q);
            expectSgdBitEqual(
                want, sgdFactorizeWarm(cfg, warm_p, warm_q, scratch));
        }
    }
}

TEST(SgdOracle, ToleranceEarlyExitMatchesGenericLoop)
{
    for (size_t rank = 1; rank <= 9; ++rank) {
        SCOPED_TRACE("rank " + std::to_string(rank));
        Rng rng(2900 + rank);
        SparseMatrix data = maskedProblem(rank, rng);
        SgdConfig cfg;
        cfg.rank = rank;
        cfg.epochs = 400;
        cfg.tolerance = 1e-3;
        SgdResult want = oracleFactorize(data, cfg, nullptr, nullptr);
        ASSERT_LT(want.epochsRun, cfg.epochs) << "tolerance never hit";
        expectSgdBitEqual(want, sgdFactorize(data, cfg));

        SgdScratch scratch;
        scratch.entries = observedEntries(data);
        Matrix warm_p = randomFactors(data.rows(), rank, rng);
        Matrix warm_q = randomFactors(data.cols(), rank, rng);
        SgdResult warm_want = oracleFactorize(data, cfg, &warm_p, &warm_q);
        ASSERT_LT(warm_want.epochsRun, cfg.epochs) << "tolerance never hit";
        expectSgdBitEqual(warm_want,
                          sgdFactorizeWarm(cfg, warm_p, warm_q, scratch));
    }
}
