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

#include "sgd_oracle.h"

using namespace bolt::linalg;
using bolt::util::Rng;
using namespace bolt::test;

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

TEST(Sgd, EpochOrdersAreRngPermutationsNarrowedTo32Bits)
{
    SgdScratch scratch;
    Rng rng(77);
    for (size_t epoch = 0; epoch < 3; ++epoch) {
        std::vector<size_t> want = rng.permutation(1210);
        const std::vector<uint32_t>& got =
            scratch.epochOrder(77, 1210, epoch);
        ASSERT_EQ(want.size(), got.size());
        for (size_t i = 0; i < want.size(); ++i)
            ASSERT_EQ(want[i], got[i]) << "epoch " << epoch << " i " << i;
    }
    EXPECT_THROW(scratch.epochOrder(77, size_t{1} << 32, 0),
                 std::invalid_argument);
    EXPECT_NO_THROW(scratch.epochOrder(77, 1, 0));
}

// ---------------------------------------------------------------------
// SGD epoch kernels vs the generic loop they replaced (sgd_oracle.h).
// ---------------------------------------------------------------------

TEST(SgdOracle, ColdAndWarmStartsMatchGenericLoopAtEveryRank)
{
    expectColdAndWarmStartsMatchOracle();
}

TEST(SgdOracle, RepeatedWarmSolvesOnOneScratchMatchGenericLoop)
{
    expectRepeatedWarmSolvesMatchOracle();
}

TEST(SgdOracle, ToleranceEarlyExitMatchesGenericLoop)
{
    expectToleranceEarlyExitMatchesOracle();
}
