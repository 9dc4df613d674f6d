/**
 * @file
 * The generic-loop SGD oracle and its problem generators, shared by
 * test_linalg (which checks the solver on the default kernel backend)
 * and test_kernels (which checks it under the Scalar and the Avx2
 * backend in turn).
 *
 * The oracle is the runtime-rank sequential epoch loop that the
 * fixed-rank and AVX2 epoch kernels replaced, its statements kept as
 * they were: the error from the pre-update rows with a k-ascending dot
 * product, then each factor pair updated in k order. Every solver
 * output must match it bit for bit at every rank.
 */
#ifndef BOLT_TESTS_SGD_ORACLE_H
#define BOLT_TESTS_SGD_ORACLE_H

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/matrix.h"
#include "linalg/sgd.h"
#include "util/rng.h"

namespace bolt {
namespace test {

using linalg::Matrix;
using linalg::SgdConfig;
using linalg::SgdEntry;
using linalg::SgdResult;
using linalg::SgdScratch;
using linalg::SparseMatrix;
using util::Rng;

/** Random m x n matrix with entries in [lo, hi]. */
inline Matrix
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
inline Matrix
lowRankMatrix(size_t m, size_t n, size_t rank, Rng& rng)
{
    Matrix p = randomMatrix(m, rank, rng, 0.0, 1.0);
    Matrix q = randomMatrix(rank, n, rng, 0.0, 1.0);
    return p.multiply(q);
}

/** The oracle epoch loop over `order_for(epoch)` visit orders. */
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

inline std::vector<SgdEntry>
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
inline SgdResult
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
inline SparseMatrix
maskedProblem(size_t rank, Rng& rng)
{
    auto data = SparseMatrix::dense(lowRankMatrix(13, 9, rank, rng));
    for (size_t i = 0; i < data.rows(); ++i)
        for (size_t j = 0; j < data.cols(); ++j)
            if ((i * 3 + j) % 4 == 1)
                data.mask[i][j] = false;
    return data;
}

inline Matrix
randomFactors(size_t rows, size_t rank, Rng& rng)
{
    Matrix out(rows, rank);
    for (size_t i = 0; i < rows; ++i)
        for (size_t k = 0; k < rank; ++k)
            out(i, k) = rng.gaussian(0.3, 0.2);
    return out;
}

inline void
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

// The oracle checks, run by test_linalg on the default backend and by
// test_kernels under each backend.

/** Cold and warm sgdFactorize at ranks 1..9 (8 fixed-rank + generic). */
inline void
expectColdAndWarmStartsMatchOracle()
{
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

/** Three sgdFactorizeWarm solves on one scratch, fresh warm starts. */
inline void
expectRepeatedWarmSolvesMatchOracle()
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

/** The tolerance early exit, cold and warm. */
inline void
expectToleranceEarlyExitMatchesOracle()
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

} // namespace test
} // namespace bolt

#endif // BOLT_TESTS_SGD_ORACLE_H
