#include "sgd.h"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "linalg/kernels.h"

namespace bolt {
namespace linalg {

#if defined(BOLT_SIMD)
namespace avx2_kernels {
double sgdEpoch(double*, double*, size_t, const SgdEntry*,
                const uint32_t*, size_t, double, double);
} // namespace avx2_kernels
#endif

namespace {

/** Reject entry counts the 32-bit shuffle orders cannot index. */
void
checkOrderCount(size_t count, const char* who)
{
    if (count > std::numeric_limits<uint32_t>::max())
        throw std::invalid_argument(std::string(who) +
                                    ": entry count exceeds 2^32 - 1");
}

/** Rng::permutation(count), narrowed to 32-bit indices. */
std::vector<uint32_t>
permutation32(util::Rng& rng, size_t count)
{
    std::vector<size_t> wide = rng.permutation(count);
    return std::vector<uint32_t>(wide.begin(), wide.end());
}

} // namespace

double
SgdResult::predict(size_t row, size_t col) const
{
    double acc = 0.0;
    for (size_t k = 0; k < p.cols(); ++k)
        acc += p(row, k) * q(col, k);
    return acc;
}

std::vector<double>
SgdResult::reconstructRow(size_t row) const
{
    std::vector<double> out(q.rows());
    for (size_t c = 0; c < q.rows(); ++c)
        out[c] = predict(row, c);
    return out;
}

SparseMatrix
SparseMatrix::dense(const Matrix& m)
{
    SparseMatrix out;
    out.values = m;
    out.mask.assign(m.rows(), std::vector<bool>(m.cols(), true));
    return out;
}

const std::vector<uint32_t>&
SgdScratch::epochOrder(uint64_t seed, size_t count, size_t epoch)
{
    checkOrderCount(count, "SgdScratch::epochOrder");
    PermCache* cache = nullptr;
    for (auto& c : caches) {
        if (c.seed == seed && c.count == count) {
            cache = &c;
            break;
        }
    }
    if (cache == nullptr) {
        caches.emplace_back();
        cache = &caches.back();
        cache->seed = seed;
        cache->count = count;
        cache->rng = util::Rng(seed);
    }
    while (cache->orders.size() <= epoch)
        cache->orders.push_back(permutation32(cache->rng, count));
    return cache->orders[epoch];
}

namespace {

/**
 * One sequential SGD pass over order[0, count) (one update per entry,
 * applied immediately); returns the summed squared training error.
 * R > 0 fixes the rank at compile time so the per-entry dot product and
 * factor update unroll; R == 0 takes it from `rank`. Every
 * instantiation runs the same multiplies and adds in the same order —
 * the dot product k-ascending, then each factor pair updated from its
 * pre-update values — so the rank dispatch is bit-identical. This is
 * the reference the AVX2 epoch kernel (kernels_avx2.cc) reproduces.
 */
template <size_t R>
double
sgdEpoch(double* p, double* q, size_t rank, const SgdEntry* entries,
         const uint32_t* order, size_t count, double lr, double reg)
{
    const size_t r = R > 0 ? R : rank;
    double sq_err = 0.0;
    for (size_t i = 0; i < count; ++i) {
        const SgdEntry& e = entries[order[i]];
        double* pr = p + e.row * r;
        double* qr = q + e.col * r;
        double acc = 0.0;
        for (size_t k = 0; k < r; ++k)
            acc += pr[k] * qr[k];
        double err = e.value - acc;
        sq_err += err * err;
        for (size_t k = 0; k < r; ++k) {
            double pk = pr[k];
            double qk = qr[k];
            pr[k] += lr * (err * qk - reg * pk);
            qr[k] += lr * (err * pk - reg * qk);
        }
    }
    return sq_err;
}

using SgdEpochFn = double (*)(double*, double*, size_t, const SgdEntry*,
                              const uint32_t*, size_t, double, double);

/**
 * The epoch kernel for `rank` on the active backend: the AVX2 kernel
 * when selected, else the scalar one, fixed-rank up to 8 and generic
 * above.
 */
SgdEpochFn
sgdEpochFor(size_t rank)
{
#if defined(BOLT_SIMD)
    if (activeKernelBackend() == KernelBackend::Avx2)
        return &avx2_kernels::sgdEpoch;
#endif
    switch (rank) {
    case 1: return &sgdEpoch<1>;
    case 2: return &sgdEpoch<2>;
    case 3: return &sgdEpoch<3>;
    case 4: return &sgdEpoch<4>;
    case 5: return &sgdEpoch<5>;
    case 6: return &sgdEpoch<6>;
    case 7: return &sgdEpoch<7>;
    case 8: return &sgdEpoch<8>;
    default: return &sgdEpoch<0>;
    }
}

/**
 * The SGD epoch loop shared by both entry points. `order_for(epoch)`
 * supplies the shuffled visit order — drawn live in sgdFactorize,
 * replayed from SgdScratch's cache in sgdFactorizeWarm — so the two
 * paths cannot drift arithmetically. Factors must have config.rank
 * columns.
 */
template <typename OrderFn>
void
runSgdEpochs(SgdResult& res, const std::vector<SgdEntry>& entries,
             const SgdConfig& config, OrderFn&& order_for)
{
    const SgdEpochFn epoch_fn = sgdEpochFor(config.rank);
    double* const p = res.p.rowPtr(0);
    double* const q = res.q.rowPtr(0);
    const double lr = config.learningRate;
    const double reg = config.regularization;

    double prev_rmse = std::numeric_limits<double>::infinity();
    for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
        const std::vector<uint32_t>& order = order_for(epoch);
        double sq_err = epoch_fn(p, q, config.rank, entries.data(),
                                 order.data(), order.size(), lr, reg);
        res.trainRmse =
            std::sqrt(sq_err / static_cast<double>(entries.size()));
        res.epochsRun = epoch + 1;
        if (std::abs(prev_rmse - res.trainRmse) < config.tolerance)
            break;
        prev_rmse = res.trainRmse;
    }
}

} // namespace

SgdResult
sgdFactorize(const SparseMatrix& data, const SgdConfig& config,
             const std::optional<Matrix>& warm_p,
             const std::optional<Matrix>& warm_q)
{
    size_t m = data.rows();
    size_t n = data.cols();
    size_t r = config.rank;
    if (m == 0 || n == 0 || r == 0)
        throw std::invalid_argument("sgdFactorize: empty problem");
    if (data.mask.size() != m || (m > 0 && data.mask[0].size() != n))
        throw std::invalid_argument("sgdFactorize: mask shape mismatch");

    // Collect observed entries once; SGD iterates over them in a
    // per-epoch shuffled order.
    size_t observed = 0;
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            if (data.known(i, j))
                ++observed;
    std::vector<SgdEntry> entries;
    entries.reserve(observed);
    for (size_t i = 0; i < m; ++i)
        for (size_t j = 0; j < n; ++j)
            if (data.known(i, j))
                entries.push_back({i, j, data.values(i, j)});
    if (entries.empty())
        throw std::invalid_argument("sgdFactorize: no observed entries");
    checkOrderCount(entries.size(), "sgdFactorize");

    util::Rng rng(config.seed);
    SgdResult res;
    res.p = warm_p.value_or(Matrix(m, r));
    res.q = warm_q.value_or(Matrix(n, r));
    if (res.p.rows() != m || res.p.cols() != r ||
        res.q.rows() != n || res.q.cols() != r) {
        throw std::invalid_argument("sgdFactorize: warm-start shape");
    }
    if (!warm_p) {
        for (size_t i = 0; i < m; ++i)
            for (size_t k = 0; k < r; ++k)
                res.p(i, k) = rng.gaussian(0.0, 0.1);
    }
    if (!warm_q) {
        for (size_t j = 0; j < n; ++j)
            for (size_t k = 0; k < r; ++k)
                res.q(j, k) = rng.gaussian(0.0, 0.1);
    }

    std::vector<uint32_t> order;
    runSgdEpochs(res, entries, config,
                 [&](size_t) -> const std::vector<uint32_t>& {
                     order = permutation32(rng, entries.size());
                     return order;
                 });
    return res;
}

const SgdResult&
sgdFactorizeWarm(const SgdConfig& config, const Matrix& warm_p,
                 const Matrix& warm_q, SgdScratch& scratch)
{
    if (warm_p.rows() == 0 || warm_q.rows() == 0 || config.rank == 0 ||
        warm_p.cols() != config.rank || warm_q.cols() != config.rank) {
        throw std::invalid_argument("sgdFactorizeWarm: warm-start shape");
    }
    if (scratch.entries.empty())
        throw std::invalid_argument(
            "sgdFactorizeWarm: no observed entries");

    SgdResult& res = scratch.result;
    res.p = warm_p;
    res.q = warm_q;
    res.trainRmse = 0.0;
    res.epochsRun = 0;
    runSgdEpochs(res, scratch.entries, config,
                 [&](size_t epoch) -> const std::vector<uint32_t>& {
                     return scratch.epochOrder(
                         config.seed, scratch.entries.size(), epoch);
                 });
    return res;
}

} // namespace linalg
} // namespace bolt
