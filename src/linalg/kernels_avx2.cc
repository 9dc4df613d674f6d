/**
 * AVX2 backend for the batched recommender kernels and the SGD epoch.
 *
 * Bit-reproducibility rules (see kernels.h): in the batched kernels
 * entries/candidates are independent output lanes, so a 256-bit vector
 * holds four of them side by side and every lane executes exactly the
 * scalar reference's operation sequence — same coordinate order, same
 * division (not reciprocal-multiply), same min/max selection. No
 * reduction crosses lanes and nothing is reassociated. In the SGD epoch
 * (sgdEpoch, the vector form of sgd.cc's sgdEpoch<R>) the lanes are
 * instead the rank coordinates of one P or Q row: products and factor
 * updates are lane-wise, and the dot product's lanes are summed one at
 * a time in k order from 0.0, exactly as the scalar loop does, so the
 * one cross-lane reduction is not reassociated either; updates stay
 * strictly sequential over the visit order.
 *
 * widenFit interleaves up to four 4-lane candidate blocks (groups of
 * 4, then 2, then 1 blocks) and computes the level-independent terms
 * of each part's refit once per refit instead of once per probe (see
 * widenGroup). Lanes still follow the scalar widenFit's operation
 * sequence: hoisting moves where a value is computed, never how.
 *
 * This translation unit is compiled
 * with -mavx2 -mno-fma -ffp-contract=off so the compiler cannot fuse a
 * mul+add pair into an FMA (which rounds once instead of twice and
 * would diverge from the scalar reference in the last bit). The unit
 * is built into every x86-64 binary and only entered after
 * cpuSupported(); the inline helpers it shares with other units
 * (SoaMatrix accessors, paddedCount) are integer-only, so an -O0 copy
 * the linker may keep from here carries no AVX instruction. From sgd.h
 * it reads only SgdEntry's fields and calls no inline function.
 *
 * Equivalence notes for the selection intrinsics (all inputs here are
 * finite, and products of nonnegative values never produce -0.0):
 *  - _mm256_min_pd(a, b) / _mm256_max_pd(a, b) return b on equality,
 *    matching std::min/std::max's value exactly when a == b.
 *  - std::clamp(v, 0, 100) == min(max(v, 0), 100) for v >= +0.0.
 */

#include "kernels.h"
#include "sgd.h"

#include <immintrin.h>

namespace bolt {
namespace linalg {
namespace avx2_kernels {

bool
cpuSupported()
{
    return __builtin_cpu_supports("avx2");
}

namespace {

inline __m256d
vabs(__m256d x)
{
    return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/** clamp(base * scale, 0, 100) per lane; v is never negative here. */
inline __m256d
vclamp01h(__m256d v)
{
    return _mm256_min_pd(_mm256_max_pd(v, _mm256_setzero_pd()),
                         _mm256_set1_pd(100.0));
}

inline __m256d
vpredict(__m256d base, bool capacity, __m256d floor_, __m256d level)
{
    __m256d scale = capacity ? _mm256_max_pd(level, floor_) : level;
    return vclamp01h(_mm256_mul_pd(base, scale));
}

} // namespace

void
pearsonBatch(const PearsonTable& t, const double* queries,
             size_t query_count, double* out)
{
    const size_t padded = t.centered.paddedRows();
    const size_t n = t.lanes;
    const __m256d zero = _mm256_setzero_pd();
    for (size_t q = 0; q < query_count; ++q) {
        const double* query = queries + q * n;
        double* row = out + q * padded;
        if (t.wsum <= 0.0) {
            for (size_t e = 0; e < padded; e += kKernelBlock)
                _mm256_store_pd(row + e, zero);
            continue;
        }
        // Query-side statistics are lane-independent scalars; computed
        // exactly like the reference.
        double ma = 0.0;
        for (size_t i = 0; i < n; ++i)
            ma += t.weights[i] * query[i];
        ma /= t.wsum;
        double s[kMaxFitCoords];
        double va = 0.0;
        for (size_t i = 0; i < n; ++i) {
            double da = query[i] - ma;
            s[i] = t.weights[i] * da;
            va += s[i] * da;
        }
        const __m256d va_v = _mm256_set1_pd(va);
        const __m256d va_bad = _mm256_cmp_pd(va_v, zero, _CMP_LE_OQ);
        for (size_t e = 0; e < padded; e += kKernelBlock) {
            __m256d cov = zero;
            for (size_t i = 0; i < n; ++i) {
                __m256d d = _mm256_load_pd(t.centered.col(i) + e);
                cov = _mm256_add_pd(
                    cov, _mm256_mul_pd(_mm256_set1_pd(s[i]), d));
            }
            __m256d vb = _mm256_load_pd(t.variance.data() + e);
            __m256d den = _mm256_sqrt_pd(_mm256_mul_pd(va_v, vb));
            __m256d r = _mm256_div_pd(cov, den);
            __m256d bad = _mm256_or_pd(
                va_bad, _mm256_cmp_pd(vb, zero, _CMP_LE_OQ));
            _mm256_store_pd(row + e, _mm256_blendv_pd(r, zero, bad));
        }
    }
}

namespace {

/** Vector deviation of one entry block at per-lane levels. */
inline __m256d
fitDeviationVec(const FitSpec& spec, size_t e, __m256d level,
                bool fit_phase)
{
    const __m256d zero = _mm256_setzero_pd();
    const __m256d floor_ = _mm256_set1_pd(spec.capacityFloor);
    __m256d dist = zero;
    for (size_t i = 0; i < spec.coordCount; ++i) {
        const FitCoord& c = spec.coords[i];
        __m256d pred =
            c.mode == DevMode::Zero
                ? zero
                : vpredict(_mm256_load_pd(c.base + e), c.capacity,
                           floor_, level);
        __m256d t = _mm256_set1_pd(c.target);
        __m256d w = _mm256_set1_pd(c.weight);
        if (c.mode == DevMode::Upper) {
            if (fit_phase && spec.skipUpperInFit)
                continue;
            __m256d over = _mm256_max_pd(zero, _mm256_sub_pd(pred, t));
            __m256d under = _mm256_max_pd(zero, _mm256_sub_pd(t, pred));
            __m256d term = _mm256_add_pd(
                over, _mm256_mul_pd(_mm256_set1_pd(0.05), under));
            dist = _mm256_add_pd(dist, _mm256_mul_pd(w, term));
        } else {
            dist = _mm256_add_pd(
                dist, _mm256_mul_pd(w, vabs(_mm256_sub_pd(t, pred))));
        }
    }
    double wsum = fit_phase ? spec.fitWsum : spec.scoreWsum;
    if (wsum > 0.0)
        return _mm256_div_pd(dist, _mm256_set1_pd(wsum));
    return _mm256_set1_pd(1e9);
}

} // namespace

void
fitLevelsAndScore(const FitSpec& spec, size_t entry_count, double* levels,
                  double* scores)
{
    const size_t padded = paddedCount(entry_count);
    const __m256d third = _mm256_set1_pd(3.0);
    const __m256d half = _mm256_set1_pd(0.5);
    for (size_t e = 0; e < padded; e += kKernelBlock) {
        __m256d lo = _mm256_set1_pd(spec.lo);
        __m256d hi = _mm256_set1_pd(spec.hi);
        for (int it = 0; it < spec.iters; ++it) {
            __m256d step =
                _mm256_div_pd(_mm256_sub_pd(hi, lo), third);
            __m256d m1 = _mm256_add_pd(lo, step);
            __m256d m2 = _mm256_sub_pd(hi, step);
            __m256d d1 = fitDeviationVec(spec, e, m1, true);
            __m256d d2 = fitDeviationVec(spec, e, m2, true);
            __m256d take = _mm256_cmp_pd(d1, d2, _CMP_LT_OQ);
            hi = _mm256_blendv_pd(hi, m2, take);
            lo = _mm256_blendv_pd(m1, lo, take);
        }
        __m256d level =
            _mm256_mul_pd(half, _mm256_add_pd(lo, hi));
        _mm256_store_pd(levels + e, level);
        _mm256_store_pd(scores + e,
                        fitDeviationVec(spec, e, level, false));
    }
}

void
pruneBounds(const PruneCoord* coords, size_t coord_count,
            size_t entry_count, double* bounds)
{
    const size_t padded = paddedCount(entry_count);
    const __m256d zero = _mm256_setzero_pd();
    const __m256d hundred = _mm256_set1_pd(100.0);
    for (size_t e = 0; e < padded; e += kKernelBlock) {
        __m256d lb = zero;
        for (size_t i = 0; i < coord_count; ++i) {
            const PruneCoord& c = coords[i];
            __m256d lo_v, hi_v;
            if (c.additive) {
                lo_v = _mm256_min_pd(
                    _mm256_add_pd(_mm256_set1_pd(c.baseLo),
                                  _mm256_load_pd(c.candLo + e)),
                    hundred);
                hi_v = _mm256_min_pd(
                    _mm256_add_pd(_mm256_set1_pd(c.baseHi),
                                  _mm256_load_pd(c.candHi + e)),
                    hundred);
            } else {
                lo_v = _mm256_set1_pd(c.baseLo);
                hi_v = _mm256_set1_pd(c.baseHi);
            }
            __m256d v = _mm256_set1_pd(c.target);
            __m256d below = _mm256_cmp_pd(v, lo_v, _CMP_LT_OQ);
            __m256d above = _mm256_cmp_pd(v, hi_v, _CMP_GT_OQ);
            __m256d gap = _mm256_blendv_pd(
                _mm256_blendv_pd(zero, _mm256_sub_pd(v, hi_v), above),
                _mm256_sub_pd(lo_v, v), below);
            lb = _mm256_add_pd(
                lb, _mm256_mul_pd(_mm256_set1_pd(c.weight), gap));
        }
        _mm256_store_pd(bounds + e, lb);
    }
}

namespace {

/**
 * Refit G adjacent 4-lane candidate blocks side by side, starting at
 * candidate `cand`. Each block is an independent serial chain (ternary
 * step, deviation sum, division, blend), so interleaving G of them
 * lets their latencies overlap; no lane ever reads another block's
 * state.
 *
 * Per part p, the terms that do not depend on p's level are computed
 * once per refit instead of once per ternary probe: the deviation term
 * of a core coordinate when p != 0 or no core is shared (its
 * prediction is part 0's value or zero), and for an additive
 * coordinate the running sum 0 + v_0 + ... + v_{p-1} of the parts
 * before p. A probe then adds v_p and the later parts one at a time in
 * part order, and adds every coordinate's term to the deviation in
 * coordinate order, so each lane performs the scalar reference's exact
 * operation sequence. vals of a core coordinate for p != 0 are never
 * read and are not computed.
 */
template <size_t G>
void
widenGroup(const WidenSpec& spec, size_t cand, double* dist,
           double* levels)
{
    const size_t P = spec.partCount;
    const size_t N = spec.coordCount;
    const __m256d zero = _mm256_setzero_pd();
    const __m256d hundred = _mm256_set1_pd(100.0);
    const __m256d third = _mm256_set1_pd(3.0);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d floor_ = _mm256_set1_pd(spec.capacityFloor);
    const bool wsum_ok = spec.wsum > 0.0;
    const __m256d wsum = _mm256_set1_pd(spec.wsum);
    const __m256d sentinel = _mm256_set1_pd(1e9);

    __m256d fixed_base[kMaxFitCoords][kMaxWidenParts - 1];
    __m256d cand_base[G][kMaxFitCoords];
    __m256d vals[G][kMaxFitCoords][kMaxWidenParts];
    __m256d lvl[G][kMaxWidenParts];
    // Level-independent part of the current refit, per block and
    // coordinate: a whole deviation term or an additive prefix sum.
    __m256d hoisted[G][kMaxFitCoords];

    for (size_t i = 0; i < N; ++i) {
        for (size_t p = 0; p + 1 < P; ++p)
            fixed_base[i][p] = _mm256_set1_pd(spec.fixedBase[p * N + i]);
        for (size_t g = 0; g < G; ++g)
            cand_base[g][i] = _mm256_load_pd(spec.candBase[i] + cand +
                                             g * kKernelBlock);
    }
    auto base_of = [&](size_t g, size_t i, size_t p) {
        return p + 1 < P ? fixed_base[i][p] : cand_base[g][i];
    };
    // The deviation reads every part of an additive coordinate but
    // only part 0 of a core one.
    auto refresh = [&](size_t g, size_t p) {
        for (size_t i = 0; i < N; ++i)
            if (!spec.coords[i].core || p == 0)
                vals[g][i][p] = vpredict(base_of(g, i, p),
                                         spec.coords[i].capacity, floor_,
                                         lvl[g][p]);
    };
    auto finish = [&](__m256d d) {
        return wsum_ok ? _mm256_div_pd(d, wsum) : sentinel;
    };
    /** Deviation term w * |target - pred| of coordinate i. */
    auto term = [&](size_t i, __m256d pred) {
        const WidenCoord& c = spec.coords[i];
        return _mm256_mul_pd(
            _mm256_set1_pd(c.weight),
            vabs(_mm256_sub_pd(_mm256_set1_pd(c.target), pred)));
    };

    for (size_t g = 0; g < G; ++g) {
        for (size_t p = 0; p + 1 < P; ++p)
            lvl[g][p] = _mm256_set1_pd(spec.fixedInitLevels[p]);
        lvl[g][P - 1] = _mm256_set1_pd(spec.candInitLevel);
        for (size_t p = 0; p < P; ++p)
            refresh(g, p);
    }

    for (int round = 0; round < spec.rounds; ++round) {
        for (size_t p = 0; p < P; ++p) {
            // Whether this part's level moves the core predictions.
            const bool core_live = p == 0 && spec.coreShared;
            for (size_t g = 0; g < G; ++g) {
                for (size_t i = 0; i < N; ++i) {
                    if (spec.coords[i].core) {
                        if (!core_live)
                            hoisted[g][i] = term(
                                i, spec.coreShared ? vals[g][i][0] : zero);
                    } else {
                        __m256d prefix = zero;
                        for (size_t q = 0; q < p; ++q)
                            prefix = _mm256_add_pd(prefix, vals[g][i][q]);
                        hoisted[g][i] = prefix;
                    }
                }
            }
            __m256d lo[G], hi[G];
            for (size_t g = 0; g < G; ++g) {
                lo[g] = _mm256_set1_pd(spec.lo);
                hi[g] = _mm256_set1_pd(spec.hi);
            }
            for (int it = 0; it < spec.iters; ++it) {
                __m256d m1[G], m2[G], c1[G], c2[G], d1[G], d2[G];
                for (size_t g = 0; g < G; ++g) {
                    __m256d step =
                        _mm256_div_pd(_mm256_sub_pd(hi[g], lo[g]), third);
                    m1[g] = _mm256_add_pd(lo[g], step);
                    m2[g] = _mm256_sub_pd(hi[g], step);
                    c1[g] = _mm256_max_pd(m1[g], floor_);
                    c2[g] = _mm256_max_pd(m2[g], floor_);
                    d1[g] = zero;
                    d2[g] = zero;
                }
                for (size_t i = 0; i < N; ++i) {
                    const WidenCoord& c = spec.coords[i];
                    if (c.core && !core_live) {
                        for (size_t g = 0; g < G; ++g) {
                            d1[g] = _mm256_add_pd(d1[g], hoisted[g][i]);
                            d2[g] = _mm256_add_pd(d2[g], hoisted[g][i]);
                        }
                        continue;
                    }
                    for (size_t g = 0; g < G; ++g) {
                        __m256d b = base_of(g, i, p);
                        __m256d v1 = vclamp01h(_mm256_mul_pd(
                            b, c.capacity ? c1[g] : m1[g]));
                        __m256d v2 = vclamp01h(_mm256_mul_pd(
                            b, c.capacity ? c2[g] : m2[g]));
                        if (!c.core) {
                            v1 = _mm256_add_pd(hoisted[g][i], v1);
                            v2 = _mm256_add_pd(hoisted[g][i], v2);
                            for (size_t q = p + 1; q < P; ++q) {
                                v1 = _mm256_add_pd(v1, vals[g][i][q]);
                                v2 = _mm256_add_pd(v2, vals[g][i][q]);
                            }
                            v1 = _mm256_min_pd(v1, hundred);
                            v2 = _mm256_min_pd(v2, hundred);
                        }
                        d1[g] = _mm256_add_pd(d1[g], term(i, v1));
                        d2[g] = _mm256_add_pd(d2[g], term(i, v2));
                    }
                }
                for (size_t g = 0; g < G; ++g) {
                    __m256d take =
                        _mm256_cmp_pd(finish(d1[g]), finish(d2[g]),
                                      _CMP_LT_OQ);
                    hi[g] = _mm256_blendv_pd(hi[g], m2[g], take);
                    lo[g] = _mm256_blendv_pd(m1[g], lo[g], take);
                }
            }
            for (size_t g = 0; g < G; ++g) {
                lvl[g][p] = _mm256_mul_pd(half, _mm256_add_pd(lo[g], hi[g]));
                refresh(g, p);
            }
        }
    }

    for (size_t g = 0; g < G; ++g) {
        __m256d d = zero;
        for (size_t i = 0; i < N; ++i) {
            __m256d pred;
            if (spec.coords[i].core) {
                pred = spec.coreShared ? vals[g][i][0] : zero;
            } else {
                pred = zero;
                for (size_t p = 0; p < P; ++p)
                    pred = _mm256_add_pd(pred, vals[g][i][p]);
                pred = _mm256_min_pd(pred, hundred);
            }
            d = _mm256_add_pd(d, term(i, pred));
        }
        const size_t e = cand + g * kKernelBlock;
        _mm256_store_pd(dist + e, finish(d));
        alignas(32) double lane_levels[kKernelBlock];
        for (size_t p = 0; p < P; ++p) {
            _mm256_store_pd(lane_levels, lvl[g][p]);
            for (size_t l = 0; l < kKernelBlock; ++l)
                levels[(e + l) * P + p] = lane_levels[l];
        }
    }
}

} // namespace

void
widenFit(const WidenSpec& spec, size_t cand_count, double* dist,
         double* levels)
{
    const size_t padded = paddedCount(cand_count);
    size_t cand = 0;
    for (; cand + 4 * kKernelBlock <= padded; cand += 4 * kKernelBlock)
        widenGroup<4>(spec, cand, dist, levels);
    if (cand + 2 * kKernelBlock <= padded) {
        widenGroup<2>(spec, cand, dist, levels);
        cand += 2 * kKernelBlock;
    }
    if (cand < padded)
        widenGroup<1>(spec, cand, dist, levels);
}

namespace {

/** acc + v[0] + v[1] + v[2] + v[3], added one lane at a time. */
inline double
addLanesInOrder(double acc, __m256d v)
{
    const __m128d lo = _mm256_castpd256_pd128(v);
    const __m128d hi = _mm256_extractf128_pd(v, 1);
    acc += _mm_cvtsd_f64(lo);
    acc += _mm_cvtsd_f64(_mm_unpackhi_pd(lo, lo));
    acc += _mm_cvtsd_f64(hi);
    acc += _mm_cvtsd_f64(_mm_unpackhi_pd(hi, hi));
    return acc;
}

/**
 * The scalar sgdEpoch<R> (sgd.cc) with the rank coordinates of one
 * factor row as lanes: whole 4-wide vectors, then a scalar tail for
 * rank % 4. The dot product's lane products are summed in scalar k
 * order from 0.0, and each lane update is the reference's
 * `x + lr * (err * y - reg * x)` from pre-update values.
 */
template <size_t R>
double
sgdEpochRank(double* p, double* q, size_t rank, const SgdEntry* entries,
             const uint32_t* order, size_t count, double lr, double reg)
{
    const size_t r = R > 0 ? R : rank;
    const size_t vec_end = r / kKernelBlock * kKernelBlock;
    const __m256d lr_v = _mm256_set1_pd(lr);
    const __m256d reg_v = _mm256_set1_pd(reg);
    double sq_err = 0.0;
    for (size_t i = 0; i < count; ++i) {
        const SgdEntry& e = entries[order[i]];
        double* pr = p + e.row * r;
        double* qr = q + e.col * r;
        double acc = 0.0;
        for (size_t k = 0; k < vec_end; k += kKernelBlock)
            acc = addLanesInOrder(
                acc, _mm256_mul_pd(_mm256_loadu_pd(pr + k),
                                   _mm256_loadu_pd(qr + k)));
        for (size_t k = vec_end; k < r; ++k)
            acc += pr[k] * qr[k];
        const double err = e.value - acc;
        sq_err += err * err;
        const __m256d err_v = _mm256_set1_pd(err);
        for (size_t k = 0; k < vec_end; k += kKernelBlock) {
            const __m256d pk = _mm256_loadu_pd(pr + k);
            const __m256d qk = _mm256_loadu_pd(qr + k);
            _mm256_storeu_pd(
                pr + k,
                _mm256_add_pd(
                    pk, _mm256_mul_pd(
                            lr_v, _mm256_sub_pd(_mm256_mul_pd(err_v, qk),
                                                _mm256_mul_pd(reg_v, pk)))));
            _mm256_storeu_pd(
                qr + k,
                _mm256_add_pd(
                    qk, _mm256_mul_pd(
                            lr_v, _mm256_sub_pd(_mm256_mul_pd(err_v, pk),
                                                _mm256_mul_pd(reg_v, qk)))));
        }
        for (size_t k = vec_end; k < r; ++k) {
            double pk = pr[k];
            double qk = qr[k];
            pr[k] += lr * (err * qk - reg * pk);
            qr[k] += lr * (err * pk - reg * qk);
        }
    }
    return sq_err;
}

} // namespace

double
sgdEpoch(double* p, double* q, size_t rank, const SgdEntry* entries,
         const uint32_t* order, size_t count, double lr, double reg)
{
    switch (rank) {
    case 1:
        return sgdEpochRank<1>(p, q, rank, entries, order, count, lr, reg);
    case 2:
        return sgdEpochRank<2>(p, q, rank, entries, order, count, lr, reg);
    case 3:
        return sgdEpochRank<3>(p, q, rank, entries, order, count, lr, reg);
    case 4:
        return sgdEpochRank<4>(p, q, rank, entries, order, count, lr, reg);
    case 5:
        return sgdEpochRank<5>(p, q, rank, entries, order, count, lr, reg);
    case 6:
        return sgdEpochRank<6>(p, q, rank, entries, order, count, lr, reg);
    case 7:
        return sgdEpochRank<7>(p, q, rank, entries, order, count, lr, reg);
    case 8:
        return sgdEpochRank<8>(p, q, rank, entries, order, count, lr, reg);
    default:
        return sgdEpochRank<0>(p, q, rank, entries, order, count, lr, reg);
    }
}

} // namespace avx2_kernels
} // namespace linalg
} // namespace bolt
