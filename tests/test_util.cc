/**
 * @file
 * Unit tests for the util library: RNG determinism and substreams,
 * bit identity of the MT19937-64 engine and Rng samplers with std::,
 * summary statistics, histograms, online stats, 2-D heatmaps, the
 * ASCII table/series renderers, and the work-stealing thread pool.
 */
#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <random>
#include <span>
#include <sstream>
#include <type_traits>

#include <gtest/gtest.h>

#include "util/mt19937_64.h"
#include "util/rng.h"
#include "util/seeds.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace bolt::util;

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 100; ++i)
        equal += a.uniform() == b.uniform() ? 1 : 0;
    EXPECT_LT(equal, 5);
}

TEST(Rng, SubstreamIsIndependentOfParentDraws)
{
    Rng parent(7);
    Rng sub1 = parent.substream("alpha");
    parent.uniform(); // advancing the parent must not change substreams
    Rng sub2 = Rng(7).substream("alpha");
    for (int i = 0; i < 20; ++i)
        EXPECT_DOUBLE_EQ(sub1.uniform(), sub2.uniform());
}

TEST(Rng, SubstreamsWithDifferentLabelsDiffer)
{
    Rng parent(7);
    Rng a = parent.substream("alpha");
    Rng b = parent.substream("beta");
    Rng c = parent.substream("alpha", 1);
    EXPECT_NE(a.uniform(), b.uniform());
    EXPECT_NE(Rng(7).substream("alpha").uniform(), c.uniform());
}

TEST(Rng, UniformInRange)
{
    Rng rng(3);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform(2.0, 5.0);
        EXPECT_GE(u, 2.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntInclusiveBounds)
{
    Rng rng(3);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        int64_t v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ClampedGaussianStaysInBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.clampedGaussian(50.0, 40.0, 0.0, 100.0);
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 100.0);
    }
}

TEST(Rng, GaussianMoments)
{
    Rng rng(11);
    OnlineStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.gaussian(10.0, 2.0));
    EXPECT_NEAR(stats.mean(), 10.0, 0.1);
    EXPECT_NEAR(stats.stddev(), 2.0, 0.1);
}

TEST(Rng, WeightedIndexRespectsWeights)
{
    Rng rng(13);
    std::vector<double> weights = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 4000; ++i)
        ++counts[rng.weightedIndex(weights)];
    EXPECT_EQ(counts[1], 0);
    EXPECT_GT(counts[2], counts[0]);
    EXPECT_NEAR(static_cast<double>(counts[2]) / counts[0], 3.0, 0.5);
}

TEST(Rng, WeightedIndexThrowsOnZeroMass)
{
    Rng rng(1);
    std::vector<double> weights = {0.0, 0.0};
    EXPECT_THROW(rng.weightedIndex(weights), std::invalid_argument);
}

TEST(Rng, PermutationIsValid)
{
    Rng rng(17);
    auto perm = rng.permutation(50);
    std::vector<bool> seen(50, false);
    for (size_t v : perm) {
        ASSERT_LT(v, 50u);
        EXPECT_FALSE(seen[v]);
        seen[v] = true;
    }
}

TEST(Rng, IndexThrowsOnEmpty)
{
    Rng rng(1);
    EXPECT_THROW(rng.index(0), std::invalid_argument);
}

// ------------------------------------------- MT19937-64 bit identity
//
// Every golden in the repo depends on Rng producing exactly what
// std::mt19937_64 (driven through the same std:: distributions) would.
// These tests use std::mt19937_64 as the oracle.

namespace {

/** Seeds 0, 1, 2^64-1 and 500 Rng::stream-derived seeds. */
std::vector<uint64_t>
oracleSeeds()
{
    std::vector<uint64_t> seeds = {0, 1, ~uint64_t{0}};
    for (uint64_t i = 0; i < 500; ++i)
        seeds.push_back(Rng::stream(0xB17, {i}).seed());
    return seeds;
}

} // namespace

TEST(Mt19937_64, RawWordsMatchStdAcrossGenerations)
{
    // 1000 draws span the lazily computed first generation and three
    // bulk twists.
    for (uint64_t seed : oracleSeeds()) {
        Mt19937_64 engine(seed);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < 1000; ++i)
            ASSERT_EQ(engine(), oracle()) << "seed " << seed << " draw " << i;
    }
}

TEST(Rng, SamplersMatchStdDistributionsOnOracle)
{
    const std::vector<double> weights = {0.5, 0.0, 2.0, 1.25, 0.25};
    for (uint64_t seed : {uint64_t{0}, uint64_t{42}, ~uint64_t{0}}) {
        Rng rng(seed);
        std::mt19937_64 o(seed);
        auto o_uniform = [&](double lo, double hi) {
            return std::uniform_real_distribution<double>(lo, hi)(o);
        };
        auto o_index = [&](size_t n) {
            return static_cast<size_t>(std::uniform_int_distribution<int64_t>(
                0, static_cast<int64_t>(n) - 1)(o));
        };
        // Mixed calls, so that samplers consuming one, two or a variable
        // number of words cross generation boundaries at varying points.
        for (int i = 0; i < 400; ++i) {
            ASSERT_EQ(rng.uniform(), o_uniform(0.0, 1.0));
            ASSERT_EQ(rng.uniform(-3.0, 7.5), o_uniform(-3.0, 7.5));
            ASSERT_EQ(rng.uniformInt(-5, 1000),
                      std::uniform_int_distribution<int64_t>(-5, 1000)(o));
            ASSERT_EQ(rng.gaussian(2.0, 0.5),
                      std::normal_distribution<double>(2.0, 0.5)(o));
            double g = std::normal_distribution<double>(50.0, 30.0)(o);
            ASSERT_EQ(rng.clampedGaussian(50.0, 30.0, 0.0, 100.0),
                      std::clamp(g, 0.0, 100.0));
            ASSERT_EQ(rng.bernoulli(0.3), std::bernoulli_distribution(0.3)(o));
            ASSERT_EQ(rng.exponential(4.0),
                      std::exponential_distribution<double>(0.25)(o));
            ASSERT_EQ(
                rng.lognormal(3.0, 0.4),
                std::lognormal_distribution<double>(std::log(3.0), 0.4)(o));
            ASSERT_EQ(rng.index(17), o_index(17));

            double u = o_uniform(0.0, 4.0); // weights sum to 4
            size_t expect = weights.size() - 1;
            double acc = 0.0;
            for (size_t w = 0; w < weights.size(); ++w) {
                acc += weights[w];
                if (u < acc) {
                    expect = w;
                    break;
                }
            }
            ASSERT_EQ(rng.weightedIndex(weights), expect);

            std::vector<size_t> perm(9);
            std::iota(perm.begin(), perm.end(), size_t{0});
            for (size_t n = perm.size(); n > 1; --n)
                std::swap(perm[n - 1], perm[o_index(n)]);
            ASSERT_EQ(rng.permutation(9), perm);
        }
    }
}

// Rng is held by value in containers (linalg::SgdScratch); a throwing
// copy would make std::vector deep-copy its neighbours when it grows.
static_assert(std::is_nothrow_copy_constructible_v<Rng>);
static_assert(std::is_nothrow_move_constructible_v<Rng>);

TEST(Rng, CopyMidStreamContinuesLikeOracle)
{
    // Copy construction and copy assignment around every lazy-state
    // boundary: before any draw, inside the seeding frontier, at the
    // middle of the first generation, and across the first bulk twist.
    for (int k : {0, 1, 155, 156, 157, 311, 312, 313}) {
        Rng source(77);
        std::mt19937_64 oracle(77);
        std::uniform_real_distribution<double> unit;
        for (int i = 0; i < k; ++i) {
            source.uniform();
            unit(oracle);
        }
        Rng constructed = source;
        Rng assigned(5);
        for (int i = 0; i < 400; ++i) // overwrite a fully seeded state
            assigned.uniform();
        assigned = source;
        for (int i = 0; i < 700; ++i) {
            double want = unit(oracle);
            ASSERT_EQ(source.uniform(), want) << "k " << k << " i " << i;
            ASSERT_EQ(constructed.uniform(), want) << "k " << k << " i " << i;
            ASSERT_EQ(assigned.uniform(), want) << "k " << k << " i " << i;
        }
    }
}

namespace {

/** Draw counts around the lazy-state boundaries of Mt19937_64. */
constexpr int kPrimeDrawCounts[] = {0,   1,   2,   155, 156, 157,
                                    158, 311, 312, 313, 1000};

/** Lane l of a block of n streams on a 2- or 3-coordinate path. */
uint64_t
laneSeed(uint64_t root, size_t n, int k, size_t l, bool three)
{
    return (three ? Rng::stream(root, {n, static_cast<uint64_t>(k), l})
                  : Rng::stream(root, {n, l}))
        .seed();
}

/** Every sampler once on each stream; the results must agree. */
void
expectSamplersAgree(Rng& got, Rng& want)
{
    const std::vector<double> weights = {0.5, 0.0, 2.0, 1.25, 0.25};
    ASSERT_EQ(got.uniform(-3.0, 7.5), want.uniform(-3.0, 7.5));
    ASSERT_EQ(got.uniformInt(-5, 1000), want.uniformInt(-5, 1000));
    ASSERT_EQ(got.gaussian(2.0, 0.5), want.gaussian(2.0, 0.5));
    ASSERT_EQ(got.clampedGaussian(50.0, 30.0, 0.0, 100.0),
              want.clampedGaussian(50.0, 30.0, 0.0, 100.0));
    ASSERT_EQ(got.bernoulli(0.3), want.bernoulli(0.3));
    ASSERT_EQ(got.exponential(4.0), want.exponential(4.0));
    ASSERT_EQ(got.lognormal(3.0, 0.4), want.lognormal(3.0, 0.4));
    ASSERT_EQ(got.index(17), want.index(17));
    ASSERT_EQ(got.weightedIndex(weights), want.weightedIndex(weights));
    ASSERT_EQ(got.permutation(9), want.permutation(9));
}

} // namespace

TEST(Rng, PrimedStreamsMatchUnprimed)
{
    // Raw words: every block width, random roots, 2- and 3-coordinate
    // paths. Odd lanes draw k words first, so each block mixes fresh
    // lanes (primed) with drawn ones (left alone); each block is primed
    // twice, and a copy taken right after priming must continue like
    // the original.
    for (uint64_t trial = 0; trial < 8; ++trial) {
        const uint64_t root = Rng::stream(0x9121E, {trial}).seed();
        const bool three = trial % 2 == 1;
        for (size_t n = 1; n <= Mt19937_64::kLockstep; ++n) {
            for (int k : kPrimeDrawCounts) {
                SCOPED_TRACE(::testing::Message()
                             << "trial " << trial << " n " << n << " k "
                             << k);
                std::vector<Mt19937_64> got, want;
                for (size_t l = 0; l < n; ++l) {
                    got.emplace_back(laneSeed(root, n, k, l, three));
                    want.emplace_back(laneSeed(root, n, k, l, three));
                }
                for (size_t l = 1; l < n; l += 2)
                    for (int i = 0; i < k; ++i)
                        ASSERT_EQ(got[l](), want[l]());
                std::vector<Mt19937_64*> lanes;
                for (Mt19937_64& e : got)
                    lanes.push_back(&e);
                Mt19937_64::seedLockstep(lanes.data(), n);
                Mt19937_64::seedLockstep(lanes.data(), n);
                Mt19937_64 copy = got[n - 1];
                Mt19937_64 copyWant = want[n - 1];
                for (size_t l = 0; l < n; ++l)
                    for (int i = 0; i < 1000; ++i)
                        ASSERT_EQ(got[l](), want[l]())
                            << "lane " << l << " word " << i;
                for (int i = 0; i < 1000; ++i)
                    ASSERT_EQ(copy(), copyWant()) << "copy word " << i;
            }
        }
    }

    // Samplers through Rng::prime, including blocks wider than one
    // lockstep pass: prime, copy, draw k, prime again, then every
    // sampler.
    for (uint64_t trial = 0; trial < 4; ++trial) {
        const uint64_t root = Rng::stream(0x5A3E, {trial}).seed();
        const bool three = trial % 2 == 1;
        for (size_t n : {1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u, 9u, 17u}) {
            for (int k : kPrimeDrawCounts) {
                SCOPED_TRACE(::testing::Message()
                             << "trial " << trial << " n " << n << " k "
                             << k);
                std::vector<Rng> got, want;
                for (size_t l = 0; l < n; ++l) {
                    got.push_back(Rng(laneSeed(root, n, k, l, three)));
                    want.push_back(Rng(laneSeed(root, n, k, l, three)));
                }
                Rng::prime(got);
                Rng copy = got[0];
                Rng copyWant = want[0];
                for (size_t l = 0; l < n; ++l)
                    for (int i = 0; i < k; ++i)
                        ASSERT_EQ(got[l].uniform(), want[l].uniform())
                            << "lane " << l << " draw " << i;
                Rng::prime(got);
                for (size_t l = 0; l < n; ++l)
                    ASSERT_NO_FATAL_FAILURE(
                        expectSamplersAgree(got[l], want[l]))
                        << "lane " << l;
                for (int i = 0; i < k; ++i)
                    ASSERT_EQ(copy.uniform(), copyWant.uniform());
                ASSERT_NO_FATAL_FAILURE(expectSamplersAgree(copy, copyWant));
            }
        }
    }
}

TEST(Rng, AdoptedPrefixMatchesFreshStream)
{
    // A stream rebuilt by fromPrefix() from its seed and its first k
    // words must draw exactly what a fresh Rng::stream draws: inside
    // the prefix, across its end, through the rest of the first
    // generation and across bulk twists. Half the sources are primed
    // first (the fleet planes prime and then twist), and the source
    // itself must draw on unchanged after handing out its prefix.
    constexpr int kDrawsAfter = 1000;
    for (size_t k : {1u, 2u, 4u, 23u, 24u}) {
        const int ki = static_cast<int>(k);
        for (int d : {0, 1, ki - 1, ki, ki + 1, 156, 157, 312, 313, 1000}) {
            for (uint64_t trial = 0; trial < 4; ++trial) {
                SCOPED_TRACE(::testing::Message()
                             << "k " << k << " d " << d << " trial "
                             << trial);
                auto fresh = [&] {
                    return Rng::stream(0xAD0B7,
                                       {k, static_cast<uint64_t>(d), trial});
                };
                Rng source = fresh();
                if (trial % 2 == 1)
                    Rng::prime(std::span(&source, 1));
                std::vector<uint64_t> words(k);
                source.twistPrefix(words);
                Rng adopted = Rng::fromPrefix(source.seed(), words);
                words.assign(k, 0); // the stream keeps no pointer
                Rng want = fresh();
                Rng sourceWant = fresh();
                ASSERT_EQ(adopted.seed(), want.seed());

                // A copy taken before any draw, and one taken after d
                // draws: before, at or past the end of the prefix.
                Rng before = adopted;
                Rng beforeWant = fresh();
                for (int i = 0; i < d; ++i)
                    ASSERT_EQ(adopted.uniform(), want.uniform())
                        << "draw " << i;
                Rng after = adopted;
                Rng afterWant = want;
                for (int i = 0; i < kDrawsAfter; ++i)
                    ASSERT_EQ(adopted.uniform(), want.uniform())
                        << "draw " << d + i;
                ASSERT_NO_FATAL_FAILURE(expectSamplersAgree(adopted, want));
                for (int i = 0; i < d + kDrawsAfter; ++i)
                    ASSERT_EQ(before.uniform(), beforeWant.uniform())
                        << "copy before, draw " << i;
                ASSERT_NO_FATAL_FAILURE(
                    expectSamplersAgree(after, afterWant));
                for (int i = 0; i < d + kDrawsAfter; ++i)
                    ASSERT_EQ(source.uniform(), sourceWant.uniform())
                        << "source draw " << i;
            }
        }
    }

    // Every sampler straight after adoption, so that multi-word draws
    // straddle the end of short prefixes; raw engine words against the
    // std::mt19937_64 oracle for every prefix length up to a full
    // generation.
    for (size_t k : {1u, 2u, 4u, 23u, 24u}) {
        Rng source = Rng::stream(0x5A3E, {k});
        std::vector<uint64_t> words(k);
        source.twistPrefix(words);
        Rng adopted = Rng::fromPrefix(source.seed(), words);
        Rng want = Rng::stream(0x5A3E, {k});
        for (int round = 0; round < 30; ++round)
            ASSERT_NO_FATAL_FAILURE(expectSamplersAgree(adopted, want))
                << "k " << k << " round " << round;
    }
    for (size_t k = 0; k <= Mt19937_64::kStateWords; ++k) {
        const uint64_t seed = Rng::stream(0x0AC1E, {k}).seed();
        Mt19937_64 source(seed);
        std::vector<uint64_t> words(k);
        source.twistPrefix(words.data(), k);
        Mt19937_64 adopted(~seed);
        adopted.adoptPrefix(seed, words.data(), k);
        std::mt19937_64 oracle(seed);
        for (int i = 0; i < 700; ++i)
            ASSERT_EQ(adopted(), oracle()) << "k " << k << " word " << i;
    }
}

TEST(Summary, BasicMoments)
{
    Summary s;
    s.addAll({1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(5.0 / 3.0), 1e-12);
}

TEST(Summary, PercentileInterpolates)
{
    Summary s;
    s.addAll({10.0, 20.0, 30.0, 40.0, 50.0});
    EXPECT_DOUBLE_EQ(s.percentile(0), 10.0);
    EXPECT_DOUBLE_EQ(s.percentile(50), 30.0);
    EXPECT_DOUBLE_EQ(s.percentile(100), 50.0);
    EXPECT_DOUBLE_EQ(s.percentile(25), 20.0);
}

TEST(Summary, PercentileAfterMoreSamples)
{
    Summary s;
    s.add(1.0);
    EXPECT_DOUBLE_EQ(s.percentile(99), 1.0);
    s.add(3.0);
    // The lazily-sorted cache must refresh when samples change.
    EXPECT_DOUBLE_EQ(s.percentile(100), 3.0);
}

TEST(Summary, EmptyBehaviour)
{
    Summary s;
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(std::isnan(s.percentile(50)));
    EXPECT_TRUE(std::isnan(s.min()));
    EXPECT_THROW(s.percentile(-1), std::invalid_argument);
}

TEST(Summary, SingleSampleStatistics)
{
    Summary s;
    s.add(7.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 7.5);
    EXPECT_DOUBLE_EQ(s.min(), 7.5);
    EXPECT_DOUBLE_EQ(s.max(), 7.5);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0); // n < 2: undefined -> 0
    // Every percentile of a single sample is that sample.
    for (double p : {0.0, 1.0, 50.0, 99.0, 100.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), 7.5);
}

TEST(Summary, AllEqualSamples)
{
    Summary s;
    s.addAll({4.0, 4.0, 4.0, 4.0, 4.0});
    EXPECT_DOUBLE_EQ(s.mean(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), s.max());
    // Interpolation between equal neighbors must not drift.
    for (double p : {0.0, 10.0, 33.3, 50.0, 90.0, 100.0})
        EXPECT_DOUBLE_EQ(s.percentile(p), 4.0);
}

TEST(Summary, PercentileBoundsChecked)
{
    Summary s;
    s.addAll({1.0, 2.0});
    EXPECT_THROW(s.percentile(-0.001), std::invalid_argument);
    EXPECT_THROW(s.percentile(100.001), std::invalid_argument);
    EXPECT_DOUBLE_EQ(s.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(s.percentile(100.0), 2.0);
}

TEST(Summary, ClearResetsToEmpty)
{
    Summary s;
    s.addAll({1.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(s.percentile(50), 2.0);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_TRUE(std::isnan(s.percentile(50)));
    EXPECT_TRUE(std::isnan(s.max()));
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Histogram, EmptyHistogramFractions)
{
    Histogram h(0.0, 10.0, 5);
    EXPECT_EQ(h.total(), 0u);
    for (size_t b = 0; b < h.bins(); ++b) {
        EXPECT_EQ(h.count(b), 0u);
        EXPECT_DOUBLE_EQ(h.fraction(b), 0.0); // no mass, no NaN
    }
}

TEST(Histogram, SingleSampleMass)
{
    Histogram h(0.0, 10.0, 5);
    h.add(5.0);
    EXPECT_EQ(h.total(), 1u);
    EXPECT_EQ(h.count(2), 1u);
    EXPECT_DOUBLE_EQ(h.fraction(2), 1.0);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.0);
}

TEST(Histogram, AllEqualSamplesLandInOneBin)
{
    Histogram h(0.0, 10.0, 5);
    for (int i = 0; i < 100; ++i)
        h.add(3.0);
    EXPECT_EQ(h.total(), 100u);
    EXPECT_EQ(h.count(1), 100u);
    EXPECT_DOUBLE_EQ(h.fraction(1), 1.0);
}

TEST(Histogram, BinsAndClamping)
{
    Histogram h(0.0, 10.0, 5);
    h.add(-5.0);  // clamps into bin 0
    h.add(0.5);
    h.add(9.9);
    h.add(15.0);  // clamps into the last bin
    EXPECT_EQ(h.count(0), 2u);
    EXPECT_EQ(h.count(4), 2u);
    EXPECT_EQ(h.total(), 4u);
    EXPECT_DOUBLE_EQ(h.fraction(0), 0.5);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 1.0);
}

TEST(Histogram, RejectsBadConstruction)
{
    EXPECT_THROW(Histogram(0.0, 0.0, 4), std::invalid_argument);
    EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

TEST(OnlineStats, MatchesBatch)
{
    OnlineStats o;
    Summary s;
    Rng rng(23);
    for (int i = 0; i < 500; ++i) {
        double v = rng.uniform(0, 100);
        o.add(v);
        s.add(v);
    }
    EXPECT_NEAR(o.mean(), s.mean(), 1e-9);
    EXPECT_NEAR(o.stddev(), s.stddev(), 1e-9);
}

TEST(Heatmap2D, ProbabilityPerCell)
{
    Heatmap2D h(0.0, 100.0, 4);
    h.add(10.0, 10.0, true);
    h.add(10.0, 10.0, false);
    h.add(90.0, 90.0, true);
    EXPECT_DOUBLE_EQ(h.probability(0, 0), 0.5);
    EXPECT_DOUBLE_EQ(h.probability(3, 3), 1.0);
    EXPECT_TRUE(std::isnan(h.probability(1, 1)));
    EXPECT_EQ(h.observations(0, 0), 2u);
}

TEST(AsciiTable, RendersAlignedRows)
{
    AsciiTable t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("22"), std::string::npos);
    EXPECT_NE(out.find("|"), std::string::npos);
}

TEST(AsciiTable, RejectsMismatchedRow)
{
    AsciiTable t({"a", "b"});
    EXPECT_THROW(t.addRow({"only-one"}), std::invalid_argument);
    EXPECT_THROW(AsciiTable({}), std::invalid_argument);
}

TEST(AsciiTable, NumberFormatting)
{
    EXPECT_EQ(AsciiTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(AsciiTable::percent(0.875, 1), "87.5%");
}

TEST(Series, PrintAndCsv)
{
    Series s1{"acc", {1, 2, 3}, {90, 80, 70}};
    Series s2{"chars", {1, 2, 3}, {95, 92, 88}};
    std::ostringstream os;
    printSeries(os, "title", "x", {s1, s2}, 0);
    EXPECT_NE(os.str().find("title"), std::string::npos);
    EXPECT_NE(os.str().find("acc"), std::string::npos);

    std::string path = "/tmp/bolt_test_series.csv";
    writeCsv(path, "x", {s1, s2});
    std::ifstream in(path);
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header, "x,acc,chars");
}

TEST(AsciiHeatmap, RendersScale)
{
    AsciiHeatmap hm("t", "x", "y");
    std::ostringstream os;
    hm.print(os, 3, [](size_t bx, size_t by) {
        return (bx + by) / 4.0;
    });
    EXPECT_NE(os.str().find("t"), std::string::npos);
}

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(2003);
    for (auto& h : hits)
        h.store(0);
    pool.parallelFor(0, hits.size(),
                     [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(1, hits[i].load()) << i;
}

TEST(ThreadPool, UnevenTasksAreStolenAcrossWorkers)
{
    // One chunk is 1000x slower than the rest; with grain 1 the other
    // workers must steal the remaining chunks for this to finish fast.
    ThreadPool pool(4);
    std::atomic<long> total{0};
    pool.parallelFor(
        0, 64,
        [&](size_t i) {
            volatile long acc = 0;
            long spins = i == 0 ? 2000000 : 2000;
            for (long k = 0; k < spins; ++k)
                acc = acc + k;
            total.fetch_add(1);
        },
        1);
    EXPECT_EQ(64, total.load());
}

TEST(ThreadPool, NestedParallelForCompletes)
{
    ThreadPool::setGlobalThreads(4);
    std::vector<std::atomic<int>> hits(16 * 16);
    for (auto& h : hits)
        h.store(0);
    parallelFor(0, 16, [&](size_t i) {
        parallelFor(0, 16, [&](size_t j) {
            hits[i * 16 + j].fetch_add(1);
        });
    });
    for (size_t k = 0; k < hits.size(); ++k)
        ASSERT_EQ(1, hits[k].load()) << k;
}

TEST(ThreadPool, ExceptionPropagatesToCaller)
{
    ThreadPool pool(4);
    EXPECT_THROW(
        pool.parallelFor(0, 100,
                         [](size_t i) {
                             if (i == 57)
                                 throw std::runtime_error("boom");
                         },
                         1),
        std::runtime_error);
}

TEST(ThreadPool, SubmitRunsDetachedTasks)
{
    ThreadPool pool(2);
    std::atomic<int> ran{0};
    std::mutex m;
    std::condition_variable cv;
    for (int i = 0; i < 32; ++i)
        pool.submit([&] {
            if (ran.fetch_add(1) + 1 == 32) {
                std::lock_guard<std::mutex> lock(m);
                cv.notify_all();
            }
        });
    std::unique_lock<std::mutex> lock(m);
    cv.wait_for(lock, std::chrono::seconds(10),
                [&] { return ran.load() == 32; });
    EXPECT_EQ(32, ran.load());
}

TEST(ThreadPool, BackToBackSubmitsWakeAnIdleWorker)
{
    // Each submit must wake the one worker, which is forever about to
    // go back to sleep: the submitter spins on the task without
    // helping, so a lost wake leaves the task queued until the pool
    // shuts down. The flags are shared so a stranded task that runs at
    // shutdown writes to live memory.
    ThreadPool pool(1);
    constexpr int kIterations = 20000;
    for (int i = 0; i < kIterations; ++i) {
        auto ran = std::make_shared<std::atomic<bool>>(false);
        pool.submit([ran] { ran->store(true, std::memory_order_release); });
        auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(1);
        while (!ran->load(std::memory_order_acquire)) {
            ASSERT_LT(std::chrono::steady_clock::now(), deadline)
                << "task of iteration " << i << " not started after 1 s";
            std::this_thread::yield();
        }
    }
}

TEST(Rng, CounterStreamMatchesRegardlessOfDerivationOrder)
{
    // Derive the same stream key from different threads in different
    // orders; the draw sequence must not depend on any of that.
    ThreadPool pool(4);
    std::vector<double> first_draw(32);
    pool.parallelFor(0, 32, [&](size_t i) {
        first_draw[i] = Rng::stream(123, {7, i}).uniform();
    }, 1);
    for (size_t i = 0; i < 32; ++i)
        EXPECT_DOUBLE_EQ(first_draw[i],
                         Rng::stream(123, {7, i}).uniform())
            << i;
}

// ------------------------------------------------------------- seeds

TEST(Seeds, PhaseKeysAreFrozen)
{
    // These keys partition the global Rng::stream namespace between
    // layers; goldens across the repo depend on them. Changing any
    // value is a breaking change that must regenerate every golden.
    using namespace bolt::util::seeds;
    EXPECT_EQ(kServeArrival, 0x5E40u);
    EXPECT_EQ(kServeThink, 0x5E41u);
    EXPECT_EQ(kServeQuery, 0x5E42u);
    EXPECT_EQ(kServeCost, 0x5E43u);
    EXPECT_EQ(kScenarioStage, 0x5ce9a210u);
    EXPECT_EQ(kScenarioSegment, 0x5ce9a211u);
    EXPECT_EQ(kScenarioRepeat, 0x5ce9a212u);
    EXPECT_EQ(kFleetBoot, 0xF1EE70u);
    EXPECT_EQ(kFleetChurn, 0xF1EE71u);
    EXPECT_EQ(kFleetProfile, 0xF1EE72u);
    EXPECT_EQ(kSchedRandomPick, 0x5C4EDAu);
    EXPECT_EQ(kColoPrefill, 0xC0107E51u);
    EXPECT_EQ(kColoWave, 0xC0107E52u);
    EXPECT_EQ(kColoOracle, 0xC0107E53u);
    EXPECT_EQ(kColoMab, 0xC0107E54u);
    EXPECT_EQ(kColoSecure, 0xC0107E55u);
    EXPECT_EQ(kColoCell, 0xC0107E56u);
    EXPECT_EQ(kColoProbe, 0xC0107E57u);
}

TEST(Seeds, DerivedSeedsArePinned)
{
    // Pin actual derivations, not just the keys: derivedSeed must stay
    // Rng::stream(root, {phase, index}).seed() forever. The scenario
    // stage value is the seed printed in the shipped flash_crowd
    // golden (seed 42, stage 0).
    using namespace bolt::util::seeds;
    EXPECT_EQ(derivedSeed(42, kScenarioStage, 0),
              157994749479370998ULL);
    EXPECT_EQ(derivedSeed(7, kScenarioSegment, 1),
              9786190715857023817ULL);
    EXPECT_EQ(derivedSeed(7, kScenarioRepeat, 2),
              12714009199645688437ULL);
    EXPECT_EQ(derivedSeed(1, kServeArrival, 3),
              17496408874684026397ULL);
    EXPECT_EQ(derivedSeed(42, kFleetBoot, 0),
              18110315803503863879ULL);
    EXPECT_EQ(derivedSeed(42, kFleetChurn, 5),
              16358945496798517875ULL);
    EXPECT_EQ(derivedSeed(42, kFleetProfile, 5),
              6937417235409671418ULL);
    // Definitional identity against the Rng itself.
    EXPECT_EQ(derivedSeed(99, kFleetChurn, 17),
              Rng::stream(99, {kFleetChurn, 17}).seed());
    EXPECT_EQ(derivedSeed(42, kSchedRandomPick, 0),
              Rng::stream(42, {kSchedRandomPick, 0}).seed());
    EXPECT_EQ(derivedSeed(42, kColoCell, 3),
              Rng::stream(42, {kColoCell, 3}).seed());
}

TEST(Seeds, FanoutSeedInheritsForSingletons)
{
    // A fan-out of one inherits the parent seed unchanged (a lone
    // serve segment or include repetition reproduces the parent run
    // exactly); wider fan-outs derive one seed per index.
    using namespace bolt::util::seeds;
    EXPECT_EQ(fanoutSeed(1234, kScenarioSegment, 1, 0), 1234u);
    EXPECT_EQ(fanoutSeed(1234, kScenarioSegment, 4, 2),
              derivedSeed(1234, kScenarioSegment, 2));
    EXPECT_NE(fanoutSeed(1234, kScenarioSegment, 4, 2),
              fanoutSeed(1234, kScenarioSegment, 4, 3));
}
