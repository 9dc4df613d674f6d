#ifndef BOLT_UTIL_MT19937_64_H
#define BOLT_UTIL_MT19937_64_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace bolt {
namespace util {

/**
 * MT19937-64 with lazily computed first-generation state.
 *
 * The output equals std::mt19937_64 word for word, for every seed and
 * every draw count, so std:: distributions driven by it produce the
 * same values. Only the cost profile differs: std::mt19937_64 seeds all
 * 312 state words and twists all of them before the first draw, while
 * this engine does the work a draw actually needs. Draw p of the first
 * generation needs seed words 0..min(p + 157, 312) and twists word p
 * alone, so a short-lived stream that draws a dozen values seeds ~169
 * words and twists 12. Once the first generation is spent the engine
 * runs the standard bulk twist.
 *
 * Words at and past `seeded_` are never read (not even by a copy), so
 * the engine is clean under memory sanitizers by construction.
 *
 * Lockstep priming: a fresh engine's first draw needs seed words
 * 1..kM, a serial chain of multiplies. seedLockstep() runs the chains
 * of up to kLockstep fresh engines interleaved, which hides the
 * multiply latency, and leaves each engine exactly as a lazy first
 * draw would have: same words, same output. An engine that has already
 * seeded past word 0 is left untouched, so priming is never required
 * and never changes a value.
 *
 * Prefixes: twistPrefix() copies out the first k first-generation
 * state words (twisted, not yet tempered) of an engine, and
 * adoptPrefix() makes an engine from its seed and such a prefix. The
 * adopted engine draws exactly what the source would: its first k
 * draws temper the given words, and the first refill past them
 * rebuilds the seed chain from `seed` up to word k and continues as a
 * lazy engine. The words are copied in, so no pointer to the caller's
 * buffer is kept and a copy of the engine stays valid on its own. Draws
 * keep their single `next_ >= ready_` test; the rebuild lives in the
 * cold refill().
 */
class Mt19937_64
{
  public:
    using result_type = uint64_t;

    static constexpr result_type min() { return 0; }
    static constexpr result_type max()
    {
        return std::numeric_limits<result_type>::max();
    }

    explicit Mt19937_64(uint64_t seed) : seed_(seed) { mt_[0] = seed; }

    /** The seed: word 0 of the seed chain. */
    uint64_t seed() const { return seed_; }

    // noexcept keeps the implicit moves of enclosing types noexcept, so
    // std::vector relocates them instead of deep-copying their members.
    Mt19937_64(const Mt19937_64& o) noexcept { *this = o; }

    Mt19937_64&
    operator=(const Mt19937_64& o) noexcept
    {
        if (this == &o)
            return *this;
        std::copy_n(o.mt_, o.seeded_, mt_);
        next_ = o.next_;
        ready_ = o.ready_;
        seeded_ = o.seeded_;
        seed_ = o.seed_;
        return *this;
    }

    /** State words per generation; the longest prefix. */
    static constexpr size_t kStateWords = 312;

    /** Engines seedLockstep() interleaves per call. */
    static constexpr size_t kLockstep = 8;

    /**
     * Seed words 1..kM of the first kLockstep fresh engines among
     * `engines[0..n)`, the chains interleaved. Any further engines stay
     * lazy, which changes no draw either.
     */
    static void
    seedLockstep(Mt19937_64* const* engines, size_t n)
    {
        // Lanes without a fresh engine write a local buffer that is
        // never read, so the chain loop keeps a fixed width the
        // compiler unrolls.
        uint64_t spare[kM + 1];
        uint64_t* words[kLockstep] = {};
        uint64_t x[kLockstep] = {};
        Mt19937_64* fresh[kLockstep] = {};
        size_t m = 0;
        for (size_t l = 0; l < n && m < kLockstep; ++l)
            if (engines[l]->seeded_ == 1)
                fresh[m++] = engines[l];
        for (size_t l = 0; l < kLockstep; ++l) {
            words[l] = l < m ? fresh[l]->mt_ : spare;
            x[l] = l < m ? fresh[l]->mt_[0] : 0;
        }
        for (size_t i = 1; i <= kM; ++i)
            for (size_t l = 0; l < kLockstep; ++l)
                words[l][i] = x[l] = seedWord(x[l], i);
        for (size_t l = 0; l < m; ++l)
            fresh[l]->seeded_ = kM + 1;
    }

    /**
     * Write the first k (<= kStateWords) first-generation state words
     * to out, twisting those not twisted yet. Only for an engine still
     * in its first generation; no draw of it changes.
     */
    void
    twistPrefix(uint64_t* out, size_t k)
    {
        while (ready_ < k)
            refill();
        std::copy_n(mt_, k, out);
    }

    /**
     * Become the engine seeded with `seed`, positioned before its first
     * draw, whose first k (<= kStateWords) first-generation state words
     * are words[0..k) as twistPrefix() wrote them.
     */
    void
    adoptPrefix(uint64_t seed, const uint64_t* words, size_t k)
    {
        std::copy_n(words, k, mt_);
        seed_ = seed;
        next_ = 0;
        ready_ = k;
        seeded_ = k;
    }

    result_type
    operator()()
    {
        if (next_ >= ready_)
            refill();
        uint64_t z = mt_[next_++];
        z ^= (z >> 29) & 0x5555555555555555ULL;
        z ^= (z << 17) & 0x71D67FFFEDA60000ULL;
        z ^= (z << 37) & 0xFFF7EEE000000000ULL;
        return z ^ (z >> 43);
    }

  private:
    static constexpr size_t kN = kStateWords;
    static constexpr size_t kM = 156;

    /** Seed word i from word i - 1 (the std::mt19937_64 initializer). */
    static uint64_t
    seedWord(uint64_t prev, size_t i)
    {
        return 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
    }

    /** Recurrence x[k+n] = x[k+m] ^ A((x[k] & upper) | (x[k+1] & lower)). */
    static uint64_t
    twist(uint64_t xk, uint64_t xk1, uint64_t xkm)
    {
        uint64_t y = (xk & ~0x7FFFFFFFULL) | (xk1 & 0x7FFFFFFFULL);
        return xkm ^ (y >> 1) ^ ((y & 1) ? 0xB5026F5AA96619E9ULL : 0);
    }

    void
    refill()
    {
        if (ready_ == kN) {
            twistAll();
            next_ = 0;
            return;
        }
        // First generation: word p is twisted in place exactly as the
        // bulk twist would, reading seed words p + 1 and p + m (or, past
        // the middle, the already-twisted word p + m - n).
        const size_t p = ready_;
        if (seeded_ == p) {
            // Past an adopted prefix: words [0, p) are twisted output,
            // so seed word p is rebuilt from the seed.
            uint64_t x = seed_;
            for (size_t i = 1; i <= p; ++i)
                x = seedWord(x, i);
            mt_[p] = x;
            seeded_ = p + 1;
        }
        for (const size_t need = std::min(p + kM + 1, kN); seeded_ < need;
             ++seeded_)
            mt_[seeded_] = seedWord(mt_[seeded_ - 1], seeded_);
        mt_[p] = twist(mt_[p], mt_[p + 1 == kN ? 0 : p + 1],
                       mt_[p < kN - kM ? p + kM : p + kM - kN]);
        ready_ = p + 1;
    }

    void
    twistAll()
    {
        size_t k = 0;
        for (; k < kN - kM; ++k)
            mt_[k] = twist(mt_[k], mt_[k + 1], mt_[k + kM]);
        for (; k < kN - 1; ++k)
            mt_[k] = twist(mt_[k], mt_[k + 1], mt_[k + kM - kN]);
        mt_[kN - 1] = twist(mt_[kN - 1], mt_[0], mt_[kM - 1]);
    }

    uint64_t mt_[kN];
    /** Index of the next word to temper and return. */
    size_t next_ = 0;
    /** Words [0, ready_) hold the current generation's output. */
    size_t ready_ = 0;
    /**
     * Words [0, seeded_) are initialized; the rest are never read. In
     * the first generation seeded_ > ready_, except right after
     * adoptPrefix(), where seeded_ == ready_ marks the missing chain.
     */
    size_t seeded_ = 1;
    uint64_t seed_;
};

} // namespace util
} // namespace bolt

#endif // BOLT_UTIL_MT19937_64_H
